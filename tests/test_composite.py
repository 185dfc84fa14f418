"""Composite systems that stay expressions, against the closures they replace.

``build_small_input_system`` substitutes u_i := (P * Theta[s := norm(x)]) *
d_{m+i} into the plant's ASTs.  ``reference.small_input_system`` is the
closure the builder returned before, evaluated point by point through
``reference.ClosureSystem``; every value of the expression system must equal
it bit for bit.  NaNs may differ only in their sign bit, which IEEE 754 leaves
unspecified.  Every map and gain is an expression: a callable given where one
is expected is refused by the constructor.
"""

import math
import warnings

import numpy as np
import pytest

import dtstab.expr as expr_mod
import reference as ref
from dtstab.comparison import (KFn, TimeGain, constant, geometric, identity,
                               kfn_from_expr, linear, power_fn,
                               timegain_from_expr)
from dtstab.expr import (Bin, Call, Dims, Env, ExprDomainError, Var,
                         eval_expression, parse_expression, substitute)
from dtstab.registry import EXAMPLES, example_3_4, example_4_7
from dtstab.certify import (LyapunovCandidate, build_transformed_system,
                            compose_V_from_U)
from dtstab.stability import build_small_input_system
from dtstab.synth import ReconstructionMap, build_extended_system
from dtstab.system import (SystemDef, SystemFileError, VectorMap, ZeroInput,
                           bind_inputs, closed_loop, vecnorm)

B34, B47 = example_3_4(), example_4_7(0.5)

# m = 1: the paper's plant; m = 2 (and k = 2, n = 3): a plant whose inputs
# enter nonlinearly, so each component reads the substituted norm twice
PLANT_M2 = SystemDef(n=3, m=2, k=2, d_box=[[-1.0, 2.0], [0.0, 0.5]],
                     f=["d1*x1 + u1", "x2*d2 - u2*x3", "u1*u2 + 0.5*x3"],
                     H=["x1", "x3"], name="m2")
PLANTS = {"m1": B34.sys, "m2": PLANT_M2}

TIME_GAINS = {
    "constant": constant(0.3),
    "constant_neg": constant(-1.7),
    "geometric": geometric(3.0, 0.7),
    "geometric_up": geometric(0.9, 1.5),
    "from_expr": timegain_from_expr("1 + 2^(-t)/3"),
}
K_FNS = {
    "identity": identity(),
    "linear": linear(0.3),
    "power_root": power_fn(0.5, 2.0),
    "power_square": power_fn(2.0, 1.1),
    "from_expr": kfn_from_expr("3*s + 2*s^0.5", tag="Kinf"),
    "from_expr_t": kfn_from_expr("s/(1 + s) + t*s"),  # t reads 0
}


def states(n, rng):
    """Zero, tiny, huge, NaN and inf states among ordinary ones."""
    rows = [np.zeros(n), np.full(n, -0.0), np.full(n, 5e-324), np.full(n, 1e-160),
            np.full(n, 1e154), np.full(n, -1e300), np.full(n, 1e308)]
    for special in (math.nan, math.inf, -math.inf):
        row = np.linspace(-1.0, 2.0, n)
        row[-1] = special
        rows.append(row)
    rows.extend(rng.standard_normal((40, n)) * 10.0 ** rng.uniform(-3, 3, (40, 1)))
    return np.array(rows)


def disturbances(box, rng):
    lo, hi = box[:, 0], box[:, 1]
    rows = [lo, hi, (lo + hi) / 2.0, np.where(lo < 0.0, -0.0, lo)]
    rows.extend(rng.uniform(lo, hi, size=(12, box.shape[0])))
    return np.array(rows)


def sample_points(small, seed):
    """(t, x, d) over times, the special states and disturbance rows."""
    rng = np.random.default_rng(seed)
    X, D = states(small.n, rng), disturbances(small.d_box, rng)
    pts = [(float(t), x, d) for t in (0, 1, 7, 40) for x in X for d in D]
    return pts


def assert_matches_reference(small, loop, pts):
    """f_eval and f_rows (one time and per-row times) equal the reference."""
    kept = []
    for t, x, d in pts:
        want = loop.f_eval(t, d, x)
        kept.append((t, x, d, want))
        assert ref.same_bits(small.f_eval(t, d, x), want), (t, x, d)
    T = np.array([t for t, _, _, _ in kept])
    X = np.array([x for _, x, _, _ in kept])
    D = np.array([d for _, _, d, _ in kept])
    want = np.array([w for _, _, _, w in kept])
    assert ref.same_bits(small.f_rows(T, X, D), want)
    for t in np.unique(T):
        rows = T == t
        assert ref.same_bits(small.f_rows(float(t), X[rows], D[rows]), want[rows])


@pytest.mark.parametrize("plant", sorted(PLANTS))
@pytest.mark.parametrize("p", sorted(TIME_GAINS))
@pytest.mark.parametrize("theta", sorted(K_FNS))
def test_expression_small_input_equals_closure(plant, p, theta):
    sys, p, theta = PLANTS[plant], TIME_GAINS[p], K_FNS[theta]
    small = build_small_input_system(sys, p, theta)
    assert small.k == 0
    assert small.m == sys.m + sys.k
    with np.errstate(all="ignore"):
        assert_matches_reference(small, ref.small_input_system(sys, p, theta),
                                 sample_points(small, seed=len(plant)))
    assert np.array_equal(small.d_box, ref.small_input_system(sys, p, theta).d_box)


def plant(k, f=("d1*x1",), H=("x1",), h=None):
    """A one-state plant with k inputs (which f ignores)."""
    return SystemDef(n=1, m=1, k=k, d_box=[[-1.0, 1.0]], f=f, H=H, h=h)


CLOSURE_F = lambda t, d, x, u: d * x  # noqa: E731
CLOSURE_OUT = lambda t, x: x  # noqa: E731
# each constructor or factory that takes a map or a gain refuses a callable
# in its place, and a gain factory a parameter no literal spells; the keys
# name the composite each part would go into
REFUSED = {
    "small-input/p": lambda: TimeGain(lambda t: 0.5),
    "small-input/theta": lambda: KFn(lambda s: s, "s", "Kinf"),
    "small-input/p-inf": lambda: constant(math.inf),
    "small-input/theta-inf": lambda: linear(math.inf),
    "small-input/f": lambda: plant(1, f=CLOSURE_F),
    "closed-loop/f": lambda: plant(1, f=[CLOSURE_F]),
    "closed-loop/k": lambda: closed_loop(B47.sys, lambda t, x: [-x[1] ** 2]),
    "closed-loop/policy": lambda: closed_loop(B47.sys, ZeroInput()),
    "extended/f": lambda: VectorMap(CLOSURE_F, "f", 1, n=1, m=1),
    "extended/H": lambda: plant(1, H=CLOSURE_OUT),
    "extended/h": lambda: plant(1, h=CLOSURE_OUT),
    "transformed/f": lambda: SystemDef(n=1, m=0, k=0, d_box=np.zeros((0, 2)),
                                       f=CLOSURE_F, H=["x1"]),
    "transformed/H": lambda: plant(0, H=[CLOSURE_OUT]),
    "transformed/mu": lambda: TimeGain(None, "mu"),
    "transformed/mu-inf": lambda: geometric(1.0, math.inf),
    "composed/U": lambda: compose_V_from_U(lambda t, z, w: abs(z[0]),
                                           constant(1.0), plant(0)),
    "composed/H": lambda: plant(0, H=(CLOSURE_OUT,)),
    "composed/mu": lambda: TimeGain("2^(-t)", "mu"),
    "candidate/V": lambda: LyapunovCandidate(V=CLOSURE_OUT, n=1),
    "psi": lambda: ReconstructionMap(lambda t, y_p, ys, us: [0.0], p=1),
    "psi/ast": lambda: ReconstructionMap(Var("y1"), p=1),
    "constant-nan": lambda: constant(math.nan),
    "power-inf": lambda: power_fn(math.inf),
    "power-gain-nan": lambda: power_fn(2.0, math.nan),
    "geometric-C-inf": lambda: geometric(-math.inf, 0.5),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_parts_without_expressions_are_refused(case):
    with pytest.raises(ValueError, match="is not an expression|is not finite") as err:
        REFUSED[case]()
    # a feedback is a map: a policy in its place is refused as one
    map_part = case.split("/")[-1] in ("f", "H", "h", "k", "policy", "V")
    assert isinstance(err.value, SystemFileError) == map_part, case


def test_closed_loop_refuses_a_feedback_of_another_width():
    for fb in (["-x2^2", "5"], []):
        with pytest.raises(ValueError, match=f"feedback has {len(fb)} components"):
            closed_loop(B47.sys, fb)


def test_one_text_or_ast_is_not_an_expression_list():
    # a bare string was once read character by character: "0" closed the
    # loop with u = 0, and "x1" failed to parse "x"
    for make in (lambda: closed_loop(B47.sys, "0"),
                 lambda: closed_loop(B47.sys, Var("x1")),
                 lambda: VectorMap("x1", "V", n=1),
                 lambda: plant(1, H="x1")):
        with pytest.raises(SystemFileError, match="is not an expression list"):
            make()


def test_mutated_association_is_caught():
    # P * (Theta * d') instead of (P * Theta) * d' rounds differently
    sys, p, theta = PLANT_M2, TIME_GAINS["geometric"], K_FNS["linear"]
    size = Call("norm", (Var("x1"), Var("x2"), Var("x3")))
    theta_x = substitute(theta.expr, {"s": size})
    f = bind_inputs(sys.f_exprs, [Bin("*", p.expr, Bin("*", theta_x, Var(f"d{3 + i}")))
                                  for i in range(2)])
    mutated = SystemDef(n=3, m=4, k=0, d_box=build_small_input_system(
        sys, p, theta).d_box, f=f, H=["x1", "x3"])
    with np.errstate(all="ignore"), pytest.raises(AssertionError):
        assert_matches_reference(mutated, ref.small_input_system(sys, p, theta),
                                 sample_points(mutated, seed=2))


def test_axis_norm_in_the_array_kernel_is_caught(monkeypatch):
    # np.linalg.norm(axis=1) sums differently from vecnorm for n = 3
    def axis_norm(*args):
        if not expr_mod._has_array(*args):
            return expr_mod._norm(*args)
        return np.linalg.norm(np.stack(np.broadcast_arrays(*args), axis=1), axis=1)

    monkeypatch.setitem(expr_mod._ARRAY_NAMESPACE, "_fn_norm", axis_norm)
    sys, p, theta = PLANT_M2, TIME_GAINS["constant"], K_FNS["identity"]
    small = build_small_input_system(sys, p, theta)
    with np.errstate(all="ignore"), pytest.raises(AssertionError):
        assert_matches_reference(small, ref.small_input_system(sys, p, theta),
                                 sample_points(small, seed=2))


# --- each gain's scalar call, array call and tree walk agree ---

# the closed forms that the factories build as ASTs; a text gain has none
TIME_GAIN_FORMULAS = {
    "constant": lambda t: 0.3,
    "constant_neg": lambda t: -1.7,
    "geometric": lambda t: 3.0 * math.pow(0.7, t),
    "geometric_up": lambda t: 0.9 * math.pow(1.5, t),
}
K_FN_FORMULAS = {
    "identity": lambda s: s,
    "linear": lambda s: 0.3 * s,
    "power_root": lambda s: 2.0 * math.pow(s, 0.5),
    "power_square": lambda s: 1.1 * math.pow(s, 2.0),
}


def assert_gain_agrees(gain, points, values, walk, formula):
    """At every point the scalar call equals ``values``, the tree walker
    and, where ``math.pow`` does not overflow, the closed form (inf past
    the float range)."""
    for p, v in zip(points, values.tolist()):
        want = gain(p)
        assert ref.same_bits(v, want), p
        assert ref.same_bits(walk(p), want), p
        if formula is not None:
            try:
                closed = formula(p)
            except OverflowError:
                closed = math.inf
            assert ref.same_bits(closed, want), p


@pytest.mark.parametrize("name", sorted(TIME_GAINS))
def test_time_gain_expression_equals_fn(name):
    gain = TIME_GAINS[name]
    ts = list(range(0, 80)) + [0.5, 1e3, 1e6]
    assert_gain_agrees(gain, ts, gain.values(np.array(ts, dtype=float)),
                       lambda t: eval_expression(gain.expr, Env(t=t)),
                       TIME_GAIN_FORMULAS.get(name))
    assert gain.expr.variables() <= {"t"}


@pytest.mark.parametrize("name", sorted(K_FNS))
def test_k_function_expression_equals_fn(name):
    kfn = K_FNS[name]
    ss = [0.0, -0.0, 5e-324, 1e-300, 1e-8, 0.3, 1.0, 2.5, 1e8, 1e154, 1e300,
          math.inf, math.nan]
    assert_gain_agrees(kfn, ss, kfn.values(np.array(ss)),
                       lambda s: eval_expression(kfn.expr, Env(aux={"s": s})),
                       K_FN_FORMULAS.get(name))
    assert kfn.expr.variables() <= {"s"}


def test_constructor_expressions_are_parser_literals():
    # a negative constant is a negated literal, as the parser builds it
    for gain in (constant(-1.7), geometric(-2.0, -0.5), constant(-0.0)):
        assert parse_expression(gain.expr.to_string()) == gain.expr
    assert ref.same_bits(constant(-0.0)(5.0), -0.0)
    # no literal spells inf or NaN
    for make in (lambda: constant(math.nan), lambda: geometric(1.0, math.inf),
                 lambda: power_fn(math.inf), lambda: linear(math.inf)):
        with pytest.raises(ValueError, match="is not finite"):
            make()


# --- norm equals vecnorm through every evaluator ---

def test_norm_equals_vecnorm_through_all_evaluators():
    rng = np.random.default_rng(11)
    for n in range(1, 9):
        node = parse_expression(
            f"norm({', '.join(f'x{i + 1}' for i in range(n))})", Dims(n=n))
        assert node == Call("norm", tuple(Var(f"x{i + 1}") for i in range(n)))
        rows = rng.standard_normal((400, n)) * 10.0 ** rng.uniform(-200, 200, (400, 1))
        rows[0] = 0.0
        rows[1] = -0.0
        rows[2, 0], rows[3, -1], rows[4, 0] = math.nan, math.inf, -math.inf
        rows[5], rows[6, -1] = 5e-324, -5e-324  # subnormal
        with np.errstate(all="ignore"):
            want = np.array([vecnorm(r) for r in rows])
            # numpy's norm is the reference; one component is exactly abs
            numpy_norm = np.array([abs(r[0]) if n == 1 else np.linalg.norm(r)
                                   for r in rows])
            strided = np.array([vecnorm(r[::2]) for r in np.repeat(rows, 2, axis=1)])
            assert ref.same_bits(want, numpy_norm), n
            assert ref.same_bits(strided, numpy_norm), n
            batched = node.batched()(0.0, rows.T, None, None, {})
            compiled = node.compiled()
            for i, x in enumerate(rows):
                assert ref.same_bits(float(compiled(0.0, x, None, None, {})), want[i])
                assert ref.same_bits(eval_expression(node, Env(x=x)), want[i])
        assert ref.same_bits(batched, want), n


def test_norm_parses_one_or_more_arguments():
    assert parse_expression("norm(x1)", Dims(n=1)).to_string() == "norm(x1)"
    node = parse_expression("norm(x1, 2*x2, t)", Dims(n=2))
    assert eval_expression(node, Env(t=6.0, x=[2.0, 1.5])) == vecnorm([2.0, 3.0, 6.0])
    with pytest.raises(expr_mod.ExprSyntaxError):
        parse_expression("norm()", Dims(n=1))
    # scalar and column arguments mix in the array kernel
    got = node.batched()(6.0, np.array([[2.0, 0.0], [1.5, 4.0]]), None, None, {})
    assert got.tolist() == [vecnorm([2.0, 3.0, 6.0]), vecnorm([0.0, 8.0, 6.0])]


# --- round trip: every expression system the package builds ---

def built_systems():
    """Registry systems, closed loops, small-input, extended and transformed
    systems."""
    out = {}
    for name, make in sorted(EXAMPLES.items()):
        for r in ((0.0, 0.5, 0.9) if name == "example_4_7" else (None,)):
            bundle = make(r) if r is not None else make()
            out[f"{name}[{r}]"] = bundle.sys
            if bundle.closed is not None:
                out[f"{name}[{r}].closed"] = bundle.closed
    out["closed_loop[u01]"] = closed_loop(
        SystemDef(n=1, m=0, k=1, d_box=np.zeros((0, 2)), f=["x1 + u01"], H=["x1"]),
        ["-0.5*x1"])
    for plant in sorted(PLANTS):
        for p in sorted(TIME_GAINS):
            for theta in sorted(K_FNS):
                out[f"small[{plant},{p},{theta}]"] = build_small_input_system(
                    PLANTS[plant], TIME_GAINS[p], K_FNS[theta])
    for w_dim in (1, 2):
        out[f"extended[example_4_7,{w_dim}]"] = build_extended_system(B47.sys, w_dim)
        out[f"extended[example_3_4,{w_dim}]"] = build_extended_system(B34.sys, w_dim)
    for mu in ("constant", "from_expr", "geometric"):
        out[f"transformed[example_4_7.closed,{mu}]"] = build_transformed_system(
            B47.closed, TIME_GAINS[mu])
    return out


SYSTEMS = built_systems()


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_round_trip_and_evaluators_agree(name):
    sys = SYSTEMS[name]
    maps = [(e, Dims(n=sys.n, m=sys.m, k=sys.k)) for e in sys.f_exprs]
    maps += [(e, Dims(n=sys.n)) for e in sys.H_exprs + sys.h_exprs]
    rng = np.random.default_rng(sum(map(ord, name)))
    N = 64
    t = rng.integers(0, 30, size=N).astype(float)
    X = rng.uniform(-3.0, 3.0, size=(N, sys.n))
    D = rng.uniform(sys.d_box[:, 0], sys.d_box[:, 1], size=(N, sys.m))
    U = rng.uniform(-3.0, 3.0, size=(N, sys.k))
    for node, dims in maps:
        assert parse_expression(node.to_string(), dims) == node, node.to_string()
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            try:
                compiled = [node.compiled()(t[i], X[i], D[i], U[i], {})
                            for i in range(N)]
            except ExprDomainError:
                with pytest.raises(ExprDomainError):
                    node.batched()(t, X.T, D.T, U.T, {})
                continue
            walked = [eval_expression(node, Env(t=t[i], x=X[i], d=D[i], u=U[i]))
                      for i in range(N)]
            batched = np.broadcast_to(node.batched()(t, X.T, D.T, U.T, {}), (N,))
        for i in range(N):
            assert ref.same_bits(float(walked[i]), float(compiled[i]))
            assert ref.same_bits(float(batched[i]), float(compiled[i]))

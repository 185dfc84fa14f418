"""Composite systems that stay expressions, against the closures they replace.

``build_small_input_system`` substitutes u_i := (P * Theta[s := norm(x)]) *
d_{m+i} into the plant's ASTs; a plant, time gain or K function that is not
an expression is refused, as by every composite builder.
``reference_small_input`` below is the closure the builder returned before;
every value of the expression system must equal it bit for bit.  NaNs may
differ only in their sign bit, which IEEE 754 leaves unspecified.
"""

import math
import struct
import warnings

import numpy as np
import pytest

import dtstab.expr as expr_mod
from dtstab.comparison import (KFn, TimeGain, constant, geometric, identity,
                               kfn_from_expr, linear, power_fn,
                               timegain_from_expr)
from dtstab.expr import (Bin, Call, Dims, Env, ExprDomainError, Var,
                         eval_expression, parse_expression, substitute)
from dtstab.registry import EXAMPLES, example_3_4, example_4_7
from dtstab.certify import build_transformed_system, compose_V_from_U
from dtstab.stability import build_small_input_system
from dtstab.synth import build_extended_system
from dtstab.system import (StateFeedback, SystemDef, ZeroInput, bind_inputs,
                           closed_loop, vecnorm)

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


def reference_small_input(sys, p, theta):
    """The small-input system as a closure over p, theta and the plant."""
    m, k = sys.m, sys.k
    box = np.vstack([sys.d_box, np.tile([-1.0, 1.0], (k, 1))])

    def f_small(t, dd, x, u):
        d, dprime = dd[:m], dd[m:]
        amp = p(t) * theta(vecnorm(x))
        return sys.f_eval(t, d, x, amp * dprime)

    return SystemDef(n=sys.n, m=m + k, k=0, d_box=box, f=f_small,
                     H=sys._H, h=sys._h, p_Y=sys.p_Y, p_y=sys.p_y)


def bits(a):
    """Bit patterns of a float array, every NaN mapped to one pattern."""
    a = np.array(a, dtype=float)
    a[np.isnan(a)] = math.nan
    return a.view(np.int64)


def same_bits(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return struct.pack("<d", a) == struct.pack("<d", b)


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


def assert_matches_reference(small, ref, pts):
    """f_eval and f_rows (one time and per-row times) equal the reference
    wherever it returns; it raises only on float overflow in math.pow."""
    kept = []
    for t, x, d in pts:
        try:
            want = ref.f_eval(t, d, x)
        except OverflowError:
            continue
        kept.append((t, x, d, want))
        assert np.array_equal(bits(small.f_eval(t, d, x)), bits(want)), (t, x, d)
    assert kept
    T = np.array([t for t, _, _, _ in kept])
    X = np.array([x for _, x, _, _ in kept])
    D = np.array([d for _, _, d, _ in kept])
    want = np.array([w for _, _, _, w in kept])
    assert np.array_equal(bits(small.f_rows(T, X, D)), bits(want))
    for t in np.unique(T):
        rows = T == t
        assert np.array_equal(bits(small.f_rows(float(t), X[rows], D[rows])),
                              bits(want[rows]))


@pytest.mark.parametrize("plant", sorted(PLANTS))
@pytest.mark.parametrize("p", sorted(TIME_GAINS))
@pytest.mark.parametrize("theta", sorted(K_FNS))
def test_expression_small_input_equals_closure(plant, p, theta):
    sys, p, theta = PLANTS[plant], TIME_GAINS[p], K_FNS[theta]
    small = build_small_input_system(sys, p, theta)
    assert small.f_exprs is not None and small.k == 0
    assert small.m == sys.m + sys.k
    with np.errstate(all="ignore"):
        assert_matches_reference(small, reference_small_input(sys, p, theta),
                                 sample_points(small, seed=len(plant)))
    assert np.array_equal(small.d_box, reference_small_input(sys, p, theta).d_box)


def plant(k, f=("d1*x1",), H=("x1",), h=None):
    """A one-state plant with k inputs (which f ignores); pass a callable for
    a native map."""
    return SystemDef(n=1, m=1, k=k, d_box=[[-1.0, 1.0]], f=f, H=H, h=h,
                     p_Y=1, p_y=1)


NATIVE_F = lambda t, d, x, u: d * x
NATIVE_OUT = lambda t, x: x
BARE_GAIN = TimeGain(lambda t: 0.5)
REFUSED = {
    "small-input/p": lambda: build_small_input_system(B34.sys, BARE_GAIN, identity()),
    "small-input/theta": lambda: build_small_input_system(
        B34.sys, constant(0.5), KFn(lambda s: s, "s", "Kinf")),
    "small-input/p-inf": lambda: build_small_input_system(
        B34.sys, constant(math.inf), identity()),
    "small-input/theta-inf": lambda: build_small_input_system(
        B34.sys, constant(0.5), linear(math.inf)),
    "small-input/f": lambda: build_small_input_system(
        plant(1, f=NATIVE_F), constant(0.5), identity()),
    "closed-loop/f": lambda: closed_loop(plant(1, f=NATIVE_F), ["-x1"]),
    "closed-loop/k": lambda: closed_loop(
        B47.sys, StateFeedback(lambda t, x: [-x[1] ** 2], n=3)),
    "closed-loop/policy": lambda: closed_loop(B47.sys, ZeroInput()),
    "extended/f": lambda: build_extended_system(plant(1, f=NATIVE_F), 1),
    "extended/H": lambda: build_extended_system(plant(1, H=NATIVE_OUT), 1),
    "extended/h": lambda: build_extended_system(plant(1, h=NATIVE_OUT), 1),
    "transformed/f": lambda: build_transformed_system(plant(0, f=NATIVE_F),
                                                      constant(1.0)),
    "transformed/H": lambda: build_transformed_system(plant(0, H=NATIVE_OUT),
                                                      constant(1.0)),
    "transformed/mu": lambda: build_transformed_system(plant(0), BARE_GAIN),
    "transformed/mu-inf": lambda: build_transformed_system(plant(0),
                                                           constant(math.inf)),
    "composed/U": lambda: compose_V_from_U(lambda t, z, w: abs(z[0]),
                                           constant(1.0), plant(0)),
    "composed/H": lambda: compose_V_from_U("norm(z1, w1)", constant(1.0),
                                           plant(0, H=NATIVE_OUT)),
    "composed/mu": lambda: compose_V_from_U("norm(z1, w1)", BARE_GAIN, plant(0)),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_parts_without_expressions_are_refused(case):
    with pytest.raises(ValueError, match="is not an expression"):
        REFUSED[case]()


def test_closed_loop_refuses_a_feedback_of_another_width():
    for fb in (["-x2^2", "5"], []):
        with pytest.raises(ValueError, match=f"feedback has {len(fb)} components"):
            closed_loop(B47.sys, fb)


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
        assert_matches_reference(mutated, reference_small_input(sys, p, theta),
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
        assert_matches_reference(small, reference_small_input(sys, p, theta),
                                 sample_points(small, seed=2))


# --- each gain's expression agrees with its callable ---

@pytest.mark.parametrize("name", sorted(TIME_GAINS))
def test_time_gain_expression_equals_fn(name):
    gain = TIME_GAINS[name]
    fn = gain.expr.compiled()
    for t in list(range(0, 80)) + [0.5, 1e3, 1e6]:
        try:
            want = gain(t)
        except (OverflowError, ValueError):
            continue
        assert same_bits(float(fn(float(t), None, None, None, {})), want), t
        assert same_bits(eval_expression(gain.expr, Env(t=t)), want), t
        assert gain.expr.variables() <= {"t"}


@pytest.mark.parametrize("name", sorted(K_FNS))
def test_k_function_expression_equals_fn(name):
    kfn = K_FNS[name]
    fn = kfn.expr.compiled()
    ss = [0.0, -0.0, 5e-324, 1e-300, 1e-8, 0.3, 1.0, 2.5, 1e8, 1e154, 1e300,
          math.inf, math.nan]
    for s in ss:
        try:
            want = kfn(s)
        except (OverflowError, ValueError):
            continue
        assert same_bits(float(fn(0.0, None, None, None, {"s": s})), want), s
        assert same_bits(eval_expression(kfn.expr, Env(aux={"s": s})), want), s
    assert kfn.expr.variables() <= {"s"}


def test_constructor_expressions_are_parser_literals():
    # a negative constant is a negated literal, as the parser builds it
    for gain in (constant(-1.7), geometric(-2.0, -0.5), constant(-0.0)):
        assert parse_expression(gain.expr.to_string()) == gain.expr
    assert same_bits(constant(-0.0).expr.compiled()(0.0, None, None, None, {}), -0.0)
    assert constant(math.nan).expr is None and geometric(1.0, math.inf).expr is None
    assert power_fn(math.inf).expr is None


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
            ref = np.array([abs(r[0]) if n == 1 else np.linalg.norm(r) for r in rows])
            strided = np.array([vecnorm(r[::2]) for r in np.repeat(rows, 2, axis=1)])
            assert np.array_equal(bits(want), bits(ref)), n
            assert np.array_equal(bits(strided), bits(ref)), n
            batched = node.batched()(0.0, rows.T, None, None, {})
            compiled = node.compiled()
            for i, x in enumerate(rows):
                assert same_bits(float(compiled(0.0, x, None, None, {})), want[i])
                assert same_bits(eval_expression(node, Env(x=x)), want[i])
        assert np.array_equal(bits(batched), bits(want)), n


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
            for key, extra in bundle.extras.items():
                if isinstance(extra, SystemDef):
                    out[f"{name}[{r}].{key}"] = extra
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
    assert sys.f_exprs is not None, name
    maps = [(e, Dims(n=sys.n, m=sys.m, k=sys.k)) for e in sys.f_exprs]
    maps += [(e, Dims(n=sys.n)) for e in (sys.H_exprs or ()) + (sys.h_exprs or ())]
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
            assert same_bits(float(walked[i]), float(compiled[i]))
            assert same_bits(float(batched[i]), float(compiled[i]))

"""Batched evaluation against the scalar paths it replaces.

The array namespace of the expression codegen, the row norms and the
sampled-sup kernel must reproduce the scalar evaluator bit for bit.  The
``legacy_*`` functions below are the scalar nested loops the checks used
before the kernel, ``rows_sampled_sup`` is the kernel's flat-slab loop
from before it evaluated outer rows x the innermost set, and ``point_loop_f``
is the point-by-point loop whose first domain error the kernel raises; they
are kept here as references only.
"""

import itertools
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dtstab.system as system_mod
from dtstab.certify import (LyapunovCandidate, StateGrid, check_contraction,
                            check_ios_decrease, check_relaxed_decrease,
                            check_rofs_inf_sup, check_sandwich,
                            projection_fiber)
from dtstab.comparison import (check_domination, constant, geometric,
                               identity, sup_f_sampler)
from dtstab.expr import (_ARRAY_NAMESPACE, Bin, Call, Dims, Env,
                         ExprDomainError, Neg, Num, Var, _exp, _log, _pow,
                         eval_expression, parse_expression, substitute)
from dtstab.registry import example_2_3, example_3_4, example_4_7
from dtstab.stability import build_small_input_system
from dtstab.system import (SampleConfig, SystemDef, closed_loop,
                           d_candidates, reachable_bound, row_norms,
                           sampled_sup, sphere_points, vecnorm)
from test_composite import ClosureSystem, reference_small_input, tree_feedback

B23, B34, B47 = example_2_3(), example_3_4(), example_4_7(0.5)


def dumps(obj):
    """Exact text of a report: float reprs keep every bit but NaN signs."""
    return json.dumps(obj, sort_keys=True, default=lambda o: o.tolist())


# --- array namespace == compiled == tree walker ---

_special = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, 1e-310, 1e308,
                            -1e308, math.inf, -math.inf, math.nan])
_value = st.one_of(_special, st.floats(allow_nan=True, allow_infinity=True))
_leaf = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 1e300, 1e-300]).map(Num),
    st.sampled_from(["t", "x1", "x2", "x3", "d1", "u1"]).map(Var),
)


def _extend(children):
    unary = st.sampled_from(["exp", "log", "abs", "sqrt", "sign"])
    binary = st.sampled_from(["min", "max", "pow"])
    return st.one_of(
        children.map(Neg),
        st.tuples(st.sampled_from("+-*/^"), children, children).map(
            lambda ops: Bin(*ops)),
        st.tuples(unary, children).map(lambda fa: Call(fa[0], (fa[1],))),
        st.tuples(binary, children, children).map(
            lambda fab: Call(fab[0], (fab[1], fab[2]))),
        st.lists(children, min_size=1, max_size=4).map(
            lambda args: Call("norm", tuple(args))),
    )


ast_strategy = st.recursive(_leaf, _extend, max_leaves=20)


def same_bits(a, b):
    """Equal bit for bit, signed zeros included; any NaN equals any NaN
    (IEEE 754 leaves the sign of a NaN result unspecified)."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return struct.pack("<d", a) == struct.pack("<d", b)


def _scalar(fn, *args):
    try:
        with np.errstate(all="ignore"):  # numpy scalars warn on overflow
            return fn(*args)
    except ExprDomainError:
        return ExprDomainError


@settings(max_examples=400, deadline=None)
@given(ast_strategy, st.data())
def test_array_namespace_matches_scalar_paths(expr, data):
    count = data.draw(st.integers(1, 8))
    col = st.lists(_value, min_size=count, max_size=count)
    X = np.array([data.draw(col) for _ in range(3)]).T
    D, U = np.array([data.draw(col)]).T, np.array([data.draw(col)]).T
    scalar_t = data.draw(st.booleans())
    t = data.draw(_value) if scalar_t else np.array(data.draw(col))
    ts = [t] * count if scalar_t else t.tolist()

    compiled = expr.compiled()
    want = [_scalar(compiled, ts[i], X[i], D[i], U[i], {}) for i in range(count)]
    walked = [_scalar(eval_expression, expr, Env(t=ts[i], x=X[i], d=D[i], u=U[i]))
              for i in range(count)]
    for w, v in zip(want, walked):
        assert (w is ExprDomainError) == (v is ExprDomainError)
        assert w is ExprDomainError or same_bits(w, v)
    if any(w is ExprDomainError for w in want):
        with pytest.raises(ExprDomainError):
            expr.batched()(t, X.T, D.T, U.T, {})
        return
    got = np.broadcast_to(expr.batched()(t, X.T, D.T, U.T, {}), (count,))
    for i in range(count):
        assert same_bits(float(got[i]), float(want[i])), (i, got[i], want[i])


def test_array_namespace_keeps_python_min_max_sign_semantics():
    a = np.array([0.0, -0.0, math.nan, 1.0, math.nan])
    b = np.array([-0.0, 0.0, 1.0, math.nan, -2.0])
    for fn in ("min", "max"):
        node = Call(fn, (Var("x1"), Var("x2")))
        got = node.batched()(0.0, np.vstack([a, b]), None, None, {})
        want = [node.compiled()(0.0, np.array([p, q]), None, None, {})
                for p, q in zip(a, b)]
        assert all(same_bits(float(g), w) for g, w in zip(got, want))
    sign = Call("sign", (Var("x1"),))
    got = sign.batched()(0.0, np.array([[-0.0, 0.0, math.nan, -3.0, 2.0]]),
                         None, None, {})
    assert got.tolist() == [0.0, 0.0, 0.0, -1.0, 1.0]


def test_domain_error_raised_iff_some_point_raises():
    node = parse_expression("log(x1) + 1/x2", Dims(n=2))
    fn = node.batched()
    assert fn(0.0, np.array([[1.0, 2.0], [3.0, 4.0]]), None, None, {}).shape == (2,)
    with pytest.raises(ExprDomainError):
        fn(0.0, np.array([[1.0, -2.0], [3.0, 4.0]]), None, None, {})
    with pytest.raises(ExprDomainError):
        fn(0.0, np.array([[1.0, 2.0], [3.0, 0.0]]), None, None, {})


def guarded_rows(node, X):
    """The compiled (guarded-kernel) value at each row, in row order; the
    first row that raises raises."""
    fn = node.compiled()
    return np.array([fn(0.0, row, None, None, {}) for row in X])


@pytest.mark.parametrize("text, rows", [
    ("x1^1000", [[2.0], [1e10], [-1e10], [0.5], [-3.0]]),
    ("x1^x2", [[1.5, 2.0], [1e10, 1001.0], [-1e10, 1001.0], [7.0, 0.5]]),
    ("exp(x1)", [[1.0], [800.0], [-1e4], [709.0], [710.0]]),
    ("pow(x1, x2) + exp(x2)", [[0.0, 0.0], [3.0, 800.0], [1e300, 2.0]]),
])
def test_math_map_overflow_mid_array_equals_guarded_loop(text, rows):
    node = parse_expression(text, Dims(n=2))
    X = np.array(rows)
    X = np.hstack([X, np.ones((X.shape[0], 2 - X.shape[1]))])
    want = guarded_rows(node, X)
    got = node.batched()(0.0, X.T, None, None, {})
    assert np.isinf(want).any()
    assert all(same_bits(float(g), float(w)) for g, w in zip(got, want))


@pytest.mark.parametrize("text, rows, message", [
    ("x1^0.5", [[4.0, 0.0], [2.0, 0.0], [-1.0, 0.0], [0.0, 0.0]],
     "negative base with non-integer exponent"),
    ("log(x1)", [[1.0, 0.0], [2.5, 0.0], [0.0, 0.0], [-1.0, 0.0]],
     "log of a non-positive number"),
    ("x1^x2", [[2.0, -1.0], [0.0, -1.0], [-8.0, 0.5]],
     "zero raised to a negative power"),
    ("x1^x2", [[2.0, -1.0], [-8.0, 0.5], [0.0, -1.0]],
     "negative base with non-integer exponent"),
    ("exp(x1) + log(x2)", [[800.0, 1.0], [1.0, -0.0], [1.0, 1.0]],
     "log of a non-positive number"),
])
def test_math_map_domain_error_is_the_first_failing_rows(text, rows, message):
    node = parse_expression(text, Dims(n=2))
    X = np.array(rows)
    with pytest.raises(ExprDomainError) as scalar:
        guarded_rows(node, X)
    with pytest.raises(ExprDomainError) as batched:
        node.batched()(0.0, X.T, None, None, {})
    assert str(batched.value) == str(scalar.value) == message


# --- the element-wise kernels against the scalar kernel, point by point ---

BASES = np.array([0.0, 0.5, 2.0, 3.0, 1e300, 1e-300, math.inf, math.nan, 7.25])
EXPONENTS = np.array([0.0, 2.0, -1.0, 0.5, 3.0, 1e3, -1e3, math.nan, 1.5])
POW_OPERANDS = {
    "float_base": (2.0, EXPONENTS),
    "float_exponent": (BASES, 2.5),
    "0d_base": (np.array(0.5), EXPONENTS),
    "0d_exponent": (BASES, np.array(-2.0)),
    "0d_and_float": (np.array(3.0), 1e3),
    "0d_pair": (np.array(1e300), np.array(3.0)),
    "equal_shapes": (BASES, EXPONENTS),
    "equal_2d_shapes": (BASES.reshape(3, 3), EXPONENTS.reshape(3, 3)),
    "equal_strided_shapes": (BASES[1::2], EXPONENTS[::2][:4]),
    "different_shapes": (BASES[1:4, None], EXPONENTS[None, :]),
    "0d_and_array": (np.array(-8.0), EXPONENTS[[0, 1, 4]]),
    "floats_only": (2.0, -3.0),
}
UNARY_OPERANDS = {
    "array": (np.array([0.5, 1.0, 709.0, 710.0, -1e4, math.inf, math.nan]),),
    "0d": (np.array(2.5),),
    "2d": (np.array([[1.0, 800.0], [1e-300, 3.0]]),),
    "strided": (np.array([1.0, -5.0, 2.0, -7.0, 1e300])[::2],),
    "float": (3.0,),
}
KERNELS = {"^": ("_pow", _pow), "pow": ("_fn_pow", _pow),
           "exp": ("_fn_exp", _exp), "log": ("_fn_log", _log)}


def kernel_points(kernel, args):
    """The scalar kernel at every point of the broadcast operands, in row
    order; the first point that raises raises."""
    cols = np.broadcast_arrays(*args)
    values = [kernel(*point) for point in zip(*(c.ravel().tolist() for c in cols))]
    return np.array(values, dtype=float).reshape(cols[0].shape)


def assert_maps_like_the_kernel(name, args):
    ns_name, kernel = KERNELS[name]
    fn = _ARRAY_NAMESPACE[ns_name]
    try:
        want = kernel_points(kernel, args)
    except ExprDomainError as scalar:
        with pytest.raises(ExprDomainError) as batched:
            fn(*args)
        assert str(batched.value) == str(scalar)
        return
    got = fn(*args)
    if not any(isinstance(a, np.ndarray) for a in args):
        assert type(got) is float
    assert np.shape(got) == want.shape
    assert all(same_bits(g, w) for g, w in zip(np.ravel(got).tolist(),
                                               want.ravel().tolist()))


@pytest.mark.parametrize("operands", sorted(POW_OPERANDS))
@pytest.mark.parametrize("name", ["^", "pow"])
def test_power_maps_like_the_scalar_kernel(name, operands):
    assert_maps_like_the_kernel(name, POW_OPERANDS[operands])


@pytest.mark.parametrize("operands", sorted(UNARY_OPERANDS))
@pytest.mark.parametrize("name", ["exp", "log"])
def test_exp_and_log_map_like_the_scalar_kernel(name, operands):
    assert_maps_like_the_kernel(name, UNARY_OPERANDS[operands])


@pytest.mark.parametrize("name, args, message", [
    ("^", (np.array([4.0, -8.0, 0.0]), -0.5),
     "negative base with non-integer exponent"),
    ("^", (np.array([4.0, 0.0, -8.0]), -0.5), "zero raised to a negative power"),
    ("pow", (-8.0, np.array([2.0, 3.0, 0.5, -1.5])),
     "negative base with non-integer exponent"),
    ("pow", (np.array(0.0), np.array([1.0, -1.0, 0.5])),
     "zero raised to a negative power"),
    ("^", (np.array([[2.0, 1e300], [0.0, 3.0]]), np.array([[1e3, 2.0], [-1.0, 0.5]])),
     "zero raised to a negative power"),
    ("log", (np.array([1.0, 800.0, -0.0, -1.0]),), "log of a non-positive number"),
])
def test_mid_array_domain_error_is_the_first_failing_points(name, args, message):
    with pytest.raises(ExprDomainError) as scalar:
        kernel_points(KERNELS[name][1], args)
    assert str(scalar.value) == message
    assert_maps_like_the_kernel(name, args)


def test_mid_array_overflow_takes_the_guarded_kernel():
    # math.pow and math.exp raise OverflowError mid-array; the guarded
    # kernel's infinities replace it at the same points
    for name, args in (("^", (np.array([2.0, 1e300, -1e300, 0.5]), 3.0)),
                       ("pow", (-10.0, np.array([2.0, 401.0, 400.0]))),
                       ("exp", (np.array([1.0, 710.0, -3.0]),))):
        want = kernel_points(KERNELS[name][1], args)
        assert np.isinf(want).any()
        assert_maps_like_the_kernel(name, args)


def test_row_norms_match_vecnorm():
    rng = np.random.default_rng(5)
    for n in range(1, 9):
        rows = rng.standard_normal((3000, n)) * 10.0 ** rng.uniform(-200, 200, (3000, 1))
        rows[:5] = 0.0
        rows[5, 0] = -0.0
        with np.errstate(over="ignore"):  # both overflow to inf alike
            got = row_norms(rows)
            want = np.array([vecnorm(r) for r in rows])
        assert got.tobytes() == want.tobytes(), n


# --- substitution and variables ---

def test_substitute_and_variables():
    node = parse_expression("x2^2 + u1*t", Dims(n=2, k=1))
    fb = parse_expression("-x2^2", Dims(n=2))
    closed = substitute(node, {"u1": fb})
    assert closed.to_string() == "x2^2.0 + -x2^2.0*t"
    assert closed.variables() == {"x2", "t"}
    assert node.variables() == {"x2", "u1", "t"}
    assert Num(1.0).variables() == frozenset()
    assert substitute(node, {}) == node


def test_closed_loop_stays_an_expression_and_matches_the_closure():
    cl = closed_loop(B47.sys, B47.feedback)
    assert cl.k == 0
    fb = tree_feedback(B47.feedback, 3)
    closure = ClosureSystem(3, 1, 0, B47.sys.d_box,
                            lambda t, d, x, u: B47.sys.f_eval(t, d, x, fb(t, x)),
                            B47.sys.H_eval, B47.sys.h_eval)
    rng = np.random.default_rng(1)
    for _ in range(300):
        t, x, d = int(rng.integers(0, 30)), rng.uniform(-50, 50, 3), rng.uniform(-0.5, 0.5, 1)
        assert cl.f_eval(t, d, x).tobytes() == closure.f_eval(t, d, x).tobytes()
        assert cl.H_eval(t, x).tobytes() == B47.sys.H_eval(t, x).tobytes()
        assert cl.h_eval(t, x).tobytes() == B47.sys.h_eval(t, x).tobytes()


def test_closed_loop_binds_inputs_by_index():
    # "u01" names u1 as well; the feedback must be substituted for it
    plant = SystemDef(n=1, m=0, k=1, d_box=np.zeros((0, 2)), f=["x1 + u01"],
                      H=["x1"])
    cl = closed_loop(plant, ["-0.5*x1"])
    assert cl.f_exprs[0].variables() == {"x1"}
    for x in (0.0, 1.0, -3.25):
        want = plant.f_eval(0, [], [x], [-0.5 * x])
        assert cl.f_eval(0, [], [x]).tobytes() == want.tobytes()


# --- legacy scalar nests (references only) ---

def legacy_reach(sys, r, T, cfg):
    rng = np.random.default_rng(cfg.seed)
    ts = np.arange(0, 2 * T + 1)
    dcands = d_candidates(sys.d_box, grid=cfg.d_grid, random=cfg.d_random, rng=rng)
    ucands = (np.vstack([np.zeros((1, sys.k)),
                         sphere_points(sys.k, r, cfg.u_directions,
                                       scales=(1.0, 0.5), rng=rng)])
              if sys.k > 0 else np.zeros((1, 0)))
    rho, witnesses = [r], [None]
    for _ in range(T):
        xs = sphere_points(sys.n, rho[-1], cfg.x_directions,
                           scales=cfg.x_scales, rng=rng)
        best, wit = 0.0, None
        for t in ts:
            for dc in dcands:
                for xc in xs:
                    for uc in ucands:
                        val = vecnorm(sys.f_eval(t, dc, xc, uc))
                        if val > best:
                            best, wit = val, {"t": int(t), "d": dc.tolist(),
                                              "x": xc.tolist(), "u": uc.tolist(),
                                              "norm": val}
        rho.append(best)
        witnesses.append(wit)
    return rho, witnesses


def legacy_sampler(sys, cfg, seed):
    dcands = d_candidates(sys.d_box, grid=cfg.d_grid, random=cfg.d_random,
                          rng=np.random.default_rng(seed))

    def sampler(T, s):
        xs = sphere_points(sys.n, s, cfg.x_directions, cfg.x_scales, rng=0)
        us = (np.vstack([np.zeros((1, sys.k)),
                         sphere_points(sys.k, s, cfg.u_directions, rng=1)])
              if sys.k > 0 else np.zeros((1, 0)))
        best = 0.0
        for t in range(int(T) + 1):
            for dc in dcands:
                for xc in xs:
                    for uc in us:
                        best = max(best, vecnorm(sys.f_eval(t, dc, xc, uc)))
        return best

    return sampler


def legacy_decrease(sys, cand, grid, rhs_fn, dvals, us=None):
    worst, wit, count = -math.inf, None, 0
    for t in grid.ts:
        for x in grid.xs:
            V0 = cand.V_eval(t, x)
            for u in (np.zeros((1, 0)) if us is None else us):
                sup_v, sup_d = -math.inf, None
                for d in dvals:
                    v1 = cand.V_eval(t + 1, sys.f_eval(t, d, x, None if us is None else u))
                    if v1 > sup_v:
                        sup_v, sup_d = v1, d
                rhs = rhs_fn(t, x, V0, u)
                count += 1
                if sup_v - rhs > worst:
                    worst = sup_v - rhs
                    wit = {"t": int(t), "x": x.tolist(), "d": sup_d.tolist(),
                           "u": None if us is None else u.tolist(),
                           "lhs": sup_v, "rhs": rhs}
    return worst, wit, count


def legacy_sandwich(sys, cand, grid):
    lo, hi = (-math.inf, None), (-math.inf, None)
    for t in grid.ts:
        bt = cand.beta(t)
        mt = cand.mu(t) if cand.mu is not None else 0.0
        for x in grid.xs:
            V, nx, nY = cand.V_eval(t, x), vecnorm(x), vecnorm(sys.H_eval(t, x))
            lo_lhs = cand.a1(nY + mt * nx) if cand.mu is not None else cand.a1(nY)
            if lo_lhs - V > lo[0]:
                lo = (lo_lhs - V, {"t": int(t), "x": x.tolist(), "d": None,
                                   "u": None, "lhs": lo_lhs, "rhs": V})
            hi_rhs = cand.a2(bt * nx)
            if V - hi_rhs > hi[0]:
                hi = (V - hi_rhs, {"t": int(t), "x": x.tolist(), "d": None,
                                   "u": None, "lhs": V, "rhs": hi_rhs})
    return lo, hi


def legacy_rofs(sys, cand, fiber_sampler, us, ts, ys, dvals, mode, filter_tol=1e-8):
    out = []
    for t in ts:
        for y in ys:
            fiber = np.asarray(fiber_sampler(t, np.asarray(y, float)), float).reshape(-1, sys.n)
            cands = us
            if mode == "strong":
                zero = [x for x in fiber if vecnorm(sys.H_eval(t, x)) <= filter_tol]
                cands = np.asarray([u for u in us if all(
                    vecnorm(sys.H_eval(t + 1, sys.f_eval(t, d, x, u))) <= filter_tol
                    for x in zero for d in dvals)])
            best, best_u, best_wit = math.inf, None, None
            for u in cands:
                sup_v, sup_wit = -math.inf, None
                for x in fiber:
                    V0 = cand.V_eval(t, x)
                    for d in dvals:
                        val = cand.V_eval(t + 1, sys.f_eval(t, d, x, u)) - cand.lam * V0
                        if val > sup_v:
                            sup_v, sup_wit = val, {"x": x.tolist(), "d": d.tolist()}
                if sup_v < best:
                    best, best_u, best_wit = sup_v, u, sup_wit
            out.append((best, best_u.tolist(), best_wit, len(cands)))
    return out


# --- each rewritten check equals its legacy nest ---

GRID3 = StateGrid.from_axes(range(0, 3), [0.0, 1.0, -2.5], [0.0, 0.7, -3.0],
                            [0.0, 5.0])


def test_reachable_bound_matches_legacy():
    cfg = SampleConfig(d_grid=5, d_random=4, x_directions=6, u_directions=3, seed=9)
    for sys in (B47.sys, B23.sys, B47.closed):
        rb = reachable_bound(sys, 0.8, 2, cfg)
        rho, wits = legacy_reach(sys, 0.8, 2, cfg)
        assert dumps(rb.rho.tolist()) == dumps(rho)
        assert dumps(rb.witnesses) == dumps(wits)


def test_sup_f_sampler_matches_legacy_and_the_closure():
    cfg = SampleConfig(d_grid=5, d_random=4, x_directions=4,
                       x_scales=(1.0, 0.5), u_directions=3)
    small = build_small_input_system(B34.sys, geometric(1.0, 0.5), identity())
    # the legacy loop over the small-input closure, point by point
    closure = reference_small_input(B34.sys, geometric(1.0, 0.5), identity())
    for sys, ref in ((B34.sys, B34.sys), (small, small), (small, closure)):
        got, want = sup_f_sampler(sys, cfg, seed=4), legacy_sampler(ref, cfg, 4)
        for T in (0, 2):
            for s in (1e-3, 0.7, 40.0):
                assert dumps(got(T, s)) == dumps(want(T, s))


def _report_matches(rep, worst, wit, count):
    assert dumps([rep.worst_margin, rep.witness, rep.samples]) == dumps([worst, wit, count])


def test_contraction_matches_legacy_on_closed_loop_and_native_systems():
    dvals = d_candidates(B47.sys.d_box, grid=5, random=3, rng=2)
    # the legacy loop runs over the closure of the plant and its feedback
    fb = tree_feedback(B47.feedback, 3)
    closure = ClosureSystem(
        3, 1, 0, B47.sys.d_box,
        lambda t, d, x, u: B47.sys.f_eval(t, d, x, fb(t, x)),
        B47.sys.H_eval)
    lam = B47.cand.lam
    want = legacy_decrease(closure, B47.cand, GRID3, lambda t, x, V0, u: lam * V0, dvals)
    rep = check_contraction(B47.closed, B47.cand, GRID3, d_values=dvals, tol=1e-12)
    _report_matches(rep, *want)


def test_relaxed_and_ios_decrease_match_legacy():
    grid = StateGrid.from_axes(range(0, 4), [0.0, 1e-3, -2.0, 300.0], [0.0, 1.0, -100.0])
    dvals = np.array([[-2.0], [-0.5], [0.0], [1.0], [2.0]])
    cand = B23.cand
    rep = check_relaxed_decrease(B23.sys, cand, grid, d_values=dvals)
    _report_matches(rep, *legacy_decrease(
        B23.sys, cand, grid, lambda t, x, V0, u: V0 - cand.a3(V0) + cand.q(t), dvals))

    ios = LyapunovCandidate(V=cand.V, n=2, lam=0.9, a3=identity(), phi=constant(2.0))
    us = np.array([[-1.0], [0.0], [0.25], [3.0]])
    rep = check_ios_decrease(B34.sys, ios, grid, us, d_values=dvals)
    _report_matches(rep, *legacy_decrease(
        B34.sys, ios, grid,
        lambda t, x, V0, u: 0.9 * V0 + ios.a3(ios.phi(t) * vecnorm(u)), dvals, us))


def test_sandwich_matches_legacy_with_and_without_mu():
    grid = StateGrid.from_axes(range(0, 5), [0.0, 1e-3, -2.0, 300.0], [0.0, 1.0, -100.0])
    with_mu = LyapunovCandidate(V=B23.cand.V, n=2, a1=identity(), a2=identity(),
                                beta=constant(2.0), mu=geometric(0.5, 0.5))
    for cand in (B23.cand, with_mu):
        rep = check_sandwich(B23.sys, cand, grid)
        (lo, lo_wit), (hi, hi_wit) = legacy_sandwich(B23.sys, cand, grid)
        assert dumps([rep.details["lower"]["worst_margin"], rep.details["lower"]["witness"],
                      rep.details["upper"]["worst_margin"], rep.details["upper"]["witness"]]) \
            == dumps([lo, lo_wit, hi, hi_wit])
    rep = check_sandwich(B47.sys, B47.cand, GRID3)
    (lo, lo_wit), (hi, hi_wit) = legacy_sandwich(B47.sys, B47.cand, GRID3)
    assert dumps([rep.details["lower"]["witness"], rep.details["upper"]["witness"]]) \
        == dumps([lo_wit, hi_wit])


@pytest.mark.parametrize("mode", ["plain", "strong", "zero"])
def test_rofs_matches_legacy(mode):
    fiber = projection_fiber([0], {1: [-1.0, 0.0, 1.0], 2: [0.0, 2.0]}, 3)
    us = np.linspace(-3.0, 3.0, 7).reshape(-1, 1)
    dvals = d_candidates(B47.sys.d_box, grid=3, random=2, rng=5)
    ys = [[-1.0], [0.0], [1.0]]
    rep = check_rofs_inf_sup(B47.sys, B47.cand, fiber, us, ts=range(2), ys=ys,
                             mode=mode, d_values=dvals)
    if mode == "zero":
        ys, us = [[0.0]], np.zeros((1, 1))
    want = legacy_rofs(B47.sys, B47.cand, fiber, us, range(2),
                       [y for y in ys if mode != "strong" or y == [0.0]], dvals, mode)
    got = [(e.inf_sup, e.u_best, e.witness, e.n_candidates) for e in rep.entries
           if not e.note]
    assert dumps(got) == dumps(want)


def test_first_maximum_wins_ties():
    # |d1| * x1 ties for d = -1 and d = 1, at every t: the first one is kept
    sys = SystemDef(n=1, m=1, k=0, d_box=[[-1.0, 1.0]], f=["abs(d1)*x1"], H=["x1"])
    cand = LyapunovCandidate(V="abs(x1)", n=1, lam=0.5)
    grid = StateGrid(ts=[0, 1], xs=[[0.0], [2.0], [-2.0]])
    dvals = np.array([[0.5], [-1.0], [1.0]])
    rep = check_contraction(sys, cand, grid, d_values=dvals)
    assert rep.witness["t"] == 0 and rep.witness["x"] == [2.0]
    assert rep.witness["d"] == [-1.0]
    _report_matches(rep, *legacy_decrease(sys, cand, grid,
                                           lambda t, x, V0, u: 0.5 * V0, dvals))
    sup, arg = sampled_sup(sys, 3, (("d", dvals), ("x", grid.xs)),
                           lambda F, idx: row_norms(F))
    assert (sup, arg) == (2.0, 1 * 3 + 1)  # d = -1, x = 2


# --- the kernel: slabs, NaN rule, empty sets ---

def rows_sampled_sup(sys, t, sets, score, keep=0):
    """The flat-slab loop ``sampled_sup`` ran before it evaluated slabs as
    outer rows x the innermost set: every point of the product is one row of
    :meth:`SystemDef.f_rows`, SLAB_ROWS rows a slab.  Kept as the reference."""
    names = [name for name, _ in sets]
    dims = {"d": sys.m, "x": sys.n, "u": sys.k}
    rows = [np.asarray(r, dtype=float).reshape(len(r), dims[name]) for name, r in sets]
    shape = tuple(r.shape[0] for r in rows)
    groups, size = math.prod(shape[:keep]), math.prod(shape[keep:])
    scores = np.empty(groups * size)
    for start in range(0, scores.shape[0], system_mod.SLAB_ROWS):
        stop = min(scores.shape[0], start + system_mod.SLAB_ROWS)
        idx = dict(zip(names, np.unravel_index(np.arange(start, stop), shape)))
        got = {name: r[idx[name]] for name, r in zip(names, rows)}
        F = sys.f_rows(t, got["x"], got["d"], got.get("u"))
        scores[start:stop] = score(F, idx)
    scores = scores.reshape(groups, size)
    arg = np.argmax(scores, axis=1)
    sup = scores[np.arange(groups), arg]
    if keep == 0:
        return float(sup[0]), int(arg[0])
    return sup.reshape(shape[:keep]), arg.reshape(shape[:keep])


def same_sup(got, want):
    return dumps([np.asarray(v).tolist() for v in got]) == \
        dumps([np.asarray(v).tolist() for v in want])


_SLAB_SYS = SystemDef(n=2, m=1, k=1, d_box=[[-1.0, 1.0]],
                      f=["d1*x1 + u1", "log(abs(x2) + 1)*d1"], H=["x1"])
_rng = np.random.default_rng(3)
_SLAB_SETS = {"x": _rng.normal(size=(13, 2)), "d": _rng.uniform(-1, 1, (5, 1)),
                 "u": _rng.normal(size=(3, 1))}
_SLAB_SETS["x"][4, 0] = math.nan  # NaN wins, at its first occurrence


def test_slabs_do_not_change_the_result(monkeypatch):
    for order in ("xud", "uxd", "dxu"):  # caller orders of certify, rofs, reach
        sets = tuple((name, _SLAB_SETS[name]) for name in order)
        seen = []

        def score(F, idx, order=order, sets=sets):
            seen.append(np.ravel_multi_index([idx[name] for name in order],
                                             [len(r) for _, r in sets]))
            return F[:, 0] + F[:, 1]

        monkeypatch.setattr(system_mod, "SLAB_ROWS", 4096)
        full = [sampled_sup(_SLAB_SYS, 2, sets, score, keep=k) for k in range(3)]
        inner = len(sets[-1][1])
        for slab in (1, 2, inner - 1, inner, inner + 1, 7, 64):  # below K, at K, above
            monkeypatch.setattr(system_mod, "SLAB_ROWS", slab)
            for k in range(3):
                want = rows_sampled_sup(_SLAB_SYS, 2, sets, score, keep=k)
                seen.clear()
                got = sampled_sup(_SLAB_SYS, 2, sets, score, keep=k)
                assert same_sup(got, full[k]) and same_sup(got, want), (order, slab, k)
                # slabs of at most SLAB_ROWS points, contiguous, in nested-loop order
                assert max(len(s) for s in seen) <= slab
                assert np.concatenate(seen).tolist() == list(range(13 * 5 * 3))
        sup, arg = full[0]
        assert math.isnan(sup)
        assert arg == {"xud": 4 * 15, "uxd": 4 * 5, "dxu": 4 * 3}[order]


# A state-only power before and after one-row sets: (system, sets, SLAB_ROWS,
# the sizes the array ``_pow`` is mapped over, slab by slab).  The innermost
# set is the last with more than one row, so a trailing one-row set (the
# empty input of an unforced system) leaves the set before it innermost.
_POW_SYS = SystemDef(n=2, m=1, k=1, d_box=[[-1.0, 1.0]],
                     f=["abs(x1)^0.5*d1 + u1", "norm(x1, x2) - d1*u1"], H=["x1"])
_POW_SYS0 = SystemDef(n=2, m=1, k=0, d_box=[[-1.0, 1.0]],
                      f=["abs(x1)^0.5*d1", "norm(x1, x2) - d1"], H=["x1"])
_XS, _DS, _ONE_U, _NO_U = (_SLAB_SETS["x"], _SLAB_SETS["d"], np.array([[0.5]]),
                           np.zeros((1, 0)))
_ONE_ROW_CASES = {
    "trailing empty u, d innermost": (
        _POW_SYS0, (("x", _XS), ("d", _DS), ("u", _NO_U)), 4096, [13]),
    "trailing empty u, x innermost": (  # the order of sup_f_sampler
        _POW_SYS0, (("d", _DS), ("x", _XS), ("u", _NO_U)), 4096, [13]),
    "one-row set between larger sets": (
        _POW_SYS, (("d", _DS), ("u", _ONE_U), ("x", _XS)), 4096, [13]),
    "every set one row": (
        _POW_SYS, (("x", _XS[:1]), ("d", _DS[:1]), ("u", _ONE_U)), 4096, [1]),
    "innermost set longer than a slab": (
        _POW_SYS, (("d", _DS[:2]), ("x", _XS), ("u", _ONE_U)), 5, [5, 5, 3] * 2),
}


def _parity_cases():
    rng = np.random.default_rng(11)
    empty = SystemDef(n=2, m=0, k=0, d_box=np.zeros((0, 2)),
                      f=["0.5*x1 - x2^2", "x1*t"], H=["x1"])
    # "native": f as a Python closure writes it (x2*x2, not x2^2), and the
    # inputs outermost, a set order no check uses
    native = SystemDef(n=2, m=1, k=1, d_box=[[-1.0, 1.0]],
                       f=["d1*x1 + u1", "x2*x2 - t*d1"], H=["x1"])
    small = build_small_input_system(B34.sys, geometric(1.0, 0.5), identity())
    assert any("norm(" in str(e) for e in small.f_exprs)
    nan_sys = SystemDef(n=2, m=1, k=1, d_box=[[-1.0, 1.0]],
                        f=["x1^2*d1 + u1", "exp(x2) + d1*x2 - abs(x2)^0.5"], H=["x1"])
    nan_x = rng.normal(size=(9, 2))
    nan_x[[2, 6, 3], [1, 0, 1]] = [math.nan, math.inf, 800.0]  # exp(800) overflows
    small_d = d_candidates(small.d_box, grid=3, random=4, rng=2)
    return {
        "empty rows": (empty, (("x", rng.normal(size=(7, 2))),
                               ("u", np.zeros((1, 0))), ("d", np.zeros((1, 0))))),
        "native": (native, (("u", rng.normal(size=(3, 1))), ("x", rng.normal(size=(6, 2))),
                            ("d", rng.uniform(-1, 1, (4, 1))))),
        "small-input norm": (small, (("d", small_d),
                                     ("x", sphere_points(small.n, 0.7, 6, rng=1)),
                                     ("u", np.zeros((1, 0))))),
        "small-input norm, d innermost": (small, (("x", sphere_points(small.n, 0.7, 6, rng=1)),
                                                  ("u", np.zeros((1, 0))), ("d", small_d))),
        "NaN and overflow points": (nan_sys, (
            ("x", nan_x), ("u", rng.normal(size=(2, 1))),
            ("d", np.array([[-1.0], [0.0], [0.5], [1.0]])))),
        **{case: (sys, sets) for case, (sys, sets, _, _) in _ONE_ROW_CASES.items()},
    }


_PARITY = _parity_cases()


@pytest.mark.parametrize("case", list(_PARITY))
@pytest.mark.parametrize("slab", [4096, 5, 3])
def test_sampled_sup_matches_the_flat_slab_reference(monkeypatch, case, slab):
    sys, sets = _PARITY[case]
    monkeypatch.setattr(system_mod, "SLAB_ROWS", slab)
    scores = {"norm": lambda F, idx: row_norms(F),
              "first": lambda F, idx: F[:, 0] * (1.0 + idx[sets[0][0]]),
              "second": lambda F, idx: F[:, 1]}
    for keep in range(3):
        for name, score in scores.items():
            got = sampled_sup(sys, 3, sets, score, keep=keep)
            want = rows_sampled_sup(sys, 3, sets, score, keep=keep)
            assert same_sup(got, want), (keep, name)
    if case == "NaN and overflow points":
        assert math.isnan(sampled_sup(sys, 3, sets, scores["norm"])[0])
        sups, _ = sampled_sup(sys, 3, sets, scores["second"], keep=1)
        assert sups[3] == math.inf  # a state-only exp past the float range


def test_norm_of_outer_and_inner_columns_matches_row_norms():
    rng = np.random.default_rng(8)
    norm = parse_expression("norm(x1, d1)", Dims(n=1, m=1)).batched()
    xs = rng.standard_normal(6) * 10.0 ** rng.uniform(-200, 200, 6)
    ds = rng.standard_normal(5) * 10.0 ** rng.uniform(-200, 200, 5)
    xs[0], ds[1] = -0.0, math.inf
    got = norm(0.0, xs.reshape(1, 6, 1), ds.reshape(1, 1, 5), np.zeros(0), {})
    assert got.shape == (6, 5)
    pairs = np.stack(np.broadcast_arrays(xs[:, None], ds[None, :]), axis=-1)
    assert got.tobytes() == row_norms(pairs.reshape(30, 2)).tobytes()


def test_state_only_power_runs_once_per_outer_row(monkeypatch):
    """A term of f that reads only the outer sets is mapped over the R outer
    rows of a slab, not its R*K points."""
    sys = SystemDef(n=2, m=1, k=0, d_box=[[-1.0, 1.0]],
                    f=["x1^2*d1", "x2 + d1"], H=["x1"])
    xs, ds = _SLAB_SETS["x"], _SLAB_SETS["d"]
    mapped = []
    power = _ARRAY_NAMESPACE["_pow"]

    def counting_pow(a, b):
        mapped.append(max(np.size(a), np.size(b)))
        return power(a, b)

    monkeypatch.setitem(_ARRAY_NAMESPACE, "_pow", counting_pow)
    sets = (("x", xs), ("d", ds))
    score = lambda F, idx: F[:, 0]  # noqa: E731
    for slab, per_slab in ((4096, [13]), (10, [2] * 6 + [1]), (3, [1] * 26)):
        monkeypatch.setattr(system_mod, "SLAB_ROWS", slab)
        mapped.clear()
        got = sampled_sup(sys, 1, sets, score, keep=1)
        assert mapped == per_slab, slab
        assert same_sup(got, rows_sampled_sup(sys, 1, sets, score, keep=1))


@pytest.mark.parametrize("case", list(_ONE_ROW_CASES))
def test_state_only_power_runs_once_per_row_past_one_row_sets(monkeypatch, case):
    """One-row sets after the last larger set never take the innermost slot,
    so ``abs(x1)^0.5`` is mapped over the x rows of a slab, not its points."""
    sys, sets, slab, per_slab = _ONE_ROW_CASES[case]
    mapped = []
    power = _ARRAY_NAMESPACE["_pow"]

    def counting_pow(a, b):
        mapped.append(max(np.size(a), np.size(b)))
        return power(a, b)

    monkeypatch.setitem(_ARRAY_NAMESPACE, "_pow", counting_pow)
    monkeypatch.setattr(system_mod, "SLAB_ROWS", slab)
    score = lambda F, idx: row_norms(F)  # noqa: E731
    got = sampled_sup(sys, 1, sets, score)
    assert mapped == per_slab
    assert same_sup(got, rows_sampled_sup(sys, 1, sets, score))


def point_loop_f(sys, t, sets):
    """f at every point of the product ``sets`` through :meth:`SystemDef.f_eval`,
    in nested-loop order: the reference for which domain error is raised."""
    names = [name for name, _ in sets]
    for point in itertools.product(*(np.asarray(r, dtype=float) for _, r in sets)):
        got = dict(zip(names, point))
        sys.f_eval(t, got["d"], got["x"], got.get("u"))


@pytest.mark.parametrize("f, sets", [
    (["log(x1)*d1"], (("x", [[1.0], [2.0], [-3.0], [4.0]]), ("d", [[0.5], [1.0]]))),
    (["log(d1)*x1"], (("x", [[1.0], [2.0]]), ("d", [[0.5], [1.0], [0.0], [2.0]]))),
    (["sqrt(x1) + log(d1)"], (("x", [[1.0], [-2.0]]), ("d", [[0.5], [-1.0]]))),
    (["sqrt(x1) + log(d1)"], (("d", [[0.5], [-1.0]]), ("x", [[1.0], [-2.0]]),
                              ("u", np.zeros((1, 0))))),
])
def test_domain_errors_match_the_point_loop(monkeypatch, f, sets):
    """The error raised is the first failing point's in nested-loop order,
    whatever the slab bounds: with ``sqrt(x1) + log(d1)`` one slab holds a
    negative x1 and a negative d1, and the array ``sqrt`` fails first, yet
    the first failing point, (x, d) = (1, -1), fails on ``log``."""
    sys = SystemDef(n=1, m=1, k=0, d_box=[[-3.0, 3.0]], f=f, H=["x1"])
    score = lambda F, idx: F[:, 0]  # noqa: E731
    with pytest.raises(ExprDomainError) as want:
        point_loop_f(sys, 0, sets)
    if f == ["sqrt(x1) + log(d1)"] and sets[0][0] == "x":
        assert str(want.value) == "log of a non-positive number"
    for slab in (1, 2, 3, 4096):
        monkeypatch.setattr(system_mod, "SLAB_ROWS", slab)
        with pytest.raises(ExprDomainError) as got:
            sampled_sup(sys, 0, sets, score)
        assert str(got.value) == str(want.value), slab


def test_nan_candidate_fails_contraction():
    sys = SystemDef(n=1, m=0, k=0, d_box=np.zeros((0, 2)), f=["0.5*x1"], H=["x1"])
    # 0 at x = 0, NaN elsewhere (inf * 0)
    cand = LyapunovCandidate(V="abs(x1)*1e300*1e300*0", n=1, lam=0.5)
    grid = StateGrid(ts=[0, 1], xs=[[0.0], [1.0], [2.0]])
    rep = check_contraction(sys, cand, grid)
    assert rep.verdict == "fail" and not rep.passed
    assert math.isnan(rep.worst_margin)
    assert rep.witness["t"] == 0 and rep.witness["x"] == [1.0]


def test_nan_sampler_fails_domination():
    sampler = lambda T, s: math.nan if s > 1.0 else s  # noqa: E731
    rep = check_domination(sampler, identity(), constant(2.0), Ts=(0, 1),
                           ss=np.array([0.5, 2.0, 3.0]))
    assert not rep.passed and math.isnan(rep.worst_margin)
    assert (rep.witness["T"], rep.witness["s"]) == (0, 2.0)


def test_nan_state_makes_sup_f_sampler_nan():
    sys = SystemDef(n=1, m=0, k=0, d_box=np.zeros((0, 2)), f=["x1 - x1"], H=["x1"])
    assert sup_f_sampler(sys)(0, 1.0) == 0.0
    assert math.isnan(sup_f_sampler(sys)(0, math.inf))


@pytest.mark.parametrize("check, empty, named", [
    ("contraction", "times", "times"), ("contraction", "states", "states"),
    ("contraction", "d_values", "d values"),
    ("relaxed", "times", "times"), ("relaxed", "d_values", "d values"),
    ("ios", "states", "states"), ("ios", "d_values", "d values"),
    ("ios", "u_values", "u values"),
    ("sandwich", "times", "times"), ("sandwich", "states", "states"),
])
def test_empty_sample_sets_raise_value_error(check, empty, named):
    sys = SystemDef(n=1, m=1, k=1, d_box=[[-1.0, 1.0]], f=["0.5*d1*x1 + u1"],
                    H=["x1"])
    cand = LyapunovCandidate(V="abs(x1)", n=1, lam=0.5, a1=identity(),
                             a2=identity(), beta=constant(1.0), a3=identity(),
                             q=geometric(1.0, 0.5), phi=constant(1.0))
    grid = StateGrid(ts=[] if empty == "times" else [0],
                     xs=np.zeros((0, 1)) if empty == "states" else [[1.0]])
    d_values = np.zeros((0, 1)) if empty == "d_values" else [[0.5]]
    u_values = np.zeros((0, 1)) if empty == "u_values" else [[0.1]]
    closed = closed_loop(sys, ["0"])
    run = {
        "contraction": lambda: check_contraction(closed, cand, grid, d_values=d_values),
        "relaxed": lambda: check_relaxed_decrease(closed, cand, grid, d_values=d_values),
        "ios": lambda: check_ios_decrease(sys, cand, grid, u_values, d_values=d_values),
        "sandwich": lambda: check_sandwich(sys, cand, grid),
    }[check]
    with pytest.raises(ValueError, match=f"empty sample set: no {named}"):
        run()


def test_empty_fiber_is_skipped_not_an_error():
    fibers = lambda t, y: np.zeros((0, 3)) if y[0] > 0 else [[0.0, 1.0, 2.0]]  # noqa: E731
    us = np.array([[-1.0], [0.0], [1.0]])
    rep = check_rofs_inf_sup(B47.sys, B47.cand, fibers, us, ts=range(2),
                             ys=[[0.0], [1.0]], d_values=[[0.1]])
    skipped = [e for e in rep.entries if e.y == [1.0]]
    assert [(e.inf_sup, e.note) for e in skipped] == [(-math.inf, "fiber empty; skipped")] * 2
    assert rep.worst == max(e.inf_sup for e in rep.entries if e.y == [0.0])

"""Batched evaluation against the scalar paths it replaces.

The array namespace of the expression codegen, the row norms and the
sampled-sup kernel must reproduce the scalar evaluator bit for bit.  Here
are hand-picked cases against the loops of ``reference.py``;
``test_differential.py`` drives the same pairs on generated systems.
"""

import math

import numpy as np
import pytest

import dtstab.system as system_mod
import reference as ref
from dtstab.certify import (LyapunovCandidate, StateGrid, check_contraction,
                            check_ios_decrease, check_relaxed_decrease,
                            check_rofs_inf_sup, check_sandwich,
                            projection_fiber)
from dtstab.comparison import (check_domination, constant, geometric,
                               identity, kfn_from_expr, sup_f_sampler,
                               timegain_from_expr)
from dtstab.expr import (_ARRAY_NAMESPACE, Call, Dims, ExprDomainError, Num,
                         Var, _exp, _log, _pow, parse_expression, substitute)
from dtstab.registry import example_2_3, example_3_4, example_4_7
from dtstab.stability import build_small_input_system
from dtstab.synth import ReconstructionMap
from dtstab.system import (SampleConfig, SystemDef, VectorMap, closed_loop,
                           d_candidates, reachable_bound, row_norms,
                           sampled_sup, sphere_points, vecnorm)

B23, B34, B47 = example_2_3(), example_3_4(), example_4_7(0.5)


# --- the array namespace against the compiled scalar code ---

def test_array_namespace_keeps_python_min_max_sign_semantics():
    a = np.array([0.0, -0.0, math.nan, 1.0, math.nan])
    b = np.array([-0.0, 0.0, 1.0, math.nan, -2.0])
    for fn in ("min", "max"):
        node = Call(fn, (Var("x1"), Var("x2")))
        got = node.batched()(0.0, np.vstack([a, b]), None, None, {})
        want = [node.compiled()(0.0, np.array([p, q]), None, None, {})
                for p, q in zip(a, b)]
        assert all(ref.same_bits(float(g), w) for g, w in zip(got, want))
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


@pytest.mark.parametrize("text, rows", [
    ("x1^1000", [[2.0], [1e10], [-1e10], [0.5], [-3.0]]),
    ("x1^x2", [[1.5, 2.0], [1e10, 1001.0], [-1e10, 1001.0], [7.0, 0.5]]),
    ("exp(x1)", [[1.0], [800.0], [-1e4], [709.0], [710.0]]),
    ("pow(x1, x2) + exp(x2)", [[0.0, 0.0], [3.0, 800.0], [1e300, 2.0]]),
])
def test_math_map_overflow_mid_array_equals_guarded_loop(text, rows):
    vm = VectorMap([text], "f", n=2)
    X = np.array(rows)
    X = np.hstack([X, np.ones((X.shape[0], 2 - X.shape[1]))])
    want = ref.map_rows(vm, 0.0, X)  # the compiled (guarded-kernel) values
    assert np.isinf(want).any()
    assert ref.same_bits(vm.rows(0.0, X), want)


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
    # one subexpression fails: its first failing row's error is raised
    vm = VectorMap([text], "f", n=2)
    X = np.array(rows)
    assert ref.outcome(lambda: vm.rows(0.0, X)) == ref.outcome(
        lambda: ref.map_rows(vm, 0.0, X)) == ("[]", ("ExprDomainError", message))


def test_first_failing_point_not_subexpression_raises():
    # the first point fails on sqrt, a later one on log: the array call of
    # log, which runs first, raises, but the error is the first point's
    want = ("[]", ("ExprDomainError", "sqrt of a negative number"))
    H = SystemDef(n=2, m=0, k=0, d_box=np.zeros((0, 2)), f=["x1", "x2"],
                  H=["log(x1) + sqrt(x2)"])
    X = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert ref.outcome(lambda: H.H_rows(0.0, X)) == want
    assert ref.outcome(lambda: H._Hmap.grid(0.0, X[:, None])) == want
    assert ref.outcome(lambda: H._Hmap.grid(0.0, X[None])) == want
    points = np.array([3.0, -1.0])
    assert ref.outcome(lambda: kfn_from_expr("log(s) + sqrt(2 - s)").values(points)) == want
    assert ref.outcome(lambda: timegain_from_expr("log(t) + sqrt(2 - t)").values(points)) == want
    psi = ReconstructionMap("log(y1) + sqrt(y0)", p=1)
    Y = np.array([[[-1.0], [1.0]], [[1.0], [-1.0]]])
    assert ref.outcome(lambda: psi.rows([0.0, 0.0], Y, np.zeros((2, 1, 1)))) == want


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


def assert_maps_like_the_kernel(name, args):
    ns_name, kernel = KERNELS[name]
    fn = _ARRAY_NAMESPACE[ns_name]
    got = ref.outcome(lambda: fn(*args))  # values and shape, or the error
    assert got == ref.outcome(lambda: ref.kernel_points(kernel, args))
    if got[1] is None and not any(isinstance(a, np.ndarray) for a in args):
        assert type(fn(*args)) is float


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
        ref.kernel_points(KERNELS[name][1], args)
    assert str(scalar.value) == message
    assert_maps_like_the_kernel(name, args)


def test_mid_array_overflow_takes_the_guarded_kernel():
    # math.pow and math.exp raise OverflowError mid-array; the guarded
    # kernel's infinities replace it at the same points
    for name, args in (("^", (np.array([2.0, 1e300, -1e300, 0.5]), 3.0)),
                       ("pow", (-10.0, np.array([2.0, 401.0, 400.0]))),
                       ("exp", (np.array([1.0, 710.0, -3.0]),))):
        want = ref.kernel_points(KERNELS[name][1], args)
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


def test_substitute_returns_unbound_nodes_themselves():
    # a rebuilt composite compiles again: the closed loop of example_4_7
    # once compiled d1*x3 + exp(t)*x2 anew on every build
    node = parse_expression("x2^2 + u1*t + exp(t)*x1", Dims(n=2, k=1))
    assert substitute(node, {}) is node
    assert substitute(node, {"x3": Num(1.0)}) is node
    closed = substitute(node, {"u1": Num(2.0)})
    assert closed.right is node.right  # exp(t)*x1 reads no u1
    assert closed.left.left is node.left.left  # nor does x2^2
    assert closed.left is not node.left
    cl = closed_loop(B47.sys, ["-x2^2"])
    assert cl.f_exprs[2] is B47.sys.f_exprs[2]
    assert cl.f_exprs[0] is B47.sys.f_exprs[0]


def test_closed_loop_stays_an_expression_and_matches_the_closure():
    cl = closed_loop(B47.sys, B47.feedback)
    assert cl.k == 0
    fb = ref.tree_feedback(B47.feedback, 3)
    closure = ref.ClosureSystem(3, 1, 0, B47.sys.d_box,
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


# --- each rewritten check equals its reference loop ---

def test_reachable_bound_matches_legacy():
    cfg = SampleConfig(d_grid=5, d_random=4, x_directions=6, u_directions=3, seed=9)
    for sys in (B47.sys, B23.sys, B47.closed):
        rb = reachable_bound(sys, 0.8, 2, cfg)
        rho, wits = ref.reachable_bound(sys, 0.8, 2, cfg)
        assert ref.dumps([rb.rho, rb.witnesses]) == ref.dumps([rho, wits])


def test_sup_f_sampler_matches_legacy_and_the_closure():
    cfg = SampleConfig(d_grid=5, d_random=4, x_directions=4,
                       x_scales=(1.0, 0.5), u_directions=3)
    small = build_small_input_system(B34.sys, geometric(1.0, 0.5), identity())
    # the loop over the small-input closure, point by point
    closure = ref.small_input_system(B34.sys, geometric(1.0, 0.5), identity())
    for sys, loop in ((B34.sys, B34.sys), (small, small), (small, closure)):
        got, want = sup_f_sampler(sys, cfg, seed=4), ref.sup_f_sampler(loop, cfg, 4)
        for T in (0, 2):
            for s in (1e-3, 0.7, 40.0):
                assert ref.same_bits(got(T, s), want(T, s))


def test_contraction_matches_legacy_on_closed_loop_and_native_systems():
    # the loop runs over the closure of the plant and its feedback
    fb = ref.tree_feedback(B47.feedback, 3)
    closure = ref.ClosureSystem(3, 1, 0, B47.sys.d_box, lambda t, d, x, u: B47.sys.f_eval(
        t, d, x, fb(t, x)), B47.sys.H_eval)
    grid = StateGrid.from_axes(range(3), [0.0, 1.0, -2.5], [0.0, 0.7, -3.0], [0.0, 5.0])
    dvals = d_candidates(B47.sys.d_box, grid=5, random=3, rng=2)
    assert ref.dumps(check_contraction(B47.closed, B47.cand, grid, d_values=dvals,
                                       tol=1e-12)) == ref.dumps(
        ref.check_contraction(closure, B47.cand, grid, dvals, tol=1e-12))


def test_relaxed_and_ios_decrease_match_legacy():
    grid = StateGrid.from_axes(range(4), [0.0, 1e-3, -2.0, 300.0], [0.0, 1.0, -100.0])
    dvals = np.array([[-2.0], [-0.5], [0.0], [1.0], [2.0]])
    assert ref.dumps(check_relaxed_decrease(B23.sys, B23.cand, grid, d_values=dvals)) \
        == ref.dumps(ref.check_relaxed_decrease(B23.sys, B23.cand, grid, dvals))
    ios = LyapunovCandidate(V=B23.cand.V, n=2, lam=0.9, a3=identity(), phi=constant(2.0))
    us = np.array([[-1.0], [0.0], [0.25], [3.0]])
    assert ref.dumps(check_ios_decrease(B34.sys, ios, grid, us, d_values=dvals)) \
        == ref.dumps(ref.check_ios_decrease(B34.sys, ios, grid, us, dvals))


def test_sandwich_matches_legacy_with_and_without_mu():
    grid = StateGrid.from_axes(range(5), [0.0, 1e-3, -2.0, 300.0], [0.0, 1.0, -100.0])
    with_mu = LyapunovCandidate(V=B23.cand.V, n=2, a1=identity(), a2=identity(),
                                beta=constant(2.0), mu=geometric(0.5, 0.5))
    for cand in (B23.cand, with_mu):
        assert ref.dumps(check_sandwich(B23.sys, cand, grid)) \
            == ref.dumps(ref.check_sandwich(B23.sys, cand, grid))
    grid3 = StateGrid.from_axes(range(3), [0.0, 1.0, -2.5], [0.0, 0.7, -3.0], [0.0, 5.0])
    assert ref.dumps(check_sandwich(B47.sys, B47.cand, grid3)) \
        == ref.dumps(ref.check_sandwich(B47.sys, B47.cand, grid3))


@pytest.mark.parametrize("mode", ["plain", "strong", "zero"])
def test_rofs_matches_legacy(mode):
    fiber = projection_fiber([0], {1: [-1.0, 0.0, 1.0], 2: [0.0, 2.0]}, 3)
    us = np.linspace(-3.0, 3.0, 7).reshape(-1, 1)
    dvals = d_candidates(B47.sys.d_box, grid=3, random=2, rng=5)
    ys = [[-1.0], [0.0], [1.0]]
    rep = check_rofs_inf_sup(B47.sys, B47.cand, fiber, us, ts=range(2), ys=ys,
                             mode=mode, d_values=dvals)
    assert ref.dumps(rep) == ref.dumps(ref.check_rofs_inf_sup(
        B47.sys, B47.cand, fiber, us, range(2), ys, dvals, mode))


def test_first_maximum_wins_ties():
    # |d1| * x1 ties for d = -1 and d = 1, at every t: the first one is kept
    sys = SystemDef(n=1, m=1, k=0, d_box=[[-1.0, 1.0]], f=["abs(d1)*x1"], H=["x1"])
    cand = LyapunovCandidate(V="abs(x1)", n=1, lam=0.5)
    grid = StateGrid(ts=[0, 1], xs=[[0.0], [2.0], [-2.0]])
    dvals = np.array([[0.5], [-1.0], [1.0]])
    rep = check_contraction(sys, cand, grid, d_values=dvals)
    assert rep.witness["t"] == 0 and rep.witness["x"] == [2.0]
    assert rep.witness["d"] == [-1.0]
    assert ref.dumps(rep) == ref.dumps(ref.check_contraction(sys, cand, grid, dvals))
    sup, arg = sampled_sup(sys, 3, (("d", dvals), ("x", grid.xs)),
                           lambda F, idx: row_norms(F))
    assert (sup, arg) == (2.0, 1 * 3 + 1)  # d = -1, x = 2


# --- the kernel: slabs, NaN rule, empty sets ---

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
                want = ref.sampled_sup(_SLAB_SYS, 2, sets, score, keep=k)
                seen.clear()
                got = sampled_sup(_SLAB_SYS, 2, sets, score, keep=k)
                assert ref.dumps(got) == ref.dumps(full[k]) == ref.dumps(want), (order, slab, k)
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
            want = ref.sampled_sup(sys, 3, sets, score, keep=keep)
            assert ref.dumps(got) == ref.dumps(want), (keep, name)
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
        assert ref.dumps(got) == ref.dumps(ref.sampled_sup(sys, 1, sets, score, keep=1))


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
    assert ref.dumps(got) == ref.dumps(ref.sampled_sup(sys, 1, sets, score))


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
    want = ref.outcome(lambda: ref.sampled_sup(sys, 0, sets, score))
    assert want[1][0] == "ExprDomainError"
    if f == ["sqrt(x1) + log(d1)"] and sets[0][0] == "x":
        assert want[1][1] == "log of a non-positive number"
    for slab in (1, 2, 3, 4096):
        monkeypatch.setattr(system_mod, "SLAB_ROWS", slab)
        assert ref.outcome(lambda: sampled_sup(sys, 0, sets, score)) == want, slab


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

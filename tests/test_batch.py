"""Batched evaluation against the scalar paths it replaces.

The array namespace of the expression codegen, the row norms and the
sampled-sup kernel must reproduce the scalar evaluator bit for bit.  The
``legacy_*`` functions below are the scalar nested loops the checks used
before the kernel; they are kept here as references only.
"""

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
from dtstab.comparison import (KFn, check_domination, constant, geometric,
                               identity, sup_f_sampler)
from dtstab.expr import (Bin, Call, Dims, Env, ExprDomainError, Neg, Num, Var,
                         eval_expression, parse_expression, substitute)
from dtstab.registry import example_2_3, example_3_4, example_4_7
from dtstab.stability import build_small_input_system
from dtstab.system import (SampleConfig, StateFeedback, SystemDef,
                           closed_loop, d_candidates, reachable_bound,
                           row_norms, sampled_sup, sphere_points, vecnorm)

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
    fb = B47.feedback
    cl = closed_loop(B47.sys, fb)
    assert cl.f_exprs is not None and cl.k == 0
    closure = SystemDef(n=3, m=1, k=0, d_box=B47.sys.d_box,
                        f=lambda t, d, x, u: B47.sys.f_eval(t, d, x, fb(None, t, x)),
                        H=B47.sys.H, h=B47.sys.h)
    rng = np.random.default_rng(1)
    for _ in range(300):
        t, x, d = int(rng.integers(0, 30)), rng.uniform(-50, 50, 3), rng.uniform(-0.5, 0.5, 1)
        assert cl.f_eval(t, d, x).tobytes() == closure.f_eval(t, d, x).tobytes()
        assert cl.H_eval(t, x).tobytes() == B47.sys.H_eval(t, x).tobytes()
        assert cl.h_eval(t, x).tobytes() == B47.sys.h_eval(t, x).tobytes()
    native = closed_loop(B47.sys, StateFeedback(lambda t, x: [-x[1] ** 2], n=3))
    assert native.f_exprs is None


def test_closed_loop_binds_inputs_by_index():
    # "u01" names u1 as well; the feedback must be substituted for it
    plant = SystemDef(n=1, m=0, k=1, d_box=np.zeros((0, 2)), f=["x1 + u01"],
                      H=["x1"])
    cl = closed_loop(plant, ["-0.5*x1"])
    assert cl.f_exprs is not None and cl.f_exprs[0].variables() == {"x1"}
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


def test_sup_f_sampler_matches_legacy_including_native_fallback():
    cfg = SampleConfig(d_grid=5, d_random=4, x_directions=4,
                       x_scales=(1.0, 0.5), u_directions=3)
    # a gain without an expression keeps the closure: the per-row fallback
    native = build_small_input_system(B34.sys, geometric(1.0, 0.5),
                                      KFn(lambda s: s, "s", "Kinf"))
    assert native.f_exprs is None
    small = build_small_input_system(B34.sys, geometric(1.0, 0.5), identity())
    assert small.f_exprs is not None
    for sys in (B34.sys, native, small):
        got, want = sup_f_sampler(sys, cfg, seed=4), legacy_sampler(sys, cfg, 4)
        for T in (0, 2):
            for s in (1e-3, 0.7, 40.0):
                assert dumps(got(T, s)) == dumps(want(T, s))


def _report_matches(rep, worst, wit, count):
    assert dumps([rep.worst_margin, rep.witness, rep.samples]) == dumps([worst, wit, count])


def test_contraction_matches_legacy_on_closed_loop_and_native_systems():
    dvals = d_candidates(B47.sys.d_box, grid=5, random=3, rng=2)
    closure = SystemDef(n=3, m=1, k=0, d_box=B47.sys.d_box,
                        f=lambda t, d, x, u: B47.sys.f_eval(t, d, x, B47.feedback(None, t, x)),
                        H=B47.sys.H)
    native_V = LyapunovCandidate(V=lambda t, x: B47.cand.V_eval(t, x), lam=B47.cand.lam)
    lam = B47.cand.lam
    want = legacy_decrease(closure, B47.cand, GRID3, lambda t, x, V0, u: lam * V0, dvals)
    for sys, cand in ((B47.closed, B47.cand), (closure, B47.cand), (B47.closed, native_V)):
        rep = check_contraction(sys, cand, GRID3, d_values=dvals, tol=1e-12)
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

def test_slabs_do_not_change_the_result(monkeypatch):
    sys = SystemDef(n=2, m=1, k=1, d_box=[[-1.0, 1.0]],
                    f=["d1*x1 + u1", "log(abs(x2) + 1)*d1"], H=["x1"])
    rng = np.random.default_rng(3)
    xs, ds, us = rng.normal(size=(13, 2)), rng.uniform(-1, 1, (5, 1)), rng.normal(size=(3, 1))
    xs[4, 0] = math.nan  # NaN wins, at its first occurrence
    sets = (("x", xs), ("u", us), ("d", ds))
    score = lambda F, idx: F[:, 0] + F[:, 1]  # noqa: E731
    full = [sampled_sup(sys, 2, sets, score, keep=k) for k in range(3)]
    for slab in (1, 4, 7, 64):
        monkeypatch.setattr(system_mod, "SLAB_ROWS", slab)
        for k in range(3):
            got = sampled_sup(sys, 2, sets, score, keep=k)
            assert dumps([np.asarray(v).tolist() for v in got]) == \
                dumps([np.asarray(v).tolist() for v in full[k]])
    sup, arg = full[0]
    assert math.isnan(sup) and arg == 4 * 15


def test_nan_candidate_fails_contraction():
    sys = SystemDef(n=1, m=0, k=0, d_box=np.zeros((0, 2)), f=["0.5*x1"], H=["x1"])
    cand = LyapunovCandidate(V=lambda t, x: 0.0 if not np.any(x) else math.nan,
                             lam=0.5)
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

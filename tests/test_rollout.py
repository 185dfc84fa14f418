"""Lock-step batched rollouts against the scalar reference ``simulate``.

``search_trajectories`` rolls its trajectories in lock-step blocks; every
trajectory must equal, field for field and bit for bit, the one ``simulate``
rolls from the same (t0, x0, policies) of the documented seed stream.  NaNs
may differ only in their sign bit, which IEEE 754 leaves unspecified.
"""

import math

import numpy as np
import pytest

import dtstab.stability as stability
from dtstab.comparison import KFn, KLEnvelope, constant, identity
from dtstab.expr import ExprDomainError
from dtstab.registry import (example_2_3, example_3_4, example_4_7,
                             recursion_step_check)
from dtstab.stability import (FalsifyBudget, adversarial_batch,
                              build_small_input_system, check_ios_estimate,
                              check_kl_estimate, falsify, search_trajectories)
from dtstab.stability import test_output_attractivity as search_attractivity
from dtstab.stability import test_output_stability as search_stability
from dtstab.system import (ConstantDisturbance, RandomDisturbance,
                           StateFeedback, SystemDef, Trajectory, ZeroInput,
                           closed_loop, simulate, vecnorm)

B23, B34, B47 = example_2_3(), example_3_4(), example_4_7(0.5)
# the small-input system with m = 2: an expression system, and native f, H
# and h when the gain has no expression (evaluated row by row)
SMALL = build_small_input_system(B34.sys, constant(0.5), identity())
NATIVE_SMALL = build_small_input_system(B34.sys, constant(0.5),
                                        KFn(lambda s: s, "s", "Kinf"))
FIELDS = ("t", "x", "d", "u", "Y", "y")


def assert_same(got, want):
    """Equal bit for bit (signed zeros included), NaNs at the same places."""
    assert got.t0 == want.t0 and type(got.t0) is type(want.t0)
    assert got.meta == want.meta
    for name in FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        if a.dtype.kind != "f":
            assert np.array_equal(a, b), name
            continue
        nan = np.isnan(a)
        assert np.array_equal(nan, np.isnan(b)), name
        assert np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64)), name


def reference(sys, t0s, radius, budget, u_modes=("zero",)):
    """One ``simulate`` per index of the seed stream, with fresh policies."""
    specs = stability._trajectory_specs(sys, list(t0s), radius, budget, u_modes,
                                        range(budget.max_trajectories))
    return [simulate(sys, t0, x0, dpol, upol, budget.horizon, meta=meta)
            for t0, x0, dpol, upol, meta in specs]


@pytest.fixture
def batched_only(monkeypatch):
    """Searches must not fall back to per-trajectory ``simulate``."""
    def refuse(*args, **kwargs):
        raise AssertionError("search fell back to simulate")
    monkeypatch.setattr(stability, "simulate", refuse)


def check_search(sys, t0s, radius, budget, u_modes=("zero",)):
    got = list(search_trajectories(sys, t0s, radius, budget, u_modes))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stability, "simulate", simulate)
        want = reference(sys, t0s, radius, budget, u_modes)
    assert len(got) == len(want) == budget.max_trajectories
    for a, b in zip(got, want):
        assert_same(a, b)
    return got


# --- row evaluators take one time or a column of per-row times ---

@pytest.mark.parametrize("sys", [B23.sys, B47.sys, NATIVE_SMALL, SMALL],
                         ids=["expression", "expression_h", "native",
                              "small_input"])
def test_row_evaluators_take_per_row_times(sys):
    rng = np.random.default_rng(1)
    N = 9
    t = rng.integers(0, 12, size=N)
    X = rng.uniform(-3.0, 3.0, size=(N, sys.n))
    D = rng.uniform(sys.d_box[:, 0], sys.d_box[:, 1], size=(N, sys.m))
    U = rng.uniform(-1.0, 1.0, size=(N, sys.k))
    F, Y, y = sys.f_rows(t, X, D, U), sys.H_rows(t, X), sys.h_rows(t, X)
    for i in range(N):
        assert np.array_equal(F[i], sys.f_eval(t[i], D[i], X[i], U[i]))
        assert np.array_equal(Y[i], sys.H_eval(t[i], X[i]))
        assert np.array_equal(y[i], sys.h_eval(t[i], X[i]))


# --- search_trajectories == per-index simulate ---

@pytest.mark.parametrize("mix", [("corner",), ("greedy",), ("random",),
                                 ("corner", "greedy", "random", "random")])
def test_every_mix_strategy(batched_only, mix):
    budget = FalsifyBudget(max_trajectories=30, horizon=40, mix=mix, seed=5)
    check_search(B23.sys, (0, 3, 7), 1.0, budget)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # example_4_7 overflows
@pytest.mark.parametrize("bundle", [B34, B47], ids=["example_3_4", "example_4_7"])
def test_input_modes_zero_constant_random(batched_only, bundle):
    budget = FalsifyBudget(max_trajectories=36, horizon=30, seed=11)
    check_search(bundle.sys, (0, 2, 5), 3.0, budget,
                 u_modes=("zero", "constant", "random"))


def test_two_dimensional_box_expression_system(batched_only):
    sys = SystemDef(n=2, m=2, k=0, d_box=[[-1.0, 1.5], [0.0, 2.0]],
                    f=["d1*x1 - 0.5*d2*x2", "2^(-t)*d2*abs(x1)^0.5"],
                    H=["x1", "x2"], h=["x2 - x1"])
    budget = FalsifyBudget(max_trajectories=24, horizon=25, seed=3)
    check_search(sys, (0, 4), 2.0, budget)


def test_greedy_scores_the_successor_time(batched_only):
    # the output weights x2 by (t - 3.5), so the greedy pick depends on
    # scoring the successor at t + 1
    sys = SystemDef(n=2, m=2, k=0, d_box=[[-1.0, 0.5], [0.0, 1.5]],
                    f=["d1*x1 + 0.1*x2", "d2*x2 - 0.1*x1"], H=["x1 + (t - 3.5)*x2"])
    budget = FalsifyBudget(max_trajectories=16, horizon=12, mix=("greedy",))
    check_search(sys, (0, 1, 2, 3, 4, 5), 1.0, budget)


def test_native_small_input_system_rows(batched_only):
    # m = 2 and a native f, H and h: evaluated row by row through f_rows
    assert NATIVE_SMALL.m == 2 and NATIVE_SMALL.f_exprs is None
    assert NATIVE_SMALL.H_exprs is None and callable(NATIVE_SMALL.h)
    # the same system as an expression: one array call a step
    assert SMALL.m == 2 and SMALL.f_exprs is not None
    budget = FalsifyBudget(max_trajectories=20, horizon=20, seed=9)
    for sys in (NATIVE_SMALL, SMALL):
        check_search(sys, (0, 1), 2.0, budget)


def test_native_closed_loop_rows(batched_only):
    cl = closed_loop(B47.sys, StateFeedback(lambda t, x: [-x[1] ** 2]))
    budget = FalsifyBudget(max_trajectories=12, horizon=15, seed=2)
    check_search(cl, (0, 3), 1.0, budget)


def test_single_trajectory_budget_and_radius_zero(batched_only):
    check_search(B23.sys, (2,), 1.0, FalsifyBudget(max_trajectories=1, horizon=30))
    check_search(B34.sys, (0, 1), 0.0, FalsifyBudget(max_trajectories=9, horizon=10),
                 u_modes=("zero", "constant", "random"))
    assert list(search_trajectories(B23.sys, (0,), 1.0,
                                    FalsifyBudget(max_trajectories=0))) == []


def test_blocks_not_a_multiple_of_the_block_size(batched_only, monkeypatch):
    monkeypatch.setattr(stability, "ROLLOUT_BLOCK", 7)
    budget = FalsifyBudget(max_trajectories=23, horizon=20, seed=4)
    check_search(B23.sys, (0, 5), 1.0, budget)
    check_search(B34.sys, (0,), 2.0, budget, u_modes=("zero", "constant", "random"))


def test_larger_budget_extends_smaller_one(batched_only, monkeypatch):
    monkeypatch.setattr(stability, "ROLLOUT_BLOCK", 5)
    small = list(search_trajectories(B23.sys, (0, 1), 1.0,
                                     FalsifyBudget(max_trajectories=8, horizon=20)))
    large = list(search_trajectories(B23.sys, (0, 1), 1.0,
                                     FalsifyBudget(max_trajectories=16, horizon=20)))
    for a, b in zip(small, large[:8]):
        assert_same(a, b)


# --- policies: tables, generator order and the greedy pick ---

@pytest.fixture
def random_mode(monkeypatch):
    """``use(mode)``: the search's random disturbances draw in ``mode`` (it
    builds "mixed" ones), from the same child seeds."""
    d_policy = stability._d_policy

    def use(mode):
        def patched(strategy, sys, idx, seed_seq):
            pol = d_policy(strategy, sys, idx, seed_seq)
            if strategy == "random":
                pol = RandomDisturbance(seed=pol.seed, mode=mode)
            return pol
        monkeypatch.setattr(stability, "_d_policy", patched)

    return use


@pytest.mark.parametrize("mode", ["interior", "corner", "mixed"])
@pytest.mark.parametrize("bundle", [B23, B34], ids=["m1", "m1_input"])
def test_random_disturbance_modes(batched_only, random_mode, mode, bundle):
    random_mode(mode)
    budget = FalsifyBudget(max_trajectories=8, horizon=25, mix=("random",), seed=6)
    check_search(bundle.sys, (0, 3, 1, 4), 2.0, budget,
                 u_modes=("zero", "constant", "random"))


@pytest.mark.parametrize("mode", ["interior", "corner", "mixed"])
def test_random_disturbance_two_dimensional_box(batched_only, random_mode, mode):
    random_mode(mode)
    budget = FalsifyBudget(max_trajectories=6, horizon=15, mix=("random",), seed=7)
    for sys in (NATIVE_SMALL, SMALL):
        check_search(sys, (0, 2, 4), 2.0, budget)


def test_sequence_input_offsets_and_exhaustion(batched_only):
    # t runs below the 256-row random input table, through it and past its end
    budget = FalsifyBudget(max_trajectories=9, horizon=40, mix=("corner",), seed=8)
    got = check_search(B34.sys, (-3, 0, 230), 1.0, budget, u_modes=("random",))
    for traj in got:
        inside = (traj.t >= 0) & (traj.t < 256)
        assert np.all(traj.u[~inside] == 0.0) and np.all(traj.u[inside] != 0.0)
    t = np.concatenate([traj.t for traj in got])
    assert t.min() < 0 and t.max() >= 256


class ShiftedDisturbance(ConstantDisturbance):
    """A subclass may override ``__call__``, so it has no table."""

    def __call__(self, sys, t, x, u):
        return self.value + 0.0 * t


def test_roller_refuses_policy_kinds_without_a_table():
    budget = FalsifyBudget(max_trajectories=1, horizon=3)
    [(t0, x0, dpol, upol, meta)] = stability._trajectory_specs(
        B34.sys, [0], 1.0, budget, ("zero",), range(1))
    feedback = StateFeedback(["-x2/4"], n=2)
    with pytest.raises(TypeError, match="no input table for state-feedback"):
        stability._roll(B34.sys, [(t0, x0, dpol, feedback, meta)], 3)
    shifted = ShiftedDisturbance([0.5])
    with pytest.raises(TypeError, match="no disturbance table"):
        stability._roll(B34.sys, [(t0, x0, shifted, upol, meta)], 3)


def nan_output_system(d_box, H):
    return SystemDef(n=1, m=1, k=0, d_box=d_box, f=["d1*x1"], H=H)


pytestmark = pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning",
    "ignore:invalid value encountered:RuntimeWarning")


def test_greedy_never_picks_nan_scores(batched_only):
    # successors with x1 > 0 score NaN (inf - inf); the rest score |x1|
    sys = nan_output_system(
        [[-2.0, 2.0]],
        ["max(x1, 0)*1e300*1e300 - max(x1, 0)*1e300*1e300 + abs(x1)"])
    budget = FalsifyBudget(max_trajectories=6, horizon=6, mix=("greedy",))
    got = check_search(sys, (0,), 1.0, budget)
    assert got[0].x[0, 0] == 1.0
    assert got[0].d[0, 0] == -2.0  # the only candidates with finite scores


def test_greedy_all_nan_scores_picks_first_candidate(batched_only):
    sys = nan_output_system([[1.0, 2.0]], ["x1*1e300*1e300 - x1*1e300*1e300"])
    budget = FalsifyBudget(max_trajectories=4, horizon=4, mix=("greedy",))
    for traj in check_search(sys, (0, 1), 3.0, budget):
        assert np.all(traj.d == 1.0)


def test_random_draw_form_equals_generator_uniform():
    for box in ([[-2.0, 2.0]], [[-2.0, 2.0], [-1.0, 1.0]], [[0.1, 0.3], [-1e-3, 7.5]]):
        box = np.asarray(box)
        lo, hi = box[:, 0], box[:, 1]
        for seed in range(20):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(500):
                want = a.uniform(lo, hi)
                got = lo + (hi - lo) * b.random(box.shape[0])
                assert np.array_equal(want.view(np.int64), got.view(np.int64))
            assert a.bit_generator.state == b.bit_generator.state
    # and the class draws exactly that, on m = 1 and m = 2 boxes
    for sys in (B23.sys, NATIVE_SMALL, SMALL):
        pol, twin = RandomDisturbance(seed=4), np.random.default_rng(4)
        for _ in range(200):
            assert np.array_equal(pol(sys, 0, None, None),
                                  twin.uniform(sys.d_box[:, 0], sys.d_box[:, 1]))
        assert pol.rng.bit_generator.state == twin.bit_generator.state


# --- errors surface after the same yields ---

def test_domain_error_after_not_attained_still_reports():
    # trajectory 0 (x0 = +1) never decays; trajectory 1 (x0 = -1) takes the
    # square root of a negative number at its first step
    sys = SystemDef(n=1, m=1, k=0, d_box=[[-1.0, 1.0]], f=["x1 + 0*sqrt(x1)"],
                    H=["x1"])
    budget = FalsifyBudget(max_trajectories=8, horizon=10, mix=("corner",))
    rep = search_attractivity(sys, 0.5, 0, 1.0, budget=budget)
    assert rep.attained is False and rep.counterexample.meta["index"] == 0
    stream = search_trajectories(sys, (0,), 1.0, budget)
    assert_same(next(stream), simulate(sys, 0, [1.0], ConstantDisturbance([-1.0]),
                                       ZeroInput(), 10,
                                       meta={"index": 0, "strategy": "corner"}))
    with pytest.raises(ExprDomainError):
        next(stream)
    with pytest.raises(ExprDomainError):
        adversarial_batch(sys, (0,), 1.0, budget)


# --- NaN never passes in trajectory checks ---

def overflow_system():
    # x1 * 1e300 * 1e300 overflows, so inf - inf makes every later state NaN
    return SystemDef(n=1, m=0, k=0, d_box=np.zeros((0, 2)),
                     f=["x1*1e300*1e300 - x1*1e300*1e300"], H=["x1"])


def test_nan_output_fails_kl_estimate():
    traj = simulate(overflow_system(), 0, [1.0], horizon=3)
    assert traj.Y[0, 0] == 1.0 and np.all(np.isnan(traj.Y[1:]))
    rep = check_kl_estimate([traj], KLEnvelope(2.0, 0.1))
    assert not rep.passed
    assert math.isnan(rep.worst_ratio) and math.isnan(rep.worst_margin)
    assert rep.witness["t"] == 1  # the first NaN row


def test_nan_output_fails_ios_estimate_and_falsify():
    sys = overflow_system()
    traj = simulate(sys, 0, [1.0], horizon=3)
    rep = check_ios_estimate([traj], KLEnvelope(2.0, 0.1), rho=identity(),
                             gamma=constant(1.0))
    assert not rep.passed and rep.witness["t"] == 1
    fal = falsify(sys, KLEnvelope(2.0, 0.1),
                  budget=FalsifyBudget(max_trajectories=4, horizon=5))
    assert fal.violated and math.isnan(fal.ratio)


def test_nan_state_fails_recursion_step_check():
    traj = adversarial_batch(B34.sys, (0,), 1.0,
                             FalsifyBudget(max_trajectories=2, horizon=6))[0]
    x = traj.x.copy()
    x[3:] = math.nan
    broken = Trajectory(t0=traj.t0, t=traj.t, x=x, d=traj.d, u=traj.u,
                        Y=traj.Y, y=traj.y, meta=traj.meta)
    assert recursion_step_check(B34, [traj]).passed
    rep = recursion_step_check(B34, [broken])
    assert not rep.passed and math.isnan(rep.worst_margin)
    assert rep.witness["t"] == 2  # V(t+1) is NaN first at t = 2


def test_nan_output_fails_attractivity_and_stability():
    sys = overflow_system()
    budget = FalsifyBudget(max_trajectories=2, horizon=5, mix=("corner",))
    assert not search_attractivity(sys, 0.5, 0, 1.0, budget=budget).passed
    assert not search_stability(sys, 0.5, 0, budget=budget).passed


# --- one row-norm helper: the reported peak replays through vecnorm ---

def test_stability_peak_replays_through_vecnorm():
    sys = SystemDef(n=3, m=1, k=0, d_box=[[0.5, 2.0]],
                    f=["d1*x1 + 0.3*x2", "d1*x2 - 0.2*x3", "x3*d1 + 0.1*x1"],
                    H=["x1", "x2 - x3", "x3 + 0.7*x1"])
    rep = search_stability(sys, eps=1e-30, T=1,
                           budget=FalsifyBudget(max_trajectories=12, horizon=12))
    assert not rep.passed and sys.p_Y == 3
    peak = max(vecnorm(row) for row in rep.counterexample.Y)
    assert rep.worst["peak"] == peak

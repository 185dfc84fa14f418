"""Lock-step batched rollouts against the scalar reference ``simulate``.

``search_trajectories`` rolls its trajectories in lock-step blocks; every
trajectory must equal, field for field and bit for bit, the one ``simulate``
rolls from the same (t0, x0, policies) of the documented seed stream
(``reference.search_trajectories``; ``test_differential.py`` compares the
two on generated systems).  NaNs may differ only in their sign bit, which
IEEE 754 leaves unspecified.
"""

import itertools
import math

import numpy as np
import pytest

import dtstab.stability as stability
import reference as ref
from dtstab.comparison import KLEnvelope, constant, identity
from dtstab.expr import ExprDomainError
from dtstab.registry import (example_2_3, example_3_4, example_4_7,
                             recursion_step_check)
from dtstab.stability import (FalsifyBudget, adversarial_batch,
                              build_small_input_system, check_ios_estimate,
                              check_kl_estimate, falsify, search_trajectories)
from dtstab.stability import test_output_attractivity as search_attractivity
from dtstab.stability import test_output_stability as search_stability
from dtstab.system import (ConstantDisturbance, ConstantInput,
                           GreedyDisturbance, RandomDisturbance, SequenceInput,
                           SystemDef, Trajectory, ZeroInput, d_candidates,
                           simulate, vecnorm)

B23, B34, B47 = example_2_3(), example_3_4(), example_4_7(0.5)
# the plant under the delay-chain controller: unforced, over (x, w)
LOOP47 = B47.controller.closed_loop(B47.sys)
# the small-input system, with m = 2
SMALL = build_small_input_system(B34.sys, constant(0.5), identity())
FIELDS = ("t", "x", "d", "u", "Y", "y")


def assert_same(got, want):
    """Equal field for field and bit for bit (NaN signs aside), t0's type too."""
    assert type(got.t0) is type(want.t0) and ref.dumps(got) == ref.dumps(want)


def test_trajectory_specs_follow_the_documented_stream():
    # trajectory i seeds from SeedSequence(seed, spawn_key=(i,)): signed
    # axes first, then a normal direction over np.linalg.norm on the radius
    # ladder; corners in product order; greedy and random policies seeded
    # with the sequence's first word
    mix = ("corner", "greedy", "random")
    budget = FalsifyBudget(max_trajectories=40, horizon=3, mix=mix, seed=21)
    for n in (1, 2, 3):
        sys = SystemDef(n=n, m=2, k=0, d_box=[[-1.0, 2.0], [0.5, 1.5]],
                        f=[f"0.5*x{i + 1}" for i in range(n)], H=["x1"])
        corners = np.array(list(itertools.product(*sys.d_box)))
        specs = stability._trajectory_specs(sys, [0, 3], 2.0, budget, ("zero",),
                                            range(40))
        for i, (t0, x0, dpol, upol, meta) in enumerate(specs):
            seq = np.random.SeedSequence(21, spawn_key=(i,))
            if i < 2 * n:
                want = 2.0 * np.eye(n)[i // 2] * (1.0 if i % 2 == 0 else -1.0)
            else:
                g = np.random.default_rng(seq.generate_state(2)).standard_normal(n)
                want = g / np.linalg.norm(g) * (2.0 * (1.0, 0.75, 0.5, 0.25)[i % 4])
            assert ref.same_bits(x0, want)
            assert t0 == (0, 3)[i % 2] and meta == {"index": i, "strategy": mix[i % 3]}
            child = int(seq.generate_state(1)[0])
            if mix[i % 3] == "corner":
                assert np.array_equal(dpol.value, corners[i % 4])
            else:
                assert dpol.seed == child
            if mix[i % 3] == "random":
                assert dpol.rng.random() == np.random.default_rng(child).random()


# --- block seeding equals one SeedSequence and default_rng at a time ---

def assert_same_spec(got, want):
    (t0, x0, dpol, upol, meta), (w_t0, w_x0, w_dpol, w_upol, w_meta) = got, want
    assert t0 == w_t0 and meta == w_meta and ref.same_bits(x0, w_x0)
    assert type(dpol) is type(w_dpol) and dpol.descriptor() == w_dpol.descriptor()
    assert type(upol) is type(w_upol) and upol.descriptor() == w_upol.descriptor()
    if type(dpol) is ConstantDisturbance:
        assert ref.same_bits(dpol.value, w_dpol.value)
    elif type(dpol) is RandomDisturbance:
        assert dpol.rng.bit_generator.state == w_dpol.rng.bit_generator.state
    if type(upol) is ConstantInput:
        assert ref.same_bits(upol.value, w_upol.value)
    elif type(upol) is SequenceInput:
        assert upol.t0 == w_upol.t0 and ref.same_bits(upol.values, w_upol.values)


@pytest.mark.parametrize("radius", [0.0, 2.0])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_block_specs_equal_per_trajectory_seeding(n, radius):
    # every mix entry and u mode; blocks inside the first 256 indices, one
    # spanning index 256 and one far past it; a one-word and a two-word seed.
    # With n = 0 there is no direction to draw: x0 is the empty state.
    mix = ("corner", "greedy", "random", "random")
    u_modes = ("zero", "constant", "random")
    sys = SystemDef(n=n, m=2, k=2, d_box=[[-1.0, 2.0], [0.5, 1.5]],
                    f=[f"0.5*x{i + 1} + u1" for i in range(n)], H=["x1" if n else "t"])
    for seed in (21, 2 ** 40 + 7):
        budget = FalsifyBudget(mix=mix, seed=seed, u_cap=3.0)
        for block in (range(0, 40), range(250, 262), range(1000, 1013)):
            got = list(stability._trajectory_specs(sys, [0, 3, 5], radius,
                                                   budget, u_modes, block))
            want = list(ref.trajectory_specs(sys, [0, 3, 5], radius, budget,
                                             u_modes, block))
            assert len(got) == len(want) == len(block)
            for a, b in zip(got, want):
                assert_same_spec(a, b)


SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 70 + 12345, 2 ** 170 + 99]  # last: 6 words
INDICES = list(range(601)) + [2 ** 32 - 1, 2 ** 32, 2 ** 40 + 3]


@pytest.mark.parametrize("seed", SEEDS)
def test_block_hasher_equals_seed_sequence(seed):
    states = stability._spawn_states(seed, INDICES)
    want = [np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(2)
            for i in INDICES]
    assert states.dtype == np.uint32 and np.array_equal(states, want)
    words = stability._generator_words(states)
    for r, state in enumerate(states):
        child = int(state[0])
        for k, entropy in enumerate((state, child, child + 1)):
            seq = np.random.SeedSequence(entropy)
            assert np.array_equal(words[k, r], seq.generate_state(4, np.uint64))
            gen = stability._generator(words[k, r])
            assert (gen.bit_generator.state
                    == np.random.default_rng(entropy).bit_generator.state)


def test_generator_words_carry_into_a_second_word():
    # child = 2^32 - 1: default_rng(child + 1) hashes the entropy [0, 1]
    states = np.array([[2 ** 32 - 1, 7], [2 ** 32 - 2, 0]], dtype=np.uint32)
    words = stability._generator_words(states)
    for r, child in enumerate((2 ** 32 - 1, 2 ** 32 - 2)):
        for k, entropy in enumerate((states[r], child, child + 1)):
            want = np.random.SeedSequence(entropy).generate_state(4, np.uint64)
            assert np.array_equal(words[k, r], want)
    assert stability._spawn_states(3, []).shape == (0, 2)


def test_pcg64_words_answer_pcg64_alone():
    want = np.random.SeedSequence(5).generate_state(4, np.uint64)
    stub = stability._PCG64Words(want)
    assert stub.generate_state(4, np.uint64) is want
    assert stub.generate_state(4, np.dtype("uint64")) is want
    for n_words, dtype in ((4, np.uint32), (2, np.uint64), (8, np.uint64),
                           (4, np.int64)):
        with pytest.raises(ValueError, match="holds 4 uint64 words"):
            stub.generate_state(n_words, dtype)
    with pytest.raises(ValueError, match="holds 4 uint64 words"):
        stub.generate_state(4)
    assert (np.random.PCG64(stub).state
            == np.random.PCG64(np.random.SeedSequence(5)).state)


@pytest.fixture
def batched_only(monkeypatch):
    """Searches must not fall back to per-trajectory ``simulate``."""
    def refuse(*args, **kwargs):
        raise AssertionError("search fell back to simulate")
    monkeypatch.setattr(stability, "simulate", refuse)


def check_search(sys, t0s, radius, budget, u_modes=("zero",),
                 specs=ref.trajectory_specs):
    got = list(search_trajectories(sys, t0s, radius, budget, u_modes))
    want = list(ref.search_trajectories(sys, t0s, radius, budget, u_modes, specs))
    assert len(got) == len(want) == budget.max_trajectories
    for a, b in zip(got, want):
        assert_same(a, b)
    return got


# --- row evaluators take one time or a column of per-row times ---

@pytest.mark.parametrize("sys", [B23.sys, B47.sys, SMALL],
                         ids=["expression", "expression_h", "small_input"])
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


def test_small_input_system_rows(batched_only):
    # m = 2, and f reads the substituted norm of the state
    assert SMALL.m == 2 and SMALL.k == 0
    budget = FalsifyBudget(max_trajectories=20, horizon=20, seed=9)
    check_search(SMALL, (0, 1), 2.0, budget)


def test_closed_loop_rows(batched_only):
    budget = FalsifyBudget(max_trajectories=12, horizon=15, seed=2)
    check_search(B47.closed, (0, 3), 1.0, budget)


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


# --- a block with one start time steps with one float time ---

def spy_times(monkeypatch, sys):
    """Record the type of every time the block's row evaluators get."""
    seen = set()
    for name in ("f_rows", "H_rows", "h_rows"):
        def spy(t, *args, _original=getattr(sys, name)):
            seen.add(type(t))
            return _original(t, *args)
        monkeypatch.setattr(sys, name, spy)
    return seen


TIME_TERMS = SystemDef(n=2, m=2, k=0, d_box=[[-1.0, 1.5], [0.0, 2.0]],
                       f=["d1*x1 - 0.5*d2*x2*2^(-t)", "2^(-t)*d2*abs(x1)^0.5"],
                       H=["x1*exp(-t/4)", "(t - 3.5)*x2"], h=["x2 - log(t + 2)*x1"])


@pytest.mark.parametrize("t0", [0, 3])
@pytest.mark.parametrize("sys, u_modes", [
    (B23.sys, ("zero",)), (TIME_TERMS, ("zero",)),
    (B34.sys, ("zero", "constant", "random")), (SMALL, ("zero",)),
    (LOOP47, ("zero",))],
    ids=["example_2_3", "time_terms", "example_3_4", "small_input",
         "delay_chain_loop"])
def test_single_start_time_blocks_equal_simulate(batched_only, monkeypatch,
                                                 sys, u_modes, t0):
    seen = spy_times(monkeypatch, sys)
    budget = FalsifyBudget(max_trajectories=20, horizon=25, seed=6)
    check_search(sys, (t0,), 1.5, budget, u_modes)
    assert seen == {float}  # greedy rows included: the mix has them
    seen.clear()
    check_search(sys, (t0, t0 + 2), 1.5, budget, u_modes)
    assert float not in seen


@pytest.mark.parametrize("t0", [0, 3])
def test_single_start_time_greedy_only(batched_only, t0):
    # the greedy score at t + 1 must stay a float step for step
    budget = FalsifyBudget(max_trajectories=9, horizon=15, mix=("greedy",), seed=8)
    check_search(TIME_TERMS, (t0,), 1.0, budget)
    check_search(B34.sys, (t0,), 2.0, budget, u_modes=("constant", "random"))


# --- policies: tables, generator order and the greedy pick ---

@pytest.fixture
def random_mode(monkeypatch):
    """``use(mode)``: the search's random disturbances draw in ``mode`` (it
    builds "mixed" ones), from the same child seeds."""
    d_policy = stability._d_policy

    def use(mode):
        def patched(strategy, sys, idx, child, words):
            pol = d_policy(strategy, sys, idx, child, words)
            if strategy == "random":
                pol = RandomDisturbance(seed=pol.seed, mode=mode)
            return pol
        monkeypatch.setattr(stability, "_d_policy", patched)

    return use


def assert_rolled_in_mode(trajs, mode):
    """Every trajectory's disturbance was a random policy in ``mode``."""
    assert trajs and all(traj.meta["d_policy"].startswith(f"random(mode={mode},")
                         for traj in trajs)


@pytest.mark.parametrize("mode", ["interior", "corner", "mixed"])
@pytest.mark.parametrize("bundle", [B23, B34], ids=["m1", "m1_input"])
def test_random_disturbance_modes(batched_only, random_mode, mode, bundle):
    random_mode(mode)
    budget = FalsifyBudget(max_trajectories=8, horizon=25, mix=("random",), seed=6)
    got = check_search(bundle.sys, (0, 3, 1, 4), 2.0, budget,
                       ("zero", "constant", "random"), stability._trajectory_specs)
    assert_rolled_in_mode(got, mode)


@pytest.mark.parametrize("mode", ["interior", "corner", "mixed"])
def test_random_disturbance_two_dimensional_box(batched_only, random_mode, mode):
    random_mode(mode)
    budget = FalsifyBudget(max_trajectories=6, horizon=15, mix=("random",), seed=7)
    got = check_search(SMALL, (0, 2, 4), 2.0, budget, ("zero",),
                       stability._trajectory_specs)
    assert_rolled_in_mode(got, mode)


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
    feedback = ref.TreeFeedback(["-x2/4"], n=2)
    with pytest.raises(TypeError, match="no input table for TreeFeedback"):
        stability._roll(B34.sys, [(t0, x0, dpol, feedback, meta)], 3)
    shifted = ShiftedDisturbance([0.5])
    with pytest.raises(TypeError, match="no disturbance table"):
        stability._roll(B34.sys, [(t0, x0, shifted, upol, meta)], 3)

    class Biased(RandomDisturbance):
        def __call__(self, sys, t, x, u):
            return 0.5 * super().__call__(sys, t, x, u)

    with pytest.raises(TypeError, match="no disturbance table"):
        stability._roll(B34.sys, [(t0, x0, dpol, upol, meta),
                                  (t0, x0, Biased(seed=1), upol, meta)], 3)
    # the roller steps the greedy candidates of the search's grid alone
    for grid in (3, 9):
        with pytest.raises(TypeError, match=r"no disturbance table for greedy\("
                                            rf"output-seeking, grid={grid}, seed=0\)"):
            stability._roll(B34.sys, [(t0, x0, GreedyDisturbance(grid=grid),
                                       upol, meta)], 3)


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


def test_greedy_step_with_every_score_nan(batched_only):
    # H(t, x) is NaN at t = 3 only, so at the step into t = 3 every
    # candidate of every greedy row scores NaN and cands[0] is picked
    sys = nan_output_system(
        [[-2.0, 2.0]], ["x1 + 1 + 0*(1e300*(1 + max(0, 1 - abs(t - 3))*1e300))"])
    budget = FalsifyBudget(max_trajectories=16, horizon=8, seed=12)
    got = check_search(sys, (0, 1, 2), 1.0, budget)
    greedy = [traj for traj in got if traj.meta["strategy"] == "greedy"]
    assert {int(traj.t0) for traj in greedy} == {0, 1, 2}
    for traj in greedy:
        into_3 = traj.t == 2
        assert np.all(traj.d[into_3] == -2.0) and np.any(traj.d[~into_3] != -2.0)
        assert np.all(np.isnan(traj.Y[traj.t == 3]))


def test_greedy_all_rows_on_a_two_dimensional_box(batched_only):
    # 4 corners inside the 5 x 5 grid: C = 25 candidate rows per greedy row
    sys = SystemDef(n=2, m=2, k=0, d_box=[[-1.0, 1.5], [0.0, 2.0]],
                    f=["0.5*d1*x1 - 0.3*d2*x2", "0.4*x1*d2 + 0.2*d1*x2"],
                    H=["x1 - 2*x2", "x2*(t - 2.5)"])
    assert d_candidates(sys.d_box, grid=stability._GREEDY_GRID).shape == (25, 2)
    budget = FalsifyBudget(max_trajectories=14, horizon=18, mix=("greedy",),
                           seed=13)
    check_search(sys, (0, 2, 5), 2.0, budget)


def test_greedy_rows_on_a_system_with_its_own_h(batched_only):
    assert TIME_TERMS.h is not None
    budget = FalsifyBudget(max_trajectories=17, horizon=14, seed=14)
    for t0s in ((0, 1, 3), (2,)):
        got = check_search(TIME_TERMS, t0s, 1.5, budget)
        assert any(not np.array_equal(traj.y, traj.Y[:, :1]) for traj in got)


def test_candidate_raising_at_the_last_step_falls_back_in_order(batched_only,
                                                               monkeypatch):
    # sqrt of a negative only for d1 = -2 at t = 12, the last row: the
    # search evaluates f there for the greedy candidates alone, as simulate does
    sys = SystemDef(n=1, m=1, k=0, d_box=[[-2.0, 2.0]],
                    f=["0.5*d1*x1 + 0*sqrt(100*(12 - t) + d1 + 1.5)"], H=["x1"])
    mix = ("corner", "random", "greedy", "corner")
    budget = FalsifyBudget(max_trajectories=8, horizon=12, mix=mix, seed=3)
    for traj in check_search(sys, (0,), 1.0, FalsifyBudget(
            max_trajectories=8, horizon=12, mix=("corner", "random"), seed=3)):
        assert traj.t[-1] == 12
    monkeypatch.setattr(stability, "simulate", simulate)  # greedy rows raise
    stream, got = search_trajectories(sys, (0,), 1.0, budget), []
    with pytest.raises(ExprDomainError):
        for traj in stream:
            got.append(traj)
    specs = stability._trajectory_specs(sys, [0], 1.0, budget, ("zero",), range(2))
    assert len(got) == 2  # index 2 is greedy: its last pick raises
    for traj, (t0, x0, dpol, upol, meta) in zip(got, specs):
        assert_same(traj, simulate(sys, t0, x0, dpol, upol, 12, meta=meta))


@pytest.mark.parametrize("mix", [("corner", "greedy", "random"), ("random", "corner")])
@pytest.mark.parametrize("sys", [TIME_TERMS, B34.sys], ids=["own_h", "h_is_H"])
def test_one_row_call_per_map_and_step(batched_only, monkeypatch, sys, mix):
    calls = {"f_rows": [], "H_rows": [], "h_rows": []}
    for name in calls:
        def counted(t, X, *args, _name=name, _original=getattr(sys, name)):
            calls[_name].append(len(X))
            return _original(t, X, *args)
        monkeypatch.setattr(sys, name, counted)
    horizon, B = 9, 12
    budget = FalsifyBudget(max_trajectories=B, horizon=horizon, mix=mix, seed=15)
    check_search(sys, (0, 4), 1.0, budget, ("zero", "random"))
    N, G = horizon + 1, sum(mix[i % len(mix)] == "greedy" for i in range(B))
    C = len(d_candidates(sys.d_box, grid=stability._GREEDY_GRID))
    # f: one call a step over the other rows and C rows per greedy row, and
    # one over the candidates alone for the last row's picks; H: the first
    # row's outputs, then one call a step at t + 1 over f's rows
    step = [B - G + G * C] * (N - 1)
    assert calls["f_rows"] == (step + [G * C] if G else step)
    assert calls["H_rows"] == [B] + calls["f_rows"]
    assert calls["h_rows"] == ([B] * N if sys.h is not None else [])


def test_random_draw_form_equals_generator_uniform():
    for box in ([[-2.0, 2.0]], [[-2.0, 2.0], [-1.0, 1.0]], [[0.1, 0.3], [-1e-3, 7.5]]):
        box = np.asarray(box)
        lo, hi = box[:, 0], box[:, 1]
        for seed in range(20):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(500):
                want = a.uniform(lo, hi)
                got = lo + (hi - lo) * b.random(box.shape[0])
                assert ref.same_bits(want, got)
            assert a.bit_generator.state == b.bit_generator.state
    # and the class draws exactly that, on m = 1 and m = 2 boxes
    for sys in (B23.sys, SMALL):
        pol, twin = RandomDisturbance(seed=4), np.random.default_rng(4)
        for _ in range(200):
            assert np.array_equal(pol(sys, 0, None, None),
                                  twin.uniform(sys.d_box[:, 0], sys.d_box[:, 1]))
        assert pol.rng.bit_generator.state == twin.bit_generator.state


# --- random tables: one ``random`` call a table ---

TABLE_BOXES = {0: np.zeros((0, 2)), 1: [[-2.0, 2.0]],
               2: [[-2.0, 2.0], [-1.0, 1.5]],
               3: [[0.1, 0.3], [-1e-3, 7.5], [-1.0, 1.0]]}
BIT_GENERATORS = (np.random.PCG64, np.random.Philox, np.random.MT19937,
                  np.random.SFC64)


def twin_policies(bits, seed, mode, buffered):
    """Two equal random policies on ``bits(seed)`` generators; with
    ``buffered`` both first leave a 32-bit half in their generator's buffer."""
    pols = [RandomDisturbance(seed=np.random.Generator(bits(seed)), mode=mode)
            for _ in range(2)]
    if buffered:
        for pol in pols:
            pol.rng.integers(0, 2)
    return pols


def same_state(a, b):
    """Generator states equal field for field (Philox's holds arrays)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def assert_same_generators(a, b):
    assert same_state(a.bit_generator.state, b.bit_generator.state)
    assert a.random() == b.random()
    assert np.array_equal(a.integers(0, 2, size=3), b.integers(0, 2, size=3))
    assert a.random() == b.random()


def box_system(m):
    box = np.asarray(TABLE_BOXES[m]).reshape(m, 2)
    return SystemDef(n=1, m=m, k=0, d_box=box,
                     f=["0.5*x1" + "".join(f" + d{i + 1}" for i in range(m))],
                     H=["x1"])


@pytest.mark.parametrize("mode", ["interior", "corner", "mixed"])
@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_random_table_equals_successive_draws(mode, m):
    # N picks in one call equal N one-row calls bit for bit, on every bit
    # generator, and leave the generator in the state those calls leave
    sys = box_system(m)
    for bits in BIT_GENERATORS:
        for seed in range(5):
            for N in (1, 7, 201):
                for buffered in (False, True):
                    rowwise, tabled = twin_policies(bits, seed, mode, buffered)
                    want = np.array([rowwise(sys, t, None, None)
                                     for t in range(N)]).reshape(N, m)
                    got = tabled.table(sys.d_box, N)
                    assert got.shape == (N, m)
                    assert ref.same_bits(got, want)
                    assert_same_generators(rowwise.rng, tabled.rng)


def test_random_table_draw_contract():
    # a mixed pick reads a coin (below 0.5: a corner), then one double per
    # component: a corner takes hi at r >= 0.5, else lo; inside the box each
    # component lies in [lo, hi]
    box = np.asarray(TABLE_BOXES[3])
    lo, hi = box[:, 0], box[:, 1]
    N = 20000
    table = RandomDisturbance(seed=2005, mode="mixed").table(box, N)
    stream = np.random.default_rng(2005).random((N, 4))
    corner, r = stream[:, 0] < 0.5, stream[:, 1:]
    want = np.where(corner[:, None], np.where(r >= 0.5, hi, lo), lo + (hi - lo) * r)
    assert ref.same_bits(table, want)
    at_hi, at_lo = table[corner] == hi, table[corner] == lo
    assert np.all(at_hi | at_lo)
    inside = table[~corner]
    assert np.all((inside >= lo) & (inside <= hi))
    assert not np.any(np.all((inside == lo) | (inside == hi), axis=1))
    assert abs(corner.mean() - 0.5) <= 0.01
    for share in (at_hi.mean(axis=0), at_lo.mean(axis=0)):
        assert np.all(np.abs(share - 0.5) <= 0.01)


@pytest.mark.parametrize("ahead", [1, 60, 1 << 13])
@pytest.mark.parametrize("N", [1, 7, 201])
@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_block_decode_equals_successive_draws(m, N, ahead):
    # one _roll over random policies of every mode on every bit generator,
    # their streams first moved ``ahead`` doubles on (half of them with a
    # buffered 32-bit half too), between a constant and a greedy row: each
    # random row is its simulate trajectory, and the generators end equal
    sys = box_system(m)
    rowwise, rolled = [], []
    for seed in range(12):
        pair = twin_policies(BIT_GENERATORS[seed % 4], seed,
                             ("interior", "corner", "mixed")[seed % 3],
                             seed % 8 < 4)
        for pol, pols in zip(pair, (rowwise, rolled)):
            pol.rng.random(ahead)
            pols.append(pol)
    others = [ConstantDisturbance(sys.d_box[:, 1]), GreedyDisturbance(seed=1)]
    specs = [(j % 3, [0.5], dpol, ZeroInput(), {"index": j})
             for j, dpol in enumerate(others[:1] + rolled + others[1:])]
    trajs = stability._roll(sys, specs, N - 1)[1:-1]
    for traj, pol, twin in zip(trajs, rolled, rowwise, strict=True):
        want = simulate(sys, traj.t0, [0.5], twin, ZeroInput(), N - 1)
        for name in FIELDS:
            got = getattr(traj, name)
            assert ref.same_bits(got, getattr(want, name)), name
        assert_same_generators(pol.rng, twin.rng)


def test_search_decodes_random_tables_without_per_row_draws(batched_only):
    def refuse(self, *args):
        raise AssertionError("per-row random draw in a search")

    budget = FalsifyBudget(max_trajectories=12, horizon=30, seed=11)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RandomDisturbance, "__call__", refuse)
        got = list(search_trajectories(B34.sys, (0, 2), 1.5, budget,
                                       ("zero", "constant", "random")))
    want = ref.search_trajectories(B34.sys, (0, 2), 1.5, budget,
                                   ("zero", "constant", "random"))
    assert sum(g.meta["strategy"] == "random" for g in got) == 6
    for a, b in zip(got, want, strict=True):
        assert_same(a, b)


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

"""Empirical stability testing: output stability / attractivity, decay-envelope
checks and adversarial falsification.

These are semidecision procedures by search: a reported violation is a real
counterexample (the witness trajectory replays to it), while a pass only says
no violation was found within the budget and horizon.  Searches are driven by
deterministic seed streams: trajectory i derives its generator from
(master seed, i), so a larger budget extends a smaller one and never replaces
it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .comparison import KFn, KLEnvelope, TimeGain, _ragged
from .expr import Bin, Call, Var, substitute
from .system import (FAIL, ConstantDisturbance, ConstantInput,
                     GreedyDisturbance, RandomDisturbance, SequenceInput,
                     SystemDef, Trajectory, WorstMargin, ZeroInput,
                     bind_inputs, d_candidates, first_max,
                     output_maps, require_samples, row_norms, simulate,
                     _beats, _FieldsJSON)

__all__ = [
    "FalsifyBudget", "StabilityReport", "EnvelopeReport",
    "test_output_stability", "test_output_attractivity",
    "check_kl_estimate", "check_ios_estimate",
    "build_small_input_system", "falsify", "adversarial_batch",
]

_RADIUS_LADDER = (1.0, 0.75, 0.5, 0.25)
ROLLOUT_BLOCK = 256  # trajectories a search rolls in lock-step at once
_GREEDY_GRID = 5  # per-dimension candidate grid of the search's greedy adversary
BISECT_ITERS = 20  # bisection steps of test_output_stability after bracketing
DELTA_CAP = 1e6  # the first delta test_output_stability tries


@dataclass
class FalsifyBudget:
    """Search effort: trajectory count, horizon and disturbance strategy mix."""

    max_trajectories: int = 200
    horizon: int = 60
    mix: tuple = ("corner", "greedy", "random", "random")
    seed: int = 42
    u_cap: float = 5.0

    def __post_init__(self):
        _require_modes("mix", self.mix, ("corner", "greedy", "random"))
        # the counts size ranges and arrays, and the seed stream replays
        # only from an integer seed; True is no count
        for name in ("max_trajectories", "horizon", "seed"):
            value = getattr(self, name)
            if (not isinstance(value, (int, np.integer))
                    or isinstance(value, bool) or value < 0):
                raise ValueError(f"{name} must be a non-negative integer, "
                                 f"not {value!r}")
            setattr(self, name, int(value))
        _require_finite("u_cap", self.u_cap)


def _require_finite(what, value):
    """Refuse a ``value`` that is negative, infinite or NaN."""
    if not 0.0 <= value < math.inf:  # NaN fails the comparison
        raise ValueError(f"{what} must be finite and non-negative, "
                         f"not {value!r}")


def _require_modes(what, modes, known):
    """Refuse an empty ``modes`` or an entry outside ``known``."""
    if not modes:
        raise ValueError(f"{what} must not be empty")
    for mode in modes:
        if mode not in known:
            raise ValueError(f"unknown {what} entry {mode!r}")


@dataclass
class StabilityReport:
    prop: str
    params: dict
    delta: float = None
    bracket: tuple = None
    tau: int = None
    attained: bool = None
    counterexample: Trajectory = None
    worst: dict = None
    budget_used: int = 0
    seed: int = None
    notes: list = field(default_factory=list)

    @property
    def passed(self):
        if self.prop == "output-stability":
            return self.delta is not None
        return bool(self.attained)  # output-attractivity

    def to_json(self):
        out = {"property": self.prop, "params": self.params,
               "delta": self.delta, "bracket": self.bracket, "tau": self.tau,
               "attained": self.attained, "worst": self.worst,
               "budget_used": self.budget_used, "seed": self.seed,
               "notes": self.notes,
               "counterexample": None}
        if self.counterexample is not None:
            ce = self.counterexample
            out["counterexample"] = {"t0": int(ce.t0), "x0": ce.x0.tolist(),
                                     "meta": ce.meta}
        return out


def _axis_states(n, radius):
    eye = np.eye(n)
    return [radius * eye[i] * sgn for i in range(n) for sgn in (1.0, -1.0)]


def _d_policy(strategy, sys, idx, child, words):
    """Index ``idx``'s disturbance: a box corner, or a greedy or mixed random
    policy named by ``child``, the random one drawing from the generator of
    the PCG64 ``words`` of ``default_rng(child)``."""
    if strategy == "corner":
        corners = sys.d_corners
        return ConstantDisturbance(corners[idx % corners.shape[0]])
    if strategy == "greedy":
        return GreedyDisturbance(grid=_GREEDY_GRID, seed=child)
    return RandomDisturbance._from_generator(_generator(words), child, "mixed")


def _u_policy(mode, sys, idx, words, u_cap):
    """Index ``idx``'s input; a random one is 256 uniform rows drawn from the
    generator of the PCG64 ``words`` of ``default_rng(child + 1)``."""
    if sys.k == 0 or mode == "zero":
        return ZeroInput()
    if mode == "constant":
        level = u_cap * _RADIUS_LADDER[(idx // 2) % len(_RADIUS_LADDER)]
        sign = 1.0 if idx % 2 == 0 else -1.0
        vec = np.full(sys.k, sign * level / math.sqrt(sys.k))
        return ConstantInput(vec)
    seq = _generator(words).uniform(-u_cap, u_cap, size=(256, sys.k))
    return SequenceInput(seq)


# --- block seeding: numpy's SeedSequence, hashed for a whole block at once ---
#
# SeedSequence is O'Neill's seed_seq_fe hash (PCG, HMC-CS-2014-0905): pure
# uint32 arithmetic over a pool of four words, whose control flow depends
# only on the number of entropy words.  So a block's sequences hash as
# uint32 columns, and numpy arrays wrap exactly as the uint32 original does.

_MASK32 = 0xFFFFFFFF
_POOL = 4  # SeedSequence's default pool size
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # entropy hashing (hashmix)
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # generate_state
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash_consts(init, mult, count):
    """The first ``count`` hash constants ``init * mult^j mod 2^32``."""
    out = [init]
    for _ in range(count - 1):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)


def _hashmix(value, consts):
    """SeedSequence's ``hashmix`` of the uint32 ``value`` (broadcast along
    the last axis) as successive calls whose hash constants are
    ``consts[:-1]``, each call multiplying by the next constant."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's ``mix`` of the uint32 arrays ``x`` and ``y``."""
    value = x * _MIX_L - y * _MIX_R
    return value ^ value >> 16


def _seed_pools(first, rest=()):
    """``SeedSequence(entropy).pool`` for rows of entropy words, (R, 4) uint32.

    Each row's entropy is the columns of the uint32 matrix ``first`` (at
    least four; a shorter entropy hashes as its zero-padded form) followed
    by the (R, 1) columns ``rest``.  Rows broadcast, so a prefix shared by
    every row is a one-row ``first``, hashed once.
    """
    extra = [first[:, j, None] for j in range(_POOL, first.shape[1])]
    extra += list(rest)
    consts = _hash_consts(_INIT_A, _MULT_A,
                          _POOL * _POOL + _POOL * len(extra) + 1)
    pool = _hashmix(first[:, :_POOL], consts[:_POOL + 1])
    k = _POOL
    for src in range(_POOL):  # every word into every other, in order
        dst = [j for j in range(_POOL) if j != src]
        pool[:, dst] = _mix(pool[:, dst],
                            _hashmix(pool[:, src, None], consts[k:k + _POOL]))
        k += _POOL - 1
    for word in extra:  # each later word into every pool word
        pool = _mix(pool, _hashmix(word, consts[k:k + _POOL + 1]))
        k += _POOL
    return pool


def _generate_state(pools, n_words):
    """``generate_state(n_words)`` of each pool row, (R, n_words) uint32."""
    consts = _hash_consts(_INIT_B, _MULT_B, n_words + 1)
    value = (pools[:, np.arange(n_words) % _POOL] ^ consts[:-1]) * consts[1:]
    return value ^ value >> 16


def _spawn_states(seed, indices):
    """``SeedSequence(seed, spawn_key=(i,)).generate_state(2)`` for every i
    of ``indices``, (B, 2) uint32."""
    # little-endian uint32 words, [0] for 0
    words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    head = np.zeros((1, max(len(words), _POOL)), dtype=np.uint32)
    head[0, :len(words)] = words  # a spawned short entropy is zero-padded
    idx = np.array(indices, dtype=np.uint64).reshape(-1, 1)
    lo, hi = (idx & _MASK32).astype(np.uint32), (idx >> 32).astype(np.uint32)
    pools = _seed_pools(head, [lo])
    if hi.any():  # an index past 2^32 - 1 is a two-word spawn key
        pools = np.where(hi > 0, _seed_pools(head, [lo, hi]), pools)
    return _generate_state(pools, 2)


def _generator_words(states):
    """The PCG64 words of ``default_rng(state)``, ``default_rng(child)`` and
    ``default_rng(child + 1)`` for each two-word ``state`` row, child its
    first word: a (3, B, 4) uint64 array.  ``child + 1 = 2^32`` is the
    two-word entropy [0, 1]."""
    B = states.shape[0]
    up = states[:, 0].astype(np.uint64) + 1
    entropy = np.zeros((3, B, _POOL), dtype=np.uint32)
    entropy[0, :, :2] = states
    entropy[1, :, 0] = states[:, 0]
    entropy[2, :, 0] = up & _MASK32
    entropy[2, :, 1] = up >> 32
    state = _generate_state(_seed_pools(entropy.reshape(3 * B, _POOL)), 8)
    # PCG64 asks for 4 uint64 words: uint32 pairs, little-endian, as numpy reads them
    return (state.astype("<u4", order="C").view("<u8").astype(np.uint64)
            .reshape(3, B, 4))


class _PCG64Words(ISeedSequence):
    """A seed sequence that holds the four uint64 words ``PCG64`` asks for
    and answers that request alone: ``PCG64(_PCG64Words(words))`` equals
    ``PCG64(seq)`` when ``words`` is ``seq.generate_state(4, np.uint64)``."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"holds 4 uint64 words, not {n_words} of "
                             f"{np.dtype(dtype)}")
        return self.words


def _generator(words):
    return np.random.Generator(np.random.PCG64(_PCG64Words(words)))


def _trajectory_specs(sys, t0s, radius, budget, u_modes, indices):
    """(t0, x0, d policy, u policy, meta) of each search index, fresh policies.

    Index i's seed material is ``SeedSequence(budget.seed, spawn_key=(i,))``:
    its two-word state seeds the direction of a random x0, and its first
    word, child, names the greedy adversary and seeds the random disturbance
    (``default_rng(child)``) and the random input table
    (``default_rng(child + 1)``).  The whole block of sequences, and then
    the PCG64 words of every generator, are hashed at once in uint32 numpy;
    each generator is made from its ready words, the same generator bit for
    bit as ``default_rng`` makes.
    """
    indices = list(indices)
    states = _spawn_states(budget.seed, indices)
    words = _generator_words(states)
    axis = _axis_states(sys.n, radius)
    for r, (i, child) in enumerate(zip(indices, states[:, 0].tolist())):
        if radius == 0.0 or sys.n == 0:  # n = 0: no direction to draw
            x0 = np.zeros(sys.n)
        elif i < len(axis):
            x0 = axis[i]
        else:
            direction = _generator(words[0, r]).standard_normal(sys.n)
            nrm = math.sqrt(direction.dot(direction))  # as np.linalg.norm takes it
            direction = direction / nrm if nrm > 0 else np.eye(sys.n)[0]
            x0 = direction * (radius * _RADIUS_LADDER[i % len(_RADIUS_LADDER)])
        strategy = budget.mix[i % len(budget.mix)]
        dpol = _d_policy(strategy, sys, i, child, words[1, r])
        upol = _u_policy(u_modes[i % len(u_modes)], sys, i, words[2, r],
                         budget.u_cap)
        yield (t0s[i % len(t0s)], x0, dpol, upol,
               {"index": i, "strategy": strategy})


def _roll(sys, specs, horizon):
    """Roll a block of ``_trajectory_specs`` in lock-step; trajectory j equals
    ``simulate(sys, t0, x0, dpol, upol, horizon, meta=meta)`` of spec j bit
    for bit.

    Only the policy kinds the search builds are rolled; any other, or a
    greedy adversary on a grid other than ``_GREEDY_GRID``, raises
    TypeError.  Zero, constant and sequence inputs and corner and random
    disturbances do not read the state, so their (B, N, .) tables are
    filled before the first step; a random row's table is one
    ``RandomDisturbance.table`` call, equal to the N picks ``simulate``
    makes from its generator.

    Each greedy trajectory steps as C rows, one per candidate d of the
    output-seeking adversary.  A step makes one ``f_rows`` call over the
    other rows and all candidate rows and one ``H_rows`` call at t + 1 over
    the results, plus one ``h_rows`` call when the system has its own h.
    Each greedy row then takes ``GreedyDisturbance.__call__``'s pick, the
    first strict maximum of ||H(t + 1, f)||, never a NaN, ``cands[0]`` when
    every score is NaN; the picked candidate's successor and output are the
    row's next state and output.  The last step evaluates the candidate
    rows only.  Times are a column of per-row times, or one float when the
    whole block starts at the same t0.
    """
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    t0s, X0, dpols, upols, metas = zip(*specs)
    B, N, n = len(specs), horizon + 1, sys.n
    for dpol, upol in zip(dpols, upols):
        if type(upol) not in (ZeroInput, ConstantInput, SequenceInput):
            raise TypeError(f"no input table for {upol.descriptor()}")
        greedy_elsewhere = (type(dpol) is GreedyDisturbance
                            and dpol.grid != _GREEDY_GRID)
        if greedy_elsewhere or type(dpol) not in (
                ConstantDisturbance, RandomDisturbance, GreedyDisturbance):
            raise TypeError(f"no disturbance table for {dpol.descriptor()}")
    greedy = [type(dpol) is GreedyDisturbance for dpol in dpols]
    # row i of the block's arrays is spec order[i]: the greedy rows last
    order = sorted(range(B), key=greedy.__getitem__)
    G = sum(greedy)
    rest = B - G
    Ti = np.array([t0s[j] for j in order])[:, None] + np.arange(N)
    X = np.empty((B, N, n))
    D = np.empty((B, N, sys.m))
    U = np.zeros((B, N, sys.k))
    Yv = np.empty((B, N, sys.p_Y))
    box = sys.d_box
    for i, j in enumerate(order):
        upol, dpol = upols[j], dpols[j]
        if type(upol) is ConstantInput:
            U[i] = upol.value
        elif type(upol) is SequenceInput:
            k = Ti[i] - upol.t0
            inside = (k >= 0) & (k < upol.values.shape[0])
            U[i, inside] = upol.values[k[inside]]  # zeros outside the table
        if type(dpol) is ConstantDisturbance:
            D[i] = dpol.value
        elif type(dpol) is RandomDisturbance:
            D[i] = dpol.table(box, N)
    # one start time: a term of t alone is evaluated once a step, as a scalar
    t0 = float(t0s[0]) if len(set(t0s)) == 1 else Ti[:, 0].astype(float)
    X[:, 0] = np.array([X0[j] for j in order], dtype=float).reshape(B, n)
    Yv[:, 0] = sys.H_rows(t0, X[:, 0])
    yv = None if sys.h is None else np.empty((B, N, sys.p_y))
    cands = (d_candidates(box, grid=_GREEDY_GRID, random=0) if G
             else np.empty((0, sys.m)))
    C = len(cands)
    # the rows a step evaluates, by the block row whose x and u they read:
    # the other rows, then C per greedy row, the candidates in order
    src = np.concatenate([np.arange(rest), np.repeat(np.arange(rest, B), C)])
    Xs, Ds, Us = (np.empty((src.size, dim)) for dim in (n, sys.m, sys.k))
    Ds[rest:] = np.tile(cands, (G, 1))
    ts = t0 if isinstance(t0, float) else t0[src]
    succ = np.arange(B)  # the evaluated row that is each block row's successor
    first = rest + np.arange(G) * C  # each greedy row's first candidate row
    for s in range(N):
        x = X[:, s]
        if yv is not None:
            yv[:, s] = sys.h_rows(t0 + s, x)
        last = s + 1 == N
        if last and not G:
            break
        # every index is in range: mode "clip" only skips take's buffering
        x.take(src, axis=0, out=Xs, mode="clip")
        U[:, s].take(src, axis=0, out=Us, mode="clip")
        Ds[:rest] = D[:rest, s]
        rows = slice(rest if last else 0, None)  # the last step: candidates only
        t = ts + s if isinstance(ts, float) else ts[rows] + s
        F = sys.f_rows(t, Xs[rows], Ds[rows], Us[rows])
        Yn = sys.H_rows(t + 1.0, F)
        if G:
            score = row_norms(Yn[len(Yn) - G * C:]).reshape(G, C)
            # a norm is never negative, so a NaN scored -1 is never picked
            # over a number, and an all-NaN row picks cands[0]
            best = np.fmax(score, -1.0, out=score).argmax(axis=1)
            cands.take(best, axis=0, out=D[rest:, s], mode="clip")
            np.add(first, best, out=succ[rest:])
        if not last:
            F.take(succ, axis=0, out=X[:, s + 1], mode="clip")
            Yn.take(succ, axis=0, out=Yv[:, s + 1], mode="clip")
    if yv is None:
        yv = Yv.copy()  # y reuses H, in an array of its own
    trajs = [None] * B
    for i, j in enumerate(order):
        trajs[j] = Trajectory(t0=t0s[j], t=Ti[i], x=X[i], d=D[i], u=U[i],
                              Y=Yv[i], y=yv[i],
                              meta={"d_policy": dpols[j].descriptor(),
                                    "u_policy": upols[j].descriptor(), **metas[j]})
    return trajs


def search_trajectories(sys: SystemDef, t0s: Sequence[int], radius: float,
                        budget: FalsifyBudget, u_modes=("zero",)):
    """Deterministic trajectory stream for adversarial searches.

    The first trajectories take signed axis initial states at full radius (the
    common worst cases); later ones draw random directions with radii on a
    fixed ladder of fractions of ``radius``.  Yields one Trajectory per index.

    Trajectory i's policies come from ``SeedSequence(budget.seed,
    spawn_key=(i,))`` (see ``_trajectory_specs``); the sequences of a block
    are hashed together, the same stream as one sequence at a time.
    Trajectories are rolled in lock-step blocks of at most ROLLOUT_BLOCK,
    each equal bit for bit to its own :func:`simulate`.  When a block
    raises, it is rolled again one trajectory at a time from fresh policies,
    so the error surfaces after the same yields as a trajectory-by-trajectory
    search gives.
    """
    t0s = list(t0s)
    if not t0s:
        raise ValueError("t0s must not be empty")
    _require_finite("search radius", radius)
    _require_modes("u_modes", u_modes, ("zero", "constant", "random"))
    total = budget.max_trajectories
    for start in range(0, total, ROLLOUT_BLOCK):
        block = range(start, min(total, start + ROLLOUT_BLOCK))
        specs = list(_trajectory_specs(sys, t0s, radius, budget, u_modes, block))
        try:
            trajs = _roll(sys, specs, budget.horizon)
        except Exception:  # whatever a row raised, simulate raises it again, in order
            trajs = (simulate(sys, t0, x0, dpol, upol, budget.horizon, meta=meta)
                     for t0, x0, dpol, upol, meta in _trajectory_specs(
                         sys, t0s, radius, budget, u_modes, block))
        yield from trajs


def adversarial_batch(sys, t0s, radius, budget, u_modes=("zero",)):
    return list(search_trajectories(sys, t0s, radius, budget, u_modes))


def _worst_output(sys, t0s, radius, budget):
    """(sup ||Y||, achieving trajectory) over the search stream; a NaN output
    wins, so it fails the trial instead of being passed over."""
    best, best_traj = -math.inf, None
    for traj in search_trajectories(sys, t0s, radius, budget):
        peak = float(row_norms(traj.Y).max())  # max propagates NaN
        if _beats(peak, best):
            best, best_traj = peak, traj
    return best, best_traj


def test_output_stability(sys: SystemDef, eps: float, T: int,
                          budget: FalsifyBudget = None) -> StabilityReport:
    """Search for the largest delta with ||x0|| <= delta keeping ||Y|| <= eps.

    Geometric first pass from DELTA_CAP downward, then BISECT_ITERS
    bisection steps on the bracketing interval; the per-delta trial is an
    adversarial search over initial times t0 <= T, sphere-sampled x0 and the
    disturbance mix.
    Boundedness over all t >= t0 is only witnessed up to the search horizon.
    """
    if not eps > 0 or T < 0:  # a NaN eps fails the comparison
        raise ValueError("require eps > 0 and T >= 0")
    if sys.k != 0:
        raise ValueError("output stability is a property of unforced systems")
    budget = budget or FalsifyBudget(max_trajectories=48)
    require_samples(budget.max_trajectories, "trajectories in the budget")
    t0s = range(T + 1)
    trials = 0
    notes = [f"boundedness witnessed up to horizon {budget.horizon} only"]

    def trial(delta):
        nonlocal trials
        trials += 1
        peak, traj = _worst_output(sys, t0s, delta, budget)
        return peak <= eps, peak, traj

    lo = None
    hi = None
    last_fail_traj = last_fail_peak = None
    delta = DELTA_CAP
    for _ in range(19):
        ok, peak, traj = trial(delta)
        if ok:
            lo = delta
            break
        hi, last_fail_traj, last_fail_peak = delta, traj, peak
        delta /= 10.0
    if lo is None:
        return StabilityReport(
            "output-stability", {"eps": eps, "T": T}, delta=None,
            counterexample=last_fail_traj,
            worst={"delta": delta * 10.0, "peak": last_fail_peak},
            budget_used=trials * budget.max_trajectories, seed=budget.seed,
            notes=notes + ["no tested delta passes"])
    if hi is None:
        return StabilityReport("output-stability", {"eps": eps, "T": T},
                               delta=DELTA_CAP, bracket=(DELTA_CAP, None),
                               budget_used=trials * budget.max_trajectories,
                               seed=budget.seed,
                               notes=notes + ["delta_cap passes outright"])
    for _ in range(BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        ok, _, _ = trial(mid)
        if ok:
            lo = mid
        else:
            hi = mid
    return StabilityReport("output-stability", {"eps": eps, "T": T},
                           delta=lo, bracket=(lo, hi),
                           budget_used=trials * budget.max_trajectories,
                           seed=budget.seed, notes=notes)


def test_output_attractivity(sys: SystemDef, eps: float, T: int, R: float,
                             budget: FalsifyBudget = None) -> StabilityReport:
    """Smallest tau^ with ||Y(t)|| <= eps for t >= t0 + tau^ on all searched
    trajectories (an under-approximation of the true worst case).

    tau^ is the max over trajectories of the last exceedance time plus one;
    a trajectory still exceeding at the end of the horizon reports
    "not attained" with the worst trajectory attached.
    """
    if not eps > 0 or T < 0:  # a NaN eps fails the comparison
        raise ValueError("require eps > 0 and T >= 0")
    _require_finite("R", R)
    if sys.k != 0:
        raise ValueError("output attractivity is a property of unforced systems")
    budget = budget or FalsifyBudget(max_trajectories=64, horizon=120)
    require_samples(budget.max_trajectories, "trajectories in the budget")
    tau_hat, worst_traj, worst = -1, None, None
    for traj in search_trajectories(sys, range(T + 1), R, budget):
        norms = row_norms(traj.Y)
        exceed = np.nonzero(~(norms <= eps))[0]  # a NaN output exceeds
        last = int(exceed[-1]) if exceed.size else -1
        if last == len(traj) - 1:
            return StabilityReport(
                "output-attractivity", {"eps": eps, "T": T, "R": R},
                attained=False, counterexample=traj,
                worst={"t": int(traj.t[last]), "norm": float(norms[last])},
                budget_used=budget.max_trajectories, seed=budget.seed,
                notes=["output still above eps at the end of the horizon"])
        if last > tau_hat:
            tau_hat = last
            worst_traj = traj
            worst = {"t0": int(traj.t0), "x0": traj.x0.tolist(),
                     "last_exceed": int(traj.t[last]) if last >= 0 else None,
                     "meta": traj.meta}
    return StabilityReport(
        "output-attractivity", {"eps": eps, "T": T, "R": R},
        tau=tau_hat + 1, attained=True, worst=worst,
        budget_used=budget.max_trajectories, seed=budget.seed,
        notes=["search under-approximates the true worst case",
               f"worst trajectory: {worst_traj.meta if worst_traj else None}"])


# --- envelope domination checks ---

@dataclass
class EnvelopeReport(_FieldsJSON):
    form: str
    passed: bool
    worst_ratio: float
    worst_margin: float
    witness: dict
    rows: int
    tol: float
    notes: list = field(default_factory=list)


def _row_ratios(batch, bounds):
    """(||Y(t)||, ||Y(t)|| / bound(t)) at every row of the batch, in
    trajectory order, against the flat ``bounds``: 0 where the norm is 0,
    inf where the bound is not positive, NaN where the norm is."""
    norms = row_norms(np.concatenate([traj.Y for traj in batch]))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(norms == 0.0, 0.0,
                          np.where(bounds > 0.0, norms / bounds, math.inf))
    return norms, ratios


def _row_witness(traj, row, norm, bound):
    return {"t": int(traj.t[row]), "t0": int(traj.t0), "x0": traj.x0.tolist(),
            "norm": float(norm), "bound": float(bound), "meta": traj.meta}


def _row_check(form, bounds, batch, tol):
    """Worst ||Y(t)|| - bound(t) over all rows of the batch in one array
    pass (``bounds`` flat, in trajectory order); a NaN margin or ratio wins
    (witness at its first row) and fails."""
    norms, ratios = _row_ratios(batch, bounds)
    starts = np.cumsum([0] + [len(traj) for traj in batch])

    def witness(i):
        j = int(np.searchsorted(starts, i, side="right")) - 1
        return _row_witness(batch[j], i - starts[j], norms[i], bounds[i])

    worst = WorstMargin("trajectory rows")
    worst.add(norms - bounds, bounds, witness)
    passed = worst.verdict(tol) != FAIL
    ratio, _ = first_max(ratios)
    return EnvelopeReport(form, passed, ratio if _beats(ratio, 0.0) else 0.0,
                          worst.margin, worst.witness, worst.samples, tol)


def _batch_bounds(bounds_of, batch, *gains):
    """``bounds_of(batch, *gains)``, the flat bounds of all rows.  When that
    raises, each trajectory is bounded alone, in order, so the error is the
    first failing trajectory's, as checking one trajectory at a time gives."""
    try:
        return bounds_of(batch, *gains)
    except Exception:
        if len(batch) < 2:
            raise
        return np.concatenate([bounds_of([traj], *gains) for traj in batch])


def _ios_bounds(batch, sigma, beta, rho, gamma, form, zeta, delta):
    """The input-to-output bound at every row of the batch, concatenated.

    The fresh input terms of all rows are one array call per gain
    (``values``); the running-term recurrence is one loop over the step
    index on arrays as wide as the batch.  A NaN fresh term wins the running
    term and a NaN running term the row's bound, so a NaN input fails the
    check.
    """
    tau = np.concatenate([traj.t for traj in batch]).astype(float)
    nu = row_norms(np.concatenate([traj.u for traj in batch]))
    if form == "max":
        lead = beta.values(tau) * rho.values(gamma.values(tau) * nu)
        fresh = float(sigma.C) * lead  # sigma(lead, 0)
        g = sigma.g
    else:
        fresh = zeta.values(delta.values(tau) * nu)
        g = 1.0
    rows = _ragged([len(traj) for traj in batch])
    run = np.zeros(rows.shape)
    run[rows] = fresh
    with np.errstate(over="ignore", invalid="ignore"):  # as Python floats
        for i in range(1, run.shape[1]):
            held, f = run[:, i - 1] * g, run[:, i]
            run[:, i] = np.where((f > held) | (f != f), f, held)  # NaN f wins
    run = run[rows]
    decay = sigma.row_bounds(batch, beta)
    return np.where((run > decay) | np.isnan(run), run, decay)


def _require_gains(form, rho, gamma, zeta, delta):
    if form not in ("max", "sup"):
        raise ValueError(f"unknown form {form!r}")
    if form == "max" and (rho is None or gamma is None):
        raise ValueError("max form needs rho and gamma")
    if form == "sup" and (zeta is None or delta is None):
        raise ValueError("sup form needs zeta and delta")


def _with_rows(batch):
    """The trajectories of ``batch`` that have rows: one with none adds no
    rows (it has no x0 to bound by), and a batch without rows is refused."""
    batch = [traj for traj in batch if len(traj)]
    require_samples(len(batch), "trajectory rows")
    return batch


def check_kl_estimate(batch: Sequence[Trajectory], sigma: KLEnvelope,
                      beta: TimeGain = None, tol: float = 1e-9) -> EnvelopeReport:
    """Pointwise ||Y(t)|| <= sigma(beta(t0)||x0||, t - t0) over the batch."""
    batch = _with_rows(batch)
    bounds = _batch_bounds(sigma.row_bounds, batch, beta or sigma.beta)
    return _row_check("kl", bounds, batch, tol)


def check_ios_estimate(batch: Sequence[Trajectory], sigma: KLEnvelope,
                       beta: TimeGain = None, rho: KFn = None,
                       gamma: TimeGain = None, form: str = "max",
                       zeta: KFn = None, delta: TimeGain = None,
                       tol: float = 1e-9) -> EnvelopeReport:
    """Input-to-output bound over a batch with recorded inputs.

    form="max": max of the initial-state decay term and the running sup of
    input-driven decay terms sigma(beta(tau) rho(gamma(tau)||u(tau)||), t-tau).
    The running sup is maintained by the envelope's exact per-step decay, so
    with u == 0 the verdicts coincide row-for-row with check_kl_estimate.
    form="sup": the input term is sup zeta(delta(tau)||u(tau)||) instead.
    """
    beta = beta or sigma.beta
    _require_gains(form, rho, gamma, zeta, delta)
    batch = _with_rows(batch)
    bounds = _batch_bounds(_ios_bounds, batch, sigma, beta, rho, gamma, form,
                           zeta, delta)
    return _row_check(form, bounds, batch, tol)


def build_small_input_system(sys: SystemDef, p: TimeGain, theta: KFn) -> SystemDef:
    """Close the input channel with the bounded state-scaled disturbance
    u = p(t) theta(||x||) d', d' ranging over the unit box appended to D.

    u_i := (P * Theta[s := norm(x1, ..., xn)]) * d_{m+i} is substituted into
    the plant's ASTs, so the system is an expression system, and batchable;
    the outputs are the plant's (see :func:`output_maps`).
    """
    if sys.k < 1:
        raise ValueError("system has no input channel")
    m, k = sys.m, sys.k
    size = Call("norm", tuple(Var(f"x{i + 1}") for i in range(sys.n)))
    amp = Bin("*", p.expr, substitute(theta.expr, {"s": size}))
    f_small = bind_inputs(sys.f_exprs, [Bin("*", amp, Var(f"d{m + i + 1}"))
                                    for i in range(k)])
    box = np.vstack([sys.d_box, np.tile([-1.0, 1.0], (k, 1))])
    return SystemDef(n=sys.n, m=m + k, k=0, d_box=box, f=f_small,
                     **output_maps(sys), name=f"{sys.name}|small-input")


@dataclass
class FalsifyReport(_FieldsJSON):
    ratio: float
    witness: dict
    n_trajectories: int
    form: str
    seed: int
    notes: list = field(default_factory=list)

    @property
    def violated(self):
        return not self.ratio <= 1.0  # a NaN ratio is a violation

    def to_json(self):
        return {**super().to_json(), "violated": self.violated}


def falsify(sys: SystemDef, sigma: KLEnvelope, beta: TimeGain = None,
            rho: KFn = None, gamma: TimeGain = None,
            budget: FalsifyBudget = None, radius: float = 1.0) -> FalsifyReport:
    """Adversarial search maximizing ||Y(t)|| / bound(t) over trajectories
    that start at t0 = 0.

    With (rho, gamma) the input-to-output bound is attacked (inputs searched
    over zero / constant / random policies up to the budget's u_cap);
    otherwise the unforced decay estimate.  ratio <= 1 means no violation
    found within the budget.
    """
    budget = budget or FalsifyBudget()
    if budget.max_trajectories == 0:
        raise ValueError("falsification needs a positive trajectory budget")
    beta = beta or sigma.beta
    ios = rho is not None and sys.k > 0
    u_modes = ("zero", "constant", "random") if ios else ("zero",)
    if ios:
        _require_gains("max", rho, gamma, None, None)
        bounds_of, gains = _ios_bounds, (sigma, beta, rho, gamma, "max", None, None)
    else:
        bounds_of, gains = sigma.row_bounds, (beta,)
    best, wit, count = 0.0, None, 0
    trajs = iter(search_trajectories(sys, (0,), radius, budget, u_modes))
    while True:
        chunk, fault = [], None
        try:
            for traj in itertools.islice(trajs, ROLLOUT_BLOCK):
                chunk.append(traj)
        except Exception as exc:  # the rows rolled before it are checked first
            fault = exc
        count += len(chunk)
        if chunk:
            bounds = _batch_bounds(bounds_of, chunk, *gains)
            norms, ratios = _row_ratios(chunk, bounds)
            ratios = ratios.reshape(len(chunk), -1)  # one horizon: equal rows
            peak, win = first_max(ratios[np.arange(len(chunk)),
                                         np.argmax(ratios, axis=1)])
            if _beats(peak, best):  # the worst-margin row of the winner
                best = peak
                rows = slice(win * ratios.shape[1], (win + 1) * ratios.shape[1])
                _, row = first_max(norms[rows] - bounds[rows])
                wit = _row_witness(chunk[win], row, norms[rows][row],
                                   bounds[rows][row])
        if fault is not None:
            raise fault
        if len(chunk) < ROLLOUT_BLOCK:
            break
    return FalsifyReport(best, wit, count, "ios" if ios else "kl", budget.seed,
                         notes=["ratio <= 1: no violation found within budget"])

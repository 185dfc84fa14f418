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

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .comparison import KFn, KLEnvelope, TimeGain
from .expr import Bin, Call, Var, substitute
from .system import (FAIL, ConstantDisturbance, ConstantInput,
                     GreedyDisturbance, RandomDisturbance, SequenceInput,
                     SystemDef, Trajectory, WorstMargin, ZeroInput,
                     bind_inputs, d_candidates, first_max, output_maps,
                     require_samples, row_norms, simulate, vecnorm, _beats,
                     _box_corners, _FieldsJSON)

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


@dataclass
class FalsifyBudget:
    """Search effort: trajectory count, horizon and disturbance strategy mix."""

    max_trajectories: int = 200
    horizon: int = 60
    mix: tuple = ("corner", "greedy", "random", "random")
    seed: int = 42
    u_cap: float = 5.0

    def __post_init__(self):
        if self.max_trajectories < 0:
            raise ValueError("budget must be non-negative")


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
        if self.prop == "output-attractivity":
            return bool(self.attained)
        return self.counterexample is None

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


def _d_policy(strategy, sys, idx, seed_seq):
    if strategy == "corner":
        corners = _box_corners(sys.d_box)
        return ConstantDisturbance(corners[idx % corners.shape[0]])
    child = int(seed_seq.generate_state(1)[0])
    if strategy == "greedy":
        return GreedyDisturbance(grid=_GREEDY_GRID, seed=child)
    return RandomDisturbance(seed=child, mode="mixed")


def _u_policy(mode, sys, idx, seed_seq, u_cap):
    if sys.k == 0 or mode == "zero":
        return ZeroInput()
    if mode == "constant":
        level = u_cap * _RADIUS_LADDER[(idx // 2) % len(_RADIUS_LADDER)]
        sign = 1.0 if idx % 2 == 0 else -1.0
        vec = np.full(sys.k, sign * level / math.sqrt(sys.k))
        return ConstantInput(vec)
    rng = np.random.default_rng(int(seed_seq.generate_state(1)[0]) + 1)
    seq = rng.uniform(-u_cap, u_cap, size=(256, sys.k))
    return SequenceInput(seq)


def _trajectory_specs(sys, t0s, radius, budget, u_modes, indices):
    """(t0, x0, d policy, u policy, meta) of each search index, fresh policies."""
    axis = _axis_states(sys.n, radius)
    for i in indices:
        seq = np.random.SeedSequence(budget.seed, spawn_key=(i,))
        rng = np.random.default_rng(seq.generate_state(2))
        if radius == 0.0:
            x0 = np.zeros(sys.n)
        elif i < len(axis):
            x0 = axis[i]
        else:
            direction = rng.standard_normal(sys.n)
            nrm = np.linalg.norm(direction)
            direction = direction / nrm if nrm > 0 else np.eye(sys.n)[0]
            x0 = direction * (radius * _RADIUS_LADDER[i % len(_RADIUS_LADDER)])
        strategy = budget.mix[i % len(budget.mix)]
        dpol = _d_policy(strategy, sys, i, seq)
        upol = _u_policy(u_modes[i % len(u_modes)], sys, i, seq, budget.u_cap)
        yield (t0s[i % len(t0s)], x0, dpol, upol,
               {"index": i, "strategy": strategy})


def _roll(sys, specs, horizon):
    """Roll a block of ``_trajectory_specs`` in lock-step; trajectory j equals
    ``simulate(sys, t0, x0, dpol, upol, horizon, meta=meta)`` of spec j bit
    for bit.

    Only the policy kinds the search builds are rolled.  Zero, constant and
    sequence inputs and corner and random disturbances do not read the
    state, so their (B, N, .) tables are filled before the first step, each
    random row drawing from its own generator N times, as ``simulate`` calls
    it.  Each step then makes one ``H_rows``, one ``h_rows`` and one
    ``f_rows`` call over the block, and scores the candidate successors of
    every greedy row in one more ``f_rows`` and ``H_rows`` call.  Any other
    policy kind raises TypeError.
    """
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    t0s, X0, dpols, upols, metas = zip(*specs)
    B, N = len(specs), horizon + 1
    Ti = np.array([np.arange(t0, t0 + N) for t0 in t0s])
    Tf = Ti.astype(float)
    X = np.empty((B, N, sys.n))
    D = np.empty((B, N, sys.m))
    U = np.zeros((B, N, sys.k))
    Yv = np.empty((B, N, sys.p_Y))
    yv = np.empty((B, N, sys.p_y))
    box = sys.d_box
    lo, span, axes = box[:, 0], box[:, 1] - box[:, 0], np.arange(sys.m)
    greedy = []
    for j, (dpol, upol) in enumerate(zip(dpols, upols)):
        if type(upol) is ConstantInput:
            U[j] = upol.value
        elif type(upol) is SequenceInput:
            i = Ti[j] - upol.t0
            inside = (i >= 0) & (i < upol.values.shape[0])
            U[j, inside] = upol.values[i[inside]]  # zeros outside the table
        elif type(upol) is not ZeroInput:
            raise TypeError(f"no input table for {upol.descriptor()}")
        if type(dpol) is ConstantDisturbance:
            D[j] = dpol.value
        elif type(dpol) is RandomDisturbance:
            D[j] = [dpol._draw(box, lo, span, axes) for _ in range(N)]
        elif type(dpol) is GreedyDisturbance:
            greedy.append(j)
        else:
            raise TypeError(f"no disturbance table for {dpol.descriptor()}")
    if greedy:
        cands = d_candidates(box, grid=_GREEDY_GRID, random=0)
        C = cands.shape[0]
        D_cands = np.tile(cands, (len(greedy), 1))
    x = np.array(X0, dtype=float).reshape(B, sys.n)
    for s in range(N):
        tf = Tf[:, s]
        X[:, s] = x
        Yv[:, s] = sys.H_rows(tf, x)
        yv[:, s] = Yv[:, s] if sys.h is None else sys.h_rows(tf, x)
        if greedy:
            # GreedyDisturbance.__call__'s pick: the first strict maximum of
            # ||H(t+1, f)||, never a NaN, cands[0] when every score is NaN
            t = np.repeat(tf[greedy], C)
            F = sys.f_rows(t, np.repeat(x[greedy], C, axis=0), D_cands,
                           np.repeat(U[greedy, s], C, axis=0))
            score = row_norms(sys.H_rows(t + 1.0, F)).reshape(-1, C)
            score[np.isnan(score)] = -np.inf
            D[greedy, s] = cands[np.argmax(score, axis=1)]
        if s + 1 < N:
            x = sys.f_rows(tf, x, D[:, s], U[:, s])
    return [Trajectory(t0=t0s[j], t=Ti[j], x=X[j], d=D[j], u=U[j], Y=Yv[j],
                       y=yv[j], meta={"d_policy": dpols[j].descriptor(),
                                      "u_policy": upols[j].descriptor(),
                                      **metas[j]})
            for j in range(B)]


def search_trajectories(sys: SystemDef, t0s: Sequence[int], radius: float,
                        budget: FalsifyBudget, u_modes=("zero",)):
    """Deterministic trajectory stream for adversarial searches.

    The first trajectories take signed axis initial states at full radius (the
    common worst cases); later ones draw random directions with radii on a
    fixed ladder of fractions of ``radius``.  Yields one Trajectory per index.

    Trajectories are rolled in lock-step blocks of at most ROLLOUT_BLOCK,
    each equal bit for bit to its own :func:`simulate`.  When a block
    raises, it is rolled again one trajectory at a time from fresh policies,
    so the error surfaces after the same yields as a trajectory-by-trajectory
    search gives.
    """
    t0s = list(t0s)
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
                          budget: FalsifyBudget = None,
                          delta_cap: float = 1e6) -> StabilityReport:
    """Search for the largest delta with ||x0|| <= delta keeping ||Y|| <= eps.

    Geometric first pass from delta_cap downward, then BISECT_ITERS
    bisection steps on the bracketing interval; the per-delta trial is an
    adversarial search over initial times t0 <= T, sphere-sampled x0 and the
    disturbance mix.
    Boundedness over all t >= t0 is only witnessed up to the search horizon.
    """
    if eps <= 0 or T < 0:
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
    delta = delta_cap
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
                               delta=delta_cap, bracket=(delta_cap, None),
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
    if eps <= 0 or T < 0 or R < 0:
        raise ValueError("require eps > 0, T >= 0, R >= 0")
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


def _row_check(form, bounds_per_traj, batch, tol):
    """Worst ||Y(t)|| - bound(t) over the batch, one array pass a trajectory;
    a NaN margin or ratio wins (witness at its first row) and fails."""
    worst, worst_ratio = WorstMargin("trajectory rows"), 0.0
    for traj, bounds in zip(batch, bounds_per_traj):
        norms = row_norms(traj.Y)
        bounds = np.asarray(bounds, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(norms == 0.0, 0.0,
                              np.where(bounds > 0.0, norms / bounds, math.inf))
        ratio, _ = first_max(ratios)
        if _beats(ratio, worst_ratio):
            worst_ratio = ratio
        worst.add(norms - bounds, bounds, lambda i: {
            "t": int(traj.t[i]), "t0": int(traj.t0), "x0": traj.x0.tolist(),
            "norm": float(norms[i]), "bound": float(bounds[i]), "meta": traj.meta})
    passed = worst.verdict(tol) != FAIL
    return EnvelopeReport(form, passed, worst_ratio, worst.margin, worst.witness,
                          worst.samples, tol)


def check_kl_estimate(batch: Sequence[Trajectory], sigma: KLEnvelope,
                      beta: TimeGain = None, tol: float = 1e-9) -> EnvelopeReport:
    """Pointwise ||Y(t)|| <= sigma(beta(t0)||x0||, t - t0) over the batch."""
    beta = beta or sigma.beta
    bounds = [sigma.decay_series(beta(traj.t0) * vecnorm(traj.x0), len(traj))
              for traj in batch]
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
    if form not in ("max", "sup"):
        raise ValueError(f"unknown form {form!r}")
    if form == "max" and (rho is None or gamma is None):
        raise ValueError("max form needs rho and gamma")
    if form == "sup" and (zeta is None or delta is None):
        raise ValueError("sup form needs zeta and delta")
    bounds_per_traj = []
    for traj in batch:
        n_rows = len(traj)
        decay = sigma.decay_series(beta(traj.t0) * vecnorm(traj.x0), n_rows)
        bounds = np.empty(n_rows)
        run = -math.inf
        for i in range(n_rows):
            tau = float(traj.t[i])
            nu = vecnorm(traj.u[i]) if traj.u.shape[1] else 0.0
            if form == "max":
                fresh = sigma(beta(tau) * rho(gamma(tau) * nu), 0)
                run = fresh if i == 0 else max(run * sigma.g, fresh)
            else:
                fresh = zeta(delta(tau) * nu)
                run = fresh if i == 0 else max(run, fresh)
            bounds[i] = max(decay[i], run)
        bounds_per_traj.append(bounds)
    return _row_check(form, bounds_per_traj, batch, tol)


def build_small_input_system(sys: SystemDef, p: TimeGain, theta: KFn) -> SystemDef:
    """Close the input channel with the bounded state-scaled disturbance
    u = p(t) theta(||x||) d', d' ranging over the unit box appended to D.

    When the plant's f, ``p`` and ``theta`` are expressions, u_i := (P *
    Theta[s := norm(x1, ..., xn)]) * d_{m+i} is substituted into the plant's
    ASTs, so the system stays an expression system: the same operations in
    the same order as the closure, so the same values bit for bit, and
    batchable.  Otherwise f is a closure over ``p``, ``theta`` and the plant,
    and H and h are the plant's native maps.
    """
    if sys.k < 1:
        raise ValueError("system has no input channel")
    m, k = sys.m, sys.k
    box = np.vstack([sys.d_box, np.tile([-1.0, 1.0], (k, 1))])
    name = f"{sys.name}|small-input"
    if sys.f_exprs is not None and p.expr is not None and theta.expr is not None:
        size = Call("norm", tuple(Var(f"x{i + 1}") for i in range(sys.n)))
        amp = Bin("*", p.expr, substitute(theta.expr, {"s": size}))
        f_small = bind_inputs(sys.f_exprs, [Bin("*", amp, Var(f"d{m + i + 1}"))
                                            for i in range(k)])
        return SystemDef(n=sys.n, m=m + k, k=0, d_box=box, f=f_small,
                         **output_maps(sys), name=name)

    def f_small(t, dd, x, u):
        d, dprime = dd[:m], dd[m:]
        amp = p(t) * theta(vecnorm(x))
        return sys.f_eval(t, d, x, amp * dprime)

    return SystemDef(n=sys.n, m=m + k, k=0, d_box=box, f=f_small,
                     H=sys._H, h=sys._h, p_Y=sys.p_Y, p_y=sys.p_y, name=name)


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
    best, wit, count = 0.0, None, 0
    for traj in search_trajectories(sys, (0,), radius, budget, u_modes):
        count += 1
        if ios:
            rep = check_ios_estimate([traj], sigma, beta, rho, gamma, tol=0.0)
        else:
            rep = check_kl_estimate([traj], sigma, beta, tol=0.0)
        if _beats(rep.worst_ratio, best):
            best = rep.worst_ratio
            wit = rep.witness
    return FalsifyReport(best, wit, count, "ios" if ios else "kl", budget.seed,
                         notes=["ratio <= 1: no violation found within budget"])

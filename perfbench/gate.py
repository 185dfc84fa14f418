"""Correctness gate: expectations recomputed by the benchmark itself.

Every check returns a list of problems; an empty list means the job's output
is correct.  Two kinds of expectation are recomputed here, never taken from
the dtstab function under test:

* reference extrema: every sup, inf, rho, tau and worst ratio is recomputed
  with plain loops over the same deterministic sample sets (``d_candidates``
  and ``sphere_points`` evaluated point by point through ``f_eval``, and every
  seeded trajectory rolled forward through ``step``).  A reported extremum
  must equal its reference exactly.  References are computed once per
  process, after the timed region (``reference``).
* witness replays: expression values go through ``eval_expression`` (the
  tree walker), state updates through ``step``.

Search trajectories are rebuilt from the documented seed stream with the
public policy classes (``search_stream``).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from dtstab import expr as dexpr
from dtstab import system
from dtstab.system import (ConstantDisturbance, ConstantInput,
                           GreedyDisturbance, RandomDisturbance,
                           SequenceInput, ZeroInput)

MP_DPS = 50  # mpmath digits for the attainment-time formula
RADIUS_LADDER = (1.0, 0.75, 0.5, 0.25)  # x0 radius and input level fractions

_REFERENCES = {}


def reference(key, compute):
    """``compute()`` once per process and key; every pass shares the result."""
    if key not in _REFERENCES:
        _REFERENCES[key] = compute()
    return _REFERENCES[key]


def nan_problems(**values):
    return [f"{key} is NaN" for key, val in values.items()
            if val is not None and isinstance(val, float) and math.isnan(val)]


def expect(problems, ok, message):
    if not ok:
        problems.append(message)


def verdict_rule(margin, rhs, tol):
    """The documented margin convention: LHS - RHS <= tol * (1 + |RHS|)."""
    if margin <= 0.0:
        return "pass"
    if margin <= tol * (1.0 + abs(rhs)):
        return "pass (tolerance)"
    return "fail"


class TreeExpr:
    """An expression string evaluated by the tree walker."""

    def __init__(self, text, dims):
        self.node = dexpr.parse_expression(text, dims)

    def __call__(self, t=0.0, x=(), aux=None):
        env = dexpr.Env(t=t, x=x, aux=aux or {})
        return float(dexpr.eval_expression(self.node, env))


def tau_formula(eps, T, R):
    """Attainment time of example_2_3's relaxed-decrease bundle in mpmath.

    lam = (2+e)/(2e), a3(s) = (1-lam) s, q(t) = (2e/(e-2)) (e/4)^t,
    a1 = a2 = identity, beta = 2.  tau~ is the least t with
    2 q(t)/(1-lam) + q(t) <= eps (q decreasing, so its tail sup is q(t));
    tau = T + tau~ + floor((2R + q(0)/(1-lam) + q(0)) / q(T + tau~)) + 1.
    """
    import mpmath as mp
    mp.mp.dps = MP_DPS
    e = mp.e
    alpha = 1 - (2 + e) / (2 * e)
    q = lambda t: 2 * e / (e - 2) * (e / 4) ** t  # noqa: E731
    eps, R = mp.mpf(eps), mp.mpf(R)
    tt = 0
    while 2 * q(tt) / alpha + q(tt) > eps:
        tt += 1
    num = 2 * R + q(0) / alpha + q(0)
    return int(T + tt + mp.floor(num / q(T + tt)) + 1)


# --- search trajectories ---

def box_corners(box):
    """Corners of a disturbance box, first coordinate varying slowest."""
    return np.array(list(itertools.product(*np.asarray(box, dtype=float))))


def search_stream(sys_, t0s, radius, budget, u_modes):
    """(index, t0, x0, d policy, u policy) of every trajectory of a search.

    The documented stream: trajectory i seeds from
    ``SeedSequence(budget.seed, spawn_key=(i,))``.  The first 2n start on the
    signed axes at full radius, later ones in a direction drawn from the
    sequence's two-word state at radius * RADIUS_LADDER[i % 4].  The
    disturbance follows budget.mix[i % len(mix)]: a constant box corner
    (corners[i % count]), a greedy adversary, or a mixed random sampler,
    the last two seeded with the sequence's first word.  The input follows
    u_modes[i % len(u_modes)]: zero, a constant of signed level
    u_cap * RADIUS_LADDER[(i // 2) % 4] spread over the k inputs, or a
    sequence of 256 uniform draws in [-u_cap, u_cap] from that word + 1.
    """
    t0s = list(t0s)
    n, k = sys_.n, sys_.k
    eye = np.eye(n)
    axes = [radius * eye[j] * sgn for j in range(n) for sgn in (1.0, -1.0)]
    corners = box_corners(sys_.d_box)
    for i in range(budget.max_trajectories):
        seq = np.random.SeedSequence(budget.seed, spawn_key=(i,))
        child = int(seq.generate_state(1)[0])
        if radius == 0.0:
            x0 = np.zeros(n)
        elif i < len(axes):
            x0 = axes[i]
        else:
            g = np.random.default_rng(seq.generate_state(2)).standard_normal(n)
            nrm = np.linalg.norm(g)
            direction = g / nrm if nrm > 0 else eye[0]
            x0 = direction * (radius * RADIUS_LADDER[i % len(RADIUS_LADDER)])
        strategy = budget.mix[i % len(budget.mix)]
        if strategy == "corner":
            dpol = ConstantDisturbance(corners[i % len(corners)])
        elif strategy == "greedy":
            dpol = GreedyDisturbance(grid=5, seed=child)
        else:
            dpol = RandomDisturbance(seed=child, mode="mixed")
        mode = u_modes[i % len(u_modes)]
        if k == 0 or mode == "zero":
            upol = ZeroInput()
        elif mode == "constant":
            level = budget.u_cap * RADIUS_LADDER[(i // 2) % len(RADIUS_LADDER)]
            sign = 1.0 if i % 2 == 0 else -1.0
            upol = ConstantInput(np.full(k, sign * level / math.sqrt(k)))
        else:
            draws = np.random.default_rng(child + 1)
            upol = SequenceInput(draws.uniform(-budget.u_cap, budget.u_cap,
                                               size=(256, k)))
        yield i, t0s[i % len(t0s)], x0, dpol, upol


def replay(sys_, t0, x0, dpol, upol, horizon):
    """Roll the trajectory forward with ``step``; returns (t, x, u, |Y|) rows."""
    x = np.asarray(x0, dtype=float).reshape(-1)
    rows = []
    for i in range(horizon + 1):
        t = t0 + i
        u = np.asarray(upol(sys_, t, x), dtype=float).reshape(-1)
        d = np.asarray(dpol(sys_, t, x, u), dtype=float).reshape(-1)
        rows.append((t, x, u, system.vecnorm(sys_.H_eval(t, x))))
        if i < horizon:
            x = system.step(sys_, t, x, d, u if sys_.k else None)
    return rows


def rollouts(sys_, t0s, radius, budget, u_modes):
    """Every trajectory of a search: {index: (t0, x0, descriptors, rows)}."""
    out = {}
    for i, t0, x0, dpol, upol in search_stream(sys_, t0s, radius, budget, u_modes):
        rows = replay(sys_, t0, x0, dpol, upol, budget.horizon)
        out[i] = (t0, x0, (dpol.descriptor(), upol.descriptor()), rows)
    return out


def kl_bounds(sigma, beta, t0, x0, n):
    """sigma(beta(t0) ||x0||, i) for i < n by the exact per-step recursion."""
    v = sigma.C * float(beta(t0) * system.vecnorm(x0))
    out = [v]
    for _ in range(n - 1):
        v = v * sigma.g
        out.append(v)
    return out


def ios_bounds(sigma, beta, rho, gamma, rows, x0):
    """Max-form input-to-output bound along replayed rows."""
    decay = kl_bounds(sigma, beta, rows[0][0], x0, len(rows))
    out, run = [], None
    for i, (t, _, u, _) in enumerate(rows):
        nu = system.vecnorm(u) if u.shape[0] else 0.0
        fresh = sigma(beta(float(t)) * rho(gamma(float(t)) * nu), 0)
        run = fresh if i == 0 else max(run * sigma.g, fresh)
        out.append(max(decay[i], run))
    return out


def row_ratio(norm, bound):
    if norm == 0.0:
        return 0.0
    return norm / bound if bound > 0.0 else math.inf


def envelope_reference(trajs, bounds_fn):
    """Per trajectory: (t0, x0, descriptors, [(t, norm, bound)]) with the
    envelope bound of every row; plus the worst ratio and margin overall."""
    out, worst_ratio, worst_margin = {}, 0.0, -math.inf
    for i, (t0, x0, desc, rows) in trajs.items():
        bounds = bounds_fn(rows, x0)
        out[i] = (t0, x0, desc, [(row[0], row[3], b) for row, b in zip(rows, bounds)])
        for _, norm, b in out[i][3]:
            worst_ratio = max(worst_ratio, row_ratio(norm, b))
            worst_margin = max(worst_margin, norm - b)
    return {"trajs": out, "ratio": worst_ratio, "margin": worst_margin}


def check_envelope_witness(problems, ref, wit):
    """The witness row is a row of the reference trajectory it names."""
    i = wit["meta"]["index"]
    if i not in ref["trajs"]:
        problems.append(f"witness trajectory {i} is not in the search")
        return None
    t0, x0, desc, rows = ref["trajs"][i]
    expect(problems, (wit["meta"]["d_policy"], wit["meta"]["u_policy"]) == desc
           and wit["t0"] == t0 and wit["x0"] == x0.tolist(),
           f"witness trajectory {wit['meta']} starts at {wit['t0']}, {wit['x0']};"
           f" the seed stream gives {desc} from {t0}, {x0.tolist()}")
    j = wit["t"] - t0
    row = rows[j] if 0 <= j < len(rows) else None
    expect(problems, row is not None and (row[1], row[2]) == (wit["norm"], wit["bound"]),
           f"witness row t={wit['t']} replays to {row}; reported "
           f"{wit['norm']!r}, {wit['bound']!r}")
    return rows


def attractivity_reference(sys_, eps, T, R, budget):
    """Last exceedance row of every searched trajectory and tau^ = max + 1."""
    trajs = rollouts(sys_, range(T + 1), R, budget, ("zero",))
    last = {}
    for i, (_, _, _, rows) in trajs.items():
        above = [j for j, row in enumerate(rows) if row[3] > eps]
        last[i] = above[-1] if above else -1
    return {"trajs": trajs, "last": last, "tau": max(last.values()) + 1}


def check_attractivity(rep, tau_res, ref, eps, T, R, budget):
    problems = []
    want = tau_formula(eps, T, R)
    expect(problems, tau_res.tau == want,
           f"tau_bound {tau_res.tau} != recomputed formula value {want}")
    expect(problems, rep.attained is True, "search did not attain eps")
    expect(problems, rep.budget_used == budget.max_trajectories,
           f"budget_used {rep.budget_used} != {budget.max_trajectories}")
    if problems:
        return problems
    expect(problems, rep.tau == ref["tau"] <= want,
           f"observed tau {rep.tau}; the full search gives {ref['tau']}, "
           f"the formula {want}")
    w = rep.worst
    i = w["meta"]["index"]
    if i not in ref["trajs"]:
        return problems + [f"worst trajectory {i} is not in the search"]
    t0, x0, desc, rows = ref["trajs"][i]
    expect(problems, (w["meta"]["d_policy"], w["t0"], w["x0"])
           == (desc[0], t0, x0.tolist())
           and 0 <= t0 <= T and system.vecnorm(x0) <= R * (1 + 1e-12),
           f"worst trajectory {w['meta']} from {w['t0']}, {w['x0']}; the seed "
           f"stream gives {desc[0]} from {t0}, {x0.tolist()}")
    last = ref["last"][i]
    expect(problems, last + 1 == rep.tau
           and w["last_exceed"] == (t0 + last if last >= 0 else None),
           f"worst trajectory replays to last exceedance row {last}, "
           f"reported {w['last_exceed']} and tau {rep.tau}")
    return problems


def falsify_reference(sys_, sigma, beta, rho, gamma, budget, radius):
    ios = rho is not None
    u_modes = ("zero", "constant", "random") if ios else ("zero",)
    trajs = rollouts(sys_, (0,), radius, budget, u_modes)
    if ios:
        bounds_fn = lambda rows, x0: ios_bounds(sigma, beta, rho, gamma, rows, x0)  # noqa: E731
    else:
        bounds_fn = lambda rows, x0: kl_bounds(sigma, beta, rows[0][0], x0, len(rows))  # noqa: E731
    return envelope_reference(trajs, bounds_fn)


def check_falsify(rep, ref, budget, ios):
    """A falsify report: its worst ratio is the full search's, and its
    witness is the largest-margin row of a trajectory reaching that ratio."""
    problems = nan_problems(ratio=rep.ratio)
    expect(problems, rep.n_trajectories == budget.max_trajectories,
           f"n_trajectories {rep.n_trajectories} != {budget.max_trajectories}")
    expect(problems, rep.form == ("ios" if ios else "kl"), f"form {rep.form}")
    expect(problems, rep.ratio == ref["ratio"] <= 1.0,
           f"worst ratio {rep.ratio!r}; the full search gives {ref['ratio']!r}")
    if problems or rep.witness is None:
        return problems or ["no witness reported"]
    rows = check_envelope_witness(problems, ref, rep.witness)
    if rows:
        expect(problems, max(row_ratio(n, b) for _, n, b in rows) == rep.ratio
               and max(n - b for _, n, b in rows)
               == rep.witness["norm"] - rep.witness["bound"],
               "witness is not the largest-margin row of a worst-ratio trajectory")
    return problems


# --- sampled suprema over independent points ---

def decrease_reference(sys_, V, rhs_fn, ts, xs, dvals):
    """max over (t, x) of sup_d V(t+1, f(t,d,x)) - rhs(t, V(t,x))."""
    worst = -math.inf
    for t in ts:
        for x in xs:
            sup_v = max(V(t + 1, sys_.f_eval(t, d, x)) for d in dvals)
            worst = max(worst, sup_v - rhs_fn(t, V(t, x)))
    return worst


def check_decrease(rep, sys_, V, rhs_fn, samples, tol, expected, ref_margin):
    """Certificate decrease report: sample count, extremum, verdict and
    witness replay."""
    problems = nan_problems(margin=rep.worst_margin)
    expect(problems, rep.samples == samples,
           f"samples {rep.samples} != {samples}")
    expect(problems, rep.worst_margin == ref_margin,
           f"worst margin {rep.worst_margin!r}; the full grid gives {ref_margin!r}")
    w = rep.witness
    t, x, d = w["t"], np.array(w["x"]), np.array(w["d"])
    u = None if w["u"] is None else np.array(w["u"])
    lhs = V(t + 1, sys_.f_eval(t, d, x, u))
    rhs = rhs_fn(t, V(t, x))
    expect(problems, lhs == w["lhs"] and rhs == w["rhs"]
           and lhs - rhs == rep.worst_margin,
           f"witness replays to lhs {lhs!r}, rhs {rhs!r}; reported "
           f"{w['lhs']!r}, {w['rhs']!r}, margin {rep.worst_margin!r}")
    verdict = verdict_rule(rep.worst_margin, w["rhs"], tol)
    expect(problems, rep.verdict == verdict, f"verdict {rep.verdict} != {verdict}")
    expect(problems, (verdict != "fail") == expected,
           f"verdict {verdict}, expected {'pass' if expected else 'fail'}")
    return problems


def fiber_points(y, free_values, n):
    """States with x1 = y and every other coordinate over ``free_values``."""
    return [np.array([y, *rest]) for rest in itertools.product(free_values, repeat=n - 1)]


def rofs_reference(sys_, V, lam, us, ts, ys, free_values, dvals):
    """{(t, y): inf_u sup_(x, d) V(t+1, f(t,d,x,u)) - lam V(t,x)}."""
    out = {}
    for t in ts:
        for y in ys:
            xs = fiber_points(y, free_values, sys_.n)
            V0 = [lam * V(t, x) for x in xs]
            out[(t, y)] = min(
                max(V(t + 1, sys_.f_eval(t, d, x, u)) - v0
                    for x, v0 in zip(xs, V0) for d in dvals)
                for u in us)
    return out


def check_rofs_entries(entries, sys_, V, n_u, lam, ref):
    """Each inf-sup entry equals its reference and replays:
    V(t+1, f(t,d,x,u*)) - lam V(t,x)."""
    problems = []
    expect(problems, len(entries) == len(ref), f"{len(entries)} entries")
    for e in entries:
        e = e if isinstance(e, dict) else vars(e)
        val = e["inf_sup"]
        problems += nan_problems(inf_sup=val)
        expect(problems, e["n_candidates"] == n_u,
               f"entry t={e['t']} y={e['y']}: {e['n_candidates']} candidates")
        want = ref.get((e["t"], e["y"][0]))
        expect(problems, val == want,
               f"entry t={e['t']} y={e['y']} is {val!r}; the full sample gives {want!r}")
        if e["u_best"] is None:
            problems.append(f"entry t={e['t']} y={e['y']} has no best input")
            continue
        x, d = np.array(e["witness"]["x"]), np.array(e["witness"]["d"])
        nxt = sys_.f_eval(e["t"], d, x, np.array(e["u_best"]))
        got = V(e["t"] + 1, nxt) - lam * V(e["t"], x)
        expect(problems, got == val,
               f"entry t={e['t']} y={e['y']} replays to {got!r}, reported {val!r}")
    return problems


def sup_norm_f(sys_, ts, dvals, xs, us):
    """max ||f(t, d, x, u)|| over the product of the sample sets."""
    best = 0.0
    for t in ts:
        for d in dvals:
            for x in xs:
                for u in us:
                    best = max(best, system.vecnorm(sys_.f_eval(t, d, x, u)))
    return best


def reach_reference(sys_, r, T, cfg):
    """rho(0..T) of the sampled reachability recursion: the documented
    draw order from ``default_rng(cfg.seed)`` is the d candidates, then the
    u sphere (r, scales 1 and 0.5), then one x sphere per step."""
    rng = np.random.default_rng(cfg.seed)
    ts = range(2 * T + 1)  # fewer than cfg.t_cap times at the sizes used
    dvals = system.d_candidates(sys_.d_box, grid=cfg.d_grid,
                                random=cfg.d_random, rng=rng)
    us = np.vstack([np.zeros((1, sys_.k)),
                    system.sphere_points(sys_.k, r, cfg.u_directions,
                                         scales=(1.0, 0.5), rng=rng)])
    rho = [r]
    for _ in range(T):
        xs = system.sphere_points(sys_.n, rho[-1], cfg.x_directions,
                                  scales=cfg.x_scales, rng=rng)
        rho.append(sup_norm_f(sys_, ts, dvals, xs, us))
    return rho

"""The benchmark's three closed-loop workloads.

Each workload is built from the workload seed alone (``build``): the seed
draws the inputs, and dtstab receives only those inputs.  A workload is a
fixed job list; one pass runs every job once, back to back.  Every job
returns its output, and ``check`` recomputes what that output must be
after the timed region.

search   adversarial trajectory searches: every row is a dependent step.
certify  sampled-sup certificate checks: every point is independent.
cli      the ``dtstab`` command at user granularity, in-process.
"""

from __future__ import annotations

import functools
import hashlib
import io
import itertools
import json
import math
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from dtstab import certify, cli, comparison, expr, registry, stability, system

import gate


@dataclass
class Job:
    name: str
    run: Callable       # run(pass_index) -> output
    check: Callable     # check(output) -> list of problems


@dataclass
class Workload:
    name: str
    jobs: list
    work: int                 # work units per pass
    work_unit: str            # "rows", "points" or "commands"
    probe: Callable           # probe() -> layer-probe inputs
    cross_check: Callable = None  # cross_check(outputs_by_pass) -> problems per (pass, job)


def _probe_points(rng, sys_, radius, count=200, t_max=30):
    """Seeded (t, x, d, u) points inside a system's state radius and box."""
    pts = []
    for _ in range(count):
        t = float(rng.integers(0, t_max + 1))
        x = rng.uniform(-radius, radius, size=sys_.n)
        d = rng.uniform(sys_.d_box[:, 0], sys_.d_box[:, 1]) if sys_.m else np.zeros(0)
        u = rng.uniform(-radius, radius, size=sys_.k)
        pts.append((t, x, d, u))
    return pts


def _probe(seed, systems, cands, radius):
    """Layer-probe inputs: the workload's systems, its expressions with
    their dimensions, and seeded points to evaluate them at."""
    rng = np.random.default_rng([seed, 1])
    probe = {"systems": [], "exprs": [], "texts": []}
    for sys_ in systems:
        pts = _probe_points(rng, sys_, radius)
        kind = "expr" if sys_.f_exprs is not None else "composite"
        probe["systems"].append((sys_, kind, pts))
        if kind == "expr":
            dims = expr.Dims(n=sys_.n, m=sys_.m, k=sys_.k)
            for node in sys_.f_exprs:
                probe["exprs"].append((node, pts))
                probe["texts"].append((node.to_string(), dims))
            for node in sys_.H_exprs or ():
                probe["exprs"].append((node, pts))
                probe["texts"].append((node.to_string(), expr.Dims(n=sys_.n)))
    for cand, n, sys_ in cands:
        pts = _probe_points(rng, sys_, radius)
        dims = expr.Dims(n=n)
        probe["exprs"].append((expr.parse_expression(cand.V, dims), pts))
        probe["texts"].append((cand.V, dims))
    return probe


# --- search ---

SEARCH_CELLS = list(itertools.product((1.0, 0.1, 0.01), (0, 5), (1.0, 10.0)))


def build_search(seed, tiny=False):
    rng = np.random.default_rng(seed)
    b23 = registry.load_example("example_2_3")
    b34 = registry.load_example("example_3_4")
    n_traj, horizon = (4, 20) if tiny else (60, 200)
    f_traj, f_horizon = (4, 10) if tiny else (200, 60)
    cells = [SEARCH_CELLS[i] for i in rng.choice(len(SEARCH_CELLS), 3, replace=False)]
    budget = stability.FalsifyBudget(max_trajectories=n_traj, horizon=horizon,
                                     seed=int(rng.integers(2 ** 31)))
    f_budget = stability.FalsifyBudget(max_trajectories=f_traj, horizon=f_horizon,
                                       seed=int(rng.integers(2 ** 31)))
    f_radius = float(rng.uniform(1.0, 10.0))
    sigma = b34.sigma

    jobs = []
    for eps, T, R in cells:
        def run(_, eps=eps, T=T, R=R):
            rep = stability.test_output_attractivity(b23.sys, eps, T, R,
                                                     budget=budget)
            return rep, certify.tau_bound(b23.cand, eps, T, R)

        def check(out, eps=eps, T=T, R=R):
            ref = gate.reference(
                ("search", seed, tiny, eps, T, R),
                lambda: gate.attractivity_reference(b23.sys, eps, T, R, budget))
            return gate.check_attractivity(out[0], out[1], ref, eps, T, R,
                                           budget)

        jobs.append(Job(f"attractivity[eps={eps},T={T},R={R}]", run, check))

    def run_falsify(_):
        return stability.falsify(b34.sys, sigma, sigma.beta, b34.rho, b34.gamma,
                                 budget=f_budget, radius=f_radius)

    def check_falsify(rep):
        ref = gate.reference(("search", seed, tiny, "falsify"), lambda: gate.falsify_reference(
            b34.sys, sigma, sigma.beta, b34.rho, b34.gamma, f_budget, f_radius))
        return gate.check_falsify(rep, ref, f_budget, True)

    jobs.append(Job("falsify[example_3_4,ios]", run_falsify, check_falsify))
    rows = len(cells) * n_traj * (horizon + 1) + f_traj * (f_horizon + 1)
    return Workload("search", jobs, rows, "rows", lambda: _probe(
        seed, [b23.sys, b34.sys], [(b23.cand, 2, b23.sys)], 10.0))


# --- certify ---

FIBER_VALUES = [-1.0, 0.0, 1.0]  # free coordinates of the x1 = y fiber

def _reach_points(sys_, r, T, cfg):
    """Evaluation points of reachable_bound's (t, d, x, u) nest."""
    ts = min(2 * T + 1, cfg.t_cap)
    ds = len(system.d_candidates(sys_.d_box, grid=cfg.d_grid)) + cfg.d_random
    xs = len(system.sphere_points(sys_.n, 1.0, cfg.x_directions, cfg.x_scales))
    us = 1 + len(system.sphere_points(sys_.k, r, cfg.u_directions, (1.0, 0.5))) \
        if sys_.k else 1
    return T * ts * ds * xs * us


def build_certify(seed, tiny=False):
    rng = np.random.default_rng(seed)
    b23 = registry.load_example("example_2_3")
    b34 = registry.load_example("example_3_4")
    jobs, points = [], 0

    # criteria 1/2: relaxed decrease and sandwich on the stated grid's shape
    lam = (2.0 + math.e) / (2.0 * math.e)
    x1_star = (2.0 * math.e / (math.e - 2.0)) / (1.0 - lam)  # tightness point
    mags = 10.0 ** rng.uniform(-6.0, 6.0, 4 if tiny else 40)
    x1 = np.concatenate([mags, -mags, [0.0, x1_star]])
    x2 = np.array([0.0, 1.0, -1.0, 100.0, -100.0])
    grid = certify.StateGrid.from_axes(range(3 if tiny else 31), x1, x2)
    d23 = np.array([[-2.0], [-1.0], [0.0], [1.0], [2.0]])
    cand = b23.cand
    V23 = gate.TreeExpr(cand.V, expr.Dims(n=2))
    relaxed_rhs = lambda t, V0: V0 - cand.a3(V0) + cand.q(t)  # noqa: E731

    def check_relaxed(rep):
        ref = gate.reference(("certify", seed, tiny, "relaxed"), lambda: gate.decrease_reference(
            b23.sys, V23, relaxed_rhs, grid.ts, grid.xs, d23))
        return gate.check_decrease(rep, b23.sys, V23, relaxed_rhs, len(grid),
                                   1e-9, True, ref)

    jobs.append(Job(
        "relaxed-decrease[example_2_3]",
        lambda _: certify.check_relaxed_decrease(b23.sys, cand, grid,
                                                 d_values=d23),
        check_relaxed))
    points += len(grid) * len(d23)

    def sandwich_sides(t, x):
        """(|H| <= V, V <= 2|x|): lhs and rhs of both sides at one point."""
        V = V23(t, x)
        return ((float(system.vecnorm(b23.sys.H_eval(t, x))), V),
                (V, 2.0 * system.vecnorm(x)))

    def sandwich_reference():
        return max(lhs - rhs for t in grid.ts for x in grid.xs
                   for lhs, rhs in sandwich_sides(t, x))

    def check_sandwich(rep):
        problems = gate.nan_problems(margin=rep.worst_margin)
        ref = gate.reference(("certify", seed, tiny, "sandwich"), sandwich_reference)
        gate.expect(problems, rep.worst_margin == ref,
                    f"worst margin {rep.worst_margin!r}; the full grid gives {ref!r}")
        w = rep.witness
        lhs, rhs = sandwich_sides(w["t"], np.array(w["x"]))[w["side"] == "upper"]
        gate.expect(problems, (lhs, rhs) == (w["lhs"], w["rhs"])
                    and lhs - rhs == rep.worst_margin,
                    f"sandwich witness replays to {lhs!r} <= {rhs!r}")
        gate.expect(problems, rep.samples == len(grid),
                    f"samples {rep.samples} != {len(grid)}")
        gate.expect(problems, rep.verdict == "pass"
                    and rep.worst_margin <= np.finfo(float).eps,
                    f"sandwich not exact: {rep.verdict}, {rep.worst_margin!r}")
        return problems

    jobs.append(Job("sandwich[example_2_3]",
                    lambda _: certify.check_sandwich(b23.sys, cand, grid),
                    check_sandwich))
    points += len(grid)

    # criterion 6: closed-loop contraction of example_4_7 for r in {0, .5, .9}
    axis = np.concatenate([[0.0], *[[v, -v] for v in 10.0 ** rng.uniform(-1, 2, 2)]])
    grid3 = certify.StateGrid.from_axes(range(2 if tiny else 11), axis, axis, axis)
    for r in (0.0, 0.5, 0.9):
        b47 = registry.load_example("example_4_7", r=r)
        V47 = gate.TreeExpr(b47.cand.V, expr.Dims(n=3))
        dvals = system.d_candidates(b47.sys.d_box, grid=9, random=4 if tiny else 32,
                                    rng=int(rng.integers(2 ** 31)))

        def check_con(rep, b47=b47, V47=V47, dvals=dvals, r=r):
            rhs = lambda t, V0: b47.cand.lam * V0  # noqa: E731
            ref = gate.reference(("certify", seed, tiny, "contraction", r),
                                 lambda: gate.decrease_reference(
                                     b47.closed, V47, rhs, grid3.ts, grid3.xs, dvals))
            return gate.check_decrease(rep, b47.closed, V47, rhs, len(grid3),
                                       1e-12, True, ref)

        jobs.append(Job(
            f"contraction[example_4_7,r={r}]",
            lambda _, b47=b47, dvals=dvals: certify.check_contraction(
                b47.closed, b47.cand, grid3, d_values=dvals, tol=1e-12),
            check_con))
        points += len(grid3) * len(dvals)

    # reachable-set radii: the 4-deep (t, d, x, u) nest on example_4_7
    b47 = registry.load_example("example_4_7", r=0.5)
    V47 = gate.TreeExpr(b47.cand.V, expr.Dims(n=3))
    reach_r = float(rng.uniform(0.5, 1.5))
    reach_T = 1 if tiny else 2
    reach_cfg = system.SampleConfig(d_grid=9, d_random=2 if tiny else 8,
                                    x_directions=4 if tiny else 16,
                                    x_scales=(1.0,), u_directions=4,
                                    seed=int(rng.integers(2 ** 31)))

    def check_reach(res):
        problems = []
        ref = gate.reference(("certify", seed, tiny, "reach"), lambda: gate.reach_reference(
            b47.sys, reach_r, reach_T, reach_cfg))
        gate.expect(problems, res.rho.tolist() == ref,
                    f"rho {res.rho.tolist()}; the full sample gives {ref}")
        for k in range(1, reach_T + 1):
            w = res.witnesses[k]
            val = system.vecnorm(b47.sys.f_eval(w["t"], np.array(w["d"]),
                                                np.array(w["x"]), np.array(w["u"])))
            gate.expect(problems, val == w["norm"] == res.rho[k],
                        f"rho[{k}] {res.rho[k]!r} replays to {val!r}")
            gate.expect(problems,
                        system.vecnorm(w["x"]) <= res.rho[k - 1] * (1 + 1e-12)
                        and system.vecnorm(w["u"]) <= reach_r * (1 + 1e-12)
                        and 0 <= w["t"] <= 2 * reach_T
                        and abs(w["d"][0]) <= 0.5,
                        f"rho[{k}] witness outside the sampled set: {w}")
        return problems

    jobs.append(Job("reachable_bound[example_4_7]",
                    lambda _: system.reachable_bound(b47.sys, reach_r, reach_T,
                                                     reach_cfg),
                    check_reach))
    points += _reach_points(b47.sys, reach_r, reach_T, reach_cfg)

    # growth hypothesis on a two-dimensional disturbance box (small input)
    small = stability.build_small_input_system(
        b34.sys, comparison.geometric(1.0, 0.5), comparison.identity())
    zeta_text = "3*s + 2*s^0.5"  # |f1| + |f2| <= 2s + 2 sqrt(s) + s on ||x|| <= s
    zeta = comparison.kfn_from_expr(zeta_text, tag="Kinf")
    beta = comparison.constant(1.0)
    dom_Ts = (0, 1) if tiny else (0, 2, 4)
    dom_ss = np.sort(10.0 ** rng.uniform(-3.0, 3.0, 2 if tiny else 5))
    dom_cfg = system.SampleConfig(d_grid=9, d_random=4 if tiny else 32,
                                  x_directions=4, x_scales=(1.0, 0.5),
                                  u_directions=4)
    dom_seed = int(rng.integers(2 ** 31))
    zeta_tree = gate.TreeExpr(zeta_text, expr.Dims(aux=frozenset({"s"})))

    def dom_reference():
        """{(T, s): (sampled sup ||f||, zeta(beta(T) s))} over the sampler's
        documented sets: d candidates drawn from default_rng(seed), x on the
        sphere of radius s drawn with rng=0, no input."""
        dvals = system.d_candidates(small.d_box, grid=dom_cfg.d_grid,
                                    random=dom_cfg.d_random,
                                    rng=np.random.default_rng(dom_seed))
        out = {}
        for T in dom_Ts:
            for s in dom_ss:
                xs = system.sphere_points(small.n, float(s), dom_cfg.x_directions,
                                          dom_cfg.x_scales, rng=0)
                out[(T, float(s))] = (
                    gate.sup_norm_f(small, range(T + 1), dvals, xs, np.zeros((1, 0))),
                    zeta_tree(aux={"s": beta(T) * float(s)}))
        return out

    def run_dom(_):
        sampler = comparison.sup_f_sampler(small, dom_cfg, seed=dom_seed)
        return comparison.check_domination(sampler, zeta, beta, Ts=dom_Ts,
                                           ss=dom_ss)

    def check_dom(rep):
        problems = gate.nan_problems(margin=rep.worst_margin)
        w = rep.witness
        gate.expect(problems, rep.samples == len(dom_Ts) * len(dom_ss),
                    f"samples {rep.samples}")
        ref = gate.reference(("certify", seed, tiny, "domination"), dom_reference)
        worst = max(lhs - rhs for lhs, rhs in ref.values())
        gate.expect(problems, rep.worst_margin == worst,
                    f"worst margin {rep.worst_margin!r}; the full sample gives {worst!r}")
        lhs, rhs = ref.get((w["T"], w["s"]), (None, None))
        gate.expect(problems, (lhs, rhs) == (w["lhs"], w["rhs"])
                    and lhs - rhs == rep.worst_margin,
                    f"domination witness replays to {lhs!r} <= {rhs!r}")
        gate.expect(problems, rep.passed and rep.worst_margin < 0.0,
                    f"analytic bound violated: margin {rep.worst_margin!r}")
        return problems

    jobs.append(Job("domination[small-input example_3_4]", run_dom, check_dom))
    small_ds = len(system.d_candidates(small.d_box, grid=9)) + dom_cfg.d_random
    small_xs = len(system.sphere_points(small.n, 1.0, dom_cfg.x_directions,
                                        dom_cfg.x_scales))
    points += sum(T + 1 for T in dom_Ts) * len(dom_ss) * small_ds * small_xs

    # static output-feedback inf-sup (obstructed: the verdict is "fail")
    fiber = certify.projection_fiber([0], {1: FIBER_VALUES, 2: FIBER_VALUES}, 3)
    us = np.linspace(-10.0, 10.0, 5 if tiny else 21).reshape(-1, 1)
    ys = [[-1.0], [0.0], [1.0]]
    rofs_d = system.d_candidates(b47.sys.d_box, grid=5, random=8,
                                 rng=int(rng.integers(2 ** 31)))

    def check_rofs(rep):
        lam = b47.cand.lam
        ref = gate.reference(("certify", seed, tiny, "rofs"), lambda: gate.rofs_reference(
            b47.sys, V47, lam, us, range(3), [y[0] for y in ys], FIBER_VALUES,
            rofs_d))
        problems = gate.check_rofs_entries(rep.entries, b47.sys, V47, len(us),
                                           lam, ref)
        worst = max(e.inf_sup for e in rep.entries)
        gate.expect(problems, rep.worst == worst and rep.verdict == "fail"
                    and gate.verdict_rule(worst, 0.0, 1e-9) == "fail",
                    f"obstruction not reported: {rep.verdict}, {rep.worst!r}")
        return problems

    jobs.append(Job("rofs-inf-sup[example_4_7]",
                    lambda _: certify.check_rofs_inf_sup(
                        b47.sys, b47.cand, fiber, us, ts=range(3), ys=ys,
                        d_values=rofs_d),
                    check_rofs))
    points += 3 * len(ys) * len(us) * 9 * len(rofs_d)

    return Workload("certify", jobs, points, "points", lambda: _probe(
        seed, [b23.sys, b47.closed, small],
        [(cand, 2, b23.sys), (b47.cand, 3, b47.sys)], 10.0))


# --- cli ---

def _cli_commands(tiny):
    """(label, argv, expected exit code) at user granularity."""
    self_test = ["examples", "--self-test"] + (
        ["--example", "example_2_3"] if tiny else [])
    sizes = ["--t-max", "0", "--d-random", "0"] if tiny else \
        ["--t-max", "2", "--d-random", "8"]
    small = ["--horizon", "10"] if tiny else []
    return [
        ("examples", self_test, 0),
        ("certify-contraction", ["certify", "--example", "example_4_7", "--r",
                                 "0.5", "--check", "contraction"] + sizes, 0),
        ("certify-rofs", ["certify", "--example", "example_4_7", "--r", "0.5",
                          "--check", "rofs-static"], 1),
        ("falsify", ["falsify", "--example", "example_2_3", "--budget",
                     "8" if tiny else "1000"] + small, 0),
        ("verify", ["verify", "--example", "example_3_4", "--property",
                    "ios-estimate"] + (["--budget", "8"] if tiny else []) + small, 0),
        ("synthesize", ["synthesize", "--example", "example_4_7", "--r", "0.5",
                        "--simulate"], 0),
    ]


@dataclass
class CliOutput:
    code: int
    text: str
    out_dir: Path


def _flag(argv, name, default):
    return type(default)(argv[argv.index(name) + 1]) if name in argv else default


@functools.cache
def _cli_references():
    """Bundles the gate replays CLI reports against (built on first check,
    outside set-up and the timed region)."""
    return (registry.load_example("example_2_3"),
            registry.load_example("example_3_4"),
            registry.load_example("example_4_7", r=0.5))


def _cli_default_grid(t_max):
    """The CLI's documented certificate grid for a three-state system."""
    mags = np.logspace(-6, 6, 25)
    rest = [0.0, 1.0, -1.0, 100.0, -100.0]
    return certify.StateGrid.from_axes(range(t_max + 1),
                                       np.concatenate([[0.0], mags, -mags]), rest, rest)


def _cli_check(label, argv, code, seed, tiny):
    horizon = _flag(argv, "--horizon", 60)
    budget = stability.FalsifyBudget(
        max_trajectories=_flag(argv, "--budget", 500 if label == "falsify" else 200),
        horizon=horizon, seed=seed)

    def load(out, name):
        return json.loads((out.out_dir / name).read_text())

    def reference(compute):
        return gate.reference(("cli", seed, tiny, label), compute)

    def check(out):
        b23, b34, b47 = _cli_references()
        V47 = gate.TreeExpr(b47.cand.V, expr.Dims(n=3))
        problems = []
        gate.expect(problems, out.code == code,
                    f"exit code {out.code}, expected {code}: {out.text[-300:]}")
        if problems:
            return problems
        if label == "examples":
            lines = out.text.strip().splitlines()
            want = 2 if tiny else 2 + 3 + 3 * 4
            gate.expect(problems, len(lines) == want
                        and all(ln.startswith("PASS ") for ln in lines),
                        f"self-test printed {lines}")
        elif label == "certify-contraction":
            rep = load(out, "certify-contraction.json")
            grid = _cli_default_grid(_flag(argv, "--t-max", 30))
            dvals = system.d_candidates(b47.sys.d_box, grid=9,
                                        random=_flag(argv, "--d-random", 32), rng=seed)
            rhs = lambda t, V0: b47.cand.lam * V0  # noqa: E731
            ref = reference(lambda: gate.decrease_reference(
                b47.closed, V47, rhs, grid.ts, grid.xs, dvals))
            problems += gate.check_decrease(_Rep(rep), b47.closed, V47, rhs,
                                            len(grid), 1e-9, True, ref)
        elif label == "certify-rofs":
            rep = load(out, "certify-rofs-static.json")
            us = np.linspace(-10.0, 10.0, 21).reshape(-1, 1)
            dvals = system.d_candidates(b47.sys.d_box, grid=5, random=8, rng=seed)
            ref = reference(lambda: gate.rofs_reference(
                b47.sys, V47, b47.cand.lam, us, range(3), [-1.0, 0.0, 1.0],
                FIBER_VALUES, dvals))
            problems += gate.check_rofs_entries(rep["entries"], b47.sys, V47,
                                                len(us), b47.cand.lam, ref)
            worst = max(ref.values())
            gate.expect(problems, rep["worst_margin"] == worst > 0.0
                        and rep["verdict"] == "fail",
                        f"rofs report {rep['verdict']}, {rep['worst_margin']!r}")
        elif label == "falsify":
            rep = load(out, "falsify.json")
            sigma = b34.sigma
            ref = reference(lambda: gate.falsify_reference(
                b23.sys, sigma, sigma.beta, None, None, budget, 1.0))
            problems += gate.check_falsify(_Rep(rep), ref, budget, False)
        elif label == "verify":
            rep = load(out, "verify-ios-estimate.json")
            sigma = b34.sigma
            ref = reference(lambda: gate.envelope_reference(
                gate.rollouts(b34.sys, (0,), 1.0, budget,
                              ("zero", "constant", "random")),
                lambda rows, x0: gate.ios_bounds(sigma, sigma.beta, b34.rho,
                                                 b34.gamma, rows, x0)))
            n_rows = budget.max_trajectories * (horizon + 1)
            gate.expect(problems, rep["passed"] and rep["rows"] == n_rows
                        and (rep["worst_ratio"], rep["worst_margin"])
                        == (ref["ratio"], ref["margin"]) and ref["ratio"] <= 1.0,
                        f"ios-estimate report {rep['passed']}, rows {rep['rows']}, "
                        f"ratio {rep['worst_ratio']!r}, margin {rep['worst_margin']!r};"
                        f" the full search gives {ref['ratio']!r}, {ref['margin']!r}")
            problems += gate.nan_problems(ratio=rep["worst_ratio"],
                                          margin=rep["worst_margin"])
            w = rep["witness"]
            gate.check_envelope_witness(problems, ref, w)
            gate.expect(problems, w["norm"] - w["bound"] == rep["worst_margin"],
                        "witness row is not the reported worst margin")
        elif label == "synthesize":
            problems += _check_closed_loop(out, b47)
        return problems

    return check


class _Rep:
    """Attribute view of a JSON report."""

    def __init__(self, doc):
        self.__dict__.update(doc)


def _check_closed_loop(out, b47):
    """Coincidence report and the written closed-loop CSV replay exactly."""
    problems = []
    rep = json.loads((out.out_dir / "coincidence.json").read_text())
    traj = system.Trajectory.read_csv(out.out_dir / "closed_loop.csv")
    gate.expect(problems, rep["verdict"] == "pass" and rep["history_exact"],
                f"coincidence report {rep['verdict']}")
    for i in range(len(traj) - 1):
        nxt = system.step(b47.sys, int(traj.t[i]), traj.x[i], traj.d[i], traj.u[i])
        if not np.array_equal(nxt, traj.x[i + 1]):
            problems.append(f"closed-loop row {i} does not replay through step")
            break
    err = 0.0
    for i in range(rep["p"], len(traj)):
        want = -traj.x[i, 1] ** 2
        err = max(err, abs(traj.u[i, 0] - want))
        gate.expect(problems, abs(traj.u[i, 0] - want) <= 1e-9 * (1 + abs(want)),
                    f"u({traj.t[i]}) = {traj.u[i, 0]!r} != -x2^2 = {want!r}")
    gate.expect(problems, err == rep["max_err"],
                f"max_err {rep['max_err']!r} != replayed {err!r}")
    return problems


def _digest(path):
    return {p.relative_to(path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.rglob("*")) if p.is_file()}


def build_cli(seed, work_dir, tiny=False):
    commands = _cli_commands(tiny)
    jobs = []
    for j, (label, argv, code) in enumerate(commands):
        full = argv + ["--seed", str(seed)]

        def run(pass_index, full=full, j=j, label=label):
            out_dir = Path(work_dir) / f"pass{pass_index}" / f"{j}-{label}"
            buf = io.StringIO()
            with redirect_stdout(buf), redirect_stderr(buf):
                rc = cli.main(full + ["--out-dir", str(out_dir)])
            return CliOutput(rc, buf.getvalue(), out_dir)

        jobs.append(Job(label, run, _cli_check(label, full, code, seed, tiny)))

    def cross_check(outputs):
        """Same argv and seed in every pass: reports must be byte-identical."""
        problems = {}
        first = [(_digest(o.out_dir), o.text) if isinstance(o, CliOutput) else None
                 for o in outputs[0]]
        for k, pass_outputs in enumerate(outputs[1:], start=1):
            for j, o in enumerate(pass_outputs):
                if not isinstance(o, CliOutput) or first[j] is None:
                    continue
                text = o.text.replace(str(o.out_dir), str(outputs[0][j].out_dir))
                digest = (_digest(o.out_dir), text)
                if digest != first[j]:
                    problems[(k, j)] = [f"{jobs[j].name}: reports differ from pass 0"]
        return problems

    def probe():
        b23 = registry.load_example("example_2_3")
        b47 = registry.load_example("example_4_7", r=0.5)
        return _probe(seed, [b23.sys, b47.sys, b47.closed],
                      [(b47.cand, 3, b47.sys)], 5.0)

    return Workload("cli", jobs, len(jobs), "commands", probe, cross_check)


def build(name, seed, work_dir, tiny=False):
    if name == "search":
        return build_search(seed, tiny)
    if name == "certify":
        return build_certify(seed, tiny)
    if name == "cli":
        return build_cli(seed, work_dir, tiny)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("search", "certify", "cli")


def clear(work_dir):
    shutil.rmtree(work_dir, ignore_errors=True)

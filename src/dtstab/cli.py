"""Command-line surface.

Commands: simulate, certify, verify, synthesize, falsify, examples.
Exit codes: 0 all checks pass / run complete; 1 a check failed or a violation
was found (witness emitted in the report); 2 invalid input.

Numeric flags accept exact expressions such as ``(2+e)/(2*e)`` (no variables),
so constants need not be truncated to decimals.  All commands are idempotent:
the same argv and seed produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import sys as _sys
from pathlib import Path

import numpy as np

from .certify import (LyapunovCandidate, StateGrid, check_contraction,
                      check_ios_decrease, check_relaxed_decrease,
                      check_rofs_inf_sup, check_sandwich, projection_fiber)
from .comparison import (KLEnvelope, constant, geometric, kfn_from_expr,
                         timegain_from_expr)
from .expr import Dims, ExprError, parse_expression
from .registry import EXAMPLES, example_3_4, load_example
from .stability import (FalsifyBudget, adversarial_batch, check_ios_estimate,
                        check_kl_estimate, falsify, test_output_attractivity,
                        test_output_stability)
from .synth import ReconstructionMap, run_output_feedback, synthesize_delay_controller
from .system import (ConstantDisturbance, ConstantInput, GreedyDisturbance,
                     RandomDisturbance, ZeroInput, d_candidates,
                     parse_system_file, row_norms, simulate)

__all__ = ["main"]


class UsageError(Exception):
    """Invalid input: maps to exit code 2."""


def num_expr(text: str) -> float:
    """Numeric flag: a literal or a variable-free constant expression."""
    try:
        node = parse_expression(text, Dims())
    except ExprError as ex:
        raise argparse.ArgumentTypeError(str(ex)) from None
    if node.variables():
        raise argparse.ArgumentTypeError(
            f"numeric flag may not reference variables: {text!r}")
    from .expr import eval_expression, Env
    return float(eval_expression(node, Env()))


def vec_expr(text: str) -> np.ndarray:
    return np.array([num_expr(part) for part in text.split(",")])


def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def write_report(out_dir: Path, name: str, payload: dict) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                               default=_json_default) + "\n")
    return path


def _load_system(args):
    if getattr(args, "example", None):
        bundle = load_example(args.example, r=getattr(args, "r", None))
        return bundle.sys, bundle
    if getattr(args, "system", None):
        path = Path(args.system)
        if not path.exists():
            raise UsageError(f"system file not found: {path}")
        return parse_system_file(path.read_text()), None
    raise UsageError("one of --example or --system is required")


def _unforced(sys_, bundle):
    """The plant with no free input: the bundle's closed loop when ``sys_``
    has inputs and the bundle closes them, else ``sys_`` itself."""
    if sys_.k > 0 and bundle is not None and bundle.closed is not None:
        return bundle.closed
    return sys_


def _d_policy(args, sys):
    kind = getattr(args, "d_policy", "mid")
    if kind == "mid":
        return ConstantDisturbance(sys.d_mid())
    if kind == "constant":
        if getattr(args, "d_value", None) is None:
            raise UsageError("--d-value required for --d-policy constant")
        return ConstantDisturbance(args.d_value)
    if kind == "corner":
        return ConstantDisturbance(sys.d_box[:, 1])
    if kind == "random":
        return RandomDisturbance(seed=args.seed, mode="mixed")
    if kind == "greedy":
        return GreedyDisturbance(seed=args.seed)
    raise UsageError(f"unknown disturbance policy {kind!r}")


def _u_policy(args, sys):
    kind = getattr(args, "u_policy", "zero")
    if sys.k == 0 or kind == "zero":
        return ZeroInput()
    if kind == "constant":
        if getattr(args, "u_value", None) is None:
            raise UsageError("--u-value required for --u-policy constant")
        return ConstantInput(args.u_value)
    raise UsageError(f"unknown input policy {kind!r}")


# --- candidate loading for file-based systems ---

def _kfn_field(doc, key):
    return kfn_from_expr(doc[key]) if doc.get(key) else None


def _gain_field(doc, key, decays=False):
    val = doc.get(key)
    if val is None:
        return None
    if isinstance(val, dict):
        return geometric(float(val["C"]), float(val["ratio"]))
    if isinstance(val, (int, float)):
        return constant(float(val))
    return timegain_from_expr(val, decays=decays)


def load_candidate(path: Path, n: int) -> LyapunovCandidate:
    """Candidate JSON: {"V": expr over (t, x1..xn), "lambda": num,
    "a1"/"a2"/"a3": exprs over s, "beta"/"mu"/"phi"/"q": exprs over t or
    {"C", "ratio"} for geometric gains}."""
    doc = json.loads(Path(path).read_text())
    lam = doc.get("lambda")
    if isinstance(lam, str):
        lam = num_expr(lam)
    return LyapunovCandidate(
        V=doc["V"], n=n, lam=lam,
        a1=_kfn_field(doc, "a1"), a2=_kfn_field(doc, "a2"),
        a3=_kfn_field(doc, "a3"),
        beta=_gain_field(doc, "beta"), mu=_gain_field(doc, "mu"),
        phi=_gain_field(doc, "phi"), q=_gain_field(doc, "q", decays=True),
        name=doc.get("name", doc["V"]))


def _candidate_descriptor(cand):
    out = {"V": cand.name}
    if cand.lam is not None:
        out["lambda"] = cand.lam
    for field in ("a1", "a2", "a3"):
        fn = getattr(cand, field)
        if fn is not None:
            out[field] = fn.name
    for field in ("beta", "mu", "phi", "q"):
        gain = getattr(cand, field)
        if gain is not None:
            out[field] = gain.name
    return out


# --- command handlers ---

def cmd_examples(args) -> int:
    if not args.self_test:
        for name in sorted(EXAMPLES):
            bundle = load_example(name, r=0.5) if name == "example_4_7" \
                else load_example(name)
            print(f"{name}: {bundle.description}")
        return 0
    failures = 0
    names = [args.example] if args.example else sorted(EXAMPLES)
    for name in names:
        variants = [(name, None)] if name != "example_4_7" else \
            [(name, r) for r in (0.0, 0.5, 0.9)]
        for vname, r in variants:
            bundle = load_example(vname, r=r) if r is not None \
                else load_example(vname)
            for label, rep in bundle.self_test(tol=args.tol, seed=args.seed):
                ok = rep.passed
                tag = f"{vname}" + (f"[r={r}]" if r is not None else "")
                print(f"{'PASS' if ok else 'FAIL'} {tag} {label}")
                failures += 0 if ok else 1
    return 0 if failures == 0 else 1


def cmd_simulate(args) -> int:
    sys_, bundle = _load_system(args)
    x0 = args.x0 if args.x0 is not None else np.zeros(sys_.n)
    traj = simulate(sys_, args.t0, x0, _d_policy(args, sys_),
                    _u_policy(args, sys_), args.horizon,
                    meta={"seed": args.seed})
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "trajectory.csv"
    traj.write_csv(csv_path)
    peak = float(row_norms(traj.Y).max())  # max propagates NaN
    print(f"simulated {len(traj)} rows of '{sys_.name}' "
          f"(peak output norm {peak:.6g}) -> {csv_path}")
    return 0


def _default_grid(sys_, t_max):
    if sys_.n == 1:
        return StateGrid.from_axes(range(t_max + 1),
                                   [0.0, 0.5, -0.5, 1.0, -1.0, 10.0, -10.0])
    mags = np.logspace(-6, 6, 25)
    first = np.concatenate([[0.0], mags, -mags])
    rest = [np.array([0.0, 1.0, -1.0, 100.0, -100.0])] * (sys_.n - 1)
    return StateGrid.from_axes(range(t_max + 1), first, *rest)


def cmd_certify(args) -> int:
    sys_, bundle = _load_system(args)
    if args.candidate:
        cand = load_candidate(args.candidate, sys_.n)
    elif bundle is not None and bundle.cand is not None:
        cand = bundle.cand
    else:
        raise UsageError("--candidate required for file-based systems")
    grid = _default_grid(sys_, args.t_max)
    plant = sys_
    if args.check in ("contraction", "relaxed-decrease"):
        plant = _unforced(sys_, bundle)
        if plant.k > 0:
            raise UsageError(f"{args.check} needs an unforced system")
    d_grid, d_random = (5, 8) if args.check == "rofs-static" else (9, args.d_random)
    dvals = d_candidates(plant.d_box, grid=d_grid, random=d_random, rng=args.seed)
    if args.check == "sandwich":
        rep = check_sandwich(plant, cand, grid, tol=args.tol)
    elif args.check == "contraction":
        rep = check_contraction(plant, cand, grid, d_values=dvals,
                                tol=args.tol)
    elif args.check == "relaxed-decrease":
        rep = check_relaxed_decrease(plant, cand, grid, d_values=dvals,
                                     tol=args.tol)
    elif args.check == "ios-decrease":
        us = np.linspace(-args.u_cap, args.u_cap, 9).reshape(-1, 1)
        us = np.repeat(us, sys_.k, axis=1)
        rep = check_ios_decrease(plant, cand, grid, us, d_values=dvals,
                                 tol=args.tol)
    elif args.check == "rofs-static":
        free = {i: [-1.0, 0.0, 1.0] for i in range(1, sys_.n)}
        fiber = projection_fiber([0], free, sys_.n)
        us = np.linspace(-10.0, 10.0, 21).reshape(-1, 1)
        ys = [[v] for v in (-1.0, 0.0, 1.0)]
        rep = check_rofs_inf_sup(sys_, cand, fiber, us, ts=range(3), ys=ys,
                                 d_values=dvals, tol=args.tol)
    else:
        raise UsageError(f"unknown check {args.check!r}")
    payload = rep.to_json()
    payload["system"] = sys_.name
    payload["candidate"] = _candidate_descriptor(cand)
    path = write_report(Path(args.out_dir), f"certify-{args.check}.json",
                        payload)
    print(f"{rep.verdict}: {args.check} on '{sys_.name}' "
          f"(worst margin {payload['worst_margin']:.3e}) -> {path}")
    return 0 if rep.passed else 1


def cmd_verify(args) -> int:
    sys_, bundle = _load_system(args)
    budget = FalsifyBudget(max_trajectories=args.budget, horizon=args.horizon,
                           seed=args.seed)
    out = Path(args.out_dir)
    if args.prop == "output-stability":
        rep = test_output_stability(_unforced(sys_, bundle), args.eps, args.T,
                                    budget=budget)
    elif args.prop == "output-attractivity":
        rep = test_output_attractivity(_unforced(sys_, bundle), args.eps,
                                       args.T, args.R, budget=budget)
    elif args.prop in ("kl-estimate", "ios-estimate"):
        sigma = _sigma_from(args, bundle)
        with_inputs = args.prop == "ios-estimate"
        if with_inputs and sys_.k == 0:
            raise UsageError("ios-estimate needs a system with inputs")
        plant = sys_ if with_inputs else _unforced(sys_, bundle)
        if plant.k > 0 and not with_inputs:
            raise UsageError("kl-estimate needs an unforced system")
        u_modes = ("zero", "constant", "random") if with_inputs else ("zero",)
        batch = adversarial_batch(plant, range(args.T + 1), args.R, budget,
                                  u_modes=u_modes)
        if with_inputs:
            rho = bundle.rho if bundle and bundle.rho else kfn_from_expr(args.rho)
            gamma = bundle.gamma if bundle and bundle.gamma else constant(1.0)
            rep = check_ios_estimate(batch, sigma, sigma.beta, rho, gamma,
                                     tol=args.tol)
        else:
            rep = check_kl_estimate(batch, sigma, sigma.beta, tol=args.tol)
    else:
        raise UsageError(f"unknown property {args.prop!r}")
    payload = rep.to_json()
    payload["system"] = sys_.name
    path = write_report(out, f"verify-{args.prop}.json", payload)
    ce = getattr(rep, "counterexample", None)
    if ce is not None:
        ce.write_csv(out / "counterexample.csv")
    print(f"{'pass' if rep.passed else 'fail'}: {args.prop} on '{sys_.name}' "
          f"-> {path}")
    return 0 if rep.passed else 1


def _sigma_from(args, bundle):
    if args.sigma_C is not None and args.sigma_c is not None:
        return KLEnvelope(args.sigma_C, args.sigma_c)
    if bundle is not None:
        if bundle.sigma is not None:
            return bundle.sigma
        if bundle.name == "example_2_3":
            return example_3_4().sigma  # same plant, unforced
    raise UsageError("--sigma-C and --sigma-c required (no bundled envelope)")


def cmd_synthesize(args) -> int:
    sys_, bundle = _load_system(args)
    if bundle is not None and bundle.controller is not None:
        ctrl = bundle.controller
        reference = bundle.feedback
    else:
        if not args.psi:
            raise UsageError("--psi required for file-based systems")
        psi = ReconstructionMap(args.psi, p=args.p)
        ctrl = synthesize_delay_controller(psi, p_y=sys_.p_y)
        reference = None
    out = Path(args.out_dir)
    path = write_report(out, "controller.json", ctrl.to_json())
    print(f"controller (p={ctrl.p}, state dim {ctrl.state_dim}) -> {path}")
    if not args.simulate:
        return 0
    x0 = args.x0 if args.x0 is not None else np.ones(sys_.n)
    traj, rep = run_output_feedback(sys_, ctrl, args.t0, x0, w0=args.w0,
                                    dpol=_d_policy(args, sys_),
                                    horizon=args.horizon,
                                    reference_k=reference, tol=args.tol)
    traj.write_csv(out / "closed_loop.csv")
    payload = rep.to_json()
    payload["system"] = sys_.name
    rpath = write_report(out, "coincidence.json", payload)
    print(f"{rep.verdict}: coincidence from t={rep.coincident_from} "
          f"(max err {rep.max_err:.3e}) -> {rpath}")
    return 0 if rep.passed else 1


def cmd_falsify(args) -> int:
    sys_, bundle = _load_system(args)
    sigma = _sigma_from(args, bundle)
    if args.shrink_C != 1.0:
        sigma = KLEnvelope(sigma.C * args.shrink_C, sigma.c, beta=sigma.beta)
    budget = FalsifyBudget(max_trajectories=args.budget, horizon=args.horizon,
                           seed=args.seed)
    rho = gamma = None
    if sys_.k > 0 and bundle is not None and bundle.rho is not None:
        plant, rho, gamma = sys_, bundle.rho, bundle.gamma
    else:
        plant = _unforced(sys_, bundle)
    rep = falsify(plant, sigma, sigma.beta, rho, gamma, budget=budget,
                  radius=args.R)
    payload = rep.to_json()
    payload["system"] = sys_.name
    payload["sigma"] = {"C": sigma.C, "c": sigma.c}
    path = write_report(Path(args.out_dir), "falsify.json", payload)
    print(f"worst ratio {rep.ratio:.6g} over {rep.n_trajectories} "
          f"trajectories -> {path}")
    return 1 if rep.violated else 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=42)
    common.add_argument("--tol", type=num_expr, default=1e-9)
    common.add_argument("--horizon", type=int, default=60)
    common.add_argument("--out-dir", default="out")
    common.add_argument("--example", choices=sorted(EXAMPLES))
    common.add_argument("--system", help="path to a system JSON file")
    common.add_argument("--r", type=num_expr, default=None,
                        help="disturbance bound for example_4_7 (in [0,1))")

    parser = argparse.ArgumentParser(
        prog="dtstab",
        description="robust-stability laboratory for discrete-time systems")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("examples", parents=[common],
                       help="list registry examples or run their self-tests")
    p.add_argument("--self-test", action="store_true")
    p.set_defaults(handler=cmd_examples)

    p = sub.add_parser("simulate", parents=[common],
                       help="roll a trajectory and write the CSV")
    p.add_argument("--x0", type=vec_expr)
    p.add_argument("--t0", type=int, default=0)
    p.add_argument("--d-policy", default="mid",
                   choices=["mid", "constant", "corner", "random", "greedy"])
    p.add_argument("--d-value", type=vec_expr)
    p.add_argument("--u-policy", default="zero", choices=["zero", "constant"])
    p.add_argument("--u-value", type=vec_expr)
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("certify", parents=[common],
                       help="check a Lyapunov certificate inequality")
    p.add_argument("--check", required=True,
                   choices=["sandwich", "contraction", "relaxed-decrease",
                            "ios-decrease", "rofs-static"])
    p.add_argument("--candidate", help="candidate JSON for file-based systems")
    p.add_argument("--t-max", type=int, default=30)
    p.add_argument("--u-cap", type=num_expr, default=5.0)
    p.add_argument("--d-random", type=int, default=32,
                   help="random disturbance samples on top of corners+grid")
    p.set_defaults(handler=cmd_certify)

    p = sub.add_parser("verify", parents=[common],
                       help="empirical stability properties and envelopes")
    p.add_argument("--property", dest="prop", required=True,
                   choices=["output-stability", "output-attractivity",
                            "kl-estimate", "ios-estimate"])
    p.add_argument("--eps", type=num_expr, default=1.0)
    p.add_argument("--T", type=int, default=0)
    p.add_argument("--R", type=num_expr, default=1.0)
    p.add_argument("--budget", type=int, default=200)
    p.add_argument("--sigma-C", type=num_expr)
    p.add_argument("--sigma-c", type=num_expr)
    p.add_argument("--rho", default="s")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("synthesize", parents=[common],
                       help="build the delay-chain output-feedback controller")
    p.add_argument("--psi", help="reconstruction expression for file systems")
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--simulate", action="store_true")
    p.add_argument("--x0", type=vec_expr)
    p.add_argument("--w0", type=vec_expr)
    p.add_argument("--t0", type=int, default=0)
    p.add_argument("--d-policy", default="mid",
                   choices=["mid", "constant", "corner", "random", "greedy"])
    p.add_argument("--d-value", type=vec_expr)
    p.set_defaults(handler=cmd_synthesize)

    p = sub.add_parser("falsify", parents=[common],
                       help="adversarial search against a decay envelope")
    p.add_argument("--sigma-C", type=num_expr)
    p.add_argument("--sigma-c", type=num_expr)
    p.add_argument("--shrink-C", type=num_expr, default=1.0)
    p.add_argument("--budget", type=int, default=500)
    p.add_argument("--R", type=num_expr, default=1.0)
    p.set_defaults(handler=cmd_falsify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return int(ex.code) if ex.code is not None else 0
    tol = args.tol
    if tol < 0:
        print("error: tolerance must be non-negative", file=_sys.stderr)
        return 2
    try:
        return args.handler(args)
    except (UsageError, ExprError, KeyError, ValueError) as ex:
        print(f"error: {ex}", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

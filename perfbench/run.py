"""dtstab benchmark: closed-loop workloads, end-to-end and per-layer metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload search --seed 1 --seconds 20 --trace 0

One process issues the workload's jobs back to back (one client, no
threads, BLAS pinned to one thread), repeating the fixed job list until
``--seconds`` have passed.  With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it runs untraced and traced passes and reports
the per-layer metrics derived from spans recorded around dtstab's public
functions.  Every job's output is checked after the timed region.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS  # before numpy is imported anywhere

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import clock  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-out"
SETUP_PROBES = 9


def _import_package():
    """Put the checkout's own ``src`` first on the path; never fall back to
    an installed dtstab."""
    src = ROOT / "src"
    if not (src / "dtstab" / "__init__.py").is_file():
        print(f"perfbench: no dtstab sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import dtstab
    if Path(dtstab.__file__).resolve().parent != (src / "dtstab").resolve():
        print(f"perfbench: imported dtstab from {dtstab.__file__}", file=sys.stderr)
        sys.exit(2)


def environment(seed):
    import numpy as np
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"seed": seed, "python": platform.python_version(),
            "numpy": np.__version__, "nproc": os.cpu_count(),
            "cpu": cpu, "blas_threads": BLAS_THREADS}


class JobError:
    def __init__(self, job, exc):
        self.message = f"{job} raised {exc!r}: " + "".join(
            traceback.format_exception(exc)[-3:]).strip()


def run_jobs(wl, k, tracer=None):
    outputs = []
    for job in wl.jobs:
        if tracer:
            tracer.job = f"pass{k}:{job.name}"
            idx = tracer.open("job")
        try:
            outputs.append(job.run(k))
        except Exception as exc:  # a failed job is counted, not fatal
            outputs.append(JobError(job.name, exc))
        finally:
            if tracer:
                tracer.close(idx)
    return outputs


def run_passes(build, seconds, min_passes, first_index, tracer=None,
               sampler=None):
    """Repeat the job list until ``seconds`` have passed (at least
    ``min_passes`` times).  Returns [(workload, outputs, raw_s, scale)].

    With a sampler, ``raw_s * scale`` is the pass time on the nominal core
    (see clock.py); without one, scale is 1.  Untraced passes reuse one
    workload; a traced pass rebuilds it under the tracer, so set-up spans
    and counting wrappers are recorded too.
    """
    passes = []
    wl = None if tracer else build()
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        k = first_index + len(passes)
        if tracer:
            with tracer.span("setup", job="setup"):
                wl = build()
        if sampler:
            outputs, raw, scale = sampler.measure(lambda: run_jobs(wl, k))
        else:
            t0 = time.perf_counter()
            outputs, scale = run_jobs(wl, k, tracer), 1.0
            raw = time.perf_counter() - t0
        passes.append((wl, outputs, raw, scale))
    return passes


def check_passes(passes):
    """Run every job's correctness check; returns (attempted, failed, problems)."""
    wl0 = passes[0][0]
    cross = wl0.cross_check([p[1] for p in passes]) if wl0.cross_check else {}
    attempted, failed, problems = 0, 0, []
    for k, (wl, outputs, _, _) in enumerate(passes):
        for j, (job, out) in enumerate(zip(wl.jobs, outputs)):
            attempted += 1
            if isinstance(out, JobError):
                found = [out.message]
            else:
                try:
                    found = list(job.check(out))
                except Exception as exc:  # a broken output can break its check
                    found = [f"check raised {exc!r}"]
            found += cross.get((k, j), [])
            if found:
                failed += 1
                problems.append(f"pass {k} {job.name}: " + "; ".join(found))
    return attempted, failed, problems


def measure_setup(workload, seed, count=SETUP_PROBES):
    """Seconds from interpreter start to a built workload in ``count`` fresh
    processes: (median raw, median speed-adjusted).  Each process samples
    the kernel while it imports dtstab and builds the workload, and reports
    the scale and the kernel's own time."""
    raw, scaled = [], []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            _, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        words = line.split()
        if len(words) != 3 or words[0] != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {line!r} {err[-500:]}")
        scale, sampled = float(words[1]), float(words[2])
        raw.append(elapsed - sampled)
        scaled.append((elapsed - sampled) * scale)
    return statistics.median(raw), statistics.median(scaled)


def run_workload(name, seed, seconds, trace, tiny=False, setup_probes=SETUP_PROBES):
    """One benchmark run; returns (result dict, human-readable lines, tracer)."""
    import spans as tracing
    import workloads

    work_dir = WORK / f"{name}-{os.getpid()}"
    workloads.clear(work_dir)
    build = lambda: workloads.build(name, seed, work_dir, tiny)  # noqa: E731
    min_passes = 2 if name == "cli" else 1  # cli compares reports across passes
    lines = [f"perfbench workload={name} seed={seed} seconds={seconds} trace={trace}",
             "env " + json.dumps(environment(seed), sort_keys=True)]
    tracer = None
    try:
        if not trace:
            setup_raw, setup_s = measure_setup(name, seed, setup_probes)
            with clock.SpeedSampler() as sampler:
                passes = run_passes(build, seconds, min_passes, 0, sampler=sampler)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            raw = [p[2] for p in passes]
            walls = [p[2] * p[3] for p in passes]
            wl = passes[0][0]
            metrics = {
                "setup_s": (setup_s, "s"),
                "wall_s": (statistics.median(walls), "s"),
                "work_per_s": (wl.work * len(walls) / sum(walls), "1/s"),
                "peak_rss_mb": (rss_mb, "MB"),
            }
            lines += [
                f"{wl.work_unit}_per_s = {metrics['work_per_s'][0]:.6g} 1/s "
                f"({wl.work} {wl.work_unit} per pass, {len(walls)} passes)",
                f"measured: setup {setup_raw:.4f} s, pass median "
                f"{statistics.median(raw):.4f} s, {wl.work * len(raw) / sum(raw):.6g} "
                f"{wl.work_unit}/s; speed scale per pass "
                + " ".join(f"{p[3]:.3f}" for p in passes)]
        else:
            # alternate untraced and traced passes, so that both see the
            # same host load and their difference measures the tracing
            tracer = tracing.Tracer()
            wl = build()
            untraced, traced = [], []
            start = time.perf_counter()
            while not traced or time.perf_counter() - start < seconds:
                untraced += run_passes(lambda: wl, 0, 1, 2 * len(traced))
                with tracing.installed(tracer):
                    traced += run_passes(build, 0, 1, 2 * len(traced) + 1, tracer)
            passes = untraced + traced
            metrics = tracing.span_metrics(tracer, len(traced))
            metrics.update(tracing.probe_metrics(untraced[0][0].probe()))
            metrics["trace.overhead_s"] = (
                statistics.median(p[2] for p in traced)
                - statistics.median(p[2] for p in untraced), "s")
            WORK.mkdir(exist_ok=True)
            tracer.write(WORK / f"trace-{name}-{seed}.jsonl")
            lines.append(f"spans = {len(tracer.spans)} "
                         f"(written to {WORK.name}/trace-{name}-{seed}.jsonl), "
                         f"{len(untraced)} untraced and {len(traced)} traced passes")
        attempted, failed, problems = check_passes(passes)
    finally:
        workloads.clear(work_dir)
    lines += [f"problem: {p}" for p in problems[:20]]
    lines.append(f"fail_frac = {failed / attempted:.6g} ({failed}/{attempted} jobs)")
    lines += [f"{key} = {val!r} {unit}" for key, (val, unit) in metrics.items()]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {key: {"value": val, "unit": unit}
                          for key, (val, unit) in metrics.items()}}
    return result, lines, tracer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("search", "certify", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)  # child of measure_setup
    args = parser.parse_args(argv)
    if args.setup_probe:
        def setup():
            _import_package()
            import workloads
            workloads.build(args.workload, args.seed, WORK / "probe")

        with clock.SpeedSampler() as sampler:
            _, _, scale = sampler.measure(setup)
        print(f"ready {scale!r} {sum(sampler.samples)!r}", flush=True)
        return 0
    _import_package()
    result, lines, _ = run_workload(args.workload, args.seed, args.seconds,
                                    args.trace)
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

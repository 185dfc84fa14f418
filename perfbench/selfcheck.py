"""Fast self-check of the benchmark harness at tiny sizes.

    python3 perfbench/selfcheck.py

For every workload, untraced and traced, it checks that:

* the result line has exactly the keys correct, attempted, failed, metrics,
  and every job passes the correctness gate;
* the metrics are exactly the ones BENCHMARK.json names, each with its unit,
  and the end-to-end throughput and fail_frac are printed by name;
* every span's self time plus its children's durations equals its duration,
  and children lie inside their parent;
* the gate rejects a deliberately corrupted output, and outputs whose
  extrema were taken over fewer samples than reported.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from pathlib import Path

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
THROUGHPUT = {"search": "rows_per_s", "certify": "points_per_s",
              "cli": "commands_per_s"}


def check_metrics(result, lines, wanted, workload):
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] > 0):
        problems.append(f"gate failed: {[ln for ln in lines if 'problem' in ln]}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in wanted}
    if got != want:
        problems.append(f"metrics/units differ: missing {set(want) - set(got)}, "
                        f"extra {set(got) - set(want)}, "
                        f"units {[(k, got[k], want[k]) for k in got if k in want and got[k] != want[k]]}")
    for key, val in result["metrics"].items():
        if not isinstance(val["value"], (int, float)):
            problems.append(f"{key} value {val['value']!r} is not a number")
    printed = [ln.split(" ")[0] for ln in lines]
    needed = ["fail_frac"] + ([THROUGHPUT[workload]] if wanted is BENCHMARK["end_to_end"] else [])
    problems += [f"{name} not printed" for name in needed if name not in printed]
    return problems


def check_spans(tracer):
    problems = []
    selfs = tracer.self_times()
    children = [[] for _ in tracer.spans]
    for i, span in enumerate(tracer.spans):
        if span[3] is not None:
            children[span[3]].append(i)
    for i, (name, start, end, parent, job, attrs) in enumerate(tracer.spans):
        kids = [tracer.spans[c] for c in children[i]]
        if selfs[i] + sum(k[2] - k[1] for k in kids) != end - start or selfs[i] < 0:
            problems.append(f"span {i} {name}: self + children != duration")
        if any(k[1] < start or k[2] > end for k in kids):
            problems.append(f"span {i} {name}: child outside its interval")
        if job is None:
            problems.append(f"span {i} {name} has no job id")
    if not problems and not any(s[0].startswith(("system.", "certify.", "cli."))
                                for s in tracer.spans):
        problems.append("no layer spans recorded")
    return problems


def corrupt(workload, passes):
    """Damage one output of the first pass; the gate must notice."""
    outputs = passes[0][1]
    if workload == "search":
        outputs[0][0].tau += 1
    elif workload == "certify":
        outputs[0].worst_margin -= 1e-3
    else:
        path = outputs[3].out_dir / "falsify.json"
        doc = json.loads(path.read_text())
        doc["ratio"] *= 0.5
        path.write_text(json.dumps(doc))
    return run.check_passes(passes)[1] > 0


@contextmanager
def fewer_samples():
    """Make dtstab search and sample over fewer points than it reports: each
    even trajectory repeats the one after it, every other sphere point and
    the box corners are dropped.  Outputs and counts stay self-consistent,
    so only the gate's reference extrema can notice."""
    from dtstab import certify, comparison, stability, system
    search, sphere, cands = (stability.search_trajectories, system.sphere_points,
                             certify.d_candidates)

    def repeated(*args, **kwargs):
        trajs = list(search(*args, **kwargs))
        return [trajs[min(i | 1, len(trajs) - 1)] for i in range(len(trajs))]

    patches = [
        (stability, "search_trajectories", repeated),
        (system, "sphere_points", lambda *a, **k: sphere(*a, **k)[1::2]),
        (comparison, "sphere_points", lambda *a, **k: sphere(*a, **k)[1::2]),
        (certify, "d_candidates", lambda *a, **k: cands(*a, **k)[1:-1]),
    ]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
    try:
        for mod, attr, fn in patches:
            setattr(mod, attr, fn)
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


def main():
    import workloads
    failures = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
            result, lines, tracer = run.run_workload(name, 1, 0.0, trace, tiny=True,
                                                     setup_probes=1)
            problems = check_metrics(result, lines, wanted, name)
            if tracer is not None:
                problems += check_spans(tracer)
            failures += [f"{name} trace={trace}: {p}" for p in problems]
            print(f"{'ok  ' if not problems else 'FAIL'} {name} trace={trace} "
                  f"({result['attempted']} jobs)")
        work_dir = Path(run.WORK) / f"selfcheck-{name}"
        passes = run.run_passes(lambda: workloads.build(name, 1, work_dir, True),
                                0.0, 2, 0)
        caught = corrupt(name, passes)
        workloads.clear(work_dir)
        with fewer_samples():
            passes = run.run_passes(lambda: workloads.build(name, 1, work_dir, True),
                                    0.0, 2, 0)
        caught_sup = run.check_passes(passes)[1] > 0
        workloads.clear(work_dir)
        for ok, what in ((caught, "a corrupted output"),
                         (caught_sup, "extrema over fewer samples")):
            print(f"{'ok  ' if ok else 'FAIL'} {name}: gate rejects {what}")
            if not ok:
                failures.append(f"{name}: {what} passed the gate")
    for f in failures:
        print(f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    run._import_package()
    sys.exit(main())

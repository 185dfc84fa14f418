"""Spans and counts recorded from outside the dtstab package.

The tracer wraps public functions of each dtstab module (and a few methods)
for the duration of a traced run, then restores them.  A function imported
by name into another module (``from .system import simulate``) is replaced
there too, so calls made inside the package are seen as well.  Spans are
kept in memory: name, start and end (``perf_counter_ns``), parent index,
job id and a few attributes.  A span's self time is its duration minus the
durations of its direct children; the benchmark is single-threaded, so
children never overlap.

``probe_metrics`` times the expression and ``f_eval`` layers directly, on
the workload's own systems and expressions.
"""

from __future__ import annotations

import functools
import json
import sys
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

PROBE_REPEATS = 5  # layer-probe timings are medians over this many runs
POLICY_KIND = {"ConstantDisturbance": "corner", "RandomDisturbance": "random",
               "GreedyDisturbance": "greedy"}


class Tracer:
    def __init__(self):
        # each span: [name, start_ns, end_ns, parent, job, attrs]
        self.spans = []
        self._stack = []
        self.job = None
        self.v_calls = 0
        self.greedy_steps = 0
        self.greedy_evals = 0

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter_ns(), None, parent,
                           self.job, {}])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name, job):
        self.job = job
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def self_times(self):
        """Self time (ns) of every span: duration minus direct children."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def write(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, job, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "job": job, "attrs": attrs},
                                    default=float) + "\n")


def _f_calls(system):
    return getattr(getattr(system, "_f", None), "calls", 0)


def _wrap(tracer, name, fn, before=None, after=None):
    """Span around ``fn``; ``before(args, kwargs)`` returns state passed to
    ``after(attrs, state, args, kwargs, result)``, both outside the span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = before(args, kwargs) if before else None
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after:
            after(tracer.spans[idx][5], state, args, kwargs, result)
        return result

    return wrapper


def _grid_len(args, kwargs):
    grid = kwargs.get("grid", args[2] if len(args) > 2 else None)
    return len(grid)


@contextmanager
def installed(tracer):
    """Patch dtstab for the duration of the block; always restores."""
    from dtstab import (certify, cli, comparison, registry, stability, synth,
                        system)

    def counts(args, kwargs):
        return args[0], _f_calls(args[0]), tracer.v_calls

    def store_counts(points=True, tx=None):
        def after(attrs, state, args, kwargs, result):
            s, f0, v0 = state
            if points:
                attrs["points"] = _f_calls(s) - f0
            attrs["v_evals"] = tracer.v_calls - v0
            if tx is not None:
                attrs["tx"] = tx(args, kwargs)
        return after

    def rofs_tx(args, kwargs):
        ts = kwargs.get("ts", args[4] if len(args) > 4 else None)
        ys = kwargs.get("ys", args[5] if len(args) > 5 else None)
        sampler = kwargs.get("fiber_sampler", args[2])
        return sum(len(sampler(t, y)) for t in ts for y in ys)

    def sim_after(attrs, state, args, kwargs, result):
        dpol = kwargs.get("dpol", args[3] if len(args) > 3 else None)
        attrs["rows"] = len(result)
        attrs["policy"] = POLICY_KIND.get(type(dpol).__name__, "other")

    def cli_after(attrs, state, args, kwargs, result):
        argv = args[0] if args else kwargs["argv"]
        out = Path(argv[argv.index("--out-dir") + 1])
        attrs["report_bytes"] = sum(p.stat().st_size for p in out.rglob("*")
                                    if p.is_file()) if out.is_dir() else 0

    def sup_f_sampler(fn):
        @functools.wraps(fn)
        def wrapper(sys_, *args, **kwargs):
            inner = fn(sys_, *args, **kwargs)
            return _wrap(tracer, "comparison.sup_f_sampler", inner,
                         before=lambda a, k: counts((sys_,), k),
                         after=store_counts())
        return wrapper

    functions = [
        (system, "simulate", "system.simulate", None, sim_after),
        (system, "reachable_bound", "system.reachable_bound",
         counts, store_counts()),
        (comparison, "check_domination", "comparison.domination", None, None),
        (certify, "check_contraction", "certify.decrease",
         counts, store_counts(tx=_grid_len)),
        (certify, "check_relaxed_decrease", "certify.decrease",
         counts, store_counts(tx=_grid_len)),
        (certify, "check_ios_decrease", "certify.decrease",
         counts, store_counts(tx=_grid_len)),
        (certify, "check_sandwich", "certify.sandwich",
         counts, store_counts(points=False, tx=_grid_len)),
        (certify, "check_rofs_inf_sup", "certify.rofs",
         counts, store_counts(tx=rofs_tx)),
        (certify, "tau_bound", "certify.tau", None, None),
        (stability, "test_output_attractivity", "stability.search", None, None),
        (stability, "test_output_stability", "stability.search", None, None),
        (stability, "falsify", "stability.search", None, None),
        (stability, "adversarial_batch", "stability.search", None, None),
        (stability, "check_kl_estimate", "stability.envelope_check", None, None),
        (stability, "check_ios_estimate", "stability.envelope_check", None, None),
        (synth, "run_output_feedback", "synth.output_feedback", None,
         lambda attrs, st, a, k, res: attrs.update(rows=len(res[0]))),
        (synth, "check_reconstruction", "synth.reconstruction", None,
         lambda attrs, st, a, k, res: attrs.update(samples=res.samples)),
        (registry, "load_example", "registry.load", None, None),
        (cli, "main", "cli.main", None, cli_after),
    ]
    saved = []  # (owner, attr, original)

    def replace_everywhere(original, wrapper):
        for modname, mod in list(sys.modules.items()):
            if modname != "dtstab" and not modname.startswith("dtstab."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def replace_method(cls, attr, wrapper):
        saved.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    try:
        for mod, attr, name, before, after in functions:
            original = getattr(mod, attr)
            replace_everywhere(original, _wrap(tracer, name, original,
                                               before, after))
        original = comparison.sup_f_sampler
        replace_everywhere(original, sup_f_sampler(original))

        replace_method(comparison.KLEnvelope, "decay_series",
                       _wrap(tracer, "comparison.envelope",
                             comparison.KLEnvelope.decay_series))
        replace_method(registry.ExampleBundle, "self_test",
                       _wrap(tracer, "registry.self_test",
                             registry.ExampleBundle.self_test))

        greedy_call = system.GreedyDisturbance.__call__

        def greedy(self, sys_, t, x, u):
            f0 = _f_calls(sys_)
            out = greedy_call(self, sys_, t, x, u)
            tracer.greedy_steps += 1
            tracer.greedy_evals += _f_calls(sys_) - f0
            return out

        replace_method(system.GreedyDisturbance, "__call__", greedy)

        sys_init = system.SystemDef.__post_init__

        def sys_post_init(self):
            sys_init(self)
            inner = self._f

            def counted(t, x, d, u):
                counted.calls += 1
                return inner(t, x, d, u)

            counted.calls = 0
            self._f = counted

        replace_method(system.SystemDef, "__post_init__", sys_post_init)

        cand_init = certify.LyapunovCandidate.__post_init__

        def cand_post_init(self):
            cand_init(self)
            inner = self._V

            def counted(t, x):
                tracer.v_calls += 1
                return inner(t, x)

            self._V = counted

        replace_method(certify.LyapunovCandidate, "__post_init__",
                       cand_post_init)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# --- per-layer metrics derived from the spans ---

SELF_S = {
    "system.simulate.self_s": "system.simulate",
    "system.reachable_bound.self_s": "system.reachable_bound",
    "comparison.sup_f_sampler.self_s": "comparison.sup_f_sampler",
    "comparison.envelope.self_s": "comparison.envelope",
    "certify.decrease.self_s": "certify.decrease",
    "certify.sandwich.self_s": "certify.sandwich",
    "certify.rofs.self_s": "certify.rofs",
    "stability.search.self_s": "stability.search",
    "stability.envelope_check.self_s": "stability.envelope_check",
    "synth.output_feedback.self_s": "synth.output_feedback",
    "synth.reconstruction.self_s": "synth.reconstruction",
    "registry.load.self_s": "registry.load",
    "registry.self_test.self_s": "registry.self_test",
    "cli.self_s": "cli.main",
}


def span_metrics(tracer, passes):
    """Per-pass layer metrics from the recorded spans and counters.

    Totals are divided by the number of traced passes; per-row and
    per-point figures are ratios of totals.  A layer the workload does not
    reach reads 0.
    """
    selfs = tracer.self_times()
    self_ns = defaultdict(int)
    sums = defaultdict(float)
    row_ns = defaultdict(int)
    rows = defaultdict(int)
    names = [s[0] for s in tracer.spans]

    def under_search(idx):
        parent = tracer.spans[idx][3]
        while parent is not None:
            if names[parent] == "stability.search":
                return True
            parent = tracer.spans[parent][3]
        return False

    for i, (name, start, end, parent, job, attrs) in enumerate(tracer.spans):
        self_ns[name] += selfs[i]
        if name == "system.simulate":
            row_ns[attrs["policy"]] += end - start
            rows[attrs["policy"]] += attrs["rows"]
            sums["rows"] += attrs["rows"]
            if under_search(i):
                sums["trajectories"] += 1
        elif name == "system.reachable_bound":
            sums["reach_points"] += attrs["points"]
        elif name == "comparison.sup_f_sampler":
            sums["sampler_points"] += attrs["points"]
        elif name.startswith("certify.") and "tx" in attrs:
            sums["certify_points"] += attrs.get("points", attrs["tx"])
            sums["v_evals"] += attrs["v_evals"]
            sums["tx"] += attrs["tx"]
        elif name == "synth.output_feedback":
            sums["fb_rows"] += attrs["rows"]
        elif name == "synth.reconstruction":
            sums["rec_samples"] += attrs["samples"]
        elif name == "cli.main":
            sums["report_bytes"] += attrs.get("report_bytes", 0)

    out = {key: (self_ns[span] / 1e9 / passes, "s")
           for key, span in SELF_S.items()}
    for kind in ("corner", "random", "greedy"):
        out[f"system.row_us.{kind}"] = (
            row_ns[kind] / 1e3 / rows[kind] if rows[kind] else 0.0, "us")
    out["system.simulate.rows"] = (sums["rows"] / passes, "count")
    out["system.reachable_bound.points"] = (sums["reach_points"] / passes, "count")
    out["system.greedy.evals_per_step"] = (
        tracer.greedy_evals / tracer.greedy_steps if tracer.greedy_steps else 0.0,
        "evals/step")
    out["comparison.sup_f_sampler.points"] = (sums["sampler_points"] / passes,
                                              "count")
    out["certify.points"] = (sums["certify_points"] / passes, "count")
    out["certify.v_evals_per_point"] = (
        sums["v_evals"] / sums["tx"] if sums["tx"] else 0.0, "evals/point")
    out["stability.trajectories"] = (sums["trajectories"] / passes, "count")
    out["synth.output_feedback.rows"] = (sums["fb_rows"] / passes, "count")
    out["synth.reconstruction.samples"] = (sums["rec_samples"] / passes, "count")
    out["cli.report_bytes"] = (sums["report_bytes"] / passes, "bytes")
    return out


# --- layer probes on the workload's own systems, expressions and points ---

def _per_call(fn, calls):
    """Median over PROBE_REPEATS of the mean time per call, in microseconds."""
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) / calls * 1e6)
    return statistics.median(times)


def probe_metrics(probe):
    from dtstab import expr

    empty = {}
    compiled = [(node.compiled(), pts) for node, pts in probe["exprs"]]
    trees = [(node, [expr.Env(t=t, x=x, d=d, u=u) for t, x, d, u in pts])
             for node, pts in probe["exprs"]]
    calls = sum(len(pts) for _, pts in compiled)

    def call_compiled():
        for fn, pts in compiled:
            for t, x, d, u in pts:
                fn(t, x, d, u, empty)

    def call_tree():
        for node, envs in trees:
            for env in envs:
                expr.eval_expression(node, env)

    def compile_all():
        for text, dims in probe["texts"]:
            expr.parse_expression(text, dims).compiled()

    out = {"expr.call_us": (_per_call(call_compiled, calls), "us"),
           "expr.tree_call_us": (_per_call(call_tree, calls), "us"),
           "expr.compile_ms": (_per_call(compile_all, 1) / 1e3, "ms")}
    for kind in ("expr", "composite"):
        systems = [(s, pts) for s, k, pts in probe["systems"] if k == kind]
        n = sum(len(pts) for _, pts in systems)

        def f_evals(systems=systems):
            for s, pts in systems:
                for t, x, d, u in pts:
                    s.f_eval(t, d, x, u)

        out[f"system.f_eval_us.{kind}"] = (
            _per_call(f_evals, n) if n else 0.0, "us")
    return out

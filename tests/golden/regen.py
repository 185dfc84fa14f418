"""Golden outputs of the dtstab CLI and of acceptance criterion 3.

    python tests/golden/regen.py           # rewrite cli.json and tau.json
    python tests/golden/regen.py --check   # list what differs, write nothing

``cli.json`` holds, for the six CLI argvs of the benchmark's cli workload,
four certify argvs (the sandwich on example_2_3 and example_4_7, the
relaxed decrease on example_2_3 and the contraction on example_4_7 at the
CLI defaults), two simulate argvs on example_2_3 (the random and the
greedy disturbance) and two verify argvs on example_2_3 (the KL estimate
and the output attractivity) at seeds 1, 3 and 7: the exit code, the sha256 of
stdout (the out-dir path replaced by ``<out-dir>``), the sha256 of each
report file and every JSON report of at most ``SMALL_BYTES`` bytes in full.  ``tau.json`` holds
criterion 3's twelve ``tau_bound`` results (tau, tau~, numerator and
denominator) as ``float.hex``.  Both record the numpy version and
``platform.libc_ver()``: the bits depend on numpy and on libm.

``tests/test_golden.py`` recomputes both in process and compares.  A
change that alters them on purpose runs this script with ``--check``, which
lists each differing entry and part (an argv with its seed and a report
file, or a tau case and a field) and exits 1 on any difference, then
without it, and says why in CHANGES.md.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
if __name__ == "__main__":  # run as a script: import dtstab from this checkout
    sys.path.insert(0, str(HERE.parents[1] / "src"))

from dtstab import cli  # noqa: E402
from dtstab.certify import tau_bound  # noqa: E402
from dtstab.registry import example_2_3  # noqa: E402

SEEDS = (1, 3, 7)
ARGVS = (
    ["examples", "--self-test"],
    ["certify", "--example", "example_4_7", "--r", "0.5", "--check",
     "contraction", "--t-max", "2", "--d-random", "8"],
    ["certify", "--example", "example_4_7", "--r", "0.5", "--check",
     "rofs-static"],
    ["falsify", "--example", "example_2_3", "--budget", "1000"],
    ["verify", "--example", "example_3_4", "--property", "ios-estimate"],
    ["synthesize", "--example", "example_4_7", "--r", "0.5", "--simulate"],
    ["certify", "--example", "example_2_3", "--check", "sandwich"],
    ["certify", "--example", "example_4_7", "--r", "0.5", "--check", "sandwich"],
    ["certify", "--example", "example_2_3", "--check", "relaxed-decrease"],
    ["certify", "--example", "example_4_7", "--r", "0.5", "--check",
     "contraction"],
    ["simulate", "--example", "example_2_3", "--x0", "1,1", "--d-policy", "random"],
    ["simulate", "--example", "example_2_3", "--x0", "1,1", "--d-policy", "greedy"],
    ["verify", "--property", "kl-estimate", "--example", "example_2_3"],
    ["verify", "--property", "output-attractivity", "--example", "example_2_3",
     "--eps", "0.1", "--T", "5"],
)
SMALL_BYTES = 4096
PLACEHOLDER = "<out-dir>"
FILES = {"cli": HERE / "cli.json", "tau": HERE / "tau.json"}


def versions():
    return {"numpy": np.__version__, "libc": list(platform.libc_ver())}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_runs():
    """One entry per (argv, seed), run in this process."""
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for j, (argv, seed) in enumerate(itertools.product(ARGVS, SEEDS)):
            out = Path(tmp) / str(j)
            full = argv + ["--seed", str(seed)]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(full + ["--out-dir", str(out)])
            files = {p.relative_to(out).as_posix(): p.read_bytes()
                     for p in sorted(out.rglob("*")) if p.is_file()}
            runs.append({
                "argv": full, "exit": code,
                "stdout_sha256": _sha256(
                    buf.getvalue().replace(str(out), PLACEHOLDER).encode()),
                "files_sha256": {name: _sha256(data) for name, data in files.items()},
                "reports": {name: json.loads(data) for name, data in files.items()
                            if name.endswith(".json") and len(data) <= SMALL_BYTES},
            })
    return runs


def tau_results():
    """Criterion 3's tau_bound grid on example_2_3, floats as float.hex."""
    cand = example_2_3().cand
    out = []
    for eps, T, R in itertools.product((1.0, 0.1, 0.01), (0, 5), (1.0, 10.0)):
        res = tau_bound(cand, eps, T, R)
        out.append({"eps": eps, "T": T, "R": R,
                    **{key: float(getattr(res, key)).hex()
                       for key in ("tau", "tau_tilde", "numerator", "denominator")}})
    return out


def corpus():
    """The two documents, as regenerated now."""
    return {"cli": {"platform": versions(), "runs": cli_runs()},
            "tau": {"platform": versions(), "results": tau_results()}}


def text(doc) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def _entries(name, doc) -> dict:
    """The entries of a document by label: an argv with its seed, or a tau
    case."""
    if name == "cli":
        return {" ".join(run["argv"]): run for run in doc["runs"]}
    return {f"eps={row['eps']} T={row['T']} R={row['R']}": row
            for row in doc["results"]}


def _parts(name, got, want) -> list:
    """The parts in which two entries of one label differ: the exit code,
    stdout and each report file of a run, or the fields of a tau case."""
    if name != "cli":
        return sorted(key for key in got.keys() | want.keys()
                      if got.get(key) != want.get(key))
    parts = [key for key in ("exit", "stdout_sha256") if got[key] != want[key]]
    files = got["files_sha256"].keys() | want["files_sha256"].keys()
    return parts + sorted(
        f for f in files if any(got[key].get(f) != want[key].get(f)
                                for key in ("files_sha256", "reports")))


def differences(name, doc, kept) -> list:
    """(label, part) for each part in which document ``doc`` differs from
    ``kept``; an entry in only one of them is "added" or "removed"."""
    now, then = _entries(name, doc), _entries(name, kept)
    out = []
    for label in [*then, *(label for label in now if label not in then)]:
        if label not in now or label not in then:
            out.append((label, "added" if label in now else "removed"))
        else:
            out.extend((label, part) for part in _parts(name, now[label], then[label]))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the kept files, write nothing, and "
                             "exit 1 if any entry differs")
    args = parser.parse_args(argv)
    docs = corpus()
    if not args.check:
        for name, doc in docs.items():
            FILES[name].write_text(text(doc))
            print(f"wrote {FILES[name]}")
        return 0
    found = 0
    for name, doc in docs.items():
        kept = json.loads(FILES[name].read_text())
        if kept["platform"] != doc["platform"]:
            print(f"{FILES[name].name}: recorded with {kept['platform']}, "
                  f"run with {doc['platform']}")
        for label, part in differences(name, doc, kept):
            print(f"{FILES[name].name}: {label}: {part}")
            found += 1
    print(f"{found} differences")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())

"""Golden outputs of the dtstab CLI and of acceptance criterion 3.

    python tests/golden/regen.py      # rewrite cli.json and tau.json

``cli.json`` holds, for the six CLI argvs of the benchmark's cli workload
at seeds 1, 3 and 7: the exit code, the sha256 of stdout (the out-dir path
replaced by ``<out-dir>``), the sha256 of each report file and every JSON
report of at most ``SMALL_BYTES`` bytes in full.  ``tau.json`` holds
criterion 3's twelve ``tau_bound`` results (tau, tau~, numerator and
denominator) as ``float.hex``.  Both record the numpy version and
``platform.libc_ver()``: the bits depend on numpy and on libm.

``tests/test_golden.py`` recomputes both in process and compares.  A
change that alters them on purpose runs this script and says why in
CHANGES.md.
"""

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


def main():
    for name, doc in corpus().items():
        FILES[name].write_text(text(doc))
        print(f"wrote {FILES[name]}")


if __name__ == "__main__":
    main()

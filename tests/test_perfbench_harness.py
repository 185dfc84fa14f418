"""The benchmark harness still runs against the package.

``perfbench/selfcheck.py`` runs every workload at tiny sizes, traced and
untraced, through the correctness gate.  The tracer patches package
internals (``SystemDef._f``, ``LyapunovCandidate._V``, module functions)
and the gate reads report attributes, so a refactor that renames or
removes one of them fails here.  Its output goes to ``.perfbench-out/``.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selfcheck_passes():
    proc = subprocess.run([sys.executable, "perfbench/selfcheck.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr

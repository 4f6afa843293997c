"""Smoke test: the benchmark's traced path runs and checks its outputs.

The traced run reads program internals (POVM elements, per-run seeds, the
method resolver and the handler's estimator), so a change to any of them
shows here rather than only when the benchmark is run.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_adaptive_workload_is_correct():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "adaptive-2q",
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True

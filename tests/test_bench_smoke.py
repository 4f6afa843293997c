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


def run_traced(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True


def test_traced_adaptive_workload_is_correct():
    run_traced("adaptive-2q")


def test_traced_static_workload_is_correct():
    # static runs go through resolve_method and read the shared settings
    run_traced("static-2q")


def test_traced_analyze_workload_is_correct():
    # re-runs fmub+ppi and sgqt rows of the two-worker raw files through the
    # per-setting path of public calls and compares them
    run_traced("analyze-report-2w")

"""Run one qtbench benchmark workload and print its metrics.

    python3 perfbench/run.py --workload static-2q [--seed 1] [--seconds 50] [--trace 0]

Run it from the root of a qtbench source tree; it imports ``qtbench`` from
``src/`` there and from nowhere else. ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` re-runs a fixed set of the workload's runs through
spans and prints the per-layer metrics. Each metric is printed on its own
line with its unit, followed by an ``info`` line (environment, seed and the
figures that carry no bound) and, last, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit codes: 0 when every output check passed, 1 when a check failed or the
workload raised, 2 on a usage error or when ``src/qtbench`` is missing.
See NOTES.md for the workloads, the metrics and the known defects.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import Tracer, check_metric_name

# Before numpy loads its BLAS (it is first imported with qtbench): the two
# pool workers of analyze-report-2w would otherwise each start one BLAS
# thread per core.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_runs"   # scratch files of a run, removed after it
SETUP_REPEATS = 3
WORKLOADS = ("static-2q", "adaptive-2q", "pauli-3q", "analyze-report-2w")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed, the campaigns' base seed")
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="length of the timed pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program():
    """Put this tree's ``src`` first on the path of this process and its
    children, and import the benchmark, which imports qtbench."""
    if not (SRC / "qtbench" / "__init__.py").is_file():
        raise FileNotFoundError(f"no qtbench sources under {SRC}")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    import qtbench
    if SRC not in Path(qtbench.__file__).resolve().parents:
        raise ImportError(f"qtbench was imported from {qtbench.__file__}, "
                          f"not from {SRC}")
    import workloads
    return workloads


def measure_setup(args) -> float:
    """Median wall time of fresh processes that set the workload up (imports,
    config validation, MUB cache, warm-up runs) and exit."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {var: os.environ[var] for var in THREAD_VARS}}


def peak_rss_mb() -> float:
    """Largest peak resident set of this process and its waited-for
    children (the pool workers and set-up processes)."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def run_workload(wl, args) -> dict:
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        if not args.trace:
            setup_s = measure_setup(args)
            wl.setup(args.workload, args.seed)
            if args.workload == wl.ANALYZE:
                result = wl.run_analyze(args.seed, workdir, args.seconds)
            else:
                result = wl.run_serial(args.workload, args.seed, args.seconds)
            result["metrics"]["setup_s"] = (setup_s, "s")
            result["metrics"]["peak_rss_mb"] = (peak_rss_mb(), "MB")
            return result
        tracer = Tracer()
        fill_s = wl.setup(args.workload, args.seed)
        if args.workload == wl.ANALYZE:
            result = wl.trace_analyze(args.seed, workdir, tracer)
        else:
            result = wl.trace_serial(args.workload, args.seed, tracer)
        result["metrics"]["mub.fill_s"] = (fill_s, "s")
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        wl = import_program()
    except (ImportError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        wl.setup(args.workload, args.seed)
        return 0
    try:
        result = run_workload(wl, args)
    except wl.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    for name, (value, unit) in result["metrics"].items():
        print(f"{check_metric_name(name):<32} {value!r:>24} {unit}")
    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, **environment(),
            **result["info"]}
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()}}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

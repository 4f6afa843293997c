"""The four qtbench workloads: set-up, timed pass, traced re-run and checks.

Every workload uses test ``rps`` and takes its inputs from the workload seed,
which becomes the campaign's base seed; each run is then the pure function
(config, N, run index) that ``run_experiment`` computes. Serial workloads are
a closed loop of one process running one experiment at a time.
``analyze-report-2w`` is the command-line path: ``qtbench analyze`` with two
pool workers, then ``qtbench report``.

The timed pass repeats a fixed set of runs (a serial pass over the grid, or
one analyze + report cycle) while at least half a repetition's time is left,
and every repetition must reproduce the first bit for bit. The serial
timing metrics are taken over every run of every pass; ``analyze-report-2w``
first takes each run's median over the cycles (see ``run_analyze``).

A result is a dict with ``correct``, ``attempted``, ``failed``, ``metrics``
(name -> (value, unit)) and ``info`` (figures that are printed and recorded
but carry no bound; see NOTES.md).
"""

import contextlib
import glob
import hashlib
import json
import os
import shutil
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

import qtbench.cli as cli
import qtbench.engine as engine
import qtbench.stats as qstats
from qtbench import (CampaignConfig, MeasurementRecord, TestKind,
                     born_probabilities, fidelity, mub_bases, run_experiment,
                     sample_counts)
from qtbench.estimators import MAX_ITERATIONS
from qtbench.mub import SUPPORTED_MUB_DIMS
from qtbench.protocols import IncompleteRecordsError
from qtbench.sgqt import SgqtHandler
from qtbench.states import generate_state

from spans import Tracer, tail_statistic

WARMUP_SEED = 987654321   # warm-up input, the same for every workload seed
F_TARGET = 0.999
LOWER_BOUND_NB = 6296     # N_B of the theoretical optimum, dims 2,2, rps


class CheckFailed(AssertionError):
    """An output of the program did not match what the benchmark expects."""


@dataclass(frozen=True)
class Serial:
    """A closed-loop workload: run_experiment over a grid, one run at a time.

    A round runs every N of the grid once, in grid order. A pass runs
    ``rounds`` rounds; the timed pass repeats it. The traced run re-runs the
    first ``trace_rounds`` rounds.
    """

    method: str
    dims: tuple
    grid: tuple
    rounds: int
    trace_rounds: int
    n_b: bool = False   # whether the result includes compile_report's N_B

    def config(self, seed: int) -> CampaignConfig:
        protocol, estimator = engine.parse_method(self.method)
        return CampaignConfig(dims=self.dims, test=TestKind.RPS,
                              protocol=protocol, estimator=estimator,
                              n_grid=self.grid, runs_per_n=self.rounds,
                              base_seed=seed, f_target=F_TARGET)


SERIAL = {
    "static-2q": Serial("fmub+trml:1", (2, 2), (1000, 10_000, 100_000),
                        rounds=100, trace_rounds=60, n_b=True),
    "adaptive-2q": Serial("fo+trml:1", (2, 2), (1000,),
                          rounds=60, trace_rounds=60),
    "pauli-3q": Serial("pauli+frml", (2, 2, 2), (1000, 10_000),
                       rounds=20, trace_rounds=12),
}

ANALYZE = "analyze-report-2w"
ANALYZE_DIMS = (2, 2)
ANALYZE_GRID = (1000, 10_000)
ANALYZE_CAMPAIGNS = (("fmub+ppi", 2000), ("sgqt", 200))
ANALYZE_WORKERS = 2
CHECK_ROWS = 20   # first runs per (method, N) re-run serially from raw files


def _analyze_config(method: str, runs: int, seed: int) -> CampaignConfig:
    protocol, estimator = engine.parse_method(method)
    return CampaignConfig(dims=ANALYZE_DIMS, test=TestKind.RPS,
                          protocol=protocol, estimator=estimator,
                          n_grid=ANALYZE_GRID, runs_per_n=runs,
                          base_seed=seed, f_target=F_TARGET)


def _configs(workload: str, seed: int) -> list[CampaignConfig]:
    if workload == ANALYZE:
        return [_analyze_config(m, r, seed) for m, r in ANALYZE_CAMPAIGNS]
    spec = SERIAL[workload]
    return [spec.config(seed)]


def setup(workload: str, seed: int) -> float:
    """Validate the workload's configs, fill the MUB cache and make one
    untimed warm-up run per config. Returns the MUB fill time."""
    configs = _configs(workload, seed)
    t0 = time.perf_counter()
    for cfg in configs:
        for d in {*cfg.dims, int(np.prod(cfg.dims))} & set(SUPPORTED_MUB_DIMS):
            mub_bases(d)
    fill_s = time.perf_counter() - t0
    for cfg in configs:
        run_experiment(replace(cfg, base_seed=WARMUP_SEED), cfg.n_grid[0], 0)
    return fill_s


# --- the experiment loop, rebuilt from public calls --------------------------

@contextlib.contextmanager
def _untraced(name):
    yield


def _povm_bytes(records) -> int:
    return sum(rec.spec.povm.elements.nbytes for rec in records)


def _traced_estimator(tracer: Tracer, estimator):
    """The adaptive handler's estimator, timed and counted as nested calls."""
    def nested(records):
        tracer.counts["protocols.nested_calls"] += 1
        tracer.counts["estimators.stack_bytes"] += _povm_bytes(records)
        try:
            with tracer.span("protocols.nested"):
                report = estimator(records)
        except IncompleteRecordsError:
            tracer.counts["protocols.nested_incomplete"] += 1
            raise
        tracer.counts["protocols.nested_iterations"] += report.iterations
        return report
    return nested


def rerun(cfg: CampaignConfig, n_total: int, run_index: int,
          tracer: Tracer | None = None):
    """Repeat run_experiment's loop through qtbench's public calls, with
    the engine's own per-run seeding, and keep what run_experiment drops.

    Returns ``(fidelity, error, report, records)``; on failure the fidelity
    is NaN and ``error`` holds the text run_experiment would record.
    """
    span = tracer.span if tracer else _untraced
    _, state_rng, proto_rng, sample_rng = engine._run_seed(cfg, n_total,
                                                           run_index)
    try:
        with span("states.generate"):
            rho = generate_state(cfg.test, cfg.dims, state_rng)
        with span("protocols.build"):
            handler, estimator = engine.resolve_method(cfg, n_total, proto_rng)
        if tracer and hasattr(handler, "estimator"):
            handler.estimator = _traced_estimator(tracer, handler.estimator)
        layer = "sgqt" if isinstance(handler, SgqtHandler) else "protocols"
        records = []
        measured = 0
        while measured < n_total:
            with span(f"{layer}.next"):
                spec = handler.next(measured, records)
            if spec is None:
                break
            shots = min(spec.shots, n_total - measured)
            if shots != spec.shots:
                spec = replace(spec, shots=shots)
            with span("engine.born"):
                probs = born_probabilities(rho, spec.povm)
            with span("engine.sample"):
                counts = sample_counts(probs, shots, sample_rng)
            with span("estimators.record"):
                records.append(MeasurementRecord(spec, counts))
            measured += shots
        final = "sgqt.final" if layer == "sgqt" else "estimators.final"
        with span(final):
            report = estimator(records)
        with span("qcore.fidelity"):
            f = fidelity(rho, report.estimate)
    except Exception as exc:  # run_experiment records any failure as data
        return float("nan"), f"{type(exc).__name__}: {exc}", None, None
    return f, None, report, records


def _same_run(result, f: float, error) -> bool:
    if result.failed or error is not None:
        return result.failed and result.error == error
    return result.fidelity == f


def _count_final(tracer: Tracer, report, records, sgqt: bool):
    if report is None:
        return
    tracer.counts["engine.povm_bytes"] += _povm_bytes(records)
    if sgqt:
        tracer.counts["sgqt.evals"] += len(records)
        return
    tracer.counts["estimators.stack_bytes"] += _povm_bytes(records)
    tracer.values["estimators.iterations"].append(report.iterations)
    tracer.counts["estimators.nonconverged"] += not report.converged
    tracer.counts["estimators.at_cap"] += (
        report.iterations >= MAX_ITERATIONS and not report.converged)


# --- instrumentation of the report path ---------------------------------------

def _medcouple_pairs(tracer: Tracer):
    def count(args, _):
        v = np.asarray(args[0], dtype=float).ravel()
        med = np.median(v)
        ties = int(np.count_nonzero(v == med))
        pairs = int(np.count_nonzero(v > med)) * int(np.count_nonzero(v < med))
        tracer.counts["stats.medcouple_pairs"] += pairs + (
            ties * (ties - 1) if ties >= 2 else 0)
    return count


@contextlib.contextmanager
def instrumented(tracer: Tracer | None):
    """Wrap the public persistence and statistics calls, and the report
    command, in spans where the engine, stats and cli modules look them up,
    for the duration."""
    if tracer is None:
        yield
        return
    wrappers = {
        "raw_line": tracer.wrap(engine.raw_line, "engine.raw_write"),
        "parse_raw_line": tracer.wrap(engine.parse_raw_line,
                                      "engine.raw_parse"),
        "build_curve": tracer.wrap(qstats.build_curve, "stats.build_curve"),
        "compile_report": tracer.wrap(qstats.compile_report,
                                      "stats.compile_report"),
        "medcouple": tracer.wrap(qstats.medcouple, "stats.medcouple",
                                 after=_medcouple_pairs(tracer)),
        "cmd_report": tracer.wrap(cli.cmd_report, "cli.report"),
    }
    saved = []
    for module in (engine, qstats, cli):
        for name, wrapper in wrappers.items():
            if hasattr(module, name):
                saved.append((module, name, getattr(module, name)))
                setattr(module, name, wrapper)
    try:
        yield
    finally:
        for module, name, original in saved:
            setattr(module, name, original)


# --- shared result pieces -------------------------------------------------------

def _check(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


def _another_repetition(start: float, done: int, seconds: float) -> bool:
    """Whether at least half a repetition's time is left of ``seconds``."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done / 2 < seconds


def _timing_metrics(times_s) -> tuple[dict, dict]:
    tail, pct, count = tail_statistic(times_s)
    metrics = {"run_p50_ms": (1e3 * statistics.median(times_s), "ms"),
               "run_tail_ms": (1e3 * tail, "ms")}
    return metrics, {"run_tail_percentile": pct, "run_time_samples": count}


def _infid_p95(fidelities) -> float:
    return qstats.percentile([1.0 - f for f in fidelities], 0.95)


def _failure_info(results) -> dict:
    failed = [r for r in results if r.failed]
    return {"failed_ratio": len(failed) / len(results),
            "failures_by_error": dict(Counter(r.error for r in failed))}


def _check_fidelities(fidelities):
    bad = [f for f in fidelities if not 0.0 <= f <= 1.0]
    _check(not bad, f"{len(bad)} fidelities outside [0, 1], e.g. {bad[:3]}")


def _check_raw_round_trip(cfg: CampaignConfig, results):
    """Raw lines read back to the same seed, fidelity and failure flag."""
    for res in results:
        _, back = engine.parse_raw_line(engine.raw_line(cfg, res))
        _check(back.seed == res.seed and back.failed == res.failed
               and (res.failed or back.fidelity == res.fidelity),
               f"raw line round trip changed run {res.n_total}/{res.run_index}")


# --- serial workloads -------------------------------------------------------------

def _serial_stats(spec: Serial, cfg: CampaignConfig, results) -> dict:
    """Checks every result, then takes the result statistics over them."""
    _check_fidelities([r.fidelity for r in results if not r.failed])
    _check_raw_round_trip(cfg, results)
    curve = qstats.build_curve(results)
    info = {"infid_p95": float(curve.infid_p95[-1])}
    if spec.n_b:
        d = int(np.prod(spec.dims))
        report = qstats.compile_report(results, F_TARGET, d,
                                       qstats.rank_for_test(cfg.test, d),
                                       method=cfg.method)
        info["n_b"] = report.n_b
        info["n_b_extrapolated"] = report.extrapolated
    return info


def run_serial(workload: str, seed: int, seconds: float) -> dict:
    """Passes over the workload's runs while at least half a pass's time is
    left; the first pass is checked, every later one must repeat it."""
    spec = SERIAL[workload]
    cfg = spec.config(seed)
    runs = [(n, r) for r in range(spec.rounds) for n in spec.grid]
    times, first = [], []
    start = time.perf_counter()
    passes = 0
    while not passes or _another_repetition(start, passes, seconds):
        for i, (n, r) in enumerate(runs):
            t0 = time.perf_counter()
            res = run_experiment(cfg, n, r)
            times.append(time.perf_counter() - t0)
            if not passes:
                first.append(res)
            else:
                _check(_same_run(first[i], res.fidelity, res.error),
                       f"pass {passes} of {n}/{r} differs from the first: "
                       f"{res.fidelity!r} {res.error!r}")
        passes += 1
    timed_s = time.perf_counter() - start

    stats = _serial_stats(spec, cfg, first)
    # re-run the first round through the public calls: same fidelity, bit
    # for bit, or the same error text
    for res in first[:len(spec.grid)]:
        f, error, _, _ = rerun(cfg, res.n_total, res.run_index)
        _check(_same_run(res, f, error),
               f"re-run of {res.n_total}/{res.run_index} differs: "
               f"{f!r} {error!r} vs {res.fidelity!r} {res.error!r}")

    metrics, info = _timing_metrics(times)
    info.update(stats)
    info.update(_failure_info(first))
    info.update(runs_per_s=len(times) / timed_s, passes=passes,
                timed_s=timed_s)
    return {"correct": True, "attempted": len(times),
            "failed": passes * sum(r.failed for r in first),
            "metrics": metrics, "info": info}


def trace_serial(workload: str, seed: int, tracer: Tracer) -> dict:
    spec = SERIAL[workload]
    cfg = spec.config(seed)
    results = []
    plain = traced = 0.0
    mismatches = 0
    with instrumented(tracer):
        for r in range(spec.trace_rounds):
            for n in spec.grid:
                t0 = time.perf_counter()
                res = run_experiment(cfg, n, r)
                plain += time.perf_counter() - t0
                tracer.run = (n, r)
                t0 = time.perf_counter()
                f, error, report, records = rerun(cfg, n, r, tracer)
                traced += time.perf_counter() - t0
                tracer.run = None
                _count_final(tracer, report, records, sgqt=False)
                mismatches += not _same_run(res, f, error)
                results.append(res)
        _serial_stats(spec, cfg, results)
    return _trace_summary(tracer, len(results), plain, traced, mismatches,
                          sum(r.failed for r in results))


# --- analyze-report-2w ----------------------------------------------------------------

def _cli(argv) -> int:
    """``qtbench`` in this process; its table output goes to standard error
    so that the benchmark's result stays the last line of standard output."""
    with contextlib.redirect_stdout(sys.stderr):
        return cli.main(argv)


def _analyze_cycle(workdir: str, seed: int) -> dict:
    """analyze both campaigns with two workers, then report them."""
    t_analyze = 0.0
    for method, runs in ANALYZE_CAMPAIGNS:
        argv = ["analyze", "--dims", ",".join(map(str, ANALYZE_DIMS)),
                "--test", "rps", "--method", method,
                "--grid", ",".join(map(str, ANALYZE_GRID)),
                "--runs", str(runs), "--seed", str(seed),
                "--workers", str(ANALYZE_WORKERS), "--out", workdir]
        t0 = time.perf_counter()
        code = _cli(argv)
        t_analyze += time.perf_counter() - t0
        _check(code == 0, f"qtbench analyze {method} exited with {code}")
    raw_paths = sorted(glob.glob(os.path.join(workdir, "raw_*.jsonl")))
    _check(len(raw_paths) == len(ANALYZE_CAMPAIGNS),
           f"expected {len(ANALYZE_CAMPAIGNS)} raw files, found {raw_paths}")
    t0 = time.perf_counter()
    code = _cli(["report", *raw_paths, "--fb", str(F_TARGET), "--out", workdir])
    report_s = time.perf_counter() - t0
    _check(code == 0, f"qtbench report exited with {code}")
    return {"analyze_s": t_analyze, "report_s": report_s,
            "raw_paths": raw_paths}


def _read_campaigns(raw_paths, seed: int) -> dict:
    """method -> (config, rows), checking row counts and fidelities."""
    campaigns = {}
    for path in raw_paths:
        with open(path) as fh:
            rows = [json.loads(line) for line in fh if line.strip()]
        method = rows[0]["protocol"] + (
            f"+{rows[0]['estimator']}" if rows[0]["estimator"] else "")
        runs = dict(ANALYZE_CAMPAIGNS)[method]
        _check(len(rows) == runs * len(ANALYZE_GRID),
               f"{path}: {len(rows)} rows, expected {runs * len(ANALYZE_GRID)}")
        _check_fidelities([r["fidelity"] for r in rows if not r["failed"]])
        campaigns[method] = (_analyze_config(method, runs, seed), rows)
    return campaigns


def _check_report(workdir: str):
    with open(os.path.join(workdir, "report.json")) as fh:
        rows = json.load(fh)
    methods = [row["method"] for row in rows]
    expected = ["lower_bound", *(m for m, _ in ANALYZE_CAMPAIGNS)]
    _check(sorted(methods) == sorted(expected),
           f"report.json rows {methods}, expected {expected}")
    n_b = rows[methods.index("lower_bound")]["N_B"]
    _check(round(n_b) == LOWER_BOUND_NB,
           f"lower_bound N_B {n_b} does not round to {LOWER_BOUND_NB}")


def _check_rows(campaigns):
    """The first CHECK_ROWS runs per (method, N) of the two-worker raw files,
    with the raw row each should reproduce."""
    for method, (cfg, rows) in campaigns.items():
        for row in rows:
            if row["run"] < CHECK_ROWS:
                yield cfg, row


def _same_as_row(result, row) -> bool:
    return (result.seed == row["seed"] and result.failed == row["failed"]
            and (result.failed or result.fidelity == row["fidelity"]))


def _rows_digest(campaigns) -> str:
    """Digest of what the raw rows computed: seed, failure and fidelity."""
    digest = hashlib.sha256()
    for method in sorted(campaigns):
        for row in campaigns[method][1]:
            digest.update(repr((method, row["N"], row["run"], row["seed"],
                                row["failed"], row["fidelity"])).encode())
    return digest.hexdigest()


def run_analyze(seed: int, workdir: str, seconds: float) -> dict:
    """Cycles of analyze + report on the same inputs while at least half a
    cycle's time is left; the first cycle is checked against serial runs,
    every later one must compute the same rows.

    A run's time is its median over the cycles. Its runs take 2-20 ms, and
    a host stall of a fraction of a second slows a few consecutive ones two-
    to fourfold; pooled, those few set the 11th-slowest of all rows.
    """
    times = {}   # (method, N, run) -> [t_protocol_s + t_estimator_s]
    report_s = []
    analyze_s = 0.0
    attempted = failed = 0
    digest = None
    start = time.perf_counter()
    while digest is None or _another_repetition(start, len(report_s), seconds):
        cycle_dir = os.path.join(workdir, f"cycle-{len(report_s)}")
        os.mkdir(cycle_dir)
        cycle = _analyze_cycle(cycle_dir, seed)
        campaigns = _read_campaigns(cycle["raw_paths"], seed)
        _check_report(cycle_dir)
        if digest is None:
            digest = _rows_digest(campaigns)
            # determinism across worker counts: a serial run reproduces the row
            for cfg, row in _check_rows(campaigns):
                res = run_experiment(cfg, row["N"], row["run"])
                _check(_same_as_row(res, row),
                       f"serial run {cfg.method} {row['N']}/{row['run']} "
                       f"differs from the two-worker raw row")
            _, main_rows = campaigns[ANALYZE_CAMPAIGNS[0][0]]
            infid_p95 = _infid_p95([r["fidelity"] for r in main_rows
                                    if r["N"] == ANALYZE_GRID[-1]
                                    and not r["failed"]])
        else:
            _check(_rows_digest(campaigns) == digest,
                   f"cycle {len(report_s)} computed other rows than the "
                   f"first from the same inputs")
        for method, (_, rows) in campaigns.items():
            for r in rows:   # per-run times as the workers recorded them
                times.setdefault((method, r["N"], r["run"]), []).append(
                    r["t_protocol_s"] + r["t_estimator_s"])
            attempted += len(rows)
            failed += sum(r["failed"] for r in rows)
        analyze_s += cycle["analyze_s"]
        report_s.append(cycle["report_s"])
        shutil.rmtree(cycle_dir)

    metrics, info = _timing_metrics(
        [statistics.median(t) for t in times.values()])
    info.update(infid_p95=infid_p95, runs_per_s=attempted / analyze_s,
                report_s=statistics.median(report_s), cycles=len(report_s),
                failed_ratio=failed / attempted, analyze_s=analyze_s,
                timed_s=time.perf_counter() - start)
    return {"correct": True, "attempted": attempted, "failed": failed,
            "metrics": metrics, "info": info}


def trace_analyze(seed: int, workdir: str, tracer: Tracer) -> dict:
    with instrumented(tracer):
        cycle = _analyze_cycle(workdir, seed)
        campaigns = _read_campaigns(cycle["raw_paths"], seed)
    _check_report(workdir)
    plain = traced = 0.0
    mismatches = attempted = failed = 0
    by_method = Counter()
    for cfg, row in _check_rows(campaigns):
        t0 = time.perf_counter()
        res = run_experiment(cfg, row["N"], row["run"])
        plain += time.perf_counter() - t0
        tracer.run = (cfg.method, row["N"], row["run"])
        t0 = time.perf_counter()
        f, error, report, records = rerun(cfg, row["N"], row["run"], tracer)
        elapsed = time.perf_counter() - t0
        by_method[cfg.method] += elapsed
        traced += elapsed
        tracer.run = None
        _count_final(tracer, report, records, sgqt=cfg.protocol == "sgqt")
        mismatches += not (_same_run(res, f, error) and _same_as_row(res, row))
        attempted += 1
        failed += res.failed
    result = _trace_summary(tracer, attempted, plain, traced, mismatches,
                            failed)
    result["info"]["rerun_s_by_method"] = dict(by_method)
    return result


# --- per-layer summary ------------------------------------------------------------------

def _trace_summary(tracer: Tracer, runs: int, plain: float, traced: float,
                   mismatches: int, failed: int) -> dict:
    c = tracer.counts
    iterations = tracer.values["estimators.iterations"] or [0]
    final_calls = tracer.calls("estimators.final")
    nested_calls = c["protocols.nested_calls"]
    per_run = max(1, runs)
    m = {
        "estimators.final_s": (tracer.busy("estimators.final"), "s"),
        "estimators.calls": (final_calls, "count"),
        "estimators.iterations_p50": (float(np.median(iterations)), "count"),
        "estimators.iterations_max": (int(max(iterations)), "count"),
        "estimators.at_cap": (c["estimators.at_cap"], "count"),
        "estimators.nonconverged_ratio": (
            c["estimators.nonconverged"] / max(1, final_calls), "ratio"),
        "estimators.record_s": (tracer.busy("estimators.record"), "s"),
        "estimators.stack_bytes": (c["estimators.stack_bytes"] / per_run, "B"),
        "engine.povm_bytes": (c["engine.povm_bytes"] / per_run, "B"),
        "engine.born_calls": (tracer.calls("engine.born"), "count"),
        "engine.born_s": (tracer.busy("engine.born"), "s"),
        "engine.sample_s": (tracer.busy("engine.sample"), "s"),
        "engine.raw_lines": (tracer.calls("engine.raw_write"), "count"),
        "engine.raw_write_s": (tracer.busy("engine.raw_write"), "s"),
        "engine.raw_parse_s": (tracer.busy("engine.raw_parse"), "s"),
        "protocols.build_s": (tracer.busy("protocols.build"), "s"),
        "protocols.next_calls": (tracer.calls("protocols.next"), "count"),
        "protocols.next_s": (tracer.busy("protocols.next"), "s"),
        "protocols.self_s": (tracer.self_time("protocols.next"), "s"),
        "protocols.nested_calls": (nested_calls, "count"),
        "protocols.nested_s": (tracer.busy("protocols.nested"), "s"),
        "protocols.nested_iterations": (c["protocols.nested_iterations"],
                                        "count"),
        "protocols.nested_incomplete": (c["protocols.nested_incomplete"],
                                        "count"),
        "protocols.nested_useful_ratio": (
            (nested_calls - c["protocols.nested_incomplete"])
            / max(1, nested_calls), "ratio"),
        "states.generate_s": (tracer.busy("states.generate"), "s"),
        "qcore.fidelity_s": (tracer.busy("qcore.fidelity"), "s"),
        "sgqt.next_s": (tracer.busy("sgqt.next"), "s"),
        "sgqt.evals": (c["sgqt.evals"], "count"),
        "sgqt.final_s": (tracer.busy("sgqt.final"), "s"),
        "stats.build_curve_s": (tracer.busy("stats.build_curve"), "s"),
        "stats.medcouple_calls": (tracer.calls("stats.medcouple"), "count"),
        "stats.medcouple_s": (tracer.busy("stats.medcouple"), "s"),
        "stats.medcouple_pairs": (c["stats.medcouple_pairs"], "count"),
        "stats.compile_report_s": (tracer.busy("stats.compile_report"), "s"),
        "cli.report_self_s": (tracer.self_time("cli.report"), "s"),
        "trace.run_s": (traced, "s"),
        "trace.overhead_ratio": (traced / plain, "ratio"),
    }
    info = {"rerun_mismatches": mismatches, "rerun_runs": runs,
            "shares_of_rerun": {
                name: tracer.busy(name) / traced
                for name in ("estimators.final", "protocols.next",
                             "protocols.nested", "sgqt.next", "sgqt.final",
                             "states.generate", "engine.born",
                             "engine.sample", "estimators.record",
                             "qcore.fidelity", "protocols.build")}}
    return {"correct": mismatches == 0, "attempted": runs, "failed": failed,
            "metrics": m, "info": info}

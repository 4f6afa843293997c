"""The numerical-experiment loop: state generation, Born-rule probabilities,
multinomial sampling, handler orchestration and timing.

Each run is a pure function of (config, N, run index): the RNG streams are
derived from a counter-based seed so results do not depend on execution order
or worker count. A run takes its protocol one step at a time and samples each
step's settings with one Born-rule and one multinomial call into the run's
RecordStack. The true state is visible only to born_probabilities; the
protocol and estimator handlers receive nothing but copy counts and past
measurement records.
"""

import contextlib
import json
import math
import time
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .estimators import RecordStack, _probs, arml, frls, frml, ppi, trml
from .protocols import (
    AmubHandler,
    FoHandler,
    FomubHandler,
    Povm,
    StaticHandler,
    fmub_protocol,
    fo_min_budget,
    mub_protocol,
    pauli_protocol,
)
from .qcore import DensityMatrix, fidelity
from .sgqt import SGQT_SHOTS, SgqtHandler
from .states import TestKind, generate_state
from .stats import lower_bound_NB, rank_for_test


class ConfigError(ValueError):
    """Invalid campaign configuration (rejected before any computation)."""


class CampaignError(RuntimeError):
    """Raised when more than 1% of a campaign's runs failed."""


# --- the method registry -------------------------------------------------------

@dataclass(frozen=True)
class ProtocolRow:
    """One protocol of the method registry: how it builds a run's handler,
    which systems it accepts and the smallest sample size from which a run
    yields an estimate (below it every run fails)."""

    build: Callable   # (config, n_total, estimator, rng) -> handler
    min_n: Callable   # dims -> fewest workable copies; raises if unbuildable
    qubits_only: bool = False
    multipartite: bool = False             # needs at least two subsystems
    factorized: bool = False
    takes_estimator: bool = True


def _static(builder, **flags) -> ProtocolRow:
    """A static protocol's row: a run needs one shot per built setting."""
    return ProtocolRow(
        build=lambda c, n, est, rng: StaticHandler(builder(c.dims), n),
        min_n=lambda dims: len(builder(dims)), **flags)


PROTOCOLS = {
    "mub": _static(mub_protocol),
    "fmub": _static(fmub_protocol, factorized=True),
    "pauli": _static(lambda dims: pauli_protocol(len(dims)),
                     qubits_only=True, factorized=True),
    "amub": ProtocolRow(
        build=lambda c, n, est, rng: AmubHandler(c.dims, est, n),
        min_n=lambda dims: len(mub_protocol(dims))),
    "fo": ProtocolRow(
        build=lambda c, n, est, rng: FoHandler(c.dims, est, rng, n),
        min_n=fo_min_budget, multipartite=True, factorized=True),
    "fomub": ProtocolRow(
        build=lambda c, n, est, rng: FomubHandler(c.dims, est, rng, n),
        min_n=lambda dims: len(fmub_protocol(dims)), multipartite=True,
        factorized=True),
    "sgqt": ProtocolRow(
        build=lambda c, n, est, rng: SgqtHandler(c.dims, n, rng),
        min_n=lambda dims: 2 * SGQT_SHOTS, takes_estimator=False),
}

# estimator name -> (fit, whether it takes a rank argument as in 'trml:1')
ESTIMATORS = {"ppi": (ppi, False), "frls": (frls, False),
              "frml": (frml, False), "trml": (trml, True),
              "arml": (arml, False)}


def _estimator(estimator: str, d: int):
    """The fit an estimator identifier names, checked against dimension d."""
    name, _, arg = estimator.partition(":")
    if name not in ESTIMATORS:
        raise ConfigError(f"unknown estimator {name!r}; expected one of "
                          f"{tuple(ESTIMATORS)}")
    fit, ranked = ESTIMATORS[name]
    if not ranked:
        if arg:
            raise ConfigError(f"estimator {name!r} takes no argument")
        return fit
    if not arg:
        raise ConfigError(f"{name} requires a rank argument, e.g. '{name}:1'")
    try:
        r = int(arg)
    except ValueError:
        raise ConfigError(f"invalid {name} rank {arg!r}") from None
    if not 1 <= r <= d:
        raise ConfigError(f"{name} rank {r} outside 1..{d}")
    return partial(fit, r=r)


def parse_method(method: str) -> tuple[str, str | None]:
    """Split a method identifier 'protocol+estimator' (or 'sgqt')."""
    method = method.strip()
    if method in PROTOCOLS and not PROTOCOLS[method].takes_estimator:
        return method, None
    if "+" not in method:
        raise ConfigError(
            f"method {method!r} must be 'protocol+estimator' or 'sgqt'")
    protocol, estimator = method.split("+", 1)
    return protocol.strip(), estimator.strip()


def format_method(protocol: str, estimator: str | None) -> str:
    """The method identifier parse_method splits."""
    return protocol if estimator is None else f"{protocol}+{estimator}"


def validate_method(protocol: str, estimator: str | None, dims: tuple):
    """Reject unknown or inconsistent method identifiers up front."""
    if protocol not in PROTOCOLS:
        raise ConfigError(f"unknown protocol {protocol!r}; expected one of "
                          f"{tuple(PROTOCOLS)}")
    row = PROTOCOLS[protocol]
    if not row.takes_estimator:
        if estimator is not None:
            raise ConfigError(
                f"{protocol} is a combined method and takes no estimator")
    elif estimator is None:
        raise ConfigError(f"protocol {protocol!r} requires an estimator")
    else:
        _estimator(estimator, math.prod(dims))
    if row.qubits_only and any(x != 2 for x in dims):
        raise ConfigError(
            f"protocol {protocol!r} is defined for qubit registers")
    if row.multipartite and len(dims) < 2:
        raise ConfigError(
            f"protocol {protocol!r} needs at least two subsystems")
    try:
        row.min_n(dims)
    except ValueError as exc:
        raise ConfigError(f"protocol {protocol!r}: {exc}") from None


def method_is_factorized(protocol: str, dims: tuple) -> bool:
    """Whether the protocol uses factorized (per-subsystem) measurements only."""
    return PROTOCOLS[protocol].factorized or len(tuple(dims)) == 1


@dataclass
class RunResult:
    """Per-run outcome of one numerical tomography experiment.

    ``converged``, ``iterations`` and ``rank_used`` come from the final
    estimator report; they are None for failed runs and for raw files
    written without them.
    """

    n_total: int
    fidelity: float
    bases_count: int
    t_protocol: float
    t_estimator: float
    run_index: int
    seed: int
    failed: bool = False
    error: str | None = None
    converged: bool | None = None
    iterations: int | None = None
    rank_used: int | None = None


def check_dims(dims) -> tuple[int, ...]:
    """Subsystem dimensions as ints, rejected unless each is at least 2."""
    dims = tuple(int(x) for x in dims)
    if not dims or any(x < 2 for x in dims):
        raise ConfigError("every subsystem dimension must be >= 2")
    return dims


@dataclass
class CampaignConfig:
    """Everything defining a campaign: system, test, method, grid and seeds."""

    dims: tuple[int, ...]
    test: TestKind
    protocol: str
    estimator: str | None
    n_grid: tuple[int, ...]
    runs_per_n: int = 1000
    base_seed: int = 0
    f_target: float = 0.999

    def __post_init__(self):
        self.dims = check_dims(self.dims)
        self.test = TestKind(self.test)
        self.n_grid = tuple(int(x) for x in self.n_grid)
        if not self.n_grid:
            raise ConfigError("empty sample-size grid")
        if any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ConfigError("sample-size grid must be strictly increasing")
        if self.runs_per_n < 2:
            raise ConfigError("need at least 2 runs per sample size")
        if not 0.0 < self.f_target < 1.0:
            raise ConfigError("target fidelity must lie strictly in (0, 1)")
        if self.base_seed < 0:
            raise ConfigError("base seed must be nonnegative")
        validate_method(self.protocol, self.estimator, self.dims)
        if self.test.qubits_only and any(x != 2 for x in self.dims):
            raise ConfigError(f"test {self.test.value!r} is defined for qubit "
                              "registers only")
        check_min_n(self, self.n_grid[0])

    @property
    def method(self) -> str:
        return format_method(self.protocol, self.estimator)


def check_min_n(config: CampaignConfig, n_total: int):
    """Reject a sample size below the configured protocol's minimum."""
    n_min = PROTOCOLS[config.protocol].min_n(config.dims)
    if n_total < n_min:
        raise ConfigError(
            f"sample size {n_total} is below {n_min}, the fewest copies from "
            f"which protocol {config.protocol!r} yields an estimate on dims "
            f"{list(config.dims)}")


def resolve_method(config: CampaignConfig, n_total: int,
                   rng: np.random.Generator):
    """Build the per-run (protocol handler, estimator) pair."""
    row = PROTOCOLS[config.protocol]
    if not row.takes_estimator:
        # a combined method (sgqt) reports its handler's own estimate
        handler = row.build(config, n_total, None, rng)
        return handler, handler.estimate
    estimator = _estimator(config.estimator, math.prod(config.dims))
    return row.build(config, n_total, estimator, rng), estimator


def born_probabilities(rho: DensityMatrix, povm: Povm) -> np.ndarray:
    """Outcome probabilities Tr(rho P_k), roundoff negatives clamped and the
    vector renormalized to unit sum."""
    return _born(rho, povm.elements, 1)[0]


def _born(rho: DensityMatrix, elements: np.ndarray, settings: int):
    """born_probabilities of settings with equal outcome counts whose
    elements are stacked, (settings, outcomes), from one einsum; the first
    setting that fails a check raises its error."""
    if rho.d != elements.shape[1]:
        raise ValueError(
            f"dimension mismatch: state {rho.d}, POVM {elements.shape[1]}")
    p = _probs(elements, rho.mat).reshape(settings, -1)
    low = p.min(axis=1)
    p = np.clip(p, 0.0, None)
    total = p.sum(axis=1)
    for setting_low, setting_total in zip(low, total):
        if not math.isfinite(setting_total):
            raise ValueError("Born probabilities are not finite")
        if setting_low < -1e-12:
            raise ValueError(f"negative Born probability {setting_low:.3e}")
        if abs(setting_total - 1.0) > 1e-8:
            raise ValueError(f"Born probabilities sum to {setting_total}, not 1")
    return p / total[:, None]


def sample_counts(probs: np.ndarray, shots: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Multinomial outcome counts for one measurement setting."""
    return rng.multinomial(shots, probs)


def _run_seed(config: CampaignConfig, n_total: int, run_index: int):
    entropy = (config.base_seed, config.test.code, n_total, run_index)
    ss = np.random.SeedSequence(entropy)
    seed_int = int(ss.generate_state(1, np.uint64)[0])
    state_ss, proto_ss, sample_ss = ss.spawn(3)
    return (seed_int, np.random.default_rng(state_ss),
            np.random.default_rng(proto_ss), np.random.default_rng(sample_ss))


def run_experiment(config: CampaignConfig, n_total: int,
                   run_index: int) -> RunResult:
    """One numerical tomography experiment: generate a true state, drive the
    protocol handler through the sample budget, reconstruct, score."""
    seed_int, state_rng, proto_rng, sample_rng = _run_seed(
        config, n_total, run_index)
    try:
        check_min_n(config, n_total)
        rho = generate_state(config.test, config.dims, state_rng)
        t0 = time.perf_counter()
        handler, estimator = resolve_method(config, n_total, proto_rng)
        t_protocol = time.perf_counter() - t0

        records = RecordStack()
        measured = 0
        while measured < n_total:
            t0 = time.perf_counter()
            step = handler.step(measured, records)
            t_protocol += time.perf_counter() - t0
            if step is None:
                break
            # bit for bit what born_probabilities and sample_counts return
            # setting by setting from the same rng state
            settings, shots = step
            probs = _born(rho, settings.elements, len(settings))
            records.append(settings, sample_rng.multinomial(shots, probs),
                           shots)
            measured += sum(shots)

        t0 = time.perf_counter()
        report = estimator(records)
        t_estimator = time.perf_counter() - t0
        f = fidelity(rho, report.estimate)
        return RunResult(n_total=n_total, fidelity=f,
                         bases_count=len(records), t_protocol=t_protocol,
                         t_estimator=t_estimator, run_index=run_index,
                         seed=seed_int, converged=report.converged,
                         iterations=report.iterations,
                         rank_used=report.rank_used)
    except (ValueError, ArithmeticError) as exc:
        # a numerical failure is data; programming errors propagate
        return RunResult(n_total=n_total, fidelity=float("nan"),
                         bases_count=0, t_protocol=0.0, t_estimator=0.0,
                         run_index=run_index, seed=seed_int, failed=True,
                         error=f"{type(exc).__name__}: {exc}")


def run_campaign(config: CampaignConfig, workers: int = 1,
                 on_batch=None) -> list[RunResult]:
    """Execute runs_per_n experiments for every sample size in the grid.

    Results are ordered by (grid position, run index) regardless of worker
    count: both map and Executor.map return results in input order. With
    more than one worker, one process pool serves the whole grid, so each
    worker builds its protocol settings once. ``on_batch(n, results)`` is
    invoked after each sample size completes. Raises CampaignError if more
    than 1% of runs failed.
    """
    runs = config.runs_per_n
    results: list[RunResult] = []
    with (ProcessPoolExecutor(max_workers=workers) if workers > 1
          else contextlib.nullcontext()) as pool:
        mapper = map if pool is None else partial(
            pool.map, chunksize=max(1, runs // (workers * 8)))
        for n_total in config.n_grid:
            batch = list(mapper(run_experiment, [config] * runs,
                                [n_total] * runs, range(runs)))
            results.extend(batch)
            if on_batch is not None:
                on_batch(n_total, batch)
    failed = sum(r.failed for r in results)
    if failed > 0.01 * len(results):
        raise CampaignError(f"{failed} of {len(results)} runs failed")
    return results


def default_grid(test: TestKind, dims, f_target: float = 0.999) -> tuple[int, ...]:
    """Powers of 10 spanning the region where the infidelity percentile is
    expected to cross 1 - f_target (two decades of margin past the lower
    bound, capped at 10^7)."""
    d = int(np.prod(dims))
    n_b = lower_bound_NB(f_target, d, rank_for_test(test, d))
    lo = 2
    hi = min(7, max(lo + 1, math.ceil(math.log10(n_b)) + 2))
    return tuple(10**k for k in range(lo, hi + 1))


# --- raw-result persistence ---------------------------------------------------

def raw_line(config: CampaignConfig, result: RunResult) -> str:
    """One JSON-lines record of a run."""
    return json.dumps({
        "test": config.test.value,
        "dims": list(config.dims),
        "protocol": config.protocol,
        "estimator": config.estimator,
        "N": result.n_total,
        "run": result.run_index,
        "seed": result.seed,
        "fidelity": None if result.failed else result.fidelity,
        "M": result.bases_count,
        "t_protocol_s": result.t_protocol,
        "t_estimator_s": result.t_estimator,
        "failed": result.failed,
        "converged": result.converged,
        "iterations": result.iterations,
        "rank_used": result.rank_used,
        "error": result.error,
    })


def parse_raw_line(line: str) -> tuple[dict, RunResult]:
    """Parse one JSON-lines record back into campaign context + RunResult."""
    row = json.loads(line)
    context = {"test": row["test"], "dims": tuple(row["dims"]),
               "protocol": row["protocol"], "estimator": row["estimator"]}
    result = RunResult(
        n_total=int(row["N"]),
        fidelity=float("nan") if row["fidelity"] is None else float(row["fidelity"]),
        bases_count=int(row["M"]),
        t_protocol=float(row["t_protocol_s"]),
        t_estimator=float(row["t_estimator_s"]),
        run_index=int(row["run"]),
        seed=int(row["seed"]),
        failed=bool(row["failed"]),
        error=row.get("error"),
        converged=row.get("converged"),
        iterations=row.get("iterations"),
        rank_used=row.get("rank_used"))
    return context, result

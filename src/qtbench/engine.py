"""The numerical-experiment loop: state generation, Born-rule probabilities,
multinomial sampling, handler orchestration and timing.

Each run is a pure function of (config, N, run index): the RNG streams are
derived from a counter-based seed so results do not depend on execution order
or worker count. The true state is visible only to born_probabilities; the
protocol and estimator handlers receive nothing but copy counts and past
measurement records.
"""

import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .estimators import MeasurementRecord, arml, frls, frml, ppi, trml
from .mub import SUPPORTED_MUB_DIMS
from .protocols import (
    Povm,
    amub_handler,
    fmub_protocol,
    fo_handler,
    fomub_handler,
    mub_protocol,
    pauli_protocol,
    static_handler,
)
from .qcore import DensityMatrix, fidelity
from .sgqt import SgqtParams, sgqt_method
from .states import TestKind, generate_state
from .stats import lower_bound_NB, rank_for_test


class ConfigError(ValueError):
    """Invalid campaign configuration (rejected before any computation)."""


class CampaignError(RuntimeError):
    """Raised when more than 1% of a campaign's runs failed."""

    def __init__(self, message, results=None):
        super().__init__(message)
        self.results = results or []


PROTOCOL_IDS = ("mub", "fmub", "pauli", "amub", "fo", "fomub")
ESTIMATOR_IDS = ("ppi", "frls", "frml", "trml", "arml")
ADAPTIVE_PROTOCOLS = ("amub", "fo", "fomub")

_TEST_CODE = {TestKind.RPS: 1, TestKind.RMSPT2: 2, TestKind.RMSPTD: 3,
              TestKind.RNP: 4}

_FACTORIZED_PROTOCOLS = ("fmub", "pauli", "fo", "fomub")


def parse_method(method: str) -> tuple[str, str | None]:
    """Split a method identifier 'protocol+estimator' (or 'sgqt')."""
    method = method.strip()
    if method == "sgqt":
        return "sgqt", None
    if "+" not in method:
        raise ConfigError(
            f"method {method!r} must be 'protocol+estimator' or 'sgqt'")
    protocol, estimator = method.split("+", 1)
    return protocol.strip(), estimator.strip()


def validate_method(protocol: str, estimator: str | None, dims: tuple):
    """Reject unknown or inconsistent method identifiers up front."""
    dims = tuple(int(x) for x in dims)
    d = int(np.prod(dims))
    if protocol == "sgqt":
        if estimator is not None:
            raise ConfigError("sgqt is a combined method and takes no estimator")
        return
    if protocol not in PROTOCOL_IDS:
        raise ConfigError(f"unknown protocol {protocol!r}; expected one of "
                          f"{PROTOCOL_IDS + ('sgqt',)}")
    if estimator is None:
        raise ConfigError(f"protocol {protocol!r} requires an estimator")
    name, _, arg = estimator.partition(":")
    if name not in ESTIMATOR_IDS:
        raise ConfigError(f"unknown estimator {name!r}; expected one of "
                          f"{ESTIMATOR_IDS}")
    if name == "trml":
        if not arg:
            raise ConfigError("trml requires a rank argument, e.g. 'trml:1'")
        try:
            r = int(arg)
        except ValueError:
            raise ConfigError(f"invalid trml rank {arg!r}") from None
        if not 1 <= r <= d:
            raise ConfigError(f"trml rank {r} outside 1..{d}")
    elif arg:
        raise ConfigError(f"estimator {name!r} takes no argument")
    if protocol in ("mub", "amub") and d not in SUPPORTED_MUB_DIMS:
        raise ConfigError(f"total dimension {d} outside the MUB-supported set "
                          f"{SUPPORTED_MUB_DIMS}")
    if protocol in ("fmub", "fomub"):
        for dj in dims:
            if dj not in SUPPORTED_MUB_DIMS:
                raise ConfigError(f"subsystem dimension {dj} outside the "
                                  f"MUB-supported set {SUPPORTED_MUB_DIMS}")
    if protocol == "pauli" and any(x != 2 for x in dims):
        raise ConfigError("the Pauli protocol is defined for qubit registers")
    if protocol in ("fo", "fomub") and len(dims) < 2:
        raise ConfigError(f"protocol {protocol!r} needs at least two subsystems")


def static_setting_count(protocol: str, dims: tuple) -> int | None:
    """Number of settings of a static protocol (None for adaptive methods)."""
    dims = tuple(int(x) for x in dims)
    if protocol == "mub":
        return int(np.prod(dims)) + 1
    if protocol == "fmub":
        return int(np.prod([dj + 1 for dj in dims]))
    if protocol == "pauli":
        return 4 ** len(dims) - 1
    return None


def method_is_factorized(protocol: str, dims: tuple) -> bool:
    """Whether the protocol uses factorized (per-subsystem) measurements only."""
    return protocol in _FACTORIZED_PROTOCOLS or len(tuple(dims)) == 1


@dataclass
class RunResult:
    """Per-run outcome of one numerical tomography experiment.

    ``converged`` and ``iterations`` come from the final estimator report;
    they are None for failed runs and for raw files written without them.
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
    sgqt: SgqtParams | None = None

    def __post_init__(self):
        self.dims = tuple(int(x) for x in self.dims)
        if isinstance(self.test, str):
            self.test = TestKind.from_id(self.test)
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
        n_settings = static_setting_count(self.protocol, self.dims)
        if n_settings is not None and self.n_grid[0] < n_settings:
            raise ConfigError(
                f"smallest sample size {self.n_grid[0]} is below the "
                f"{n_settings} settings of protocol {self.protocol!r}")
        if self.protocol == "sgqt":
            spe = (self.sgqt or SgqtParams()).shots_per_eval
            if self.n_grid[0] < 2 * spe:
                raise ConfigError(
                    f"smallest sample size {self.n_grid[0]} is below one "
                    f"sgqt evaluation pair (2 x {spe} shots)")

    @property
    def method(self) -> str:
        if self.estimator is None:
            return self.protocol
        return f"{self.protocol}+{self.estimator}"


def make_estimator(estimator_id: str):
    """Estimator callable from its string identifier."""
    name, _, arg = estimator_id.partition(":")
    if name == "ppi":
        return ppi
    if name == "frls":
        return frls
    if name == "frml":
        return frml
    if name == "arml":
        return arml
    if name == "trml":
        r = int(arg)
        return lambda records: trml(records, r)
    raise ConfigError(f"unknown estimator {estimator_id!r}")


def resolve_method(config: CampaignConfig, n_total: int,
                   rng: np.random.Generator):
    """Build the per-run (protocol handler, estimator) pair."""
    dims = config.dims
    if config.protocol == "sgqt":
        return sgqt_method(dims, n_total, rng, config.sgqt)
    estimator = make_estimator(config.estimator)
    if config.protocol == "mub":
        return static_handler(mub_protocol(dims), n_total), estimator
    if config.protocol == "fmub":
        return static_handler(fmub_protocol(dims), n_total), estimator
    if config.protocol == "pauli":
        return static_handler(pauli_protocol(len(dims)), n_total), estimator
    if config.protocol == "amub":
        return amub_handler(dims, estimator, budget=n_total), estimator
    if config.protocol == "fo":
        return fo_handler(dims, estimator, rng, budget=n_total), estimator
    if config.protocol == "fomub":
        return fomub_handler(dims, estimator, rng, budget=n_total), estimator
    raise ConfigError(f"unknown protocol {config.protocol!r}")


def born_probabilities(rho: DensityMatrix, povm: Povm) -> np.ndarray:
    """Outcome probabilities Tr(rho P_k), roundoff negatives clamped and the
    vector renormalized to unit sum."""
    if rho.d != povm.d:
        raise ValueError(f"dimension mismatch: state {rho.d}, POVM {povm.d}")
    p = np.real(np.einsum("kij,ji->k", povm.elements, rho.mat))
    if p.min() < -1e-12:
        raise ValueError(f"negative Born probability {p.min():.3e}")
    p = np.clip(p, 0.0, None)
    total = p.sum()
    if abs(total - 1.0) > 1e-8:
        raise ValueError(f"Born probabilities sum to {total}, not 1")
    return p / total


def sample_counts(probs: np.ndarray, shots: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Multinomial outcome counts for one measurement setting."""
    if shots < 0:
        raise ValueError("shots must be nonnegative")
    if shots == 0:
        return np.zeros(len(probs), dtype=np.int64)
    return rng.multinomial(shots, probs)


def _run_seed(config: CampaignConfig, n_total: int, run_index: int):
    entropy = (config.base_seed, _TEST_CODE[config.test], n_total, run_index)
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
        rho = generate_state(config.test, config.dims, state_rng)
        t0 = time.perf_counter()
        handler, estimator = resolve_method(config, n_total, proto_rng)
        t_protocol = time.perf_counter() - t0

        records: list[MeasurementRecord] = []
        measured = 0
        while measured < n_total:
            t0 = time.perf_counter()
            spec = handler.next(measured, records)
            t_protocol += time.perf_counter() - t0
            if spec is None:
                break
            shots = min(spec.shots, n_total - measured)
            if shots != spec.shots:
                spec = replace(spec, shots=shots)
            probs = born_probabilities(rho, spec.povm)
            counts = sample_counts(probs, shots, sample_rng)
            records.append(MeasurementRecord(spec, counts))
            measured += shots

        t0 = time.perf_counter()
        report = estimator(records)
        t_estimator = time.perf_counter() - t0
        f = fidelity(rho, report.estimate)
        return RunResult(n_total=n_total, fidelity=f,
                         bases_count=len(records), t_protocol=t_protocol,
                         t_estimator=t_estimator, run_index=run_index,
                         seed=seed_int, converged=report.converged,
                         iterations=report.iterations)
    except Exception as exc:  # a failed run is data, not a crash
        return RunResult(n_total=n_total, fidelity=float("nan"),
                         bases_count=0, t_protocol=0.0, t_estimator=0.0,
                         run_index=run_index, seed=seed_int, failed=True,
                         error=f"{type(exc).__name__}: {exc}")


def _run_task(args) -> RunResult:
    config, n_total, run_index = args
    return run_experiment(config, n_total, run_index)


def run_campaign(config: CampaignConfig, workers: int = 1,
                 on_batch=None) -> list[RunResult]:
    """Execute runs_per_n experiments for every sample size in the grid.

    Results are ordered by (grid position, run index) regardless of worker
    count. ``on_batch(n, results)`` is invoked after each sample size
    completes. Raises CampaignError if more than 1% of runs failed.
    """
    workers = max(1, int(workers))
    results: list[RunResult] = []
    for n_total in config.n_grid:
        tasks = [(config, n_total, run) for run in range(config.runs_per_n)]
        if workers == 1:
            batch = [_run_task(t) for t in tasks]
        else:
            chunk = max(1, len(tasks) // (workers * 8))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                batch = list(pool.map(_run_task, tasks, chunksize=chunk))
        batch.sort(key=lambda r: r.run_index)
        results.extend(batch)
        if on_batch is not None:
            on_batch(n_total, batch)
    failed = sum(r.failed for r in results)
    if failed > 0.01 * len(results):
        raise CampaignError(
            f"{failed} of {len(results)} runs failed", results=results)
    return results


def default_grid(test: TestKind, dims, f_target: float = 0.999) -> tuple[int, ...]:
    """Powers of 10 spanning the region where the infidelity percentile is
    expected to cross 1 - f_target (two decades of margin past the lower
    bound, capped at 10^7)."""
    dims = tuple(int(x) for x in dims)
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
        iterations=row.get("iterations"))
    return context, result

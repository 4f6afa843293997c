"""Benchmark computation: percentile curves, log-log interpolation to the
benchmark sample size, theoretical lower bounds, efficiency, and the
medcouple-adjusted outlier analysis."""

import csv
import json
from dataclasses import astuple, dataclass

import numpy as np

from .states import TestKind


@dataclass
class PercentileCurve:
    """Per-sample-size summaries over the experiment runs of one method."""

    n: np.ndarray           # sample sizes, strictly increasing
    infid_p95: np.ndarray   # 95th percentile of 1 - F
    m_p95: np.ndarray       # 95th percentile of the basis count
    tp_p95: np.ndarray      # 95th percentile of protocol time (s)
    te_p95: np.ndarray      # 95th percentile of estimator time (s)
    infid_mean: np.ndarray  # mean of 1 - F
    outlier: np.ndarray     # adjusted-boxplot outlier ratio of 1 - F


@dataclass
class BenchmarkReport:
    """One row of the benchmark table."""

    method: str
    n_b: float
    m95: float | None = None
    tp95_s: float | None = None
    te95_s: float | None = None
    eta: float | None = None
    outlier_ratio: float | None = None
    factorized: bool | None = None
    extrapolated: bool = False


def percentile(values, q: float = 0.95) -> float:
    """Empirical quantile with linear interpolation between order statistics
    (rank 1 + q(n-1))."""
    values = np.asarray(values, dtype=float).ravel()
    if values.size == 0:
        raise ValueError("cannot take a percentile of an empty sample")
    return float(np.quantile(values, q))


def nu(d: int, r: int) -> int:
    """Number of independent real parameters of a rank-r state: (2d - r) r - 1."""
    if not 1 <= r <= d:
        raise ValueError(f"rank must lie in 1..{d}")
    return (2 * d - r) * r - 1


def chi2_icdf(p: float, dof: int) -> float:
    """Inverse CDF of the chi-squared distribution."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    if dof < 1:
        raise ValueError("dof must be >= 1")
    # imported on first use, as in chi2_sf: runs that compute no chi-squared
    # value never load scipy
    from scipy.special import gammaincinv
    return float(2 * gammaincinv(dof / 2, p))


def chi2_sf(x: float, dof: int) -> float:
    """Upper-tail probability of the chi-squared distribution (1 for x < 0)."""
    if dof < 1:
        raise ValueError("dof must be >= 1")
    from scipy.special import chdtrc
    return float(chdtrc(dof, max(x, 0.0)))


def lower_bound_NB(f_target: float, d: int, r: int) -> float:
    """Smallest sample size any method could need to push the 95th infidelity
    percentile down to 1 - f_target."""
    if not 0.0 < f_target < 1.0:
        raise ValueError("target fidelity must lie strictly between 0 and 1")
    v = nu(d, r)
    return v * chi2_icdf(0.95, v) / (4.0 * (d - 1) * (1.0 - f_target))


def efficiency(mean_infidelity: float, n: float, d: int, r: int) -> float:
    """Ratio of the theoretical minimum mean infidelity to the achieved one:
    nu^2 / (4 n (d-1) <1-F>). Values above 1 are possible for protocols that
    discard part of their measurement events and are reported as-is."""
    if mean_infidelity <= 0:
        raise ValueError("mean infidelity must be positive")
    v = nu(d, r)
    return v * v / (4.0 * n * (d - 1) * mean_infidelity)


def medcouple(sample) -> float:
    """Robust skewness in [-1, 1]: the median of the kernel
    h(x+, x-) = ((x+ - Q2) - (Q2 - x-)) / (x+ - x-) over pairs strictly above
    and below the median. Pairs of values tied at the median contribute the
    signed kernel (+1/-1 by position), which is skew-neutral.

    Memory is O(n^2): the kernel is formed over all (n/2)^2 pairs, and each
    temporary holds about 8 (n/2)^2 bytes, about 800 MB at n = 20000 runs
    per sample size, with several such temporaries alive at once."""
    v = np.sort(np.asarray(sample, dtype=float).ravel())
    if v.size < 3:
        raise ValueError("medcouple needs at least 3 values")
    med = float(np.median(v))
    lo = v[v < med]
    hi = v[v > med]
    if lo.size == 0 or hi.size == 0:
        if np.all(v == v[0]):
            return 0.0
        raise ValueError("medcouple needs values on both sides of the median")
    kernels = (((hi[:, None] - med) - (med - lo[None, :]))
               / (hi[:, None] - lo[None, :])).ravel()
    ties = int(np.count_nonzero(v == med))
    if ties >= 2:
        grid = np.sign(np.subtract.outer(np.arange(ties), np.arange(ties)))
        kernels = np.concatenate([kernels, grid[~np.eye(ties, dtype=bool)]])
    return float(np.median(kernels))


def outlier_ratio(sample) -> float:
    """Fraction of points outside the medcouple-adjusted boxplot fence.

    For MC >= 0 the fence is [Q1 - 1.5 e^(-4 MC) IQR, Q3 + 1.5 e^(3 MC) IQR];
    for MC < 0 the mirrored exponents (-3 MC and 4 MC) apply. Degenerate
    samples fall back to the plain Tukey fence (MC = 0).
    """
    v = np.asarray(sample, dtype=float).ravel()
    if v.size < 4:
        raise ValueError("outlier analysis needs at least 4 values")
    q1 = percentile(v, 0.25)
    q3 = percentile(v, 0.75)
    iqr = q3 - q1
    try:
        mc = medcouple(v)
    except ValueError:
        mc = 0.0
    if mc >= 0:
        low = q1 - 1.5 * np.exp(-4.0 * mc) * iqr
        high = q3 + 1.5 * np.exp(3.0 * mc) * iqr
    else:
        low = q1 - 1.5 * np.exp(-3.0 * mc) * iqr
        high = q3 + 1.5 * np.exp(4.0 * mc) * iqr
    return float(np.mean((v < low) | (v > high)))


def interpolate_NB(curve: PercentileCurve, f_target: float) -> tuple[float, bool]:
    """Sample size where the interpolated 95th infidelity percentile reaches
    1 - f_target. Interpolation is linear in (log N, log [1-F]_95); targets
    beyond the simulated grid are linearly extrapolated from the nearest
    segment and flagged."""
    n = np.asarray(curve.n, dtype=float)
    y = np.asarray(curve.infid_p95, dtype=float)
    if n.size < 2:
        raise ValueError("need at least two grid points")
    if np.any(y <= 0):
        raise ValueError("infidelity percentiles must be positive on a log scale")
    target = 1.0 - f_target
    if target <= 0:
        raise ValueError("target fidelity must be below 1")
    ln, ly, lt = np.log10(n), np.log10(y), np.log10(target)
    # the first segment that brackets the target, else the nearest end one
    bracketed = [i for i in range(n.size - 1) if ly[i] >= lt >= ly[i + 1]]
    tail = lt < ly[-1]
    i = bracketed[0] if bracketed else (n.size - 2 if tail else 0)
    if not bracketed and ly[i + 1] >= ly[i]:
        end = "tail" if tail else "head"
        raise ValueError(f"no crossing: the curve {end} is not decreasing")
    if ly[i] == ly[i + 1]:
        return float(n[i]), False
    t = (lt - ly[i]) / (ly[i + 1] - ly[i])
    return float(10 ** (ln[i] + t * (ln[i + 1] - ln[i]))), not bracketed


def interpolate_at_NB(n_values, values, n_b: float) -> float:
    """Evaluate a per-N summary at the benchmark sample size: piecewise linear
    in log N, with nearest-segment linear extension beyond the grid."""
    n = np.asarray(n_values, dtype=float)
    v = np.asarray(values, dtype=float)
    if n.size == 0:
        raise ValueError("empty grid")
    if n.size == 1:
        return float(v[0])
    ln = np.log10(n)
    x = np.log10(n_b)
    i = int(np.clip(np.searchsorted(ln, x) - 1, 0, n.size - 2))
    t = (x - ln[i]) / (ln[i + 1] - ln[i])
    return float(v[i] + t * (v[i + 1] - v[i]))


def rank_for_test(test: TestKind, d: int) -> int:
    """Structural rank of each benchmark test's state class, used for the
    lower bound and efficiency."""
    return test.rank or d


def build_curve(results) -> PercentileCurve:
    """Summarize raw run results (failed runs excluded) into per-N percentiles.

    Every sample size needs at least 2 successful runs, so one whose runs all
    failed is an error rather than a gap in the curve. Outlier ratios require
    at least 4 runs per sample size and are NaN below that.
    """
    if all(r.failed for r in results):
        raise ValueError("no successful runs")
    by_n: dict[int, list] = {}
    for r in results:
        by_n.setdefault(r.n_total, []).append(r)
    ns = sorted(by_n)
    cols = {"infid_p95": [], "m_p95": [], "tp_p95": [], "te_p95": [],
            "infid_mean": [], "outlier": []}
    for n in ns:
        runs = [r for r in by_n[n] if not r.failed]
        if len(runs) < 2:
            raise ValueError(f"need at least 2 runs per sample size (N={n}): "
                             f"{len(runs)} of {len(by_n[n])} succeeded")
        infid = np.array([1.0 - r.fidelity for r in runs])
        cols["infid_p95"].append(percentile(infid, 0.95))
        cols["m_p95"].append(percentile([r.bases_count for r in runs], 0.95))
        cols["tp_p95"].append(percentile([r.t_protocol for r in runs], 0.95))
        cols["te_p95"].append(percentile([r.t_estimator for r in runs], 0.95))
        cols["infid_mean"].append(float(infid.mean()))
        cols["outlier"].append(outlier_ratio(infid) if infid.size >= 4 else np.nan)
    return PercentileCurve(n=np.array(ns, dtype=float),
                           **{k: np.array(v) for k, v in cols.items()})


def compile_report(results, f_target: float, d: int, r_true: int,
                   method: str = "", factorized: bool | None = None
                   ) -> BenchmarkReport:
    """Full benchmark row for one method, from its run results or its
    already-built PercentileCurve: N_B plus the interpolated values of every
    other resource at N_B. Extrapolated rows report only N_B."""
    curve = (results if isinstance(results, PercentileCurve)
             else build_curve(results))
    n_b, extrapolated = interpolate_NB(curve, f_target)
    if extrapolated:
        return BenchmarkReport(method, n_b, factorized=factorized,
                               extrapolated=True)
    eta_curve = [efficiency(m, n, d, r_true)
                 for m, n in zip(curve.infid_mean, curve.n)]
    ob = interpolate_at_NB(curve.n, curve.outlier, n_b)
    return BenchmarkReport(
        method=method,
        n_b=n_b,
        m95=interpolate_at_NB(curve.n, curve.m_p95, n_b),
        tp95_s=interpolate_at_NB(curve.n, curve.tp_p95, n_b),
        te95_s=interpolate_at_NB(curve.n, curve.te_p95, n_b),
        eta=interpolate_at_NB(curve.n, eta_curve, n_b),
        outlier_ratio=None if np.isnan(ob) else ob,
        factorized=factorized)


def lower_bound_report(f_target: float, d: int, r: int) -> BenchmarkReport:
    """The theoretical-optimum row of the benchmark table."""
    return BenchmarkReport("lower_bound", lower_bound_NB(f_target, d, r),
                           eta=1.0)


REPORT_COLUMNS = ("method", "N_B", "M95", "TP95_s", "TE95_s", "eta",
                  "outlier_ratio", "factorized", "extrapolated")


def report_rows(reports) -> list[dict]:
    return [dict(zip(REPORT_COLUMNS, astuple(rep))) for rep in reports]


def write_report_csv(reports, path):
    rows = report_rows(reports)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=REPORT_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: ("" if v is None else v) for k, v in row.items()})


def write_report_json(reports, path):
    with open(path, "w") as fh:
        json.dump(report_rows(reports), fh, indent=2)
        fh.write("\n")


def write_curve_csv(curve: PercentileCurve, path):
    """Plot data: the per-N percentile curve of one method."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["N", "infid_p95", "infid_mean", "M_p95",
                         "TP_p95_s", "TE_p95_s", "outlier_ratio"])
        for i in range(curve.n.size):
            writer.writerow([curve.n[i], curve.infid_p95[i],
                             curve.infid_mean[i], curve.m_p95[i],
                             curve.tp_p95[i], curve.te_p95[i],
                             curve.outlier[i]])

"""Benchmark computation: percentile curves, log-log interpolation to the
benchmark sample size, theoretical lower bounds, efficiency, and the
medcouple-adjusted outlier analysis."""

import contextlib
import csv
import json
import os
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


def _require_finite(v: np.ndarray, what: str):
    bad = int(np.count_nonzero(~np.isfinite(v)))
    if bad:
        raise ValueError(f"{what} needs finite values: {bad} of {v.size} "
                         "are NaN or infinite")


def _kernel(hi, lo, med):
    """The medcouple kernel of values hi above and lo below the median."""
    return ((hi - med) - (med - lo)) / (hi - lo)


def _bits(x) -> int:
    """The float64 bit pattern of x >= +0.0, which orders like x."""
    return int(np.float64(x).view(np.int64))


def _float(bits: int) -> float:
    return float(np.int64(bits).view(np.float64))


def _count_at_most(hi, lo, med, t, first, last):
    """Per row i, the number of kernels h(hi[i], lo[j]) <= t, found by
    bisection between first[i] and last[i], which must bracket it."""
    a, b = first.copy(), last.copy()
    rows = np.flatnonzero(a < b)
    while rows.size:
        mid = (a[rows] + b[rows]) // 2
        at_most = _kernel(hi[rows], lo[mid], med) <= t
        a[rows[at_most]] = mid[at_most] + 1
        b[rows[~at_most]] = mid[~at_most]
        rows = rows[a[rows] < b[rows]]
    return a


def _negative_counts(hi, lo, med):
    """Per row, the number of negative kernels, which open the row. They are
    the kernels <= -5e-324: a nonzero numerator is at least about 2^-54 of
    the denominator, so no kernel rounds to -0.0."""
    return _count_at_most(hi, lo, med, np.nextafter(0.0, -1.0),
                          np.zeros(hi.size, np.intp),
                          np.full(hi.size, lo.size, np.intp))


def _smallest_from(hi, lo, med, cols):
    """The smallest of the kernels h(hi[i], lo[cols[i]]) over the rows where
    cols[i] is a column."""
    rows = np.flatnonzero(cols < lo.size)
    return _kernel(hi[rows], lo[cols[rows]], med).min()


def _select_nonnegative(hi, lo, med, first, k1, k2):
    """The k1-th and k2-th smallest kernels (from 0, k2 - k1 <= 1) when both
    are >= 0; first[i] counts row i's negative kernels.

    Row i's candidates are its columns first[i]:last[i], the kernels in
    (t_low, t_high]; both bounds are kept as bit patterns, and low = -1 stands
    for the float just below +0.0."""
    last = np.full(hi.size, lo.size, np.intp)
    low, high = -1, _bits(1.0)
    bisect = False
    while high - low > 1:
        width = last - first
        if width.sum() <= hi.size + lo.size:
            row = np.repeat(np.arange(hi.size), width)
            col = np.arange(row.size) + np.repeat(
                first - (np.cumsum(width) - width), width)
            kernels = _kernel(hi[row], lo[col], med)
            base = int(first.sum())
            kernels.partition([k1 - base, k2 - base])
            return kernels[k1 - base], kernels[k2 - base]
        if bisect:
            probe = (low + high) // 2
        else:
            rows = np.flatnonzero(width)
            medians = _kernel(hi[rows],
                              lo[first[rows] + (width[rows] - 1) // 2], med)
            order = np.argsort(medians)
            weight = np.cumsum(width[rows][order])
            pivot = medians[order[np.searchsorted(weight, weight[-1] / 2)]]
            probe = min(max(_bits(pivot), low + 1), high - 1)
        bisect = not bisect
        count = _count_at_most(hi, lo, med, _float(probe), first, last)
        at_most = int(count.sum())
        if at_most <= k1:
            low, first = probe, count
        elif at_most > k2:
            high, last = probe, count
        else:  # the probe splits the middle pair
            rows = np.flatnonzero(count > first)
            return (_kernel(hi[rows], lo[count[rows] - 1], med).max(),
                    _smallest_from(hi, lo, med, count))
    return _float(high), _float(high)


def medcouple(sample) -> float:
    """Robust skewness in [-1, 1] (Brys, Hubert and Struyf, J. Comput. Graph.
    Stat. 13, 2004): the median of the kernel
    h(x+, x-) = ((x+ - Q2) - (Q2 - x-)) / (x+ - x-) over pairs strictly above
    and below the median Q2.

    Every computed kernel lies in [-1, 1], since rounding keeps the numerator
    no larger than the denominator in magnitude. Pairs of values tied at the
    median would add as many kernels -1 as +1 (signed by position), so they
    cannot move the median and are not formed.

    With both halves sorted the kernels form a matrix, one row per value above
    Q2 and one column per value below it, in ascending order. Along a row
    the rounded numerator grows and the rounded denominator shrinks, so each
    row holds its negative kernels first and then the others in nondecreasing
    order. The middle kernels are selected on this matrix without forming
    it. Each row keeps a range of candidate columns; every round probes a
    threshold t, counts the kernels <= t in each row by bisection within its
    range, and cuts the ranges to the side that holds the middle pair. The
    probes alternate between the weighted median of the row medians
    (Johnson and Mizoguchi, SIAM J. Comput. 7, 1978) and the midpoint of the
    float64 bit patterns between the bounds, which ends the search within
    124 rounds. Once at most n candidates remain, `np.partition` picks the
    middle pair among them. Only the nonnegative part of a row is sure to be
    ordered, so no probe is negative: a negative middle is found on the
    mirrored sample -x, whose kernels are exactly the negated ones. A round
    costs O(n log n), so time is O(n log n) and memory O(n); the value is
    bit for bit the `np.median` of all (n/2)^2 kernels."""
    v = np.sort(np.asarray(sample, dtype=float).ravel())
    if v.size < 3:
        raise ValueError("medcouple needs at least 3 values")
    _require_finite(v, "medcouple")
    med = float(np.median(v))
    lo = v[v < med]
    hi = v[v > med]
    if lo.size == 0 or hi.size == 0:
        if np.all(v == v[0]):
            return 0.0
        raise ValueError("medcouple needs values on both sides of the median")
    pairs = hi.size * lo.size
    k1, k2 = (pairs - 1) // 2, pairs // 2
    neg = _negative_counts(hi, lo, med)
    if neg.sum() <= k1:
        a, b = _select_nonnegative(hi, lo, med, neg, k1, k2)
    else:
        # -x has the negated kernels, so its k1-th is our k2-th and back
        mhi, mlo = -lo[::-1], -hi[::-1]
        mneg = _negative_counts(mhi, mlo, -med)
        if mneg.sum() <= k1:
            b, a = (-x for x in _select_nonnegative(mhi, mlo, -med, mneg,
                                                     k1, k2))
        else:  # half negative, half positive: the pair straddles 0
            a = -_smallest_from(mhi, mlo, -med, mneg)
            b = _smallest_from(hi, lo, med, neg)
    return float(a) if k1 == k2 else float((a + b) / 2)


def outlier_ratio(sample) -> float:
    """Fraction of points outside the medcouple-adjusted boxplot fence.

    For MC >= 0 the fence is [Q1 - 1.5 e^(-4 MC) IQR, Q3 + 1.5 e^(3 MC) IQR];
    for MC < 0 the mirrored exponents (-3 MC and 4 MC) apply. A sample with
    no values on one side of its median has no medcouple and gets the plain
    Tukey fence (MC = 0).
    """
    v = np.asarray(sample, dtype=float).ravel()
    if v.size < 4:
        raise ValueError("outlier analysis needs at least 4 values")
    _require_finite(v, "outlier analysis")
    q1 = percentile(v, 0.25)
    q3 = percentile(v, 0.75)
    iqr = q3 - q1
    med = np.median(v)
    mc = medcouple(v) if v.min() < med < v.max() else 0.0
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


@contextlib.contextmanager
def _replacing(path, newline=None):
    """Open a temporary file beside path for writing. It replaces path when
    the block succeeds and is removed when the block raises, so path only
    ever holds a whole file."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_report_csv(reports, path):
    rows = report_rows(reports)
    with _replacing(path, newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=REPORT_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: ("" if v is None else v) for k, v in row.items()})


def write_report_json(reports, path):
    with _replacing(path) as fh:
        json.dump(report_rows(reports), fh, indent=2)
        fh.write("\n")


def write_curve_csv(curve: PercentileCurve, path):
    """Plot data: the per-N percentile curve of one method."""
    with _replacing(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["N", "infid_p95", "infid_mean", "M_p95",
                         "TP_p95_s", "TE_p95_s", "outlier_ratio"])
        for i in range(curve.n.size):
            writer.writerow([curve.n[i], curve.infid_p95[i],
                             curve.infid_mean[i], curve.m_p95[i],
                             curve.tp_p95[i], curve.te_p95[i],
                             curve.outlier[i]])

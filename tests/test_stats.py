import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.special

from qtbench.engine import RunResult
from qtbench.states import TestKind
from qtbench import stats
from qtbench.stats import (
    BenchmarkReport,
    PercentileCurve,
    build_curve,
    chi2_icdf,
    chi2_sf,
    compile_report,
    efficiency,
    interpolate_NB,
    interpolate_at_NB,
    lower_bound_NB,
    lower_bound_report,
    medcouple,
    nu,
    outlier_ratio,
    percentile,
    rank_for_test,
    write_curve_csv,
    write_report_csv,
    write_report_json,
)


def chi2_icdf_oracle(p, dof, tol=1e-12):
    """Bisection on the regularized incomplete gamma: CDF(x) = P(dof/2, x/2)."""
    lo, hi = 0.0, 1.0
    while scipy.special.gammainc(dof / 2, hi / 2) < p:
        hi *= 2
    while hi - lo > tol * max(1.0, hi):
        mid = (lo + hi) / 2
        if scipy.special.gammainc(dof / 2, mid / 2) < p:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def runs_from_infidelities(infid_by_n, m=9.0):
    results = []
    for n, infids in infid_by_n.items():
        for i, x in enumerate(infids):
            results.append(RunResult(n_total=n, fidelity=1.0 - x, bases_count=int(m),
                                     t_protocol=0.001, t_estimator=0.01,
                                     run_index=i, seed=i))
    return results


class TestPercentile:
    def test_interpolated_rank_formula(self):
        assert percentile(np.arange(1, 101), 0.95) == pytest.approx(95.05)

    def test_constant(self):
        assert percentile([3.0, 3.0, 3.0]) == 3.0

    def test_q_one_is_max(self):
        assert percentile([5.0, 1.0, 2.0], 1.0) == 5.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([])


class TestNu:
    def test_values(self):
        assert nu(4, 1) == 6
        assert nu(4, 4) == 15
        assert nu(2, 1) == 2

    def test_range(self):
        with pytest.raises(ValueError):
            nu(4, 0)
        with pytest.raises(ValueError):
            nu(4, 5)


class TestChi2Icdf:
    def test_against_incomplete_gamma_bisection(self):
        for p, dof in ((0.95, 6), (0.95, 15), (0.5, 3), (0.99, 21)):
            oracle = chi2_icdf_oracle(p, dof)
            assert chi2_icdf(p, dof) == pytest.approx(oracle, rel=1e-9)

    def test_frozen_values(self):
        assert chi2_icdf(0.95, 6) == pytest.approx(12.59158724, abs=1e-4)
        assert chi2_icdf(0.95, 15) == pytest.approx(24.99579014, abs=1e-4)

    def test_dof2_closed_form(self):
        assert chi2_icdf(0.95, 2) == pytest.approx(-2 * np.log(0.05), rel=1e-12)

    def test_range_checks(self):
        with pytest.raises(ValueError):
            chi2_icdf(0.0, 3)
        with pytest.raises(ValueError):
            chi2_icdf(0.5, 0)


class TestChi2Sf:
    def test_against_incomplete_gamma(self):
        for x, dof in ((12.5, 6), (3.0, 15), (0.2, 1), (40.0, 21)):
            oracle = scipy.special.gammaincc(dof / 2, x / 2)
            assert chi2_sf(x, dof) == pytest.approx(oracle, rel=1e-9)

    def test_inverts_icdf(self):
        assert chi2_sf(chi2_icdf(0.95, 15), 15) == pytest.approx(0.05,
                                                                 rel=1e-9)


class TestChi2MatchesScipyStats:
    # chi2_icdf and chi2_sf call the scipy.special functions that
    # scipy.stats.chi2 wraps; only this test imports scipy.stats
    DOFS = (*range(1, 301), 1000, 3000, 5000)

    def test_bit_identical(self):
        from scipy.stats import chi2
        xs = np.linspace(0.0, 1e5, 401)
        for dof in self.DOFS:
            for p in (0.5, 0.9, 0.95, 0.975, 0.99):
                assert chi2_icdf(p, dof) == float(chi2.ppf(p, dof))
            assert [chi2_sf(float(x), dof) for x in xs] == \
                chi2.sf(xs, dof).tolist()

    def test_edge_cases(self):
        assert chi2_sf(-1.0, 3) == 1.0
        assert chi2_sf(float("inf"), 3) == 0.0
        assert np.isnan(chi2_sf(float("nan"), 3))
        with pytest.raises(ValueError, match="dof"):
            chi2_sf(1.0, 0)


def test_scipy_stats_never_loads(tmp_path):
    # a static run loads no scipy module, and chi-squared values, an arml
    # fit and a report load scipy.special but never scipy.stats
    code = ("import contextlib, io, sys, qtbench\n"
            "from qtbench.cli import main\n"
            "def loaded(name):\n"
            "    return any(m == name or m.startswith(name + '.')\n"
            "               for m in sys.modules)\n"
            "config = qtbench.CampaignConfig(dims=(2, 2), test='rps', "
            "protocol='fmub', estimator='trml:1', n_grid=(1000,), "
            "runs_per_n=2)\n"
            "assert not qtbench.run_experiment(config, 1000, 0).failed\n"
            "print(loaded('scipy'))\n"
            "qtbench.chi2_icdf(0.95, 3)\n"
            "qtbench.stats.chi2_sf(7.8, 3)\n"
            "print(loaded('scipy.stats'))\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['analyze', '--dims', '2,2', '--test', 'rps',\n"
            "                 '--method', 'fmub+arml', '--grid', '200,400',\n"
            "                 '--runs', '4', '--out', sys.argv[1]]) == 0\n"
            "    assert main(['report', sys.argv[1] + '/raw_rps_fmub-arml.jsonl',\n"
            "                 '--out', sys.argv[1]]) == 0\n"
            "print(loaded('scipy.special'), loaded('scipy.stats'))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "True", "False"]


class TestLowerBound:
    def test_benchmark_sample_sizes(self):
        assert abs(lower_bound_NB(0.999, 4, 1) - 6296) <= 1
        assert abs(lower_bound_NB(0.999, 4, 4) - 31245) <= 1
        assert abs(lower_bound_NB(0.999, 2, 1) - 2996) <= 1


class TestEfficiency:
    def test_optimal_estimator_scores_one(self):
        d, r, n = 4, 1, 10_000
        v = nu(d, r)
        d0 = v / (4 * n * (d - 1))
        assert efficiency(v * d0, n, d, r) == pytest.approx(1.0, rel=1e-12)

    def test_formula_value(self):
        assert efficiency(5e-4, 10_000, 4, 1) == pytest.approx(0.6, rel=1e-12)

    def test_inverse_proportionality(self):
        assert efficiency(2e-4, 1000, 2, 1) == pytest.approx(
            efficiency(1e-4, 1000, 2, 1) / 2, rel=1e-12)


def medcouple_oracle(sample):
    """The O(n^2) definition: np.median over every kernel of a pair strictly
    above and below the median, plus the signed +-1 kernels of pairs tied at
    the median."""
    v = np.sort(np.asarray(sample, dtype=float).ravel())
    med = float(np.median(v))
    lo = v[v < med]
    hi = v[v > med]
    kernels = (((hi[:, None] - med) - (med - lo[None, :]))
               / (hi[:, None] - lo[None, :])).ravel()
    ties = int(np.count_nonzero(v == med))
    if ties >= 2:
        grid = np.sign(np.subtract.outer(np.arange(ties), np.arange(ties)))
        kernels = np.concatenate([kernels, grid[~np.eye(ties, dtype=bool)]])
    return float(np.median(kernels))


# six sample families: symmetric, heavy right tails, many ties (also at the
# median), a spread of a few ulps, and a heavy left tail near 0
MEDCOUPLE_FAMILIES = {
    "normal": lambda rng, n: rng.standard_normal(n),
    "lognormal": lambda rng, n: rng.lognormal(0.0, 3.0, n),
    "cubed_exponential": lambda rng, n: rng.exponential(size=n) ** 3,
    "rounded_normal": lambda rng, n: np.round(2.0 * rng.standard_normal(n)),
    "near_constant":
        lambda rng, n: 1e-3 * (1 + 1e-12 * rng.standard_normal(n)),
    "one_minus_beta": lambda rng, n: 1 - rng.beta(200.0, 1.0, n),
}


class TestMedcouple:
    def test_symmetric_triple(self):
        assert medcouple([1.0, 2.0, 3.0]) == 0.0

    def test_single_pair_kernel(self):
        # only pair strictly around the median: ((4-2)-(2-1))/(4-1) = 1/3
        assert medcouple([1.0, 2.0, 4.0]) == pytest.approx(1 / 3)

    def test_bounded(self):
        rng = np.random.default_rng(110)
        for _ in range(50):
            v = rng.standard_normal(rng.integers(3, 40)) * 10
            assert -1.0 <= medcouple(v) <= 1.0

    def test_location_scale_invariance(self):
        rng = np.random.default_rng(111)
        for _ in range(20):
            v = rng.gamma(2.0, size=25)
            mc = medcouple(v)
            assert medcouple(3.7 * v + 11.0) == pytest.approx(mc, abs=1e-12)

    def test_degenerate_sample(self):
        assert medcouple([2.0, 2.0, 2.0, 2.0]) == 0.0

    def test_one_sided_sample_rejected(self):
        with pytest.raises(ValueError, match="both sides of the median"):
            medcouple([1.0, 1.0, 1.0, 2.0])

    def test_positively_skewed_is_positive(self):
        rng = np.random.default_rng(112)
        v = rng.chisquare(3, size=1001)
        assert medcouple(v) > 0.1

    def test_equals_oracle_bit_for_bit(self):
        # 2016 samples, n log-uniform in 3..3000; exact equality, not approx
        rng = np.random.default_rng(116)
        parities = set()
        for name, draw in MEDCOUPLE_FAMILIES.items():
            for n in np.round(np.geomspace(3, 3000, 336)).astype(int):
                v = draw(rng, int(n))
                med = np.median(v)
                pairs = np.count_nonzero(v < med) * np.count_nonzero(v > med)
                if pairs == 0 and np.any(v != v[0]):
                    with pytest.raises(ValueError, match="both sides"):
                        medcouple(v)
                    continue
                parities.add(pairs % 2)
                assert medcouple(v) == medcouple_oracle(v), (name, n)
        assert parities == {0, 1}

    @pytest.mark.parametrize("v", [
        [-3.0, -1.0, 2.0, 4.0],        # half the kernels < 0, half > 0
        [-4.0, -2.0, 1.0, 3.0, 5.0],   # negative medcouple
        [0.0, 1.0, 1.0, 1.0, 1.0, 2.0],
        [-2.0, -1.0, 0.0, 0.0, 0.0, 1.0, 2.0, 3.0]])
    def test_small_cases_equal_oracle(self, v):
        assert medcouple(v) == medcouple_oracle(v)

    def test_mirrored_sample_negates(self):
        rng = np.random.default_rng(117)
        for draw in MEDCOUPLE_FAMILIES.values():
            v = draw(rng, 1001)
            assert medcouple(-v) == -medcouple(v) == -medcouple_oracle(v)

    def test_many_ties_equal_oracle(self):
        # most kernels are exactly 0 or +-1/3: the search ends on a single float
        v = np.round(np.random.default_rng(118).standard_normal(4000))
        assert medcouple(v) == medcouple_oracle(v)

    def test_peak_memory_at_twenty_thousand_values(self):
        v = np.random.default_rng(119).exponential(size=20_000)
        tracemalloc.start()
        try:
            medcouple(v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="1 of 6 are NaN or infinite"):
            medcouple([1.0, bad, 2.0, 3.0, 4.0, 5.0])


class TestOutlierRatio:
    def outlier_oracle(self, v):
        """Adjusted-boxplot reimplementation with explicit loops."""
        v = np.sort(np.asarray(v, float))
        q1, q3 = np.quantile(v, 0.25), np.quantile(v, 0.75)
        iqr = q3 - q1
        med = np.median(v)
        kernels = []
        for hi in v[v > med]:
            for lo in v[v < med]:
                kernels.append(((hi - med) - (med - lo)) / (hi - lo))
        mc = float(np.median(kernels))
        if mc >= 0:
            lo_f, hi_f = q1 - 1.5 * np.exp(-4 * mc) * iqr, q3 + 1.5 * np.exp(3 * mc) * iqr
        else:
            lo_f, hi_f = q1 - 1.5 * np.exp(-3 * mc) * iqr, q3 + 1.5 * np.exp(4 * mc) * iqr
        return float(np.mean((v < lo_f) | (v > hi_f)))

    def test_symmetric_reduces_to_tukey(self):
        # symmetrized samples have MC = 0, so the fence must be Tukey's
        rng = np.random.default_rng(113)
        for _ in range(50):
            half = rng.standard_normal(15)
            v = np.concatenate([half, -half])  # exactly symmetric about 0
            assert medcouple(v) == pytest.approx(0.0, abs=1e-12)
            q1, q3 = np.quantile(v, 0.25), np.quantile(v, 0.75)
            iqr = q3 - q1
            tukey = float(np.mean((v < q1 - 1.5 * iqr) | (v > q3 + 1.5 * iqr)))
            assert outlier_ratio(v) == pytest.approx(tukey)

    def test_single_extreme_point(self):
        v = np.concatenate([np.linspace(0.9, 1.1, 19), [150.0]])
        assert outlier_ratio(v) == pytest.approx(1 / 20)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(114)
        for _ in range(20):
            v = rng.chisquare(4, size=101)
            assert outlier_ratio(v) == pytest.approx(self.outlier_oracle(v))

    def test_chi2_calibration(self):
        rng = np.random.default_rng(115)
        v = rng.chisquare(6, size=10_000)
        assert 0.001 <= outlier_ratio(v) <= 0.05

    def test_one_sided_sample_uses_tukey_fence(self):
        # no value below the median: MC = 0, IQR = 0, so 2 lies outside
        assert outlier_ratio([1.0, 1.0, 1.0, 1.0, 2.0]) == 0.2

    def test_medcouple_errors_propagate(self, monkeypatch):
        def broken(sample):
            raise ValueError("selection failed")
        monkeypatch.setattr(stats, "medcouple", broken)
        with pytest.raises(ValueError, match="selection failed"):
            outlier_ratio([1.0, 2.0, 3.0, 4.0, 9.0])

    @pytest.mark.parametrize("v", [[1.0, np.nan, 2.0, 3.0, 4.0, 5.0],
                                   [1.0, 2.0, 3.0, np.inf, 5.0, 6.0]])
    def test_non_finite_rejected(self, v):
        with pytest.raises(ValueError, match="outlier analysis needs finite "
                                             "values: 1 of 6"):
            outlier_ratio(v)

    def test_small_sample_rejected(self):
        with pytest.raises(ValueError):
            outlier_ratio([1.0, 2.0, 3.0])


def flat_curve(n, infid):
    n = np.asarray(n, float)
    infid = np.asarray(infid, float)
    ones = np.ones_like(n)
    return PercentileCurve(n=n, infid_p95=infid, m_p95=9 * ones,
                           tp_p95=0.001 * ones, te_p95=0.01 * ones,
                           infid_mean=infid, outlier=0.01 * ones)


class TestInterpolateNB:
    def test_grid_endpoint(self):
        curve = flat_curve([1e3, 1e4], [1e-2, 1e-3])
        n_b, extrapolated = interpolate_NB(curve, 0.999)
        assert n_b == pytest.approx(1e4, rel=1e-12)
        assert not extrapolated

    def test_log_log_midpoint(self):
        curve = flat_curve([1e3, 1e4], [1e-2, 1e-3])
        n_b, extrapolated = interpolate_NB(curve, 1 - 10**-2.5)
        assert n_b == pytest.approx(10**3.5, rel=1e-9)
        assert not extrapolated

    def test_extrapolation_beyond_grid(self):
        curve = flat_curve([1e3, 1e4], [1e-2, 1e-3])
        n_b, extrapolated = interpolate_NB(curve, 1 - 1e-4)
        assert n_b == pytest.approx(1e5, rel=1e-9)
        assert extrapolated

    def test_constant_curve_at_target_picks_first_point(self):
        # runs whose fidelity sits exactly at the target at every N
        infid = 1.0 - 0.999
        curve = flat_curve([1e3, 1e4], [infid, infid])
        n_b, extrapolated = interpolate_NB(curve, 0.999)
        assert n_b == 1e3
        assert not extrapolated

    def test_first_downward_crossing_wins(self):
        curve = flat_curve([1e2, 1e3, 1e4, 1e5], [1e-2, 1e-3, 5e-3, 1e-4])
        n_b, extrapolated = interpolate_NB(curve, 0.999)
        assert n_b == pytest.approx(1e3, rel=1e-12)
        assert not extrapolated

    def test_upward_tail_without_crossing_errors(self):
        curve = flat_curve([1e3, 1e4], [5e-3, 8e-3])
        with pytest.raises(ValueError, match="not decreasing"):
            interpolate_NB(curve, 0.999)

    def test_rising_head_without_crossing_errors(self):
        curve = flat_curve([1e3, 1e4, 1e5], [2e-3, 3e-3, 1e-3])
        with pytest.raises(ValueError, match="curve head is not decreasing"):
            interpolate_NB(curve, 1 - 1e-2)

    def test_extrapolation_before_grid(self):
        curve = flat_curve([1e3, 1e4, 1e5], [1e-2, 1e-3, 5e-4])
        n_b, extrapolated = interpolate_NB(curve, 1 - 1e-1)
        assert n_b == pytest.approx(1e2, rel=1e-9)
        assert extrapolated

    def test_identity_on_exact_log_log_line(self):
        # slope -0.7 synthetic line: interpolation must invert exactly
        n = np.array([1e2, 1e3, 1e4, 1e5])
        infid = 10.0 * n**-0.7
        curve = flat_curve(n, infid)
        for target_n in (10**2.5, 10**3.25, 10**4.9):
            target_f = 1.0 - 10.0 * target_n**-0.7
            n_b, extrapolated = interpolate_NB(curve, target_f)
            assert n_b == pytest.approx(target_n, rel=1e-9)
            assert not extrapolated


class TestInterpolateAtNB:
    def test_grid_point_exact(self):
        assert interpolate_at_NB([1e3, 1e4], [5.0, 7.0], 1e4) == pytest.approx(7.0)

    def test_constant(self):
        assert interpolate_at_NB([1e3, 1e4, 1e5], [9.0, 9.0, 9.0], 4.2e3) == 9.0

    def test_log_linear(self):
        assert interpolate_at_NB([1e3, 1e4], [1.0, 3.0], 10**3.5) == pytest.approx(2.0)

    def test_extension_beyond_grid(self):
        assert interpolate_at_NB([1e3, 1e4], [1.0, 3.0], 1e5) == pytest.approx(5.0)


class TestCompileReport:
    def test_constant_at_target(self):
        results = runs_from_infidelities({1000: [1e-3] * 10, 10_000: [1e-3] * 10})
        rep = compile_report(results, 0.999, 4, 1, method="x")
        assert rep.n_b == pytest.approx(1000)
        assert not rep.extrapolated

    def test_exact_inversion_of_ten_over_n(self):
        results = runs_from_infidelities(
            {n: [10.0 / n] * 10 for n in (1000, 10_000, 100_000)})
        rep = compile_report(results, 0.999, 4, 1, method="x")
        assert rep.n_b == pytest.approx(1e4, rel=1e-9)
        assert rep.m95 == pytest.approx(9.0)

    def test_lower_bound_synthetic_data_scores_unit_efficiency(self):
        # infidelities drawn from the theoretical-optimum distribution
        # d0 chi^2_nu must compile to eta ~ 1
        rng = np.random.default_rng(116)
        d, r = 4, 1
        v = nu(d, r)
        data = {}
        # grid straddling the crossing at N_B ~ 6296
        for n in (2000, 20_000):
            d0 = v / (4 * n * (d - 1))
            data[n] = d0 * rng.chisquare(v, size=10_000)
        rep = compile_report(runs_from_infidelities(data), 0.999, d, r, method="lb")
        assert rep.eta == pytest.approx(1.0, abs=0.05)
        assert not rep.extrapolated

    def test_extrapolated_row_reports_only_nb(self):
        results = runs_from_infidelities({1000: [1e-2] * 10, 10_000: [1e-3 * 3] * 10})
        rep = compile_report(results, 0.999, 4, 1, method="x")
        assert rep.extrapolated
        assert rep.m95 is None and rep.eta is None and rep.tp95_s is None

    def test_failed_runs_excluded(self):
        results = runs_from_infidelities({1000: [1e-3] * 10, 10_000: [1e-3] * 10})
        results.append(RunResult(n_total=1000, fidelity=float("nan"),
                                 bases_count=0, t_protocol=0, t_estimator=0,
                                 run_index=99, seed=0, failed=True))
        rep = compile_report(results, 0.999, 4, 1, method="x")
        assert rep.n_b == pytest.approx(1000)

    def test_build_curve_requires_two_runs(self):
        results = runs_from_infidelities({1000: [1e-3]})
        with pytest.raises(ValueError, match="2 runs"):
            build_curve(results)

    def test_sample_size_whose_runs_all_failed_is_an_error(self):
        results = runs_from_infidelities({1000: [1e-3] * 5, 10_000: [1e-4] * 5})
        results += [RunResult(n_total=100, fidelity=float("nan"),
                              bases_count=0, t_protocol=0.0, t_estimator=0.0,
                              run_index=i, seed=i, failed=True)
                    for i in range(5)]
        with pytest.raises(ValueError,
                           match=r"2 runs .*\(N=100\): 0 of 5 succeeded"):
            build_curve(results)


class TestReportRows:
    def test_lower_bound_row(self):
        rep = lower_bound_report(0.999, 4, 1)
        assert round(rep.n_b) == 6296
        assert rep.eta == 1.0
        assert rep.m95 is None

    def test_rank_for_test(self):
        assert rank_for_test(TestKind.RPS, 4) == 1
        assert rank_for_test(TestKind.RMSPT2, 4) == 2
        assert rank_for_test(TestKind.RMSPTD, 4) == 4
        assert rank_for_test(TestKind.RNP, 4) == 4


class Unprintable:
    """A cell whose text cannot be formed: writing it raises midway."""

    def __str__(self):
        raise RuntimeError("unprintable cell")


class TestReportFilesAreReplacedWhole:
    def good_files(self, tmp_path):
        reports = [lower_bound_report(0.999, 4, 1)]
        curve = flat_curve([1e3, 1e4], [1e-2, 1e-3])
        writes = {"report.csv": (write_report_csv, reports),
                  "report.json": (write_report_json, reports),
                  "curve.csv": (write_curve_csv, curve)}
        for name, (write, data) in writes.items():
            write(data, tmp_path / name)
        return writes

    def test_failed_write_leaves_previous_file(self, tmp_path):
        self.good_files(tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        bad_reports = [lower_bound_report(0.999, 4, 1),
                       BenchmarkReport(Unprintable(), 1.0)]
        bad_curve = flat_curve([1e3, 1e4], [1e-2, 1e-3])
        bad_curve.outlier = np.array([0.01, Unprintable()], dtype=object)
        with pytest.raises(RuntimeError, match="unprintable"):
            write_report_csv(bad_reports, tmp_path / "report.csv")
        with pytest.raises(TypeError, match="not JSON serializable"):
            write_report_json(bad_reports, tmp_path / "report.json")
        with pytest.raises(RuntimeError, match="unprintable"):
            write_curve_csv(bad_curve, tmp_path / "curve.csv")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_rewrite_replaces_file(self, tmp_path):
        writes = self.good_files(tmp_path)
        (tmp_path / "report.csv").write_text("stale\n")
        write, data = writes["report.csv"]
        write(data, tmp_path / "report.csv")
        assert (tmp_path / "report.csv").read_text().startswith("method,N_B")
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(writes)

from dataclasses import replace

import numpy as np
import pytest

from qtbench.engine import born_probabilities, sample_counts
from qtbench.estimators import (
    FIXED_POINT_TOL,
    MeasurementRecord,
    arml,
    chi2_pvalue,
    chi2_statistic,
    frls,
    frml,
    log_likelihood,
    ppi,
    trml,
)
from qtbench.protocols import fmub_protocol, mub_protocol
from qtbench.qcore import DensityMatrix, fidelity, haar_unitary
from qtbench.states import gen_rmspt, gen_rps


def exact_records(rho, specs, shots):
    """Infinite-sample idealization: fractional counts = probabilities x shots."""
    return [MeasurementRecord(replace(s, shots=shots),
                              born_probabilities(rho, s.povm) * shots)
            for s in specs]


def sampled_records(rho, specs, shots, rng):
    return [MeasurementRecord(replace(s, shots=shots),
                              sample_counts(born_probabilities(rho, s.povm),
                                            shots, rng))
            for s in specs]


def root_factor_residual(est, records, r):
    """max|R c - mu c| of the likelihood equation at the rank-r root factor
    c = V sqrt(lambda) of est (top r eigenpairs). Eigenvalues below 1e-14
    are roundoff of zero eigenvalues and count as zero: their square roots
    would add columns of norm ~1e-8 that no estimate can pin down."""
    w, v = np.linalg.eigh(est.mat)
    c = v[:, -r:] * np.sqrt(np.where(w[-r:] < 1e-14, 0.0, w[-r:]))
    n = sum(rec.counts.sum() for rec in records)
    r_op = np.zeros_like(est.mat)
    for rec in records:
        probs = born_probabilities(est, rec.spec.povm)
        for count, prob, elem in zip(rec.counts, probs, rec.spec.povm.elements):
            if count > 0:
                r_op += (count / n / prob) * elem
    rc = r_op @ c
    mu = np.real(np.trace(c.conj().T @ rc))
    return float(np.max(np.abs(rc - mu * c)))


def least_squares_objective(est, records):
    total = 0.0
    for rec in records:
        p = born_probabilities(est, rec.spec.povm)
        f = rec.counts / rec.spec.shots
        total += rec.spec.shots * float(np.sum((f - p) ** 2))
    return total


class TestMeasurementRecord:
    def test_count_sum_must_match_shots(self):
        spec = replace(mub_protocol((2,))[0], shots=10)
        with pytest.raises(ValueError, match="does not match shots"):
            MeasurementRecord(spec, np.array([4.0, 5.0]))

    def test_rejects_negative_counts(self):
        spec = replace(mub_protocol((2,))[0], shots=10)
        with pytest.raises(ValueError, match="nonnegative"):
            MeasurementRecord(spec, np.array([11.0, -1.0]))


class TestLogLikelihood:
    def test_maximally_mixed(self):
        rho = DensityMatrix((2,), np.eye(2) / 2)
        recs = exact_records(rho, mub_protocol((2,)), 100)
        expected = sum(float(np.sum(r.counts * np.log(0.5))) for r in recs)
        assert log_likelihood(rho, recs) == pytest.approx(expected, abs=1e-9)

    def test_eigenstate_single_basis(self):
        rho = DensityMatrix((2,), np.diag([1.0, 0.0]).astype(complex))
        spec = replace(mub_protocol((2,))[0], shots=50)  # computational basis
        recs = [MeasurementRecord(spec, np.array([50.0, 0.0]))]
        assert log_likelihood(rho, recs) == 0.0

    def test_matches_direct_summation_oracle(self):
        rng = np.random.default_rng(60)
        rho = gen_rmspt((2,), 2, rng)
        recs = sampled_records(rho, mub_protocol((2,)), 100, rng)
        oracle = 0.0
        for rec in recs:
            for k, n in enumerate(rec.counts):
                if n > 0:
                    p = float(np.real(np.trace(rho.mat @ rec.spec.povm.elements[k])))
                    oracle += n * np.log(p)
        assert log_likelihood(rho, recs) == pytest.approx(oracle, abs=1e-10)

    def test_impossible_outcome_is_minus_inf(self):
        rho = DensityMatrix((2,), np.diag([1.0, 0.0]).astype(complex))
        spec = replace(mub_protocol((2,))[0], shots=10)
        recs = [MeasurementRecord(spec, np.array([0.0, 10.0]))]
        assert log_likelihood(rho, recs) == -np.inf


class TestPpi:
    def test_noiseless_inversion(self):
        rng = np.random.default_rng(61)
        rho = gen_rmspt((2, 2), 4, rng)
        rep = ppi(exact_records(rho, fmub_protocol((2, 2)), 1000))
        assert np.max(np.abs(rep.estimate.mat - rho.mat)) <= 1e-8

    def test_maximally_mixed(self):
        rho = DensityMatrix((2, 2), np.eye(4) / 4)
        rep = ppi(exact_records(rho, fmub_protocol((2, 2)), 1000))
        assert np.max(np.abs(rep.estimate.mat - np.eye(4) / 4)) <= 1e-8

    def test_spectrum_projection(self):
        # noiseless frequencies of an indefinite trace-one Hermitian matrix:
        # the pseudo-inverse recovers it exactly and the estimate's spectrum
        # must be the simplex projection [0.55, 0.45, 0]
        rng = np.random.default_rng(62)
        v = haar_unitary(3, rng)
        x = (v * np.array([0.6, 0.5, -0.1])) @ v.conj().T
        specs = mub_protocol((3,))
        recs = []
        for s in specs:
            f = np.real(np.einsum("kij,ji->k", s.povm.elements, x))
            assert np.all(f > 0)  # usable as frequencies for this rotation
            recs.append(MeasurementRecord(replace(s, shots=1000), f * 1000))
        rep = ppi(recs)
        w = np.linalg.eigvalsh(rep.estimate.mat)[::-1]
        np.testing.assert_allclose(w, [0.55, 0.45, 0.0], atol=1e-8)

    def test_incomplete_records_rejected(self):
        rho = DensityMatrix((2,), np.eye(2) / 2)
        recs = exact_records(rho, mub_protocol((2,))[:1], 100)
        with pytest.raises(ValueError, match="incomplete"):
            ppi(recs)


class TestFrls:
    def test_noiseless_recovery(self):
        rng = np.random.default_rng(63)
        rho = gen_rmspt((2, 2), 4, rng)
        rep = frls(exact_records(rho, fmub_protocol((2, 2)), 1000))
        assert np.max(np.abs(rep.estimate.mat - rho.mat)) <= 1e-6

    def test_objective_not_worse_than_ppi(self):
        rng = np.random.default_rng(64)
        for _ in range(10):
            rho = gen_rps((2, 2), rng)
            recs = sampled_records(rho, fmub_protocol((2, 2)), 500, rng)
            obj_ls = least_squares_objective(frls(recs).estimate, recs)
            obj_pi = least_squares_objective(ppi(recs).estimate, recs)
            assert obj_ls <= obj_pi + 1e-9

    def test_incomplete_rejected(self):
        rho = DensityMatrix((2,), np.eye(2) / 2)
        recs = exact_records(rho, mub_protocol((2,))[:2], 100)
        with pytest.raises(ValueError, match="incomplete"):
            frls(recs)


class TestFrml:
    def test_noiseless_recovery(self):
        rng = np.random.default_rng(65)
        rho = gen_rmspt((2, 2), 4, rng)
        rep = frml(exact_records(rho, fmub_protocol((2, 2)), 1000))
        assert fidelity(rho, rep.estimate) >= 1 - 1e-8
        assert rep.converged

    def test_likelihood_dominates_ppi(self):
        rng = np.random.default_rng(66)
        for _ in range(10):
            rho = gen_rps((2, 2), rng)
            recs = sampled_records(rho, fmub_protocol((2, 2)), 500, rng)
            assert (log_likelihood(frml(recs).estimate, recs)
                    >= log_likelihood(ppi(recs).estimate, recs))

    def test_single_qubit_bloch_oracle(self):
        # analytic ML solution for balanced x/y data and a 3:1 z split is the
        # Bloch vector (0, 0, 0.5)
        specs = mub_protocol((2,))
        counts = [np.array([7500.0, 2500.0]), np.array([5000.0, 5000.0]),
                  np.array([5000.0, 5000.0])]
        recs = [MeasurementRecord(replace(s, shots=10_000), c)
                for s, c in zip(specs, counts)]
        rep = frml(recs)
        sz = np.array([[1, 0], [0, -1]], dtype=complex)
        expected = (np.eye(2) + 0.5 * sz) / 2
        assert np.max(np.abs(rep.estimate.mat - expected)) <= 2e-2

    def test_scale_invariance(self):
        rng = np.random.default_rng(67)
        rho = gen_rps((2,), rng)
        recs = sampled_records(rho, mub_protocol((2,)), 300, rng)
        scaled = [MeasurementRecord(replace(r.spec, shots=r.spec.shots * 7),
                                    r.counts * 7) for r in recs]
        f = fidelity(frml(recs).estimate, frml(scaled).estimate)
        assert f >= 1 - 1e-10

    def test_asymptotic_consistency(self):
        # more data from the same fixed state must not hurt: paired runs at
        # N = 1e4 and N = 1e6 favor the larger sample nearly always
        rng = np.random.default_rng(85)
        rho = gen_rmspt((2,), 2, rng)
        wins = 0
        for _ in range(100):
            small = sampled_records(rho, mub_protocol((2,)), 3333, rng)
            large = sampled_records(rho, mub_protocol((2,)), 333_333, rng)
            inf_small = 1 - fidelity(rho, frml(small).estimate)
            inf_large = 1 - fidelity(rho, frml(large).estimate)
            wins += inf_large <= inf_small
        assert wins >= 95

    def test_likelihood_above_uniform_start(self):
        rng = np.random.default_rng(68)
        rho = gen_rps((2, 2), rng)
        recs = sampled_records(rho, fmub_protocol((2, 2)), 300, rng)
        uniform = DensityMatrix((2, 2), np.eye(4) / 4)
        assert (log_likelihood(frml(recs).estimate, recs)
                >= log_likelihood(uniform, recs))


class TestTrml:
    def test_full_rank_agrees_with_frml(self):
        rng = np.random.default_rng(69)
        for _ in range(20):
            rho = gen_rmspt((2,), 2, rng)
            recs = sampled_records(rho, mub_protocol((2,)), 500, rng)
            f = fidelity(trml(recs, 2).estimate, frml(recs).estimate)
            assert f >= 1 - 1e-6

    def test_rank_one_noiseless_pure(self):
        rng = np.random.default_rng(70)
        rho = gen_rps((2, 2), rng)
        rep = trml(exact_records(rho, fmub_protocol((2, 2)), 1000), 1)
        assert fidelity(rho, rep.estimate) >= 1 - 1e-8

    def test_estimate_rank_bounded(self):
        rng = np.random.default_rng(71)
        rho = gen_rps((2, 2), rng)
        recs = sampled_records(rho, fmub_protocol((2, 2)), 500, rng)
        for r in (1, 2, 3):
            w = np.linalg.eigvalsh(trml(recs, r).estimate.mat)
            assert np.sum(w > 1e-10) <= r

    def test_rank_restriction_beats_full_rank_on_pure_states(self):
        # paired comparison on identical data: the rank-1 search space matches
        # the true state class, so its median infidelity must be lower
        rng = np.random.default_rng(72)
        gaps = []
        for _ in range(100):
            rho = gen_rps((2, 2), rng)
            recs = sampled_records(rho, fmub_protocol((2, 2)), 1111, rng)
            inf_t = 1 - fidelity(rho, trml(recs, 1).estimate)
            inf_f = 1 - fidelity(rho, frml(recs).estimate)
            gaps.append(inf_f - inf_t)
        assert np.median(gaps) > 0

    def test_converges_where_gradient_ascent_stalled(self):
        # seeded two-qubit FMUB records on which backtracking gradient ascent
        # alone wanders at residuals of a few 1e-9 until MAX_ITERATIONS (one
        # N = 10^4 and one N = 10^5 input of this seed)
        rng = np.random.default_rng(90)
        specs = fmub_protocol((2, 2))
        for n_total in (1000, 10_000, 100_000):
            for _ in range(5):
                rho = gen_rps((2, 2), rng)
                rep = trml(sampled_records(rho, specs, n_total // 9, rng), 1)
                assert rep.converged
                assert rep.iterations <= 100

    def test_converged_flag_is_honest(self):
        rng = np.random.default_rng(91)
        specs = fmub_protocol((2, 2))
        converged = 0
        for make in (gen_rps, lambda dims, g: gen_rmspt(dims, 2, g),
                     lambda dims, g: gen_rmspt(dims, 4, g)):
            for n_total in (1000, 100_000):
                rho = make((2, 2), rng)
                recs = sampled_records(rho, specs, n_total // 9, rng)
                for r in (1, 2, 3, 4):
                    rep = trml(recs, r)
                    if rep.converged:
                        converged += 1
                        assert (root_factor_residual(rep.estimate, recs, r)
                                <= FIXED_POINT_TOL)
        assert converged >= 20

    def test_rank_out_of_range(self):
        rng = np.random.default_rng(73)
        rho = gen_rps((2,), rng)
        recs = sampled_records(rho, mub_protocol((2,)), 100, rng)
        with pytest.raises(ValueError, match="rank"):
            trml(recs, 3)


class TestChi2:
    def test_dof_formula(self):
        # 9 four-outcome settings: dof = 9 (4-1) - nu(4, 1) = 27 - 6 = 21
        rng = np.random.default_rng(74)
        rho = gen_rmspt((2, 2), 4, rng)
        recs = sampled_records(rho, fmub_protocol((2, 2)), 1000, rng)
        _, dof = chi2_statistic(recs, rho, 1)
        assert dof == 21
        _, dof4 = chi2_statistic(recs, rho, 4)
        assert dof4 == 27 - 15

    def test_calibration_under_true_model(self):
        # p-values under a correctly specified model are near-uniform: the
        # rejection fraction at alpha = 0.05 stays in a loose band
        rng = np.random.default_rng(75)
        pvals = []
        for _ in range(200):
            rho = gen_rps((2,), rng)
            recs = sampled_records(rho, mub_protocol((2,)), 1000, rng)
            fit = trml(recs, 1)
            pvals.append(chi2_pvalue(recs, fit.estimate, 1))
        frac = float(np.mean(np.array(pvals) < 0.05))
        assert 0.01 <= frac <= 0.12

    def test_grossly_wrong_model(self):
        rng = np.random.default_rng(76)
        fit = DensityMatrix((2,), np.diag([1.0, 0.0]).astype(complex))
        truth = DensityMatrix((2,), np.diag([0.0, 1.0]).astype(complex))
        recs = sampled_records(truth, mub_protocol((2,)), 1000, rng)
        assert chi2_pvalue(recs, fit, 1) < 1e-6

    def test_saturated_model_scores_one(self):
        rng = np.random.default_rng(77)
        rho = gen_rmspt((2,), 2, rng)
        recs = sampled_records(rho, mub_protocol((2,)), 1000, rng)
        # d=2, r=2: nu=3 equals the 3 free frequencies
        assert chi2_pvalue(recs, rho, 2) == 1.0


class TestArml:
    def test_pure_state_rank_one(self):
        rng = np.random.default_rng(78)
        rho = gen_rps((2,), rng)
        rep = arml(exact_records(rho, mub_protocol((2,)), 100_000))
        assert rep.rank_used == 1
        assert fidelity(rho, rep.estimate) >= 1 - 1e-6

    def test_maximally_mixed_needs_full_rank(self):
        rng = np.random.default_rng(79)
        rho = DensityMatrix((2,), np.eye(2) / 2)
        recs = sampled_records(rho, mub_protocol((2,)), 33_333, rng)
        rep = arml(recs)
        assert rep.rank_used == 2

    def test_pvalues_length_matches_stopping_rule(self):
        rng = np.random.default_rng(80)
        for _ in range(10):
            rho = gen_rmspt((2,), 2, rng)
            recs = sampled_records(rho, mub_protocol((2,)), 2000, rng)
            rep = arml(recs)
            assert len(rep.pvalues) in (rep.rank_used, rep.rank_used + 1)


class TestPhysicality:
    def test_all_estimators_return_valid_states(self):
        # DensityMatrix construction enforces Hermiticity/trace/PSD, so a
        # successful return is itself the invariant check; run a small sweep
        rng = np.random.default_rng(81)
        for _ in range(10):
            rho = gen_rmspt((2,), 2, rng)
            recs = sampled_records(rho, mub_protocol((2,)), 200, rng)
            for est in (ppi, frls, frml, lambda r: trml(r, 1), arml):
                rep = est(recs)
                assert rep.estimate.d == 2
                assert 1 <= rep.rank_used <= 2

import hashlib

import numpy as np
import pytest

from qtbench import engine
from qtbench.engine import (CampaignConfig, born_probabilities,
                            run_experiment, sample_counts)
from qtbench.estimators import MeasurementRecord, RecordStack
from qtbench.protocols import Povm
from qtbench.qcore import fidelity, haar_vector, identity
import qtbench.sgqt as sgqt
from qtbench.sgqt import SgqtHandler, _fix_phase
from qtbench.states import gen_rps, generate_state


def purity(rho):
    """Tr(rho^2) of a DensityMatrix."""
    return float(np.real(np.trace(rho.mat @ rho.mat)))


def drive(rho, budget, rng, snapshot_at=()):
    """Run the measurement loop the way the engine does; optionally record the
    running estimate's fidelity at given iteration numbers."""
    handler = SgqtHandler(rho.dims, budget, rng)
    records, measured = [], 0
    snapshots = {}
    while measured < budget:
        spec = handler.next(measured, records)
        if spec is None:
            break
        if handler.k in snapshot_at and handler.k not in snapshots:
            snapshots[handler.k] = fidelity(rho, handler.estimate().estimate)
        probs = born_probabilities(rho, spec.povm)
        records.append(MeasurementRecord(spec, sample_counts(probs, spec.shots, rng)))
        measured += spec.shots
    return handler, handler.estimate(records), measured, snapshots


class TestParams:
    def test_gains_are_the_papers(self):
        assert (sgqt.SGQT_A, sgqt.SGQT_a, sgqt.SGQT_b, sgqt.SGQT_s,
                sgqt.SGQT_t, sgqt.SGQT_SHOTS) == \
            (0.0, 3.0, 0.1, 0.602, 0.101, 100)


class TestSgqt:
    def test_zero_gain_keeps_initial_guess(self, monkeypatch):
        monkeypatch.setattr(sgqt, "SGQT_a", 0.0)
        rng = np.random.default_rng(91)
        rho = gen_rps((2,), rng)
        handler = SgqtHandler((2,), 10_000, rng)
        initial = handler.psi.copy()
        records, measured = [], 0
        while measured < 10_000:
            spec = handler.next(measured, records)
            if spec is None:
                break
            probs = born_probabilities(rho, spec.povm)
            records.append(MeasurementRecord(spec, sample_counts(probs, spec.shots, rng)))
            measured += spec.shots
        assert abs(np.vdot(initial, handler.psi)) == pytest.approx(1.0, abs=1e-12)

    def test_povms_are_two_outcome_and_complete(self):
        rng = np.random.default_rng(92)
        rho = gen_rps((2, 2), rng)
        handler = SgqtHandler((2, 2), 1000, rng)
        records, measured = [], 0
        while measured < 1000:
            spec = handler.next(measured, records)
            if spec is None:
                break
            assert spec.povm.n_outcomes == 2
            # a projector onto one candidate state and its complement
            proj = spec.povm.elements[0]
            np.testing.assert_allclose(proj @ proj, proj, atol=1e-10)
            assert np.real(np.trace(proj)) == pytest.approx(1.0, abs=1e-10)
            total = spec.povm.elements.sum(axis=0)
            np.testing.assert_allclose(total, np.eye(4), atol=1e-10)
            probs = born_probabilities(rho, spec.povm)
            records.append(MeasurementRecord(spec, sample_counts(probs, spec.shots, rng)))
            measured += spec.shots

    def test_one_step_remains_perturbation_bounded(self, monkeypatch):
        # with the truth equal to the initial guess and statistical noise
        # suppressed by a large per-evaluation budget, one update can move the
        # estimate only on the scale of the perturbation size beta_1
        monkeypatch.setattr(sgqt, "SGQT_SHOTS", 1_000_000)
        rng = np.random.default_rng(93)
        handler = SgqtHandler((2,), 2 * sgqt.SGQT_SHOTS, rng)
        rho = handler.estimate().estimate  # truth := initial guess
        records, measured = [], 0
        while measured < 2 * sgqt.SGQT_SHOTS:
            spec = handler.next(measured, records)
            if spec is None:
                break
            probs = born_probabilities(rho, spec.povm)
            records.append(MeasurementRecord(spec, sample_counts(probs, spec.shots, rng)))
            measured += spec.shots
        assert handler.estimate(records).iterations == 1
        beta_1 = sgqt.SGQT_b / 2**sgqt.SGQT_t
        assert fidelity(rho, handler.estimate().estimate) >= 1 - 4 * beta_1**2 - 1e-6

    def test_unit_norm_and_rank_one_estimate(self):
        rng = np.random.default_rng(94)
        rho = gen_rps((2,), rng)
        handler, report, _, _ = drive(rho, 5000, rng)
        assert np.linalg.norm(handler.psi) == pytest.approx(1.0, abs=1e-12)
        assert report.rank_used == 1
        assert purity(report.estimate) == pytest.approx(1.0, abs=1e-10)

    def test_budget_accounting_discards_remainder(self):
        rng = np.random.default_rng(95)
        rho = gen_rps((2,), rng)
        _, _, measured, _ = drive(rho, 1234, rng)
        assert measured == 1200  # 6 evaluation pairs of 2 x 100 shots

    def test_qubit_convergence_at_desk_scale(self):
        rng = np.random.default_rng(96)
        fids = []
        for _ in range(100):
            rho = gen_rps((2,), rng)
            _, report, _, _ = drive(rho, 100_000, rng)
            fids.append(fidelity(rho, report.estimate))
        assert float(np.median(fids)) >= 0.99

    def test_median_fidelity_progress(self):
        # stochastic-approximation progress: the median fidelity over seeds
        # must not decrease between iteration 10 and iteration 100
        rng = np.random.default_rng(97)
        at10, at100 = [], []
        for _ in range(100):
            rho = gen_rps((2,), rng)
            _, _, _, snaps = drive(rho, 101 * 200, rng, snapshot_at=(10, 100))
            at10.append(snaps[10])
            at100.append(snaps[100])
        assert np.median(at100) >= np.median(at10)


class TestProjectorPairs:
    """SGQT checks the vector a projector pair is built from, in place of
    the pair's elements."""

    @pytest.mark.parametrize("theta", [np.zeros(4), np.full(4, np.nan)])
    def test_pair_from_zero_or_nan_vector_raises(self, theta):
        handler = SgqtHandler((2,), 1000, np.random.default_rng(98))
        with pytest.raises(ValueError, match="norm"):
            handler._projector_spec(handler._to_state(theta))

    def test_pairs_equal_the_element_checked_construction(self):
        rng = np.random.default_rng(99)
        for d in (2, 3, 4, 5, 8):
            handler = SgqtHandler((d,), 1000, rng)
            for _ in range(40):
                vec = haar_vector(d, rng).vec
                theta = np.concatenate([vec.real, vec.imag])
                psi = handler._to_state(theta)
                proj = np.outer(psi, psi.conj())
                # the full element checks accept the pair
                expected = Povm(np.stack([proj, identity(d) - proj]))
                assert np.array_equal(
                    handler._projector_spec(psi).povm.elements,
                    expected.elements)


class TestHotPath:
    """What a step computes cheaply equals what the plain numpy calls give."""

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    @pytest.mark.parametrize("pairs", [0, 1, 50])
    def test_one_draw_equals_per_step_draws(self, d, pairs):
        # numpy's bounded-int stream: one draw of a run's 2d-sign rows gives
        # the values and the final generator state of one draw per step
        rng = np.random.default_rng(100 + d)
        handler = SgqtHandler((d,), pairs * 2 * sgqt.SGQT_SHOTS, rng)
        ref = np.random.default_rng(100 + d)
        haar_vector(d, ref)
        rows = [ref.integers(0, 2, size=2 * d) * 2.0 - 1.0
                for _ in range(pairs)]
        assert handler._deltas.shape == (pairs, 2 * d)
        assert np.array_equal(handler._deltas, np.reshape(rows, (pairs, 2 * d)))
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_state_equals_linalg_norm_construction(self):
        rng = np.random.default_rng(101)
        for d in (2, 3, 4, 5, 8, 16):
            handler = SgqtHandler((d,), 1000, rng)
            for _ in range(40):
                theta = rng.standard_normal(2 * d) * rng.uniform(0.1, 10.0)
                psi = theta[:d] + 1j * theta[d:]
                expected = _fix_phase(psi / np.linalg.norm(psi))
                assert np.array_equal(handler._to_state(theta), expected)

    def test_pair_is_c_ordered_like_a_stack(self):
        handler = SgqtHandler((4,), 1000, np.random.default_rng(102))
        psi = handler.psi
        elements = handler._projector_spec(psi).povm.elements
        proj = np.outer(psi, psi.conj())
        stacked = np.stack([proj, identity(4) - proj])
        assert elements.flags.c_contiguous
        assert elements.strides == stacked.strides
        assert np.array_equal(elements, stacked)

    def test_record_list_stacks_only_the_last_pair(self, monkeypatch):
        # a next-driven run on a record list, seeded as run_experiment seeds
        # it: every update stacks two settings and the result is the engine's
        config = CampaignConfig(dims=(2, 2), test="rps", protocol="sgqt",
                                estimator=None, n_grid=(10_000,),
                                runs_per_n=2, base_seed=7)
        expected = run_experiment(config, 10_000, 0)
        stacked = []
        of = RecordStack.of.__func__

        def spy(cls, records):
            stack = of(cls, records)
            stacked.append(len(stack))
            return stack
        monkeypatch.setattr(RecordStack, "of", classmethod(spy))

        _, state_rng, proto_rng, sample_rng = engine._run_seed(config,
                                                               10_000, 0)
        rho = generate_state(config.test, config.dims, state_rng)
        handler = SgqtHandler((2, 2), 10_000, proto_rng)
        records, measured = [], 0
        while (spec := handler.next(measured, records)) is not None:
            probs = born_probabilities(rho, spec.povm)
            records.append(MeasurementRecord(
                spec, sample_counts(probs, spec.shots, sample_rng)))
            measured += spec.shots
        report = handler.estimate(records)
        assert len(stacked) == report.iterations == 50
        assert max(stacked) == 2
        assert fidelity(rho, report.estimate) == expected.fidelity


class TestPinnedRuns:
    # sha256 over repr((fidelity, M, failed, error, iterations)) of each run,
    # runs 0-9, base seed 7, test rps, dims 2 / 2,2 / 3; at these N the
    # budget ends in a partial pair, so the last-pair update never applies
    PINNED_DIGEST = \
        "dcd78a5ae9eaa7b4e1f657ae1d766b09ec9bfdf65c1ea3d2d1ab38079e747f2c"

    def test_runs_match_pinned_digest(self):
        h = hashlib.sha256()
        for dims in [(2,), (2, 2), (3,)]:
            config = CampaignConfig(dims=dims, test="rps", protocol="sgqt",
                                    estimator=None, n_grid=(399, 1234, 10001),
                                    runs_per_n=10, base_seed=7)
            for n in config.n_grid:
                for run in range(config.runs_per_n):
                    r = run_experiment(config, n, run)
                    h.update(repr((r.fidelity, r.bases_count, r.failed,
                                   r.error, r.iterations)).encode())
        assert h.hexdigest() == self.PINNED_DIGEST

    # the same digest, runs 0-4, base seed 7, test rps, dims 2,2 / 3 /
    # 2,2,2, at N whose budget ends in a whole pair, so that estimate
    # applies the last pair's update
    WHOLE_PAIR_DIGEST = \
        "530745c090d65268de80f5f5b91ca991d33a9560fe98a4b7dcd297c47ad4313d"

    def test_whole_pair_runs_match_pinned_digest(self):
        h = hashlib.sha256()
        for dims in [(2, 2), (3,), (2, 2, 2)]:
            config = CampaignConfig(dims=dims, test="rps", protocol="sgqt",
                                    estimator=None, n_grid=(1000, 10000),
                                    runs_per_n=5, base_seed=7)
            for n in config.n_grid:
                for run in range(config.runs_per_n):
                    r = run_experiment(config, n, run)
                    assert r.iterations == n // (2 * sgqt.SGQT_SHOTS)
                    h.update(repr((r.fidelity, r.bases_count, r.failed,
                                   r.error, r.iterations)).encode())
        assert h.hexdigest() == self.WHOLE_PAIR_DIGEST

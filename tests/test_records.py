import hashlib
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

import qtbench.engine as engine
from qtbench.engine import (CampaignConfig, born_probabilities, parse_method,
                            run_experiment, sample_counts)
from qtbench.estimators import (MeasurementRecord, RecordStack, arml,
                                chi2_statistic, frls, frml, log_likelihood,
                                ppi, trml)
from qtbench.protocols import (MeasurementSpec, SettingStack, basis_povm,
                               fmub_protocol, mub_protocol)
from qtbench.qcore import DensityMatrix, haar_unitary
from qtbench.states import gen_rps, generate_state

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
MIXED = DensityMatrix((2,), np.eye(2) / 2)


class TestPinnedOutputs:
    # sha256 over repr((fidelity, M, failed, error, iterations, converged,
    # rank_used)) at full precision of runs 0-2, base seed 7, test rps; the
    # static cases at N = 10^3 and 10^4, the adaptive ones at N = 10^3
    CASES = [("fmub+ppi", (2, 2), (1000, 10_000)),
             ("fmub+trml:1", (2, 2), (1000, 10_000)),
             ("fmub+arml", (2, 2), (1000, 10_000)),
             ("mub+frml", (3,), (1000, 10_000)),
             ("pauli+ppi", (2, 2, 2), (1000, 10_000)),
             ("fo+trml:1", (2, 2), (1000,)),
             ("amub+trml:1", (2, 2), (1000,)),
             ("fomub+trml:1", (2, 2), (1000,)),
             ("sgqt", (2,), (1000,))]
    PINNED_DIGEST = \
        "3b562535f57d570d0bd782d30885165d3f014fa13f77700ab29c79c1590f616e"

    def test_runs_match_pinned_digest(self):
        h = hashlib.sha256()
        for method, dims, grid in self.CASES:
            protocol, estimator = parse_method(method)
            config = CampaignConfig(dims=dims, test="rps", protocol=protocol,
                                    estimator=estimator, n_grid=grid,
                                    runs_per_n=3, base_seed=7)
            for n in grid:
                for run in range(config.runs_per_n):
                    r = run_experiment(config, n, run)
                    h.update(repr((r.fidelity, r.bases_count, r.failed,
                                   r.error, r.iterations, r.converged,
                                   r.rank_used)).encode())
        assert h.hexdigest() == self.PINNED_DIGEST


class TestPinnedFrls:
    # sha256 over repr((fidelity, iterations, converged)) at full precision
    # of runs 0-2, base seed 7, test rps, N = 10^3 and 10^4
    CASES = [("fmub+frls", (2, 2)), ("mub+frls", (2, 2)),
             ("pauli+frls", (2, 2, 2))]
    PINNED_DIGEST = \
        "0607dc93e1d17ce79523e8a25e076fbae262df0c4bedd25742c3625eadb8d394"

    def test_frls_runs_match_pinned_digest(self):
        h = hashlib.sha256()
        for method, dims in self.CASES:
            protocol, estimator = parse_method(method)
            config = CampaignConfig(dims=dims, test="rps", protocol=protocol,
                                    estimator=estimator,
                                    n_grid=(1000, 10_000), runs_per_n=3,
                                    base_seed=7)
            for n in config.n_grid:
                for run in range(config.runs_per_n):
                    r = run_experiment(config, n, run)
                    h.update(repr((r.fidelity, r.iterations,
                                   r.converged)).encode())
        assert h.hexdigest() == self.PINNED_DIGEST


# --- the engine's batched step against the per-setting public calls ----------

STEP_CASES = [("mub+ppi", (2, 2)), ("mub+ppi", (3,)), ("fmub+ppi", (2, 2)),
              ("fmub+ppi", (2, 3)), ("pauli+ppi", (2, 2, 2)),
              ("fo+ppi", (2, 2)), ("fomub+ppi", (2, 2)), ("sgqt", (2, 2))]


def _config(method, dims, n_total):
    protocol, estimator = parse_method(method)
    return CampaignConfig(dims=dims, test="rps", protocol=protocol,
                          estimator=estimator, n_grid=(n_total,),
                          runs_per_n=2, base_seed=5)


def _per_setting_run(config, n_total, run_index):
    """run_experiment's loop through the public per-setting calls: the
    records it ends with."""
    _, state_rng, proto_rng, sample_rng = engine._run_seed(config, n_total,
                                                           run_index)
    rho = generate_state(config.test, config.dims, state_rng)
    handler, _ = engine.resolve_method(config, n_total, proto_rng)
    records, measured = [], 0
    while measured < n_total:
        spec = handler.next(measured, records)
        if spec is None:
            break
        probs = born_probabilities(rho, spec.povm)
        records.append(MeasurementRecord(
            spec, sample_counts(probs, spec.shots, sample_rng)))
        measured += spec.shots
    return records


def _assert_same_stack(a: RecordStack, b: RecordStack):
    assert a.dims == b.dims and a.offsets == b.offsets
    for name in ("elements", "counts", "shots"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


class TestBatchedStep:
    @pytest.mark.parametrize("method,dims", STEP_CASES)
    def test_step_matches_per_setting_calls(self, method, dims):
        # one step's Born probabilities and counts, from the same rng state
        config = _config(method, dims, 3000)
        _, state_rng, proto_rng, _ = engine._run_seed(config, 3000, 1)
        rho = generate_state(config.test, dims, state_rng)
        handler, _ = engine.resolve_method(config, 3000, proto_rng)
        records = RecordStack()
        # a static protocol has one step; fo's second uses an estimate
        for measured in (0, 1000):
            step = handler.step(measured, records)
            if step is None:
                assert measured and config.protocol in ("mub", "fmub", "pauli")
                break
            settings, shots = step
            probs = engine._born(rho, settings.elements, len(settings))
            per_setting = [born_probabilities(rho, s.povm) for s in settings]
            assert np.array_equal(probs, np.stack(per_setting))
            rng = np.random.default_rng(measured)
            counts = rng.multinomial(shots, probs)
            rng = np.random.default_rng(measured)
            assert np.array_equal(counts, [sample_counts(p, k, rng)
                                           for p, k in zip(per_setting, shots)])
            records.append(settings, counts, shots)

    @pytest.mark.parametrize("method,dims", STEP_CASES)
    def test_run_records_match_per_setting_calls(self, method, dims,
                                                 monkeypatch):
        seen = []
        original = engine.resolve_method

        def spying_resolve(config, n_total, rng):
            handler, estimator = original(config, n_total, rng)

            def spy(records):
                seen.append(records)
                return estimator(records)
            return handler, spy

        monkeypatch.setattr(engine, "resolve_method", spying_resolve)
        config = _config(method, dims, 1234)
        res = run_experiment(config, 1234, 0)
        monkeypatch.undo()
        records = _per_setting_run(config, 1234, 0)
        assert not res.failed and res.bases_count == len(records)
        _assert_same_stack(seen[-1], RecordStack.of(records))

    @pytest.mark.parametrize("mat,error", [
        # I/4 + 0.3 XX + 0.4 YY: fmub's XX setting (the fifth) is the first
        # with a negative probability, YY (the ninth) the most negative
        (np.eye(4) / 4 + 0.3 * np.kron(X, X) + 0.4 * np.kron(Y, Y),
         "negative Born probability -5.000e-02"),
        (1.5 * np.eye(4) / 4, "Born probabilities sum to 1.5, not 1")])
    def test_failing_step_records_first_failing_settings_error(
            self, mat, error, monkeypatch):
        rho = object.__new__(DensityMatrix)   # skips the validity checks
        rho.dims, rho.mat = (2, 2), mat.astype(complex)
        first = None
        for spec in fmub_protocol((2, 2)):
            try:
                born_probabilities(rho, spec.povm)
            except ValueError as exc:
                first = first or f"ValueError: {exc}"
        assert first == f"ValueError: {error}"
        monkeypatch.setattr(engine, "generate_state", lambda *args: rho)
        res = run_experiment(_config("fmub+ppi", (2, 2), 900), 900, 0)
        assert res.failed and res.error == first


# --- estimators on a list and on the container ---------------------------------

def _step_records(rng):
    """Sampled records of a random two-qubit state, three ways: a list of
    MeasurementRecord; a container filled by the engine's append in steps
    of 1, 3 and 5 fmub settings and then two single random bases; and the
    container stacked from the list."""
    rho = gen_rps((2, 2), rng)
    specs = list(fmub_protocol((2, 2)))
    specs += [MeasurementSpec(basis_povm(haar_unitary(4, rng)), dims=(2, 2))
              for _ in range(2)]
    records, stack = [], RecordStack()
    for start, end in [(0, 1), (1, 4), (4, 9), (9, 10), (10, 11)]:
        settings = SettingStack(specs[start:end])
        shots = [int(k) for k in rng.integers(50, 500, size=end - start)]
        counts = rng.multinomial(
            shots, engine._born(rho, settings.elements, len(settings)))
        stack.append(settings, counts, shots)
        records += [MeasurementRecord(replace(s, shots=k), c)
                    for s, k, c in zip(settings, shots, counts)]
    return records, stack


def _report_key(report):
    return (report.estimate.mat.tobytes(), report.estimate.dims,
            report.rank_used, report.iterations, report.converged,
            report.pvalues)


class TestEstimatorsOnContainer:
    @pytest.mark.parametrize("fit", [ppi, frls, frml, partial(trml, r=1),
                                     arml])
    def test_list_and_container_give_identical_reports(self, fit):
        records, stack = _step_records(np.random.default_rng(17))
        _assert_same_stack(stack, RecordStack.of(records))
        reference = _report_key(fit(records))
        assert _report_key(fit(stack)) == reference
        assert _report_key(fit(RecordStack.of(records))) == reference

    def test_likelihood_and_chi2_identical(self):
        records, stack = _step_records(np.random.default_rng(18))
        rho = ppi(records).estimate
        assert log_likelihood(rho, stack) == log_likelihood(rho, records)
        assert (chi2_statistic(stack, rho, 2)
                == chi2_statistic(records, rho, 2))

    @pytest.mark.parametrize("call", [
        ppi, frls, frml, arml, partial(trml, r=1),
        lambda records: log_likelihood(MIXED, records),
        lambda records: chi2_statistic(records, MIXED, 1)])
    def test_empty_and_mixed_dimension_records_raise(self, call):
        with pytest.raises(ValueError, match="^no measurement records$"):
            call([])
        with pytest.raises(ValueError, match="^no measurement records$"):
            call(RecordStack())
        mixed = [MeasurementRecord(replace(spec, shots=10),
                                   [5.0, 5.0] + [0.0] * (d - 2))
                 for d, spec in [(2, mub_protocol((2,))[0]),
                                 (3, mub_protocol((3,))[0])]]
        with pytest.raises(ValueError, match="^records mix different "
                                             "Hilbert-space dimensions$"):
            call(mixed)

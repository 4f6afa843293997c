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
from qtbench.protocols import (MeasurementSpec, SettingStack, _real_design,
                               basis_povm, fmub_protocol, mub_protocol,
                               pauli_protocol)
from qtbench.qcore import DensityMatrix, fidelity, haar_unitary
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


class TestPinnedNewton:
    # sha256 as TestPinnedOutputs' over fits of rank r > 1, whose Newton
    # steps move several root columns: runs 0-2, base seed 7, test rps,
    # N = 10^3 and 10^4. Computed on the code from before the fit hoisted
    # its nonzero-count stack and assembled the Hessian in place (np.kron
    # and np.block, povm[mask] copied per call), which these bits pin.
    CASES = [("fmub+trml:2", (2, 2)), ("fmub+trml:3", (2, 2)),
             ("fmub+frml", (2, 2))]
    PINNED_DIGEST = \
        "4c4c3d8808a660831cdcd1314a6f6904305c993585b96744fe82152bf6bcba0b"

    def test_rank_above_one_runs_match_pinned_digest(self):
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
                    h.update(repr((r.fidelity, r.bases_count, r.failed,
                                   r.error, r.iterations, r.converged,
                                   r.rank_used)).encode())
        assert h.hexdigest() == self.PINNED_DIGEST


class TestPinnedTests:
    # sha256 over repr((test id, method, seed, fidelity, M, failed, error,
    # iterations, converged, rank_used)) at full precision of runs 0-2, base
    # seed 7, N = 10^3, dims 2,2, for every benchmark test: pins each test's
    # seed code and state generator
    TESTS = ("rps", "rmspt2", "rmsptd", "rnp")
    METHODS = ("fmub+ppi", "fmub+frml", "amub+trml:1")
    PINNED_DIGEST = \
        "338f9b204bdf0bba08ada2c18a3f11636f79dfe4a731b5f11ae4507c32be5977"

    def test_every_test_matches_pinned_digest(self):
        h = hashlib.sha256()
        for test in self.TESTS:
            for method in self.METHODS:
                protocol, estimator = parse_method(method)
                config = CampaignConfig(dims=(2, 2), test=test,
                                        protocol=protocol, estimator=estimator,
                                        n_grid=(1000,), runs_per_n=3,
                                        base_seed=7)
                for run in range(config.runs_per_n):
                    r = run_experiment(config, 1000, run)
                    h.update(repr((test, method, r.seed, r.fidelity,
                                   r.bases_count, r.failed, r.error,
                                   r.iterations, r.converged,
                                   r.rank_used)).encode())
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
    assert (a.dims, a.outcomes, len(a)) == (b.dims, b.outcomes, len(b))
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

    # two-outcome raw element stacks on one qubit, as a step builder that
    # skips the Povm checks hands them over; at I/2: ok, sums to 0.75,
    # non-finite, a -0.25 probability
    RAW = {"ok": [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])],
           "sum": [np.diag([1.0, 0.0]), np.diag([0.0, 0.5])],
           "nan": [np.diag([np.nan, 0.0]), np.diag([0.0, 1.0])],
           "neg": [np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])]}

    @pytest.mark.parametrize("kinds,error", [
        ("ok sum nan", "Born probabilities sum to 0.75, not 1"),
        ("ok nan sum", "Born probabilities are not finite"),
        ("neg sum", "negative Born probability -2.500e-01"),
        ("sum neg", "Born probabilities sum to 0.75, not 1")])
    def test_stacked_settings_raise_the_first_failing_settings_error(
            self, kinds, error):
        settings = [np.array(self.RAW[k], dtype=complex)
                    for k in kinds.split()]
        first = None
        for elements in settings:   # the per-setting reference
            try:
                engine._born(MIXED, elements, 1)
            except ValueError as exc:
                first = first or str(exc)
        assert first == error
        with pytest.raises(ValueError) as info:
            engine._born(MIXED, np.concatenate(settings), len(settings))
        assert str(info.value) == error


class TestMethodPairing:
    # a run's streams are keyed on (base seed, test, N, run), not on the
    # method, so the methods compared at one run share its state and, with
    # one protocol, its records
    METHODS = ("fmub+ppi", "fmub+trml:1", "fo+trml:1")

    def _runs(self, method, monkeypatch):
        """Per run 0-2 at N = 1000: the run's seed, its true state's bytes
        and the records its estimator was handed."""
        states, seen = [], []
        generate, resolve = engine.generate_state, engine.resolve_method

        def spying_generate(*args):
            rho = generate(*args)
            states.append(rho.mat.tobytes())
            return rho

        def spying_resolve(config, n_total, rng):
            handler, estimator = resolve(config, n_total, rng)

            def spy(records):
                seen.append(records)
                return estimator(records)
            return handler, spy

        monkeypatch.setattr(engine, "generate_state", spying_generate)
        monkeypatch.setattr(engine, "resolve_method", spying_resolve)
        config = _config(method, (2, 2), 1000)
        seeds = []
        for run in range(3):
            res = run_experiment(config, 1000, run)
            assert not res.failed
            seeds.append(res.seed)
        monkeypatch.undo()
        return seeds, states, seen

    def test_methods_share_seeds_states_and_static_records(self,
                                                           monkeypatch):
        runs = {m: self._runs(m, monkeypatch) for m in self.METHODS}
        seeds, states, _ = runs["fmub+ppi"]
        assert len(set(seeds)) == 3 and len(states) == 3
        for method in self.METHODS[1:]:
            assert runs[method][:2] == (seeds, states)
        records = runs["fmub+ppi"][2]
        assert len(records) == 3
        for a, b in zip(records, runs["fmub+trml:1"][2], strict=True):
            assert a.counts.tobytes() == b.counts.tobytes()


# --- the container's checks ------------------------------------------------------

def _fmub_counts(shots):
    """fmub 2,2 counts, one row per setting, each summing to its shots."""
    return np.array([[k - 3 * (k // 4)] + [k // 4] * 3 for k in shots],
                    dtype=float)


class TestRecordStackChecks:
    @pytest.mark.parametrize("rows,n_shots", [(9, 8), (3, 9)])
    def test_append_rejects_counts_or_shots_of_another_length(self, rows,
                                                              n_shots):
        # at rows 9 and 8 shots, 36 counts went in against 32 shots; at
        # rows 3, 3 settings over all 36 elements
        shots = [100] * n_shots
        stack = RecordStack()
        with pytest.raises(ValueError, match="9 settings of 4 outcomes do "
                                             "not match counts of shape"):
            stack.append(fmub_protocol((2, 2)), _fmub_counts([100] * rows),
                         shots)
        assert len(stack) == 0

    def test_nan_counts_fail_at_the_record(self):
        spec = replace(fmub_protocol((2, 2))[0], shots=100)
        with pytest.raises(ValueError, match="^counts sum nan does not "
                                             "match shots 100$"):
            MeasurementRecord(spec, [np.nan, 50, 25, 25])
        counts = _fmub_counts([100] * 9)
        counts[4, 0] = np.nan
        with pytest.raises(ValueError, match="^counts sum nan does not "
                                             "match shots 100$"):
            RecordStack().append(fmub_protocol((2, 2)), counts, [100] * 9)

    def test_append_raises_the_first_failing_settings_error(self):
        settings, shots = fmub_protocol((2, 2)), [100] * 9
        counts = _fmub_counts(shots)
        counts[2, 0] -= 1.0   # sums to 99
        counts[6, 1] -= 2.0   # sums to 98
        first = None
        for spec, k, row in zip(settings, shots, counts):
            try:   # the per-setting reference
                MeasurementRecord(replace(spec, shots=k), row)
            except ValueError as exc:
                first = first or str(exc)
        assert first == "counts sum 99.0 does not match shots 100"
        with pytest.raises(ValueError) as info:
            RecordStack().append(settings, counts, shots)
        assert str(info.value) == first

    def test_append_rejects_another_outcome_count(self):
        stack = RecordStack()
        assert len(stack) == 0
        stack.append(fmub_protocol((2, 2)), _fmub_counts([100] * 9),
                     [100] * 9)
        with pytest.raises(ValueError, match="^a run's settings must share "
                                             "one outcome count: 2 after 4$"):
            stack.append(pauli_protocol(2), [[50, 50]] * 15, [100] * 15)
        assert (len(stack), stack.outcomes, stack.counts.size) == (9, 4, 36)
        stack.append(SettingStack(fmub_protocol((2, 2))[:2]),
                     _fmub_counts([60, 80]), [60, 80])
        assert len(stack) == 11

    def test_list_of_mixed_outcome_counts_raises(self):
        records = [MeasurementRecord(replace(spec, shots=100), counts)
                   for spec, counts in [
                       (fmub_protocol((2, 2))[0], [40, 20, 20, 20]),
                       (pauli_protocol(2)[0], [50, 50])]]
        with pytest.raises(ValueError, match="share one outcome count"):
            RecordStack.of(records)


class TestDesignCache:
    def _one_step(self, rng):
        """A sampled fmub 2,2 run as one engine step, its state and its
        records as a list."""
        rho, settings = gen_rps((2, 2), rng), fmub_protocol((2, 2))
        shots = [int(k) for k in rng.integers(50, 500, size=len(settings))]
        counts = rng.multinomial(
            shots, engine._born(rho, settings.elements, len(settings)))
        stack = RecordStack()
        stack.append(settings, counts, shots)
        return rho, stack, [MeasurementRecord(replace(s, shots=k), c)
                            for s, k, c in zip(settings, shots, counts)]

    def test_static_step_reads_its_settings_design(self):
        _, stack, _ = self._one_step(np.random.default_rng(21))
        settings = fmub_protocol((2, 2))
        assert stack.design is settings.design
        assert not stack.design.flags.writeable
        assert np.array_equal(settings.design,
                              _real_design(settings.elements))

    def test_second_step_gets_a_design_of_its_own(self):
        rng = np.random.default_rng(22)
        _, stack, _ = self._one_step(rng)
        assert stack.design is fmub_protocol((2, 2)).design
        basis = SettingStack([MeasurementSpec(basis_povm(haar_unitary(4, rng)),
                                              dims=(2, 2))])
        stack.append(basis, [[10, 20, 30, 40]], [100])
        assert stack.design.shape == (40, 16)
        assert np.array_equal(stack.design, _real_design(stack.elements))
        assert np.array_equal(stack.design[:36], fmub_protocol((2, 2)).design)

    @pytest.mark.parametrize("fit", [ppi, partial(trml, r=1), frml, arml,
                                     frls])
    def test_cached_and_stacked_designs_give_identical_reports(self, fit):
        rho, stack, records = self._one_step(np.random.default_rng(23))

        def key(report):
            return (repr(fidelity(rho, report.estimate)),
                    *_report_key(report))
        assert key(fit(stack)) == key(fit(RecordStack.of(records)))


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

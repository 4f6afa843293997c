import inspect
import json

import numpy as np
import pytest

import qtbench.engine as engine
from qtbench.engine import (
    CampaignConfig,
    CampaignError,
    ConfigError,
    PROTOCOLS,
    RunResult,
    born_probabilities,
    default_grid,
    parse_method,
    parse_raw_line,
    raw_line,
    resolve_method,
    run_campaign,
    run_experiment,
    sample_counts,
    validate_method,
)
from qtbench.estimators import MeasurementRecord, RecordStack
from qtbench.protocols import AmubHandler, FoHandler, FomubHandler, StaticHandler
from qtbench.qcore import DensityMatrix
from qtbench.sgqt import SGQT_SHOTS, SgqtHandler
from qtbench.states import TestKind, gen_rps


def result_key(r):
    # wall-clock fields vary between reruns; everything else is seeded
    return (r.n_total, r.run_index, r.seed, r.fidelity, r.bases_count, r.failed,
            r.converged, r.iterations, r.rank_used)


def make_config(**kw):
    base = dict(dims=(2, 2), test=TestKind.RPS, protocol="fmub",
                estimator="ppi", n_grid=(100, 1000), runs_per_n=4, base_seed=1)
    base.update(kw)
    return CampaignConfig(**base)


class TestBornProbabilities:
    def test_maximally_mixed_uniform(self):
        from qtbench.protocols import mub_protocol
        rho = DensityMatrix((2, 2), np.eye(4) / 4)
        for spec in mub_protocol((2, 2)):
            np.testing.assert_allclose(born_probabilities(rho, spec.povm),
                                       np.full(4, 0.25), atol=1e-12)

    def test_computational_basis_on_ground_state(self):
        from qtbench.protocols import mub_protocol
        rho = DensityMatrix((2,), np.diag([1.0, 0.0]).astype(complex))
        probs = born_probabilities(rho, mub_protocol((2,))[0].povm)
        np.testing.assert_allclose(probs, [1.0, 0.0], atol=1e-12)

    def test_matches_trace_oracle(self):
        from qtbench.protocols import fmub_protocol
        rng = np.random.default_rng(100)
        rho = gen_rps((2, 2), rng)
        for spec in fmub_protocol((2, 2)):
            probs = born_probabilities(rho, spec.povm)
            oracle = [float(np.real(np.trace(rho.mat @ p)))
                      for p in spec.povm.elements]
            np.testing.assert_allclose(probs, oracle, atol=1e-12)

    def test_dimension_mismatch(self):
        from qtbench.protocols import mub_protocol
        rho = DensityMatrix((2,), np.eye(2) / 2)
        with pytest.raises(ValueError, match="mismatch"):
            born_probabilities(rho, mub_protocol((2, 2))[0].povm)

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
    def test_non_finite_probabilities_raise(self, entry):
        # a raw element stack, as a step builder that skips the Povm
        # element checks hands it over
        rho = DensityMatrix((2,), np.eye(2) / 2)
        elements = np.stack([np.diag([1.0, 0.0]),
                             np.diag([0.0, 1.0])]).astype(complex)
        elements[0][entry] = np.nan
        with pytest.raises(ValueError, match="not finite"):
            engine._born(rho, elements, 1)


class TestSampleCounts:
    def test_zero_shots(self):
        rng = np.random.default_rng(101)
        counts = sample_counts(np.array([0.5, 0.5]), 0, rng)
        np.testing.assert_array_equal(counts, [0, 0])
        assert counts.dtype == np.int64
        # nothing is drawn
        assert (rng.bit_generator.state
                == np.random.default_rng(101).bit_generator.state)

    def test_deterministic_outcome(self):
        rng = np.random.default_rng(102)
        np.testing.assert_array_equal(
            sample_counts(np.array([1.0, 0.0]), 17, rng), [17, 0])

    def test_binomial_moments(self):
        rng = np.random.default_rng(103)
        counts = sample_counts(np.array([0.5, 0.5]), 1_000_000, rng)
        assert abs(counts[0] - 500_000) < 3 * 500  # 3 sigma
        assert counts.sum() == 1_000_000

    def test_negative_shots_raise(self):
        with pytest.raises(ValueError):
            sample_counts(np.array([0.5, 0.5]), -1, np.random.default_rng(104))


class TestMethodValidation:
    def test_parse_method(self):
        assert parse_method("fmub+trml:1") == ("fmub", "trml:1")
        assert parse_method("sgqt") == ("sgqt", None)
        with pytest.raises(ConfigError):
            parse_method("fmub")

    def test_unknown_ids_rejected(self):
        with pytest.raises(ConfigError, match="unknown protocol"):
            validate_method("bogus", "ppi", (2, 2))
        with pytest.raises(ConfigError, match="unknown estimator"):
            validate_method("fmub", "bogus", (2, 2))

    def test_trml_needs_rank(self):
        with pytest.raises(ConfigError, match="rank"):
            validate_method("fmub", "trml", (2, 2))
        with pytest.raises(ConfigError, match="outside"):
            validate_method("fmub", "trml:9", (2, 2))

    @pytest.mark.parametrize("protocol,estimator,dims", [
        ("mub", "frml", (2, 3)), ("amub", "frml", (2, 3)),
        ("fmub", "frml", (6,)), ("fomub", "frml", (6, 2))])
    def test_mub_protocols_need_mub_supported_dims(self, protocol, estimator,
                                                   dims):
        # the builder's own check, raised as a ConfigError naming the row
        pattern = f"protocol {protocol!r}: .*MUB-supported"
        with pytest.raises(ConfigError, match=pattern):
            validate_method(protocol, estimator, dims)
        with pytest.raises(ConfigError, match=pattern):
            make_config(protocol=protocol, estimator=estimator, dims=dims,
                        n_grid=(10**6,))

    def test_protocol_dimension_constraints(self):
        with pytest.raises(ConfigError, match="MUB-supported"):
            validate_method("mub", "frml", (2, 3))  # d = 6
        with pytest.raises(ConfigError, match="qubit"):
            validate_method("pauli", "frml", (3,))
        with pytest.raises(ConfigError, match="two subsystems"):
            validate_method("fo", "frml", (4,))
        with pytest.raises(ConfigError, match="no estimator"):
            validate_method("sgqt", "ppi", (2,))

    def test_config_grid_checks(self):
        with pytest.raises(ConfigError, match="increasing"):
            make_config(n_grid=(1000, 100))
        with pytest.raises(ConfigError, match="2 runs"):
            make_config(runs_per_n=1)
        with pytest.raises(ConfigError, match="below"):
            make_config(protocol="pauli", estimator="frml", n_grid=(10, 100))

    @pytest.mark.parametrize("protocol,estimator,dims", [
        ("sgqt", None, (1,)), ("fo", "ppi", (1, 2)), ("fmub", "ppi", (2, 0)),
        ("fmub", "ppi", ())])
    def test_config_rejects_subsystems_below_two(self, protocol, estimator,
                                                 dims):
        with pytest.raises(ConfigError, match="every subsystem dimension"):
            make_config(protocol=protocol, estimator=estimator, dims=dims,
                        n_grid=(1000,))

    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    def test_registry_minimum_sample_size(self, protocol):
        # below a protocol's minimum every run fails; at it none must
        row = PROTOCOLS[protocol]
        kw = dict(protocol=protocol,
                  estimator="ppi" if row.takes_estimator else None,
                  dims=(2, 2) if row.multipartite else (2,))
        n_min = row.min_n(kw["dims"])
        with pytest.raises(ConfigError, match="below"):
            make_config(n_grid=(n_min - 1,), **kw)
        config = make_config(n_grid=(n_min,), **kw)
        res = run_experiment(config, n_min, 0)
        assert not res.failed, res.error
        res = run_experiment(config, n_min - 1, 0)
        assert res.failed and res.error.startswith("ConfigError: ")

    @pytest.mark.parametrize("protocol,dims,n_min", [
        ("mub", (2,), 3), ("mub", (2, 2), 5), ("mub", (3,), 4),
        ("amub", (2,), 3), ("amub", (2, 2), 5), ("amub", (2, 2, 2), 9),
        ("fmub", (2,), 3), ("fmub", (2, 2), 9), ("fmub", (2, 3), 12),
        ("fomub", (2, 2), 9), ("fomub", (2, 3), 12),
        ("pauli", (2,), 3), ("pauli", (2, 2), 15), ("pauli", (2, 2, 2), 63),
        ("fo", (2, 2), 801), ("fo", (2, 3), 1101), ("fo", (2, 2, 2), 2601),
        ("sgqt", (2,), 200), ("sgqt", (2, 2), 200)])
    def test_registry_minimum_matches_documented_table(self, protocol, dims,
                                                       n_min):
        # d+1 for mub/amub, prod_j (d_j+1) for fmub/fomub, 4^n-1 for pauli,
        # one copy past the FO steps below prod_j (d_j+1) bases, and one
        # sgqt evaluation pair
        assert PROTOCOLS[protocol].min_n(dims) == n_min

    @pytest.mark.parametrize("protocol,estimator,dims,n_total", [
        ("sgqt", None, (2,), 150), ("fmub", "ppi", (2, 2), 8)])
    def test_off_grid_sample_size_below_minimum_fails(
            self, protocol, estimator, dims, n_total):
        config = make_config(protocol=protocol, estimator=estimator,
                             dims=dims, n_grid=(1000,))
        res = run_experiment(config, n_total, 0)
        assert res.failed and res.bases_count == 0
        assert res.error.startswith(f"ConfigError: sample size {n_total} "
                                    f"is below")


class TestRunExperiment:
    def test_seeded_rerun_is_identical(self):
        config = make_config(estimator="trml:1")
        a = run_experiment(config, 1000, 3)
        b = run_experiment(config, 1000, 3)
        assert result_key(a) == result_key(b)
        assert not a.failed

    def test_fmub_basis_count_is_nine(self):
        config = make_config()
        for run in range(5):
            res = run_experiment(config, 500, run)
            assert res.bases_count == 9

    def test_different_runs_differ(self):
        config = make_config()
        a = run_experiment(config, 1000, 0)
        b = run_experiment(config, 1000, 1)
        assert a.seed != b.seed
        assert a.fidelity != b.fidelity

    def test_only_numerical_failures_become_failed_runs(self, monkeypatch):
        def raising(exc):
            def generate_state(*args):
                raise exc
            return generate_state

        config = make_config()
        monkeypatch.setattr(engine, "generate_state",
                            raising(TypeError("a programming error")))
        with pytest.raises(TypeError, match="programming error"):
            run_experiment(config, 500, 0)
        monkeypatch.setattr(engine, "generate_state",
                            raising(ValueError("not a state")))
        res = run_experiment(config, 500, 0)
        assert res.failed and res.error == "ValueError: not a state"

    def test_large_sample_full_rank_ml(self):
        # frozen Monte Carlo oracle values: over seeded runs at N = 10^6 the
        # FMUB+frml pipeline reaches [1-F]_95 ~ 1.4e-3 and ~70% of runs at
        # fidelity 0.999 (cross-validated against the rank-d root solver and
        # a convex-programming solve of the same likelihood)
        config = make_config(estimator="frml", n_grid=(1_000_000,),
                             runs_per_n=2, base_seed=7)
        res = [run_experiment(config, 1_000_000, i) for i in range(100)]
        fids = np.array([r.fidelity for r in res])
        assert np.mean(fids >= 0.999) >= 0.60
        assert np.quantile(1 - fids, 0.95) <= 2.0e-3


class TestBudgetConservation:
    def drive(self, config, n_total, seed=0):
        _, state_rng, proto_rng, sample_rng = engine._run_seed(config, n_total, seed)
        from qtbench.states import generate_state
        rho = generate_state(config.test, config.dims, state_rng)
        handler, estimator = resolve_method(config, n_total, proto_rng)
        records, measured = [], 0
        while measured < n_total:
            spec = handler.next(measured, records)
            if spec is None:
                break
            probs = born_probabilities(rho, spec.povm)
            records.append(MeasurementRecord(
                spec, sample_counts(probs, spec.shots, sample_rng)))
            measured += spec.shots
        return records, measured

    @pytest.mark.parametrize("protocol,estimator", [
        ("fmub", "ppi"), ("mub", "ppi"), ("pauli", "ppi"),
        ("amub", "ppi"), ("fo", "ppi"), ("fomub", "ppi")])
    def test_exact_budget(self, protocol, estimator):
        config = make_config(protocol=protocol, estimator=estimator,
                             n_grid=(1037,))
        records, measured = self.drive(config, 1037)
        assert measured == 1037
        assert sum(r.spec.shots for r in records) == 1037
        assert all(float(r.counts.sum()) == r.spec.shots for r in records)

    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    def test_every_protocol_stays_within_its_budget(self, protocol):
        # the engine spends each setting's shots as issued, so every handler
        # must stop at its budget on its own: sgqt at whole pairs
        row = PROTOCOLS[protocol]
        estimator = "ppi" if row.takes_estimator else None
        n_min = row.min_n(make_config(protocol=protocol, estimator=estimator,
                                      n_grid=(10**6,)).dims)
        config = make_config(protocol=protocol, estimator=estimator,
                             n_grid=(n_min, 1234))
        pair = 2 * SGQT_SHOTS
        for n_total in config.n_grid:
            records, measured = self.drive(config, n_total)
            expected = n_total // pair * pair if protocol == "sgqt" else n_total
            assert sum(r.spec.shots for r in records) == measured == expected

    def test_sgqt_discards_partial_pair(self):
        config = make_config(protocol="sgqt", estimator=None,
                             n_grid=(1037,))
        records, measured = self.drive(config, 1037)
        assert measured == 1000  # 5 pairs of 2 x 100
        assert 1037 - measured < 200

    def test_engine_counts_are_integers(self):
        config = make_config()
        records, _ = self.drive(config, 500)
        for rec in records:
            assert np.all(rec.counts == np.round(rec.counts))

    @pytest.mark.parametrize("pairs", [1, 5, 50])
    def test_sgqt_uses_its_last_pair(self, pairs):
        n_total = 2 * pairs * SGQT_SHOTS
        config = make_config(protocol="sgqt", estimator=None,
                             n_grid=(n_total,))
        res = run_experiment(config, n_total, 0)
        assert res.bases_count == 2 * pairs
        assert res.iterations == pairs

    def test_sgqt_through_engine(self):
        config = make_config(protocol="sgqt", estimator=None, n_grid=(2000,))
        res = run_experiment(config, 2000, 0)
        assert not res.failed
        assert res.bases_count == 20  # two settings per evaluation pair
        assert 0.0 <= res.fidelity <= 1.0


class TestHandlerIsolation:
    def test_handler_interface_carries_no_state(self):
        # every handler's step() and next() take only the copy count and
        # records
        for cls in (StaticHandler, AmubHandler, FoHandler, FomubHandler,
                    SgqtHandler):
            for method in (cls.step, cls.next):
                params = list(inspect.signature(method).parameters)
                assert params == ["self", "measured", "records"]

    def test_engine_passes_only_counts_and_records(self, monkeypatch):
        seen = []

        class SpyHandler:
            def __init__(self, inner):
                self.inner = inner

            def step(self, measured, records):
                seen.append((measured, records, len(records)))
                return self.inner.step(measured, records)

        original = resolve_method

        def spying_resolve(config, n_total, rng):
            handler, estimator = original(config, n_total, rng)
            return SpyHandler(handler), estimator

        monkeypatch.setattr(engine, "resolve_method", spying_resolve)
        run_experiment(make_config(protocol="amub"), 300, 0)
        assert [(m, n) for m, _, n in seen] == [(0, 0), (100, 5), (200, 10)]
        for measured, records, _ in seen:
            assert isinstance(measured, int)
            assert isinstance(records, RecordStack)
            assert not any(isinstance(v, DensityMatrix)
                           for v in vars(records).values())


class TestRunCampaign:
    def test_result_count_and_order(self):
        config = make_config(n_grid=(100, 1000), runs_per_n=5)
        results = run_campaign(config)
        assert len(results) == 10
        assert [(r.n_total, r.run_index) for r in results] == \
            [(n, i) for n in (100, 1000) for i in range(5)]

    def test_rerun_identical(self):
        config = make_config()
        a = run_campaign(config)
        b = run_campaign(config)
        assert [result_key(r) for r in a] == [result_key(r) for r in b]

    def test_worker_count_does_not_change_results(self):
        config = make_config()
        a = run_campaign(config, workers=1)
        b = run_campaign(config, workers=2)
        assert [result_key(r) for r in a] == [result_key(r) for r in b]

    def test_one_pool_serves_the_whole_grid(self, monkeypatch):
        pools = []

        class CountingPool(engine.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(engine, "ProcessPoolExecutor", CountingPool)
        config = make_config(n_grid=(100, 1000))
        batches = []
        b = run_campaign(config, workers=2,
                         on_batch=lambda n, batch: batches.append(n))
        assert pools == [{"max_workers": 2}]
        assert batches == [100, 1000]
        a = run_campaign(config, workers=1)
        assert len(pools) == 1
        assert [result_key(r) for r in a] == [result_key(r) for r in b]

    def test_failure_ratio_raises(self, monkeypatch):
        config = make_config(runs_per_n=10)

        def failing(config, n_total, run_index):
            return RunResult(n_total=n_total, fidelity=float("nan"),
                             bases_count=0, t_protocol=0.0, t_estimator=0.0,
                             run_index=run_index, seed=0,
                             failed=run_index % 3 == 0, error="boom")

        monkeypatch.setattr(engine, "run_experiment", failing)
        with pytest.raises(CampaignError):
            run_campaign(config)


class TestRawPersistence:
    def test_line_fields_exact(self):
        config = make_config(estimator="trml:1")
        res = run_experiment(config, 500, 0)
        row = json.loads(raw_line(config, res))
        assert list(row) == ["test", "dims", "protocol", "estimator", "N",
                             "run", "seed", "fidelity", "M", "t_protocol_s",
                             "t_estimator_s", "failed", "converged",
                             "iterations", "rank_used", "error"]
        assert row["test"] == "rps"
        assert row["dims"] == [2, 2]
        assert row["estimator"] == "trml:1"
        assert row["failed"] is False
        assert row["converged"] is True
        assert row["iterations"] >= 1
        assert row["rank_used"] == 1
        assert row["error"] is None
        _, back = parse_raw_line(raw_line(config, res))
        assert back.rank_used == res.rank_used == 1

    def test_round_trip(self):
        config = make_config()
        res = run_experiment(config, 500, 2)
        ctx, back = parse_raw_line(raw_line(config, res))
        assert ctx["protocol"] == "fmub"
        assert result_key(back) == result_key(res)

    def test_failed_run_serializes_null_fidelity(self):
        config = make_config()
        res = RunResult(n_total=10, fidelity=float("nan"), bases_count=0,
                        t_protocol=0.0, t_estimator=0.0, run_index=0, seed=1,
                        failed=True, error="x")
        row = json.loads(raw_line(config, res))
        assert row["fidelity"] is None
        assert row["error"] == "x"
        _, back = parse_raw_line(raw_line(config, res))
        assert back.failed and back.error == "x" and back.converged is None
        assert back.rank_used is None

    def test_reads_lines_without_convergence_fields(self):
        config = make_config(estimator="trml:1")
        row = json.loads(raw_line(config, run_experiment(config, 500, 0)))
        for key in ("converged", "iterations", "rank_used", "error"):
            del row[key]
        _, back = parse_raw_line(json.dumps(row))
        assert back.converged is None and back.iterations is None
        assert back.rank_used is None
        assert back.error is None and not back.failed


class TestDefaultGrid:
    def test_powers_of_ten_span_lower_bound(self):
        grid = default_grid(TestKind.RPS, (2, 2))
        assert grid[0] == 100
        assert all(b == 10 * a for a, b in zip(grid, grid[1:]))
        from qtbench.stats import lower_bound_NB
        assert grid[-1] >= 10 * lower_bound_NB(0.999, 4, 1)

    @pytest.mark.parametrize("test", list(TestKind))
    def test_dims_as_list_or_numpy_ints_give_the_same_grid(self, test):
        grid = default_grid(test, (2, 3))
        assert default_grid(test, [2, 3]) == grid
        assert default_grid(test, np.array([2, 3])) == grid

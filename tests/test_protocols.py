import dataclasses
import functools
import hashlib
import itertools

import numpy as np
import pytest

import qtbench.engine as engine
from qtbench.engine import (
    CampaignConfig,
    parse_method,
    resolve_method,
    run_experiment,
)
from qtbench.estimators import _real_design, ppi
from qtbench.mub import SUPPORTED_MUB_DIMS, mub_bases
from qtbench.protocols import (
    AmubHandler,
    FoHandler,
    FomubHandler,
    IncompleteRecordsError,
    MeasurementSpec,
    Povm,
    allocate_shots,
    basis_povm,
    complete_local_basis,
    fmub_protocol,
    _product_vector_factors,
    mub_protocol,
    pauli_protocol,
)
from qtbench.qcore import DensityMatrix, eig_hermitian, haar_unitary


class _StubEstimator:
    """Estimator stand-in returning a fixed density matrix."""

    def __init__(self, rho):
        self.rho = rho

    def __call__(self, records):
        class Report:
            estimate = self.rho
        return Report()


def ket(d, i):
    v = np.zeros(d, dtype=complex)
    v[i] = 1.0
    return v


def second_realignment_singular_value(u, d1, d2):
    """Blind factorization oracle: u = A (x) B iff the realigned matrix
    R[(i1,j1),(i2,j2)] = u[(i1,i2),(j1,j2)] has rank one."""
    r = u.reshape(d1, d2, d1, d2).transpose(0, 2, 1, 3).reshape(d1 * d1, d2 * d2)
    s = np.linalg.svd(r, compute_uv=False)
    return float(s[1])


def assert_factorized(spec, dims):
    """Every element is the projector onto a product vector: rank one, and
    rank one again after realignment at every subsystem cut."""
    for p in spec.povm.elements:
        assert np.linalg.svd(p, compute_uv=False)[1] <= 1e-8
        for cut in range(1, len(dims)):
            d1 = int(np.prod(dims[:cut]))
            d2 = int(np.prod(dims[cut:]))
            assert second_realignment_singular_value(p, d1, d2) <= 1e-8


def projectors(u):
    """Rank-1 projectors onto the columns of u."""
    return np.stack([np.outer(u[:, k], u[:, k].conj())
                     for k in range(u.shape[1])])


def assert_orthonormal_basis(spec):
    """The elements are the projectors of one orthonormal basis."""
    elems = spec.povm.elements
    gram = np.real(np.einsum("aij,bji->ab", elems, elems))
    np.testing.assert_allclose(gram, np.eye(len(elems)), atol=1e-8)


class TestPovm:
    def test_rejects_incomplete(self):
        with pytest.raises(ValueError, match="identity"):
            Povm(np.stack([np.eye(2) / 2, np.eye(2) / 4]))

    def test_rejects_non_psd(self):
        bad = np.diag([1.5, -0.5]).astype(complex)
        rest = np.eye(2) - bad
        with pytest.raises(ValueError, match="positive"):
            Povm(np.stack([bad, rest]))

    def test_spec_requires_positive_shots(self):
        povm = Povm(np.stack([np.eye(2) / 2, np.eye(2) / 2]))
        with pytest.raises(ValueError, match="shots"):
            MeasurementSpec(povm, (2,), shots=0)

    def test_rejects_non_hermitian(self):
        # Hermitian parts 0.5 I each, sum I: only the Hermiticity check
        # can reject it
        a = np.array([[0.5, 0.3], [-0.3, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            Povm(np.stack([a, a.conj().T]))


class TestPovmRejectsNonFinite:
    @pytest.mark.parametrize("entry,value", [((0, 0), np.nan),
                                             ((0, 1), np.nan),
                                             ((1, 1), np.inf)])
    def test_non_finite_element_entry_raises(self, entry, value):
        elements = np.stack([np.diag([1.0, 0.0]),
                             np.diag([0.0, 1.0])]).astype(complex)
        elements[0][entry] = value
        with pytest.raises(ValueError, match="non-finite"):
            Povm(elements)


class TestBasisPovm:
    """basis_povm checks the unitary in place of the elements it builds."""

    @pytest.mark.parametrize("u", [np.ones((2, 3), dtype=complex),
                                   1.01 * np.eye(2, dtype=complex),
                                   np.full((2, 2), np.nan, dtype=complex)])
    def test_rejects_non_square_non_unitary_and_nan(self, u):
        with pytest.raises(ValueError, match="square unitary"):
            basis_povm(u)

    def test_haar_bases_equal_the_element_checked_construction(self):
        rng = np.random.default_rng(43)
        for d in (2, 3, 4, 5, 8):
            for _ in range(40):
                u = haar_unitary(d, rng)
                elements = basis_povm(u).elements
                assert np.array_equal(
                    elements, np.einsum("ik,jk->kij", u, u.conj()))
                Povm(elements)   # the full element checks accept them


class TestNoElementChecksOnTheRunPath:
    """Protocols built from unitaries or unit vectors check those, not each
    POVM element: no run of theirs calls Povm.__post_init__."""

    @pytest.mark.parametrize("method,dims,n_total", [
        ("sgqt", (2, 2), 10_000), ("fo+ppi", (2, 2), 1000),
        ("fomub+ppi", (2, 2), 1000), ("amub+ppi", (2, 2), 1000)])
    def test_runs_skip_element_checks(self, monkeypatch, method, dims,
                                      n_total):
        calls = []
        checks = Povm.__post_init__

        def spy(self):
            calls.append(self)
            checks(self)

        monkeypatch.setattr(Povm, "__post_init__", spy)
        protocol, estimator = parse_method(method)
        config = CampaignConfig(dims=dims, test="rps", protocol=protocol,
                                estimator=estimator, n_grid=(n_total,),
                                runs_per_n=2, base_seed=3)
        result = run_experiment(config, n_total, 0)
        assert not result.failed, result.error
        assert len(calls) == 0


class TestMubBases:
    def test_qubit_bases_are_pauli_eigenbases(self):
        z, x, y = mub_bases(2)
        np.testing.assert_allclose(z, np.eye(2), atol=1e-12)
        sigma_x = np.array([[0, 1], [1, 0]], dtype=complex)
        sigma_y = np.array([[0, -1j], [1j, 0]], dtype=complex)
        # columns must be eigenvectors: U^dag S U diagonal
        for u, s in ((x, sigma_x), (y, sigma_y)):
            m = u.conj().T @ s @ u
            assert np.max(np.abs(m - np.diag(np.diag(m)))) < 1e-12

    @pytest.mark.parametrize("d", SUPPORTED_MUB_DIMS)
    def test_count_identity_and_unbiasedness(self, d):
        bases = mub_bases(d)
        assert len(bases) == d + 1
        np.testing.assert_allclose(bases[0], np.eye(d), atol=1e-12)
        for u in bases:
            np.testing.assert_allclose(u.conj().T @ u, np.eye(d), atol=1e-10)
        for i in range(len(bases)):
            for j in range(i + 1, len(bases)):
                overlap = np.abs(bases[i].conj().T @ bases[j]) ** 2
                assert np.max(np.abs(overlap - 1.0 / d)) <= 1e-10

    def test_d4_explicit(self):
        bases = mub_bases(4)
        assert len(bases) == 5

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError, match="prime-power"):
            mub_bases(6)

    # sha256 over np.round(u, 12) + 0.0 of every basis in order (the + 0.0
    # folds signed zeros); unbiasedness alone misses a change of phase or
    # order, which would change raw data
    PINNED_DIGESTS = {
        2: "4bf7fb14a26e2a72f7d2cd5727e4af75bbe15a4336a2d4598ac63c57bf012cfb",
        3: "707a4d368121e2d658c1d32e88762839a3c5f6fc3918e368c99fa7c690defb10",
        4: "9aafe28ad723b8a3d2393dbf26e5b13be3f2cfa4b1aa5ca1e7271e3e1bcd6560",
        5: "8eef65f6030bddc23fc729908128177d6169b390a357a60260af3f1f29a40bf0",
        7: "27be7ae3b79624a5bd6a7cbaadca05767e18f1f442626f1bd1c7538f21a2b1b5",
        8: "9e5cda03d396727378caf71a7a5be0c74e0a6526147132801f87e241e28f015a",
        9: "6377438848e38088d8378788453b19834a0ef15ebd586c568dc066164a7dac0c",
    }

    @pytest.mark.parametrize("d", SUPPORTED_MUB_DIMS)
    def test_bases_match_pinned_digests(self, d):
        h = hashlib.sha256()
        for u in mub_bases(d):
            h.update((np.round(u, 12) + 0.0).tobytes())
        assert h.hexdigest() == self.PINNED_DIGESTS[d]


class TestStaticProtocols:
    def test_mub_protocol_counts(self):
        assert len(mub_protocol((2, 2))) == 5
        assert len(mub_protocol((3,))) == 4

    @pytest.mark.parametrize("dims,expected", [((2, 2), 9), ((2,), 3),
                                               ((2, 2, 2), 27), ((2, 3), 12)])
    def test_fmub_counts(self, dims, expected):
        specs = fmub_protocol(dims)
        assert len(specs) == expected
        for spec in specs:
            assert_factorized(spec, dims)

    def test_fmub_rejects_unsupported_subsystem(self):
        with pytest.raises(ValueError, match="MUB-supported"):
            fmub_protocol((2, 6))

    @pytest.mark.parametrize("n,expected", [(1, 3), (2, 15), (3, 63)])
    def test_pauli_counts(self, n, expected):
        specs = pauli_protocol(n)
        assert len(specs) == expected
        for spec in specs:
            assert spec.povm.n_outcomes == 2

    def test_pauli_povm_completeness(self):
        d = 4
        paulis = [np.eye(2), np.array([[0, 1], [1, 0]]),
                  np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]
        words = [w for w in itertools.product(range(4), repeat=2) if any(w)]
        specs = pauli_protocol(2)
        assert len(specs) == len(words)
        for spec, (a, b) in zip(specs, words):
            total = spec.povm.elements.sum(axis=0)
            np.testing.assert_allclose(total, np.eye(d), atol=1e-12)
            # eigenprojectors reproduce the word: P+ - P- = W
            np.testing.assert_allclose(
                spec.povm.elements[0] - spec.povm.elements[1],
                np.kron(paulis[a], paulis[b]), atol=1e-12)

    def test_every_issued_povm_is_complete(self):
        for spec in fmub_protocol((2, 2)) + mub_protocol((2, 2)):
            total = spec.povm.elements.sum(axis=0)
            np.testing.assert_allclose(total, np.eye(4), atol=1e-8)


class TestSharedStaticSettings:
    """Static settings are built once per process and shared read-only."""

    def test_builders_are_memoised_on_normalised_arguments(self):
        assert fmub_protocol((2, 2)) is fmub_protocol([2, 2])
        assert mub_protocol((2, 2)) is mub_protocol(np.array([2, 2]))
        assert pauli_protocol(3) is pauli_protocol(np.int64(3))

    @pytest.mark.parametrize("specs", [fmub_protocol((2, 2)),
                                       mub_protocol((3,)), pauli_protocol(2)])
    def test_cached_element_stacks_are_read_only(self, specs):
        for spec in specs:
            with pytest.raises(ValueError, match="read-only"):
                spec.povm.elements[0, 0, 0] = 0.5
            with pytest.raises(dataclasses.FrozenInstanceError):
                spec.shots = 2

    def test_handlers_share_povms_and_runs_leave_them_unchanged(self):
        config = CampaignConfig(dims=(2, 2), test="rps", protocol="fmub",
                                estimator="trml:1", n_grid=(900,),
                                runs_per_n=2, base_seed=4)
        rng = np.random.default_rng(0)
        first, _ = resolve_method(config, 900, rng)
        second, _ = resolve_method(config, 901, rng)
        a = [first.next(0, []) for _ in range(9)]
        b = [second.next(0, []) for _ in range(9)]
        assert [s.shots for s in a] == [100] * 9
        assert [s.shots for s in b] == [101] + [100] * 8
        assert all(x.povm is y.povm for x, y in zip(a, b))
        before = [s.povm.elements.copy() for s in a]
        assert not run_experiment(config, 900, 0).failed
        for spec, elements in zip(fmub_protocol((2, 2)), before):
            np.testing.assert_array_equal(spec.povm.elements, elements)

    # sha256 over "seed failed fidelity" (fidelity to 12 decimals) of runs
    # 0-3 at N = 100 and 1000, base seed 3, test rps; ppi does not iterate,
    # so only a change of settings, sampling or seeding moves these
    PINNED_RUN_DIGESTS = {
        ("fmub+ppi", (2, 2)):
            "2e9ee3ebfbe4156fb17a019bcf722c53296d38433a637f6bb35ff70921f5d2e9",
        ("mub+ppi", (2, 2)):
            "2d483c7fac620d3eb5336f4a6488df0e84e1dbe1ea2a94912ef36953fc86e164",
        ("pauli+ppi", (2, 2, 2)):
            "f9cc50f6759231d9762a31ff02ec8ef7344b282c9dbcad8f975a2b19ddcb0267",
    }

    @pytest.mark.parametrize("method,dims", PINNED_RUN_DIGESTS)
    def test_runs_match_pinned_digests(self, method, dims):
        protocol, estimator = parse_method(method)
        config = CampaignConfig(dims=dims, test="rps", protocol=protocol,
                                estimator=estimator, n_grid=(100, 1000),
                                runs_per_n=4, base_seed=3)
        h = hashlib.sha256()
        for n in config.n_grid:
            for run in range(config.runs_per_n):
                r = run_experiment(config, n, run)
                h.update(f"{r.seed} {r.failed} {r.fidelity:.12f}\n".encode())
        assert h.hexdigest() == self.PINNED_RUN_DIGESTS[method, dims]


class TestAllocateShots:
    def test_even_split(self):
        assert allocate_shots(90, 9) == [10] * 9

    def test_remainder_goes_first(self):
        assert allocate_shots(10, 3) == [4, 3, 3]

    def test_sum_preserved(self):
        rng = np.random.default_rng(40)
        for _ in range(50):
            m = int(rng.integers(1, 30))
            n = int(rng.integers(m, 10_000))
            assert sum(allocate_shots(n, m)) == n

    def test_rejects_insufficient_budget(self):
        with pytest.raises(ValueError):
            allocate_shots(2, 3)


class TestAmubHandler:
    def test_first_step_is_canonical_mub(self):
        handler = AmubHandler((2, 2), _StubEstimator(None))
        canonical = mub_bases(4)
        specs = [handler.next(0, []) for _ in range(5)]
        for spec, expected in zip(specs, canonical):
            np.testing.assert_allclose(spec.povm.elements,
                                       projectors(expected), atol=1e-12)

    def test_exact_estimate_diagonalized(self):
        # not diagonal in the canonical first basis, so only a fitted
        # rotation can diagonalize it
        u = haar_unitary(4, np.random.default_rng(39))
        rho = DensityMatrix((2, 2), u @ np.diag([0.7, 0.2, 0.08, 0.02]) @ u.conj().T)
        handler = AmubHandler((2, 2), _StubEstimator(rho))
        spec = handler.next(100, [object()] * 5)
        assert_orthonormal_basis(spec)
        # every basis projector commutes with the estimate: the basis
        # diagonalizes it
        for p in spec.povm.elements:
            assert np.max(np.abs(p @ rho.mat - rho.mat @ p)) <= 1e-8

    def test_step_budget_schedule(self):
        handler = AmubHandler((2, 2), _StubEstimator(
            DensityMatrix((2, 2), np.eye(4) / 4)))
        specs = [handler.next(6000, [object()] * 5) for _ in range(5)]
        assert sum(s.shots for s in specs) == 200
        assert [s.shots for s in specs] == [40] * 5

    def test_budget_exhaustion_stops(self):
        handler = AmubHandler((2, 2), _StubEstimator(None), budget=500)
        assert handler.next(500, []) is None


def product_vector(targets, dims, rng):
    """The product state _product_vector_factors finds for the targets."""
    factors, _ = _product_vector_factors(targets, dims, rng)
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


class TestOrthogonalProductVector:
    """The product-vector search FO runs: a product state orthogonal to the
    top eigenvectors of an estimate."""

    def test_ground_state_single_component(self):
        rng = np.random.default_rng(41)
        phi = product_vector(ket(4, 0)[:, None], (2, 2), rng)
        assert abs(np.vdot(phi, ket(4, 0))) ** 2 <= 1e-6

    def test_random_state_two_components(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            m = g @ g.conj().T
            _, v = eig_hermitian(m / np.trace(m))
            phi = product_vector(v[:, :2], (2, 2), rng)
            residual = sum(abs(np.vdot(v[:, k], phi)) ** 2 for k in range(2))
            assert residual <= 1e-6

    def test_matches_dense_grid_oracle(self):
        # the solver must do at least as well as a dense scan over product
        # states (cos t, e^{ip} sin t) x (cos t', e^{ip'} sin t')
        rng = np.random.default_rng(43)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = g @ g.conj().T
        _, v = eig_hermitian(m / np.trace(m))
        targets = v[:, :2]

        thetas = np.linspace(0, np.pi / 2, 20)
        phases = np.linspace(0, 2 * np.pi, 20, endpoint=False)
        locals_ = np.array([[np.cos(t), np.exp(1j * p) * np.sin(t)]
                            for t in thetas for p in phases])
        prods = np.einsum("ai,bj->abij", locals_, locals_).reshape(-1, 4)
        grid_min = float(np.min(np.sum(np.abs(prods.conj() @ targets) ** 2, axis=1)))

        phi = product_vector(targets, (2, 2), rng)
        residual = float(np.sum(np.abs(targets.conj().T @ phi) ** 2))
        assert residual <= grid_min + 1e-6
        assert residual <= 1e-6


class TestFoHandler:
    def test_k_max_values(self):
        rng = np.random.default_rng(45)
        assert FoHandler((2, 2), _StubEstimator(None), rng).k_max == 2
        assert FoHandler((2, 2, 2), _StubEstimator(None), rng).k_max == 3

    def test_issues_factorized_basis_with_step_schedule(self):
        rng = np.random.default_rng(47)
        rho = DensityMatrix((2, 2), np.diag([0.9, 0.06, 0.03, 0.01]).astype(complex))
        handler = FoHandler((2, 2), _StubEstimator(rho), rng)
        spec = handler.next(3300, [object()] * 9)
        assert spec.shots == 110  # floor(3300 / 30)
        assert_factorized(spec, (2, 2))
        np.testing.assert_allclose(
            spec.povm.elements.sum(axis=0), np.eye(4), atol=1e-8)

    def test_first_step_without_data_is_random_product_basis(self):
        rng = np.random.default_rng(48)
        handler = FoHandler((2, 2), _StubEstimator(None), rng)
        spec = handler.next(0, [])
        assert spec.shots == 100
        assert_factorized(spec, (2, 2))


class TestFomubHandler:
    def test_step_issues_full_rotated_fmub(self):
        rng = np.random.default_rng(49)
        rho = DensityMatrix((2, 2), np.diag([0.9, 0.06, 0.03, 0.01]).astype(complex))
        handler = FomubHandler((2, 2), _StubEstimator(rho), rng)
        specs = [handler.next(0, [object()] * 9) for _ in range(9)]
        assert all(s is not None for s in specs)
        assert sum(s.shots for s in specs) == 100
        for spec in specs:
            assert_factorized(spec, (2, 2))

    def test_designated_basis_contains_orthogonal_vector(self):
        rng = np.random.default_rng(50)
        rho = DensityMatrix((2, 2), np.diag([0.9, 0.06, 0.03, 0.01]).astype(complex))
        handler = FomubHandler((2, 2), _StubEstimator(rho), rng)
        first = handler.next(0, [object()] * 9)
        # the first element of the first issued basis projects onto the
        # product vector, which must kill the principal component of the
        # estimate
        p0 = first.povm.elements[0]
        np.testing.assert_allclose(p0 @ p0, p0, atol=1e-10)
        assert np.real(np.trace(p0)) == pytest.approx(1.0, abs=1e-10)
        _, v = eig_hermitian(rho.mat)
        assert np.real(v[:, 0].conj() @ p0 @ v[:, 0]) <= 1e-6

    def test_rotated_bases_stay_unbiased(self):
        rng = np.random.default_rng(51)
        rho = DensityMatrix((2, 2), np.eye(4) / 4)
        handler = FomubHandler((2, 2), _StubEstimator(rho), rng)
        specs = [handler.next(0, [object()] * 9) for _ in range(9)]
        for spec in specs:
            assert_orthonormal_basis(spec)
        # settings 0, 4 and 8 use a different local MUB on both qubits, so
        # they are unbiased: |<a|b>|^2 = 1/4 across them
        for i, j in ((0, 4), (0, 8), (4, 8)):
            overlaps = np.real(np.einsum("aij,bji->ab", specs[i].povm.elements,
                                         specs[j].povm.elements))
            np.testing.assert_allclose(overlaps, 0.25, atol=1e-8)


class _Spy:
    """Wraps an estimator and records the setting count of each call."""

    def __init__(self, estimator):
        self.estimator, self.settings = estimator, []

    def __call__(self, records):
        self.settings.append(len(records))
        return self.estimator(records)


def _design_rank(bases):
    elements = np.concatenate([basis_povm(u).elements for u in bases])
    return np.linalg.matrix_rank(_real_design(elements))


class TestNestedFitsStartAtTheCount:
    """Adaptive handlers fit only records of at least ``_complete`` bases:
    fewer cannot determine a state, and from there a fit must succeed."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_mub_count_is_the_fewest_complete_bases(self, d):
        count = AmubHandler((d,), _StubEstimator(None))._complete
        bases = mub_bases(d)
        assert count == len(bases) == d + 1
        assert _design_rank(bases[:count - 1]) < d * d
        assert _design_rank(bases[:count]) == d * d

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 2, 2)])
    def test_product_count_is_the_fewest_complete_bases(self, dims):
        rng = np.random.default_rng(53)
        count = FoHandler(dims, _StubEstimator(None), rng)._complete
        d = int(np.prod(dims))
        bases = [functools.reduce(np.kron, [haar_unitary(dj, rng)
                                            for dj in dims])
                 for _ in range(count)]
        assert _design_rank(bases[:count - 1]) < d * d
        assert _design_rank(bases) == d * d

    @staticmethod
    def fo_run():
        config = CampaignConfig(dims=(2, 2), test="rps", protocol="fo",
                                estimator="ppi", n_grid=(1000,),
                                runs_per_n=2, base_seed=7)
        return run_experiment(config, 1000, 0)

    def test_no_nested_fit_below_the_count(self, monkeypatch):
        spy = _Spy(ppi)
        monkeypatch.setitem(engine.ESTIMATORS, "ppi", (spy, False))
        result = self.fo_run()
        assert not result.failed, result.error
        # one nested fit per step from the ninth basis on, then the final fit
        assert spy.settings == [9, 10]

    def test_a_fit_failing_at_the_count_fails_the_run(self, monkeypatch):
        def incomplete_at_nine(records):
            if len(records) == 9:
                raise IncompleteRecordsError("stub: design rank 15 < 16")
            return ppi(records)

        monkeypatch.setitem(engine.ESTIMATORS, "ppi",
                            (incomplete_at_nine, False))
        result = self.fo_run()
        assert result.failed
        assert result.error == \
            "IncompleteRecordsError: stub: design rank 15 < 16"


class TestCompleteLocalBasis:
    def test_unitary_with_given_first_column(self):
        rng = np.random.default_rng(52)
        for d in (2, 3, 5):
            phi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            phi /= np.linalg.norm(phi)
            u = complete_local_basis(phi, rng)
            np.testing.assert_allclose(u[:, 0], phi, atol=1e-12)
            np.testing.assert_allclose(u.conj().T @ u, np.eye(d), atol=1e-10)

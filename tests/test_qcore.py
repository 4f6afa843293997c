import itertools

import numpy as np
import pytest
import scipy.linalg

from qtbench.qcore import (
    DensityMatrix,
    PureState,
    eig_hermitian,
    fidelity,
    haar_unitary,
    haar_vector,
    project_to_simplex,
)


def purity(rho):
    """Tr(rho^2) of a DensityMatrix."""
    return float(np.real(np.trace(rho.mat @ rho.mat)))


def random_density(d, rng, rank=None):
    """Test helper: random mixed state from a Ginibre factor."""
    r = rank or d
    g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    m = g @ g.conj().T
    return DensityMatrix((d,), m / np.trace(m))


def ket(d, i):
    v = np.zeros(d, dtype=complex)
    v[i] = 1.0
    return v


def simplex_projection_oracle(v):
    """Exact projection by exhaustive support enumeration (small vectors only).

    For each candidate support S the KKT system gives x_S = v_S + lambda with
    lambda = (1 - sum v_S)/|S|; the projection is the feasible candidate with
    the smallest distance to v.
    """
    v = np.asarray(v, dtype=float)
    n = v.size
    best = None
    best_dist = np.inf
    for mask in range(1, 2**n):
        support = [i for i in range(n) if mask >> i & 1]
        lam = (1.0 - v[support].sum()) / len(support)
        x = np.zeros(n)
        x[support] = v[support] + lam
        if np.any(x[support] < -1e-12):
            continue
        dist = np.linalg.norm(x - v)
        if dist < best_dist:
            best_dist = dist
            best = x
    return best


class TestDensityMatrix:
    def test_valid_construction(self):
        rho = DensityMatrix((2,), np.eye(2) / 2)
        assert rho.d == 2

    def test_rejects_nonhermitian(self):
        m = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix((2,), m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix((2,), np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([1.2, -0.2]).astype(complex)
        with pytest.raises(ValueError, match="PSD"):
            DensityMatrix((2,), m)

    def test_rejects_dims_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            DensityMatrix((2, 2), np.eye(2) / 2)


class TestFidelity:
    def test_identity_case(self):
        rng = np.random.default_rng(1)
        rho = random_density(4, rng)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_pure_states(self):
        rho = DensityMatrix((2,), np.outer(ket(2, 0), ket(2, 0)))
        sigma = DensityMatrix((2,), np.outer(ket(2, 1), ket(2, 1)))
        assert fidelity(rho, sigma) == pytest.approx(0.0, abs=1e-12)

    def test_pure_vs_maximally_mixed(self):
        # Oracle: sqrtm-based evaluation of (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2
        # through scipy, independent of the implementation's eigh route.
        rho_m = np.outer(ket(2, 0), ket(2, 0))
        sig_m = np.eye(2) / 2
        s = scipy.linalg.sqrtm(rho_m)
        expected = float(np.real(np.trace(scipy.linalg.sqrtm(s @ sig_m @ s)))) ** 2
        assert expected == pytest.approx(0.5, abs=1e-12)
        got = fidelity(DensityMatrix((2,), rho_m), DensityMatrix((2,), sig_m))
        assert got == pytest.approx(0.5, abs=1e-10)

    def test_matches_sqrtm_oracle_on_random_pairs(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            rho = random_density(3, rng)
            sigma = random_density(3, rng)
            s = scipy.linalg.sqrtm(rho.mat)
            oracle = float(np.real(np.trace(scipy.linalg.sqrtm(s @ sigma.mat @ s)))) ** 2
            assert fidelity(rho, sigma) == pytest.approx(oracle, abs=1e-8)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            rho = random_density(4, rng)
            sigma = random_density(4, rng)
            assert abs(fidelity(rho, sigma) - fidelity(sigma, rho)) <= 1e-8

    def test_pure_states_give_squared_overlap(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            psi = haar_vector(4, rng)
            phi = haar_vector(4, rng)
            expected = abs(np.vdot(psi.vec, phi.vec)) ** 2
            got = fidelity(psi.to_density(), phi.to_density())
            assert got == pytest.approx(expected, abs=1e-10)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError, match="mismatch"):
            fidelity(random_density(2, rng), random_density(3, rng))


class TestHaarSampling:
    def test_unitary_d1_is_phase(self):
        rng = np.random.default_rng(10)
        u = haar_unitary(1, rng)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_unitarity(self):
        rng = np.random.default_rng(11)
        for d in (2, 3, 4, 8):
            u = haar_unitary(d, rng)
            np.testing.assert_allclose(u.conj().T @ u, np.eye(d), atol=1e-10)

    def test_first_entry_moment(self):
        # Haar moment <|U_jk|^2> = 1/d; the |U_00|^2 sample mean over S draws
        # must land within 3 standard errors (var of |U_00|^2 is known to be
        # (1/d^2)(d-1)/(d+1), bounded above by 1/d^2).
        rng = np.random.default_rng(12)
        d, n = 3, 100_000
        vals = np.empty(n)
        for i in range(n):
            vals[i] = abs(haar_unitary(d, rng)[0, 0]) ** 2
        se = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - 1.0 / d) < 3 * se

    def test_vector_norm_and_moment(self):
        rng = np.random.default_rng(13)
        d, n = 4, 100_000
        g = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        vals = np.abs(g[:, 0]) ** 2  # oracle: same distribution as haar_vector
        se = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - 1.0 / d) < 3 * se
        for _ in range(100):
            v = haar_vector(d, rng)
            assert abs(np.linalg.norm(v.vec) - 1.0) < 1e-12

    def test_vector_d1(self):
        rng = np.random.default_rng(14)
        v = haar_vector(1, rng)
        assert abs(abs(v.vec[0]) - 1.0) < 1e-12


class TestSimplexProjection:
    def test_already_on_simplex(self):
        np.testing.assert_allclose(project_to_simplex([1.0, 0.0, 0.0]), [1, 0, 0])
        np.testing.assert_allclose(project_to_simplex([0.25] * 4), [0.25] * 4)

    def test_known_case(self):
        v = np.array([0.6, 0.5, -0.1])
        oracle = simplex_projection_oracle(v)
        np.testing.assert_allclose(oracle, [0.55, 0.45, 0.0], atol=1e-12)
        np.testing.assert_allclose(project_to_simplex(v), oracle, atol=1e-12)

    def test_matches_oracle_on_random_vectors(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            n = rng.integers(1, 7)
            v = rng.standard_normal(n) * rng.uniform(0.1, 3.0)
            got = project_to_simplex(v)
            oracle = simplex_projection_oracle(v)
            np.testing.assert_allclose(got, oracle, atol=1e-9)
            assert np.all(got >= 0)
            assert got.sum() == pytest.approx(1.0, abs=1e-12)

    def test_idempotent_and_nonexpansive(self):
        rng = np.random.default_rng(16)
        for _ in range(30):
            v = rng.standard_normal(5)
            w = rng.standard_normal(5)
            pv, pw = project_to_simplex(v), project_to_simplex(w)
            np.testing.assert_allclose(project_to_simplex(pv), pv, atol=1e-12)
            assert np.linalg.norm(pv - pw) <= np.linalg.norm(v - w) + 1e-12

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError):
            project_to_simplex([])


class TestEigHermitian:
    def test_identity(self):
        w, _ = eig_hermitian(np.eye(2))
        np.testing.assert_allclose(w, [1.0, 1.0])

    def test_diagonal_sorting(self):
        w, v = eig_hermitian(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(w, [3.0, 2.0, 1.0])
        # eigenvectors are a permutation of the standard basis
        np.testing.assert_allclose(np.abs(v), np.eye(3)[:, [0, 2, 1]], atol=1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            m = (g + g.conj().T) / 2
            w, v = eig_hermitian(m)
            np.testing.assert_allclose((v * w) @ v.conj().T, m, atol=1e-8)
            assert np.all(np.diff(w) <= 1e-12)

    def test_rejects_nonhermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestPureState:
    def test_norm_validation(self):
        with pytest.raises(ValueError, match="norm"):
            PureState((2,), np.array([1.0, 1.0]))

    def test_to_density(self):
        psi = PureState((2,), np.array([1.0, 1.0]) / np.sqrt(2))
        rho = psi.to_density()
        assert purity(rho) == pytest.approx(1.0, abs=1e-12)

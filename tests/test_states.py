import pickle

import numpy as np
import pytest

from qtbench.qcore import PureState, fidelity, haar_vector
from qtbench.states import (
    TestKind,
    depolarize,
    depolarizing_weight,
    gen_rmspt,
    gen_rnp,
    gen_rps,
    generate_state,
    noisy_register,
    random_unitary_error,
)


class TestTestKind:
    def test_ids_round_trip(self):
        for name in ("rps", "rmspt2", "rmsptd", "rnp"):
            assert TestKind(name).value == name

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown test id"):
            TestKind("bogus")

    def test_members_pickle_to_themselves(self):
        # pool workers receive the campaign's test by pickling
        for kind in TestKind:
            assert pickle.loads(pickle.dumps(kind)) is kind


def purity(rho):
    """Tr(rho^2) of a DensityMatrix."""
    return float(np.real(np.trace(rho.mat @ rho.mat)))


class TestRps:
    def test_purity_and_trace(self):
        rng = np.random.default_rng(20)
        for dims in ((2,), (2, 2), (3,)):
            rho = gen_rps(dims, rng)
            assert purity(rho) == pytest.approx(1.0, abs=1e-10)
            assert np.trace(rho.mat).real == pytest.approx(1.0, abs=1e-12)

    def test_first_diagonal_moment(self):
        # first column of a Haar unitary is a uniform unit vector, so
        # <rho_00> = <|U_00|^2> = 1/d
        rng = np.random.default_rng(21)
        n = 100_000
        vals = np.empty(n)
        for i in range(n):
            vals[i] = gen_rps((2,), rng).mat[0, 0].real
        se = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - 0.5) < 3 * se


class TestRmspt:
    def test_rejects_trivial_ancilla(self):
        rng = np.random.default_rng(22)
        with pytest.raises(ValueError, match="ancilla"):
            gen_rmspt((2, 2), 1, rng)

    def test_schmidt_rank_bound(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            rho = gen_rmspt((2, 2), 2, rng)
            w = np.linalg.eigvalsh(rho.mat)
            assert np.all(w[:-2] <= 1e-10)

    def test_mean_purity_matches_induced_measure(self):
        # Known purity moment of the induced measure: (d + dA)/(d dA + 1),
        # so 4/5 for a qubit with a qubit ancilla. Cross-checked against an
        # independent brute-force oracle: raw Gaussian vectors, explicit
        # outer product, index-sum partial trace.
        rng = np.random.default_rng(24)
        n = 100_000
        g = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        psi = g.reshape(n, 2, 2)
        rho_s = np.einsum("nsa,nta->nst", psi, psi.conj())
        oracle_purity = np.einsum("nst,nts->n", rho_s, rho_s).real
        se_o = oracle_purity.std(ddof=1) / np.sqrt(n)
        assert abs(oracle_purity.mean() - 0.8) < 3 * se_o

        m = 20_000
        vals = np.empty(m)
        for i in range(m):
            vals[i] = purity(gen_rmspt((2,), 2, rng))
        se = vals.std(ddof=1) / np.sqrt(m)
        assert abs(vals.mean() - 0.8) < 3 * se


class TestNoisyRegister:
    def test_zero_error_is_ground_state(self):
        rho = noisy_register((2, 2), 0.0)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(rho.mat, expected, atol=1e-15)

    def test_single_qubit_values(self):
        rho = noisy_register((2,), 0.05)
        np.testing.assert_allclose(np.diag(rho.mat).real, [0.95, 0.05])

    def test_two_qubit_largest_eigenvalue(self):
        rho = noisy_register((2, 2), 0.05)
        assert np.linalg.eigvalsh(rho.mat)[-1] == pytest.approx(0.9025, abs=1e-12)

    def test_rejects_non_qubits(self):
        with pytest.raises(ValueError, match="qubit"):
            noisy_register((3,), 0.05)


class TestDepolarize:
    def test_endpoints(self):
        rng = np.random.default_rng(25)
        rho = gen_rps((2, 2), rng)
        np.testing.assert_allclose(depolarize(rho, 0.0).mat, rho.mat, atol=1e-15)
        np.testing.assert_allclose(depolarize(rho, 1.0).mat, np.eye(4) / 4,
                                   atol=1e-15)

    def test_spectral_mapping(self):
        # eigenvalues must map lambda -> (1-p) lambda + p/d
        rng = np.random.default_rng(26)
        rho = gen_rmspt((2, 2), 4, rng)
        p = 0.3
        before = np.linalg.eigvalsh(rho.mat)
        after = np.linalg.eigvalsh(depolarize(rho, p).mat)
        np.testing.assert_allclose(after, (1 - p) * before + p / 4, atol=1e-12)


class TestRnp:
    def test_noiseless_is_pure(self):
        rng = np.random.default_rng(27)
        rho = gen_rnp((2, 2), rng, p=0.0, e0=0.0)
        assert purity(rho) == pytest.approx(1.0, abs=1e-10)

    def test_depolarizing_floor(self):
        rng = np.random.default_rng(28)
        rho = gen_rnp((2, 2), rng, p=0.01, e0=0.0)
        assert np.linalg.eigvalsh(rho.mat)[0] == pytest.approx(0.01 / 4, abs=1e-12)

    def test_initialization_error_principal_eigenvalue(self):
        rng = np.random.default_rng(29)
        rho = gen_rnp((2, 2), rng, p=0.0, e0=0.05)
        assert np.linalg.eigvalsh(rho.mat)[-1] == pytest.approx(0.9025, abs=1e-12)

    def test_full_rank_with_noise(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            rho = gen_rnp((2, 2), rng)
            assert np.linalg.eigvalsh(rho.mat)[0] >= -1e-12

    def test_rejects_non_qubits(self):
        rng = np.random.default_rng(31)
        with pytest.raises(ValueError, match="qubit"):
            gen_rnp((3,), rng)

    def test_noiseless_first_moment_matches_rps(self):
        rng = np.random.default_rng(32)
        n = 10_000
        mean_rnp = np.zeros((2, 2), dtype=complex)
        mean_rps = np.zeros((2, 2), dtype=complex)
        for _ in range(n):
            mean_rnp += gen_rnp((2,), rng, p=0.0, e0=0.0).mat
            mean_rps += gen_rps((2,), rng).mat
        # both average to I/2; agreement bound ~ few / sqrt(n)
        assert np.max(np.abs(mean_rnp - mean_rps)) / n < 0.02


class TestRandomUnitaryError:
    def test_sigma_zero_is_identity(self):
        rng = np.random.default_rng(33)
        phi = haar_vector(4, rng)
        out = random_unitary_error(phi, 0.0, rng)
        assert abs(np.vdot(phi.vec, out.vec)) == pytest.approx(1.0, abs=1e-12)

    def test_overlap_is_real_positive_and_consistent(self):
        # by construction the output is a|phi> + sqrt(1-a^2)|g_perp>, so the
        # overlap <phi|out> equals the drawn a exactly
        rng = np.random.default_rng(34)
        for _ in range(50):
            phi = haar_vector(4, rng)
            out = random_unitary_error(phi, 0.1, rng)
            a = np.vdot(phi.vec, out.vec)
            assert abs(a.imag) < 1e-12
            assert 0.0 < a.real <= 1.0 + 1e-12
            assert np.linalg.norm(out.vec) == pytest.approx(1.0, abs=1e-12)

    def test_fixed_a_average_is_depolarizing_diagonal(self):
        # Monte Carlo check of the averaging theorem at fixed a: the mean of
        # W|0><0|W^dag over Haar draws of |g> tends to
        # diag(a^2, (1-a^2)/(d-1), ...). Oracle built directly from the
        # defining expression.
        rng = np.random.default_rng(35)
        d, s, a = 4, 100_000, 0.97
        e0 = np.zeros(d, dtype=complex)
        e0[0] = 1.0
        g = rng.standard_normal((s, d)) + 1j * rng.standard_normal((s, d))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        g_perp = g - np.outer(g[:, 0], e0)
        g_perp /= np.linalg.norm(g_perp, axis=1, keepdims=True)
        out = a * e0[None, :] + np.sqrt(1 - a * a) * g_perp
        avg = np.einsum("ni,nj->ij", out, out.conj()) / s
        expected = np.diag([a * a] + [(1 - a * a) / (d - 1)] * (d - 1))
        assert np.max(np.abs(avg - expected)) <= 5.0 / np.sqrt(s)


class TestDepolarizingWeight:
    def test_values(self):
        assert depolarizing_weight(0.0, 4) == 0.0
        assert depolarizing_weight(0.1, 4) == pytest.approx(0.013233333333, abs=1e-10)
        assert depolarizing_weight(0.1, 2) == pytest.approx(0.01985, abs=1e-12)

    def test_range_checks(self):
        with pytest.raises(ValueError):
            depolarizing_weight(-0.1, 4)
        with pytest.raises(ValueError):
            depolarizing_weight(0.1, 1)


class TestGenerateStateDispatch:
    @pytest.mark.parametrize("kind,dims", [
        (TestKind.RPS, (2, 3)), (TestKind.RMSPT2, (2, 3)),
        (TestKind.RMSPTD, (3, 2)), (TestKind.RNP, (2, 2))])
    def test_dims_as_list_or_numpy_ints_give_the_same_state(self, kind,
                                                            dims):
        def draw(given):
            return generate_state(kind, given, np.random.default_rng(41))
        ref = draw(dims)
        for given in (list(dims), np.array(dims), [np.int64(x) for x in dims]):
            rho = draw(given)
            assert rho.dims == dims
            assert all(type(x) is int for x in rho.dims)
            assert rho.mat.tobytes() == ref.mat.tobytes()

    def test_all_kinds_produce_valid_states(self):
        rng = np.random.default_rng(36)
        for kind in TestKind:
            rho = generate_state(kind, (2, 2), rng)
            assert rho.dims == (2, 2)
            assert np.trace(rho.mat).real == pytest.approx(1.0, abs=1e-10)

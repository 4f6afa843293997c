"""Density-matrix estimators working from measurement records.

All estimators consume a list of MeasurementRecord and return an
EstimatorReport whose estimate is a valid density matrix. The reconstruction
strategies: pseudo-inversion with spectrum projection (ppi), projected
gradient least squares (frls), fixed-point maximum likelihood over the full
state space (frml), likelihood maximization over rank-r root factors (trml),
and rank selection by chi-squared adequacy (arml).
"""

from dataclasses import dataclass

import numpy as np
import scipy.stats

from .protocols import IncompleteRecordsError, MeasurementSpec
from .qcore import DensityMatrix, eig_hermitian, hermitize, project_to_simplex
from .stats import nu

MAX_ITERATIONS = 5000
FIXED_POINT_TOL = 1e-9   # max-entry residual of the likelihood equation;
                         # at large sample sizes looser stops leave a bias
                         # comparable to the statistical error
NEWTON_BELOW = 1e-3      # trml residual below which Newton steps are tried
FRLS_KKT_TOL = 1e-7      # gradient-mapping residual of the least-squares fit
MERGE_EXPECTED_FLOOR = 1e-9


@dataclass(eq=False)
class MeasurementRecord:
    """One executed measurement: the setting plus per-outcome counts.

    Counts produced by the engine are integers; fractional counts are
    accepted so exact (infinite-sample) frequencies can be fed to estimators
    directly.
    """

    spec: MeasurementSpec
    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=float)
        if self.counts.ndim != 1 or self.counts.size != self.spec.povm.n_outcomes:
            raise ValueError("counts length must match the POVM outcome count")
        if np.any(self.counts < 0):
            raise ValueError("counts must be nonnegative")
        total = float(self.counts.sum())
        if abs(total - self.spec.shots) > 1e-6 * max(1.0, self.spec.shots):
            raise ValueError(
                f"counts sum {total} does not match shots {self.spec.shots}")


@dataclass(eq=False)
class EstimatorReport:
    estimate: DensityMatrix
    rank_used: int
    iterations: int
    converged: bool
    pvalues: list[float] | None = None


def _stack(records):
    if not records:
        raise ValueError("no measurement records")
    d = records[0].spec.povm.d
    for r in records:
        if r.spec.povm.d != d:
            raise ValueError("records mix different Hilbert-space dimensions")
    povm = np.concatenate([r.spec.povm.elements for r in records], axis=0)
    counts = np.concatenate([r.counts for r in records])
    shots = np.concatenate([np.full(r.spec.povm.n_outcomes, float(r.spec.shots))
                            for r in records])
    return povm, counts, shots


def _dims_of(records) -> tuple[int, ...]:
    dims = records[0].spec.dims
    if dims is None:
        dims = (records[0].spec.povm.d,)
    return tuple(dims)


def _probs(povm: np.ndarray, rho: np.ndarray) -> np.ndarray:
    return np.real(np.einsum("kij,ji->k", povm, rho))


def log_likelihood(rho: DensityMatrix, records) -> float:
    """Multinomial log-likelihood sum_k n_k ln Tr(rho P_k), with 0 ln 0 = 0.

    A strictly positive count on an exactly-zero probability yields -inf.
    """
    povm, counts, _ = _stack(records)
    p = np.clip(_probs(povm, rho.mat), 0.0, None)
    mask = counts > 0
    if np.any(p[mask] == 0.0):
        return -np.inf
    return float(np.sum(counts[mask] * np.log(p[mask])))


# --- pseudo-inversion --------------------------------------------------------

def _real_design(povm: np.ndarray) -> np.ndarray:
    """Design matrix of the map (Hermitian X) -> Tr(X P_k) in the real
    parametrization (diagonal, 2 Re upper, 2 Im upper)."""
    d = povm.shape[1]
    iu = np.triu_indices(d, 1)
    diag = povm[:, np.arange(d), np.arange(d)].real
    re = 2.0 * povm[:, iu[0], iu[1]].real
    im = 2.0 * povm[:, iu[0], iu[1]].imag
    return np.hstack([diag, re, im])


def _unpack_hermitian(theta: np.ndarray, d: int) -> np.ndarray:
    iu = np.triu_indices(d, 1)
    n_off = iu[0].size
    x = np.zeros((d, d), dtype=complex)
    x[np.arange(d), np.arange(d)] = theta[:d]
    off = theta[d:d + n_off] + 1j * theta[d + n_off:]
    x[iu] = off
    x[(iu[1], iu[0])] = off.conj()
    return x


def _check_complete(design: np.ndarray, d: int):
    rank = np.linalg.matrix_rank(design)
    if rank < d * d:
        raise IncompleteRecordsError(
            f"measurement records are informationally incomplete: design rank "
            f"{rank} < {d * d}")


def ppi(records) -> EstimatorReport:
    """Projected pseudo-inversion: least-squares solve of the observed
    frequencies for a Hermitian matrix, then projection of its spectrum onto
    the probability simplex (eigenvectors kept)."""
    povm, counts, shots = _stack(records)
    d = povm.shape[1]
    freqs = counts / shots
    design = _real_design(povm)
    _check_complete(design, d)
    theta, *_ = np.linalg.lstsq(design, freqs, rcond=None)
    x = _unpack_hermitian(theta, d)
    w, v = eig_hermitian(x)
    lam = project_to_simplex(w)
    est = hermitize((v * lam) @ v.conj().T)
    return EstimatorReport(
        estimate=DensityMatrix(_dims_of(records), est),
        rank_used=d, iterations=0, converged=True)


# --- projected-gradient least squares ---------------------------------------

def _project_density(m: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the density-matrix set: Hermitian part, then
    eigenvalue projection onto the simplex."""
    w, v = np.linalg.eigh(hermitize(m))
    lam = project_to_simplex(w)
    return hermitize((v * lam) @ v.conj().T)


def frls(records) -> EstimatorReport:
    """Least squares over density matrices: minimize the shot-weighted squared
    gap between observed and model frequencies by projected gradient descent,
    started from the pseudo-inversion estimate."""
    povm, counts, shots = _stack(records)
    d = povm.shape[1]
    freqs = counts / shots
    weights = shots / shots.sum()
    rho = ppi(records).estimate.mat

    lipschitz = 2.0 * float(np.sum(weights * np.einsum("kij,kij->k", povm,
                                                       povm.conj()).real))
    step = 1.0 / lipschitz

    def objective(m):
        return float(np.sum(weights * (freqs - _probs(povm, m)) ** 2))

    obj = objective(rho)
    converged = False
    it = 0
    for it in range(1, MAX_ITERATIONS + 1):
        resid = freqs - _probs(povm, rho)
        grad = np.einsum("k,kij->ij", -2.0 * weights * resid, povm)
        cand = _project_density(rho - step * grad)
        disp = float(np.max(np.abs(cand - rho)))
        if disp / step <= FRLS_KKT_TOL:
            converged = True
            break
        cand_obj = objective(cand)
        if cand_obj < obj:
            rho, obj = cand, cand_obj
        else:
            # fixed 1/L steps cannot overshoot a smooth convex objective;
            # hitting this means we are at numerical stationarity
            converged = True
            break
    return EstimatorReport(
        estimate=DensityMatrix(_dims_of(records), rho),
        rank_used=d, iterations=it, converged=converged)


# --- maximum likelihood ------------------------------------------------------

def _likelihood_operator(povm, freq, p):
    """R(rho)/N = sum_k (n_k / N) P_k / p_k, outcomes with zero counts
    skipped. Working with frequencies keeps the iteration exactly invariant
    under a rescaling of all counts."""
    mask = freq > 0
    ratio = freq[mask] / np.clip(p[mask], 1e-300, None)
    return np.einsum("k,kij->ij", ratio, povm[mask])


def frml(records) -> EstimatorReport:
    """Full-rank maximum likelihood via the diluted fixed-point iteration
    rho <- (1 - eps) rho + eps R rho R / Tr(R rho R), with eps halved whenever
    a step would lower the likelihood.

    The iteration starts from the maximally mixed state (a rank-deficient
    start could never grow its support); the pseudo-inversion point is kept
    as a candidate and returned when the iterates plateau below it, which
    happens near boundary optima where the fixed-point map converges slowly.
    """
    povm, counts, _ = _stack(records)
    d = povm.shape[1]
    _check_complete(_real_design(povm), d)
    freq = counts / counts.sum()
    anchor = ppi(records).estimate.mat
    rho = np.eye(d, dtype=complex) / d

    def loglik(p):
        mask = freq > 0
        return float(np.sum(freq[mask] * np.log(np.clip(p[mask], 1e-300, None))))

    p = _probs(povm, rho)
    ll = loglik(p)
    eps = 1.0
    converged = False
    it = 0
    for it in range(1, MAX_ITERATIONS + 1):
        r_op = _likelihood_operator(povm, freq, p)
        residual = float(np.max(np.abs(r_op @ rho - rho)))
        if residual <= FIXED_POINT_TOL:
            converged = True
            break
        rrr = hermitize(r_op @ rho @ r_op)
        rrr /= np.real(np.trace(rrr))
        while eps > 1e-8:
            cand = (1.0 - eps) * rho + eps * rrr
            p_cand = _probs(povm, cand)
            ll_cand = loglik(p_cand)
            if ll_cand >= ll:
                break
            eps /= 2.0
        else:
            converged = residual <= 10 * FIXED_POINT_TOL
            break
        rho, p, ll = cand, p_cand, ll_cand
        eps = min(1.0, 2.0 * eps)
    # return the anchor bit-identically unless the iterate clearly beats it,
    # so likelihood comparisons against the pseudo-inverse cannot lose to
    # summation-order roundoff
    if loglik(_probs(povm, anchor)) >= ll - 1e-12 * max(1.0, abs(ll)):
        r_op = _likelihood_operator(povm, freq, _probs(povm, anchor))
        converged = float(np.max(np.abs(r_op @ anchor - anchor))) <= FIXED_POINT_TOL
        estimate = DensityMatrix(_dims_of(records), anchor)
    else:
        estimate = DensityMatrix(_dims_of(records), hermitize(rho))
    return EstimatorReport(estimate=estimate, rank_used=d, iterations=it,
                           converged=converged)


def _real(z: np.ndarray) -> np.ndarray:
    """Real embedding [Re z; Im z] of a complex array, flattened."""
    return np.concatenate([z.real.ravel(), z.imag.ravel()])


def _gauge_complement(c: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the real directions at c orthogonal to
    the U(r) gauge orbit c -> c U, whose tangents are c A with A
    anti-Hermitian."""
    r = c.shape[1]
    tangents = []
    for j in range(r):
        for k in range(r):
            a = np.zeros((r, r), dtype=complex)
            if j == k:
                a[j, j] = 1j
            elif j < k:
                a[j, k], a[k, j] = 1.0, -1.0
            else:
                a[j, k] = a[k, j] = 1j
            tangents.append(_real(c @ a))
    return np.linalg.svd(np.column_stack(tangents))[0][:, r * r:]


def _newton_step(povm, freq, p, c, r_op) -> np.ndarray:
    """Newton step for the root factor c (unit norm) on the extended
    log-likelihood F(c) = sum_k f_k ln Tr(P_k c c^dag) - Tr(c c^dag), whose
    stationary points are those of the likelihood with Tr(c c^dag) = 1.

    In the real embedding x = [Re c; Im c], with g_k the embedding of P_k c,
    grad F = 2 (R c - c) and
    hess F = 2 R (x) I_r - 4 sum_k f_k g_k g_k^T / p_k^2 - 2 I.
    F is constant along the U(r) gauge c -> c U, so the step is solved by
    least squares in the directions orthogonal to it; a step along the
    gauge would only rotate c, and off the stationary point its curvature
    is of the order of the gradient, which would blow such a step up.
    """
    d, r = c.shape
    mask = freq > 0
    g = np.einsum("kij,jr->kir", povm[mask], c).reshape(-1, d * r)
    g = np.hstack([g.real, g.imag])
    weights = freq[mask] / p[mask] ** 2
    x = _real(c)
    grad = 2.0 * (_real(r_op @ c) - x)
    rk = np.kron(r_op, np.eye(r))   # R acting on c.ravel()
    hess = (2.0 * np.block([[rk.real, -rk.imag], [rk.imag, rk.real]])
            - 4.0 * (g.T * weights) @ g - 2.0 * np.eye(x.size))
    basis = _gauge_complement(c)
    y = np.linalg.lstsq(basis.T @ hess @ basis, -(basis.T @ grad),
                        rcond=None)[0]
    step = basis @ y
    return (step[:d * r] + 1j * step[d * r:]).reshape(d, r)


def trml(records, r: int) -> EstimatorReport:
    """Rank-restricted maximum likelihood over rho = c c^dag with c of shape
    (d, r) and unit trace. Initialized from the top-r subspace of the
    pseudo-inversion estimate.

    Far from the optimum, backtracking gradient ascent on the root factor.
    Once the residual max|R c - mu c| of the likelihood equation falls below
    NEWTON_BELOW, a Newton step (_newton_step) is tried first at every
    iteration and kept when it lowers the residual; after a rejected Newton
    step, the next waits until gradient steps have lowered the residual
    tenfold. The Newton finish is needed because near the optimum a gradient
    step changes the log-likelihood by about residual^2, below what double
    precision resolves, so likelihood tests stop telling good steps from bad.
    The fit converges when the residual is at most FIXED_POINT_TOL; it stops
    unconverged at MAX_ITERATIONS or when no gradient step improves the
    likelihood.
    """
    povm, counts, _ = _stack(records)
    d = povm.shape[1]
    if not 1 <= r <= d:
        raise ValueError(f"rank must lie in 1..{d}")
    freq = counts / counts.sum()

    w, v = eig_hermitian(ppi(records).estimate.mat)
    lam = 0.95 * w[:r] + 0.05 / r  # keep every root column populated
    lam = np.clip(lam, 1e-12, None)
    lam /= lam.sum()
    c = v[:, :r] * np.sqrt(lam)

    def loglik_of(c_mat):
        p = np.clip(_probs(povm, c_mat @ c_mat.conj().T), 1e-300, None)
        mask = freq > 0
        return float(np.sum(freq[mask] * np.log(p[mask]))), p

    def residual_of(c_mat, p):
        r_op = _likelihood_operator(povm, freq, p)
        rc = r_op @ c_mat
        mu = float(np.real(np.trace(c_mat.conj().T @ rc)))
        return r_op, rc, float(np.max(np.abs(rc - mu * c_mat)))

    ll, p = loglik_of(c)
    r_op, rc, residual = residual_of(c, p)
    newton_below = NEWTON_BELOW
    alpha = 1.0
    converged = False
    it = 0
    for it in range(1, MAX_ITERATIONS + 1):
        if residual <= FIXED_POINT_TOL:
            # the max-entry residual depends on the gauge of c: judge it on
            # the estimate's own root factor V sqrt(lambda)
            u, sv, _ = np.linalg.svd(c, full_matrices=False)
            c = u * sv
            r_op, rc, residual = residual_of(c, p)
            if residual <= FIXED_POINT_TOL:
                converged = True
                break
        if residual <= newton_below:
            cand = c + _newton_step(povm, freq, p, c, r_op)
            cand /= np.linalg.norm(cand)
            ll_cand, p_cand = loglik_of(cand)
            r_cand = residual_of(cand, p_cand)
            if r_cand[2] < residual:
                c, ll, p = cand, ll_cand, p_cand
                r_op, rc, residual = r_cand
                continue
            newton_below = residual / 10.0
        improved = False
        while alpha > 1e-12:
            cand = c + alpha * rc
            cand /= np.linalg.norm(cand)
            ll_cand, p_cand = loglik_of(cand)
            if ll_cand >= ll:
                improved = True
                break
            alpha /= 2.0
        if not improved:
            break
        c, ll, p = cand, ll_cand, p_cand
        r_op, rc, residual = residual_of(c, p)
        alpha = min(alpha * 2.0, 1e3)
    est = hermitize(c @ c.conj().T)
    est /= np.real(np.trace(est))
    return EstimatorReport(
        estimate=DensityMatrix(_dims_of(records), est),
        rank_used=r, iterations=it, converged=converged)


# --- rank adequacy -----------------------------------------------------------

def chi2_statistic(records, rho_fit: DensityMatrix, r: int) -> tuple[float, int]:
    """Pearson statistic and degrees of freedom of a rank-r fit.

    Degrees of freedom: sum over settings of (outcomes - 1), minus the
    (2d - r) r - 1 parameters of a rank-r state. Outcomes whose expected
    count is structurally zero and were never observed are merged into the
    setting's largest-expected outcome before the statistic is formed.
    """
    d = rho_fit.d
    stat = 0.0
    dof = -nu(d, r)
    for rec in records:
        p = np.clip(_probs(rec.spec.povm.elements, rho_fit.mat), 0.0, None)
        expected = p * rec.spec.shots
        observed = rec.counts.copy()
        # merge structurally impossible outcomes that were indeed never seen;
        # an observed count on a near-zero expectation is divergent evidence
        # against the model and must keep its (floored) contribution
        merge = (expected < MERGE_EXPECTED_FLOOR) & (observed == 0)
        if np.any(merge):
            sink = int(np.argmax(expected))
            expected[sink] += expected[merge].sum()
            observed[sink] += observed[merge].sum()
            expected, observed = expected[~merge], observed[~merge]
        stat += float(np.sum((observed - expected) ** 2
                             / np.clip(expected, MERGE_EXPECTED_FLOOR, None)))
        dof += expected.size - 1
    return stat, dof


def chi2_pvalue(records, rho_fit: DensityMatrix, r: int) -> float:
    """Upper-tail chi-squared adequacy p-value of a rank-r fit; saturated
    models (dof <= 0) score 1."""
    stat, dof = chi2_statistic(records, rho_fit, r)
    if dof <= 0:
        return 1.0
    return float(scipy.stats.chi2.sf(stat, dof))


def arml(records, alpha: float = 0.05) -> EstimatorReport:
    """Adequate-rank maximum likelihood: fit ranks r = 1..d in sequence and
    stop at the first adequate one (p-value >= alpha), or one step after the
    p-value starts decreasing."""
    povm, _, _ = _stack(records)
    d = povm.shape[1]
    pvalues: list[float] = []
    reports: list[EstimatorReport] = []
    chosen = None
    for r in range(1, d + 1):
        rep = trml(records, r)
        reports.append(rep)
        pvalues.append(chi2_pvalue(records, rep.estimate, r))
        if pvalues[-1] >= alpha:
            chosen = r
            break
        if r >= 2 and pvalues[-1] < pvalues[-2]:
            chosen = r - 1
            break
    if chosen is None:
        chosen = d
    picked = reports[chosen - 1]
    return EstimatorReport(
        estimate=picked.estimate, rank_used=chosen,
        iterations=sum(rep.iterations for rep in reports),
        converged=picked.converged, pvalues=pvalues)

"""Density-matrix estimators working from measurement records.

All estimators consume a run's records as one RecordStack of stacked arrays
(a list of MeasurementRecord is stacked once on entry) and return an
EstimatorReport whose estimate is a valid density matrix. The reconstruction
strategies: pseudo-inversion with spectrum projection (ppi), projected
gradient least squares (frls), likelihood maximization over rank-r root
factors (trml), maximum likelihood over the full state space (frml: trml at
rank d, anchored at the pseudo-inversion point), and rank selection by
chi-squared adequacy (arml).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .protocols import (IncompleteRecordsError, MeasurementSpec, SettingStack,
                        _real_design, _triu)
from .qcore import DensityMatrix, eig_hermitian, hermitize, project_to_simplex
from .stats import chi2_sf, nu

MAX_ITERATIONS = 5000
FIXED_POINT_TOL = 1e-9   # max-entry residual of the likelihood equation;
                         # at large sample sizes looser stops leave a bias
                         # comparable to the statistical error
NEWTON_BELOW = 1e-3      # trml residual below which Newton steps are tried
FRLS_KKT_TOL = 1e-7      # gradient-mapping residual of the least-squares fit
MERGE_EXPECTED_FLOOR = 1e-9
ARML_ALPHA = 0.05        # p-value from which arml deems a rank adequate


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
        _check_counts(self.counts, self.spec.shots)


def _check_counts(counts: np.ndarray, shots):
    """Counts, a setting's on the last axis, are nonnegative and sum to its
    shots (NaN fails); the first failing setting raises."""
    if np.any(counts < 0):
        raise ValueError("counts must be nonnegative")
    total, shots = np.ravel(counts.sum(axis=-1)), np.ravel(shots)
    bad = ~(np.abs(total - shots) <= 1e-6 * np.maximum(1.0, shots))
    if bad.any():
        raise ValueError(f"counts sum {total[bad][0]} does not match shots "
                         f"{shots[bad][0]}")


class RecordStack:
    """A run's records stacked setting after setting, every setting with the
    one outcome count ``outcomes`` its first step set: ``elements`` (K, d, d),
    the outcomes' POVM elements; ``counts`` and ``shots`` (K,), floats, a
    setting's shots repeated on each of its outcomes. Layout: as
    SettingStack's."""

    def __init__(self):
        self.dims = self.outcomes = self._step = None

    @classmethod
    def of(cls, records) -> "RecordStack":
        """records if a RecordStack, else a list of MeasurementRecord
        appended as one step; either must hold a setting."""
        if not isinstance(records, cls):
            records, stack = list(records), cls()
            if any(r.spec.povm.d != records[0].spec.povm.d for r in records):
                raise ValueError(
                    "records mix different Hilbert-space dimensions")
            if records:
                stack.append(SettingStack(r.spec for r in records),
                             [r.counts for r in records],
                             [r.spec.shots for r in records])
            records = stack
        if not len(records):
            raise ValueError("no measurement records")
        return records

    def __len__(self) -> int:
        return self.counts.size // self.outcomes if self.outcomes else 0

    @property
    def d(self) -> int:
        return self.elements.shape[1]

    @cached_property
    def design(self) -> np.ndarray:
        """ppi's design matrix: while the stack holds one step, that step's
        own; else computed once per content."""
        return (_real_design(self.elements) if self._step is None
                else self._step.design)

    def append(self, settings: SettingStack, counts, shots):
        """Add a step's settings, counts (settings, outcomes) and shots; its
        outcome count must be the stack's."""
        counts = np.asarray(counts, dtype=float)
        outcomes = settings[0].povm.n_outcomes
        if self.outcomes not in (None, outcomes):
            raise ValueError(f"a run's settings must share one outcome count: "
                             f"{outcomes} after {self.outcomes}")
        if (counts.shape != (len(settings), outcomes)
                or np.shape(shots) != (len(settings),)):
            raise ValueError(
                f"{len(settings)} settings of {outcomes} outcomes do not match "
                f"counts of shape {counts.shape} and {np.size(shots)} shots")
        _check_counts(counts, shots)
        new = (settings.elements, counts.ravel(),
               np.repeat(np.asarray(shots, dtype=float), outcomes))
        if self.outcomes:
            new = [np.concatenate(pair) for pair in
                   zip((self.elements, self.counts, self.shots), new)]
        self._step = None if self.outcomes else settings
        self.dims, self.outcomes = settings[0].dims, outcomes
        self.elements, self.counts, self.shots = new
        self.__dict__.pop("design", None)


@dataclass(eq=False)
class EstimatorReport:
    estimate: DensityMatrix
    rank_used: int
    iterations: int
    converged: bool
    pvalues: list[float] | None = None


def _probs(povm: np.ndarray, rho: np.ndarray) -> np.ndarray:
    return np.real(np.einsum("kij,ji->k", povm, rho))


def log_likelihood(rho: DensityMatrix, records) -> float:
    """Multinomial log-likelihood sum_k n_k ln Tr(rho P_k), with 0 ln 0 = 0.

    A strictly positive count on an exactly-zero probability yields -inf.
    """
    records = RecordStack.of(records)
    counts = records.counts
    p = np.clip(_probs(records.elements, rho.mat), 0.0, None)
    mask = counts > 0
    if np.any(p[mask] == 0.0):
        return -np.inf
    return float(np.sum(counts[mask] * np.log(p[mask])))


# --- pseudo-inversion --------------------------------------------------------

def _unpack_hermitian(theta: np.ndarray, d: int) -> np.ndarray:
    iu = _triu(d, 1)
    n_off = iu[0].size
    x = np.zeros((d, d), dtype=complex)
    x[np.arange(d), np.arange(d)] = theta[:d]
    off = theta[d:d + n_off] + 1j * theta[d + n_off:]
    x[iu] = off
    x[(iu[1], iu[0])] = off.conj()
    return x


def ppi(records) -> EstimatorReport:
    """Projected pseudo-inversion: least-squares solve of the observed
    frequencies for a Hermitian matrix, then projection of its spectrum onto
    the probability simplex (eigenvectors kept)."""
    records = RecordStack.of(records)
    return EstimatorReport(
        estimate=DensityMatrix(records.dims, _ppi_matrix(records)),
        rank_used=records.d, iterations=0, converged=True)


def _ppi_matrix(records: RecordStack) -> np.ndarray:
    """ppi's estimate as a plain matrix, unvalidated."""
    d = records.d
    freqs = records.counts / records.shots
    # lstsq counts singular values above max(M, N) eps sigma_max, the
    # threshold of matrix_rank
    theta, _, rank, _ = np.linalg.lstsq(records.design, freqs, rcond=None)
    if rank < d * d:
        raise IncompleteRecordsError(
            f"measurement records are informationally incomplete: design rank "
            f"{rank} < {d * d}")
    x = _unpack_hermitian(theta, d)
    w, v = eig_hermitian(x)
    lam = project_to_simplex(w)
    return hermitize((v * lam) @ v.conj().T)


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
    records = RecordStack.of(records)
    povm, counts, shots = records.elements, records.counts, records.shots
    d = records.d
    freqs = counts / shots
    weights = shots / shots.sum()
    rho = _ppi_matrix(records)

    lipschitz = 2.0 * float(np.sum(weights * np.einsum("kij,kij->k", povm,
                                                       povm.conj()).real))
    step = 1.0 / lipschitz

    converged = False
    it = 0
    for it in range(1, MAX_ITERATIONS + 1):
        resid = freqs - _probs(povm, rho)
        grad = np.einsum("k,kij->ij", -2.0 * weights * resid, povm)
        cand = _project_density(rho - step * grad)
        if float(np.max(np.abs(cand - rho))) / step <= FRLS_KKT_TOL:
            converged = True
            break
        # L bounds the objective's curvature: a projected 1/L step cannot
        # raise it, so the step is taken unchecked
        rho = cand
    return EstimatorReport(
        estimate=DensityMatrix(records.dims, rho),
        rank_used=d, iterations=it, converged=converged)


# --- maximum likelihood ------------------------------------------------------

def _likelihood_operator(povm, freq, p):
    """R(rho)/N = sum_k (n_k / N) P_k / p_k over the outcomes with nonzero
    counts, the only ones passed. Working with frequencies keeps the
    iteration exactly invariant under a rescaling of all counts."""
    return np.einsum("k,kij->ij", freq / np.maximum(p, 1e-300), povm)


def frml(records) -> EstimatorReport:
    """Full-rank maximum likelihood: the rank-d fit of trml, anchored at the
    pseudo-inversion point."""
    records = RecordStack.of(records)
    return trml(records, records.d)


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
    The arrays are those of the outcomes with nonzero counts.
    """
    d, r = c.shape
    n = d * r
    g = np.einsum("kij,jr->kir", povm, c).reshape(-1, n)
    g = np.hstack([g.real, g.imag])
    weights = freq / p ** 2
    x = _real(c)
    grad = 2.0 * (_real(r_op @ c) - x)
    rk = r_op if r == 1 else np.kron(r_op, np.eye(r))   # R on c.ravel()
    hess = np.empty((2 * n, 2 * n))
    hess[:n, :n] = hess[n:, n:] = rk.real
    hess[:n, n:], hess[n:, :n] = -rk.imag, rk.imag
    hess *= 2.0
    hess -= 4.0 * (g.T * weights) @ g
    hess.flat[::2 * n + 1] -= 2.0
    basis = _gauge_complement(c)
    y = np.linalg.lstsq(basis.T @ hess @ basis, -(basis.T @ grad),
                        rcond=None)[0]
    step = basis @ y
    return (step[:n] + 1j * step[n:]).reshape(d, r)


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
    At r = d the stop is judged on max|(R c - mu c) c^dag| = max|R rho - rho|
    instead, the fixed-point condition of full-rank maximum likelihood: the
    root columns of a boundary optimum vanish only linearly, but this
    residual is quadratic in them.
    The fit converges when the residual is at most FIXED_POINT_TOL; it stops
    unconverged at MAX_ITERATIONS or when no gradient step improves the
    likelihood.
    At r = d the pseudo-inversion estimate is returned instead when it is at
    least as likely as the fit (with log_likelihood, so comparisons against
    ppi cannot lose to roundoff); on one-qubit MUB data it is often the exact
    ML point. It is then judged converged by R rho = rho.
    """
    records = RecordStack.of(records)
    povm, counts, d = records.elements, records.counts, records.d
    if not 1 <= r <= d:
        raise ValueError(f"rank must lie in 1..{d}")
    freq = counts / counts.sum()
    mask = freq > 0
    # boolean-index copies, made once: einsum's last bits depend on layout
    povm_m, freq_m = povm[mask], freq[mask]

    anchor = _ppi_matrix(records)
    w, v = eig_hermitian(anchor)
    lam = 0.95 * w[:r] + 0.05 / r  # keep every root column populated
    lam /= lam.sum()
    c = v[:, :r] * np.sqrt(lam)

    def loglik_of(c_mat):
        p = np.maximum(_probs(povm, c_mat @ c_mat.conj().T), 1e-300)[mask]
        return float(np.sum(freq_m * np.log(p))), p

    def residual_of(c_mat, p):
        r_op = _likelihood_operator(povm_m, freq_m, p)
        rc = r_op @ c_mat
        mu = float(np.real(np.trace(c_mat.conj().T @ rc)))
        return r_op, rc, float(np.max(np.abs(rc - mu * c_mat)))

    def stop_residual(c_mat, rc, residual):
        if r < d:
            return residual
        mu = float(np.real(np.trace(c_mat.conj().T @ rc)))
        return float(np.max(np.abs((rc - mu * c_mat) @ c_mat.conj().T)))

    ll, p = loglik_of(c)
    r_op, rc, residual = residual_of(c, p)
    newton_below = NEWTON_BELOW
    alpha = 1.0
    converged = False
    it = 0
    for it in range(1, MAX_ITERATIONS + 1):
        if stop_residual(c, rc, residual) <= FIXED_POINT_TOL:
            # the max-entry residual depends on the gauge of c: judge it on
            # the estimate's own root factor V sqrt(lambda)
            u, sv, _ = np.linalg.svd(c, full_matrices=False)
            c = u * sv
            r_op, rc, residual = residual_of(c, p)
            if stop_residual(c, rc, residual) <= FIXED_POINT_TOL:
                converged = True
                break
        if residual <= newton_below:
            cand = c + _newton_step(povm_m, freq_m, p, c, r_op)
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
    fit = DensityMatrix(records.dims, est)
    if r == d:   # only here can the anchor be returned, so only here checked
        anchor = DensityMatrix(records.dims, anchor)
    if r == d and (log_likelihood(anchor, records)
                   >= log_likelihood(fit, records)):
        fit, rho = anchor, anchor.mat
        r_op = _likelihood_operator(povm_m, freq_m, _probs(povm, rho)[mask])
        converged = float(np.max(np.abs(r_op @ rho - rho))) <= FIXED_POINT_TOL
    return EstimatorReport(estimate=fit, rank_used=r, iterations=it,
                           converged=converged)


# --- rank adequacy -----------------------------------------------------------

def chi2_statistic(records, rho_fit: DensityMatrix, r: int) -> tuple[float, int]:
    """Pearson statistic and degrees of freedom of a rank-r fit.

    Degrees of freedom: sum over settings of (outcomes - 1), minus the
    (2d - r) r - 1 parameters of a rank-r state. Outcomes whose expected
    count is structurally zero and were never observed are merged into the
    setting's largest-expected outcome before the statistic is formed.
    """
    records = RecordStack.of(records)
    stat = 0.0
    dof = -nu(rho_fit.d, r)
    p = np.clip(_probs(records.elements, rho_fit.mat), 0.0, None)
    m = records.outcomes
    for p_s, n_s, shots in zip(p.reshape(-1, m), records.counts.reshape(-1, m),
                               records.shots[::m]):
        expected = p_s * shots
        observed = n_s.copy()
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
    return chi2_sf(stat, dof)


def arml(records) -> EstimatorReport:
    """Adequate-rank maximum likelihood: fit ranks r = 1..d in sequence and
    stop at the first adequate one (p-value >= ARML_ALPHA), or one step
    after the p-value starts decreasing."""
    records = RecordStack.of(records)
    d = records.d
    pvalues: list[float] = []
    reports: list[EstimatorReport] = []
    chosen = None
    for r in range(1, d + 1):
        rep = trml(records, r)
        reports.append(rep)
        pvalues.append(chi2_pvalue(records, rep.estimate, r))
        if pvalues[-1] >= ARML_ALPHA:
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

"""Complex linear algebra and quantum-state primitives shared across the package."""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Numerical tolerances, centralized so there is a single tuning point.
HERMITIAN_TOL = 1e-10        # max |rho - rho^dag| entry for a density matrix
TRACE_TOL = 1e-10            # |Tr rho - 1|
PSD_EIG_FLOOR = -1e-10       # smallest admissible density-matrix eigenvalue
STATE_NORM_TOL = 1e-12       # pure-state normalization
HERMITIAN_INPUT_TOL = 1e-8   # eig_hermitian input check
POVM_SUM_TOL = 1e-8          # POVM completeness


@dataclass(eq=False)
class DensityMatrix:
    """A d x d quantum state: Hermitian, unit-trace, positive semidefinite.

    ``dims`` lists the subsystem dimensions; the matrix acts on their tensor
    product (d = prod(dims)). Validity is checked at construction time.
    """

    dims: tuple[int, ...]
    mat: np.ndarray

    def __post_init__(self):
        self.dims = tuple(int(x) for x in self.dims)
        if any(x < 1 for x in self.dims):
            raise ValueError("subsystem dimensions must be positive")
        self.mat = np.asarray(self.mat, dtype=complex)
        d = int(np.prod(self.dims))
        if self.mat.shape != (d, d):
            raise ValueError(f"matrix shape {self.mat.shape} does not match dims {self.dims}")
        if not np.all(np.isfinite(self.mat.view(float))):
            raise ValueError("density matrix has non-finite entries")
        herm_err = np.max(np.abs(self.mat - self.mat.conj().T))
        if herm_err > HERMITIAN_TOL:
            raise ValueError(f"matrix is not Hermitian (max deviation {herm_err:.3e})")
        tr_err = abs(self.mat.trace() - 1.0)
        if tr_err > TRACE_TOL:
            raise ValueError(f"trace differs from 1 by {tr_err:.3e}")
        min_eig = float(np.linalg.eigvalsh(self.mat)[0])
        if min_eig < PSD_EIG_FLOOR:
            raise ValueError(f"matrix is not PSD (min eigenvalue {min_eig:.3e})")

    @property
    def d(self) -> int:
        return self.mat.shape[0]


@dataclass(eq=False)
class PureState:
    """A normalized state vector over subsystems of dimensions ``dims``."""

    dims: tuple[int, ...]
    vec: np.ndarray

    def __post_init__(self):
        self.dims = tuple(int(x) for x in self.dims)
        self.vec = np.asarray(self.vec, dtype=complex).ravel()
        d = int(np.prod(self.dims))
        if self.vec.shape != (d,):
            raise ValueError(f"vector length {self.vec.shape} does not match dims {self.dims}")
        nrm = float(np.linalg.norm(self.vec))
        if abs(nrm - 1.0) > STATE_NORM_TOL:
            raise ValueError(f"state vector norm differs from 1 by {abs(nrm - 1.0):.3e}")

    @property
    def d(self) -> int:
        return self.vec.shape[0]

    def to_density(self) -> DensityMatrix:
        return DensityMatrix(self.dims, np.outer(self.vec, self.vec.conj()))


@lru_cache(maxsize=None)
def identity(d: int) -> np.ndarray:
    """The real d x d identity, built once per d and read-only."""
    eye = np.eye(d)
    eye.setflags(write=False)
    return eye


def hermitize(m: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (m + m^dag)/2."""
    return (m + m.conj().T) / 2.0


def sqrt_psd(m: np.ndarray) -> np.ndarray:
    """Matrix square root of a PSD Hermitian matrix via eigendecomposition.

    Eigenvalues below zero (roundoff) are clipped to zero before the sqrt.
    """
    w, v = np.linalg.eigh(m)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, clamped to [0, 1].

    For a pair of pure states this reduces to the squared overlap of the
    state vectors.
    """
    if rho.d != sigma.d:
        raise ValueError(f"dimension mismatch: {rho.d} vs {sigma.d}")
    # Tr sqrt(sqrt(rho) sigma sqrt(rho)) equals the trace norm of
    # sqrt(sigma) sqrt(rho); singular values avoid the sqrt-of-noise blowup
    # that spurious near-zero eigenvalues of the sandwiched product suffer
    product = sqrt_psd(sigma.mat) @ sqrt_psd(rho.mat)
    f = float(np.sum(np.linalg.svd(product, compute_uv=False))) ** 2
    return min(max(f, 0.0), 1.0)


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random d x d unitary: QR of a complex Ginibre matrix with the
    R-diagonal phase correction that makes the distribution exactly uniform."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    ph = np.diag(r)
    ph = ph / np.abs(ph)
    return q * ph


def haar_vector(d: int, rng: np.random.Generator) -> PureState:
    """Uniform random unit vector in C^d."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureState((d,), v / np.linalg.norm(v))


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex {x >= 0, sum x = 1}.

    Sort-based non-iterative algorithm: find the largest support size rho for
    which the uniform shift keeps all supported entries positive.
    """
    v = np.asarray(v, dtype=float).ravel()
    if v.size == 0:
        raise ValueError("cannot project an empty vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite entries")
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, v.size + 1)
    support = idx[u + (1.0 - css) / idx > 0]
    k = int(support[-1])
    lam = (1.0 - css[k - 1]) / k
    return np.maximum(v + lam, 0.0)


def eig_hermitian(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues sorted descending.

    Returns (w, v) with m = v @ diag(w) @ v^dag and v[:, 0] the principal
    eigenvector.
    """
    m = np.asarray(m, dtype=complex)
    herm_err = np.max(np.abs(m - m.conj().T))
    if herm_err > HERMITIAN_INPUT_TOL:
        raise ValueError(f"matrix is not Hermitian (max deviation {herm_err:.3e})")
    w, v = np.linalg.eigh(hermitize(m))
    return w[::-1], v[:, ::-1]

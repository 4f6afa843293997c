"""Generators of true states for the benchmark tests, plus their noise primitives.

Four state classes are covered: random pure states, random mixed states
obtained by tracing out an ancilla (one qubit or a full copy of the system),
and noisy register preparations combining initialization errors with
depolarization. TestKind holds one row per test, everything the engine,
statistics and CLI know of it.
"""

import enum

import numpy as np

from .qcore import DensityMatrix, PureState, haar_unitary, haar_vector


def gen_rps(dims, rng: np.random.Generator) -> DensityMatrix:
    """Random pure state |psi><psi| with |psi> = U|0>, U Haar-random."""
    d = int(np.prod(dims))
    if d < 2:
        raise ValueError("total dimension must be >= 2")
    psi = haar_unitary(d, rng)[:, 0]
    return DensityMatrix(dims, np.outer(psi, psi.conj()))


def gen_rmspt(dims, dA: int, rng: np.random.Generator) -> DensityMatrix:
    """Random mixed state: partial trace of a Haar vector over a dA-dim ancilla."""
    d = int(np.prod(dims))
    if dA < 2:
        raise ValueError("ancilla dimension must be >= 2")
    psi = haar_vector(d * dA, rng).vec.reshape(d, dA)
    return DensityMatrix(dims, psi @ psi.conj().T)


def noisy_register(dims, e0: float) -> DensityMatrix:
    """n-qubit register where each qubit starts in |1> with probability e0."""
    if any(x != 2 for x in dims):
        raise ValueError("noisy register is defined for qubit subsystems only")
    if not 0.0 <= e0 <= 1.0:
        raise ValueError("e0 must lie in [0, 1]")
    single = np.diag([1.0 - e0, e0]).astype(complex)
    mat = np.eye(1, dtype=complex)
    for _ in dims:
        mat = np.kron(mat, single)
    return DensityMatrix(dims, mat)


def depolarize(rho: DensityMatrix, p: float) -> DensityMatrix:
    """Mix with the maximally mixed state: (1-p) rho + p I/d."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    d = rho.d
    return DensityMatrix(rho.dims, (1.0 - p) * rho.mat + p * np.eye(d) / d)


def gen_rnp(dims, rng: np.random.Generator,
            p: float | None = None, e0: float | None = None) -> DensityMatrix:
    """Noisy preparation of a qubit register:
    (1-p) U rho0(e0) U^dag + p I/d with p ~ unif(0, 0.01), e0 ~ unif(0, 0.05).

    Pass explicit p or e0 to pin a noise level (used by tests); by default a
    fresh pair is drawn for every call.
    """
    if p is None:
        p = float(rng.uniform(0.0, 0.01))
    if e0 is None:
        e0 = float(rng.uniform(0.0, 0.05))
    d = int(np.prod(dims))
    u = haar_unitary(d, rng)
    rho0 = noisy_register(dims, e0).mat
    mat = (1.0 - p) * (u @ rho0 @ u.conj().T) + p * np.eye(d) / d
    return DensityMatrix(dims, mat)


def random_unitary_error(phi: PureState, sigma: float,
                         rng: np.random.Generator) -> PureState:
    """Apply a small random unitary error to a state vector.

    The output is a |phi> + sqrt(1-a^2) |g_perp> with a = 1 - xi^2/2,
    xi ~ norm(0, sigma), and |g_perp> the normalized component of a Haar
    vector orthogonal to |phi>. Draws giving a <= 0 are rejected so the
    construction stays well defined at any sigma, and a parallel |g| (a
    probability-zero event) is redrawn.
    """
    if sigma < 0.0:
        raise ValueError("sigma must be nonnegative")
    d = phi.d
    while True:
        xi = float(rng.normal(0.0, sigma)) if sigma > 0 else 0.0
        a = 1.0 - xi * xi / 2.0
        if a > 0.0:
            break
    if a == 1.0:
        return PureState(phi.dims, phi.vec.copy())
    while True:
        g = haar_vector(d, rng).vec
        residual = g - phi.vec * np.vdot(phi.vec, g)
        nrm = float(np.linalg.norm(residual))
        if nrm > 1e-12:
            break
    out = a * phi.vec + np.sqrt(1.0 - a * a) * residual / nrm
    return PureState(phi.dims, out)


def depolarizing_weight(sigma: float, d: int) -> float:
    """Depolarizing weight equivalent to averaged random-unitary errors:
    p = d/(d-1) (sigma^2 - 3/4 sigma^4)."""
    if sigma < 0.0:
        raise ValueError("sigma must be nonnegative")
    if d < 2:
        raise ValueError("dimension must be >= 2")
    return d / (d - 1.0) * (sigma**2 - 0.75 * sigma**4)


class TestKind(enum.Enum):
    """The benchmark tests, one row each: the id raw files and names carry,
    the code keying each run's random streams, the structural rank of the
    test's states (None for full rank d), whether it is defined for qubit
    registers only, and the generator drawing its true states."""

    __test__ = False  # not a pytest class, despite the name

    RPS = "rps", 1, 1, False, gen_rps
    RMSPT2 = "rmspt2", 2, 2, False, lambda dims, rng: gen_rmspt(dims, 2, rng)
    RMSPTD = ("rmsptd", 3, None, False,
              lambda dims, rng: gen_rmspt(dims, int(np.prod(dims)), rng))
    RNP = "rnp", 4, None, True, gen_rnp

    def __new__(cls, test_id, code, rank, qubits_only, generate):
        member = object.__new__(cls)
        member._value_ = test_id
        member.code = code
        member.rank = rank
        member.qubits_only = qubits_only
        member.generate = generate
        return member

    @classmethod
    def _missing_(cls, value):
        raise ValueError(f"unknown test id {value!r}; expected one of "
                         f"{[k.value for k in cls]}")


def generate_state(kind: TestKind, dims, rng: np.random.Generator) -> DensityMatrix:
    """A true-state draw for the given benchmark test."""
    return kind.generate(dims, rng)

"""Measurement protocols: static MUB/FMUB/Pauli builders and the adaptive
AMUB/FO/FOMUB handlers.

A protocol is consumed through a single handler interface:
``handler.step(measured, records)`` returns the next settings to measure
together (or None when the protocol is exhausted), which the experiment
engine samples at once; ``handler.next`` serves the same settings one
MeasurementSpec at a time. Handlers never see the true state; adaptive ones
work from the accumulated measurement records via the estimator they were
given.
"""

import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .mub import mub_bases
from .qcore import (HERMITIAN_TOL, POVM_SUM_TOL, PSD_EIG_FLOOR, eig_hermitian,
                    haar_vector, identity)

ADAPTIVE_MIN_STEP = 100   # shots per adaptive step: max(100, floor(N_t / 30))
ADAPTIVE_STEP_DIV = 30
PRODUCT_RESTARTS = 5      # product-vector search: random starts,
PRODUCT_SWEEPS = 100      # alternating sweeps per start,
PRODUCT_SWEEP_TOL = 1e-9  # and the objective decrease that ends a start


class IncompleteRecordsError(ValueError):
    """Measurement records do not determine a state (design rank below d^2)."""


_PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


@dataclass(eq=False)
class Povm:
    """A positive-operator-valued measure: Hermitian PSD elements summing to
    identity."""

    elements: np.ndarray  # shape (n_outcomes, d, d)

    def __post_init__(self):
        self.elements = np.asarray(self.elements, dtype=complex)
        if self.elements.ndim != 3 or self.elements.shape[1] != self.elements.shape[2]:
            raise ValueError("POVM elements must be a stack of square matrices")
        if not np.isfinite(self.elements).all():
            raise ValueError("POVM elements have non-finite entries")
        total = self.elements.sum(axis=0)
        d = total.shape[0]
        if np.max(np.abs(total - identity(d))) > POVM_SUM_TOL:
            raise ValueError("POVM elements do not sum to the identity")
        adjoint = self.elements.conj().transpose(0, 2, 1)
        if np.max(np.abs(self.elements - adjoint)) > HERMITIAN_TOL:
            raise ValueError("POVM element is not Hermitian")
        herm = (self.elements + adjoint) / 2
        if np.linalg.eigvalsh(herm)[:, 0].min() < PSD_EIG_FLOOR:
            raise ValueError("POVM element is not positive semidefinite")

    @classmethod
    def _checked_by_caller(cls, elements: np.ndarray) -> "Povm":
        """A Povm whose builder checked its generating vectors instead."""
        povm = object.__new__(cls)
        povm.elements = np.asarray(elements, dtype=complex)
        return povm

    @property
    def d(self) -> int:
        return self.elements.shape[1]

    @property
    def n_outcomes(self) -> int:
        return self.elements.shape[0]


@dataclass(eq=False, frozen=True)
class MeasurementSpec:
    """One measurement setting: a POVM, the subsystem dimensions of the
    measured register and the number of state copies to use.

    Basis, observable and operator measurements are all encoded through
    their induced POVMs.
    """

    povm: Povm
    dims: tuple[int, ...]
    shots: int = 1

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError("shots must be >= 1")


class SettingStack(tuple):
    """The specs of one step, all with one outcome count (the step's shots
    override theirs), and ``elements``, their POVM elements stacked setting
    after setting (K, d, d) in np.concatenate's layout: einsum's last bits
    depend on the strides, so a C-ordered copy would change results."""

    def __new__(cls, specs):
        self = super().__new__(cls, specs)
        if len({s.povm.n_outcomes for s in self}) != 1:
            raise ValueError("a step's settings must share one outcome count")
        self.elements = np.concatenate([s.povm.elements for s in self])
        return self

    @cached_property
    def design(self) -> np.ndarray:
        """_real_design of the elements, computed once and read-only."""
        design = _real_design(self.elements)
        design.setflags(write=False)
        return design


_triu = lru_cache(maxsize=None)(np.triu_indices)


def _real_design(povm: np.ndarray) -> np.ndarray:
    """Design matrix of the map (Hermitian X) -> Tr(X P_k) in the real
    parametrization (diagonal, 2 Re upper, 2 Im upper)."""
    d = povm.shape[1]
    iu = _triu(d, 1)
    diag = povm[:, np.arange(d), np.arange(d)].real
    re = 2.0 * povm[:, iu[0], iu[1]].real
    im = 2.0 * povm[:, iu[0], iu[1]].imag
    return np.hstack([diag, re, im])


def basis_povm(u: np.ndarray) -> Povm:
    """POVM of rank-1 projectors onto the columns of a unitary: checking
    U†U = I (NaN fails) stands for checking each element."""
    if u.ndim != 2 or u.shape[0] != u.shape[1] or not np.max(np.abs(
            u.conj().T @ u - identity(len(u)))) <= POVM_SUM_TOL:
        raise ValueError("a basis must be a square unitary matrix")
    return Povm._checked_by_caller(np.einsum("ik,jk->kij", u, u.conj()))


def allocate_shots(n: int, m: int) -> list[int]:
    """Split n shots over m settings as evenly as possible (earlier settings
    absorb the remainder)."""
    if m < 1:
        raise ValueError("need at least one setting")
    if n < m:
        raise ValueError(f"cannot allocate {n} shots over {m} settings")
    base, rem = divmod(n, m)
    return [base + 1] * rem + [base] * (m - rem)


# --- static protocols --------------------------------------------------------
#
# A static protocol's settings depend on its dimensions alone, so each is
# built and validated once per process, as one SettingStack, and shared by
# every run: the specs are frozen and every array read-only. A run only adds
# its shots.

def _shared_specs(povms, dims) -> SettingStack:
    stack = SettingStack(MeasurementSpec(povm, dims=dims) for povm in povms)
    for array in (stack.elements, *(p.elements for p in povms)):
        array.setflags(write=False)
    return stack


def mub_protocol(dims) -> SettingStack:
    """Measurements in all d+1 mutually unbiased bases of the full space."""
    return _mub_specs(tuple(int(x) for x in dims))


@lru_cache(maxsize=None)
def _mub_specs(dims):
    return _shared_specs([basis_povm(u) for u in mub_bases(math.prod(dims))],
                         dims)


def _tensor_products(local_ops) -> list[np.ndarray]:
    """Every tensor product of one operator (or basis) per subsystem, the
    first subsystem's choice varying slowest."""
    out = []
    for combo in itertools.product(*local_ops):
        u = combo[0]
        for f in combo[1:]:
            u = np.kron(u, f)
        out.append(u)
    return out


def fmub_protocol(dims) -> SettingStack:
    """Factorized MUB measurements: every subsystem measured independently in
    its own MUBs, prod_j (d_j + 1) settings in total."""
    return _fmub_specs(tuple(int(x) for x in dims))


@lru_cache(maxsize=None)
def _fmub_specs(dims):
    return _shared_specs([basis_povm(u) for u in _tensor_products(
        [mub_bases(dj) for dj in dims])], dims)


def pauli_protocol(n: int) -> SettingStack:
    """All 4^n - 1 nontrivial Pauli-word observables on n qubits, each encoded
    as its two-outcome eigenprojector POVM (eigenvalues +1 and -1)."""
    if n < 1:
        raise ValueError("need at least one qubit")
    return _pauli_specs(int(n))


@lru_cache(maxsize=None)
def _pauli_specs(n):
    eye = np.eye(2**n, dtype=complex)
    # the first word is the identity, which carries no information
    words = _tensor_products([_PAULI] * n)[1:]
    return _shared_specs([Povm(np.stack([(eye + w) / 2, (eye - w) / 2]))
                          for w in words], (2,) * n)


class QueuedHandler:
    """Every handler's shape: ``step`` returns the next settings to measure
    together and their shots, ``(SettingStack, shots)``, or None at the end.
    ``next`` pops a step's specs one at a time, each with its shots, and
    refills from ``step`` when it runs dry. No step may overrun the run's
    budget: the engine does not trim."""

    _queue = iter(())   # exhausted, so the first next() asks step

    def next(self, measured: int, records) -> MeasurementSpec | None:
        spec = next(self._queue, None)
        if spec is None:
            step = self.step(measured, records)
            if step is None:
                return None
            self._queue = (replace(s, shots=k) for s, k in zip(*step))
            spec = next(self._queue)
        return spec


class StaticHandler(QueuedHandler):
    """Issues a static protocol's settings as one step, with a run's sample
    budget spread evenly over them."""

    def __init__(self, settings: SettingStack, n_total: int):
        self._step = settings, allocate_shots(n_total, len(settings))

    def step(self, measured, records):
        step, self._step = self._step, None
        return step


# --- adaptive protocols ------------------------------------------------------

def _adaptive_step_total(measured: int, budget: int | None) -> int:
    step = max(ADAPTIVE_MIN_STEP, measured // ADAPTIVE_STEP_DIV)
    if budget is not None:
        step = min(step, budget - measured)
    return step


def fo_min_budget(dims) -> int:
    """Smallest FO budget that reaches a prod_j (d_j + 1)-th setting, the
    fewest random product bases that can be informationally complete: one
    shot past the steps before it."""
    measured = 0
    for _ in range(math.prod(dj + 1 for dj in dims) - 1):
        measured += _adaptive_step_total(measured, None)
    return measured + 1


class _AdaptiveHandler(QueuedHandler):
    """Common machinery: once per adaptive step, spread the step's shots
    evenly over the bases a subclass chooses (over the first ones only when
    the step has fewer shots than bases). ``_complete`` is the fewest bases
    that can span the operator space: a basis spans I and d - 1 traceless
    directions, so prod_j (d_j + 1) product bases, or d + 1 (AMUB)."""

    def __init__(self, dims, estimator, budget):
        self.dims = tuple(int(x) for x in dims)
        self.estimator = estimator
        self.budget = budget
        self._complete = math.prod(dj + 1 for dj in self.dims)

    def step(self, measured, records):
        step = _adaptive_step_total(measured, self.budget)
        if step < 1:
            return None
        bases = self._bases(records)
        shots = allocate_shots(step, min(len(bases), step))
        return SettingStack(MeasurementSpec(basis_povm(u), dims=self.dims)
                            for u in bases[:len(shots)]), shots

    def _estimate(self, records) -> np.ndarray | None:
        # fewer bases cannot determine a state; past them a failure is real
        if len(records) < self._complete:
            return None
        return self.estimator(records).estimate.mat

    def _bases(self, records) -> list[np.ndarray]:
        raise NotImplementedError


class AmubHandler(_AdaptiveHandler):
    """Adaptive MUB: rotate the canonical MUBs so that the first basis
    diagonalizes the current state estimate."""

    def __init__(self, dims, estimator, budget=None):
        super().__init__(dims, estimator, budget)
        self._canonical = mub_bases(math.prod(self.dims))
        self._complete = len(self._canonical)

    def _bases(self, records):
        est = self._estimate(records)
        if est is None:
            return self._canonical
        _, v = eig_hermitian(est)
        return [v @ b for b in self._canonical]


def _env_vector(tensor: np.ndarray, phis: list[np.ndarray], j: int) -> np.ndarray:
    """Contract every subsystem axis except j with the conjugated local vectors."""
    out = tensor
    removed = 0
    for i in range(len(phis)):
        if i == j:
            continue
        out = np.tensordot(phis[i].conj(), out, axes=([0], [i - removed]))
        removed += 1
    return out


def _product_vector_factors(targets: np.ndarray, dims, rng):
    """Alternating minimization of sum_k |<phi_1 x ... x phi_n | t_k>|^2.

    Each local update is an exact smallest-eigenvector computation, so the
    objective is monotonically non-increasing within a sweep cycle.
    Returns (factors, residual).
    """
    n = len(dims)
    tensors = [targets[:, k].reshape(dims) for k in range(targets.shape[1])]
    best_factors, best_obj = None, np.inf
    for _ in range(PRODUCT_RESTARTS):
        phis = [haar_vector(dj, rng).vec for dj in dims]
        prev = np.inf
        for _ in range(PRODUCT_SWEEPS):
            for j in range(n):
                a = np.zeros((dims[j], dims[j]), dtype=complex)
                for t in tensors:
                    env = _env_vector(t, phis, j)
                    a += np.outer(env, env.conj())
                _, vecs = np.linalg.eigh(a)
                phis[j] = vecs[:, 0]
            obj = sum(abs(np.vdot(phis[0], _env_vector(t, phis, 0))) ** 2
                      for t in tensors)
            if prev - obj < PRODUCT_SWEEP_TOL:
                break
            prev = obj
        if obj < best_obj:
            best_obj = obj
            best_factors = [p.copy() for p in phis]
        if best_obj < 1e-14:
            break
    return best_factors, float(best_obj)


def complete_local_basis(phi: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Unitary whose first column is phi, the rest completed by Gram-Schmidt
    over Haar-random vectors."""
    d = phi.shape[0]
    cols = [phi / np.linalg.norm(phi)]
    while len(cols) < d:
        cand = haar_vector(d, rng).vec
        for c in cols:
            cand = cand - c * np.vdot(c, cand)
        nrm = np.linalg.norm(cand)
        if nrm > 1e-8:
            cols.append(cand / nrm)
    return np.column_stack(cols)


class FoHandler(_AdaptiveHandler):
    """Factorized-orthogonal protocol: each step measures one random product
    basis containing a vector orthogonal to K principal components of the
    current estimate (K drawn uniformly from 1..K_max)."""

    def __init__(self, dims, estimator, rng, budget=None):
        super().__init__(dims, estimator, budget)
        self.rng = rng
        self.k_max = sum(self.dims) - len(self.dims)
        self._local_bases = [[np.eye(dj, dtype=complex)] for dj in self.dims]

    def _bases(self, records):
        est = self._estimate(records)
        if est is None:
            # nothing measured yet: any random product direction will do
            factors = [haar_vector(dj, self.rng).vec for dj in self.dims]
        else:
            k = int(self.rng.integers(1, self.k_max + 1))
            _, v = eig_hermitian(est)
            factors, _ = _product_vector_factors(v[:, :k], self.dims, self.rng)
        # rotate each subsystem's bases so that the first one holds the factor
        rotations = [complete_local_basis(p, self.rng) for p in factors]
        return _tensor_products([[r @ b for b in bases] for r, bases in
                                 zip(rotations, self._local_bases)])


class FomubHandler(FoHandler):
    """FO + FMUB: per step, rotate each subsystem's MUBs so one basis vector
    matches the FO product vector, then measure the whole rotated FMUB."""

    def __init__(self, dims, estimator, rng, budget=None):
        super().__init__(dims, estimator, rng, budget)
        self._local_bases = [mub_bases(dj) for dj in self.dims]

"""Self-guided tomography: simultaneous-perturbation ascent on a state vector.

The method is a combined protocol + estimator pair. Each iteration takes a
random +-1 perturbation of the real parametrization of the current state
vector, measures the projectors onto the two perturbed candidates (two-outcome
operator measurements, SGQT_SHOTS copies each, a pair's elements built in one
array), and moves along the resulting stochastic gradient estimate of the
projection fidelity. The perturbations come from one draw on the protocol
stream at construction, equal to one draw per iteration. Gains as in Ferrie,
PRL 113, 190404 (2014): step sizes alpha_k = SGQT_a / (k + 1 + SGQT_A)^SGQT_s
and perturbation sizes beta_k = SGQT_b / (k + 1)^SGQT_t.
"""

import math

import numpy as np

from .protocols import MeasurementSpec, Povm, QueuedHandler, SettingStack
from .qcore import DensityMatrix, haar_vector, identity
from .estimators import EstimatorReport, RecordStack

SGQT_A = 0.0
SGQT_a = 3.0
SGQT_b = 0.1
SGQT_s = 0.602
SGQT_t = 0.101
SGQT_SHOTS = 100


def _fix_phase(psi: np.ndarray) -> np.ndarray:
    """Make the largest amplitude real and positive (fixes the global phase)."""
    ref = psi[np.abs(psi).argmax()]
    return psi * (ref.conj() / abs(ref))


class SgqtHandler(QueuedHandler):
    """Each step first updates the running state-vector estimate from the
    pair measured last, then issues the next perturbed pair.

    ``estimate`` is the method's estimator; it too applies a measured pair
    not used yet. Leftover shots of the budget that do not fill an
    evaluation pair are discarded."""

    def __init__(self, dims, budget: int, rng: np.random.Generator):
        self.dims = tuple(int(x) for x in dims)
        self.d = int(np.prod(self.dims))
        self.iterations = budget // (2 * SGQT_SHOTS)
        self.psi = _fix_phase(haar_vector(self.d, rng).vec)
        # row k - 1 perturbs step k; 2d is even, so per-step draws match it
        self._deltas = rng.integers(
            0, 2, size=(self.iterations, 2 * self.d)) * 2.0 - 1.0
        self.k = 1

    def step(self, measured, records):
        self._update(records)
        if self.k > self.iterations:
            return None
        delta = self._deltas[self.k - 1]
        beta = SGQT_b / (self.k + 1) ** SGQT_t
        theta = np.concatenate([self.psi.real, self.psi.imag])
        return SettingStack([
            self._projector_spec(self._to_state(theta + beta * delta)),
            self._projector_spec(self._to_state(theta - beta * delta))]
        ), (SGQT_SHOTS, SGQT_SHOTS)

    def estimate(self, records=()) -> EstimatorReport:
        self._update(records)
        rho = DensityMatrix(self.dims, np.outer(self.psi, self.psi.conj()))
        return EstimatorReport(estimate=rho, rank_used=1,
                               iterations=self.k - 1, converged=True)

    def _to_state(self, theta: np.ndarray) -> np.ndarray:
        psi = theta[:self.d] + 1j * theta[self.d:]
        # np.linalg.norm's arithmetic for a complex vector, bit for bit
        norm = math.sqrt(psi.real.dot(psi.real) + psi.imag.dot(psi.imag))
        if not 0.0 < norm < np.inf:   # NaN fails too
            raise ValueError(f"SGQT state vector has norm {norm}")
        return _fix_phase(psi / norm)

    def _projector_spec(self, psi: np.ndarray) -> MeasurementSpec:
        # psi from _to_state is a unit vector: a complete PSD pair, C order
        pair = np.empty((2, self.d, self.d), complex)
        np.multiply(psi[:, None], psi.conj(), out=pair[0])
        np.subtract(identity(self.d), pair[0], out=pair[1])
        return MeasurementSpec(Povm._checked_by_caller(pair), dims=self.dims)

    def _update(self, records):
        if len(records) // 2 < self.k:   # pair k is not measured yet
            return
        # a record list stacks only its last pair, the two settings read
        records = RecordStack.of(records if isinstance(records, RecordStack)
                                 else records[-2:])
        # the first of the two outcomes of each of the last two settings
        f_plus, f_minus = records.counts[-4::2] / records.shots[-4::2]
        beta = SGQT_b / (self.k + 1) ** SGQT_t
        alpha = SGQT_a / (self.k + 1 + SGQT_A) ** SGQT_s
        grad = (f_plus - f_minus) / (2.0 * beta) * self._deltas[self.k - 1]
        theta = np.concatenate([self.psi.real, self.psi.imag])
        self.psi = self._to_state(theta + alpha * grad)
        self.k += 1

"""Self-guided tomography: simultaneous-perturbation ascent on a state vector.

The method is a combined protocol + estimator pair. Each iteration draws a
random +-1 perturbation of the real parametrization of the current state
vector, measures the projectors onto the two perturbed candidates (two-outcome
operator measurements), and moves along the resulting stochastic gradient
estimate of the projection fidelity.
"""

from dataclasses import dataclass

import numpy as np

from .protocols import MeasurementSpec, Povm
from .qcore import DensityMatrix, haar_vector
from .estimators import EstimatorReport


@dataclass
class SgqtParams:
    """Gain schedule and per-evaluation shot count.

    Step sizes follow alpha_k = a / (k + 1 + A)^s and perturbation sizes
    beta_k = b / (k + 1)^t, k = 1, 2, ...
    """

    A: float = 0.0
    a: float = 3.0
    b: float = 0.1
    s: float = 0.602
    t: float = 0.101
    shots_per_eval: int = 100

    def __post_init__(self):
        if self.A < 0 or self.a < 0:
            raise ValueError("A and a must be nonnegative")
        for name in ("b", "s", "t"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.shots_per_eval < 1:
            raise ValueError("shots_per_eval must be >= 1")


def _fix_phase(psi: np.ndarray) -> np.ndarray:
    """Make the largest amplitude real and positive (fixes the global phase)."""
    ref = psi[int(np.argmax(np.abs(psi)))]
    return psi * (ref.conj() / abs(ref))


class SgqtHandler:
    """State machine issuing the two perturbed-projector measurements per
    iteration and updating the running state-vector estimate in between.

    ``estimate`` is the method's estimator. Leftover shots of the budget that
    do not fill an evaluation pair are discarded."""

    def __init__(self, dims, budget: int, rng: np.random.Generator,
                 params: SgqtParams | None = None):
        self.dims = tuple(int(x) for x in dims)
        self.d = int(np.prod(self.dims))
        self.params = params or SgqtParams()
        self.rng = rng
        self.iterations = budget // (2 * self.params.shots_per_eval)
        self.psi = _fix_phase(haar_vector(self.d, rng).vec)
        self.k = 1
        self._stage = 0          # 0: issue plus, 1: issue minus, 2: update
        self._delta = None
        self._f_plus = None
        self._f_minus = None
        self._consumed = 0

    # -- handler interface --

    def next(self, measured: int, records) -> MeasurementSpec | None:
        self._consume(records)
        if self._stage == 2:
            self._update()
        if self.k > self.iterations:
            return None
        if self._stage == 0:
            self._delta = self.rng.integers(0, 2, size=2 * self.d) * 2.0 - 1.0
            beta = self.params.b / (self.k + 1) ** self.params.t
            theta = np.concatenate([self.psi.real, self.psi.imag])
            self._psi_plus = self._to_state(theta + beta * self._delta)
            self._psi_minus = self._to_state(theta - beta * self._delta)
            self._stage = 1
            return self._projector_spec(self._psi_plus)
        if self._stage == 1:
            self._stage = 2
            return self._projector_spec(self._psi_minus)
        raise RuntimeError("measurement issued before results were consumed")

    def estimate(self, records=None) -> EstimatorReport:
        rho = DensityMatrix(self.dims, np.outer(self.psi, self.psi.conj()))
        return EstimatorReport(estimate=rho, rank_used=1,
                               iterations=self.k - 1, converged=True)

    # -- internals --

    def _to_state(self, theta: np.ndarray) -> np.ndarray:
        psi = theta[:self.d] + 1j * theta[self.d:]
        return _fix_phase(psi / np.linalg.norm(psi))

    def _projector_spec(self, psi: np.ndarray) -> MeasurementSpec:
        proj = np.outer(psi, psi.conj())
        povm = Povm(np.stack([proj, np.eye(self.d) - proj]))
        return MeasurementSpec(povm, shots=self.params.shots_per_eval,
                               dims=self.dims)

    def _consume(self, records):
        for rec in records[self._consumed:]:
            frac = float(rec.counts[0]) / rec.spec.shots
            if self._stage == 1:
                self._f_plus = frac
            elif self._stage == 2:
                self._f_minus = frac
            self._consumed += 1

    def _update(self):
        p = self.params
        beta = p.b / (self.k + 1) ** p.t
        alpha = p.a / (self.k + 1 + p.A) ** p.s
        grad = (self._f_plus - self._f_minus) / (2.0 * beta) * self._delta
        theta = np.concatenate([self.psi.real, self.psi.imag])
        self.psi = self._to_state(theta + alpha * grad)
        self.k += 1
        self._stage = 0

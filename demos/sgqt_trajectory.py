"""Self-guided tomography in action.

SGQT never reconstructs a density matrix from records: it performs a
stochastic gradient ascent directly on a state-vector guess, measuring at
each iteration the projectors onto two randomly perturbed candidates and
stepping along the estimated gradient of the overlap. This script tracks the
fidelity of the running estimate across iterations for a single qubit.
"""

import numpy as np

from qtbench import MeasurementRecord, born_probabilities, sample_counts
from qtbench.qcore import fidelity
from qtbench.sgqt import SgqtHandler
from qtbench.states import gen_rps

BUDGET = 60_000  # 300 iterations at 2 x 100 shots each
rng = np.random.default_rng(21)

rho = gen_rps((2,), rng)
handler = SgqtHandler((2,), BUDGET, rng)

records, measured = [], 0
marks = {1, 3, 10, 30, 100, 300}
while measured < BUDGET:
    spec = handler.next(measured, records)
    if spec is None:
        break
    if handler.k in marks:
        f = fidelity(rho, handler.estimate().estimate)
        print(f"iteration {handler.k:>4}: fidelity {f:.5f}")
        marks.discard(handler.k)
    probs = born_probabilities(rho, spec.povm)
    records.append(MeasurementRecord(spec, sample_counts(probs, spec.shots, rng)))
    measured += spec.shots

final = fidelity(rho, handler.estimate(records).estimate)
print(f"\nfinal fidelity after {measured} copies: {final:.5f}")
print("Convergence is stochastic but steady: the gain schedule shrinks both")
print("the perturbation size and the step length as iterations accumulate.")

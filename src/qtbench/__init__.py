"""qtbench: a benchmarking engine for quantum state tomography methods.

The package simulates tomography experiments end to end (random true state,
measurement protocol, multinomial sampling, density-matrix estimation) and
computes resource benchmarks: the sample size needed to reach a target
fidelity with 95% probability, measurement counts, compute times, efficiency
against the theoretical lower bound, and outlier ratios.
"""

__version__ = "0.1.0"

from .qcore import (
    DensityMatrix,
    PureState,
    eig_hermitian,
    fidelity,
    haar_unitary,
    haar_vector,
    partial_trace,
    project_to_simplex,
)
from .states import (
    NoiseParams,
    TestKind,
    depolarize,
    depolarizing_weight,
    gen_rmspt,
    gen_rnp,
    gen_rps,
    noisy_register,
    random_unitary_error,
)
from .mub import SUPPORTED_MUB_DIMS, mub_bases
from .protocols import (
    AmubHandler,
    FoHandler,
    FomubHandler,
    MeasurementSpec,
    Povm,
    allocate_shots,
    fmub_protocol,
    mub_protocol,
    orthogonal_product_vector,
    pauli_protocol,
)
from .estimators import (
    EstimatorReport,
    MeasurementRecord,
    arml,
    chi2_pvalue,
    frls,
    frml,
    log_likelihood,
    ppi,
    trml,
)
from .sgqt import SgqtHandler, SgqtParams
from .engine import (
    CampaignConfig,
    CampaignError,
    ConfigError,
    RunResult,
    born_probabilities,
    default_grid,
    run_campaign,
    run_experiment,
    sample_counts,
)
from .stats import (
    BenchmarkReport,
    PercentileCurve,
    build_curve,
    chi2_icdf,
    compile_report,
    efficiency,
    interpolate_at_NB,
    interpolate_NB,
    lower_bound_NB,
    lower_bound_infidelity_p95,
    medcouple,
    nu,
    outlier_ratio,
    percentile,
)

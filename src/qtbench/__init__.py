"""qtbench: a benchmarking engine for quantum state tomography methods.

The package simulates tomography experiments end to end (random true state,
measurement protocol, multinomial sampling, density-matrix estimation) and
computes resource benchmarks: the sample size needed to reach a target
fidelity with 95% probability, measurement counts, compute times, efficiency
against the theoretical lower bound, and outlier ratios.
"""

__version__ = "0.1.0"

from .qcore import fidelity
from .states import TestKind
from .mub import mub_bases
from .estimators import MeasurementRecord
from .engine import (
    CampaignConfig,
    CampaignError,
    ConfigError,
    born_probabilities,
    run_campaign,
    run_experiment,
    sample_counts,
)
from .stats import (
    chi2_icdf,
    compile_report,
    lower_bound_NB,
    medcouple,
    nu,
    outlier_ratio,
    percentile,
)

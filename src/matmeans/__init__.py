"""Matrix means on the positive definite cone and their inequality suite."""

from .densela import (
    EigenDecomposition,
    JacobiConvergenceError,
    pd_log,
    pd_power,
    random_pd,
    singular_values,
    sym_eigen,
    sym_exp,
)
from .means import (
    WeightVector,
    arithmetic_path,
    cross_term,
    geometric_mean,
    log_euclidean,
    power_mean,
    power_mean_multi,
    sandwich_mean,
)
from .spectra import eigenvalues_desc, ky_fan_norm, schatten_norm
from .compound import compound_matrix
from .suite import (
    CampaignConfig,
    CampaignReport,
    InstanceSpec,
    PROPERTY_IDS,
    check_property,
    paper_counterexample,
    run_campaign,
)

__version__ = "0.1.0"

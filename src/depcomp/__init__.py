"""Simulation and blind recovery of hidden distributions seen through noisy channels.

A *dependent component system* couples one hidden discrete distribution with
``K`` independent column-stochastic channels that each read the same hidden
draw.  This package simulates such systems, estimates their joint output law
from samples, recovers the hidden pieces up to relabeling by multi-start
fitting (EM for a sampled law, projected gradient for an exact one), and
ships verifiable diagnostics for exactly when that recovery is (im)possible.
"""

from .analysis import (
    DuplicateColumnsError,
    K2Witness,
    MICounterexample,
    activation_invertible,
    conditionally_independent_given_cause,
    conjunctive_fork_check,
    k2_ambiguity_witness,
    kernels_equal,
    khatri_rao_power,
    mi_counterexample,
    min_activation_order,
    pairwise_mutual_information,
    parameter_count_feasible,
    vanishing_infimum_demo,
)
from .core import (
    Channel,
    DCSystem,
    Distribution,
    JointTensor,
    Permutation,
    channel_invertible,
    khatri_rao,
    kl_divergence,
    lp_distance,
    numerical_rank,
    output_distribution,
    permute_system,
)
from .inversion import (
    InversionConfig,
    InversionResult,
    RestartLog,
    align_permutation,
    canonicalize,
    recover_system,
)
from .sampling import (
    EmpiricalCounts,
    SampleBatch,
    ml_estimate,
    random_channel,
    random_system,
    sample_dcs,
    type_counts,
    typicality_test,
)

__version__ = "0.1.0"

__all__ = [
    "Channel",
    "DCSystem",
    "Distribution",
    "DuplicateColumnsError",
    "EmpiricalCounts",
    "InversionConfig",
    "InversionResult",
    "JointTensor",
    "K2Witness",
    "MICounterexample",
    "Permutation",
    "RestartLog",
    "SampleBatch",
    "activation_invertible",
    "align_permutation",
    "canonicalize",
    "channel_invertible",
    "conditionally_independent_given_cause",
    "conjunctive_fork_check",
    "k2_ambiguity_witness",
    "kernels_equal",
    "khatri_rao",
    "khatri_rao_power",
    "kl_divergence",
    "lp_distance",
    "mi_counterexample",
    "min_activation_order",
    "ml_estimate",
    "numerical_rank",
    "output_distribution",
    "pairwise_mutual_information",
    "parameter_count_feasible",
    "permute_system",
    "random_channel",
    "random_system",
    "recover_system",
    "sample_dcs",
    "type_counts",
    "typicality_test",
    "vanishing_infimum_demo",
    "__version__",
]

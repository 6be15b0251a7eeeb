"""Numerical laboratory for Moebius-weighted averages of noncommutative flows.

The package sieves the Moebius function, evaluates exponential sums with
polynomial phases, averages bounded operator flows (matrix conjugation
orbits, fermionic quasi-free dynamics) against mu, computes free central
limit moments, and ships an experiment CLI that emits reproducible CSV/JSON
artifacts.
"""

from .moebius import (
    MoebiusTable,
    build_table,
    exp_sum,
    load_or_build_table,
    phase_values,
    prefix_counts,
)
from .linalg import (
    haar_unitary,
    hs_norm,
    op_norm,
    random_density,
    unitary_power,
)
from .flows import (
    AverageSeries,
    BSZReport,
    DecayFit,
    Flow,
    FlowEvaluationError,
    average_series,
    bsz_check,
    constant_flow,
    decay_fit,
    geometric_checkpoints,
    rotation_flow,
    spectral_flow,
)
from .matrix_dynamics import (
    FiniteAverageBound,
    QuantizedUnitary,
    TraceProductSpec,
    ad_flow,
    finite_vn_average_bound,
    finite_vn_state_flow,
    quantize_unitary,
    rank_one_flow,
    trace_product_sum,
)
from .car_fock import (
    CARPolynomial,
    annihilation,
    counterexample_flow,
    creation,
    creation_matrix,
    fock_space,
    gamma,
    normal_order,
    pure_point_flow,
    quasifree_density_matrix,
    quasifree_eval,
)
from .free_words import (
    arcsine_moments,
    catalan,
    cumulants_to_moments,
    free_clt_moments,
    moments_to_cumulants,
    semicircle_moments,
)

__version__ = "0.1.0"

__all__ = [
    "AverageSeries",
    "BSZReport",
    "CARPolynomial",
    "DecayFit",
    "FiniteAverageBound",
    "Flow",
    "FlowEvaluationError",
    "MoebiusTable",
    "QuantizedUnitary",
    "TraceProductSpec",
    "ad_flow",
    "annihilation",
    "arcsine_moments",
    "average_series",
    "bsz_check",
    "build_table",
    "catalan",
    "constant_flow",
    "counterexample_flow",
    "creation",
    "creation_matrix",
    "cumulants_to_moments",
    "decay_fit",
    "exp_sum",
    "finite_vn_average_bound",
    "finite_vn_state_flow",
    "fock_space",
    "free_clt_moments",
    "gamma",
    "geometric_checkpoints",
    "haar_unitary",
    "hs_norm",
    "load_or_build_table",
    "moments_to_cumulants",
    "normal_order",
    "op_norm",
    "phase_values",
    "prefix_counts",
    "pure_point_flow",
    "quantize_unitary",
    "quasifree_density_matrix",
    "quasifree_eval",
    "random_density",
    "rank_one_flow",
    "rotation_flow",
    "semicircle_moments",
    "spectral_flow",
    "trace_product_sum",
    "unitary_power",
]

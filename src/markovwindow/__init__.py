"""Toolkit for quantifying how fast a reversible Markov chain destroys
information about its initial distribution.

Core objects: TransitionMatrix / Distribution / SpectralDecomposition; the
pi-weighted geometry and the closed-form decay Delta(t); divergences with
exact product-space oracles; sample-complexity thresholds and window/time
diagnostics; seeded Monte Carlo validation; a chain zoo with closed-form
spectra.  All logarithms are natural.
"""

from .chain import (
    Distribution,
    TransitionMatrix,
    check_reversible,
    evolve,
    lazy,
    stationary_distribution,
    symmetrize,
)
from .complexity import (
    ComplexityReport,
    ExtremePairs,
    TestingInstance,
    bounded_lr_epsilon,
    center_pair,
    complexity_report,
    extreme_pairs,
    general_upper_bound,
    pairwise_epsilon,
    sample_lower_bound,
    sample_upper_bound,
    statistical_time,
    statistical_window,
)
from .divergences import (
    chi_square,
    exact_lr_error,
    exact_product_tv,
    hellinger_sq,
    kl_divergence,
    total_variation,
)
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    EigensolverFailure,
    Infeasible,
    InvalidParameter,
    MarkovWindowError,
    NotIrreducible,
    NotReversible,
    UndefinedWindow,
    ZeroStationaryMass,
)
from .geometry import (
    decay_distance_sq,
    delta_curve,
    pi_inner,
    pi_norm,
    spectral_coefficients,
)
from .montecarlo import (
    Decision,
    ErrorEstimate,
    LowerBoundWitness,
    Sample,
    draw_sample,
    estimate_error,
    lower_bound_witness,
    lr_statistic,
    lr_test,
)
from .spectral import SpectralDecomposition, spectral_decomposition
from . import zoo

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "ComplexityReport",
    "Decision",
    "DimensionMismatch",
    "Distribution",
    "EigensolverFailure",
    "ErrorEstimate",
    "ExtremePairs",
    "Infeasible",
    "InvalidParameter",
    "LowerBoundWitness",
    "MarkovWindowError",
    "NotIrreducible",
    "NotReversible",
    "Sample",
    "SpectralDecomposition",
    "TestingInstance",
    "TransitionMatrix",
    "UndefinedWindow",
    "ZeroStationaryMass",
    "bounded_lr_epsilon",
    "center_pair",
    "check_reversible",
    "chi_square",
    "complexity_report",
    "decay_distance_sq",
    "delta_curve",
    "draw_sample",
    "estimate_error",
    "evolve",
    "exact_lr_error",
    "exact_product_tv",
    "extreme_pairs",
    "general_upper_bound",
    "hellinger_sq",
    "kl_divergence",
    "lazy",
    "lower_bound_witness",
    "lr_statistic",
    "lr_test",
    "pairwise_epsilon",
    "pi_inner",
    "pi_norm",
    "sample_lower_bound",
    "sample_upper_bound",
    "spectral_coefficients",
    "spectral_decomposition",
    "stationary_distribution",
    "statistical_time",
    "statistical_window",
    "symmetrize",
    "total_variation",
    "zoo",
]

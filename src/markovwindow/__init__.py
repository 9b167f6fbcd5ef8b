"""Toolkit for quantifying how fast a reversible Markov chain destroys
information about its initial distribution.

Core objects: TransitionMatrix / Distribution / SpectralDecomposition; the
pi-weighted geometry and the closed-form decay Delta(t); divergences with
exact product-space oracles; sample-complexity thresholds and window/time
diagnostics; seeded Monte Carlo validation; a chain zoo with closed-form
spectra.  All logarithms are natural.

Each public name is looked up in its home module on access (PEP 562), so
`import markovwindow` loads no submodule and no numpy, and a caller loads
only the layers it uses.
"""

import importlib

_HOMES = {
    "chain": ("Distribution", "TransitionMatrix", "evolve", "lazy", "stationary_distribution", "symmetrize"),
    "complexity": ("ComplexityReport", "ExtremePairs", "TestingInstance", "bounded_lr_epsilon", "complexity_report",
                   "extreme_pairs", "general_upper_bound", "pairwise_epsilon", "sample_lower_bound",
                   "sample_upper_bound", "statistical_time", "statistical_window"),
    "divergences": ("chi_square", "exact_lr_error", "exact_product_tv", "hellinger_sq", "kl_divergence"),
    "errors": ("BudgetExceeded", "DimensionMismatch", "EigensolverFailure", "Infeasible", "InvalidParameter",
               "MarkovWindowError", "NotIrreducible", "NotReversible", "UndefinedWindow", "ZeroStationaryMass"),
    "geometry": ("delta_curve",),
    "montecarlo": ("ErrorEstimate", "LowerBoundWitness", "Sample", "draw_sample", "estimate_error",
                   "lower_bound_witness"),
    "spectral": ("SpectralDecomposition", "spectral_decomposition"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = frozenset([*_HOMES, "cli", "zoo"])

__version__ = "0.1.0"

__all__ = sorted([*_HOME, "zoo"])


def __getattr__(name: str):
    """A public name from its home module at every access, never kept here,
    so a name patched or restored there reads the same here; a submodule by
    importing it, which binds it in this namespace as any import does."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})

"""Exception types raised across the package.

Every error raised by this package derives from MarkovWindowError, so callers
can catch one base class at an API boundary (the CLI maps subclasses to exit
codes).
"""


class MarkovWindowError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(MarkovWindowError):
    """Vectors or matrices with incompatible shapes were combined."""


class NotIrreducible(MarkovWindowError):
    """The support graph of the transition matrix is not strongly connected."""


class NotReversible(MarkovWindowError):
    """The chain violates detailed balance beyond tolerance."""


class InvalidParameter(MarkovWindowError):
    """A scalar parameter is outside its admissible range."""


class ZeroStationaryMass(MarkovWindowError):
    """A weighting distribution has a zero entry where positivity is required."""


class EigensolverFailure(MarkovWindowError):
    """The symmetric eigensolver did not reach the required residual."""


class BudgetExceeded(MarkovWindowError):
    """An exact enumeration would exceed the configured outcome budget."""


class Infeasible(MarkovWindowError):
    """No feasible construction exists for the requested parameters."""


class UndefinedWindow(MarkovWindowError):
    """The window ratio is 0/0: both pairs have fully decayed at this time."""

"""Finite Markov chains: transition matrices, distributions, and the basic
operations (stationary distribution, detailed balance, symmetrization,
laziness, evolution).

Conventions
-----------
Transition matrices are row-stochastic: entry (i, j) is the probability of
moving from state i to state j.  All types are immutable after construction
(the backing numpy arrays are marked read-only) and all operations are pure,
so values can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse
from scipy.sparse.csgraph import connected_components

from .errors import (
    DimensionMismatch,
    EigensolverFailure,
    InvalidParameter,
    NotIrreducible,
    NotReversible,
)

ROW_SUM_TOL = 1e-12
MASS_SUM_TOL = 1e-12
STATIONARY_RESIDUAL_TOL = 1e-10
REVERSIBILITY_TOL = 1e-8


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Distribution:
    """A probability vector on d states.

    Entries must be finite, nonnegative and sum to one within 1e-12.
    Compares by identity (the payload is an array).
    """

    mass: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.mass)
        if arr.ndim != 1 or arr.size < 1:
            raise InvalidParameter("distribution must be a nonempty vector")
        if np.any(arr < 0):
            raise InvalidParameter("distribution entries must be nonnegative")
        total = float(arr.sum())
        if not math.isfinite(total):
            raise InvalidParameter("distribution entries must be finite")
        if abs(total - 1.0) > MASS_SUM_TOL:
            raise InvalidParameter(
                f"distribution mass sums to {total!r}, expected 1 within {MASS_SUM_TOL}"
            )
        object.__setattr__(self, "mass", arr)

    @property
    def d(self) -> int:
        return self.mass.size

    @staticmethod
    def uniform(d: int) -> "Distribution":
        if d < 1:
            raise InvalidParameter("d must be >= 1")
        return Distribution(np.full(d, 1.0 / d))

    @staticmethod
    def point(d: int, i: int) -> "Distribution":
        """Point mass on state i."""
        if not 0 <= i < d:
            raise InvalidParameter(f"point index {i} outside [0, {d})")
        mass = np.zeros(d)
        mass[i] = 1.0
        return Distribution(mass)


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Row-stochastic d x d matrix of a finite chain.

    Construction validates finiteness, row sums (tolerance 1e-12) and
    nonnegativity.
    Irreducibility (strong connectivity of the support graph, checked by
    breadth-first reachability) is an invariant of every chain this package
    constructs, but it is enforced by the operations that need it, so
    degenerate values like the identity chain remain representable.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.entries)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InvalidParameter("transition matrix must be square")
        if arr.shape[0] < 2:
            raise InvalidParameter("chain needs at least 2 states")
        if np.any(arr < 0):
            raise InvalidParameter("transition probabilities must be nonnegative")
        row_err = float(np.max(np.abs(arr.sum(axis=1) - 1.0)))
        if not math.isfinite(row_err):
            raise InvalidParameter("transition probabilities must be finite")
        if row_err > ROW_SUM_TOL:
            raise InvalidParameter(
                f"rows must sum to 1 within {ROW_SUM_TOL} (max deviation {row_err:.3e})"
            )
        object.__setattr__(self, "entries", arr)

    @property
    def d(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def is_irreducible(self) -> bool:
        """Strong connectivity of the directed support graph."""
        support = scipy.sparse.csr_matrix(self.entries > 0)
        n, _ = connected_components(support, directed=True, connection="strong")
        return n == 1


def stationary_distribution(P: TransitionMatrix) -> Distribution:
    """Stationary distribution pi with pi P = pi.

    Solves the singular linear system (P - I)^T pi = 0 with the normalization
    row sum(pi) = 1 substituted for the last equation.  For an irreducible
    chain the system has a unique strictly positive solution; the residual
    max|pi P - pi| is verified to 1e-10.
    """
    if not P.is_irreducible:
        raise NotIrreducible("support graph is not strongly connected")
    A = P.entries.T - np.eye(P.d)
    A[-1, :] = 1.0
    b = np.zeros(P.d)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise NotIrreducible(f"stationary solve failed: {exc}") from exc
    residual = float(np.max(np.abs(pi @ P.entries - pi)))
    if residual > STATIONARY_RESIDUAL_TOL:
        raise EigensolverFailure(
            f"stationary residual {residual:.3e} exceeds {STATIONARY_RESIDUAL_TOL}"
        )
    if np.any(pi <= 0):
        raise NotIrreducible("stationary distribution has a nonpositive entry")
    return Distribution(pi / pi.sum())


def check_reversible(P: TransitionMatrix, pi: Distribution, tol: float = REVERSIBILITY_TOL) -> bool:
    """True iff detailed balance pi_i P_ij = pi_j P_ji holds within tol.

    The default tolerance 1e-8 is a numerical choice; detailed balance has no
    canonical verification tolerance.
    """
    if pi.d != P.d:
        raise DimensionMismatch(f"pi has {pi.d} states, chain has {P.d}")
    if np.any(pi.mass <= 0):
        raise InvalidParameter("pi must be strictly positive")
    flow = pi.mass[:, None] * P.entries
    return float(np.max(np.abs(flow - flow.T))) <= tol


def symmetrize(P: TransitionMatrix, pi: Distribution) -> np.ndarray:
    """The symmetric conjugate Q_ij = sqrt(pi_i / pi_j) P_ij.

    Raises NotReversible if the symmetry deviation of Q exceeds 1e-8.  The
    returned matrix is symmetrized exactly (averaged with its transpose) so
    downstream symmetric eigensolvers see an exactly symmetric input.
    """
    if pi.d != P.d:
        raise DimensionMismatch(f"pi has {pi.d} states, chain has {P.d}")
    if np.any(pi.mass <= 0):
        raise InvalidParameter("pi must be strictly positive")
    root = np.sqrt(pi.mass)
    Q = (root[:, None] / root[None, :]) * P.entries
    deviation = float(np.max(np.abs(Q - Q.T)))
    if deviation > REVERSIBILITY_TOL:
        raise NotReversible(
            f"chain not reversible: symmetrized deviation {deviation:.3e} exceeds {REVERSIBILITY_TOL}"
        )
    return 0.5 * (Q + Q.T)


def lazy(P: TransitionMatrix, q: float) -> TransitionMatrix:
    """The lazy chain (1 - q) P + q I.

    Maps each eigenvalue lam to (1 - q) lam + q and preserves the stationary
    distribution.
    """
    if not 0.0 <= q <= 1.0:
        raise InvalidParameter(f"laziness q must lie in [0, 1], got {q!r}")
    return TransitionMatrix((1.0 - q) * P.entries + q * np.eye(P.d))


def evolve(mu: Distribution, P: TransitionMatrix, t: int) -> Distribution:
    """The distribution mu P^t after t steps.

    Computed by t successive vector-matrix products; the matrix power is
    never formed.
    """
    if mu.d != P.d:
        raise DimensionMismatch(f"distribution has {mu.d} states, chain has {P.d}")
    if t < 0 or t != int(t):
        raise InvalidParameter(f"t must be a nonnegative integer, got {t!r}")
    out = mu.mass
    for _ in range(int(t)):
        out = out @ P.entries
    return Distribution(out)

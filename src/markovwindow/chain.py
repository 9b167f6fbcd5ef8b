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

from .errors import (
    DimensionMismatch,
    EigensolverFailure,
    InvalidParameter,
    NotIrreducible,
    NotReversible,
    ZeroStationaryMass,
)

ROW_SUM_TOL = 1e-12
MASS_SUM_TOL = 1e-12
STATIONARY_RESIDUAL_TOL = 1e-10
REVERSIBILITY_TOL = 1e-8
_TINY = np.finfo(float).tiny  # the least normal float


def _check_count(value, minimum: int, message: str, maximum=math.inf, too_large: str = "") -> int:
    """value as an int if it is a whole number >= minimum; else InvalidParameter(message).

    NaN, inf and fractions fail the same way, not as the ValueError,
    OverflowError or TypeError that int() or range() would raise.  Above
    maximum, the largest its computation takes, InvalidParameter(too_large).
    """
    try:
        count = int(value)
    except (TypeError, ValueError, OverflowError):
        raise InvalidParameter(message) from None
    if count != value or count < minimum:
        raise InvalidParameter(message)
    if count > maximum:
        raise InvalidParameter(too_large)
    return count


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
        d = _check_count(d, 1, f"d must be a positive integer, got {d!r}")
        return Distribution(np.full(d, 1.0 / d))

    @staticmethod
    def point(d: int, i: int) -> "Distribution":
        """Point mass on state i."""
        d = _check_count(d, 1, f"d must be a positive integer, got {d!r}")
        message = f"point index must lie in [0, {d}), got {i!r}"
        i = _check_count(i, 0, message)
        if i >= d:
            raise InvalidParameter(message)
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
        object.__setattr__(self, "entries", _frozen_array(self.entries))
        self._validate()

    @classmethod
    def _adopt(cls, entries: np.ndarray) -> "TransitionMatrix":
        """The chain on a new array that the caller hands over and keeps no
        reference to: frozen in place instead of copied."""
        arr = np.asarray(entries, dtype=float)
        arr.setflags(write=False)
        P = object.__new__(cls)
        object.__setattr__(P, "entries", arr)
        P._validate()
        return P

    def _validate(self) -> None:
        arr = self.entries
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

    @property
    def d(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def _sweep(self) -> tuple:
        """(symmetric, irreducible, tree) from breadth-first sweeps from state 0
        over one support array P_ij > 0, in O(d^2) each.  The chain is
        strongly connected iff the sweeps along the edges and against them
        each reach every state.  A symmetric support (every reversible chain
        has one) needs one sweep, and keeps its tree when it is connected,
        else tree is None.  The tree is (order, up, rounds): `order` lists the
        states level by level, `up[i]` is the position in `order` of the
        parent of `order[i]` (the root's is its own), and 2^rounds is at least
        the tree's depth."""
        support = self.entries > 0
        levels = _levels(support)
        reached = sum(map(len, levels)) == self.d
        if not np.array_equal(support, support.T):
            return False, reached and sum(map(len, _levels(support.T))) == self.d, None
        if not reached:
            return True, False, None
        order = np.concatenate(levels)
        # The parent of a state is its neighbour first in breadth-first order:
        # its first neighbour one level nearer state 0.
        up = support.take(order, axis=1).argmax(axis=1)[order]
        up[0] = 0
        return True, True, (order, up, (len(levels) - 2).bit_length())

    @cached_property
    def is_irreducible(self) -> bool:
        """Strong connectivity of the support graph, decided by `_sweep`."""
        return self._sweep[1]

    @cached_property
    def _stationary(self) -> Distribution:
        return stationary_distribution(self)

    @cached_property
    def _symmetrized(self) -> np.ndarray:
        """symmetrize(self, pi), read-only: the chain's one Q, for every reader.
        Raises NotReversible, caching nothing, on a chain that is not reversible."""
        Q = symmetrize(self, self._stationary)
        Q.setflags(write=False)
        return Q


def _levels(adj: np.ndarray) -> list:
    """The states reached from state 0 along adj, level by level, each level ascending."""
    seen = np.zeros(adj.shape[0], dtype=bool)
    seen[0] = True
    levels, frontier = [], np.array([0])
    while frontier.size:  # each state joins one level
        levels.append(frontier)
        new = np.logical_or.reduce(adj.take(frontier, axis=0)) > seen  # reached now, not before
        seen |= new
        frontier = new.nonzero()[0]
    return levels


def _tree_stationary(P: TransitionMatrix) -> np.ndarray | None:
    """pi by detailed balance along the breadth-first tree of `_sweep`:
    log pi_j - log pi_0 is the sum of log(P_parent,i / P_i,parent) over the
    states i on the path from j up to state 0, summed by pointer doubling in
    O(d log depth); None without a tree.  On a reversible chain each normal
    entry is accurate to a few ulps of itself; an entry below the smallest
    subnormal float reads 0."""
    tree = P._sweep[2]
    if tree is None:
        return None
    order, up, rounds = tree
    child, parent = order[1:], order[up[1:]]
    a, b = P.entries[parent, child], P.entries[child, parent]
    with np.errstate(over="ignore"):
        ratio = a / b
    log_pi = np.zeros(P.d)  # in breadth-first order; the root's 0 stays
    # Where a / b is not a finite normal float, log a - log b, as montecarlo._lr_table takes it.
    log_pi[1:] = np.where((ratio >= _TINY) & (ratio < math.inf), np.log(ratio), np.log(a) - np.log(b))
    for _ in range(rounds):  # after round k, each sum covers 2^k edges, or its whole path
        log_pi += log_pi[up]
        up = up[up]
    top = log_pi.max()
    if top > math.log(np.finfo(float).max / P.d):  # else pi_0 = 1 before scaling, and no sum of exp overflows
        log_pi -= top
    pi = np.empty(P.d)
    pi[order] = np.exp(log_pi)
    return pi / pi.sum()


def _stationary_residual(P: TransitionMatrix, pi: np.ndarray) -> float:
    return float(np.max(np.abs(pi @ P.entries - pi)))


def stationary_distribution(P: TransitionMatrix) -> Distribution:
    """Stationary distribution pi with pi P = pi.

    A chain with a symmetric support takes pi from detailed balance along a
    breadth-first tree, in O(d^2).  If that pi misses the residual check, as
    on a chain that is not reversible, or the support is not symmetric, pi
    solves the singular linear system (P - I)^T pi = 0 with the normalization
    row sum(pi) = 1 substituted for the last equation, in O(d^3).  For an
    irreducible chain the system has a unique strictly positive solution.
    Either way the residual max|pi P - pi| is verified to 1e-10.
    """
    if not P.is_irreducible:
        raise NotIrreducible("support graph is not strongly connected")
    pi = _tree_stationary(P)
    if pi is not None and _stationary_residual(P, pi) <= STATIONARY_RESIDUAL_TOL:
        if pi.min() == 0.0:
            raise ZeroStationaryMass("stationary distribution has an entry below the smallest subnormal float")
        return Distribution(pi)
    A = P.entries.T.copy()  # (P - I)^T in one d x d buffer
    A.flat[:: P.d + 1] -= 1.0
    A[-1, :] = 1.0
    b = np.zeros(P.d)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise NotIrreducible(f"stationary solve failed: {exc}") from exc
    residual = _stationary_residual(P, pi)
    if residual > STATIONARY_RESIDUAL_TOL:
        raise EigensolverFailure(
            f"stationary residual {residual:.3e} exceeds {STATIONARY_RESIDUAL_TOL}"
        )
    if np.any(pi <= 0):
        raise NotIrreducible("stationary distribution has a nonpositive entry")
    return Distribution(pi / pi.sum())


def _conjugate(P: TransitionMatrix, pi: Distribution) -> tuple[np.ndarray, float]:
    """(Q + Q^T) / 2 for Q_ij = sqrt(pi_i / pi_j) P_ij, and the detailed-balance gap
    max |Q_ij - Q_ji| = max |F_ij - F_ji| / sqrt(pi_i pi_j) over the flows F_ij = pi_i P_ij,
    or inf if an edge has no reverse edge, which no pi balances at any weight."""
    if pi.d != P.d:
        raise DimensionMismatch(f"pi has {pi.d} states, chain has {P.d}")
    if np.any(pi.mass <= 0):
        raise InvalidParameter("pi must be strictly positive")
    root = np.sqrt(pi.mass)
    # Two d x d buffers: Q, and S for Q - Q^T and then the symmetrized result.
    Q = np.divide(root[:, None], root[None, :])
    Q *= P.entries
    S = np.subtract(Q, Q.T)  # the one transposed read; S_ji = -S_ij exactly, so max S = max |S|
    gap = float(S.max()) if P._sweep[0] else math.inf
    # Q - S / 2 = (Q + Q^T) / 2, rounded once, where S_ij is exact: wherever Q_ij and Q_ji
    # lie within a factor 2 (Sterbenz).  Under a gap of 1e-8, only entries below 2e-8 do not.
    S *= -0.5
    S += Q
    return S, gap


def check_reversible(P: TransitionMatrix, pi: Distribution, tol: float = REVERSIBILITY_TOL) -> bool:
    """True iff every edge has its reverse edge and every
    |pi_i P_ij - pi_j P_ji| <= tol sqrt(pi_i pi_j), i.e. |Q_ij - Q_ji| <= tol.
    `symmetrize` enforces the default 1e-8, a numerical choice."""
    return _conjugate(P, pi)[1] <= tol


def symmetrize(P: TransitionMatrix, pi: Distribution) -> np.ndarray:
    """The symmetric conjugate Q_ij = sqrt(pi_i / pi_j) P_ij, averaged with its
    transpose so that symmetric eigensolvers see a symmetric input: exactly
    so, but for entries below 2e-8, which may differ from their mirror by an
    ulp.  Raises NotReversible unless `check_reversible(P, pi)`."""
    Q, gap = _conjugate(P, pi)
    if gap > REVERSIBILITY_TOL:
        raise NotReversible("chain not reversible: " + ("an edge has no reverse edge" if gap == math.inf
                            else f"symmetrized deviation {gap:.3e} exceeds {REVERSIBILITY_TOL}"))
    return Q


def lazy(P: TransitionMatrix, q: float) -> TransitionMatrix:
    """The lazy chain (1 - q) P + q I.

    Maps each eigenvalue lam to (1 - q) lam + q and preserves the stationary
    distribution.
    """
    if not 0.0 <= q <= 1.0:
        raise InvalidParameter(f"laziness q must lie in [0, 1], got {q!r}")
    out = np.multiply(P.entries, 1.0 - q)
    out.flat[:: P.d + 1] += q
    return TransitionMatrix._adopt(out)


def evolve(mu: Distribution, P: TransitionMatrix, t: int) -> Distribution:
    """The distribution mu P^t after t steps.

    Computed by t successive vector-matrix products; the matrix power is
    never formed.
    """
    if mu.d != P.d:
        raise DimensionMismatch(f"distribution has {mu.d} states, chain has {P.d}")
    t = _check_count(t, 0, f"t must be a nonnegative integer, got {t!r}")
    out = mu.mass
    for _ in range(t):
        out = out @ P.entries
    return Distribution(out)

"""Spectral decomposition of reversible chains via the symmetric conjugate.

For a reversible chain P with stationary distribution pi, the matrix
Q = Pi^{1/2} P Pi^{-1/2} is symmetric, so it has a real spectrum and an
orthonormal eigenbasis nu_1..nu_d.  Back-transforming gives left eigenvectors
u_i = Pi^{1/2} nu_i (orthonormal under the pi-weighted inner product) and
right eigenvectors v_i = Pi^{-1/2} nu_i, with u_i = Pi v_i.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .chain import Distribution, TransitionMatrix, symmetrize
from .errors import EigensolverFailure

EIGEN_RESIDUAL_TOL = 1e-10

# The eigen residual is read on this many random sign probes, above 4 * PROBES
# states; up to there, reading it in full costs no more (equal at d = 256).
PROBES = 64

# Eigenvalues this close to +-1 are boundary modes of a stochastic matrix up
# to solver noise; snapping keeps "information never decays along this mode"
# exact, mirroring the dead-mode snap below.
UNIT_SNAP_TOL = 1e-12

# Below this magnitude an eigenvalue is solver noise around an exact zero and
# is stored as 0, so no dead mode is ever resurrected by roundoff.  This is
# the one place the rule lives: the rest of the package reads lam == 0.
DEAD_MODE_TOL = 1e-13

# abs_multiplicity (in eigen_summary and ExtremePairs) counts eigenvalues this close to the signed one.
MULTIPLICITY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Full eigensystem of a reversible chain.

    Attributes
    ----------
    eigenvalues : (d,) array, sorted descending by signed value; first is 1.
    left_eigenvectors : (d, d) array, row i is u_i; u_1 = pi; pi-orthonormal.
    abs_order : (d,) int array; abs_order[j] is the index (into the arrays
        above) of the eigenvalue of j-th largest absolute value.  Ties break
        by descending signed value, then ascending index.
    stationary : the chain's stationary distribution.
    """

    eigenvalues: np.ndarray
    left_eigenvectors: np.ndarray
    abs_order: np.ndarray
    stationary: Distribution

    @property
    def d(self) -> int:
        return self.eigenvalues.size

    @property
    def right_eigenvectors(self) -> np.ndarray:
        """(d, d) array, row i is v_i = Pi^{-1} u_i; v_1 = all-ones.  Derived on
        each access, so a decomposition stores one d x d eigenvector matrix."""
        return self.left_eigenvectors / self.stationary.mass[None, :]

    def eigenvalue_by_abs_rank(self, rank: int) -> float:
        """Eigenvalue of the rank-th largest absolute value (rank 1 is 1.0)."""
        return float(self.eigenvalues[self.abs_order[rank - 1]])

    def left_by_abs_rank(self, rank: int) -> np.ndarray:
        """Left eigenvector paired with eigenvalue_by_abs_rank(rank)."""
        return self.left_eigenvectors[self.abs_order[rank - 1]]

    def abs_multiplicity(self, rank: int) -> int:
        """Multiplicity of the (signed) eigenvalue at the given abs rank."""
        target = self.eigenvalue_by_abs_rank(rank)
        return int(np.sum(np.abs(self.eigenvalues - target) <= MULTIPLICITY_TOL))


def _fix_signs(U: np.ndarray) -> None:
    """Flip eigenvector rows in place so the first non-negligible coordinate is positive; zero rows stay."""
    thr = 1e-10 * np.maximum(U.max(axis=1), -U.min(axis=1))[:, None]
    lead = U > thr
    lead |= U < -thr
    flip = U[np.arange(U.shape[0]), lead.argmax(axis=1)] < 0
    np.negative(U, out=U, where=flip[:, None])


# Chains are immutable, so the decomposition of a given object never changes.
# This is the package's only decomposition cache; every caller looks it up here.
_CACHE: "weakref.WeakKeyDictionary[TransitionMatrix, SpectralDecomposition]" = (
    weakref.WeakKeyDictionary()
)


def _eigen_residual(Q: np.ndarray, lams: np.ndarray, nus: np.ndarray) -> float:
    """max |E S| for the residual E = Q N - N diag(lams) of the eigenvector
    columns N = nus.

    S is the identity up to d = 4 PROBES, so every entry of E is read.
    Above, S holds PROBES random sign columns, drawn from a fixed seed, and
    the check costs O(PROBES d^2) instead of a d^3 product (Freivalds).
    For an entry a = E_ij, a probe column s reads (E s)_i = a s_j + x, with
    x free of s_j, and one of |a + x|, |-a + x| is at least |a|.  So each
    column reads at least |a| with probability 1/2 or more, and all of them
    miss it with probability at most 2^-PROBES, for any E that does not
    depend on S.  Q is only read; up to d = 4 PROBES, R -= N diag(lams) goes by column blocks.
    """
    d = lams.size
    if d <= 4 * PROBES:
        R = Q @ nus
        for j in range(0, d, PROBES):
            R[:, j:j + PROBES] -= nus[:, j:j + PROBES] * lams[j:j + PROBES]
    else:
        S = np.random.default_rng(0).choice([-1.0, 1.0], size=(d, PROBES))
        R = Q @ (nus @ S)
        R -= nus @ (lams[:, None] * S)
    return float(np.abs(R, out=R).max())


def spectral_decomposition(P: TransitionMatrix) -> SpectralDecomposition:
    """Eigenvalues and pi-orthonormal eigenvectors of a reversible chain, from eigh of Q = symmetrize(P), a local.

    Raises NotReversible if detailed balance fails, and EigensolverFailure if
    eigh does not converge or the returned eigensystem's residual exceeds 1e-10
    (read on random sign probes above 256 states; see `_eigen_residual`).  Cached per chain object.
    """
    cached = _CACHE.get(P)
    if cached is not None:
        return cached
    pi, Q = P._pi, symmetrize(P)
    try:
        lams, nus = np.linalg.eigh(Q)
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailure(f"symmetric eigensolver did not converge: {exc}") from exc

    # Descending by signed value; eigh returns ascending.
    order = np.argsort(-lams, kind="stable")
    lams = lams[order]
    U = nus.T[order]  # row i is nu_i
    del nus

    # eigh resolves the principal vector only to about 2^-53 / (1 - lambda_2), so the pair
    # (1, sqrt(pi)) is set from pi: the Householder reflector H = I - 2 w w^T / w^T w maps
    # a = U sqrt(pi) to +-e_1, so rows 1.. of H U (one rank-1 update) are orthogonal to sqrt(pi).
    root = np.sqrt(pi.mass)
    w = U @ root
    w[0] += np.copysign(np.linalg.norm(w), w[0])
    z = w @ U
    w *= 2.0 / (w @ w)
    for j in range(0, lams.size, PROBES):
        U[j:j + PROBES] -= np.outer(w[j:j + PROBES], z)
    U[0] = root
    lams[0] = 1.0
    lams = np.clip(lams, -1.0, 1.0)
    near_unit = np.abs(np.abs(lams) - 1.0) <= UNIT_SNAP_TOL
    lams[near_unit] = np.sign(lams[near_unit])
    lams[np.abs(lams) < DEAD_MODE_TOL] = 0.0
    residual = _eigen_residual(Q, lams, U.T)
    if residual > EIGEN_RESIDUAL_TOL:
        raise EigensolverFailure(f"eigensolver residual {residual:.3e} exceeds {EIGEN_RESIDUAL_TOL}")

    U *= root  # rows u_i = Pi^{1/2} nu_i
    _fix_signs(U)
    U[0] = pi.mass  # u_1 = pi exactly, hence v_1 = 1

    abs_order = np.lexsort((-lams, -np.abs(lams)))

    for arr in (lams, U, abs_order):
        arr.setflags(write=False)
    result = _CACHE[P] = SpectralDecomposition(
        eigenvalues=lams,
        left_eigenvectors=U,
        abs_order=abs_order,
        stationary=pi,
    )
    return result

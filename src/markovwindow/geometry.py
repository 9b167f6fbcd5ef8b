"""The pi-weighted inner-product geometry.

Left eigenvectors of a reversible chain are orthonormal under
<u, w>_pi = sum_x u_x w_x / pi_x, so any distribution expands as
mu = sum_i alpha_i u_i with alpha_1 = 1, and the squared pi-distance between
two evolved distributions has the closed form

    ||mu P^t - mu' P^t||_pi^2 = sum_{i>=2} lam_i^{2t} (alpha_i - alpha'_i)^2.

This decay is the quantity that governs the sample complexity of testing
between the two initial distributions.
"""

from __future__ import annotations

import math

import numpy as np

from .chain import Distribution
from .errors import DimensionMismatch, InvalidParameter
from .spectral import SpectralDecomposition

# Coefficient differences below this fraction of the coefficient vector's
# norm are projection noise (the computed eigenbasis is orthonormal only to
# machine precision) and are zeroed, so a pair aligned with one eigenvector
# does not pick up phantom mass on the others.  The induced change in the
# decay is below 1e-24 relative, far inside every stated tolerance.
COEFF_FLOOR_REL = 1e-12


def _pi_coefficients(x: np.ndarray, S: SpectralDecomposition) -> tuple[np.ndarray, int]:
    """(c, k) with c 2^k = the coefficients <u_i, x>_pi of a vector x with
    |x_j| <= 1.  k is 0 unless x / pi overflows, as it can where pi has a
    subnormal entry; then c is taken of x / (2^64 pi), and k = 64.  Scaling
    by 2^k is exact, and |<u_i, x>_pi| <= ||x||_pi < 2^538 is finite."""
    pi = S.stationary.mass
    with np.errstate(over="ignore"):
        w = x / pi
    k = 0 if np.isfinite(w).all() else 64
    if k:
        w = x / np.ldexp(pi, k)
    return S.left_eigenvectors @ w, k


def coefficient_diff(
    mu: Distribution, mu_prime: Distribution, S: SpectralDecomposition
) -> np.ndarray:
    """Per-mode coefficient differences <u_i, mu - mu'>_pi with noise floored."""
    if mu.d != S.d or mu_prime.d != S.d:
        raise DimensionMismatch("distribution / decomposition size mismatch")
    diff, k = _pi_coefficients(mu.mass - mu_prime.mass, S)
    scale = float(np.linalg.norm(diff))  # of diff / 2^k, whose square cannot overflow
    if scale > 0.0:
        diff[np.abs(diff) < COEFF_FLOOR_REL * scale] = 0.0
    return np.ldexp(diff, k, out=diff)


def _times(ts) -> np.ndarray:
    """The times ts as a float vector, checked to be nonnegative integers within the float range."""
    try:
        ts = np.asarray(ts, dtype=float).reshape(-1)
    except OverflowError:
        raise InvalidParameter("t must be a nonnegative integer within the float range") from None
    bad = ts[~(np.isfinite(ts) & (ts >= 0.0) & (ts == np.floor(ts)))]
    if bad.size:
        raise InvalidParameter(f"t must be a nonnegative integer, got {float(bad[0])!r}")
    return ts


def _log_deltas(diff: np.ndarray, S: SpectralDecomposition, ts) -> np.ndarray:
    """ln Delta(t), Delta(t) = sum_{i>=2} lam_i^{2t} diff_i^2, for every t in
    ts; -inf where Delta(t) = 0.

    Both the largest coefficient m = max_i |diff_i| and the slowest live rate
    r of the pair are factored out,
    Delta(t) = m^2 r^{2t} sum_i (|lam_i| / r)^{2t} (diff_i / m)^2, so no term
    of the remaining sum overflows, and the sum is at least the squared
    coefficient of a slowest mode: the logarithm stays finite where
    lam^{2t} or Delta(t) itself leaves the float range.  (|lam| / r)^{2t} is
    evaluated as exp(2t (ln|lam| - ln r)); dead modes count only at t = 0.
    """
    ts = _times(ts)
    lam = np.abs(S.eigenvalues[1:])
    m = np.abs(diff[1:]).max(initial=0.0) or 1.0  # any scale where every diff_i is 0
    c2 = (diff[1:] / m) ** 2
    live = (lam > 0.0) & (c2 > 0.0)
    log_rate = np.log(lam, out=np.full(lam.size, -np.inf), where=live)
    top = log_rate.max() if live.any() else 0.0
    with np.errstate(invalid="ignore"):  # modes not live, at t = 0: 0 * -inf
        weights = np.multiply.outer(2.0 * ts, log_rate - top)
    np.exp(weights, out=weights)
    weights[ts == 0.0] = 1.0
    weights *= c2
    with np.errstate(divide="ignore"):  # a sum of 0: Delta(t) = 0
        return 2.0 * math.log(m) + 2.0 * ts * top + np.log(np.sum(weights, axis=1))


def delta_curve(diff: np.ndarray, S: SpectralDecomposition, ts) -> np.ndarray:
    """Delta(t) = sum_{i>=2} lam_i^{2t} diff_i^2 for every t in ts.

    diff is one coefficient_diff projection; each further t costs O(d).
    Delta(t) is exp of `_log_deltas`, inf past the float range; it does not
    increase with t, because every |lam_i| <= 1.
    """
    diff = np.asarray(diff, dtype=float)
    if diff.shape != (S.d,):
        raise DimensionMismatch(f"diff has shape {diff.shape}, the decomposition {S.d} states")
    if not np.isfinite(diff).all():
        raise InvalidParameter("diff must be finite")
    with np.errstate(over="ignore"):
        return np.exp(_log_deltas(diff, S, ts))

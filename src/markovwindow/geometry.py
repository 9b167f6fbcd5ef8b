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
    """The times ts as a float vector, checked to be nonnegative integers."""
    ts = np.asarray(ts, dtype=float).reshape(-1)
    bad = ts[~(np.isfinite(ts) & (ts >= 0.0) & (ts == np.floor(ts)))]
    if bad.size:
        raise InvalidParameter(f"t must be a nonnegative integer, got {float(bad[0])!r}")
    return ts


def _mode_squares(diff: np.ndarray) -> tuple[np.ndarray, int]:
    """(c2, k) with c2 4^k = diff_i^2 for i >= 2.  k is 0 unless a coefficient
    is 2^511 or more (pi has a subnormal entry), whose square overflows; then
    c2 holds the squares of diff / 2^k, exact and finite."""
    k = max(0, math.frexp(np.abs(diff[1:]).max(initial=0.0))[1] - 511)
    return np.ldexp(diff[1:], -k) ** 2, k


def delta_curve(diff: np.ndarray, S: SpectralDecomposition, ts) -> np.ndarray:
    """Delta(t) = sum_{i>=2} lam_i^{2t} diff_i^2 for every t in ts.

    diff is one coefficient_diff projection; each further t costs O(d).
    lam^{2t} is evaluated as exp(2t ln|lam|), dead modes count only at t = 0.
    Delta(t) does not increase with t, because every |lam_i| <= 1.
    """
    ts = _times(ts)
    lam = np.abs(S.eigenvalues[1:])
    with np.errstate(divide="ignore", invalid="ignore"):  # dead modes: ln 0, and 0 * -inf at t = 0
        weights = np.multiply.outer(2.0 * ts, np.log(lam))
    np.exp(weights, out=weights)
    weights[ts == 0.0] = 1.0
    # The sums of scaled squares are scaled back by 4^k, exactly, so Delta(t)
    # is finite wherever it fits a float.
    c2, k = _mode_squares(diff)
    weights *= c2
    if not k:
        return np.sum(weights, axis=1)
    with np.errstate(over="ignore"):  # a Delta(t) past the float range is inf
        return np.ldexp(np.sum(weights, axis=1), 2 * k)


def _log_decay_ratio(diff: np.ndarray, S: SpectralDecomposition, ts) -> np.ndarray:
    """ln(Delta(t) / Delta(0)) for every t in ts; -inf where Delta(t) = 0.

    The slowest live rate r of the pair is factored out,
    Delta(t) = r^{2t} sum_i (|lam_i| / r)^{2t} diff_i^2, so the remaining sum
    is at least the squared coefficient of a slowest mode: the logarithm stays
    finite where lam^{2t} itself underflows.  The squares are those of
    `_mode_squares`, whose scale cancels in the ratio.
    """
    ts = _times(ts)
    lam = np.abs(S.eigenvalues[1:])
    c2 = _mode_squares(diff)[0]
    live = (lam > 0.0) & (c2 > 0.0)
    if not np.any(live):
        return np.where(ts > 0.0, -np.inf, 0.0)
    log_rate = np.log(lam[live])
    top = log_rate.max()
    scaled = np.exp(np.multiply.outer(2.0 * ts, log_rate - top)) @ c2[live]
    return np.where(ts > 0.0, 2.0 * ts * top + np.log(scaled / np.sum(c2)), 0.0)


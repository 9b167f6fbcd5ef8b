"""The pi-weighted inner-product geometry.

Left eigenvectors of a reversible chain are orthonormal under
<u, w>_pi = sum_x u_x w_x / pi_x, so any distribution expands as
mu = sum_i alpha_i u_i with alpha_1 = 1, and the squared pi-distance between
two evolved distributions has the closed form

    ||mu P^t - mu' P^t||_pi^2 = sum_{i>=2} lam_i^{2t} (alpha_i - alpha'_i)^2.

This decay Delta(t) is the quantity that governs the sample complexity of
testing between the two initial distributions.  Every evaluator of Delta(t)
lives here: the projection kernel, the products of P, and `delta_curve`,
which picks between them.
"""

from __future__ import annotations

import math

import numpy as np

from .chain import Distribution, TransitionMatrix
from .errors import DimensionMismatch, InvalidParameter
from .spectral import SpectralDecomposition, spectral_decomposition

# Coefficient differences below this fraction of the coefficient vector's
# norm are projection noise (the computed eigenbasis is orthonormal only to
# machine precision) and are zeroed, so a pair aligned with one eigenvector
# does not pick up phantom mass on the others.  The induced change in the
# decay is below 1e-24 relative, far inside every stated tolerance.
COEFF_FLOOR_REL = 1e-12

# delta_curve takes Delta(t) from t products of P above PRODUCT_MIN_D states
# for horizons up to d / 4: one step costs 2 d^2 flops against about 9 d^3
# for eigh, a break-even measured at t = 0.5-1.7 d (d = 800 and 1600, 2-core
# x86-64).  It keeps the products only where their rounding bound is within
# PRODUCT_TOL relative.
PRODUCT_MIN_D = 256
PRODUCT_TOL = 1e-12


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
    ts, times as `_times` checks them; -inf where Delta(t) = 0.

    Both the largest coefficient m = max_i |diff_i| and the slowest live rate
    r of the pair are factored out,
    Delta(t) = m^2 r^{2t} sum_i (|lam_i| / r)^{2t} (diff_i / m)^2, so no term
    of the remaining sum overflows, and the sum is at least the squared
    coefficient of a slowest mode: the logarithm stays finite where
    lam^{2t} or Delta(t) itself leaves the float range.  (|lam| / r)^{2t} is
    evaluated as exp(t (2 ln|lam| - 2 ln r)), so no 2t overflows near the
    float limit; dead modes count only at t = 0.
    """
    ts = np.asarray(ts, dtype=float)
    lam = np.abs(S.eigenvalues[1:])
    m = np.abs(diff[1:]).max(initial=0.0) or 1.0  # any scale where every diff_i is 0
    c2 = (diff[1:] / m) ** 2
    live = (lam > 0.0) & (c2 > 0.0)
    log_rate = np.log(lam, out=np.full(lam.size, -np.inf), where=live)
    top = log_rate.max() if live.any() else 0.0
    with np.errstate(invalid="ignore", over="ignore"):  # modes not live, at t = 0: 0 * -inf; past the float range: -inf
        weights = np.multiply.outer(ts, 2.0 * (log_rate - top))
    np.exp(weights, out=weights)
    weights[ts == 0.0] = 1.0
    weights *= c2
    with np.errstate(divide="ignore", over="ignore"):  # a sum of 0, or t (2 ln r) past the float range: Delta(t) = 0
        return 2.0 * math.log(m) + ts * (2.0 * top) + np.log(np.sum(weights, axis=1))


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # z / pi past the float range, or Delta(t) = 0: fails
def _product_deltas(P: TransitionMatrix, mu, mu_prime, ts: np.ndarray) -> np.ndarray | None:
    """Delta(t) = z P^t . (z P^t / pi) at every t in ts (checked by `_times`),
    for z = mu - mu' less its component along pi, the eigenvector of
    eigenvalue 1; None unless every value is within PRODUCT_TOL of the exact
    one, relative.

    Each step is one product z P.  With k the most nonzeros in a column of
    P, the computed z P^t is within e sqrt(Delta(0)) of the exact one in the
    norm ||x||_pi = sqrt(x . (x / pi)), for e = (t k + 2) 2^-53: each step
    adds the dot-product bound gamma_k of a nonnegative P of norm 1 in that
    norm (Higham, Accuracy and Stability of Numerical Algorithms, sec. 3.1),
    and forming z adds two roundings.  So the relative error of Delta(t) is
    at most 2 e r + e^2 r^2 at r = sqrt(Delta(0) / Delta(t)).
    """
    pi = P._pi.mass
    z = mu.mass - mu_prime.mass
    z -= z.sum() * pi
    delta_0 = z @ (z / pi)
    deltas = np.empty(ts.size)
    steps = 0
    for i in np.argsort(ts, kind="stable"):
        while steps < ts[i]:
            z = z @ P.entries
            steps += 1
        deltas[i] = z @ (z / pi)
    e = (ts * np.count_nonzero(P.entries, axis=0).max() + 2) * 2.0**-53
    r2 = delta_0 / deltas
    return deltas if np.all(2.0 * e * np.sqrt(r2) + e * e * r2 <= PRODUCT_TOL) else None


def delta_curve(P: TransitionMatrix, mu: Distribution, mu_prime: Distribution, ts) -> np.ndarray:
    """Delta(t) = ||mu P^t - mu' P^t||_pi^2 for every t in ts.

    On a chain of more than PRODUCT_MIN_D states with every t at most d / 4,
    from t products of P where their rounding bound holds; otherwise from one
    coefficient_diff projection, at O(d) per t.  The choice reads only P.d
    and ts, never the decomposition cache.  Delta(t) is inf past the float
    range; it does not increase with t, because every |lam_i| <= 1.
    """
    if mu.d != P.d or mu_prime.d != P.d:
        raise DimensionMismatch("distribution / chain size mismatch")
    ts = _times(ts)
    if P.d > PRODUCT_MIN_D and 4 * ts.max(initial=0.0) <= P.d:
        deltas = _product_deltas(P, mu, mu_prime, ts)
        if deltas is not None:
            return deltas
    S = spectral_decomposition(P)
    with np.errstate(over="ignore"):
        return np.exp(_log_deltas(coefficient_diff(mu, mu_prime, S), S, ts))

"""Instance sample-complexity bounds for testing the initial distribution.

Given a reversible chain P and two candidates mu, mu', the number of i.i.d.
observations after t steps needed to tell them apart scales as 1/Delta(t)
with Delta(t) = ||mu P^t - mu' P^t||_pi^2.  This module provides:

- the explicit upper threshold ceil(16 eps^{-5/2} ln(1/delta) / Delta(t)) at
  which the likelihood-ratio test has error below delta, under the pairwise
  eps-bounded likelihood-ratio hypothesis;
- the matching impossibility threshold floor(8 eps delta^2 / Delta(t)) below
  which every test errs with probability at least 1/2 - delta;
- a hypothesis-free upper threshold via centered distributions;
- constructors for the extreme pairs pi +- alpha u_[2] / pi +- alpha u_[d]
  whose complexities bracket the statistical window;
- the window ratio over a grid of times, and the crossing time at which each
  of a grid of sample sizes stops sufficing.

Delta(t) itself comes from `geometry`; this module only consumes it.  All
logarithms are natural.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .chain import Distribution, TransitionMatrix, _check_count, _check_step
from .errors import DimensionMismatch, Infeasible, InvalidParameter, UndefinedWindow
from .geometry import _log_deltas, _times, coefficient_diff, delta_curve
from .spectral import SpectralDecomposition, spectral_decomposition

DEFAULT_ETA = 0.75

# Relative slack when deciding that n * Delta(t) has crossed a threshold, so
# exact boundary cases (n * Delta(t) mathematically equal to the threshold)
# count as crossed instead of depending on rounding direction.
CROSSING_SLACK = 1e-12

# Times 0, 1, 2, 4, ..., 2^50 on which statistical_time brackets its crossing.
# Every |lambda| < 1 lies below 1 - UNIT_SNAP_TOL = 1 - 1e-12 (closer ones are
# snapped to +-1), so at t = 2^50 its share of Delta(t) is exactly 0.0, in the
# sum or the factor r^{2t} of `_log_deltas`: 2 * 2^50 * 1e-12 ~ 2252 exceeds
# 745.2, where exp underflows.  Delta(2^50) is then the float limit of the
# curve, held by |lambda| = 1 modes alone: not crossed by 2^50, never crossed.
CROSSING_GRID = [0] + [1 << k for k in range(51)]


def bounded_lr_epsilon(mu: Distribution, mu_prime: Distribution) -> float:
    """Largest eps with eps <= mu_x / mu'_x <= 1/eps for all x.

    Equals min_x min(mu_x/mu'_x, mu'_x/mu_x); 0 if the supports differ.
    States where both masses are zero impose no constraint.
    """
    if mu.d != mu_prime.d:
        raise DimensionMismatch(f"distributions have {mu.d} and {mu_prime.d} states")
    p, q = mu.mass, mu_prime.mass
    if np.any((p == 0) != (q == 0)):
        return 0.0
    on = p > 0
    ratios = p[on] / q[on]
    return float(min(ratios.min(), 1.0 / ratios.max()))


def pairwise_epsilon(mu: Distribution, mu_prime: Distribution, pi: Distribution) -> float:
    """Smallest bounded-likelihood-ratio eps over the three pairs of {mu, mu', pi}."""
    return min(
        bounded_lr_epsilon(mu, mu_prime),
        bounded_lr_epsilon(mu, pi),
        bounded_lr_epsilon(mu_prime, pi),
    )


@dataclass(frozen=True, eq=False)
class TestingInstance:
    """A testing problem: which of mu, mu' was the initial distribution,
    observed through t steps of the reversible chain.  Validating it takes
    the chain's reversibility verdict and pi (no Q, no eigh), which delta()
    and the decomposition reuse."""

    __test__ = False  # not a pytest class, despite the name

    chain: TransitionMatrix
    mu: Distribution
    mu_prime: Distribution
    t: int

    def __post_init__(self):
        if self.mu.d != self.chain.d or self.mu_prime.d != self.chain.d:
            raise DimensionMismatch("distribution / chain size mismatch")
        object.__setattr__(self, "t", _check_step(self.t))
        self.chain._pi  # NotReversible unless the chain is reversible

    @property
    def decomposition(self) -> SpectralDecomposition:
        return spectral_decomposition(self.chain)

    @property
    def stationary(self) -> Distribution:
        return self.chain._pi

    def delta(self) -> float:
        """Decay Delta(t) = ||mu P^t - mu' P^t||_pi^2 at this instance's t, as
        `complexity` takes it; computed on the first call and kept."""
        return self._delta

    @functools.cached_property
    def _delta(self) -> float:
        return float(delta_curve(self.chain, self.mu, self.mu_prime, [self.t])[0])


def _thresholds(numerator: float, deltas: np.ndarray, rounding, name: str = "epsilon") -> list:
    """rounding (np.ceil or np.floor) of numerator / Delta(t) at every
    Delta(t) in deltas, as exact Python ints; inf where Delta(t) = 0 or the
    ratio overflows.  An upper threshold (np.ceil) is at least 1, as no test
    decides on 0 samples, also where Delta(t) = inf makes the ratio 0.
    InvalidParameter, naming the parameter that set the numerator, where
    both are inf: the ratio is then not known."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = numerator / deltas
    if math.isinf(numerator) and np.isinf(deltas).any():
        raise InvalidParameter(f"--{name} is so small that the threshold's numerator and Delta(t) both lie "
                               "past the float range, so the threshold cannot be computed")
    ratio[deltas == 0.0] = math.inf
    counts = rounding(ratio)
    if rounding is np.ceil:
        np.maximum(counts, 1.0, out=counts)
    return [int(x) if x != math.inf else x for x in counts.tolist()]


def _check_unit(**params: float) -> None:
    """Raise InvalidParameter unless every named parameter lies in (0, 1)."""
    for name, value in params.items():
        if not 0.0 < value < 1.0:
            raise InvalidParameter(f"{name} must lie in (0, 1), got {value!r}")


# Numerators of the three thresholds; callers check their parameters, except
# that _impossibility_scale checks delta and decides whether eps is usable.
# numpy's ** gives inf where Python's raises (past the float range, or of 0.0).
@np.errstate(over="ignore", divide="ignore")
def _upper_scale(epsilon: float, delta: float) -> float:
    return 16.0 * np.float64(epsilon) ** -2.5 * math.log(1.0 / delta)


def _impossibility_scale(epsilon: float, delta: float) -> float | None:
    """8 eps delta^2 if thresholds can use eps (iff 0 < eps < 1), else None; checks delta."""
    _check_unit(delta=delta)
    return 8.0 * epsilon * delta**2 if 0.0 < epsilon < 1.0 else None


@np.errstate(over="ignore", divide="ignore")
def _general_upper_scale(delta: float, eta: float) -> float:
    return 16.0 * np.float64(eta / 3.0) ** -2.5 / (1.0 - eta) * math.log(1.0 / delta)


def sample_upper_bound(inst: TestingInstance, epsilon: float, delta: float) -> int | float:
    """Samples at which the likelihood-ratio test has error below delta:
    ceil(16 eps^{-5/2} ln(1/delta) / Delta(t)); inf if Delta(t) = 0.

    Requires the pairwise eps-bounded hypothesis on (mu, mu', pi), which the
    caller can verify via pairwise_epsilon.
    """
    _check_unit(epsilon=epsilon, delta=delta)
    return _thresholds(_upper_scale(epsilon, delta), np.array([inst.delta()]), np.ceil)[0]


def sample_lower_bound(inst: TestingInstance, epsilon: float, delta: float) -> int | float:
    """Samples below which every test errs with probability >= 1/2 - delta:
    floor(8 eps delta^2 / Delta(t)); inf if Delta(t) = 0."""
    _check_unit(epsilon=epsilon, delta=delta)
    return _thresholds(_impossibility_scale(epsilon, delta), np.array([inst.delta()]), np.floor)[0]


def general_upper_bound(
    inst: TestingInstance, delta: float, eta: float = DEFAULT_ETA
) -> int | float:
    """Upper threshold without any bounded-likelihood-ratio hypothesis.

    Centering both candidates toward beta = (mu + mu' + pi)/3 with weight eta
    yields an (eta/3)-bounded pair whose pi-distance shrinks by (1 - eta), so
    the error of the likelihood-ratio test is below delta once
    n >= 16 (eta/3)^{-5/2} (1 - eta)^{-1} ln(1/delta) / Delta(t).
    """
    _check_unit(delta=delta, eta=eta)
    return _thresholds(_general_upper_scale(delta, eta), np.array([inst.delta()]), np.ceil, "eta")[0]


@dataclass(frozen=True, eq=False)
class ExtremePairs:
    """The two aligned pairs bracketing the statistical window.

    (mu, mu_prime) = pi +- alpha u_[2] decays at the slowest rate lambda_[2];
    (gamma, gamma_prime) = pi +- alpha u_[d] decays at the fastest rate
    lambda_[d].  Both share the same alpha, so both have the same initial
    difficulty Delta(0) = 4 alpha^2.
    """

    mu: Distribution
    mu_prime: Distribution
    gamma: Distribution
    gamma_prime: Distribution
    alpha: float
    lambda_2: float
    lambda_d: float
    multiplicity_2: int
    multiplicity_d: int

    @property
    def pair_a(self) -> tuple[Distribution, Distribution]:
        return self.mu, self.mu_prime

    @property
    def pair_b(self) -> tuple[Distribution, Distribution]:
        return self.gamma, self.gamma_prime


def _alignment_limit(u: np.ndarray, pi: np.ndarray) -> float:
    """Largest alpha keeping pi +- alpha u nonnegative."""
    scale = float(np.max(np.abs(u)))
    active = np.abs(u) > 1e-14 * scale
    return float(np.min(pi[active] / np.abs(u[active])))


def extreme_pairs(P: TransitionMatrix, epsilon_target: float) -> ExtremePairs:
    """Aligned pairs pi +- alpha u_[2] and pi +- alpha u_[d], feasibly scaled.

    alpha is the largest value (times a 0.999 safety factor) such that all
    four perturbed vectors are distributions and both triples (pair, pi) are
    pairwise epsilon_target-bounded.  For eigenvalues with multiplicity the
    deterministic eigensolver's basis vector is used; multiplicities are
    reported alongside.
    """
    if not math.isfinite(epsilon_target) or epsilon_target < 0.0:
        raise InvalidParameter(f"epsilon_target must be finite and nonnegative, got {epsilon_target!r}")
    if epsilon_target >= 1.0:
        raise Infeasible(f"epsilon_target must be < 1, got {epsilon_target!r}")
    S = spectral_decomposition(P)
    if S.d < 3:
        raise InvalidParameter("extreme pairs need d >= 3")
    pi = S.stationary.mass
    u2 = S.left_by_abs_rank(2)
    ud = S.left_by_abs_rank(S.d)

    # The binding ratio constraint is within-pair: (1 + rho)/(1 - rho) <= 1/eps
    # at rho = alpha |u_x| / pi_x, i.e. rho <= (1 - eps)/(1 + eps); the
    # pair-vs-pi constraint rho <= 1 - eps and nonnegativity rho <= 1 are weaker.
    factor = (1.0 - epsilon_target) / (1.0 + epsilon_target)
    alpha = 0.999 * factor * min(_alignment_limit(u2, pi), _alignment_limit(ud, pi))

    return ExtremePairs(
        mu=Distribution(pi + alpha * u2),
        mu_prime=Distribution(pi - alpha * u2),
        gamma=Distribution(pi + alpha * ud),
        gamma_prime=Distribution(pi - alpha * ud),
        alpha=alpha,
        lambda_2=S.eigenvalue_by_abs_rank(2),
        lambda_d=S.eigenvalue_by_abs_rank(S.d),
        multiplicity_2=S.abs_multiplicity(2),
        multiplicity_d=S.abs_multiplicity(S.d),
    )


def statistical_window(P: TransitionMatrix, pair_a: tuple[Distribution, Distribution],
                       pair_b: tuple[Distribution, Distribution], ts) -> np.ndarray:
    """Complexity ratio of pair A over pair B at every t in ts, normalized to
    1 at t = 0, from one projection of each pair.

    Equals (Delta_A(t) / Delta_B(t)) * (Delta_B(0) / Delta_A(0)); since
    sample complexity scales as 1/Delta, this is the factor by which testing
    pair B has become harder relative to pair A.  For the extreme pairs it
    equals (lambda_[2] / lambda_[d])^{2t}.  Computed as exp of the difference
    of the pairs' ln(Delta(t) / Delta(0)), so lambda^{2t} cannot underflow;
    inf when pair B has fully decayed while pair A has not, or on overflow.
    """
    S = spectral_decomposition(P)
    times = np.concatenate(([0.0], _times(ts)))
    log_a, log_b = (_log_deltas(coefficient_diff(mu, mu_prime, S), S, times) for mu, mu_prime in (pair_a, pair_b))
    if np.isneginf(log_a[0]) or np.isneginf(log_b[0]):
        raise InvalidParameter("both pairs must differ at t = 0")
    undefined = np.isneginf(log_a) & np.isneginf(log_b)
    if np.any(undefined):
        raise UndefinedWindow(f"both pairs have fully decayed at t = {int(times[undefined][0])}")
    with np.errstate(over="ignore"):
        return np.exp((log_a[1:] - log_a[0]) - (log_b[1:] - log_b[0]))


def _check_crossing(ns, threshold) -> list[int]:
    """statistical_time's sizes ns as ints, each from 1 to the largest float, and its threshold > 0 unless None."""
    top = sys.float_info.max
    ns = [_check_count(n, 1, f"n must be a positive integer, got {n!r}", top, f"n must be at most {top!r}, got {n!r}")
          for n in ns]
    if threshold is not None and not threshold > 0.0:
        raise InvalidParameter(f"threshold must be positive, got {threshold!r}")
    return ns


@np.errstate(over="ignore")  # a Delta(t) or n Delta(t) beyond the float range is inf: not crossed
def statistical_time(P: TransitionMatrix, mu: Distribution, mu_prime: Distribution, ns, threshold: float) -> list:
    """For each sample size n in ns (an integer from 1 to the largest float),
    the smallest t at which n * Delta(t) crosses below the threshold, from one
    projection of mu - mu'.

    This is the time at which a sample of size n stops sufficing at the
    impossibility scale set by the threshold (a boundary hit counts as
    crossed); inf when the pair's mass on eigenvalues of absolute value 1
    keeps n * Delta(t) above the threshold for all t.
    Delta(t) does not increase with t, so the first time 2^k among 0, 1, 2,
    4, ..., 2^50 at which n * Delta(t) crosses brackets t* in (2^{k-1}, 2^k]:
    one evaluation on CROSSING_GRID brackets every n, then the open ones
    bisect together, one evaluation per level.  A curve that has not crossed
    by 2^50 never crosses (see CROSSING_GRID).
    """
    ns = _check_crossing(ns, threshold)
    S = spectral_decomposition(P)
    diff = coefficient_diff(mu, mu_prime, S)
    bar = threshold * (1.0 + CROSSING_SLACK)
    curve = np.exp(_log_deltas(diff, S, CROSSING_GRID))
    if curve[0] == 0.0:
        raise InvalidParameter("mu and mu_prime must differ at t = 0")
    sizes = np.array(ns, dtype=float)
    crossed = np.multiply.outer(sizes, curve) <= bar
    ever = crossed.any(axis=1)
    hi = np.array(CROSSING_GRID)[crossed.argmax(axis=1)]
    lo = hi // 2  # not crossed at lo, crossed at hi (lo = hi = 0 if crossed at 0)
    while (open_ := np.flatnonzero(ever & (hi - lo > 1))).size:
        mid = (lo[open_] + hi[open_]) // 2
        below = sizes[open_] * np.exp(_log_deltas(diff, S, mid)) <= bar
        hi[open_[below]] = mid[below]
        lo[open_[~below]] = mid[~below]
    return [t if e else math.inf for t, e in zip(hi.tolist(), ever.tolist())]


@dataclass(frozen=True)
class ComplexityReport:
    """Per-time summary of the instance difficulty and sample thresholds."""

    delta_t: float
    epsilon: float | None
    n_upper: int | float
    n_lower: int | float
    n_star_scale: float
    t: int
    eigen_summary: dict

    def to_json_dict(self) -> dict:
        """The fields by name; shallow, as dataclasses.asdict deep-copies (slow per row)."""
        return dict(vars(self))


def complexity_report(
    inst: TestingInstance, epsilon: float | None, delta: float, eta: float = DEFAULT_ETA
) -> ComplexityReport:
    """Bundle Delta(t), both thresholds, and the 1/Delta(t) scale.

    epsilon = None measures the pairwise bounded-likelihood-ratio parameter of
    (mu, mu', pi); an explicit value is used as given.  When no usable
    parameter exists (support mismatch gives 0), the report carries
    epsilon = None, the upper threshold comes from the hypothesis-free
    centered bound at the given eta, and the lower threshold is the vacuous
    0.  All three thresholds are inf exactly when Delta(t) = 0.  Where
    Delta(t) = inf (past the float range), n_upper is 1, n_lower 0 and
    n_star_scale 0.  Delta(t) is inst.delta(), as in the three bounds.
    """
    _check_unit(delta=delta, eta=eta)  # before any solve
    if epsilon is None:
        epsilon = pairwise_epsilon(inst.mu, inst.mu_prime, inst.stationary)
    columns = _complexity_columns([inst.t], np.array([inst.delta()]), epsilon, delta, eta)
    columns["eigen_summary"] = [_eigen_summary(inst.decomposition)]
    return ComplexityReport(**{field: column[0] for field, column in columns.items()})


def _complexity_columns(ts, deltas, epsilon, delta, eta) -> dict[str, list]:
    """complexity_report's fields but eigen_summary at every t in ts, one
    list per field, for the Delta(t) values deltas and a given eps.  Every
    row reports the usable eps (0 < eps < 1) or None; with none usable, the
    upper threshold is the centered bound at eta and the lower one 0."""
    _check_unit(delta=delta, eta=eta)
    lower = _impossibility_scale(epsilon, delta)
    if lower is None:
        n_upper = _thresholds(_general_upper_scale(delta, eta), deltas, np.ceil, "eta")
        n_lower = _thresholds(0.0, deltas, np.floor)  # 0, inf where Delta(t) = 0
    else:
        n_upper = _thresholds(_upper_scale(epsilon, delta), deltas, np.ceil)
        n_lower = _thresholds(lower, deltas, np.floor)
    with np.errstate(divide="ignore", over="ignore"):
        scale = 1.0 / deltas
    return {
        "delta_t": deltas.tolist(),
        "epsilon": [None if lower is None else epsilon] * len(ts),
        "n_upper": n_upper,
        "n_lower": n_lower,
        "n_star_scale": scale.tolist(),
        "t": list(ts),
    }


def _eigen_summary(S: SpectralDecomposition) -> dict:
    """complexity_report's eigen_summary: d, and |lambda| and its multiplicity at ranks 2 and d."""
    return {"d": S.d, "lambda_abs_2": abs(S.eigenvalue_by_abs_rank(2)),
            "lambda_abs_d": abs(S.eigenvalue_by_abs_rank(S.d)),
            "multiplicity_2": S.abs_multiplicity(2), "multiplicity_d": S.abs_multiplicity(S.d)}

"""Sampling from evolved distributions, the likelihood-ratio test, and
empirical error-probability estimation.

The likelihood-ratio statistic reads only the histogram of a sample, so
sampling draws the histogram directly: one multinomial draw of n over the
d states, in O(d) time whatever n is.  Error estimation walks the trials in
fixed blocks of TRIAL_BLOCK; each (hypothesis, block) draws its count matrix
from its own generator keyed by (seed, hypothesis, block index), so the
result is independent of block execution order and of the worker count.
"""

from __future__ import annotations

import enum
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .chain import Distribution, evolve
from .complexity import TestingInstance, pairwise_epsilon, sample_lower_bound
from .divergences import (
    enumeration_feasible,
    exact_lr_error,
    exact_product_tv,
    kl_divergence,
)
from .errors import DimensionMismatch, InvalidParameter

MAX_SEED = 2**64
# Trials per count matrix.  Part of the seeded stream: changing it changes
# every seeded estimate (in value, not in law).
TRIAL_BLOCK = 1024


class Decision(enum.Enum):
    MU = "mu"
    MU_PRIME = "mu_prime"


@dataclass(frozen=True, eq=False)
class Sample:
    """Histogram of n i.i.d. draws over d states."""

    counts: np.ndarray
    n: int

    def __post_init__(self):
        raw = np.asarray(self.counts)
        integral = raw.dtype.kind != "f" or np.all(np.isfinite(raw) & (raw == np.trunc(raw)))
        if raw.ndim != 1 or not integral or np.any(raw < 0):
            raise InvalidParameter("counts must be a vector of nonnegative integers")
        arr = np.array(raw, dtype=np.int64)
        arr.setflags(write=False)
        if int(arr.sum()) != self.n:
            raise InvalidParameter(f"counts sum to {int(arr.sum())}, expected n = {self.n}")
        object.__setattr__(self, "counts", arr)


@dataclass(frozen=True)
class ErrorEstimate:
    """Empirical error probabilities of the likelihood-ratio test."""

    err_mu: float
    err_mu_prime: float
    err_max: float
    trials: int
    ci_halfwidth: float
    n: int
    t: int
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "err_mu": self.err_mu,
            "err_mu_prime": self.err_mu_prime,
            "err_max": self.err_max,
            "trials": self.trials,
            "ci_halfwidth": self.ci_halfwidth,
            "n": self.n,
            "t": self.t,
            "seed": self.seed,
        }


def _check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or not 0 <= int(seed) < MAX_SEED:
        raise InvalidParameter(f"seed must be a 64-bit unsigned integer, got {seed!r}")
    return int(seed)


def _draw_counts(key, mass: np.ndarray, n: int, size: int | None = None) -> np.ndarray:
    """Histogram of n i.i.d. draws from `mass` (a `(size, d)` matrix of them
    when `size` is given), from the generator seeded by `key`."""
    return np.random.default_rng(key).multinomial(n, mass / mass.sum(), size=size)


def draw_sample(mu_t: Distribution, n: int, seed: int) -> Sample:
    """n i.i.d. draws from mu_t, as a histogram.

    Draws the histogram as one multinomial vector, which has the law of n
    categorical draws.  Deterministic given (mu_t, n, seed).
    """
    if n < 1 or n != int(n):
        raise InvalidParameter(f"n must be a positive integer, got {n!r}")
    counts = _draw_counts(_check_seed(seed), mu_t.mass, int(n))
    return Sample(counts=counts, n=int(n))


def _lr_rows(counts: np.ndarray, n: int, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The statistic of `lr_statistic` for each row of an (m, d) count matrix
    whose rows sum to n."""
    joint = (p > 0.0) & (q > 0.0)
    log_ratio = np.zeros(p.size)
    log_ratio[joint] = np.log(p[joint] / q[joint])
    stat = (counts @ log_ratio) / n
    outside_p = np.any(counts[:, p == 0.0] > 0, axis=1)
    outside_q = np.any(counts[:, q == 0.0] > 0, axis=1)
    stat[outside_q] = math.inf
    stat[outside_p] = -math.inf
    stat[outside_p & outside_q] = 0.0
    return stat


def lr_statistic(s: Sample, mu_t: Distribution, mu_prime_t: Distribution) -> float:
    """Empirical log-likelihood ratio sum_x (counts_x / n) ln(mu_t,x / mu'_t,x).

    A counted state outside the support of one hypothesis forces the decision
    and is reported as an infinite statistic of the corresponding sign; a
    sample impossible under both hypotheses yields 0 (and thus the tie rule).
    """
    if s.counts.size != mu_t.d or mu_t.d != mu_prime_t.d:
        raise DimensionMismatch("sample / distribution size mismatch")
    return float(_lr_rows(s.counts[None, :], s.n, mu_t.mass, mu_prime_t.mass)[0])


def lr_test(s: Sample, mu_t: Distribution, mu_prime_t: Distribution) -> Decision:
    """Likelihood-ratio decision: MU iff the statistic is positive, MU_PRIME
    on ties (statistic <= 0)."""
    stat = lr_statistic(s, mu_t, mu_prime_t)
    return Decision.MU if stat > 0.0 else Decision.MU_PRIME


def estimate_error(
    inst: TestingInstance, n: int, trials: int, seed: int, workers: int = 1
) -> ErrorEstimate:
    """Monte Carlo estimate of the maximum error of the likelihood-ratio test.

    Runs `trials` independent experiments under each hypothesis: the true
    initial distribution is evolved once, a size-n sample is drawn from the
    evolved distribution (equivalent in law to simulating trajectories), and
    the test is applied.  Trials run in blocks of TRIAL_BLOCK, one count
    matrix per (hypothesis, block) from a generator keyed by
    (seed, hypothesis, block index); `workers` threads share the blocks.
    Deterministic given (inst, n, trials, seed), regardless of `workers`.
    """
    if trials < 100:
        raise InvalidParameter(f"need at least 100 trials, got {trials}")
    if n < 1 or n != int(n):
        raise InvalidParameter(f"n must be a positive integer, got {n!r}")
    seed = _check_seed(seed)
    n = int(n)
    workers = max(1, int(workers))

    p = evolve(inst.mu, inst.chain, inst.t).mass
    q = evolve(inst.mu_prime, inst.chain, inst.t).mass

    def count_errors(hypothesis: int, block: int) -> int:
        size = min(TRIAL_BLOCK, trials - block * TRIAL_BLOCK)
        counts = _draw_counts((seed, hypothesis, block), (p, q)[hypothesis], n, size)
        stat = _lr_rows(counts, n, p, q)
        # The test decides mu iff the statistic is positive.
        wrong = stat <= 0.0 if hypothesis == 0 else stat > 0.0
        return int(np.count_nonzero(wrong))

    blocks = [(h, b) for h in (0, 1) for b in range(-(-trials // TRIAL_BLOCK))]
    if workers == 1:
        results = [count_errors(*hb) for hb in blocks]
    else:
        with ThreadPoolExecutor(max_workers=min(workers, len(blocks))) as pool:
            results = list(pool.map(lambda hb: count_errors(*hb), blocks))
    per_hypothesis = [0, 0]
    for (hypothesis, _), errors in zip(blocks, results):
        per_hypothesis[hypothesis] += errors

    err_mu = per_hypothesis[0] / trials
    err_mu_prime = per_hypothesis[1] / trials
    err_max = max(err_mu, err_mu_prime)
    ci = 1.96 * math.sqrt(err_max * (1.0 - err_max) / trials)
    return ErrorEstimate(
        err_mu=err_mu,
        err_mu_prime=err_mu_prime,
        err_max=err_max,
        trials=trials,
        ci_halfwidth=ci,
        n=n,
        t=inst.t,
        seed=seed,
    )


@dataclass(frozen=True)
class LowerBoundWitness:
    """Concrete check that the impossibility threshold really is impossible.

    mode is "exact" (full enumeration), "pinsker" (enumeration over budget;
    the total variation is bounded via Pinsker + tensorization instead),
    "vacuous" (the threshold is below one sample), or "impossible"
    (Delta(t) = 0, so no sample size works).
    """

    n: int | float
    epsilon: float
    delta: float
    delta_t: float
    error_floor: float
    mode: str
    exact_tv: float | None = None
    exact_lr_err: float | None = None
    tv_bound_holds: bool | None = None
    lr_bound_holds: bool | None = None
    pinsker_tv_bound: float | None = None


def lower_bound_witness(inst: TestingInstance, delta: float) -> LowerBoundWitness:
    """Verify the impossibility threshold on an enumerable instance.

    Computes n = floor(8 eps delta^2 / Delta(t)) at the instance's measured
    pairwise eps.  If n >= 1 and d^n fits the enumeration budget, checks that
    the exact maximum error of the likelihood-ratio rule and the exact bound
    (1 - d_TV(product))/2 both reach the floor 1/2 - delta.  Falls back to
    the Pinsker + tensorization certificate when enumeration is too large.
    """
    if not 0.0 < delta < 1.0:
        raise InvalidParameter(f"delta must lie in (0, 1), got {delta!r}")
    eps = pairwise_epsilon(inst.mu, inst.mu_prime, inst.stationary)
    delta_t = inst.delta()
    floor_value = 0.5 - delta
    if delta_t == 0.0:
        return LowerBoundWitness(
            n=math.inf, epsilon=eps, delta=delta, delta_t=delta_t,
            error_floor=floor_value, mode="impossible",
        )
    if eps <= 0.0:
        n = 0
    else:
        n = sample_lower_bound(inst, eps, delta)
    if n < 1:
        return LowerBoundWitness(
            n=n, epsilon=eps, delta=delta, delta_t=delta_t,
            error_floor=floor_value, mode="vacuous",
        )

    mu_t = evolve(inst.mu, inst.chain, inst.t)
    mu_prime_t = evolve(inst.mu_prime, inst.chain, inst.t)
    if enumeration_feasible(inst.chain.d, n):
        tv = exact_product_tv(mu_t, mu_prime_t, n)
        lr_err = exact_lr_error(mu_t, mu_prime_t, n)
        return LowerBoundWitness(
            n=n, epsilon=eps, delta=delta, delta_t=delta_t,
            error_floor=floor_value, mode="exact",
            exact_tv=tv, exact_lr_err=lr_err,
            tv_bound_holds=(1.0 - tv) / 2.0 >= floor_value - 1e-12,
            lr_bound_holds=lr_err >= floor_value - 1e-12,
        )
    pinsker = math.sqrt(n * kl_divergence(mu_t, mu_prime_t) / 2.0)
    return LowerBoundWitness(
        n=n, epsilon=eps, delta=delta, delta_t=delta_t,
        error_floor=floor_value, mode="pinsker",
        pinsker_tv_bound=pinsker,
        tv_bound_holds=(1.0 - min(1.0, pinsker)) / 2.0 >= floor_value - 1e-12,
    )

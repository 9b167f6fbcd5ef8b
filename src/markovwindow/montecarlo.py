"""Sampling from evolved distributions, the likelihood-ratio test, and
empirical error-probability estimation.

The likelihood-ratio statistic is a sum of one per-state term per draw: its
two scorers, of histograms and of draws, read each state's log ratio (forced
signs included) and rounding band from one table, `_LRTable`.
`draw_sample` still returns a histogram, drawn directly in O(min(n, d))
time plus the zeroing of its d counts: for n >= d one multinomial draw of n
over the d states, and for n < d the tally of n draws from a Vose alias
table (one uniform column and one coin each).  The two have the same law;
which one runs decides the seeded stream.  `estimate_error` uses the same
two samplers, but for n < d it scores each trial's n alias draws directly,
by gathering their terms, in O(n) time and memory per trial and with no
histogram; its seeded results are those of scoring the tallied draws.
Error estimation walks the trials in fixed blocks of TRIAL_BLOCK, in order
on the calling thread; each (hypothesis, block) draws its samples from its
own generator keyed by (seed, hypothesis, block index), which defines the
seeded stream.
"""

from __future__ import annotations

import collections
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .chain import Distribution, _check_count, _log_ratio, evolve
from .complexity import TestingInstance, _check_unit, complexity_report, pairwise_epsilon
from .divergences import _exact_tv_lr, _kl_gap, _mu_wins_exactly, enumeration_feasible
from .errors import InvalidParameter
from .geometry import coefficient_diff

MAX_SEED = 2**64
# Trials per count matrix.  Part of the seeded stream: changing it changes
# every seeded estimate (in value, not in law).
TRIAL_BLOCK = 1024


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
        """The fields by name; shallow, as dataclasses.asdict deep-copies (slow per row)."""
        return dict(vars(self))


def _check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or not 0 <= int(seed) < MAX_SEED:
        raise InvalidParameter(f"seed must be a 64-bit unsigned integer, got {seed!r}")
    return int(seed)


def _check_run(n, trials, seed) -> tuple[int, int, int]:
    """(n, trials, seed) of an `estimate_error` run, checked in the order trials, n, seed."""
    trials = _check_count(trials, 100, f"need at least 100 trials, got {trials}")
    n = _check_count(n, 1, f"n must be a positive integer, got {n!r}", 2**63 - 1, f"n must be below 2^63, got {n!r}")
    return n, trials, _check_seed(seed)


def _alias_table(mass: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vose's alias table (prob, alias) of mass / mass.sum(): a column i drawn
    uniformly from the d columns yields state i with probability prob[i] and
    state alias[i] otherwise, so state i has probability
    (prob[i] + sum over k with alias[k] = i of (1 - prob[k])) / d."""
    d = mass.size
    scaled = (mass / mass.sum() * d).tolist()
    prob, alias = [1.0] * d, list(range(d))
    # Zero-mass states are paired first: while one is unpaired, the others
    # average above 1 by far more than rounding, so a heavy state is always
    # left to pair it with, and none stays in a probability-1 slot.
    small = [i for i, s in enumerate(scaled) if s == 0.0]
    small += [i for i, s in enumerate(scaled) if 0.0 < s < 1.0]
    large = [i for i, s in enumerate(scaled) if s >= 1.0]
    for i in small:  # a heavy state that drops below 1 joins the queue
        if not large:
            break  # what is left is 1 up to rounding and keeps prob 1
        j = large[-1]
        prob[i], alias[i] = scaled[i], j
        scaled[j] = (scaled[j] + scaled[i]) - 1.0
        if scaled[j] < 1.0:
            small.append(large.pop())
    return np.array(prob), np.array(alias)


def _alias_draws(key, table: tuple[np.ndarray, np.ndarray], n: int, m: int) -> np.ndarray:
    """An (m, n) matrix of i.i.d. states drawn from the alias table
    `table` = (prob, alias), one uniform column and one coin per draw, from
    the generator seeded by `key`."""
    prob, alias = table
    rng = np.random.default_rng(key)
    state = rng.integers(0, prob.size, size=(m, n))
    # state + aliased (alias - state) is alias[state] where the coin says so;
    # the product beats a masked copy, whose branch follows the coin.
    jump = (alias - np.arange(prob.size)).take(state)
    jump *= rng.random((m, n)) >= prob.take(state)
    state += jump
    return state


def _draw_counts(key, mass: np.ndarray, n: int, size: int) -> np.ndarray:
    """A `(size, d)` matrix of histograms of n i.i.d. draws from `mass`, from
    the generator seeded by `key`.

    For n >= d this is one multinomial draw per row.  For n < d it is the
    tally of the `_alias_draws` of the alias table of `mass`, the draws that
    `estimate_error` scores without tallying them."""
    d = mass.size
    if n >= d:
        return np.random.default_rng(key).multinomial(n, mass / mass.sum(), size=size)
    state = _alias_draws(key, _alias_table(mass), n, size)
    state += np.arange(0, size * d, d)[:, None]  # one bincount key per (row, state)
    return np.bincount(state.ravel(), minlength=size * d).reshape(size, d)


def draw_sample(mu_t: Distribution, n: int, seed: int) -> Sample:
    """n i.i.d. draws from mu_t, as a histogram.

    Draws the histogram as one multinomial vector when n >= d, and as the
    tally of n alias-table draws when n < d, in O(min(n, d)) time; both have
    the law of n categorical draws.  Deterministic given (mu_t, n, seed).
    n must be below 2^63: numpy's multinomial takes it as a 64-bit int.
    """
    n = _check_count(n, 1, f"n must be a positive integer, got {n!r}", 2**63 - 1, f"n must be below 2^63, got {n!r}")
    return Sample(counts=_draw_counts(_check_seed(seed), mu_t.mass, n, 1)[0], n=n)


class _LRTable(NamedTuple):
    """Per-state terms of the likelihood-ratio statistic of p against q,
    built once and read by both scorers, `_count_decisions` and
    `_draw_decisions`.

    log_ratio is L_x = ln(p_x / q_x) on the joint support, +inf where only
    q_x = 0, -inf where only p_x = 0 and NaN where both are 0: the sum over
    counted or drawn states is the statistic with its forced signs, or NaN for
    a sample impossible under both.  band is (d + 10) 2^-52 |L_x| (0 where L_x
    is 0 or not finite); its sum over the draws, divided by n, bounds the
    rounding error of the statistic.  For, with u = 2^-53 and log, log1p
    within 2 ulps: where q/2 <= p <= 2q, p - q is exact (Sterbenz) and
    log1p((p - q) / q) has condition <= 1/ln 2, so L_x errs by 5.5u |L_x|;
    where p / q is another finite normal float, |L_x| >= ln 2 and its rounding
    adds u <= 1.5u |L_x| to the 4u |L_x| of log; elsewhere |L_x| > 708 while
    |ln p_x| + |ln q_x| <= 2 * 745, so log(p) - log(q) errs by 9.5u |L_x|.
    A term c_x L_x adds 2u, a sum of m <= d terms (m - 1)u and the division
    by n 2u: at most (d + 13)u sum_x c_x |L_x| / n, below the band's (2d + 20)u."""

    p: np.ndarray
    q: np.ndarray
    log_ratio: np.ndarray
    band: np.ndarray


def _lr_table(p: np.ndarray, q: np.ndarray) -> _LRTable:
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_ratio = np.where((q <= 2.0 * p) & (p <= 2.0 * q), np.log1p((p - q) / q), _log_ratio(p, q))
    band = np.where(np.isfinite(log_ratio), (p.size + 10) * 2.0**-52 * np.abs(log_ratio), 0.0)
    return _LRTable(p=p, q=q, log_ratio=log_ratio, band=band)


def _row_sums(terms: np.ndarray) -> np.ndarray:
    """Row sums of a matrix of `log_ratio` terms.  A row impossible under both
    hypotheses (a NaN term, or +inf and -inf) reads 0, the tie."""
    with np.errstate(invalid="ignore"):
        stat = terms.sum(axis=1)
    stat[np.isnan(stat)] = 0.0
    return stat


def _count_rows(counts: np.ndarray, n: int, table: _LRTable) -> tuple[np.ndarray, np.ndarray]:
    """The likelihood-ratio statistic sum_x (counts_x / n) L_x for each row of
    an (m, d) count matrix whose rows sum to n, and the bound on its rounding
    error, by one matrix
    product over the finite log ratios and the band; where a log ratio is not
    finite, one more product finds the rows it forces, read as `_row_sums` reads them."""
    L = table.log_ratio
    finite = np.isfinite(L)
    stat, band = (counts @ np.column_stack([np.where(finite, L, 0.0), table.band])).T / n
    if not finite.all():
        off_support = np.stack([L == math.inf, L == -math.inf, np.isnan(L)], axis=1, dtype=float)
        plus, minus, neither = (counts @ off_support).T > 0
        stat = np.select([neither | plus & minus, plus, minus], [0.0, math.inf, -math.inf], stat)
    return stat, band


def _decisions(stat: np.ndarray, band: np.ndarray, table: _LRTable, histograms) -> np.ndarray:
    """Whether the likelihood-ratio test decides mu on each row: iff the exact
    statistic is positive.  Rows whose float statistic lies within its
    rounding bound of 0 are decided again exactly on `histograms(rows)`, their
    (state, count) pairs, so an exact tie goes to mu'."""
    decide = stat > 0.0
    near = np.flatnonzero(np.abs(stat) < band)  # infinite statistics are never near
    if near.size:
        decide[near] = _mu_wins_exactly(table.p, table.q, histograms(near))
    return decide


def _count_decisions(counts: np.ndarray, n: int, table: _LRTable) -> np.ndarray:
    """`_decisions` for each row of an (m, d) count matrix whose rows sum to n."""
    return _decisions(*_count_rows(counts, n, table), table, lambda near: [
        [(s, c) for s, c in enumerate(row) if c] for row in counts[near].tolist()])


def _draw_decisions(draws: np.ndarray, n: int, table: _LRTable) -> np.ndarray:
    """`_decisions` for each row of an (m, n) matrix of drawn states, scored
    in O(n) per row by gathering the per-state terms; only the rows near 0
    are tallied.  For n < d the band of `_LRTable` bounds these n-term sums
    as it bounds the d-term ones of `_count_rows`."""
    stat = _row_sums(table.log_ratio.take(draws)) / n
    band = table.band.take(draws).sum(axis=1) / n
    return _decisions(stat, band, table, lambda near: [
        collections.Counter(row).items() for row in draws[near].tolist()])


def estimate_error(
    inst: TestingInstance, n: int, trials: int, seed: int
) -> ErrorEstimate:
    """Monte Carlo estimate of the maximum error of the likelihood-ratio test.

    Runs `trials` independent experiments under each hypothesis: the true
    initial distribution is evolved once, a size-n sample is drawn from the
    evolved distribution (equivalent in law to simulating trajectories), and
    the test is applied.  Trials run in blocks of TRIAL_BLOCK, one sample
    matrix per (hypothesis, block) from a generator keyed by
    (seed, hypothesis, block index).
    For n < d a block is its (size, n) alias draws, scored without a
    histogram, so a trial costs O(n) time and memory.
    Deterministic given (inst, n, trials, seed).
    """
    n, trials, seed = _check_run(n, trials, seed)

    p = evolve(inst.mu, inst.chain, inst.t).mass
    q = evolve(inst.mu_prime, inst.chain, inst.t).mass
    table = _lr_table(p, q)
    aliases = [_alias_table(mass) for mass in (p, q)] if n < p.size else None

    def count_errors(hypothesis: int, block: int) -> int:
        size = min(TRIAL_BLOCK, trials - block * TRIAL_BLOCK)
        key = (seed, hypothesis, block)
        if aliases is None:
            decide = _count_decisions(_draw_counts(key, (p, q)[hypothesis], n, size), n, table)
        else:
            decide = _draw_decisions(_alias_draws(key, aliases[hypothesis], n, size), n, table)
        return int(np.count_nonzero(~decide if hypothesis == 0 else decide))

    blocks = range(-(-trials // TRIAL_BLOCK))
    err_mu = sum(count_errors(0, b) for b in blocks) / trials
    err_mu_prime = sum(count_errors(1, b) for b in blocks) / trials
    err_max = max(err_mu, err_mu_prime)
    ci = 1.96 * math.sqrt(err_max * (1.0 - err_max) / trials)
    return ErrorEstimate(err_mu=err_mu, err_mu_prime=err_mu_prime, err_max=err_max, trials=trials,
                         ci_halfwidth=ci, n=n, t=inst.t, seed=seed)


@dataclass(frozen=True)
class LowerBoundWitness:
    """Concrete check that the impossibility threshold really is impossible.

    mode is "exact" (enumeration of the sample types), "pinsker"
    (enumeration over budget; the total variation is bounded via Pinsker +
    tensorization instead), "vacuous" (the threshold is below one sample), or
    "impossible" (Delta(t) = 0, so no sample size works).
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

    n is the complexity report's n_lower at the instance's measured pairwise
    eps: floor(8 eps delta^2 / Delta(t)), or 0 where eps is not usable.  If n >= 1 and d^n fits the enumeration budget, checks that
    the exact maximum error of the likelihood-ratio rule and the exact bound
    (1 - d_TV(product))/2 both reach the floor 1/2 - delta.  Falls back to
    the Pinsker + tensorization certificate when enumeration is too large.
    """
    _check_unit(delta=delta)
    eps = pairwise_epsilon(inst.mu, inst.mu_prime, inst.stationary)
    report = complexity_report(inst, eps, delta)  # n_lower is 0 where eps is not usable
    delta_t, n = report.delta_t, report.n_lower
    floor_value = 0.5 - delta
    witness = functools.partial(
        LowerBoundWitness, epsilon=eps, delta=delta, delta_t=delta_t, error_floor=floor_value
    )
    if delta_t == 0.0:
        return witness(n=math.inf, mode="impossible")
    if n < 1:
        return witness(n=n, mode="vacuous")

    mu_prime_t = evolve(inst.mu_prime, inst.chain, inst.t)
    if enumeration_feasible(inst.chain.d, n):
        tv, lr_err = _exact_tv_lr(evolve(inst.mu, inst.chain, inst.t), mu_prime_t, n)
        return witness(
            n=n, mode="exact", exact_tv=tv, exact_lr_err=lr_err,
            tv_bound_holds=(1.0 - tv) / 2.0 >= floor_value - 1e-12,
            lr_bound_holds=lr_err >= floor_value - 1e-12,
        )
    S = inst.decomposition  # mu_t - mu'_t from its modes: accurate also below the rounding of evolve
    gap = (S.eigenvalues[1:] ** inst.t * coefficient_diff(inst.mu, inst.mu_prime, S)[1:]) @ S.left_eigenvectors[1:]
    pinsker = math.sqrt(n * _kl_gap(mu_prime_t.mass, gap) / 2.0)
    return witness(
        n=n, mode="pinsker", pinsker_tv_bound=pinsker,
        tv_bound_holds=(1.0 - min(1.0, pinsker)) / 2.0 >= floor_value - 1e-12,
    )

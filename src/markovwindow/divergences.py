"""Divergences between discrete distributions and exact product-space oracles.

All logarithms are natural.  The product oracles are exact references for
testing-error identities at small scale.  Both n-fold products and the
likelihood-ratio decision depend on a sample only through its type, the
histogram of its n draws (the method of types; Cover and Thomas, Elements of
Information Theory, section 11.1).  So the oracles enumerate the
C(n+d-1, n) types, each weighted by its multinomial coefficient, instead of
the d^n outcome tuples, and accumulate probabilities with compensated
summation.  The budget stays d^n <= 1e7.  Ties are decided exactly.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import NamedTuple

import numpy as np

from .chain import Distribution, _check_count
from .errors import BudgetExceeded, DimensionMismatch

ENUMERATION_BUDGET = 10**7


def enumeration_feasible(d: int, n: int) -> bool:
    """Whether d^n outcomes fit the enumeration budget.

    Screens in log space first so astronomically large powers are never
    materialized; the near-boundary region is decided exactly.
    """
    if n * math.log(d) > math.log(ENUMERATION_BUDGET) + 1.0:
        return False
    return d**n <= ENUMERATION_BUDGET


def _paired(mu: Distribution, mu_prime: Distribution):
    if mu.d != mu_prime.d:
        raise DimensionMismatch(f"distributions have {mu.d} and {mu_prime.d} states")
    return mu.mass, mu_prime.mass


def kl_divergence(mu: Distribution, mu_prime: Distribution) -> float:
    """KL = sum mu_x log(mu_x / mu'_x); 0 log(0/q) = 0; +inf off support."""
    p, q = _paired(mu, mu_prime)
    return _kl_gap(q, p - q)


_PHI_SERIES = np.array([(-1) ** j / ((j + 1) * (j + 2)) for j in range(16)])  # of phi(x) / x^2, |x| <= 0.1


def _kl_gap(q: np.ndarray, gap: np.ndarray) -> float:
    """KL(q + gap || q) = sum q_x phi(gap_x / q_x), phi(x) = (1 + x) ln(1 + x) - x,
    where gap sums to 0.  Every term is >= 0 and phi near 0 is its series, so a
    nearly equal pair reads about chi_square / 2, free of the cancellation in
    sum p ln(p / q)."""
    if np.any((q == 0) & (gap > 0)):
        return math.inf
    q, gap = q[q > 0], gap[q > 0]
    p = np.maximum(q + gap, 0.0)
    terms = p * np.log(np.where(p > 0, p / q, 1.0)) - gap  # 0 log 0 = 0
    x = gap / q
    near = np.abs(x) <= 0.1
    terms[near] = q[near] * x[near] ** 2 * np.polynomial.polynomial.polyval(x[near], _PHI_SERIES)
    return float(np.sum(terms))


def chi_square(mu: Distribution, mu_prime: Distribution) -> float:
    """Chi-square divergence sum mu'_x (mu_x / mu'_x - 1)^2; +inf off support."""
    p, q = _paired(mu, mu_prime)
    if np.any((q == 0) & (p > 0)):
        return math.inf
    on = q > 0
    return float(np.sum((p[on] - q[on]) ** 2 / q[on]))


def hellinger_sq(mu: Distribution, mu_prime: Distribution) -> float:
    """Squared Hellinger distance sum (sqrt(mu_x) - sqrt(mu'_x))^2, in [0, 2]."""
    p, q = _paired(mu, mu_prime)
    return float(np.sum((np.sqrt(p) - np.sqrt(q)) ** 2))


_CHUNK = 1 << 16


def _fsum(parts) -> float:
    """Compensated sum of a stream of float arrays (math.fsum of each, then of
    the partial sums)."""
    return math.fsum(math.fsum(part.tolist()) for part in parts)


def _chunks(size: int):
    return (slice(i, i + _CHUNK) for i in range(0, size, _CHUNK))


class _TypeTable(NamedTuple):
    """One row per type (histogram) of n draws; see _type_table."""

    last: np.ndarray  # int32: last state of the sorted outcome tuple
    run: np.ndarray  # int32: how often that last state occurs
    coef: np.ndarray  # int64: multinomial coefficient, the number of outcomes of the type
    pp: np.ndarray  # probability of each outcome of the type under the first product
    qq: np.ndarray  # the same under the second product
    prefixes: tuple  # `last` of the tables for 1, ..., n - 1 draws, for _sorted_outcomes


def _type_table(p: np.ndarray, q: np.ndarray, n: int) -> _TypeTable:
    """The C(n+d-1, n) types of n draws over d states.

    A row stands for the sorted outcome tuple x_1 <= ... <= x_n of its type,
    and rows are in lexicographic order of those tuples.  The rows for r + 1
    draws extend each row for r draws by every state s >= its last state:
    the coefficient gains a factor (r + 1) / (count of s), which divides
    exactly, and the products gain p_s and q_s.  Each product multiplies its
    factors in sorted order, so all outcomes of a type share one float.  The
    caller keeps C(n+d-1, n) <= d^n within the enumeration budget, so
    indices fit int32.
    """
    d = p.size
    last = np.arange(d, dtype=np.int32)
    run = np.ones(d, dtype=np.int32)
    coef = np.ones(d, dtype=np.int64)
    pp, qq = p, q
    prefixes = []
    for r in range(1, n):
        counts = d - last  # children s = last, ..., d - 1 of each row
        starts = np.cumsum(counts, dtype=np.int32) - counts  # first child: s = last
        s = np.repeat(last - starts, counts)
        s += np.arange(s.size, dtype=np.int32)
        pp = np.repeat(pp, counts)
        pp *= p[s]
        qq = np.repeat(qq, counts)
        qq *= q[s]
        head = coef * (r + 1)
        coef = np.repeat(head, counts)
        coef[starts] = head // (run + 1)
        longer = np.ones(s.size, dtype=np.int32)
        longer[starts] = run + 1
        prefixes.append(last)
        last, run = s, longer
    return _TypeTable(last, run, coef, pp, qq, tuple(prefixes))


def _sorted_outcomes(table: _TypeTable, rows: np.ndarray) -> np.ndarray:
    """The sorted outcome tuple of each given row, as a len(rows) x n array."""
    cols = [table.last[rows]]
    for last in reversed(table.prefixes):
        counts = table.prefixes[0].size - last  # the one-draw table has a row per state
        starts = np.cumsum(counts) - counts
        rows = np.searchsorted(starts, rows, side="right") - 1
        cols.append(last[rows])
    return np.column_stack(cols[::-1])


def _types(mu: Distribution, mu_prime: Distribution, n: int):
    """(p, q, type table) of the n-fold products, after the budget check.

    States where mu and mu' agree are lumped into one state of their common
    mass (dropped when that mass is 0).  The likelihood ratio of a sample
    does not depend on how its draws split among those states, so the
    lumped tables give the same decisions, total variation and errors.
    """
    p, q = _paired(mu, mu_prime)
    n = _check_count(n, 1, f"n must be a positive integer, got {n!r}")
    if not enumeration_feasible(mu.d, n):
        raise BudgetExceeded(
            f"{mu.d}^{n} outcomes exceed the enumeration budget {ENUMERATION_BUDGET}"
        )
    same = p == q
    if same.any():
        shared = math.fsum(p[same].tolist())
        p, q = p[~same], q[~same]
        if shared > 0.0:
            p, q = np.append(p, shared), np.append(q, shared)
    if same.all():  # mu = mu', lumped to one state: n draws are one draw of its n-th power
        p, q, n = p**n, q**n, 1
    return p, q, _type_table(p, q, n)


def _decide_mu(p: np.ndarray, q: np.ndarray, table: _TypeTable) -> np.ndarray:
    """Rows whose exact first-product probability strictly exceeds the second's.

    Each float product carries n - 1 roundings: relative 2^-53 each, plus an
    absolute 2^-1075 each where a product falls below 2^-1022, which can only
    happen when the smallest positive factor to the n-th power does.  Rows
    whose products lie within n (2^-52 max + that absolute term) of each
    other are decided again exactly, in integers, from the factors'
    float.as_integer_ratio.
    """
    decide = table.pp > table.qq
    n = len(table.prefixes) + 1
    if n == 1:  # the products are the factors themselves
        return decide
    smallest = min(p[p > 0].min(), q[q > 0].min())
    tiny = 2.0**-1074 if n * math.log2(smallest) < -1021.0 else 0.0
    near = []
    for c in _chunks(decide.size):
        a, b = table.pp[c], table.qq[c]
        band = np.maximum(a, b)
        band *= 2.0**-52
        band += tiny
        band *= n
        near.append(np.flatnonzero(np.abs(a - b) < band) + c.start)
    rows = np.concatenate(near)
    if rows.size:
        histograms = [Counter(outcome).items() for outcome in _sorted_outcomes(table, rows).tolist()]
        decide[rows] = _mu_wins_exactly(p, q, histograms)
    return decide


def _mu_wins_exactly(p: np.ndarray, q: np.ndarray, histograms) -> list[bool]:
    """For each histogram, a collection of (state, count) pairs, whether
    prod p_s^count strictly exceeds prod q_s^count, in integers from the
    floats' as_integer_ratio.  An exact tie gives False, the decision mu'."""
    ratios = [(x.as_integer_ratio(), y.as_integer_ratio()) for x, y in zip(p.tolist(), q.tolist())]
    lhs = [a * dy for (a, dx), (b, dy) in ratios]  # p_s and q_s over one denominator
    rhs = [b * dx for (a, dx), (b, dy) in ratios]
    return [
        math.prod(lhs[s] ** c for s, c in h) > math.prod(rhs[s] ** c for s, c in h)
        for h in histograms
    ]


def _tv(table: _TypeTable) -> float:
    """sum over types of coef (pp - qq) where pp > qq, which is d_TV."""

    def parts():
        for c in _chunks(table.pp.size):
            diff = table.pp[c] - table.qq[c]
            diff *= table.coef[c]
            yield np.compress(diff > 0.0, diff)

    return _fsum(parts())


def _lr(p: np.ndarray, q: np.ndarray, table: _TypeTable) -> float:
    """max(P_mu(output mu'), P_mu'(output mu)) of the likelihood-ratio rule."""
    decide = _decide_mu(p, q, table)
    keep = ~decide
    chunks = list(_chunks(decide.size))
    err_mu = _fsum(np.compress(keep[c], table.coef[c] * table.pp[c]) for c in chunks)
    err_mu_prime = _fsum(np.compress(decide[c], table.coef[c] * table.qq[c]) for c in chunks)
    return max(err_mu, err_mu_prime)


def _exact_tv_lr(mu: Distribution, mu_prime: Distribution, n: int) -> tuple[float, float]:
    """(exact_product_tv, exact_lr_error) from one type table."""
    p, q, table = _types(mu, mu_prime, n)
    return _tv(table), _lr(p, q, table)


def exact_product_tv(mu: Distribution, mu_prime: Distribution, n: int) -> float:
    """Exact d_TV(mu^{(x) n}, mu'^{(x) n}) by enumeration of the sample types.

    Requires d^n within the 1e7 outcome budget (BudgetExceeded otherwise),
    though only the C(n+d-1, n) types are visited.
    """
    return _tv(_types(mu, mu_prime, n)[2])


def exact_lr_error(mu: Distribution, mu_prime: Distribution, n: int) -> float:
    """Exact maximum error probability of the likelihood-ratio rule on n draws.

    The rule outputs mu on an outcome iff its probability under mu^{(x) n}
    strictly exceeds that under mu'^{(x) n} (ties go to mu', matching the
    sign-of-statistic rule with L_n = 0 resolved to mu'); exact ties and near
    ties are decided in exact rational arithmetic.  Returns
    max(P_mu(output mu'), P_mu'(output mu)).  Same budget as exact_product_tv.
    """
    return _lr(*_types(mu, mu_prime, n))

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovwindow import (
    BudgetExceeded,
    Distribution,
    DimensionMismatch,
    bounded_lr_epsilon,
    chi_square,
    exact_lr_error,
    exact_product_tv,
    extreme_pairs,
    hellinger_sq,
    kl_divergence,
    pairwise_epsilon,
    spectral_decomposition,
    zoo,
)
from markovwindow.divergences import _decide_mu, _exact_tv_lr, _sorted_outcomes, _type_table, _types
from conftest import pi_norm_sq, random_distribution, total_variation


def simplex_pairs():
    entry = st.floats(min_value=1e-3, max_value=1.0)
    return st.integers(min_value=2, max_value=20).flatmap(
        lambda d: st.tuples(
            st.lists(entry, min_size=d, max_size=d),
            st.lists(entry, min_size=d, max_size=d),
        )
    )


def as_dist(raw):
    arr = np.asarray(raw, dtype=float)
    return Distribution(arr / arr.sum())


def test_total_variation_examples():
    # One draw: the exact product oracle is the total variation itself.
    a, b = Distribution([0.5, 0.5]), Distribution([0.8, 0.2])
    assert exact_product_tv(a, a, 1) == total_variation(a, a) == 0.0
    assert exact_product_tv(a, b, 1) == pytest.approx(0.3, abs=1e-15)
    assert total_variation(a, b) == pytest.approx(0.3, abs=1e-15)
    disjoint = Distribution([1.0, 0.0]), Distribution([0.0, 1.0])
    assert exact_product_tv(*disjoint, 1) == total_variation(*disjoint) == 1.0
    with pytest.raises(DimensionMismatch):
        exact_product_tv(a, Distribution([1.0, 0.0, 0.0]), 1)


def test_kl_examples():
    a = Distribution([0.5, 0.5])
    assert kl_divergence(a, a) == 0.0
    assert kl_divergence(Distribution([1.0, 0.0]), a) == pytest.approx(math.log(2))
    assert kl_divergence(a, Distribution([1.0, 0.0])) == math.inf


@settings(max_examples=200)
@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=2**32 - 1),
       st.floats(min_value=1e-18, max_value=1e-6))
def test_kl_is_half_chi_square_on_nearly_equal_pairs(d, seed, scale):
    # KL = chi_square / 2 up to a relative O(max |p / q - 1|).  The float sum
    # of p log(p / q) cannot show it here: its rounding, near 1e-16, can
    # exceed the divergence itself and read below 0.
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(d)) + 0.01
    q = p * (1.0 + scale * rng.standard_normal(d))
    mu, mu_prime = Distribution(p / p.sum()), Distribution(q / q.sum())
    assert kl_divergence(mu, mu_prime) == pytest.approx(chi_square(mu, mu_prime) / 2.0, rel=1e-4, abs=0.0)


def test_chi_square_examples(rng):
    a = Distribution([0.5, 0.5])
    assert chi_square(a, a) == 0.0
    assert chi_square(a, Distribution([1.0, 0.0])) == math.inf
    # Against pi it is the squared pi-norm of the difference.
    S = spectral_decomposition(zoo.random_chain(7, seed=4))
    mu = random_distribution(rng, 7)
    assert chi_square(mu, S.stationary) == pytest.approx(
        pi_norm_sq(mu.mass - S.stationary.mass, S.stationary), rel=1e-12
    )


def test_hellinger_examples():
    a = Distribution([0.5, 0.5])
    assert hellinger_sq(a, a) == 0.0
    assert hellinger_sq(Distribution([1.0, 0.0]), a) == pytest.approx(
        2.0 - math.sqrt(2.0), rel=1e-14
    )
    assert hellinger_sq(Distribution([1.0, 0.0]), Distribution([0.0, 1.0])) == 2.0


@settings(max_examples=150)
@given(simplex_pairs())
def test_sandwich_and_pinsker(pair):
    mu, mu_prime = as_dist(pair[0]), as_dist(pair[1])
    tv = total_variation(mu, mu_prime)
    h2 = hellinger_sq(mu, mu_prime)
    kl = kl_divergence(mu, mu_prime)
    assert 0.5 * h2 <= tv + 1e-12
    assert tv <= math.sqrt(h2) + 1e-12
    assert tv <= math.sqrt(kl / 2.0) + 1e-12


def _fraction_product_oracle(p, q, n):
    """Exact TV and LR errors of n-fold products, in rational arithmetic."""
    d = len(p)
    tv = Fraction(0)
    err_mu = Fraction(0)
    err_mu_prime = Fraction(0)
    for outcome in itertools.product(range(d), repeat=n):
        pp = math.prod([p[x] for x in outcome], start=Fraction(1))
        qq = math.prod([q[x] for x in outcome], start=Fraction(1))
        tv += abs(pp - qq)
        if pp > qq:
            err_mu_prime += qq
        else:
            err_mu += pp
    return tv / 2, max(err_mu, err_mu_prime)


def tie_cases():
    """Pairs whose products tie exactly on some types, in rational arithmetic
    on the floats as given, with the n to check them at."""
    cycle8 = extreme_pairs(zoo.cycle(8), 0.2).pair_a
    cycle3 = extreme_pairs(zoo.cycle(3), 0.2).pair_a
    return [
        ((Distribution([0.3, 0.7]), Distribution([0.7, 0.3])), 4),  # the swap pair
        (cycle8, 2),  # entries a, b, a, ... against b, a, b, ...
        (cycle3, 2),
        # Products of the small entries underflow to 0 or to subnormals.
        ((Distribution([2e-160, 1.0 - 2e-160]), Distribution([1e-160, 1.0 - 1e-160])), 3),
    ]


def test_product_oracles_match_rational_enumeration():
    p = [Fraction(1, 2), Fraction(1, 2)]
    q = [Fraction(4, 5), Fraction(1, 5)]
    mu, mu_prime = Distribution([0.5, 0.5]), Distribution([0.8, 0.2])
    for n in (1, 2, 3, 5):
        tv_exact, err_exact = _fraction_product_oracle(p, q, n)
        assert exact_product_tv(mu, mu_prime, n) == pytest.approx(float(tv_exact), abs=1e-12)
        assert exact_lr_error(mu, mu_prime, n) == pytest.approx(float(err_exact), abs=1e-12)
    # Frozen value: at n = 3 the rule rejects mu on 4 of 8 equiprobable outcomes.
    assert exact_lr_error(mu, mu_prime, 3) == pytest.approx(0.5, abs=1e-14)
    for (mu, mu_prime), n in tie_cases():
        p = [Fraction(x) for x in mu.mass.tolist()]
        q = [Fraction(x) for x in mu_prime.mass.tolist()]
        tv_exact, err_exact = _fraction_product_oracle(p, q, n)
        assert exact_product_tv(mu, mu_prime, n) == pytest.approx(float(tv_exact), abs=1e-12)
        assert exact_lr_error(mu, mu_prime, n) == pytest.approx(float(err_exact), abs=1e-12)
        assert _exact_tv_lr(mu, mu_prime, n) == (
            exact_product_tv(mu, mu_prime, n), exact_lr_error(mu, mu_prime, n))


def tuple_reference(p, q, n):
    """TV and LR error over all d^n outcome tuples, each product in tuple order."""
    prod_p, prod_q = p.copy(), q.copy()
    for _ in range(n - 1):
        prod_p = np.multiply.outer(prod_p, p).ravel()
        prod_q = np.multiply.outer(prod_q, q).ravel()
    decide_mu = prod_p > prod_q
    tv = 0.5 * math.fsum(np.abs(prod_p - prod_q).tolist())
    return tv, max(math.fsum(prod_p[~decide_mu].tolist()), math.fsum(prod_q[decide_mu].tolist()))


@pytest.mark.parametrize("d, n", [(1, 4), (2, 1), (2, 23), (3, 5), (8, 7), (20, 5), (200, 3)])
def test_type_table_rows_coefficients_and_masses(rng, d, n):
    p, q = rng.dirichlet(np.ones(d)), rng.dirichlet(np.ones(d))
    table = _type_table(p, q, n)
    assert table.pp.size == math.comb(n + d - 1, n)
    assert sum(table.coef.tolist()) == d**n  # every outcome tuple counted once
    for prod in (table.pp, table.qq):
        assert abs(math.fsum((table.coef * prod).tolist()) - 1.0) <= 1e-12
    # Rows are the sorted outcome tuples, in lexicographic order.
    outcomes = _sorted_outcomes(table, np.arange(table.pp.size))
    assert np.all(np.diff(outcomes, axis=1) >= 0)
    keys = outcomes @ (d ** np.arange(n - 1, -1, -1))
    assert np.all(np.diff(keys) > 0)
    assert np.array_equal(outcomes[:, -1], table.last)
    assert np.array_equal((outcomes == table.last[:, None]).sum(axis=1), table.run)


def test_type_decisions_are_exact_on_ties():
    for (mu, mu_prime), n in tie_cases():
        p, q = mu.mass, mu_prime.mass
        table = _type_table(p, q, n)
        P = [Fraction(x) for x in p.tolist()]
        Q = [Fraction(x) for x in q.tolist()]
        outcomes = _sorted_outcomes(table, np.arange(table.pp.size)).tolist()
        expected = [math.prod([P[x] for x in o]) > math.prod([Q[x] for x in o]) for o in outcomes]
        assert _decide_mu(p, q, table).tolist() == expected


@settings(max_examples=60)
@given(st.integers(min_value=2, max_value=9), st.integers(min_value=1, max_value=23),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_type_oracles_match_tuple_enumeration(d, n, seed):
    # n is cut to the largest with d^n <= 2e5 outcomes, so the tuple reference stays fast.
    n = min(n, int(math.log(2e5) / math.log(d)))
    rng = np.random.default_rng(seed)
    p, q = rng.dirichlet(np.ones(d)), rng.dirichlet(np.ones(d))
    tv, err = tuple_reference(p, q, n)
    mu, mu_prime = Distribution(p), Distribution(q)
    assert abs(exact_product_tv(mu, mu_prime, n) - tv) <= 1e-12
    assert abs(exact_lr_error(mu, mu_prime, n) - err) <= 1e-12


def test_product_tv_basics(rng):
    mu, mu_prime = random_distribution(rng, 4), random_distribution(rng, 4)
    assert exact_product_tv(mu, mu_prime, 1) == pytest.approx(
        total_variation(mu, mu_prime), abs=1e-14
    )
    assert exact_product_tv(mu, mu, 4) == 0.0
    # Monotone in n by data processing.
    values = [exact_product_tv(mu, mu_prime, n) for n in range(1, 6)]
    assert all(b >= a - 1e-13 for a, b in zip(values, values[1:]))


def test_product_budget():
    mu = Distribution(np.full(10, 0.1))
    with pytest.raises(BudgetExceeded):
        exact_product_tv(mu, mu, 8)


def test_lr_error_edge_cases():
    a = Distribution([0.5, 0.5])
    # Identical inputs: the tie rule always outputs the second hypothesis.
    assert exact_lr_error(a, a, 3) == 1.0
    disjoint = Distribution([1.0, 0.0]), Distribution([0.0, 1.0])
    assert exact_lr_error(*disjoint, 1) == 0.0


def test_identical_pairs_take_one_level_at_any_n():
    # mu = mu' lumps to one state, whose n draws form a single type: the table
    # has no per-draw levels, so the budget's d^n = 1 at d = 1 admits any n.
    one = Distribution([1.0])
    assert _types(one, one, 1000)[2].prefixes == ()
    assert exact_lr_error(one, one, 10**9) == 1.0
    assert exact_product_tv(one, one, 10**9) == 0.0
    a = Distribution([0.5, 0.5])
    assert _types(a, a, 20)[2].prefixes == ()
    assert exact_lr_error(a, a, 20) == 1.0 and exact_product_tv(a, a, 20) == 0.0


def test_lr_error_sum_equals_one_minus_tv(rng):
    # err_mu + err_mu' = 1 - d_TV(products), exactly on enumerated instances.
    for trial in range(5):
        mu = random_distribution(rng, 3)
        mu_prime = random_distribution(rng, 3)
        for n in (1, 2, 4):
            tv = exact_product_tv(mu, mu_prime, n)
            p, q = mu.mass, mu_prime.mass
            prod_p, prod_q = p.copy(), q.copy()
            for _ in range(n - 1):
                prod_p = np.multiply.outer(prod_p, p).ravel()
                prod_q = np.multiply.outer(prod_q, q).ravel()
            decide_mu = prod_p > prod_q
            err_sum = prod_p[~decide_mu].sum() + prod_q[decide_mu].sum()
            assert err_sum == pytest.approx(1.0 - tv, abs=1e-12)


def test_hellinger_tensorization(rng):
    # 1 - H2(products)/2 = (1 - H2/2)^n, against directly enumerated products.
    for d, n in ((3, 4), (5, 5), (10, 5)):
        mu = random_distribution(rng, d)
        mu_prime = random_distribution(rng, d)
        prod_p, prod_q = mu.mass.copy(), mu_prime.mass.copy()
        for _ in range(n - 1):
            prod_p = np.multiply.outer(prod_p, mu.mass).ravel()
            prod_q = np.multiply.outer(prod_q, mu_prime.mass).ravel()
        h2_product = np.sum((np.sqrt(prod_p) - np.sqrt(prod_q)) ** 2)
        lhs = 1.0 - h2_product / 2.0
        rhs = (1.0 - hellinger_sq(mu, mu_prime) / 2.0) ** n
        assert lhs == pytest.approx(rhs, rel=1e-11)


def test_bounded_ratio_divergence_inequalities(rng):
    # With eps the measured pairwise bound: H2 >= (eps^{5/2}/8) ||mu-mu'||_pi^2
    # and KL <= (1/eps) ||mu-mu'||_pi^2.
    for trial in range(50):
        d = int(rng.integers(2, 12))
        P = zoo.random_chain(d, seed=trial)
        pi = spectral_decomposition(P).stationary
        mu, mu_prime = random_distribution(rng, d), random_distribution(rng, d)
        eps = pairwise_epsilon(mu, mu_prime, pi)
        assert eps > 0
        dist_sq = pi_norm_sq(mu.mass - mu_prime.mass, pi)
        assert hellinger_sq(mu, mu_prime) >= (eps**2.5 / 8.0) * dist_sq - 1e-12
        assert kl_divergence(mu, mu_prime) <= dist_sq / eps + 1e-12


def test_bounded_lr_epsilon_examples():
    a = Distribution([0.5, 0.5])
    assert bounded_lr_epsilon(a, a) == 1.0
    assert bounded_lr_epsilon(a, Distribution([0.25, 0.75])) == pytest.approx(0.5)
    assert bounded_lr_epsilon(Distribution([1.0, 0.0]), a) == 0.0

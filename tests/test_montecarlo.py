import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from markovwindow import (
    Distribution,
    InvalidParameter,
    Sample,
    TestingInstance,
    TransitionMatrix,
    draw_sample,
    estimate_error,
    exact_lr_error,
    extreme_pairs,
    lower_bound_witness,
    pairwise_epsilon,
    sample_lower_bound,
    sample_upper_bound,
    spectral_decomposition,
    zoo,
)
from markovwindow.montecarlo import (TRIAL_BLOCK, _alias_draws, _alias_table, _count_decisions, _count_rows,
                                     _draw_decisions, _lr_table)
from conftest import lr_statistic, random_distribution


def statistic(s, mu_t, mu_prime_t):
    """The package's LR statistic of one sample: `_count_rows` on its one row."""
    return float(_count_rows(s.counts[None, :], s.n, _lr_table(mu_t.mass, mu_prime_t.mass))[0][0])


def decides_mu(s, mu_t, mu_prime_t):
    """The package's LR decision on one sample, as `estimate_error` scores it."""
    return bool(_count_decisions(s.counts[None, :], s.n, _lr_table(mu_t.mass, mu_prime_t.mass))[0])


def test_sample_validation():
    Sample(counts=[2, 3, 0], n=5)
    with pytest.raises(InvalidParameter):
        Sample(counts=[2, 3], n=4)
    with pytest.raises(InvalidParameter):
        Sample(counts=[-1, 5], n=4)
    with pytest.raises(InvalidParameter):
        Sample(counts=[2.7, 2.3], n=4)
    with pytest.raises(InvalidParameter):
        Sample(counts=[math.nan, 5.0], n=5)
    Sample(counts=[2.0, 3.0], n=5)


def test_draw_sample_point_mass():
    s = draw_sample(Distribution.point(5, 2), n=40, seed=7)
    assert s.counts[2] == 40 and s.counts.sum() == 40


def test_draw_sample_determinism():
    mu = Distribution([0.1, 0.2, 0.3, 0.4])
    a = draw_sample(mu, n=1000, seed=123)
    b = draw_sample(mu, n=1000, seed=123)
    np.testing.assert_array_equal(a.counts, b.counts)
    c = draw_sample(mu, n=1000, seed=124)
    assert not np.array_equal(a.counts, c.counts)


def test_draw_sample_alias_path_determinism():
    # n = 20 < d = 50 over a partial support: one multinomial draw, as for n >= d.
    mu = random_distribution(np.random.default_rng(5), 50, full_support=False)
    a = draw_sample(mu, n=20, seed=123)
    b = draw_sample(mu, n=20, seed=123)
    np.testing.assert_array_equal(a.counts, b.counts)
    assert a.counts.shape == (50,) and a.counts.sum() == 20
    assert not np.any(a.counts[mu.mass == 0.0])
    c = draw_sample(mu, n=20, seed=124)
    assert not np.array_equal(a.counts, c.counts)


@pytest.mark.parametrize("d, n", [(50, 20), (4, 1000)], ids=["n < d", "n >= d"])
def test_draw_sample_is_one_multinomial_draw(d, n):
    mu = random_distribution(np.random.default_rng(d), d, full_support=False)
    expected = np.random.default_rng(123).multinomial(n, mu.mass / mu.mass.sum())
    np.testing.assert_array_equal(draw_sample(mu, n=n, seed=123).counts, expected)


@settings(max_examples=60)
@given(d=st.integers(min_value=2, max_value=500), seed=st.integers(min_value=0, max_value=2**32 - 1),
       zero_share=st.floats(min_value=0.0, max_value=0.99), power=st.floats(min_value=0.0, max_value=8.0))
def test_alias_table_implies_the_masses(d, seed, zero_share, power):
    # power 0 makes every positive mass equal; large powers spread them over
    # many orders of magnitude.
    rng = np.random.default_rng(seed)
    mass = rng.random(d) ** power * (rng.random(d) >= zero_share)
    if not mass.any():
        mass[rng.integers(d)] = 1.0
    prob, alias = _alias_table(mass)
    implied = (prob + np.bincount(alias, weights=1.0 - prob, minlength=d)) / d
    p = mass / mass.sum()
    np.testing.assert_allclose(implied, p, rtol=0.0, atol=1e-12)
    assert np.all(implied[p == 0.0] == 0.0)


def test_draw_sample_multinomial_concentration():
    n = 10**6
    s = draw_sample(Distribution.uniform(4), n=n, seed=99)
    sigma = math.sqrt(n * 0.25 * 0.75)
    assert np.all(np.abs(s.counts - n / 4) < 5 * sigma)


def test_draw_sample_invalid():
    mu = Distribution.uniform(3)
    with pytest.raises(InvalidParameter):
        draw_sample(mu, n=0, seed=1)
    with pytest.raises(InvalidParameter):
        draw_sample(mu, n=10, seed=-1)
    with pytest.raises(InvalidParameter):
        draw_sample(mu, n=10, seed=2**64)


def test_lr_statistic_examples():
    mu_t = Distribution([0.5, 0.5])
    s = draw_sample(mu_t, n=20, seed=0)
    assert statistic(s, mu_t, mu_t) == lr_statistic(s.counts, mu_t, mu_t) == 0.0

    # All mass on a state with ratio 2 gives ln 2.
    p = Distribution([0.5, 0.5])
    q = Distribution([0.25, 0.75])
    concentrated = Sample(counts=[6, 0], n=6)
    assert statistic(concentrated, p, q) == pytest.approx(math.log(2.0))
    # Swapping the hypotheses negates the statistic.
    mixed = Sample(counts=[4, 2], n=6)
    assert statistic(mixed, p, q) == pytest.approx(-statistic(mixed, q, p))
    assert statistic(mixed, p, q) == pytest.approx(lr_statistic(mixed.counts, p, q), rel=1e-15)


def test_lr_statistic_support_violations():
    p = Distribution([1.0, 0.0])
    q = Distribution([0.5, 0.5])
    on_zero = Sample(counts=[0, 3], n=3)
    assert statistic(on_zero, p, q) == lr_statistic(on_zero.counts, p, q) == -math.inf
    assert not decides_mu(on_zero, p, q)
    assert statistic(on_zero, q, p) == lr_statistic(on_zero.counts, q, p) == math.inf
    assert decides_mu(on_zero, q, p)
    # Impossible under both hypotheses: tie rule.
    r = Distribution([0.0, 1.0])
    both_zero = Sample(counts=[3, 0], n=3)
    assert statistic(both_zero, r, r) == lr_statistic(both_zero.counts, r, r) == 0.0
    assert not decides_mu(both_zero, r, r)


def test_lr_test_tie_goes_to_mu_prime():
    mu_t = Distribution([0.5, 0.5])
    s = draw_sample(mu_t, n=10, seed=3)
    assert not decides_mu(s, mu_t, mu_t)


def test_lr_test_swap_flips_decision():
    p = Distribution([0.7, 0.3])
    q = Distribution([0.3, 0.7])
    s = draw_sample(p, n=51, seed=11)
    if statistic(s, p, q) != 0.0:
        assert decides_mu(s, p, q) != decides_mu(s, q, p)


def test_estimate_error_identical_distributions():
    P = zoo.cycle(4)
    pi = spectral_decomposition(P).stationary
    inst = TestingInstance(chain=P, mu=pi, mu_prime=pi, t=0)
    est = estimate_error(inst, n=4, trials=200, seed=5)
    assert est.err_mu == 1.0 and est.err_mu_prime == 0.0 and est.err_max == 1.0
    assert est.ci_halfwidth == 0.0


def test_estimate_error_disjoint_supports():
    # Point masses on opposite sides evolve to the two disjoint side-uniforms.
    P = zoo.bipartite_clique(4)
    inst = TestingInstance(
        chain=P, mu=Distribution.point(4, 0), mu_prime=Distribution.point(4, 2), t=1
    )
    est = estimate_error(inst, n=1, trials=150, seed=2)
    assert est.err_max == 0.0


def test_estimate_error_determinism_and_fields():
    P = zoo.cycle(8)
    ext = extreme_pairs(P, 0.2)
    inst = TestingInstance(chain=P, mu=ext.mu, mu_prime=ext.mu_prime, t=2)
    a = estimate_error(inst, n=50, trials=120, seed=77)
    b = estimate_error(inst, n=50, trials=120, seed=77)
    assert a == b
    assert a.err_max == max(a.err_mu, a.err_mu_prime)
    expected_ci = 1.96 * math.sqrt(a.err_max * (1 - a.err_max) / 120)
    assert a.ci_halfwidth == pytest.approx(expected_ci, abs=1e-15)
    assert (a.n, a.t, a.seed) == (50, 2, 77)
    assert estimate_error(inst, n=50, trials=120, seed=78) != a
    with pytest.raises(InvalidParameter):
        estimate_error(inst, n=50, trials=99, seed=1)


@st.composite
def _small_n_cases(draw):
    """(p, q, n) with n < d; zero-mass states in either hypothesis, and q
    optionally p with the heaviest states swapped in pairs, so that the
    histograms with equal counts on both states of each pair, which are
    frequent, tie exactly."""
    d = draw(st.integers(min_value=2, max_value=80))
    n = draw(st.integers(min_value=1, max_value=d - 1))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    p, q = rng.dirichlet(np.full(d, draw(st.sampled_from([0.1, 1.0]))), size=2)
    if draw(st.booleans()):
        pairs = np.argsort(p)[::-1][: 2 * draw(st.integers(min_value=1, max_value=d // 2))]
        q = p.copy()
        q[pairs] = p[pairs.reshape(-1, 2)[:, ::-1].ravel()]
    for mass in (p, q):
        if draw(st.booleans()):
            mass[rng.random(d) < 0.3] = 0.0
            if not mass.any():
                mass[rng.integers(d)] = 1.0
            mass /= mass.sum()
    return p, q, n


@settings(max_examples=80)
@example(case=(np.array([0.3, 0.7, 0.0]), np.array([0.7, 0.3, 0.0]), 2), trials=100, seed=1)
@given(case=_small_n_cases(), trials=st.sampled_from([100, 1500]),
       seed=st.integers(min_value=0, max_value=2**64 - 1))
def test_estimate_error_scores_draws_as_their_histograms(case, trials, seed):
    # For n < d, estimate_error scores each block's alias draws without
    # tallying them; its error counts must be those of tallying the same
    # draws (_alias_draws with the block's key) and scoring the histograms.
    p, q, n = case
    uniform = TransitionMatrix(np.full((p.size, p.size), 1.0 / p.size))
    inst = TestingInstance(chain=uniform, mu=Distribution(p), mu_prime=Distribution(q), t=0)
    errors, table = [0, 0], _lr_table(p, q)
    for hypothesis, mass in enumerate((p, q)):
        for block in range(-(-trials // TRIAL_BLOCK)):
            size = min(TRIAL_BLOCK, trials - block * TRIAL_BLOCK)
            draws = _alias_draws((seed, hypothesis, block), _alias_table(mass), n, size)
            counts = np.stack([np.bincount(row, minlength=p.size) for row in draws])
            errors[hypothesis] += int(np.count_nonzero(_count_decisions(counts, n, table) != (hypothesis == 0)))
    est = estimate_error(inst, n=n, trials=trials, seed=seed)
    assert (est.err_mu, est.err_mu_prime) == (errors[0] / trials, errors[1] / trials)


@pytest.mark.parametrize("p, q, n", [
    ([0.5, 0.25, 0.0, 0.25, 0.0], [0.25, 0.25, 0.5, 0.0, 0.0], 4),  # states outside one or both supports
    ([0.3, 0.7, 0.0], [0.7, 0.3, 0.0], 2),  # the tie (1, 1, 0) reads 5.6e-17 in floats
])
def test_draw_scorer_decides_as_the_count_scorer(p, q, n):
    # Every (d^n, n) draw matrix, against the tally of its rows.
    p, q = np.array(p), np.array(q)
    draws = np.array(list(itertools.product(range(p.size), repeat=n)))
    counts = np.stack([np.bincount(row, minlength=p.size) for row in draws])
    expected = _count_decisions(counts, n, _lr_table(p, q))
    assert _draw_decisions(draws, n, _lr_table(p, q)).tolist() == expected.tolist()


def test_lr_rows_matches_lr_statistic_per_row():
    p = Distribution([0.5, 0.25, 0.0, 0.25, 0.0])
    q = Distribution([0.25, 0.25, 0.5, 0.0, 0.0])
    counts = np.array([
        [3, 1, 0, 0, 0],  # joint support: finite
        [1, 0, 3, 0, 0],  # outside supp(p): -inf
        [1, 1, 0, 2, 0],  # outside supp(q): +inf
        [2, 0, 0, 0, 2],  # outside both supports: 0
        [0, 0, 2, 2, 0],  # outside each support in a different state: 0
    ])
    rows = _count_rows(counts, 4, _lr_table(p.mass, q.mass))[0]
    expected = [0.75 * math.log(2.0), -math.inf, math.inf, 0.0, 0.0]
    assert rows.tolist() == pytest.approx(expected, rel=1e-15)
    for row, stat in zip(counts, rows):
        assert lr_statistic(row, p, q) == pytest.approx(stat, rel=1e-15)


def test_exact_ties_go_to_mu_prime():
    # On the swap pair the counts (2, 2) tie exactly, though their float
    # statistic reads 5.6e-17.  The test decides mu iff state 1 takes 3 or 4
    # of the n = 4 draws, so the exact errors are binomial tails.
    p, q = Distribution([0.3, 0.7]), Distribution([0.7, 0.3])
    assert statistic(Sample(counts=[2, 2], n=4), p, q) > 0.0
    assert not decides_mu(Sample(counts=[2, 2], n=4), p, q)
    P = TransitionMatrix([[0.5, 0.5], [0.5, 0.5]])
    est = estimate_error(TestingInstance(chain=P, mu=p, mu_prime=q, t=0), n=4, trials=20_000, seed=1)
    err_mu = 1.0 - (4 * 0.7**3 * 0.3 + 0.7**4)  # 0.348
    err_mu_prime = 4 * 0.3**3 * 0.7 + 0.3**4  # 0.084
    for got, exact in ((est.err_mu, err_mu), (est.err_mu_prime, err_mu_prime)):
        assert abs(got - exact) <= 1.96 * math.sqrt(exact * (1.0 - exact) / est.trials)


def test_lr_decisions_are_exact_near_ties():
    # The [2] pair of cycle(8) reads a, b, a, b, ... against b, a, b, a, ...
    # (u_[2] is the alternating eigenvector of -1), so a histogram with as
    # many draws on even states as on odd ones ties, up to rounding of a, b.
    from fractions import Fraction

    ext = extreme_pairs(zoo.cycle(8), 0.2)
    p, q = ext.mu.mass, ext.mu_prime.mass
    rng = np.random.default_rng(4)
    half = rng.integers(0, 4, size=(300, 4))
    balanced = np.empty((300, 8), dtype=np.int64)
    balanced[:, 0::2] = half
    balanced[:, 1::2] = rng.permuted(half, axis=1)
    counts = np.vstack([balanced, rng.integers(0, 6, size=(200, 8))])
    counts = counts[counts.sum(axis=1) > 0]
    P = [Fraction(x) for x in p.tolist()]
    Q = [Fraction(x) for x in q.tolist()]
    for n in np.unique(counts.sum(axis=1)).tolist():
        rows = counts[counts.sum(axis=1) == n]
        expected = [math.prod(P[x] ** c for x, c in enumerate(row)) >
                    math.prod(Q[x] ** c for x, c in enumerate(row)) for row in rows.tolist()]
        assert _count_decisions(rows, n, _lr_table(p, q)).tolist() == expected


def test_nearly_equal_pairs_need_no_exact_decisions(monkeypatch):
    # q differs from p by one ulp in state 0, so every statistic is a
    # multiple of ln(p_0 / q_0), about -1.9e-16.  The band is relative to the
    # log ratios, so no row goes to the exact check, whose integers grow with n.
    import markovwindow.montecarlo as mc

    rows, exact = [], mc._mu_wins_exactly

    def counting(p, q, histograms):
        rows.append(len(histograms))
        return exact(p, q, histograms)

    monkeypatch.setattr(mc, "_mu_wins_exactly", counting)
    p = np.array([0.3, 0.7])
    q = np.array([np.nextafter(0.3, 1.0), 0.7])
    inst = TestingInstance(chain=TransitionMatrix(np.full((2, 2), 0.5)), mu=Distribution(p), mu_prime=Distribution(q),
                           t=0)
    for n in (10**3, 10**4, 10**6):
        # The test never decides mu: a draw of state 0 favours mu', and a
        # sample without one ties.
        est = estimate_error(inst, n=n, trials=100, seed=1)
        assert (est.err_mu, est.err_mu_prime) == (1.0, 0.0)
    assert rows == []


def test_log_ratios_past_the_float_range_decide_exactly():
    # p_1 / q_1 = 5e309 overflows, but ln(p_1 / q_1) = 713.1 is finite, so
    # 1029 draws of state 0, each worth ln(1/2), outweigh one draw of state 1.
    from fractions import Fraction

    def likelihood(dist, counts):
        return math.prod(Fraction(x) ** c for x, c in zip(dist.mass.tolist(), counts))

    p, q = Distribution([0.5, 0.5]), Distribution([1.0, 1e-310])
    for counts in ([1028, 1], [1029, 1], [1030, 1]):
        exact = likelihood(p, counts) > likelihood(q, counts)
        s = Sample(counts=counts, n=sum(counts))
        assert decides_mu(s, p, q) == exact, counts
        assert math.isfinite(statistic(s, p, q)) and (statistic(s, p, q) > 0.0) == exact


def test_estimate_error_matches_exact_enumeration():
    # On an enumerable instance, the Monte Carlo error approaches the exactly
    # enumerated error of the rule.
    P = zoo.pachinko(1, [0.7, 0.3])
    S = spectral_decomposition(P)
    mu = Distribution([0.7, 0.3])
    mu_prime = Distribution([0.4, 0.6])
    inst = TestingInstance(chain=P, mu=mu, mu_prime=mu_prime, t=1)
    from markovwindow import evolve

    n = 9
    exact = exact_lr_error(evolve(mu, P, 1), evolve(mu_prime, P, 1), n)
    est = estimate_error(inst, n=n, trials=2000, seed=31)
    assert abs(est.err_max - exact) <= 3 * est.ci_halfwidth + 1e-9


def test_estimate_error_alias_path_matches_exact_enumeration():
    # n = 5 < d = 8 draws through the alias table; at t = 0 both hypotheses
    # keep their zero-mass states, which the table must never draw, and a
    # draw of state 7 proves mu.
    mu = Distribution([0, 0.2, 0.1, 0.15, 0.05, 0.25, 0.1, 0.15])
    mu_prime = Distribution([0, 0.15, 0.15, 0.1, 0.1, 0.2, 0.3, 0.0])
    inst = TestingInstance(chain=zoo.random_chain(8, seed=4), mu=mu, mu_prime=mu_prime, t=0)
    exact = exact_lr_error(mu, mu_prime, 5)
    trials = 20_000
    est = estimate_error(inst, n=5, trials=trials, seed=3)
    assert abs(est.err_max - exact) <= 5 * math.sqrt(exact * (1 - exact) / trials)


def test_estimate_error_monotone_in_n():
    P = zoo.cycle(8)
    ext = extreme_pairs(P, 0.2)
    inst = TestingInstance(chain=P, mu=ext.mu, mu_prime=ext.mu_prime, t=3)
    errs = [
        estimate_error(inst, n=n, trials=600, seed=13).err_max for n in (10, 20, 40)
    ]
    slack = 3 * 1.96 * math.sqrt(0.25 / 600)
    assert errs[1] <= errs[0] + slack
    assert errs[2] <= errs[1] + slack


def test_error_guarantee_at_threshold_across_zoo(zoo_chains):
    # At the explicit threshold the LR test meets delta = 0.1 on every zoo
    # chain; combos whose threshold would need more than the draw budget
    # (fast-mixing chains at large t push n past 10^5) are skipped.
    delta, trials, draw_budget = 0.1, 2000, 160_000_000
    checked = 0
    for i, (name, P) in enumerate(sorted(zoo_chains.items())):
        ext = extreme_pairs(P, 0.2)
        eps = pairwise_epsilon(ext.mu, ext.mu_prime, spectral_decomposition(P).stationary)
        for t in (0, 2, 5):
            inst = TestingInstance(chain=P, mu=ext.mu, mu_prime=ext.mu_prime, t=t)
            n = sample_upper_bound(inst, eps, delta)
            if n == math.inf or 2 * trials * n > draw_budget:
                continue
            est = estimate_error(inst, n=n, trials=trials, seed=5000 + i)
            assert est.err_max <= delta + 3 * est.ci_halfwidth, (name, t, n, est)
            checked += 1
    assert checked >= 18


def test_lower_bound_witness_exact_mode(rng):
    P = zoo.cycle(3)
    S = spectral_decomposition(P)
    u = S.left_by_abs_rank(2)
    pi = S.stationary
    delta = 0.1
    # Scale the pair so n = floor(8 eps delta^2 / Delta(0)) lands in [1, 6].
    for target_n in (1, 3, 6):
        lo, hi = 1e-5, 0.3
        for _ in range(60):
            alpha = 0.5 * (lo + hi)
            mu = Distribution(pi.mass + alpha * u)
            mu_prime = Distribution(pi.mass - alpha * u)
            inst = TestingInstance(chain=P, mu=mu, mu_prime=mu_prime, t=0)
            eps = pairwise_epsilon(mu, mu_prime, pi)
            n = sample_lower_bound(inst, eps, delta)
            if n > target_n:
                lo = alpha
            elif n < target_n:
                hi = alpha
            else:
                break
        assert n == target_n
        witness = lower_bound_witness(inst, delta)
        assert witness.mode == "exact"
        assert witness.n == target_n
        assert witness.lr_bound_holds and witness.tv_bound_holds
        assert witness.exact_lr_err >= 0.5 - delta - 1e-12
        assert (1 - witness.exact_tv) / 2 >= 0.5 - delta - 1e-12


def test_lower_bound_witness_vacuous():
    inst = TestingInstance(
        chain=zoo.cycle(3),
        mu=Distribution([0.5, 0.3, 0.2]),
        mu_prime=Distribution([0.2, 0.3, 0.5]),
        t=0,
    )
    witness = lower_bound_witness(inst, 0.1)
    assert witness.mode == "vacuous" and witness.n == 0


def test_lower_bound_witness_pinsker_fallback():
    P = zoo.cycle(3)
    S = spectral_decomposition(P)
    u = S.left_by_abs_rank(2)
    alpha = 2e-5
    inst = TestingInstance(
        chain=P,
        mu=Distribution(S.stationary.mass + alpha * u),
        mu_prime=Distribution(S.stationary.mass - alpha * u),
        t=0,
    )
    witness = lower_bound_witness(inst, 0.1)
    assert witness.mode == "pinsker"
    assert witness.n >= 1 and witness.n * math.log(3) > math.log(10**7)
    assert witness.tv_bound_holds
    # Pinsker is a genuine upper bound on the product TV at enumerable sizes.
    from markovwindow import exact_product_tv, kl_divergence

    small_n = 5
    tv = exact_product_tv(inst.mu, inst.mu_prime, small_n)
    assert tv <= math.sqrt(small_n * kl_divergence(inst.mu, inst.mu_prime) / 2) + 1e-12


def test_lower_bound_witness_pinsker_on_a_nearly_decayed_pair():
    # Delta(18) of the [d] pair of cycle(5) is 3.9e-19, so the evolved pair
    # differs by about 1e-9 a state and its KL, about 1.9e-19, lies far below
    # the rounding of p log(p / q) summed directly (which read -6.7e-17).  KL
    # is chi_square / 2 to second order.
    from markovwindow import chi_square, evolve, kl_divergence

    P = zoo.cycle(5)
    ext = extreme_pairs(P, 0.2)
    for pair, t in ((ext.pair_b, 18), (ext.pair_a, 83)):
        mu_t, mu_prime_t = evolve(pair[0], P, t), evolve(pair[1], P, t)
        assert kl_divergence(mu_t, mu_prime_t) == pytest.approx(chi_square(mu_t, mu_prime_t) / 2.0, rel=1e-6)
    # Once mu'_t is pi to within 1e-9, KL is Delta(t) / 2 to the same order, so
    # the certificate reads sqrt(n Delta(t) / 4), about delta sqrt(2 eps) at
    # n = floor(8 eps delta^2 / Delta(t)); also at t = 50 and 600, where
    # mu_t - mu'_t is below the rounding of evolve itself.
    for pair, t in ((ext.pair_b, 18), (ext.pair_a, 83), (ext.pair_b, 50), (ext.pair_a, 600)):
        witness = lower_bound_witness(TestingInstance(P, *pair, t), 0.1)
        assert witness.mode == "pinsker" and witness.tv_bound_holds
        assert witness.pinsker_tv_bound == pytest.approx(math.sqrt(witness.n * witness.delta_t / 4.0), rel=1e-6)
        assert witness.pinsker_tv_bound == pytest.approx(0.1 * math.sqrt(2.0 * witness.epsilon), rel=1e-3)


def test_lower_bound_witness_impossible_mode():
    P = zoo.cycle(8)
    ext = extreme_pairs(P, 0.2)
    inst = TestingInstance(chain=P, mu=ext.gamma, mu_prime=ext.gamma_prime, t=1)
    witness = lower_bound_witness(inst, 0.1)
    assert witness.mode == "impossible" and witness.n == math.inf

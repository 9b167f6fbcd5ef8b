import math

import numpy as np
import pytest

from markovwindow import (
    Decision,
    Distribution,
    InvalidParameter,
    Sample,
    TestingInstance,
    draw_sample,
    estimate_error,
    exact_lr_error,
    extreme_pairs,
    lower_bound_witness,
    lr_statistic,
    lr_test,
    pairwise_epsilon,
    sample_lower_bound,
    sample_upper_bound,
    spectral_decomposition,
    zoo,
)
from markovwindow.montecarlo import TRIAL_BLOCK, _lr_rows


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
    assert lr_statistic(s, mu_t, mu_t) == 0.0

    # All mass on a state with ratio 2 gives ln 2.
    p = Distribution([0.5, 0.5])
    q = Distribution([0.25, 0.75])
    concentrated = Sample(counts=[6, 0], n=6)
    assert lr_statistic(concentrated, p, q) == pytest.approx(math.log(2.0))
    # Swapping the hypotheses negates the statistic.
    mixed = Sample(counts=[4, 2], n=6)
    assert lr_statistic(mixed, p, q) == pytest.approx(-lr_statistic(mixed, q, p))


def test_lr_statistic_support_violations():
    p = Distribution([1.0, 0.0])
    q = Distribution([0.5, 0.5])
    on_zero = Sample(counts=[0, 3], n=3)
    assert lr_statistic(on_zero, p, q) == -math.inf
    assert lr_test(on_zero, p, q) is Decision.MU_PRIME
    assert lr_statistic(on_zero, q, p) == math.inf
    assert lr_test(on_zero, q, p) is Decision.MU
    # Impossible under both hypotheses: tie rule.
    r = Distribution([0.0, 1.0])
    both_zero = Sample(counts=[3, 0], n=3)
    assert lr_statistic(both_zero, r, r) == 0.0
    assert lr_test(both_zero, r, r) is Decision.MU_PRIME


def test_lr_test_tie_goes_to_mu_prime():
    mu_t = Distribution([0.5, 0.5])
    s = draw_sample(mu_t, n=10, seed=3)
    assert lr_test(s, mu_t, mu_t) is Decision.MU_PRIME


def test_lr_test_swap_flips_decision():
    p = Distribution([0.7, 0.3])
    q = Distribution([0.3, 0.7])
    s = draw_sample(p, n=51, seed=11)
    if lr_statistic(s, p, q) != 0.0:
        assert lr_test(s, p, q) != lr_test(s, q, p)


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
    c = estimate_error(inst, n=50, trials=120, seed=77, workers=3)
    assert a == c
    assert a.err_max == max(a.err_mu, a.err_mu_prime)
    expected_ci = 1.96 * math.sqrt(a.err_max * (1 - a.err_max) / 120)
    assert a.ci_halfwidth == pytest.approx(expected_ci, abs=1e-15)
    assert (a.n, a.t, a.seed) == (50, 2, 77)
    assert estimate_error(inst, n=50, trials=120, seed=78) != a
    with pytest.raises(InvalidParameter):
        estimate_error(inst, n=50, trials=99, seed=1)


def test_estimate_error_blocks_independent_of_workers():
    # 2500 trials span two full blocks and a partial one per hypothesis.
    assert 2 * TRIAL_BLOCK < 2500 < 3 * TRIAL_BLOCK
    P = zoo.cycle(8)
    ext = extreme_pairs(P, 0.2)
    inst = TestingInstance(chain=P, mu=ext.mu, mu_prime=ext.mu_prime, t=2)
    serial = estimate_error(inst, n=50, trials=2500, seed=77)
    assert 0.0 < serial.err_max < 1.0
    for workers in (2, 3):
        assert estimate_error(inst, n=50, trials=2500, seed=77, workers=workers) == serial


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
    rows = _lr_rows(counts, 4, p.mass, q.mass)
    expected = [0.75 * math.log(2.0), -math.inf, math.inf, 0.0, 0.0]
    assert rows.tolist() == pytest.approx(expected, rel=1e-15)
    for row, stat in zip(counts, rows):
        assert lr_statistic(Sample(counts=row, n=4), p, q) == pytest.approx(stat, rel=1e-15)


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


def test_lower_bound_witness_impossible_mode():
    P = zoo.cycle(8)
    ext = extreme_pairs(P, 0.2)
    inst = TestingInstance(chain=P, mu=ext.gamma, mu_prime=ext.gamma_prime, t=1)
    witness = lower_bound_witness(inst, 0.1)
    assert witness.mode == "impossible" and witness.n == math.inf

"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated at runtime.
"""

import math
import time

import numpy as np
import pytest

from markovwindow import (
    Distribution,
    TestingInstance,
    bounded_lr_epsilon,
    estimate_error,
    evolve,
    exact_lr_error,
    exact_product_tv,
    extreme_pairs,
    hellinger_sq,
    kl_divergence,
    pairwise_epsilon,
    sample_lower_bound,
    sample_upper_bound,
    spectral_decomposition,
    statistical_time,
    statistical_window,
    zoo,
)
from markovwindow import cli
from conftest import centered_pair, delta_at, pi_norm_sq, total_variation


def _report(num, message):
    print(f"criterion {num}: PASS - {message}")


def _random_betas(rng, r):
    raw = np.sort(rng.random(r + 1))[::-1] + np.linspace(r + 1, 1, r + 1) * 0.05
    return raw / raw.sum()


def _random_simplex(rng, d):
    mass = rng.random(d) + 0.02
    return Distribution(mass / mass.sum())


def test_criterion_1_closed_form_spectra():
    start = time.monotonic()
    rng = np.random.default_rng(101)

    def match(P, closed_form):
        computed = np.sort(spectral_decomposition(P).eigenvalues)
        np.testing.assert_allclose(computed, np.sort(closed_form), atol=1e-9)

    for d in range(3, 65):
        match(zoo.cycle(d), zoo.cycle_spectrum(d))
        match(zoo.line(d), zoo.line_spectrum(d))
    for d in range(4, 65, 2):
        match(zoo.bipartite_clique(d), zoo.bipartite_clique_spectrum(d))
    for k in range(1, 9):
        match(zoo.hypercube(k), zoo.hypercube_spectrum(k))
    for k in range(1, 7):
        weights = rng.random(k) + 0.2
        weights /= weights.sum()
        params = [
            (float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.05, 1.0)))
            for _ in range(k)
        ]
        match(zoo.hypercube_product(weights, params),
              zoo.hypercube_product_spectrum(weights, params))
    for r in range(1, 7):
        betas = _random_betas(rng, r)
        match(zoo.pachinko(r, betas), zoo.pachinko_spectrum(r, betas))

    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(1, f"closed-form spectra match to 1e-9 ({elapsed:.1f}s)")


def test_criterion_2_decay_identity():
    rng = np.random.default_rng(202)
    checked = 0
    for i in range(200):
        choice = i % 4
        if choice == 3:
            r = int(rng.integers(1, 6))
            P = zoo.pachinko(r, _random_betas(rng, r))
        elif choice == 0:
            P = zoo.random_chain(int(rng.integers(3, 33)), seed=1000 + i)
        elif choice == 1:
            P = zoo.cycle(int(rng.integers(3, 33)))
        else:
            P = zoo.line(int(rng.integers(3, 33)))
        S = spectral_decomposition(P)
        mu, mu_prime = _random_simplex(rng, P.d), _random_simplex(rng, P.d)
        t = int(rng.integers(0, 51))
        closed = delta_at(mu, mu_prime, S, t)
        direct = pi_norm_sq(evolve(mu, P, t).mass - evolve(mu_prime, P, t).mass, S.stationary)
        scale = max(1.0, delta_at(mu, mu_prime, S, 0))
        assert abs(closed - direct) <= 1e-9 * scale
        checked += 1
    assert checked == 200
    _report(2, "decay identity matches the evolve-then-norm oracle on 200 instances")


def test_criterion_3_error_guarantee_at_threshold():
    start = time.monotonic()
    P = zoo.cycle(8)
    ext = extreme_pairs(P, 0.2)
    epsilon, delta, trials = 0.2, 0.1, 2000
    assert pairwise_epsilon(ext.mu, ext.mu_prime,
                            spectral_decomposition(P).stationary) >= epsilon
    for t in (0, 2, 5):
        inst = TestingInstance(chain=P, mu=ext.mu, mu_prime=ext.mu_prime, t=t)
        n = sample_upper_bound(inst, epsilon, delta)
        est = estimate_error(inst, n=n, trials=trials, seed=4242)
        assert est.err_max <= delta + 3.0 * est.ci_halfwidth, (t, n, est)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report(3, f"LR test meets the delta=0.1 guarantee at its threshold ({elapsed:.1f}s)")


def test_criterion_4_impossibility_witness():
    P = zoo.cycle(3)
    S = spectral_decomposition(P)
    u = S.left_by_abs_rank(2)
    pi = S.stationary
    for delta in (0.05, 0.1):
        for target_n in (1, 2, 4, 6):
            lo, hi = 1e-6, 0.25
            inst = None
            for _ in range(80):
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
            assert n == target_n, (delta, target_n, n)
            mu_t, mu_prime_t = inst.mu, inst.mu_prime
            lr_err = exact_lr_error(mu_t, mu_prime_t, n)
            tv = exact_product_tv(mu_t, mu_prime_t, n)
            assert lr_err >= 0.5 - delta - 1e-12
            assert (1.0 - tv) / 2.0 >= 0.5 - delta - 1e-12
    _report(4, "exact enumeration confirms the impossibility floor 1/2 - delta")


def test_criterion_5_statistical_window_exactness():
    P = zoo.cycle(8)
    S = spectral_decomposition(P)
    ext = extreme_pairs(P, 0.2)
    assert ext.lambda_2 == -1.0 and ext.lambda_d == 0.0
    d_a0 = delta_at(ext.mu, ext.mu_prime, S, 0)
    for t in range(1, 21):
        assert delta_at(ext.mu, ext.mu_prime, S, t) == d_a0
        assert delta_at(ext.gamma, ext.gamma_prime, S, t) == 0.0
    assert statistical_window(P, ext.pair_a, ext.pair_b, range(1, 21)).tolist() == [math.inf] * 20

    P6 = zoo.bipartite_clique(6)
    # Dyadic masses keep the side sums float-exact: both sides carry 0.625.
    mu = Distribution([0.5, 0.125, 0.0, 0.25, 0.0625, 0.0625])
    mu_prime = Distribution([0.25, 0.25, 0.125, 0.125, 0.125, 0.125])
    assert mu.mass[:3].sum() == mu_prime.mass[:3].sum()
    gap = np.max(np.abs(evolve(mu, P6, 1).mass - evolve(mu_prime, P6, 1).mass))
    assert gap <= 1e-14
    _report(5, "cycle-8 window is infinite for t >= 1; clique forgets all but the side")


def test_criterion_6_pachinko_table():
    rng = np.random.default_rng(606)
    for trial in range(20):
        betas = _random_betas(rng, 3)
        P = zoo.pachinko(3, betas)
        S = spectral_decomposition(P)
        b0, b1, b2, b3 = betas
        expected = np.sort(np.concatenate((
            [1.0, b0 + b1 + b2 - b3], [b0 + b1 - b2] * 2, [b0 - b1] * 4,
        )))
        np.testing.assert_allclose(np.sort(S.eigenvalues), expected, atol=1e-10)
        np.testing.assert_allclose(S.stationary.mass, 1 / 8, atol=1e-10)
    _report(6, "pachinko r=3 eigenvalue table and uniform stationary hold to 1e-10")


def test_criterion_7_divergence_inequalities():
    rng = np.random.default_rng(707)
    for i in range(1000):
        d = int(rng.integers(2, 21))
        mu, mu_prime = _random_simplex(rng, d), _random_simplex(rng, d)
        tv = total_variation(mu, mu_prime)
        h2 = hellinger_sq(mu, mu_prime)
        kl = kl_divergence(mu, mu_prime)
        assert tv - 0.5 * h2 >= -1e-12
        assert math.sqrt(h2) - tv >= -1e-12
        assert math.sqrt(kl / 2.0) - tv >= -1e-12

        pi = spectral_decomposition(zoo.random_chain(d, seed=9000 + i)).stationary
        eps = pairwise_epsilon(mu, mu_prime, pi)
        assert eps > 0
        dist_sq = pi_norm_sq(mu.mass - mu_prime.mass, pi)
        assert h2 - (eps**2.5 / 8.0) * dist_sq >= -1e-12
        assert dist_sq / eps - kl >= -1e-12
    _report(7, "sandwich, Pinsker, and both bounded-ratio inequalities hold on 1000 pairs")


def test_criterion_8_centering_mechanics():
    rng = np.random.default_rng(808)
    for i in range(200):
        d = int(rng.integers(3, 16))
        pi = spectral_decomposition(zoo.random_chain(d, seed=7000 + i)).stationary
        mass = rng.random(d) * (rng.random(d) > 0.25)
        if mass.sum() == 0:
            mass[0] = 1.0
        mu = Distribution(mass / mass.sum())
        mu_prime = _random_simplex(rng, d)
        eta = float(rng.uniform(0.05, 0.95))
        c, c_prime = centered_pair(mu, mu_prime, pi, eta)
        # Pairwise (eta/3)-boundedness as the construction guarantees it:
        # two-sided within the pair, domination of (eta/3) pi against pi.
        assert bounded_lr_epsilon(c, c_prime) >= eta / 3.0 - 1e-10
        assert np.min(c.mass / pi.mass) >= eta / 3.0 - 1e-10
        assert np.min(c_prime.mass / pi.mass) >= eta / 3.0 - 1e-10
        # Hellinger contraction by (1 - eta).
        assert hellinger_sq(c, c_prime) <= (1 - eta) * hellinger_sq(mu, mu_prime) + 1e-10
        # pi-distance scales by exactly (1 - eta).
        lhs = math.sqrt(pi_norm_sq(c.mass - c_prime.mass, pi))
        rhs = (1 - eta) * math.sqrt(pi_norm_sq(mu.mass - mu_prime.mass, pi))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, rhs)
    _report(8, "centered pairs are (eta/3)-bounded with exact (1-eta) distance scaling")


def test_criterion_9_random_chain_trends():
    start = time.monotonic()
    second, smallest = {}, {}
    for d in (100, 200, 400):
        r2, rd = [], []
        for seed in range(5):
            S = spectral_decomposition(zoo.random_chain(d, seed=seed))
            r2.append(abs(S.eigenvalue_by_abs_rank(2)) * math.sqrt(d))
            rd.append(abs(S.eigenvalue_by_abs_rank(S.d)) * d**1.5)
        second[d] = float(np.median(r2))
        smallest[d] = float(np.median(rd))
    for ratios in (second, smallest):
        values = list(ratios.values())
        assert max(values) / min(values) < 2.5, ratios
    elapsed = time.monotonic() - start
    assert elapsed < 180.0
    _report(9, f"|lam| scaling ratios stable across d (factor < 2.5, {elapsed:.1f}s)")


def test_criterion_10_statistical_time_closed_form():
    rng = np.random.default_rng(1010)
    combos = 0
    for lam in (0.9, 0.5, 0.1):
        P = zoo.two_state((1 - lam) / 2, (1 - lam) / 2)
        S = spectral_decomposition(P)
        lam_actual = abs(S.eigenvalue_by_abs_rank(2))
        u = S.left_by_abs_rank(2)
        for _ in range(17):
            alpha = float(rng.uniform(1e-4, 0.45))
            mu = Distribution(S.stationary.mass + alpha * u)
            mu_prime = Distribution(S.stationary.mass - alpha * u)
            d0 = delta_at(mu, mu_prime, S, 0)
            n = int(rng.integers(1, 10**9))
            threshold = float(rng.uniform(1e-6, 10.0))
            ratio = n * d0 / threshold
            if ratio <= 1.0 + 1e-12:
                closed = 0
            else:
                closed = max(0, math.ceil(
                    math.log(ratio) / (2.0 * math.log(1.0 / lam_actual)) - 1e-12
                ))
            assert statistical_time(P, mu, mu_prime, [n], threshold) == [closed]
            combos += 1
    assert combos >= 50
    _report(10, f"closed-form crossing time equals the scan on {combos} combinations")


def test_criterion_11_cli_determinism(tmp_path):
    runs = {
        "spectrum.csv": [
            "spectrum", "--chain", '{"type":"pachinko","r":3,"betas":[0.5,0.26,0.15,0.09]}',
        ],
        "complexity.json": [
            "complexity", "--chain", '{"type":"cycle","d":8}',
            "--mu", "extreme:[2]:auto:+", "--mu-prime", "extreme:[2]:auto:-",
            "--t", "0..5", "--epsilon", "0.2", "--format", "json",
        ],
        "window.csv": [
            "window", "--chain", '{"type":"cycle","d":8}', "--t", "0..4",
            "--epsilon", "0.2",
        ],
        "time.csv": [
            "time", "--chain", '{"type":"random_chain","d":10,"seed":2}',
            "--mu", "point:0", "--mu-prime", "stationary", "--n", "10,100,1000",
            "--threshold", "0.05",
        ],
        "simulate.json": [
            "simulate", "--chain", '{"type":"cycle","d":8}',
            "--mu", "extreme:[2]:auto:+", "--mu-prime", "extreme:[2]:auto:-",
            "--t", "2", "--n", "100", "--trials", "400", "--seed", "31415",
            "--epsilon", "0.2", "--format", "json",
        ],
    }
    for name, argv in runs.items():
        first = tmp_path / f"first-{name}"
        second = tmp_path / f"second-{name}"
        assert cli.main(argv + ["--output", str(first)]) == 0
        assert cli.main(argv + ["--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), name
    _report(11, "repeated CLI runs are byte-identical for all subcommands")

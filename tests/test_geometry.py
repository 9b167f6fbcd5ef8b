import json
import sys

import numpy as np
import pytest

from markovwindow import (
    Distribution,
    chi_square,
    evolve,
    spectral_decomposition,
    zoo,
)
from markovwindow.cli import main
from markovwindow.geometry import COEFF_FLOOR_REL, _pi_coefficients, coefficient_diff, delta_curve
from conftest import SUBNORMAL_PI_CHAIN, delta_at, pi_norm_sq, random_distribution


def test_pi_norm_examples(rng):
    pi = Distribution([0.25, 0.25, 0.5])
    assert pi_norm_sq(pi.mass, pi) == pytest.approx(1.0, abs=1e-14)
    assert pi_norm_sq(np.zeros(3), pi) == 0.0
    # ||mu - pi||_pi^2 is the chi-square divergence from pi.
    mu = random_distribution(rng, 3)
    assert pi_norm_sq(mu.mass - pi.mass, pi) == pytest.approx(
        chi_square(mu, pi), rel=1e-12
    )


def test_spectral_coefficients_stationary_is_unit_vector():
    S = spectral_decomposition(zoo.cycle(6))
    alphas = np.ldexp(*_pi_coefficients(S.stationary.mass, S))
    expected = np.zeros(6)
    expected[0] = 1.0
    np.testing.assert_allclose(alphas, expected, atol=1e-10)


def test_spectral_coefficients_shifted_pair():
    S = spectral_decomposition(zoo.cycle(8))
    u = S.left_by_abs_rank(2)
    mu = Distribution(S.stationary.mass + 0.05 * u)
    alphas = np.ldexp(*_pi_coefficients(mu.mass, S))
    assert alphas[0] == pytest.approx(1.0, abs=1e-10)
    assert alphas[S.abs_order[1]] == pytest.approx(0.05, abs=1e-12)
    others = np.delete(alphas, [0, S.abs_order[1]])
    assert np.max(np.abs(others)) < 1e-12


def test_spectral_coefficients_point_mass_matches_direct_inner_products():
    S = spectral_decomposition(zoo.cycle(4))
    mu = Distribution.point(4, 0)
    alphas = np.ldexp(*_pi_coefficients(mu.mass, S))
    direct = np.array(
        [np.sum(S.left_eigenvectors[i] * mu.mass / S.stationary.mass) for i in range(4)]
    )
    np.testing.assert_allclose(alphas, direct, atol=1e-14)
    # Reconstruction.
    rebuilt = alphas @ S.left_eigenvectors
    np.testing.assert_allclose(rebuilt, mu.mass, atol=1e-8)


def test_decay_identical_distributions(rng):
    S = spectral_decomposition(zoo.random_chain(6, seed=2))
    mu = random_distribution(rng, 6)
    for t in (0, 1, 10):
        assert delta_at(mu, mu, S, t) == 0.0


def test_decay_aligned_pair_closed_form():
    S = spectral_decomposition(zoo.cycle(8))
    # Third abs rank has |lam| = cos(pi/4).
    u = S.left_by_abs_rank(3)
    lam = S.eigenvalue_by_abs_rank(3)
    alpha = 0.04
    mu = Distribution(S.stationary.mass + alpha * u)
    mu_prime = Distribution(S.stationary.mass - alpha * u)
    for t in (0, 1, 3, 9):
        expected = 4.0 * alpha**2 * lam ** (2 * t)
        assert delta_at(mu, mu_prime, S, t) == pytest.approx(expected, rel=1e-11)


def test_decay_matches_evolution_oracle(rng):
    P = zoo.random_chain(8, seed=11)
    S = spectral_decomposition(P)
    mu, mu_prime = random_distribution(rng, 8), random_distribution(rng, 8)
    oracle = pi_norm_sq(evolve(mu, P, 7).mass - evolve(mu_prime, P, 7).mass, S.stationary)
    assert delta_at(mu, mu_prime, S, 7) == pytest.approx(oracle, abs=1e-10)


def test_decay_oracle_equivalence_across_zoo(zoo_chains, rng):
    for name, P in zoo_chains.items():
        S = spectral_decomposition(P)
        mu, mu_prime = random_distribution(rng, P.d), random_distribution(rng, P.d)
        scale = max(1.0, delta_at(mu, mu_prime, S, 0))
        cur, cur_p = mu, mu_prime
        for t in range(0, 51):
            direct = pi_norm_sq(cur.mass - cur_p.mass, S.stationary)
            assert abs(delta_at(mu, mu_prime, S, t) - direct) <= 1e-10 * scale, name
            cur, cur_p = evolve(cur, P, 1), evolve(cur_p, P, 1)


def test_decay_spectral_sandwich(zoo_chains, rng):
    for name, P in zoo_chains.items():
        S = spectral_decomposition(P)
        lam2 = abs(S.eigenvalue_by_abs_rank(2))
        lamd = abs(S.eigenvalue_by_abs_rank(S.d))
        mu, mu_prime = random_distribution(rng, P.d), random_distribution(rng, P.d)
        d0 = delta_at(mu, mu_prime, S, 0)
        for t in (1, 2, 5, 20):
            dt = delta_at(mu, mu_prime, S, t)
            assert dt <= lam2 ** (2 * t) * d0 * (1 + 1e-10) + 1e-300, name
            assert dt >= lamd ** (2 * t) * d0 * (1 - 1e-10) - 1e-300, name


def _rotate_degenerate_eigenspaces(S, rng):
    """A decomposition with every repeated eigenspace re-based by a random rotation."""
    import dataclasses

    U = S.left_eigenvectors.copy()
    lams = S.eigenvalues
    i = 0
    rotated_any = False
    while i < S.d:
        j = i
        while j + 1 < S.d and abs(lams[j + 1] - lams[i]) <= 1e-9:
            j += 1
        if j > i:
            k = j - i + 1
            R, _ = np.linalg.qr(rng.standard_normal((k, k)))
            U[i : j + 1] = R @ U[i : j + 1]
            rotated_any = True
        i = j + 1
    return dataclasses.replace(S, left_eigenvectors=U), rotated_any


def test_decay_basis_invariance_under_eigenspace_rotation(rng):
    for P in (zoo.hypercube(3), zoo.pachinko(3, [0.5, 0.26, 0.15, 0.09]), zoo.cycle(8)):
        S = spectral_decomposition(P)
        S_rot, rotated = _rotate_degenerate_eigenspaces(S, rng)
        assert rotated
        mu, mu_prime = random_distribution(rng, P.d), random_distribution(rng, P.d)
        for t in (0, 1, 4, 17):
            a = delta_at(mu, mu_prime, S, t)
            b = delta_at(mu, mu_prime, S_rot, t)
            assert abs(a - b) <= 1e-10 * max(1.0, a)


def test_subnormal_pi_keeps_coefficients_and_delta_finite(capsys):
    # pi_1 is subnormal, so 1 / pi_1 overflows: the coefficients come from an
    # exact power-of-2 scaling instead, and Delta(t) is finite wherever it
    # fits a float.  Warnings are errors here, so none may be raised.
    P = zoo.chain_from_spec(SUBNORMAL_PI_CHAIN)
    S = spectral_decomposition(P)
    pi = S.stationary.mass
    assert 0.0 < pi[1] < np.finfo(float).tiny
    mu, mu_prime = Distribution.point(2, 0), Distribution.point(2, 1)
    assert np.isfinite(coefficient_diff(mu, mu_prime, S)).all()
    argv = ["complexity", "--chain", json.dumps(SUBNORMAL_PI_CHAIN), "--mu", "point:0", "--mu-prime", "point:1",
            "--t", "0..2"]
    assert main(argv) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert rows[0][1] == "inf"  # ||mu - mu'||_pi^2 > 1 / pi_1 lies past the float range
    for t, row in zip((1, 2), rows[1:]):
        direct = float(np.sum((evolve(mu, P, t).mass - evolve(mu_prime, P, t).mass) ** 2 / pi))
        assert delta_at(mu, mu_prime, S, t) == float(row[1]) == pytest.approx(direct, rel=1e-9)
    assert [float(row[1]) for row in rows[1:]] == pytest.approx([4.8777e302, 1.2389e296], rel=1e-4)


def test_subnormal_pi_keeps_the_window_finite(capsys):
    # The window reads ln Delta(t) with the largest coefficient factored
    # out, so the squares cannot overflow.  Both pairs live on the one
    # decaying mode of the 2-state chain, so the window is 1 at every t.
    argv = ["window", "--chain", json.dumps(SUBNORMAL_PI_CHAIN), "--mu", "point:0", "--mu-prime", "point:1",
            "--gamma", "[0.5,0.5]", "--gamma-prime", "point:0", "--t", "0..2"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == ["t,window", "0,1", "1,1", "2,1"]


def test_coefficients_where_x_over_pi_is_finite_are_the_plain_product(rng):
    S = spectral_decomposition(zoo.random_chain(12, seed=3))
    mu, mu_prime = random_distribution(rng, 12), random_distribution(rng, 12)
    U, pi = S.left_eigenvectors, S.stationary.mass
    c, k = _pi_coefficients(mu.mass, S)
    assert k == 0 and c.tobytes() == (U @ (mu.mass / pi)).tobytes()
    plain = U @ ((mu.mass - mu_prime.mass) / pi)
    plain[np.abs(plain) < COEFF_FLOOR_REL * float(np.linalg.norm(plain))] = 0.0
    assert coefficient_diff(mu, mu_prime, S).tobytes() == plain.tobytes()


@pytest.mark.parametrize("d", [4, 300], ids=["projection", "products"])
def test_delta_curve_of_an_empty_grid_is_empty(d):
    P = zoo.cycle(d)
    assert delta_curve(P, Distribution.point(d, 0), Distribution.point(d, 1), []).shape == (0,)


def test_delta_near_the_float_limit_is_no_nan(capsys):
    # 2t would overflow here; the kernel doubles the log rates instead, so t
    # up to the largest float reads inf or 0 for a decaying share, never nan.
    # Warnings are errors here, so none may be raised.
    largest = int(sys.float_info.max)
    assert main(["window", "--chain", '{"type":"cycle","d":9}', "--t", f"0,{largest}"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["0,1", f"{largest},inf"]
    argv = ["complexity", "--chain", '{"type":"cycle","d":8}', "--mu", "point:0", "--mu-prime", "point:1",
            "--t", f"{int(9e307)}"]
    assert main(argv) == 0
    # The permanent mode of lambda = -1 holds Delta(t) at 4 (rounded), where every other one has died.
    assert capsys.readouterr().out.splitlines()[1].split(",")[1] == "4.0000000000000044"

import numpy as np
import pytest

from markovwindow import (
    NotReversible,
    TransitionMatrix,
    spectral_decomposition,
    stationary_distribution,
    zoo,
)


def spectra_match(computed, closed_form, atol=1e-9):
    np.testing.assert_allclose(np.sort(computed), np.sort(closed_form), atol=atol)


def test_cycle_examples():
    spectra_match(spectral_decomposition(zoo.cycle(4)).eigenvalues, [1, 0, 0, -1])
    spectra_match(spectral_decomposition(zoo.cycle(3)).eigenvalues, [1, -0.5, -0.5])


def test_cycle8_extreme_eigenvalues():
    S = spectral_decomposition(zoo.cycle(8))
    assert S.eigenvalue_by_abs_rank(2) == -1.0
    assert S.eigenvalue_by_abs_rank(8) == 0.0


def test_bipartite_clique_spectrum():
    S = spectral_decomposition(zoo.bipartite_clique(6))
    spectra_match(S.eigenvalues, [1, -1, 0, 0, 0, 0])
    # The -1 eigenvector separates the two sides.
    u = S.left_by_abs_rank(2)
    signs = np.sign(u)
    assert np.all(signs[:3] == signs[0]) and np.all(signs[3:] == -signs[0])


def test_hypercube_small():
    spectra_match(spectral_decomposition(zoo.hypercube(2)).eigenvalues, [1, 0, 0, -1])


def test_rejects_nonreversible():
    perm = TransitionMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    with pytest.raises(NotReversible):
        spectral_decomposition(perm)


@pytest.mark.parametrize("name", ["cycle7", "line6", "pachinko3", "random12", "product2"])
def test_decomposition_invariants(name, zoo_chains):
    P = zoo_chains[name]
    S = spectral_decomposition(P)
    pi = S.stationary.mass
    U, V, lams = S.left_eigenvectors, S.right_eigenvectors, S.eigenvalues

    # pi-orthonormality of the left eigenvectors.
    gram = U @ (U / pi[None, :]).T
    assert np.max(np.abs(gram - np.eye(P.d))) < 1e-8

    # Left eigenvector equations u_i P = lam_i u_i.
    assert np.max(np.abs(U @ P.entries - lams[:, None] * U)) < 1e-8

    # u_i = Pi v_i, u_1 = pi, v_1 = ones.
    assert np.max(np.abs(U - pi[None, :] * V)) < 1e-12
    np.testing.assert_array_equal(U[0], pi)
    np.testing.assert_allclose(V[0], 1.0, atol=1e-12)

    # Rows i >= 2 sum to zero.
    assert np.max(np.abs(U[1:].sum(axis=1))) < 1e-8

    # Sorted descending; abs_order is a permutation, |lam| nonincreasing.
    assert np.all(np.diff(lams) <= 1e-15)
    assert sorted(S.abs_order.tolist()) == list(range(P.d))
    abs_sorted = np.abs(lams[S.abs_order])
    assert np.all(np.diff(abs_sorted) <= 1e-15)
    assert S.abs_order[0] == 0 and lams[0] == 1.0

    # Sign convention: first non-negligible coordinate positive.
    for row in U:
        idx = np.nonzero(np.abs(row) > 1e-10 * np.max(np.abs(row)))[0]
        assert row[idx[0]] > 0

    # Stationary cross-checks.
    assert np.max(np.abs(pi @ P.entries - pi)) < 1e-10
    np.testing.assert_allclose(pi, stationary_distribution(P).mass, atol=1e-12)


def test_reconstruction_random_chains():
    # P = sum_i lam_i v_i u_i^T for random reversible chains up to d = 64.
    for d, seed in [(8, 0), (23, 1), (64, 2)]:
        P = zoo.random_chain(d, seed=seed)
        S = spectral_decomposition(P)
        rebuilt = (
            S.right_eigenvectors.T * S.eigenvalues[None, :]
        ) @ S.left_eigenvectors
        assert np.max(np.abs(rebuilt - P.entries)) < 1e-8


def test_abs_order_tie_breaks_prefer_positive():
    # Cycle 8 has |lam| = 1 twice (1 and -1): +1 must take abs rank 1.
    S = spectral_decomposition(zoo.cycle(8))
    assert S.eigenvalue_by_abs_rank(1) == 1.0
    assert S.abs_multiplicity(2) == 1
    # cos(2 pi / 8) appears twice.
    assert S.abs_multiplicity(3) == 2


def test_evolution_coefficients_scale_by_eigenvalue_powers(rng, zoo_chains):
    # <u_i, mu P^t>_pi = lam_i^t <u_i, mu>_pi.
    from markovwindow import evolve, spectral_coefficients
    from conftest import random_distribution

    P = zoo_chains["random12"]
    S = spectral_decomposition(P)
    mu = random_distribution(rng, P.d)
    t = 6
    before = spectral_coefficients(mu, S)
    after = spectral_coefficients(evolve(mu, P, t), S)
    np.testing.assert_allclose(after, before * S.eigenvalues**t, atol=1e-8)

import math

import numpy as np
import pytest

from markovwindow import (
    Distribution,
    DimensionMismatch,
    InvalidParameter,
    NotIrreducible,
    NotReversible,
    TransitionMatrix,
    check_reversible,
    evolve,
    lazy,
    stationary_distribution,
    symmetrize,
    total_variation,
    zoo,
)
from conftest import random_distribution


def test_distribution_validation():
    Distribution([0.5, 0.5])
    with pytest.raises(InvalidParameter):
        Distribution([0.5, 0.6])
    with pytest.raises(InvalidParameter):
        Distribution([1.2, -0.2])
    with pytest.raises(InvalidParameter):
        Distribution([math.nan, 1.0])
    with pytest.raises(InvalidParameter):
        Distribution([math.inf, 0.0])
    d = Distribution([0.25, 0.75])
    with pytest.raises(ValueError):
        d.mass[0] = 0.9  # read-only backing array


def test_transition_matrix_validation():
    TransitionMatrix([[0.5, 0.5], [0.3, 0.7]])
    with pytest.raises(InvalidParameter):
        TransitionMatrix([[0.5, 0.6], [0.3, 0.7]])
    with pytest.raises(InvalidParameter):
        TransitionMatrix([[1.5, -0.5], [0.3, 0.7]])
    with pytest.raises(InvalidParameter):
        TransitionMatrix([[1.0]])
    with pytest.raises(InvalidParameter):
        TransitionMatrix([[math.nan, 0.5], [0.5, 0.5]])
    # Reducible values are representable; the consuming ops reject them.
    block_diag = TransitionMatrix(np.eye(4))
    assert not block_diag.is_irreducible
    with pytest.raises(NotIrreducible):
        stationary_distribution(block_diag)


def test_stationary_cycle_uniform():
    # Doubly stochastic, so the stationary distribution is uniform.
    pi = stationary_distribution(zoo.cycle(4))
    np.testing.assert_allclose(pi.mass, 0.25, atol=1e-12)


def test_stationary_two_state():
    # Flip rates p=0.3, q=0.1 give (q, p)/(p + q) = (0.25, 0.75).
    pi = stationary_distribution(zoo.two_state(0.3, 0.1))
    np.testing.assert_allclose(pi.mass, [0.25, 0.75], atol=1e-12)
    assert np.max(np.abs(pi.mass @ zoo.two_state(0.3, 0.1).entries - pi.mass)) < 1e-10


def test_stationary_pachinko_uniform():
    P = zoo.pachinko(3, [0.5, 0.26, 0.15, 0.09])
    pi = stationary_distribution(P)
    np.testing.assert_allclose(pi.mass, 1.0 / 8.0, atol=1e-12)


def test_check_reversible_symmetric():
    P = zoo.cycle(5)
    assert check_reversible(P, Distribution.uniform(5))


def test_check_reversible_two_state():
    # Detailed balance: 0.25 * 0.3 == 0.75 * 0.1.
    P = zoo.two_state(0.3, 0.1)
    assert abs(0.25 * 0.3 - 0.75 * 0.1) < 1e-15
    assert check_reversible(P, Distribution([0.25, 0.75]))


def test_check_reversible_rejects_directed_cycle():
    perm = TransitionMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert not check_reversible(perm, Distribution.uniform(3))


def test_check_reversible_needs_positive_pi():
    with pytest.raises(InvalidParameter):
        check_reversible(zoo.cycle(3), Distribution([1.0, 0.0, 0.0]))


def test_symmetrize_symmetric_chain_is_identity_map():
    P = zoo.cycle(6)
    Q = symmetrize(P, Distribution.uniform(6))
    np.testing.assert_allclose(Q, P.entries, atol=1e-14)


def test_symmetrize_two_state():
    P = zoo.two_state(0.3, 0.1)
    Q = symmetrize(P, Distribution([0.25, 0.75]))
    assert Q[0, 1] == pytest.approx(np.sqrt(0.03), abs=1e-14)
    assert Q[1, 0] == pytest.approx(np.sqrt(0.03), abs=1e-14)


def test_symmetrize_identity_chain():
    ident = TransitionMatrix(np.eye(3))
    np.testing.assert_allclose(symmetrize(ident, Distribution.uniform(3)), np.eye(3))


def test_symmetrize_rejects_nonreversible():
    perm = TransitionMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    with pytest.raises(NotReversible):
        symmetrize(perm, Distribution.uniform(3))


def test_lazy_endpoints():
    P = zoo.cycle(4)
    np.testing.assert_array_equal(lazy(P, 0.0).entries, P.entries)
    np.testing.assert_allclose(lazy(P, 1.0).entries, np.eye(4))
    with pytest.raises(InvalidParameter):
        lazy(P, 1.5)


def test_lazy_spectrum_affine_map():
    # Multiset of eigenvalues maps to (1 - q) lam + q; cycle d=4 at q=1/2
    # gives {1, 1/2, 1/2, 0}.
    P = zoo.cycle(4)
    lams = np.sort(np.linalg.eigvalsh(lazy(P, 0.5).entries))
    np.testing.assert_allclose(lams, [0.0, 0.5, 0.5, 1.0], atol=1e-12)
    for q in (0.2, 0.7):
        base = np.sort(np.linalg.eigvalsh(zoo.pachinko(2, [0.6, 0.3, 0.1]).entries))
        lazied = np.sort(
            np.linalg.eigvalsh(lazy(zoo.pachinko(2, [0.6, 0.3, 0.1]), q).entries)
        )
        np.testing.assert_allclose(lazied, (1 - q) * base + q, atol=1e-8)


def test_lazy_preserves_stationary():
    P = zoo.random_chain(9, seed=1)
    pi = stationary_distribution(P)
    pi_lazy = stationary_distribution(lazy(P, 0.3))
    np.testing.assert_allclose(pi.mass, pi_lazy.mass, atol=1e-11)


def test_evolve_basics(rng):
    P = zoo.cycle(5)
    mu = random_distribution(rng, 5)
    np.testing.assert_array_equal(evolve(mu, P, 0).mass, mu.mass)
    pi = stationary_distribution(P)
    np.testing.assert_allclose(evolve(pi, P, 13).mass, pi.mass, atol=1e-13)
    with pytest.raises(DimensionMismatch):
        evolve(Distribution.uniform(4), P, 1)
    with pytest.raises(InvalidParameter):
        evolve(mu, P, -1)


def test_evolve_matches_matrix_power(rng):
    P = zoo.random_chain(6, seed=8)
    mu = random_distribution(rng, 6)
    expected = mu.mass @ np.linalg.matrix_power(P.entries, 9)
    np.testing.assert_allclose(evolve(mu, P, 9).mass, expected, atol=1e-13)


def test_evolve_bipartite_point_mass_spreads_to_other_side():
    # One step from a left node lands uniformly on the right side.
    P = zoo.bipartite_clique(6)
    out = evolve(Distribution.point(6, 0), P, 1)
    np.testing.assert_allclose(out.mass, [0, 0, 0, 1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_evolve_tv_to_stationarity_monotone(zoo_chains, rng):
    # TV to pi never increases; for aperiodic chains it heads to 0.
    for name, P in zoo_chains.items():
        pi = stationary_distribution(P)
        mu = Distribution.point(P.d, 0)
        last = total_variation(mu, pi)
        current = mu
        for _ in range(200):
            current = evolve(current, P, 1)
            now = total_variation(current, pi)
            assert now <= last + 1e-12, name
            last = now
        lams = np.abs(np.linalg.eigvalsh(
            np.sqrt(pi.mass)[:, None] / np.sqrt(pi.mass)[None, :] * P.entries
        ))
        aperiodic = np.sort(lams)[-2] < 1.0 - 1e-9
        if aperiodic:
            assert last < 0.01, name

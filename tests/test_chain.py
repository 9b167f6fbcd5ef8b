import math
import re
import sys

import numpy as np
import pytest

from markovwindow import (
    Distribution,
    DimensionMismatch,
    InvalidParameter,
    NotIrreducible,
    NotReversible,
    TestingInstance,
    TransitionMatrix,
    bounded_lr_epsilon,
    delta_curve,
    draw_sample,
    estimate_error,
    evolve,
    exact_lr_error,
    exact_product_tv,
    extreme_pairs,
    lazy,
    spectral_decomposition,
    statistical_time,
    stationary_distribution,
    symmetrize,
    zoo,
)
from markovwindow.chain import _check_step
from markovwindow.geometry import coefficient_diff
from conftest import random_distribution, total_variation


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
    for not_a_vector in ([], [[1.0]]):
        with pytest.raises(InvalidParameter, match="^distribution must be a nonempty vector$"):
            Distribution(not_a_vector)
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
    with pytest.raises(NotIrreducible):  # the verdict's first question
        symmetrize(block_diag)


def _two_sweep_irreducible(entries) -> bool:
    """Reference: a forward and a backward reachability sweep from state 0."""
    support = np.asarray(entries) > 0
    for adj in (support, support.T):
        seen = np.zeros(len(support), dtype=bool)
        seen[0] = True
        frontier = [0]
        while frontier:
            new = adj[frontier].any(axis=0) & ~seen
            seen |= new
            frontier = list(new.nonzero()[0])
        if not seen.all():
            return False
    return True


@pytest.mark.parametrize("entries", [
    np.roll(np.eye(3), 1, axis=1),  # strongly connected, though no edge runs both ways
    np.kron(np.eye(2), np.full((2, 2), 0.5)),  # symmetric support, two classes
    [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.5, 0.5]],  # nothing leads into state 2
    [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]],  # nothing leads back to state 0
    zoo.line(5).entries,  # symmetric support, irreducible
], ids=["directed cycle", "block-diagonal", "one-way into", "one-way out", "line"])
def test_not_irreducible_from_the_same_inputs(entries):
    P = TransitionMatrix(entries)
    assert P.is_irreducible == _two_sweep_irreducible(entries)
    if not P.is_irreducible:
        with pytest.raises(NotIrreducible):
            stationary_distribution(P)
    elif not np.array_equal(P.entries > 0, P.entries.T > 0):  # no tree, so no pi: refused as symmetrize refuses
        with pytest.raises(NotReversible, match="an edge has no reverse edge"):
            stationary_distribution(P)
    else:
        stationary_distribution(P)


def test_transition_matrix_owns_its_entries():
    caller = np.array([[0.5, 0.5], [0.3, 0.7]])
    P = TransitionMatrix(caller)
    caller[0] = [1.0, 0.0]  # the public constructor copied the caller's array
    np.testing.assert_array_equal(P.entries, [[0.5, 0.5], [0.3, 0.7]])
    # Constructors hand their fresh arrays over uncopied, but frozen and checked.
    Q = lazy(zoo.random_chain(5, seed=1), 0.3)
    for chain in (zoo.cycle(5), zoo.random_chain(5, seed=1), Q):
        assert not chain.entries.flags.writeable
    base = zoo.random_chain(5, seed=1).entries
    assert Q.entries.tobytes() == (0.7 * base + 0.3 * np.eye(5)).tobytes()
    with pytest.raises(InvalidParameter):
        TransitionMatrix._adopt(np.array([[0.5, 0.6], [0.3, 0.7]]))


def test_stationary_cycle_uniform():
    # Doubly stochastic, so the stationary distribution is uniform.
    pi = stationary_distribution(zoo.cycle(4))
    np.testing.assert_allclose(pi.mass, 0.25, atol=1e-12)


def test_stationary_two_state():
    # Flip rates p=0.3, q=0.1 give (q, p)/(p + q) = (0.25, 0.75).
    pi = stationary_distribution(zoo.two_state(0.3, 0.1))
    np.testing.assert_allclose(pi.mass, [0.25, 0.75], atol=1e-12)
    assert np.max(np.abs(pi.mass @ zoo.two_state(0.3, 0.1).entries - pi.mass)) < 1e-10


def test_symmetric_support_that_is_not_reversible_is_refused(monkeypatch):
    # Every entry positive, so the support is symmetric and the tree exists,
    # but detailed balance fails: the flows of the tree's pi miss the flow
    # rule, and stationary_distribution and symmetrize refuse the chain with
    # the same message and no dense solve.
    rng = np.random.default_rng(4)
    weights = rng.random((6, 6)) + 0.1
    P = TransitionMatrix(weights / weights.sum(axis=1, keepdims=True))
    F = P._tree_pi.mass[:, None] * P.entries
    worst = np.max(np.abs(F - F.T) / (F + F.T))
    assert worst > 1e-10
    monkeypatch.setattr(np.linalg, "solve", None)
    for fn in (stationary_distribution, symmetrize):
        with pytest.raises(NotReversible, match=re.escape(f"relative flow gap {worst:.3e} exceeds 5e-11")):
            fn(P)


def test_tree_pi_of_a_chain_that_is_not_reversible_but_stationary():
    # Uniform P = 1/4 plus a circulation c on the triangle 1 -> 2 -> 3 -> 1,
    # off the tree (the star from state 0): the chain stays doubly
    # stochastic, so the tree pi is uniform and stationary, but the flows
    # around the triangle differ by (0.25 + c - (0.25 - c)) / 0.5 = 0.4 of
    # their sum.  A stationary pi is not a verdict: both functions refuse it.
    c = 0.1
    P = np.full((4, 4), 0.25)
    for i, j in ((1, 2), (2, 3), (3, 1)):
        P[i, j] += c
        P[j, i] -= c
    P = TransitionMatrix(P)
    pi = P._tree_pi.mass
    assert pi.tobytes() == Distribution.uniform(4).mass.tobytes()
    assert np.max(np.abs(pi @ P.entries - pi)) <= 1e-16
    for fn in (stationary_distribution, symmetrize):
        with pytest.raises(NotReversible, match=re.escape("relative flow gap 4.000e-01")):
            fn(P)


def test_tree_stationary_past_the_exp_range():
    # P_01 / P_10 = 5e319 overflows; pi_0 = 2e-320 is subnormal but a float.
    pi = stationary_distribution(TransitionMatrix([[0.5, 0.5], [1e-320, 1.0]])).mass
    assert pi[1] == 1.0 and pi[0] == pytest.approx(2e-320, rel=1e-3)


def test_stationary_pachinko_uniform():
    P = zoo.pachinko(3, [0.5, 0.26, 0.15, 0.09])
    pi = stationary_distribution(P)
    np.testing.assert_allclose(pi.mass, 1.0 / 8.0, atol=1e-12)


def test_check_reversible_symmetric():
    # The verdict is symmetrize's: a symmetric chain passes, on the uniform tree pi.
    P = zoo.cycle(5)
    symmetrize(P)
    assert P._tree_pi.mass.tobytes() == Distribution.uniform(5).mass.tobytes()


def test_check_reversible_two_state():
    # Detailed balance: 0.25 * 0.3 == 0.75 * 0.1.
    P = zoo.two_state(0.3, 0.1)
    assert abs(0.25 * 0.3 - 0.75 * 0.1) < 1e-15
    symmetrize(P)
    np.testing.assert_allclose(P._tree_pi.mass, [0.25, 0.75], rtol=1e-15)


def test_check_reversible_rejects_directed_cycle():
    perm = TransitionMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    with pytest.raises(NotReversible, match="an edge has no reverse edge"):
        symmetrize(perm)


def test_symmetrize_symmetric_chain_is_identity_map():
    P = zoo.cycle(6)
    Q = symmetrize(P)
    np.testing.assert_allclose(Q, P.entries, atol=1e-14)


def test_symmetrize_two_state():
    P = zoo.two_state(0.3, 0.1)
    Q = symmetrize(P)
    assert Q[0, 1] == pytest.approx(np.sqrt(0.03), abs=1e-14)
    assert Q[1, 0] == pytest.approx(np.sqrt(0.03), abs=1e-14)


def test_symmetrize_rejects_nonreversible():
    perm = TransitionMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    with pytest.raises(NotReversible):
        symmetrize(perm)


def test_chain_keeps_no_q_when_not_reversible():
    perm = TransitionMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    for _ in range(2):  # nothing cached by the first failure
        with pytest.raises(NotReversible):
            spectral_decomposition(perm)
    assert "_pi" not in vars(perm)
    # Nor when it is: Q lives only inside the decomposition, and the chain keeps no array but P.
    P = zoo.random_chain(6, seed=1)
    spectral_decomposition(P)
    assert [name for name, value in vars(P).items() if isinstance(value, np.ndarray)] == ["entries"]


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


P2 = zoo.two_state(0.25, 0.25)
MU, MU_PRIME = Distribution([0.75, 0.25]), Distribution([0.25, 0.75])
INST = TestingInstance(chain=P2, mu=MU, mu_prime=MU_PRIME, t=1)

# Every entry point that takes a count: (call with the count, an out-of-range
# whole value, the message prefix it must raise).
N_MESSAGE = "n must be a positive integer"
T_MESSAGE = "t must be a nonnegative integer"
COUNT_CHECKS = {
    "statistical_time n": (lambda n: statistical_time(P2, MU, MU_PRIME, [n], 0.1), 0, N_MESSAGE),
    "draw_sample n": (lambda n: draw_sample(MU, n, seed=1), 0, N_MESSAGE),
    "estimate_error n": (lambda n: estimate_error(INST, n, trials=100, seed=1), 0, N_MESSAGE),
    "estimate_error trials": (lambda m: estimate_error(INST, 5, trials=m, seed=1), 99,
                              "need at least 100 trials"),
    "exact_lr_error n": (lambda n: exact_lr_error(MU, MU_PRIME, n), 0, N_MESSAGE),
    "exact_product_tv n": (lambda n: exact_product_tv(MU, MU_PRIME, n), 0, N_MESSAGE),
    "evolve t": (lambda t: evolve(MU, P2, t), -1, T_MESSAGE),
    "TestingInstance t": (lambda t: TestingInstance(chain=P2, mu=MU, mu_prime=MU_PRIME, t=t), -1,
                          T_MESSAGE),
    "zoo.cycle d": (zoo.cycle, 2, "cycle needs d >= 3"),
    "zoo.line d": (zoo.line, 2, "line needs d >= 3"),
    "zoo.bipartite_clique d": (zoo.bipartite_clique, 2, "bipartite clique needs even d >= 4"),
    "zoo.hypercube k": (zoo.hypercube, 0, "hypercube needs 1 <= k <= 62"),
    "zoo.blockmodel2 d": (lambda d: zoo.blockmodel2(d, 2, 1), 2, "blockmodel2 needs even d >= 4"),
    "zoo.pachinko r": (lambda r: zoo.pachinko(r, [0.6, 0.4]), 0, "pachinko needs r >= 1"),
    "zoo.random_chain d": (lambda d: zoo.random_chain(d, seed=1), 1, "random_chain needs d >= 2"),
    "zoo.random_chain seed": (lambda s: zoo.random_chain(5, seed=s), -1,
                              "seed must be a nonnegative integer"),
    "Distribution.uniform d": (Distribution.uniform, 0, "d must be a positive integer"),
    "Distribution.point d": (lambda d: Distribution.point(d, 0), 0, "d must be a positive integer"),
    "Distribution.point i": (lambda i: Distribution.point(4, i), 4, "point index must lie in [0, 4)"),
}


@pytest.mark.parametrize("entry", sorted(COUNT_CHECKS))
@pytest.mark.parametrize("value", ["nan", "inf", "fraction", "small fraction", "out of range"])
def test_counts_reject_non_integers_with_invalid_parameter(entry, value):
    call, out_of_range, message = COUNT_CHECKS[entry]
    bad = {"nan": math.nan, "inf": math.inf, "fraction": 150.5, "small fraction": 2.5,
           "out of range": out_of_range}[value]
    with pytest.raises(InvalidParameter, match=f"^{re.escape(message)}, got"):
        call(bad)


# Every entry point whose count its computation can only take up to a limit:
# (call with the count, the largest count accepted, the message prefix past it).
# time converts n to a float; the sampler hands n to numpy as a 64-bit int.
COUNT_LIMITS = {
    "statistical_time n": (lambda n: statistical_time(P2, MU, MU_PRIME, [n], 0.1), int(sys.float_info.max),
                           "n must be at most 1.7976931348623157e+308"),
    "draw_sample n": (lambda n: draw_sample(MU, n, seed=1), 2**63 - 1, "n must be below 2^63"),
    "estimate_error n": (lambda n: estimate_error(INST, n, trials=100, seed=1), 2**63 - 1, "n must be below 2^63"),
}


@pytest.mark.parametrize("entry", sorted(COUNT_LIMITS))
def test_counts_past_their_limit_raise_invalid_parameter(entry):
    call, largest, message = COUNT_LIMITS[entry]
    call(largest)
    for bad in (largest + 1, 10**400):
        with pytest.raises(InvalidParameter, match=f"^{re.escape(message)}, got {bad}$"):
            call(bad)


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


# Every argument guard of the API outside the counts above: (call, the error
# it must raise, the message prefix).  The sized ones pass a 3-state input
# where the others have 4 states.
C4 = zoo.cycle(4)
S4 = spectral_decomposition(C4)
U3, U4 = Distribution.uniform(3), Distribution.uniform(4)
POINT4 = Distribution.point(4, 0)
GUARDS = {
    "coefficient_diff": (lambda: coefficient_diff(U3, U4, S4), DimensionMismatch, "distribution / decomposition"),
    "bounded_lr_epsilon": (lambda: bounded_lr_epsilon(U3, U4), DimensionMismatch, "distributions have 3 and 4"),
    "TestingInstance": (lambda: TestingInstance(chain=C4, mu=U3, mu_prime=U4, t=0), DimensionMismatch,
                        "distribution / chain size mismatch"),
    "TransitionMatrix non-square": (lambda: TransitionMatrix(np.full((2, 3), 1.0 / 3.0)), InvalidParameter,
                                    "transition matrix must be square"),
    "delta_curve t = -1": (lambda: delta_curve(C4, POINT4, U4, [0, -1]), InvalidParameter, "t must be a nonnegative"),
    "delta_curve t = 0.5": (lambda: delta_curve(C4, POINT4, U4, [0.5]), InvalidParameter, "t must be a nonnegative"),
    "delta_curve t = nan": (lambda: delta_curve(C4, POINT4, U4, [math.nan]), InvalidParameter,
                            "t must be a nonnegative"),
    # Above 256 states and at t <= d / 4, before the products of P run.
    "delta_curve size": (lambda: delta_curve(zoo.cycle(300), Distribution.point(299, 0), Distribution.uniform(300),
                                             [0, 1]), DimensionMismatch, "distribution / chain size mismatch"),
    "delta_curve size, empty grid": (lambda: delta_curve(C4, U3, U4, []), DimensionMismatch,
                                     "distribution / chain size mismatch"),
    "statistical_time threshold 0": (lambda: statistical_time(P2, MU, MU_PRIME, [10], 0.0), InvalidParameter,
                                     "threshold must be positive"),
    "extreme_pairs two_state": (lambda: extreme_pairs(P2, 0.2), InvalidParameter, "extreme pairs need d >= 3"),
    "extreme_pairs epsilon -0.5": (lambda: extreme_pairs(C4, -0.5), InvalidParameter,
                                   "epsilon_target must be finite and nonnegative, got -0.5"),
    "TestingInstance t = 10**400": (lambda: TestingInstance(chain=C4, mu=Distribution.point(4, 0), mu_prime=U4,
                                                            t=10**400),
                                    InvalidParameter, "t must be a nonnegative integer within the float range"),
    "_check_step t = 10**400": (lambda: _check_step(10**400), InvalidParameter,
                                "t must be a nonnegative integer within the float range"),
    "hypercube_product no params": (lambda: zoo.hypercube_product([1.0], []), InvalidParameter,
                                    "need one (p, q) pair per weight"),
    "pachinko negative beta": (lambda: zoo.pachinko(1, [1.2, -0.2]), InvalidParameter, "betas must be positive"),
    "chain_from_spec k": (lambda: zoo.chain_from_spec(
        {"type": "hypercube_product", "k": 1, "weights": [1.0], "params": [[0.5, 0.5]]}),
        InvalidParameter, "unexpected fields for 'hypercube_product': ['k']"),
    "blockmodel2 odd degrees": (lambda: zoo.chain_from_spec(
        {"type": "blockmodel2", "d": 6, "intra_degree": 1, "inter_degree": 1}),
        InvalidParameter, "odd intra-degree 1 needs the antipodal offset"),
}


@pytest.mark.parametrize("entry", sorted(GUARDS))
def test_api_guards_raise_their_error(entry):
    call, error, message = GUARDS[entry]
    with pytest.raises(error, match=f"^{re.escape(message)}"):
        call()

"""Property tests over random reversible chains and random pairs.

Chains are random_chain(d) for d in [3, 120], products of two-state chains
(hypercube_product) and blockmodel2, whose eigenvalues are degenerate; each
may be made lazy so that crossing times grow.  Pairs are random points of
the simplex, with full or partial support.  The oracles stay off the code path under test: evolve by
repeated products, a linear scan over t in place of the bisection, and the
window identity (lambda_[2] / lambda_[d])^{2t} on the extreme pairs and the
ratio of four Delta values on random pairs; the last property is the
ordering the two thresholds must keep for delta < 1/2.  The public bounds
and the witness's n are checked against the complexity command's columns.
Irreducibility, and NotIrreducible from the stationary solve, are checked on
random digraphs against the transitive closure of I + A.  The tree solve for
pi is checked against the dense solve on random reversible chains, and
against the closed-form pi of slow hypercube products.
"""

import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovwindow import (
    MarkovWindowError,
    NotIrreducible,
    NotReversible,
    TestingInstance,
    TransitionMatrix,
    complexity_report,
    delta_curve,
    evolve,
    extreme_pairs,
    general_upper_bound,
    lazy,
    lower_bound_witness,
    sample_lower_bound,
    sample_upper_bound,
    spectral_decomposition,
    statistical_time,
    statistical_window,
    stationary_distribution,
    symmetrize,
    zoo,
)
from markovwindow.chain import REVERSIBILITY_TOL
from markovwindow.complexity import CROSSING_SLACK, _complexity_columns, pairwise_epsilon
from conftest import accepted, delta_at, pi_norm_sq, random_distribution, with_cycle_flow

dims = st.integers(min_value=3, max_value=120)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def chains(draw):
    """random_chain(d) for d in [3, 120]; hypercube_product of 2 to 6 two-state
    chains, with weights of at least 1/(2k) and flip rates in [0.05, 0.95], so
    -1 is no eigenvalue; or blockmodel2 on d in [4, 120] with random degrees.
    Each may be made lazy.  blockmodel2 always is, because its graph can be
    bipartite, and then -1 is an eigenvalue and no crossing time exists."""
    family = draw(st.sampled_from(["random_chain", "hypercube_product", "blockmodel2"]))
    is_lazy = draw(st.booleans())
    if family == "random_chain":
        P = zoo.random_chain(draw(dims), seed=draw(seeds))
    elif family == "hypercube_product":
        k = draw(st.integers(min_value=2, max_value=6))
        rng = np.random.default_rng(draw(seeds))
        weights = 0.5 / k + 0.5 * rng.dirichlet(np.ones(k))
        P = zoo.hypercube_product(weights / weights.sum(), rng.uniform(0.05, 0.95, (k, 2)).tolist())
    else:
        m = draw(st.integers(min_value=2, max_value=60))
        inter = draw(st.integers(min_value=1, max_value=m))
        # Offset 1 inside each block (intra >= 2) keeps the chain irreducible.
        intra = 1 if m == 2 else draw(st.integers(min_value=2, max_value=m - 1))
        if intra % 2 == 1 and m % 2 == 1:  # an odd degree needs the antipodal offset
            intra += 1
        P = zoo.blockmodel2(2 * m, intra, inter)
        is_lazy = True
    return lazy(P, 0.5) if is_lazy else P


def chain_and_pair(P, pair_seed, full_support):
    d = P.d
    rng = np.random.default_rng(pair_seed)
    mu = random_distribution(rng, d, full_support)
    mu_prime = random_distribution(rng, d, full_support)
    return P, mu, mu_prime


@settings(max_examples=80)
@given(chains(), seeds, st.booleans(),
       st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=12))
def test_delta_curve_matches_evolve(P, pair_seed, full_support, ts):
    P, mu, mu_prime = chain_and_pair(P, pair_seed, full_support)
    S = spectral_decomposition(P)
    curve = delta_curve(P, mu, mu_prime, ts)
    direct = []
    cur, cur_p = mu, mu_prime
    for _ in range(max(ts) + 1):
        direct.append(pi_norm_sq(cur.mass - cur_p.mass, S.stationary))
        cur, cur_p = evolve(cur, P, 1), evolve(cur_p, P, 1)
    scale = max(1.0, direct[0])
    for t, value in zip(ts, curve):
        assert abs(value - direct[t]) <= 1e-9 * scale
        assert value == delta_at(mu, mu_prime, S, t)


@settings(max_examples=80)
@given(chains(), seeds, st.booleans(),
       st.integers(min_value=1, max_value=10**8), st.floats(min_value=1e-6, max_value=1.0),
       st.lists(st.integers(min_value=1, max_value=10**8), max_size=4))
def test_statistical_time_is_the_first_crossing(P, pair_seed, full_support, n, threshold, more_ns):
    P, mu, mu_prime = chain_and_pair(P, pair_seed, full_support)
    S = spectral_decomposition(P)
    deltas = []  # Delta(0), Delta(1), ... as far as a scan has read

    def crossed(m, t):
        while len(deltas) <= t:
            deltas.append(delta_at(mu, mu_prime, S, len(deltas)))
        return m * deltas[t] <= threshold * (1.0 + CROSSING_SLACK)

    # One projection for many n: each t* is its own n's first crossing.
    ns = [n, *more_ns, n]
    t_stars = statistical_time(P, mu, mu_prime, ns, threshold)
    assert len(t_stars) == len(ns)
    for m, t_star in zip(ns, t_stars):
        assert t_star == next(t for t in itertools.count() if crossed(m, t))
        assert crossed(m, t_star)
        assert t_star == 0 or not crossed(m, t_star - 1)


@settings(max_examples=80)
@given(chains(), st.integers(min_value=0, max_value=400))
def test_extreme_pair_window_is_the_identity(P, t):
    ext = extreme_pairs(P, 0.2)
    (got,) = statistical_window(P, ext.pair_a, ext.pair_b, [t])
    if t == 0:
        assert got == 1.0
        return
    if ext.lambda_d == 0.0:
        assert got == math.inf
        return
    exponent = 2.0 * t * (math.log(abs(ext.lambda_2)) - math.log(abs(ext.lambda_d)))
    if exponent > math.log(sys.float_info.max):
        assert got == math.inf
    else:
        assert abs(got - math.exp(exponent)) <= 1e-9 * math.exp(exponent)


@settings(max_examples=80)
@given(chains(), seeds, st.booleans(), st.integers(min_value=0, max_value=200))
def test_random_pair_window_is_the_ratio_of_decays(P, pair_seed, full_support, t):
    rng = np.random.default_rng(pair_seed)
    pair_a, pair_b = [tuple(random_distribution(rng, P.d, full_support) for _ in range(2)) for _ in range(2)]
    S = spectral_decomposition(P)
    a_t, a_0, b_t, b_0 = (delta_at(*pair, S, s) for pair in (pair_a, pair_b) for s in (t, 0))
    if not all(sys.float_info.min <= x <= sys.float_info.max for x in (a_t, a_0, b_t, b_0)):
        return
    expected = (a_t / b_t) * (b_0 / a_0)
    assert statistical_window(P, pair_a, pair_b, [t])[0] == pytest.approx(expected, rel=1e-9, abs=0.0)


@settings(max_examples=80)
@given(chains(), seeds, st.booleans(),
       st.integers(min_value=0, max_value=40), st.floats(min_value=1e-3, max_value=0.499))
def test_lower_threshold_below_upper(P, pair_seed, full_support, t, delta):
    P, mu, mu_prime = chain_and_pair(P, pair_seed, full_support)
    rep = complexity_report(TestingInstance(chain=P, mu=mu, mu_prime=mu_prime, t=t), None, delta)
    assert rep.n_lower <= rep.n_upper


unit = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)


@settings(max_examples=80)
@given(chains(), seeds, st.booleans(), st.integers(min_value=0, max_value=40), unit, unit, unit)
def test_public_bounds_are_the_complexity_columns(P, pair_seed, full_support, t, eps, delta, eta):
    # One threshold path: each public bound is the complexity command's
    # column at this t, in value and in type (an exact int or inf); the
    # hypothesis-free bound is the column at eps = 0, and the witness's n
    # is n_lower at the measured eps.
    P, mu, mu_prime = chain_and_pair(P, pair_seed, full_support)
    inst = TestingInstance(chain=P, mu=mu, mu_prime=mu_prime, t=t)
    deltas, measured = delta_curve(P, mu, mu_prime, [t]), pairwise_epsilon(mu, mu_prime, P._pi)
    at = {e: _complexity_columns([t], deltas, measured if e is None else e, delta, eta) for e in (eps, 0.0, None)}
    got = [sample_upper_bound(inst, eps, delta), sample_lower_bound(inst, eps, delta),
           general_upper_bound(inst, delta, eta)]
    want = [at[eps]["n_upper"][0], at[eps]["n_lower"][0], at[0.0]["n_upper"][0]]
    if at[None]["delta_t"][0] > 0.0:
        got.append(lower_bound_witness(inst, delta).n)
        want.append(at[None]["n_lower"][0])
    assert got == want and list(map(type, got)) == list(map(type, want))


@st.composite
def cyclic_chains(draw):
    """(P, c): lazy(P0, 1/2) for P0 from chains(), with a 3-cycle through three
    random states of flow c, 0 or up to 0.3 of their least diagonal flow."""
    P = lazy(draw(chains()), 0.5)
    states = np.random.default_rng(draw(seeds)).choice(P.d, 3, replace=False)
    log_c = draw(st.none() | st.floats(min_value=-16.0, max_value=-0.5))
    diagonal_flow = stationary_distribution(P).mass * P.entries.diagonal()
    c = 0.0 if log_c is None else 10.0**log_c * diagonal_flow[states].min()
    return with_cycle_flow(P, c, states), c


@settings(max_examples=100)
@given(cyclic_chains())
def test_one_reversibility_rule(Pc):
    # symmetrize rejects a one-way edge the cycle made, and away from the
    # tolerance it reads the flow rule max |F_ij - F_ji| / (F_ij + F_ji) <= tol
    # over the flows F_ij = pi_i P_ij of the tree pi, the verdict's pi.
    P, c = Pc
    ok = accepted(P)
    if np.any((P.entries > 0) != (P.entries.T > 0)):
        assert not ok
    else:
        F = P._tree_pi.mass[:, None] * P.entries
        total = F + F.T
        gap = np.max(np.divide(np.abs(F - F.T), total, out=np.zeros_like(F), where=total > 0))
        if not 0.5 < gap / REVERSIBILITY_TOL < 2.0:
            assert ok == (gap <= REVERSIBILITY_TOL)
    if c == 0.0:
        assert ok


@settings(max_examples=100)
@given(cyclic_chains())
def test_accepted_chains_pass_the_residual_check(Pc):
    # The verdict's tolerance is half the residual bound 1e-10: flows within
    # tol of their sum give |(pi P - pi)_j| <= 2 tol pi_j, so the pi it
    # accepts is stationary with no residual check of its own.
    P, _ = Pc
    if accepted(P):
        pi = P._tree_pi.mass
        assert np.max(np.abs(pi @ P.entries - pi)) <= 1e-10
        assert stationary_distribution(P) is P._tree_pi
        spectral_decomposition(P)  # no EigensolverFailure


@settings(max_examples=100)
@given(cyclic_chains())
def test_stationary_distribution_and_symmetrize_share_the_verdict(Pc):
    # One verdict per chain: both accept, with the same pi object, or both
    # raise the same error.  A circulation keeps the tree pi stationary, so a
    # stationarity check alone would accept chains that symmetrize refuses.
    P, _ = Pc
    outcomes = []
    for fn in (stationary_distribution, symmetrize):
        try:
            fn(P)
        except MarkovWindowError as exc:
            outcomes.append((type(exc), str(exc)))
        else:
            outcomes.append(None)
    assert outcomes[0] == outcomes[1]
    if outcomes[0] is None:
        assert stationary_distribution(P) is P._pi is P._tree_pi


@st.composite
def digraphs(draw):
    """0/1 adjacency on d in [2, 30] states: random at a random density
    (symmetric or not), one cycle through all states, or a path through all
    states plus one back edge (strongly connected only when that edge joins
    the path's ends)."""
    d = draw(st.integers(min_value=2, max_value=30))
    rng = np.random.default_rng(draw(seeds))
    kind = draw(st.sampled_from(["random", "symmetric", "cycle", "path"]))
    if kind in ("random", "symmetric"):
        A = rng.random((d, d)) < draw(st.floats(min_value=0.0, max_value=0.4))
        return A | A.T if kind == "symmetric" else A
    order = rng.permutation(d)
    A = np.zeros((d, d), dtype=bool)
    A[order[:-1], order[1:]] = True
    if kind == "cycle":
        A[order[-1], order[0]] = True
    else:
        head = draw(st.integers(min_value=1, max_value=d - 1))
        A[order[head], order[draw(st.integers(min_value=0, max_value=head - 1))]] = True
    return A


@settings(max_examples=300)
@given(digraphs())
def test_is_irreducible_matches_transitive_closure(A):
    d = A.shape[0]
    A = A | np.diag(~A.any(axis=1))  # a self-loop on every row without an out-edge
    reach = np.eye(d, dtype=bool) | A
    for _ in range(math.ceil(math.log2(d))):  # paths of length <= 2^k after k squarings
        reach = (reach.astype(np.int64) @ reach.astype(np.int64)) > 0
    P = TransitionMatrix(A / A.sum(axis=1, keepdims=True))
    assert P.is_irreducible == bool(reach.all())
    if reach.all() and np.array_equal(A, A.T):  # a symmetric support: the tree pi, checked against the oracle
        pi, residual = dense_stationary(P)
        assert residual <= 1e-10
        np.testing.assert_allclose(stationary_distribution(P).mass, pi, rtol=1e-9, atol=0)
    elif reach.all():  # no tree, so no pi
        with pytest.raises(NotReversible, match="an edge has no reverse edge"):
            stationary_distribution(P)
    else:
        with pytest.raises(NotIrreducible):
            stationary_distribution(P)


def dense_stationary(P):
    """The oracle for the tree: pi solving (P - I)^T pi = 0, with sum(pi) = 1
    in place of the last equation, and its residual max |pi P - pi|."""
    A = P.entries.T - np.eye(P.d)
    A[-1, :] = 1.0
    b = np.zeros(P.d)
    b[-1] = 1.0
    pi = np.linalg.solve(A, b)
    pi /= pi.sum()
    return pi, np.max(np.abs(pi @ P.entries - pi))


@st.composite
def reversible_chains(draw):
    """A reversible chain on a random connected symmetric support on 2 to 40
    states: a random tree, a cycle, or a random graph through a path over all
    states, with symmetric edge weights in [0.01, 1] and self-loops on some
    states, so pi is proportional to the weighted degrees; or hypercube_product
    of 1 to 6 two-state chains with flip rates in [0.01, 1]."""
    d = draw(st.integers(min_value=2, max_value=40))
    rng = np.random.default_rng(draw(seeds))
    kind = draw(st.sampled_from(["tree", "cycle", "graph", "hypercube_product"]))
    if kind == "hypercube_product":
        k = draw(st.integers(min_value=1, max_value=6))
        weights = 0.5 / k + 0.5 * rng.dirichlet(np.ones(k))
        return zoo.hypercube_product(weights / weights.sum(), rng.uniform(0.01, 1.0, (k, 2)).tolist())
    order = rng.permutation(d)
    A = np.zeros((d, d), dtype=bool)
    if kind == "tree":
        A[order[1:], [order[rng.integers(i)] for i in range(1, d)]] = True
    else:
        A[order[:-1], order[1:]] = True
        A[order[-1], order[0]] = kind == "cycle"
        if kind == "graph":
            A |= rng.random((d, d)) < rng.random()
    W = np.triu(np.where(A | A.T, rng.uniform(0.01, 1.0, (d, d)), 0.0), 1)
    W += W.T + np.diag(rng.uniform(0.01, 1.0, d) * (rng.random(d) < 0.5))
    return TransitionMatrix(W / W.sum(axis=1, keepdims=True))


@settings(max_examples=300)
@given(reversible_chains())
def test_tree_stationary_matches_the_dense_solve(P):
    pi = stationary_distribution(P).mass
    assert pi.tobytes() == P._tree_pi.mass.tobytes()  # the tree, not the solve
    oracle, oracle_residual = dense_stationary(P)
    if oracle_residual < 1e-14:
        np.testing.assert_allclose(pi, oracle, rtol=1e-9, atol=0)
    # No larger than the solve's, up to the rounding of pi P itself; the solve's
    # is sometimes exactly 0, and then the tree's can be a few ulps.
    assert np.max(np.abs(pi @ P.entries - pi)) <= max(oracle_residual, P.d * np.finfo(float).eps * pi.max())


@settings(max_examples=100)
@given(st.integers(min_value=1, max_value=6), seeds)
def test_tree_stationary_of_slow_products_is_exact_per_entry(k, seed):
    # Flip rates down to 1e-12, where a dense solve's error, about 2^-53 of
    # the largest entry, swamps the smallest: the tree stays within a few
    # ulps of every entry of the closed form, the product of the factors' pi.
    rng = np.random.default_rng(seed)
    weights = 0.5 / k + 0.5 * rng.dirichlet(np.ones(k))
    rates = 10.0 ** rng.uniform(-12.0, 0.0, (k, 2))
    pi = stationary_distribution(zoo.hypercube_product(weights / weights.sum(), rates.tolist())).mass
    states = np.arange(1 << k)
    closed = np.ones(1 << k)
    for j, (p, q) in enumerate(rates):
        closed *= np.where((states >> j) & 1, p, q) / (p + q)
    np.testing.assert_allclose(pi, closed, rtol=1e-13, atol=0)


def test_is_irreducible_at_scale():
    assert zoo.line(1600).is_irreducible
    assert zoo.cycle(1600).is_irreducible
    block = zoo.random_chain(40, seed=3).entries
    blocks = np.zeros((80, 80))
    blocks[:40, :40] = blocks[40:, 40:] = block
    assert not TransitionMatrix(blocks).is_irreducible
    # One edge between the blocks makes every state reachable one way only.
    for i, j in ((0, 40), (40, 0)):
        one_way = blocks.copy()
        one_way[i] *= 0.5
        one_way[i, j] += 0.5
        assert not TransitionMatrix(one_way).is_irreducible

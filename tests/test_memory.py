"""Memory budget of the decomposition pipeline, the sampler and the exact oracles, and
bit-identity of the in-place arithmetic with the plain formulas.

Peaks are traced with tracemalloc, which sees every numpy array allocation
but not LAPACK's own workspace inside eigh, so they are deterministic.  The
chain bounds are in units of one d x d float64 array; P is built before
tracing.
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from markovwindow import (Distribution, NotReversible, TransitionMatrix, estimate_error, exact_lr_error, lazy,
                          stationary_distribution, symmetrize, zoo)
from markovwindow.spectral import DEAD_MODE_TOL, UNIT_SNAP_TOL, spectral_decomposition
from markovwindow.montecarlo import _draw_counts

D = 400


def traced_bytes(fn, *args):
    """Peak traced bytes allocated by fn(*args)."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    return peak - base


def traced_peak(fn, *args):
    """Peak traced bytes allocated by fn(*args), in units of 8 d^2."""
    return traced_bytes(fn, *args) / (8 * D * D)


@pytest.fixture(scope="module")
def chain():
    return zoo.random_chain(D, seed=7)


def test_decompose_holds_at_most_three_matrices():
    # A new chain, built before tracing: its pi and Q, which the decomposition
    # caches on it, are not cached yet, so the peak counts the sweep, the tree
    # and symmetrize too, and Q stays alive to the end.
    assert traced_peak(spectral_decomposition, zoo.random_chain(D, seed=7)) <= 3.2


def test_symmetrize_holds_at_most_two_matrices():
    # A new chain, built before tracing: the peak counts the sweep, the tree
    # pi and the reversibility comparison's row blocks too.
    assert traced_peak(symmetrize, zoo.random_chain(D, seed=7)) <= 2.2


def refused(fn, *args):
    """fn(*args), which must raise NotReversible."""
    with pytest.raises(NotReversible):
        fn(*args)


def test_stationary_distribution_holds_one_matrix(chain):
    assert traced_peak(stationary_distribution, chain) <= 1.2
    # Not reversible: the flows of the tree's pi miss the flow rule, and the chain is refused.
    weights = np.random.default_rng(8).random((D, D)) + 0.1
    assert traced_peak(refused, stationary_distribution,
                       TransitionMatrix(weights / weights.sum(axis=1, keepdims=True))) <= 1.2


def test_random_chain_memory():
    assert traced_peak(zoo.random_chain, D, 7) <= 1.8


# large_chain's degrees and the densest, named by their fractions of D.
@pytest.mark.parametrize("intra, inter", [(100, 25), (199, 200)], ids=["0.25-0.0625", "0.4975-0.5"])
def test_blockmodel2_memory(intra, inter):
    # The matrix and its column index arrays, which stop at d^2 / 4 entries each.
    assert traced_peak(zoo.blockmodel2, D, intra, inter) <= 1.9


def test_lazy_holds_one_matrix(chain):
    assert traced_peak(lazy, chain, 0.5) <= 1.2


def test_exact_lr_error_memory():
    # 3,432 types at d = 8, n = 7, where the 8^7 outcome tuples took 44.5 MB.
    rng = np.random.default_rng(3)
    p, q = (Distribution(x) for x in rng.dirichlet(np.ones(8), size=2))
    assert traced_bytes(exact_lr_error, p, q, 7) <= 1e6


def test_alias_sampler_memory():
    # n < d takes the alias path; its (m, n) draws must not outgrow the
    # (m, d) int64 count matrix it returns.
    n, size = 100, 1024
    mass = np.random.default_rng(4).dirichlet(np.ones(D))
    assert traced_bytes(_draw_counts, (1, 0, 0), mass, n, size) <= 2 * 8 * size * D


@pytest.mark.parametrize("d", [400, 6400])
def test_estimate_error_memory_is_independent_of_d(d):
    # n = 100 < d: each block of trials is scored from its (1024, n) alias
    # draws, never a (1024, d) histogram matrix, which takes 105 MB at
    # d = 6400.  At t = 0 estimate_error reads only the size of the chain,
    # so a stand-in for cycle(d) spares its d x d matrix and eigendecomposition.
    rng = np.random.default_rng(d)
    mu, mu_prime = (Distribution(x) for x in rng.dirichlet(np.ones(d), size=2))
    inst = SimpleNamespace(chain=SimpleNamespace(d=d), mu=mu, mu_prime=mu_prime, t=0)
    assert traced_bytes(estimate_error, inst, 100, 2000, 1) <= 8e6


def reference_stationary(P):
    """pi by plain per-state loops over the breadth-first tree from state 0,
    in the implementation's summation order: the parent of a state is its
    first neighbour one level nearer state 0, and each round adds to every
    state's sum of log ratios the sum held by its current ancestor, then
    moves that ancestor to the ancestor's own."""
    E = P.entries
    depth = {0: 0}
    while len(depth) < P.d:
        level = max(depth.values())
        depth.update({j: level + 1 for j in range(P.d) if j not in depth
                      and any(E[i, j] > 0 for i in depth if depth[i] == level)})
    up = [0] + [next(i for i in range(P.d) if depth[i] == depth[j] - 1 and E[j, i] > 0) for j in range(1, P.d)]
    log_pi = [0.0] + [np.log(E[up[j], j] / E[j, up[j]]) for j in range(1, P.d)]
    for _ in range((max(depth.values()) - 1).bit_length()):
        log_pi = [log_pi[j] + log_pi[up[j]] for j in range(P.d)]
        up = [up[up[j]] for j in range(P.d)]
    pi = np.exp(log_pi)
    return pi / pi.sum()


def reference_decomposition(P):
    """The decomposition by the plain formulas, one new array per operation."""
    pi = reference_stationary(P)
    root = np.sqrt(pi)
    Q = (root[:, None] / root[None, :]) * P.entries
    lams, nus = np.linalg.eigh(0.5 * (Q + Q.T))
    order = np.argsort(-lams, kind="stable")
    lams = np.clip(np.where(np.arange(P.d) == 0, 1.0, lams[order]), -1.0, 1.0)
    near_unit = np.abs(np.abs(lams) - 1.0) <= UNIT_SNAP_TOL
    lams[near_unit] = np.sign(lams[near_unit])
    lams[np.abs(lams) < DEAD_MODE_TOL] = 0.0
    N = nus.T[order]  # row i is nu_i
    # The Householder reflector H = I - 2 w w^T / w^T w with H a = -+e_1, for
    # a = N sqrt(pi); row 0 of H N is then +-sqrt(pi), and u_1 = pi below.
    a = N @ root
    w = np.concatenate(([a[0] + np.copysign(np.linalg.norm(a), a[0])], a[1:]))
    N = N - np.outer(2.0 / (w @ w) * w, w @ N)
    U = N * root
    mag = np.abs(U)
    lead = np.argmax(mag > 1e-10 * mag.max(axis=1, keepdims=True), axis=1)
    flip = U[np.arange(P.d), lead] < 0
    U = np.where(flip[:, None], -U, U)
    U[0] = pi
    V = U / pi[None, :]
    return lams, U, V, np.lexsort((-lams, -np.abs(lams))), pi


@pytest.mark.parametrize(
    "P",
    [
        zoo.cycle(8),  # degenerate pairs cos(2 pi k / d), and -1
        zoo.cycle(9),
        zoo.cycle(64),
        zoo.line(6),  # non-uniform pi
        zoo.line(33),
        zoo.hypercube(4),
        zoo.random_chain(2, seed=0),
        zoo.random_chain(40, seed=3),
        zoo.random_chain(200, seed=11),
        lazy(zoo.random_chain(60, seed=5), 0.5),
    ],
    ids=["cycle8", "cycle9", "cycle64", "line6", "line33", "hypercube4",
         "random2", "random40", "random200", "lazy_random60"],
)
def test_decomposition_is_bit_identical_to_the_formulas(P):
    S = spectral_decomposition(P)
    got = (S.eigenvalues, S.left_eigenvectors, S.right_eigenvectors, S.abs_order,
           S.stationary.mass)
    for name, a, b in zip(("eigenvalues", "left", "right", "abs_order", "stationary"),
                          got, reference_decomposition(P)):
        assert a.tobytes() == b.tobytes(), name

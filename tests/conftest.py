import math

import numpy as np
import pytest
from hypothesis import settings

from markovwindow import Distribution, NotReversible, TransitionMatrix, stationary_distribution, symmetrize, zoo
from markovwindow.geometry import _log_deltas, coefficient_diff

# One profile for every property test: the same examples on every run, and no
# per-example deadline, because wall time per example varies with host load.
settings.register_profile("markovwindow", derandomize=True, deadline=None)
settings.load_profile("markovwindow")


# pi_1 is about 5.2e-310, subnormal: x / pi overflows, and ||mu - mu'||_pi^2
# for point:0 vs point:1 lies past the float range.
SUBNORMAL_PI_CHAIN = {"type": "explicit", "matrix": [[1.0, 5.2045227098072e-310],
                                                     [0.9994960282073825, 0.0005039717926175281]]}


def random_distribution(rng, d, full_support=True):
    """A random point of the simplex; full_support keeps every entry positive."""
    if full_support:
        mass = rng.random(d) + 0.05
    else:
        mass = rng.random(d) * (rng.random(d) > 0.3)
        if mass.sum() == 0:
            mass[int(rng.integers(d))] = 1.0
    return Distribution(mass / mass.sum())


def pi_norm_sq(x, pi):
    """Squared pi-norm ||x||_pi^2 = sum_x x_x^2 / pi_x, the norm of Delta(t)."""
    x = np.asarray(x, dtype=float)
    return float(np.sum(x * x / pi.mass))


def total_variation(mu, mu_prime):
    """d_TV = (1/2) sum_x |mu_x - mu'_x|."""
    return 0.5 * float(np.sum(np.abs(mu.mass - mu_prime.mass)))


def lr_statistic(counts, mu_t, mu_prime_t):
    """Per-sample LR statistic sum_x (counts_x / n) ln(mu_t,x / mu'_t,x).

    A counted state with mass under one hypothesis only forces the sign:
    +inf where only mu'_t is 0, -inf where only mu_t is 0.  A sample that
    is impossible under both (a counted state of mass 0 under both, or
    states of both kinds) yields 0, which the tie rule gives to mu'."""
    counts = np.asarray(counts)
    p, q = mu_t.mass[counts > 0], mu_prime_t.mass[counts > 0]
    plus, minus = np.any((p > 0) & (q == 0)), np.any((p == 0) & (q > 0))
    if np.any((p == 0) & (q == 0)) or (plus and minus):
        return 0.0
    if plus or minus:
        return math.inf if plus else -math.inf
    return float(np.sum(counts[counts > 0] * np.log(p / q)) / counts.sum())


def delta_at(mu, mu_prime, S, t):
    """Delta(t) of the pair from the projection of mu - mu' onto S, by the
    projection kernel alone, whatever the chain's size."""
    with np.errstate(over="ignore"):
        return float(np.exp(_log_deltas(coefficient_diff(mu, mu_prime, S), S, [t]))[0])


def centered_pair(mu, mu_prime, pi, eta):
    """((1 - eta) mu + eta beta, (1 - eta) mu' + eta beta), beta = (mu + mu' + pi) / 3:
    the centred pair behind general_upper_bound's constant."""
    beta = (mu.mass + mu_prime.mass + pi.mass) / 3.0
    return Distribution((1.0 - eta) * mu.mass + eta * beta), Distribution((1.0 - eta) * mu_prime.mass + eta * beta)


def accepted(P):
    """The package's reversibility verdict on P: False where symmetrize raises NotReversible."""
    try:
        symmetrize(P)
    except NotReversible:
        return False
    return True


def with_cycle_flow(P, c, states=(0, 1, 2)):
    """P with a directed 3-cycle of flow c through three states, taken out of
    their diagonal flows: pi stays stationary and detailed balance fails by c.
    On an edge outside the support the cycle makes a one-way edge."""
    pi = stationary_distribution(P)
    flow = pi.mass[:, None] * P.entries
    for a, b in zip(states, np.roll(states, -1)):
        flow[a, b] += c
        flow[a, a] -= c
    return TransitionMatrix(flow / pi.mass[:, None])


def small_zoo_chains():
    """One representative per family at a small size."""
    return {
        "cycle7": zoo.cycle(7),
        "cycle8": zoo.cycle(8),
        "line6": zoo.line(6),
        "bipartite_clique6": zoo.bipartite_clique(6),
        "hypercube3": zoo.hypercube(3),
        "product2": zoo.hypercube_product([0.4, 0.6], [(0.3, 0.5), (0.7, 0.2)]),
        "blockmodel16": zoo.blockmodel2(16, 4, 2),
        "pachinko3": zoo.pachinko(3, [0.5, 0.26, 0.15, 0.09]),
        "random12": zoo.random_chain(12, seed=5),
    }


@pytest.fixture(scope="session")
def zoo_chains():
    return small_zoo_chains()


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)

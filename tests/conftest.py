import numpy as np
import pytest
from hypothesis import settings

from markovwindow import Distribution, TransitionMatrix, stationary_distribution, zoo

# One profile for every property test: the same examples on every run, and no
# per-example deadline, because wall time per example varies with host load.
settings.register_profile("markovwindow", derandomize=True, deadline=None)
settings.load_profile("markovwindow")


def random_distribution(rng, d, full_support=True):
    """A random point of the simplex; full_support keeps every entry positive."""
    if full_support:
        mass = rng.random(d) + 0.05
    else:
        mass = rng.random(d) * (rng.random(d) > 0.3)
        if mass.sum() == 0:
            mass[int(rng.integers(d))] = 1.0
    return Distribution(mass / mass.sum())


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
        "blockmodel16": zoo.blockmodel2(16, 4 / 16, 2 / 16),
        "pachinko3": zoo.pachinko(3, [0.5, 0.26, 0.15, 0.09]),
        "random12": zoo.random_chain(12, seed=5),
    }


@pytest.fixture(scope="session")
def zoo_chains():
    return small_zoo_chains()


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)

"""Work done per chain: the symmetric eigensolver runs only where a spectrum
is read, `pi` and Q are computed once per chain object, across validation,
CLI distribution specs, Delta(t) and decomposition, and the dense stationary
solve runs only for a chain that is not reversible.

Each test counts calls of `np.linalg.eigh`, `np.linalg.solve`,
`stationary_distribution` and `symmetrize` on a chain built inside it, so no
decomposition, stationary vector or Q is cached yet.
"""

import json
import math

import numpy as np
import pytest

from markovwindow import (Distribution, TestingInstance, chain, complexity, estimate_error, general_upper_bound,
                          sample_lower_bound, sample_upper_bound, zoo)
from markovwindow.cli import main

CHAIN = json.dumps({"type": "random_chain", "d": 12, "seed": 3})


@pytest.fixture
def calls(monkeypatch):
    """Calls of np.linalg.eigh, np.linalg.solve, stationary_distribution and symmetrize made from here on."""
    counts = dict.fromkeys(("eigh", "solve", "stationary_distribution", "symmetrize"), 0)
    for owner, name in ((np.linalg, "eigh"), (np.linalg, "solve"), (chain, "stationary_distribution"),
                        (chain, "symmetrize")):
        def counted(*args, _name=name, _real=getattr(owner, name), **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return counts


def instance(t=2):
    P = zoo.random_chain(12, seed=3)
    return TestingInstance(chain=P, mu=Distribution.point(12, 0), mu_prime=Distribution.point(12, 1), t=t)


def test_instance_validates_without_eigh(calls):
    inst = instance()
    assert inst.stationary is inst.chain._stationary
    assert calls == {"eigh": 0, "solve": 0, "stationary_distribution": 1, "symmetrize": 1}


def test_instance_then_delta_solves_once(calls):
    inst = instance()
    inst.delta()
    assert inst.decomposition.stationary is inst.stationary
    assert calls == {"eigh": 1, "solve": 0, "stationary_distribution": 1, "symmetrize": 1}


def test_short_horizon_delta_runs_no_eigh(calls):
    # Above 256 states and for t <= d / 4, inst.delta() takes the products of
    # Q that the complexity command takes.
    P = zoo.cycle(400)
    TestingInstance(chain=P, mu=Distribution.point(400, 0), mu_prime=Distribution.point(400, 1), t=10).delta()
    assert calls == {"eigh": 0, "solve": 0, "stationary_distribution": 1, "symmetrize": 1}


def test_instance_keeps_its_delta_for_the_bounds(calls, monkeypatch):
    # On the product path, .delta() and the three bounds share one run of
    # the t products of Q: the instance keeps its Delta(t).
    runs = []

    def counted(*args, _real=complexity._product_deltas):
        runs.append(args)
        return _real(*args)

    monkeypatch.setattr(complexity, "_product_deltas", counted)
    inst = TestingInstance(chain=zoo.cycle(400), mu=Distribution.point(400, 0), mu_prime=Distribution.point(400, 1),
                           t=100)
    delta_t = inst.delta()
    assert delta_t > 0.0
    assert sample_upper_bound(inst, 0.5, 0.1) == math.ceil(16 * 0.5**-2.5 * math.log(10) / delta_t)
    assert sample_lower_bound(inst, 0.5, 0.1) == math.floor(8 * 0.5 * 0.1**2 / delta_t)
    general_upper_bound(inst, 0.1)
    assert inst.delta() == delta_t
    assert len(runs) == 1
    assert calls == {"eigh": 0, "solve": 0, "stationary_distribution": 1, "symmetrize": 1}


def test_estimate_error_runs_no_eigh(calls):
    estimate_error(instance(), 20, 100, seed=1)
    assert calls == {"eigh": 0, "solve": 0, "stationary_distribution": 1, "symmetrize": 1}


# evolve reads pi alone and needs no reversible chain, so it builds no Q.
@pytest.mark.parametrize("argv, eighs, symmetrizes", [
    (["evolve", "--mu", "stationary", "--t", "0..3"], 0, 0),
    (["simulate", "--mu", "point:0", "--mu-prime", "point:1", "--t", "2", "--n", "20", "--trials", "100"], 0, 1),
    (["simulate", "--mu", "stationary", "--mu-prime", "point:1", "--t", "2", "--n", "20", "--trials", "100"], 0, 1),
    (["complexity", "--mu", "extreme:[2]:0.01:+", "--mu-prime", "extreme:[2]:0.01:-", "--t", "0,5",
      "--epsilon", "auto"], 1, 1),
    (["time", "--mu", "stationary", "--mu-prime", "extreme:[2]:0.01:+", "--n", "10,1000"], 1, 1),
], ids=["evolve stationary", "simulate points", "simulate stationary", "complexity", "time"])
def test_cli_eigh_and_solve_counts(calls, capsys, argv, eighs, symmetrizes):
    assert main([argv[0], "--chain", CHAIN, *argv[1:]]) == 0, capsys.readouterr().err
    assert calls == {"eigh": eighs, "solve": 0, "stationary_distribution": 1, "symmetrize": symmetrizes}


@pytest.mark.parametrize("fmt, eighs", [("csv", 0), ("json", 1)])
def test_short_horizon_complexity_symmetrizes_once(calls, capsys, fmt, eighs):
    # Above 256 states and for t <= d / 4, Delta(t) comes from products of Q;
    # only JSON's eigen_summary needs eigh, which reads the chain's same Q.
    argv = ["complexity", "--chain", '{"type":"cycle","d":400}', "--mu", "point:0", "--mu-prime", "point:1",
            "--t", "0,1,10", "--format", fmt]
    assert main(argv) == 0, capsys.readouterr().err
    assert calls == {"eigh": eighs, "solve": 0, "stationary_distribution": 1, "symmetrize": 1}


@pytest.mark.parametrize("build, t", [(lambda: zoo.random_chain(50, seed=3), 2), (lambda: zoo.cycle(400), 10)],
                         ids=["projection", "products"])
def test_instance_symmetrizes_once(calls, build, t):
    # Validation, Delta(t) (by projection, or by products of Q), the three
    # bounds and the decomposition all read the chain's one Q.
    P = build()
    inst = TestingInstance(chain=P, mu=Distribution.point(P.d, 0), mu_prime=Distribution.point(P.d, 1), t=t)
    inst.delta()
    sample_upper_bound(inst, 0.5, 0.1)
    sample_lower_bound(inst, 0.5, 0.1)
    general_upper_bound(inst, 0.1)
    assert inst.decomposition.stationary is inst.stationary
    assert calls == {"eigh": 1, "solve": 0, "stationary_distribution": 1, "symmetrize": 1}


def test_wrong_length_vector_exits_1_before_any_solve(calls, capsys):
    argv = ["complexity", "--chain", CHAIN, "--mu", "[0.5,0.5]", "--mu-prime", "point:0", "--t", "0"]
    assert main(argv) == 1
    assert "has 2 entries, the chain 12 states" in capsys.readouterr().err
    assert calls == {"eigh": 0, "solve": 0, "stationary_distribution": 0, "symmetrize": 0}


def test_dense_solve_only_for_a_chain_that_is_not_reversible(calls, capsys):
    cycle = json.dumps({"type": "explicit", "matrix": [[0, 1, 0], [0, 0, 1], [1, 0, 0]]})
    assert main(["evolve", "--chain", cycle, "--mu", "stationary", "--t", "0..1"]) == 0
    assert calls == {"eigh": 0, "solve": 1, "stationary_distribution": 1, "symmetrize": 0}

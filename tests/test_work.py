"""Work done per chain: the symmetric eigensolver runs only where a spectrum
is read, `pi` is computed once per chain object, across validation, CLI
distribution specs and decomposition, and the dense stationary solve runs
only for a chain that is not reversible.

Each test counts calls of `np.linalg.eigh`, `np.linalg.solve` and
`stationary_distribution` on a chain built inside it, so no decomposition or
stationary vector is cached yet.
"""

import json

import numpy as np
import pytest

from markovwindow import Distribution, TestingInstance, chain, complexity, estimate_error, spectral, zoo
from markovwindow.cli import main

CHAIN = json.dumps({"type": "random_chain", "d": 12, "seed": 3})


@pytest.fixture
def calls(monkeypatch):
    """Calls of np.linalg.eigh, np.linalg.solve and stationary_distribution made from here on."""
    counts = dict.fromkeys(("eigh", "solve", "stationary_distribution"), 0)
    for owner, name in ((np.linalg, "eigh"), (np.linalg, "solve"), (chain, "stationary_distribution")):
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
    assert calls == {"eigh": 0, "solve": 0, "stationary_distribution": 1}


def test_instance_then_delta_solves_once(calls):
    inst = instance()
    inst.delta()
    assert inst.decomposition.stationary is inst.stationary
    assert calls == {"eigh": 1, "solve": 0, "stationary_distribution": 1}


def test_short_horizon_delta_runs_no_eigh(calls):
    # Above 256 states and for t <= d / 4, inst.delta() takes the products of
    # Q that the complexity command takes.
    P = zoo.cycle(400)
    TestingInstance(chain=P, mu=Distribution.point(400, 0), mu_prime=Distribution.point(400, 1), t=10).delta()
    assert calls == {"eigh": 0, "solve": 0, "stationary_distribution": 1}


def test_estimate_error_runs_no_eigh(calls):
    estimate_error(instance(), 20, 100, seed=1)
    assert calls == {"eigh": 0, "solve": 0, "stationary_distribution": 1}


@pytest.mark.parametrize("argv, eighs", [
    (["evolve", "--mu", "stationary", "--t", "0..3"], 0),
    (["simulate", "--mu", "point:0", "--mu-prime", "point:1", "--t", "2", "--n", "20", "--trials", "100"], 0),
    (["simulate", "--mu", "stationary", "--mu-prime", "point:1", "--t", "2", "--n", "20", "--trials", "100"], 0),
    (["complexity", "--mu", "extreme:[2]:0.01:+", "--mu-prime", "extreme:[2]:0.01:-", "--t", "0,5",
      "--epsilon", "auto"], 1),
    (["time", "--mu", "stationary", "--mu-prime", "extreme:[2]:0.01:+", "--n", "10,1000"], 1),
], ids=["evolve stationary", "simulate points", "simulate stationary", "complexity", "time"])
def test_cli_eigh_and_solve_counts(calls, capsys, argv, eighs):
    assert main([argv[0], "--chain", CHAIN, *argv[1:]]) == 0, capsys.readouterr().err
    assert calls == {"eigh": eighs, "solve": 0, "stationary_distribution": 1}


@pytest.mark.parametrize("fmt, eighs", [("csv", 0), ("json", 1)])
def test_short_horizon_complexity_symmetrizes_once(calls, capsys, monkeypatch, fmt, eighs):
    # Above 256 states and for t <= d / 4, Delta(t) comes from products of Q;
    # only JSON's eigen_summary needs eigh, which reuses that Q.
    symmetrized = []

    def counted(P, pi, _real=chain.symmetrize):
        symmetrized.append(P)
        return _real(P, pi)

    for owner in (spectral, complexity):
        monkeypatch.setattr(owner, "symmetrize", counted)
    argv = ["complexity", "--chain", '{"type":"cycle","d":400}', "--mu", "point:0", "--mu-prime", "point:1",
            "--t", "0,1,10", "--format", fmt]
    assert main(argv) == 0, capsys.readouterr().err
    assert calls == {"eigh": eighs, "solve": 0, "stationary_distribution": 1}
    assert len(symmetrized) == 1


def test_wrong_length_vector_exits_1_before_any_solve(calls, capsys):
    argv = ["complexity", "--chain", CHAIN, "--mu", "[0.5,0.5]", "--mu-prime", "point:0", "--t", "0"]
    assert main(argv) == 1
    assert "has 2 entries, the chain 12 states" in capsys.readouterr().err
    assert calls == {"eigh": 0, "solve": 0, "stationary_distribution": 0}


def test_dense_solve_only_for_a_chain_that_is_not_reversible(calls, capsys):
    cycle = json.dumps({"type": "explicit", "matrix": [[0, 1, 0], [0, 0, 1], [1, 0, 0]]})
    assert main(["evolve", "--chain", cycle, "--mu", "stationary", "--t", "0..1"]) == 0
    assert calls == {"eigh": 0, "solve": 1, "stationary_distribution": 1}

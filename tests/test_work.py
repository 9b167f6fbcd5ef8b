"""Work done per chain: the symmetric eigensolver runs only where a spectrum
is read; `pi` and Q come together from one reversibility verdict per chain
object, shared by validation, Delta(t), decomposition and `time`'s default
threshold, which never call `stationary_distribution`; the CLI's stationary
spec calls it once per command; no dense solve runs anywhere; and a
malformed flag exits 1 before any chain is symmetrized or decomposed.

Each test counts calls of `np.linalg.eigh`, `np.linalg.solve`,
`stationary_distribution` and `symmetrize` on a chain built inside it, so no
decomposition, stationary vector or Q is cached yet.
"""

import json
import math

import numpy as np
import pytest

from markovwindow import (Distribution, NotReversible, TestingInstance, TransitionMatrix, chain, complexity,
                          estimate_error, general_upper_bound, sample_lower_bound, sample_upper_bound,
                          spectral_decomposition, zoo)
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
    assert inst.stationary is inst.chain._reversible[0] is inst.chain._tree_pi
    assert calls == {"eigh": 0, "solve": 0, "stationary_distribution": 0, "symmetrize": 1}


def test_instance_then_delta_solves_once(calls):
    inst = instance()
    inst.delta()
    assert inst.decomposition.stationary is inst.stationary
    assert calls == {"eigh": 1, "solve": 0, "stationary_distribution": 0, "symmetrize": 1}


def test_short_horizon_delta_runs_no_eigh(calls):
    # Above 256 states and for t <= d / 4, inst.delta() takes the products of
    # Q that the complexity command takes.
    P = zoo.cycle(400)
    TestingInstance(chain=P, mu=Distribution.point(400, 0), mu_prime=Distribution.point(400, 1), t=10).delta()
    assert calls == {"eigh": 0, "solve": 0, "stationary_distribution": 0, "symmetrize": 1}


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
    assert calls == {"eigh": 0, "solve": 0, "stationary_distribution": 0, "symmetrize": 1}


def test_estimate_error_runs_no_eigh(calls):
    estimate_error(instance(), 20, 100, seed=1)
    assert calls == {"eigh": 0, "solve": 0, "stationary_distribution": 0, "symmetrize": 1}


# evolve reads pi alone and needs no reversible chain, so it builds no Q.  An
# instance, Delta(t) and the decomposition take pi from the verdict, so only
# the stationary spec calls stationary_distribution.
@pytest.mark.parametrize("argv, eighs, symmetrizes, stationaries", [
    (["evolve", "--mu", "stationary", "--t", "0..3"], 0, 0, 1),
    (["simulate", "--mu", "point:0", "--mu-prime", "point:1", "--t", "2", "--n", "20", "--trials", "100"], 0, 1, 0),
    (["simulate", "--mu", "stationary", "--mu-prime", "point:1", "--t", "2", "--n", "20", "--trials", "100"], 0, 1, 1),
    (["complexity", "--mu", "extreme:[2]:0.01:+", "--mu-prime", "extreme:[2]:0.01:-", "--t", "0,5",
      "--epsilon", "auto"], 1, 1, 0),
    (["time", "--mu", "stationary", "--mu-prime", "extreme:[2]:0.01:+", "--n", "10,1000"], 1, 1, 1),
], ids=["evolve stationary", "simulate points", "simulate stationary", "complexity", "time"])
def test_cli_eigh_and_solve_counts(calls, capsys, argv, eighs, symmetrizes, stationaries):
    assert main([argv[0], "--chain", CHAIN, *argv[1:]]) == 0, capsys.readouterr().err
    assert calls == {"eigh": eighs, "solve": 0, "stationary_distribution": stationaries, "symmetrize": symmetrizes}


@pytest.mark.parametrize("fmt, eighs", [("csv", 0), ("json", 1)])
def test_short_horizon_complexity_symmetrizes_once(calls, capsys, fmt, eighs):
    # Above 256 states and for t <= d / 4, Delta(t) comes from products of Q;
    # only JSON's eigen_summary needs eigh, which reads the chain's same Q.
    argv = ["complexity", "--chain", '{"type":"cycle","d":400}', "--mu", "point:0", "--mu-prime", "point:1",
            "--t", "0,1,10", "--format", fmt]
    assert main(argv) == 0, capsys.readouterr().err
    assert calls == {"eigh": eighs, "solve": 0, "stationary_distribution": 0, "symmetrize": 1}


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
    assert calls == {"eigh": 1, "solve": 0, "stationary_distribution": 0, "symmetrize": 1}


def test_wrong_length_vector_exits_1_before_any_solve(calls, capsys):
    argv = ["complexity", "--chain", CHAIN, "--mu", "[0.5,0.5]", "--mu-prime", "point:0", "--t", "0"]
    assert main(argv) == 1
    assert "has 2 entries, the chain 12 states" in capsys.readouterr().err
    assert calls == {"eigh": 0, "solve": 0, "stationary_distribution": 0, "symmetrize": 0}


@pytest.mark.parametrize("flag", [["--delta", "5"], ["--eta", "7"]], ids=["delta", "eta"])
@pytest.mark.parametrize("mu, mu_prime", [("point:0", "point:0"), ("[0.3,0.2,0.2,0.15,0.15]", "[0.2,0.2,0.2,0.2,0.2]")],
                         ids=["dead at every t", "usable epsilon"])
def test_bad_delta_or_eta_exits_1_before_any_solve(calls, capsys, flag, mu, mu_prime):
    argv = ["complexity", "--chain", '{"type":"cycle","d":5}', "--mu", mu, "--mu-prime", mu_prime, "--t", "0..1",
            *flag]
    assert main(argv) == 1
    assert f"{flag[0][2:]} must lie in (0, 1), got {float(flag[1])}" in capsys.readouterr().err
    assert calls == {"eigh": 0, "solve": 0, "stationary_distribution": 0, "symmetrize": 0}


def test_stationary_spec_refuses_a_chain_with_no_tree(calls, capsys):
    cycle = json.dumps({"type": "explicit", "matrix": [[0, 1, 0], [0, 0, 1], [1, 0, 0]]})
    assert main(["evolve", "--chain", cycle, "--mu", "stationary", "--t", "0..1"]) == 2
    assert "an edge has no reverse edge" in capsys.readouterr().err
    assert calls == {"eigh": 0, "solve": 0, "stationary_distribution": 1, "symmetrize": 0}


def test_no_dense_solve_before_not_reversible(calls, capsys):
    # A symmetric support, so the tree exists, but the flows around the
    # 3-cycle do not balance: spectrum refuses the chain on the tree pi, and
    # evolve --mu stationary refuses it on that pi's residual, with no solve.
    chain3 = json.dumps({"type": "explicit", "matrix": [[0, 0.7, 0.3], [0.3, 0, 0.7], [0.7, 0.3, 0]]})
    assert main(["spectrum", "--chain", chain3]) == 2
    assert "not reversible" in capsys.readouterr().err
    assert calls == {"eigh": 0, "solve": 0, "stationary_distribution": 0, "symmetrize": 1}
    assert main(["evolve", "--chain", chain3, "--mu", "stationary", "--t", "0..1"]) == 2
    assert "stationary residual" in capsys.readouterr().err
    assert calls == {"eigh": 0, "solve": 0, "stationary_distribution": 1, "symmetrize": 1}
    # Nor on a full-support chain at d = 800.
    weights = np.random.default_rng(800).random((800, 800)) + 0.1
    with pytest.raises(NotReversible):
        spectral_decomposition(TransitionMatrix(weights / weights.sum(axis=1, keepdims=True)))
    assert calls == {"eigh": 0, "solve": 0, "stationary_distribution": 1, "symmetrize": 2}


EXT = ["--mu", "extreme:[2]:0.01:+", "--mu-prime", "extreme:[2]:0.01:-"]


@pytest.mark.parametrize("argv, message", [
    (["window", "--t", "abc"], "bad --t spec 'abc'"),
    (["complexity", "--mu", "extreme:[2]:auto:+", "--mu-prime", "extreme:[2]:auto:-", "--epsilon", "0.2",
      "--t", "abc"], "bad --t spec 'abc'"),
    (["evolve", "--mu", "extreme:[2]:0.01:+", "--t", "abc"], "bad --t spec 'abc'"),
    (["simulate", *EXT, "--t", "abc", "--n", "5"], "bad --t spec 'abc'"),
    (["time", "--mu", "point:0", "--mu-prime", "point:1", "--n", "10", "--delta", "5"], "delta must lie in (0, 1)"),
    (["time", *EXT, "--n", "abc"], "bad --n spec 'abc'"),
], ids=["window", "complexity", "evolve", "simulate", "time delta", "time n"])
def test_malformed_flags_exit_1_before_any_solve(calls, capsys, argv, message):
    assert main([argv[0], "--chain", CHAIN, *argv[1:]]) == 1
    assert message in capsys.readouterr().err
    assert calls == {"eigh": 0, "solve": 0, "stationary_distribution": 0, "symmetrize": 0}

"""Work done per chain: the symmetric eigensolver runs only where a spectrum
is read; the reversibility verdict, which hands out `pi`, runs once per
chain object; Q is built only inside the decomposition, once per
decomposed chain, never for validation, `pi` alone, Delta(t) by products
of P, a vacuous lower-bound witness or a refusal; Delta(t) once per
instance, shared by its bounds, report and witness; the CLI's stationary
spec calls `stationary_distribution` once per command; no dense solve runs
anywhere; and a malformed flag or distribution spec exits 1 before any
verdict, Q or decomposition, also after a spec that would need one.

Each test counts calls of `np.linalg.eigh`, `np.linalg.solve`,
`stationary_distribution` and `symmetrize`, and runs of the verdict
`TransitionMatrix._pi`, on a chain built inside it, so no decomposition,
verdict or Q is cached yet.
"""

import json
import math

import numpy as np
import pytest

from markovwindow import (Distribution, NotReversible, TestingInstance, TransitionMatrix, chain, complexity, geometry,
                          spectral, estimate_error, general_upper_bound, lower_bound_witness, sample_lower_bound,
                          sample_upper_bound, spectral_decomposition, zoo)
from markovwindow.cli import main

CHAIN = json.dumps({"type": "random_chain", "d": 12, "seed": 3})


@pytest.fixture
def calls(monkeypatch):
    """Calls of np.linalg.eigh, np.linalg.solve, stationary_distribution and symmetrize (in chain, and where
    the decomposition looks it up), and runs of the cached verdict TransitionMatrix._pi (its function, which
    runs once per chain that it accepts), from here on."""
    counts = dict.fromkeys(("eigh", "solve", "stationary_distribution", "symmetrize", "verdict"), 0)
    verdict = vars(TransitionMatrix)["_pi"]
    for owner, name, key in ((np.linalg, "eigh", "eigh"), (np.linalg, "solve", "solve"),
                             (chain, "stationary_distribution", "stationary_distribution"),
                             (chain, "symmetrize", "symmetrize"), (spectral, "symmetrize", "symmetrize"),
                             (verdict, "func", "verdict")):
        def counted(*args, _key=key, _real=getattr(owner, name), **kwargs):
            counts[_key] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return counts


def instance(t=2):
    P = zoo.random_chain(12, seed=3)
    return TestingInstance(chain=P, mu=Distribution.point(12, 0), mu_prime=Distribution.point(12, 1), t=t)


def test_instance_validates_without_eigh(calls):
    inst = instance()
    assert inst.stationary is inst.chain._pi is inst.chain._tree_pi
    assert calls == {"eigh": 0, "solve": 0, "stationary_distribution": 0, "symmetrize": 0, "verdict": 1}


def test_instance_then_delta_solves_once(calls):
    inst = instance()
    inst.delta()
    assert inst.decomposition.stationary is inst.stationary
    assert calls == {"eigh": 1, "solve": 0, "stationary_distribution": 0, "symmetrize": 1, "verdict": 1}


def test_short_horizon_delta_runs_no_eigh(calls):
    # Above 256 states and for t <= d / 4, inst.delta() takes the products of
    # P that the complexity command takes, and builds no Q.
    P = zoo.cycle(400)
    TestingInstance(chain=P, mu=Distribution.point(400, 0), mu_prime=Distribution.point(400, 1), t=10).delta()
    assert calls == {"eigh": 0, "solve": 0, "stationary_distribution": 0, "symmetrize": 0, "verdict": 1}


def test_instance_keeps_its_delta_for_the_bounds(calls, monkeypatch):
    # On the product path, .delta() and the three bounds share one run of
    # the t products of P: the instance keeps its Delta(t).
    runs = []

    def counted(*args, _real=geometry._product_deltas):
        runs.append(args)
        return _real(*args)

    monkeypatch.setattr(geometry, "_product_deltas", counted)
    inst = TestingInstance(chain=zoo.cycle(400), mu=Distribution.point(400, 0), mu_prime=Distribution.point(400, 1),
                           t=100)
    delta_t = inst.delta()
    assert delta_t > 0.0
    assert sample_upper_bound(inst, 0.5, 0.1) == math.ceil(16 * 0.5**-2.5 * math.log(10) / delta_t)
    assert sample_lower_bound(inst, 0.5, 0.1) == math.floor(8 * 0.5 * 0.1**2 / delta_t)
    general_upper_bound(inst, 0.1)
    assert inst.delta() == delta_t
    assert len(runs) == 1
    assert calls == {"eigh": 0, "solve": 0, "stationary_distribution": 0, "symmetrize": 0, "verdict": 1}


def test_estimate_error_runs_no_eigh(calls):
    # Validation reads the verdict's pi, and sampling the evolved masses: no Q.
    estimate_error(instance(), 20, 100, seed=1)
    assert calls == {"eigh": 0, "solve": 0, "stationary_distribution": 0, "symmetrize": 0, "verdict": 1}


# evolve and simulate read pi alone, so they build no Q.  An instance,
# Delta(t) and the decomposition take pi from the one verdict, so only the
# stationary spec calls stationary_distribution.
@pytest.mark.parametrize("argv, eighs, symmetrizes, stationaries", [
    (["evolve", "--mu", "stationary", "--t", "0..3"], 0, 0, 1),
    (["simulate", "--mu", "point:0", "--mu-prime", "point:1", "--t", "2", "--n", "20", "--trials", "100"], 0, 0, 0),
    (["simulate", "--mu", "stationary", "--mu-prime", "point:1", "--t", "2", "--n", "20", "--trials", "100"], 0, 0, 1),
    (["complexity", "--mu", "extreme:[2]:0.01:+", "--mu-prime", "extreme:[2]:0.01:-", "--t", "0,5",
      "--epsilon", "auto"], 1, 1, 0),
    (["time", "--mu", "stationary", "--mu-prime", "extreme:[2]:0.01:+", "--n", "10,1000"], 1, 1, 1),
], ids=["evolve stationary", "simulate points", "simulate stationary", "complexity", "time"])
def test_cli_eigh_and_solve_counts(calls, capsys, argv, eighs, symmetrizes, stationaries):
    assert main([argv[0], "--chain", CHAIN, *argv[1:]]) == 0, capsys.readouterr().err
    assert calls == {"eigh": eighs, "solve": 0, "stationary_distribution": stationaries, "symmetrize": symmetrizes,
                     "verdict": 1}


@pytest.mark.parametrize("fmt, eighs", [("csv", 0), ("json", 1)])
def test_short_horizon_complexity_symmetrizes_only_for_eigh(calls, capsys, fmt, eighs):
    # Above 256 states and for t <= d / 4, Delta(t) comes from products of P;
    # only JSON's eigen_summary needs eigh, and with it Q.
    argv = ["complexity", "--chain", '{"type":"cycle","d":400}', "--mu", "point:0", "--mu-prime", "point:1",
            "--t", "0,1,10", "--format", fmt]
    assert main(argv) == 0, capsys.readouterr().err
    assert calls == {"eigh": eighs, "solve": 0, "stationary_distribution": 0, "symmetrize": eighs, "verdict": 1}


@pytest.mark.parametrize("build, t", [(lambda: zoo.random_chain(50, seed=3), 2), (lambda: zoo.cycle(400), 10)],
                         ids=["projection", "products"])
def test_instance_symmetrizes_once(calls, build, t):
    # Validation, Delta(t) (by projection, or by products of P), the three
    # bounds and the decomposition build Q once, inside the decomposition.
    P = build()
    inst = TestingInstance(chain=P, mu=Distribution.point(P.d, 0), mu_prime=Distribution.point(P.d, 1), t=t)
    inst.delta()
    sample_upper_bound(inst, 0.5, 0.1)
    sample_lower_bound(inst, 0.5, 0.1)
    general_upper_bound(inst, 0.1)
    assert inst.decomposition.stationary is inst.stationary
    assert calls == {"eigh": 1, "solve": 0, "stationary_distribution": 0, "symmetrize": 1, "verdict": 1}


@pytest.mark.parametrize("build, t, route", [(lambda: zoo.cycle(400), 10, "_product_deltas"),
                                              (lambda: zoo.random_chain(12, seed=3), 2, "coefficient_diff")],
                         ids=["products", "projection"])
def test_instance_evaluates_delta_once(monkeypatch, build, t, route):
    # inst.delta(), the three bounds, the report and the witness share one
    # Delta(t): one run of the products of P, or one projection of mu - mu'.
    runs = []
    real = getattr(geometry, route)
    monkeypatch.setattr(geometry, route, lambda *args: runs.append(args) or real(*args))
    P = build()
    inst = TestingInstance(chain=P, mu=Distribution.point(P.d, 0), mu_prime=Distribution.point(P.d, 1), t=t)
    inst.delta()
    sample_upper_bound(inst, 0.5, 0.1)
    sample_lower_bound(inst, 0.5, 0.1)
    general_upper_bound(inst, 0.1)
    assert complexity.complexity_report(inst, None, 0.1).delta_t == inst.delta()
    assert lower_bound_witness(inst, 0.1).delta_t == inst.delta()
    assert len(runs) == 1


def test_wrong_length_vector_exits_1_before_any_solve(calls, capsys):
    argv = ["complexity", "--chain", CHAIN, "--mu", "[0.5,0.5]", "--mu-prime", "point:0", "--t", "0"]
    assert main(argv) == 1
    assert "has 2 entries, the chain 12 states" in capsys.readouterr().err
    assert calls == {"eigh": 0, "solve": 0, "stationary_distribution": 0, "symmetrize": 0, "verdict": 0}


@pytest.mark.parametrize("flag", [["--delta", "5"], ["--eta", "7"]], ids=["delta", "eta"])
@pytest.mark.parametrize("mu, mu_prime", [("point:0", "point:0"), ("[0.3,0.2,0.2,0.15,0.15]", "[0.2,0.2,0.2,0.2,0.2]")],
                         ids=["dead at every t", "usable epsilon"])
def test_bad_delta_or_eta_exits_1_before_any_solve(calls, capsys, flag, mu, mu_prime):
    argv = ["complexity", "--chain", '{"type":"cycle","d":5}', "--mu", mu, "--mu-prime", mu_prime, "--t", "0..1",
            *flag]
    assert main(argv) == 1
    assert f"{flag[0][2:]} must lie in (0, 1), got {float(flag[1])}" in capsys.readouterr().err
    assert calls == {"eigh": 0, "solve": 0, "stationary_distribution": 0, "symmetrize": 0, "verdict": 0}


def test_stationary_spec_refuses_a_chain_with_no_tree(calls, capsys):
    cycle = json.dumps({"type": "explicit", "matrix": [[0, 1, 0], [0, 0, 1], [1, 0, 0]]})
    assert main(["evolve", "--chain", cycle, "--mu", "stationary", "--t", "0..1"]) == 2
    assert "an edge has no reverse edge" in capsys.readouterr().err
    assert calls == {"eigh": 0, "solve": 0, "stationary_distribution": 1, "symmetrize": 0, "verdict": 1}


def test_no_dense_solve_before_not_reversible(calls, capsys):
    # A symmetric support, so the tree exists, but the flows around the
    # 3-cycle do not balance: spectrum and evolve --mu stationary refuse the
    # chain by the same flow rule on the tree pi, with no solve.
    chain3 = json.dumps({"type": "explicit", "matrix": [[0, 0.7, 0.3], [0.3, 0, 0.7], [0.7, 0.3, 0]]})
    assert main(["spectrum", "--chain", chain3]) == 2
    refusal = capsys.readouterr().err
    assert "chain not reversible: relative flow gap" in refusal
    assert calls == {"eigh": 0, "solve": 0, "stationary_distribution": 0, "symmetrize": 0, "verdict": 1}
    assert main(["evolve", "--chain", chain3, "--mu", "stationary", "--t", "0..1"]) == 2
    assert capsys.readouterr().err == refusal
    assert calls == {"eigh": 0, "solve": 0, "stationary_distribution": 1, "symmetrize": 0, "verdict": 2}
    # Nor on a full-support chain at d = 800.
    weights = np.random.default_rng(800).random((800, 800)) + 0.1
    with pytest.raises(NotReversible, match="relative flow gap"):
        spectral_decomposition(TransitionMatrix(weights / weights.sum(axis=1, keepdims=True)))
    assert calls == {"eigh": 0, "solve": 0, "stationary_distribution": 1, "symmetrize": 0, "verdict": 3}


def test_vacuous_witness_runs_no_eigh(calls):
    # The witness reads inst.delta() and no eigen_summary, so only its
    # pinsker mode decomposes; Delta(t) comes from products of P.
    P = zoo.cycle(400)
    inst = TestingInstance(chain=P, mu=Distribution.point(400, 0), mu_prime=Distribution.point(400, 1), t=10)
    assert lower_bound_witness(inst, 0.1).mode == "vacuous"
    assert calls == {"eigh": 0, "solve": 0, "stationary_distribution": 0, "symmetrize": 0, "verdict": 1}


EXT = ["--mu", "extreme:[2]:0.01:+", "--mu-prime", "extreme:[2]:0.01:-"]
AUTO = ["--mu", "extreme:[2]:auto:+", "--mu-prime", "extreme:[2]:auto:-"]
POINTS = ["--mu", "point:0", "--mu-prime", "point:1"]


@pytest.mark.parametrize("argv, message", [
    (["window", "--t", "abc"], "bad --t spec 'abc'"),
    (["complexity", *AUTO, "--epsilon", "0.2", "--t", "abc"], "bad --t spec 'abc'"),
    (["complexity", *AUTO, "--epsilon", "0.2", "--t", "0", "--delta", "5"], "delta must lie in (0, 1), got 5.0"),
    (["complexity", *AUTO, "--epsilon", "0.2", "--t", "0", "--eta", "7"], "eta must lie in (0, 1), got 7.0"),
    (["complexity", *AUTO, "--epsilon", "-0.5", "--t", "0"], "--epsilon must be nonnegative for extreme pairs"),
    (["evolve", "--mu", "extreme:[2]:0.01:+", "--t", "abc"], "bad --t spec 'abc'"),
    (["evolve", "--mu", "extreme:[2]:auto:+", "--t", "0"], "extreme:...:auto needs a numeric --epsilon"),
    (["evolve", "--mu", "extreme:[2]:abc:+", "--t", "0"], "could not convert string to float: 'abc'"),
    (["simulate", *EXT, "--t", "abc", "--n", "5"], "bad --t spec 'abc'"),
    (["simulate", *EXT, "--t", "1", "--n", "5", "--trials", "5"], "need at least 100 trials, got 5"),
    (["simulate", *POINTS, "--t", "1", "--n", "0"], "n must be a positive integer, got 0"),
    (["simulate", *POINTS, "--t", "1", "--n", "5", "--seed", "-1"], "seed must be a 64-bit unsigned integer, got -1"),
    (["time", *POINTS, "--n", "10", "--delta", "5"], "delta must lie in (0, 1)"),
    (["time", *POINTS, "--n", "10", "--epsilon", "5"], "--epsilon must lie in (0, 1) for the default threshold, got 5"),
    (["time", *AUTO, "--n", "10", "--epsilon", "5"], "--epsilon must lie in (0, 1) for the default threshold, got 5"),
    (["time", *EXT, "--n", "abc"], "bad --n spec 'abc'"),
    # --t, --n and --threshold by the library's own rules, before the specs are resolved.
    (["complexity", *POINTS, "--t", "-1"], "t must be a nonnegative integer, got -1.0"),
    (["complexity", *POINTS, "--t", "1" + "0" * 400], "t must be a nonnegative integer within the float range"),
    (["window", "--t", "-1"], "t must be a nonnegative integer, got -1.0"),
    (["evolve", "--mu", "extreme:[2]:auto:+", "--epsilon", "0.2", "--t", "-1"],
     "t must be a nonnegative integer, got -1"),
    (["simulate", *AUTO, "--epsilon", "0.2", "--t", "-1", "--n", "5"], "t must be a nonnegative integer, got -1"),
    (["time", *AUTO, "--epsilon", "0.2", "--n", "0"], "n must be a positive integer, got 0"),
    (["time", *AUTO, "--epsilon", "0.2", "--n", "-5"], "n must be a positive integer, got -5"),
    (["time", *AUTO, "--epsilon", "0.2", "--n", "10", "--threshold", "-1"], "threshold must be positive, got -1.0"),
    (["time", *POINTS, "--epsilon", "0.2", "--n", "1," + "1" * 400], "n must be at most 1.7976931348623157e+308"),
    # Every spec is parsed before any is resolved: an auto extreme spec runs no eigh before a malformed one.
    (["complexity", "--mu", "extreme:[2]:auto:+", "--mu-prime", "point:abc", "--epsilon", "0.2", "--t", "0"],
     "invalid literal for int() with base 10: 'abc'"),
    (["complexity", "--mu", "extreme:[2]:auto:+", "--mu-prime", "bogus", "--epsilon", "0.2", "--t", "0"],
     "unrecognized distribution spec 'bogus'"),
    (["complexity", "--mu", "extreme:[2]:auto:+", "--mu-prime", "[0.5,0.5]", "--epsilon", "0.2", "--t", "0"],
     "has 2 entries, the chain 12 states"),
    (["complexity", "--mu", "extreme:[2]:auto:+", "--mu-prime", "point:99", "--epsilon", "0.2", "--t", "0"],
     "point index must lie in [0, 12), got 99"),
    (["complexity", "--mu", "extreme:[2]:auto:+", "--mu-prime", "[1", "--epsilon", "0.2", "--t", "0"],
     "Expecting ',' delimiter"),
    (["complexity", "--mu", "stationary", "--mu-prime", "bogus", "--t", "0"], "unrecognized distribution spec 'bogus'"),
    # An extreme spec's alpha is a finite number >= 0; one too large for pi is refused when it is resolved.
    *((["evolve", "--mu", f"extreme:[2]:{alpha}:+", "--t", "0"],
       f"bad extreme spec 'extreme:[2]:{alpha}:+': alpha must be a finite number >= 0")
      for alpha in ("nan", "inf", "1e999", "-0.1")),
], ids=["window", "complexity", "complexity delta", "complexity eta", "complexity epsilon", "evolve", "evolve auto",
        "evolve alpha", "simulate", "simulate trials", "simulate n", "simulate seed", "time delta", "time epsilon",
        "time auto epsilon", "time n", "complexity negative t", "complexity t past floats", "window negative t",
        "evolve negative t", "simulate negative t", "time zero n", "time negative n", "time negative threshold",
        "time n past floats", "spec order point index syntax", "spec order unrecognized", "spec order vector length",
        "spec order point index range", "spec order vector json", "spec order stationary", "alpha nan", "alpha inf",
        "alpha 1e999", "alpha negative"])
def test_malformed_flags_exit_1_before_any_solve(calls, capsys, argv, message):
    assert main([argv[0], "--chain", CHAIN, *argv[1:]]) == 1
    assert message in capsys.readouterr().err
    assert calls == {"eigh": 0, "solve": 0, "stationary_distribution": 0, "symmetrize": 0, "verdict": 0}

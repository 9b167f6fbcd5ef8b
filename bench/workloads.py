"""The four workloads: fixed op lists built from the workload seed.

An op is one CLI command (`argv`) or one oracle call (`call`, `args`).  Ops
run one after another from a single caller (a closed loop with one client),
and a run repeats the whole list.  `klass` groups ops of similar cost;
each list is laid out so that the median op and the tail op (the 11th
slowest of a run) each fall well inside one class.  Chains and `--seed`
values of `random_chain` and `simulate` derive from the workload seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

NAMES = ("cli_session", "decay_scan", "large_chain", "monte_carlo")
N_SPAN = "100,1000,10000,100000,1000000"


@dataclass
class Op:
    label: str
    klass: str
    argv: list[str] | None = None
    call: str | None = None
    args: tuple = ()
    expect_rc: int = 0
    facts: dict = field(default_factory=dict)


def spec(kind: str, **fields) -> str:
    return json.dumps({"type": kind, **fields}, separators=(",", ":"))


def cycle(d):
    return spec("cycle", d=d)


def line(d):
    return spec("line", d=d)


def rc(d, seed):
    return spec("random_chain", d=d, seed=seed)


EXT2 = ["--mu", "extreme:[2]:auto:+", "--mu-prime", "extreme:[2]:auto:-"]
EXTD = ["--mu", "extreme:[d]:auto:+", "--mu-prime", "extreme:[d]:auto:-"]


def _lazy_cycle_file(workdir, d: int) -> str:
    """The lazy cycle (P + I)/2 has no zoo spec, so it goes in as an explicit matrix file."""
    import numpy as np

    import markovwindow as mw

    P = mw.lazy(mw.zoo.cycle(d), 0.5).entries
    path = f"{workdir}/lazy_cycle_{d}.json"
    with open(path, "w") as fh:
        json.dump({"type": "explicit", "matrix": np.asarray(P).tolist()}, fh)
    return path


def cli_session(seeds, workdir) -> list[Op]:
    """README-sized commands, one fresh process each.  No op does much more
    work than the import, so the median and the tail both sit in that bulk
    whether a run makes three passes or four."""
    s1, s2, s3 = seeds(), seeds(), seeds()
    cyc8 = ["--chain", cycle(8)]
    return [
        Op("spectrum cycle(4)", "cli", ["spectrum", "--chain", cycle(4)]),
        Op("spectrum pachinko(3) json", "cli", ["spectrum", "--chain", spec(
            "pachinko", r=3, betas=[0.5, 0.26, 0.15, 0.09]), "--format", "json"]),
        Op("evolve cycle(8)", "cli", ["evolve", *cyc8, "--mu", "point:0", "--t", "0..5"]),
        Op("complexity cycle(8) [d]", "cli", ["complexity", *cyc8, *EXTD, "--t", "0..3",
                                              "--epsilon", "0.2", "--delta", "0.1"]),
        Op("complexity random_chain(65) json", "cli", ["complexity", "--chain", rc(65, s1), *EXT2,
                                                       "--t", "0..20", "--epsilon", "0.2", "--format", "json"]),
        Op("window cycle(8)", "cli", ["window", *cyc8, "--t", "0..5", "--epsilon", "0.2"]),
        Op("window cycle(65) json", "cli", ["window", "--chain", cycle(65), "--t", "0..200",
                                            "--epsilon", "0.2", "--format", "json"]),
        Op("window random_chain(200)", "cli", ["window", "--chain", rc(200, s2), "--t", "0..60",
                                               "--epsilon", "0.2"]),
        Op("time cycle(8)", "cli", ["time", *cyc8, "--mu", "extreme:[2]:0.2:+", "--mu-prime",
                                    "extreme:[2]:0.2:-", "--n", "10,1000", "--epsilon", "auto"]),
        Op("time cycle(17) json", "cli", ["time", "--chain", cycle(17), *EXT2, "--n", "100,10000",
                                          "--epsilon", "0.2", "--format", "json"]),
        Op("simulate cycle(8)", "cli", ["simulate", *cyc8, *EXT2, "--t", "2", "--n", "100", "--trials",
                                        "500", "--seed", str(s3), "--epsilon", "0.2"]),
        Op("zoo-list json", "cli", ["zoo-list", "--format", "json"]),
        Op("spectrum not reversible", "cli", ["spectrum", "--chain", spec(
            "explicit", matrix=[[0, 1, 0], [0, 0, 1], [1, 0, 0]])], expect_rc=2),
    ]


def decay_scan(seeds, workdir) -> list[Op]:
    """Long --t horizons and --n spans; eigh at d <= 400 is a small share."""
    s1, s2 = seeds(), seeds()
    lazy81 = _lazy_cycle_file(workdir, 81)
    lazy33 = _lazy_cycle_file(workdir, 33)
    lazy = {"family": "lazy_cycle"}
    eps = ["--epsilon", "0.2"]
    ops = [
        Op("complexity cycle(65) [2]", "rows", ["complexity", "--chain", cycle(65), *EXT2, "--t", "0..400", *eps]),
        Op("window cycle(65)", "rows", ["window", "--chain", cycle(65), "--t", "0..300", *eps]),
        Op("complexity cycle(101) points json", "rows", ["complexity", "--chain", cycle(101), "--mu", "point:0",
                                                         "--mu-prime", "point:50", "--t", "0..300", "--format", "json"]),
        Op("window cycle(101) json", "rows", ["window", "--chain", cycle(101), "--t", "0..300", *eps,
                                              "--format", "json"]),
        Op("complexity lazy cycle(81) [2]", "rows", ["complexity", "--chain", lazy81, *EXT2, "--t", "0..300", *eps],
           facts=lazy),
        Op("window lazy cycle(81)", "rows", ["window", "--chain", lazy81, "--t", "0..300", *eps], facts=lazy),
        Op("complexity line(65) points", "rows", ["complexity", "--chain", line(65), "--mu", "point:0",
                                                  "--mu-prime", "point:1", "--t", "0..300"]),
        Op("complexity random_chain(200) [2]", "rows", ["complexity", "--chain", rc(200, s1), *EXT2,
                                                        "--t", "0..200", *eps]),
        Op("window random_chain(200)", "rows", ["window", "--chain", rc(200, s1), "--t", "0..200", *eps]),
        Op("complexity random_chain(400) [d] json", "rows", ["complexity", "--chain", rc(400, s2), *EXTD,
                                                             "--t", "0..200", *eps, "--format", "json"]),
        Op("window random_chain(400) json", "rows", ["window", "--chain", rc(400, s2), "--t", "0..200", *eps,
                                                     "--format", "json"]),
        Op("time cycle(65) [2]", "time", ["time", "--chain", cycle(65), *EXT2, "--n", N_SPAN, *eps]),
        Op("time cycle(67) [2] json", "time", ["time", "--chain", cycle(67), *EXT2, "--n", N_SPAN, *eps,
                                               "--format", "json"]),
        Op("time line(65) points", "time_fast", ["time", "--chain", line(65), "--mu", "point:0", "--mu-prime",
                                                 "point:1", "--n", N_SPAN, "--threshold", "0.01"]),
        Op("time lazy cycle(33) [2]", "time_fast", ["time", "--chain", lazy33, *EXT2, "--n", N_SPAN, *eps],
           facts=lazy),
        Op("time random_chain(200) [2]", "time_fast", ["time", "--chain", rc(200, s1), *EXT2, "--n", N_SPAN, *eps]),
        Op("time random_chain(400) [2] json", "time_fast", ["time", "--chain", rc(400, s2), *EXT2, "--n", N_SPAN,
                                                            *eps, "--format", "json"]),
    ]
    return ops


def large_chain(seeds, workdir) -> list[Op]:
    """Decompositions at d = 800-1600, dense and high-diameter sparse chains."""
    s1, s2 = seeds(), seeds()
    js = ["--format", "json"]
    pts = ["--mu", "point:0", "--mu-prime", "point:1", "--t", "0,1,10"]
    return [
        Op("spectrum random_chain(800)", "d800", ["spectrum", "--chain", rc(800, s1), *js]),
        Op("spectrum blockmodel2(800)", "d800", ["spectrum", "--chain", spec(
            "blockmodel2", d=800, intra_degree=200, inter_degree=50), *js]),
        Op("complexity line(800)", "d800", ["complexity", "--chain", line(800), *pts]),
        Op("spectrum cycle(1200)", "d1200", ["spectrum", "--chain", cycle(1200), *js]),
        Op("spectrum random_chain(1600)", "d1600", ["spectrum", "--chain", rc(1600, s2), *js]),
        Op("complexity cycle(1600)", "d1600", ["complexity", "--chain", cycle(1600), *pts]),
        Op("spectrum blockmodel2(1600)", "d1600", ["spectrum", "--chain", spec(
            "blockmodel2", d=1600, intra_degree=400, inter_degree=100), *js]),
    ]


def monte_carlo(seeds, workdir) -> list[Op]:
    """Small-n simulate ops set the median, large-n ones the tail."""
    import numpy as np

    import markovwindow as mw

    sim = ["--trials", "2000", "--epsilon", "0.2"]
    ops = [
        Op("simulate cycle(8) n=100", "small_n", ["simulate", "--chain", cycle(8), *EXT2, "--t", "2",
                                                  "--n", "100", "--seed", str(seeds()), *sim]),
        Op("simulate random_chain(8) n=10", "small_n", ["simulate", "--chain", rc(8, seeds()), "--mu", "point:0",
                                                        "--mu-prime", "point:1", "--t", "1", "--n", "10",
                                                        "--seed", str(seeds()), *sim]),
        Op("simulate random_chain(8) n=50 json", "small_n", ["simulate", "--chain", rc(8, seeds()),
                                                             "--mu", "stationary", "--mu-prime", "point:0",
                                                             "--t", "3", "--n", "50", "--seed", str(seeds()),
                                                             *sim, "--format", "json"]),
        Op("simulate random_chain(8) n=7 exact", "small_n", ["simulate", "--chain", rc(8, seeds()), *EXT2,
                                                             "--t", "0", "--n", "7", "--seed", str(seeds()), *sim],
           facts={"exact": True}),
        Op("simulate random_chain(400) n=100", "small_n", ["simulate", "--chain", rc(400, seeds()), *EXT2,
                                                           "--t", "1", "--n", "100", "--seed", str(seeds()), *sim]),
    ]
    # Large n: the extreme [2] pair of an odd cycle at the t where n_upper lands in 2e4-5e4;
    # trials keep 2 * trials * n near 1.2e7 draws per op.
    for d, t in ((9, 21), (11, 32), (13, 48)):
        P = mw.zoo.cycle(d)
        ext = mw.extreme_pairs(P, 0.2)
        inst = mw.TestingInstance(chain=P, mu=ext.mu, mu_prime=ext.mu_prime, t=t)
        eps = mw.pairwise_epsilon(ext.mu, ext.mu_prime, inst.stationary)
        n = mw.sample_upper_bound(inst, eps, 0.1)
        trials = max(100, round(6e6 / n))
        ops.append(Op(f"simulate cycle({d}) t={t} n=n_upper", "large_n", [
            "simulate", "--chain", cycle(d), *EXT2, "--t", str(t), "--n", str(n), "--trials", str(trials),
            "--seed", str(seeds()), "--epsilon", "0.2", "--delta", "0.1"], facts={"at_n_upper": True}))
    rng = np.random.default_rng(seeds())
    for call, n in (("exact_lr_error", 7), ("exact_product_tv", 6), ("exact_lr_error", 5)):
        p, q = (mw.Distribution(x / x.sum()) for x in rng.dirichlet(np.ones(8), size=2))
        ops.append(Op(f"{call} d=8 n={n}", "oracle", call=call, args=(p, q, n)))
    return ops


def build(name: str, seed: int, workdir: str) -> list[Op]:
    rng = random.Random(f"{name}:{seed}")
    return globals()[name](lambda: rng.randrange(2**31), workdir)

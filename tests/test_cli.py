import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from markovwindow import cli, zoo


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_cycle4(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--chain", '{"type":"cycle","d":4}')
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,eigenvalue,abs_rank"
    assert len(lines) == 5
    eigenvalues = sorted(float(line.split(",")[1]) for line in lines[1:])
    np.testing.assert_allclose(eigenvalues, [-1, 0, 0, 1], atol=1e-12)


def test_spectrum_explicit_matrix(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--chain", '{"type":"explicit","matrix":[[0.6,0.4],[0.4,0.6]]}'
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 3


def test_spectrum_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--chain", '{"type":"cycle","d":3}', "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["d"] == 3
    assert {row["abs_rank"] for row in doc["rows"]} == {1, 2, 3}


def test_spectrum_nonreversible_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "spectrum", "--chain",
        '{"type":"explicit","matrix":[[0,1,0],[0,0,1],[1,0,0]]}',
    )
    assert code == 2
    assert "chain not reversible" in err


def test_spectrum_one_way_edge_exits_2(capsys):
    # Edge 0 -> 2 of weight 1e-12 has no reverse edge: no pi balances it.
    code, out, err = run_cli(
        capsys, "spectrum", "--chain",
        '{"type":"explicit","matrix":[[0.5,0.499999999999,1e-12],[0.5,0,0.5],[0,0.5,0.5]]}',
    )
    assert (code, out) == (2, "")
    assert "chain not reversible" in err


@pytest.mark.parametrize("params", [[[1e-9, 0.9], [0.5, 0.5]], [[1e-9, 0.9], [1e-9, 0.9]]])
def test_spectrum_of_a_product_with_small_stationary_entries(capsys, params):
    # pi has entries near 1e-9 and 1e-18.  A dense solve for pi erred by about
    # 2^-53 of its largest entry, so these exited 2 ("symmetrized deviation
    # 5.094e-08", "stationary distribution has a nonpositive entry").
    spec = json.dumps({"type": "hypercube_product", "k": 2, "weights": [0.5, 0.5], "params": params})
    code, out, err = run_cli(capsys, "spectrum", "--chain", spec)
    assert code == 0, err
    eigenvalues = sorted(float(line.split(",")[1]) for line in out.strip().splitlines()[1:])
    np.testing.assert_allclose(eigenvalues, sorted(zoo.hypercube_product_spectrum([0.5, 0.5], params)),
                               rtol=0, atol=1e-9)


@pytest.mark.parametrize("matrix, eigenvalues", [
    ([[0.5, 0.5], [1e-320, 1]], [1, 0.5]),  # pi = (2e-320, 1): P_01 / P_10 overflows
    ([[0.5, 0.5, 0], [1e-160, 0.5, 0.5], [0, 1e-160, 1]], [1, 0.5, 0.5]),  # pi_2 / pi_0 = 2.5e319
])
def test_spectrum_with_a_subnormal_stationary_entry(capsys, matrix, eigenvalues):
    # pi from log P_ij - log P_ji along the tree, shifted by its maximum
    # where exp would overflow; any warning fails the test.
    code, out, err = run_cli(capsys, "spectrum", "--chain", json.dumps({"type": "explicit", "matrix": matrix}))
    assert (code, err) == (0, "")
    np.testing.assert_allclose([float(line.split(",")[1]) for line in out.strip().splitlines()[1:]], eigenvalues,
                               rtol=0, atol=1e-12)


def test_spectrum_with_a_stationary_entry_below_every_float_exits_2(capsys):
    # pi is proportional to (1, 5e199, 2.5e399): pi_0 = 4e-400 is no float.
    matrix = [[0.5, 0.5, 0], [1e-200, 0.5, 0.5], [0, 1e-200, 1]]
    code, out, err = run_cli(capsys, "spectrum", "--chain", json.dumps({"type": "explicit", "matrix": matrix}))
    assert (code, out) == (2, "")
    assert err == "error: stationary distribution has an entry below the smallest subnormal float\n"


def test_stationary_spec_on_a_chain_that_is_not_reversible(capsys):
    # evolve reads no spectrum, so it evolves the directed 3-cycle's uniform pi,
    # as it evolves a point mass; simulate and time still exit 2 on it.
    cycle3 = '{"type":"explicit","matrix":[[0,1,0],[0,0,1],[1,0,0]]}'
    code, out, _ = run_cli(capsys, "evolve", "--chain", cycle3, "--mu", "stationary", "--t", "0..1")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [(t, s) for t, s, _ in rows] == [(t, s) for t in "01" for s in "012"]
    np.testing.assert_allclose([float(m) for _, _, m in rows], 1 / 3, rtol=1e-15)
    for argv in (["simulate", "--mu-prime", "point:1", "--t", "1", "--n", "5", "--trials", "100"],
                 ["time", "--mu-prime", "point:1", "--n", "10"]):
        code, out, err = run_cli(capsys, argv[0], "--chain", cycle3, "--mu", "stationary", *argv[1:])
        assert (code, out) == (2, "")
        assert "chain not reversible" in err


def test_simulate_on_a_slow_reversible_chain(capsys):
    # Flip rates of 1e-10: the chain is accepted, though a dense solve's pi
    # would miss detailed balance by up to 2.8e-7 of the flows.
    slow = '{"type":"hypercube_product","k":1,"weights":[1],"params":[[1e-10,1e-10]]}'
    code, out, err = run_cli(capsys, "simulate", "--chain", slow, "--mu", "point:0", "--mu-prime", "point:1",
                             "--t", "1", "--n", "5", "--trials", "100")
    assert code == 0, err
    assert out.startswith("err_mu,")


def test_usage_errors_exit_1(capsys, tmp_path):
    code, _, err = run_cli(capsys, "spectrum")
    assert code == 1
    code, _, err = run_cli(capsys, "spectrum", "--chain", "not-a-file.json")
    assert code == 1
    # A chain spec file is read as the inline spec; one that holds no JSON
    # object is a usage error.
    spec_file, list_file = tmp_path / "cycle4.json", tmp_path / "list.json"
    spec_file.write_text('{"type":"cycle","d":4}\n')
    list_file.write_text("[1, 2]\n")
    assert run_cli(capsys, "spectrum", "--chain", str(spec_file)) == run_cli(
        capsys, "spectrum", "--chain", '{"type":"cycle","d":4}')
    pair = ["--chain", '{"type":"cycle","d":8}', "--mu", "point:0", "--mu-prime", "point:1"]
    simulate = ["simulate", *pair, "--n", "10", "--trials", "100"]
    for argv, message in [
        (["spectrum", "--chain", str(list_file)], "chain spec must be a JSON object"),
        (["complexity", *pair, "--t", "5..1"], "bad --t spec '5..1'"),
        (["complexity", *pair, "--t", "a"], "bad --t spec 'a'"),
        (["time", *pair, "--n", "10", "--threshold", "abc"], "must be a finite number"),
        (["time", *pair, "--n", "10", "--threshold", "0"], "threshold must be positive"),
        (["window", *pair, "--t", "0..2"], "explicit window pairs need all of"),
        (["time", *pair, "--n", "10", "--epsilon", "auto"], "measured epsilon is 0; pass --threshold explicitly"),
        (["time", *pair, "--n", "10"], "measured epsilon is 0; pass --threshold explicitly"),
        (["time", *pair, "--n", "10", "--epsilon", "0"], "--epsilon must lie in (0, 1) for the default threshold, got 0"),
        (["time", *pair, "--n", "10", "--epsilon", "1"], "--epsilon must lie in (0, 1) for the default threshold, got 1"),
        (["time", *pair, "--n", "10", "--epsilon", "5"], "--epsilon must lie in (0, 1) for the default threshold, got 5"),
        (["time", *pair, "--n", "10", "--epsilon", "-1"], "got -1"),
        ([*simulate, "--t", "0..1"], "simulate takes a single --t"),
        (["complexity", "--chain", '{"type":"cycle","d":4}', "--mu", "[0.5,0.5]", "--mu-prime", "point:0",
          "--t", "0"], "distribution vector '[0.5,0.5]' has 2 entries, the chain 4 states"),
        (["spectrum", "--chain", '{"type":"cycle","d":4}', "--output", str(tmp_path / "no-dir" / "out.csv")],
         "cannot write output file"),
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == "" and err.splitlines()[-1].startswith("error: ") and message in err, argv
    code, _, err = run_cli(
        capsys, "complexity", "--chain", '{"type":"cycle","d":8}',
        "--mu", "bogus", "--mu-prime", "stationary", "--t", "0",
    )
    assert code == 1
    code, _, err = run_cli(
        capsys, "complexity", "--chain", '{"type":"cycle","d":8}',
        "--mu", "extreme:[2]:auto:+", "--mu-prime", "stationary", "--t", "0",
    )
    assert code == 1 and "--epsilon" in err


def test_non_finite_input_exits_1(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--chain", '{"type":"cycle","d":4}',
        "--mu", "[NaN,1,0,0]", "--mu-prime", "stationary",
        "--t", "1", "--n", "10", "--trials", "100",
    )
    assert code == 1 and "finite" in err
    code, _, err = run_cli(
        capsys, "spectrum", "--chain", '{"type":"explicit","matrix":[[NaN,0.5],[0.5,0.5]]}'
    )
    assert code == 1 and "finite" in err
    code, _, err = run_cli(
        capsys, "complexity", "--chain", '{"type":"cycle","d":8}',
        "--mu", "point:0", "--mu-prime", "point:1", "--t", "0..2", "--epsilon", "nan",
    )
    assert code == 1 and "finite" in err
    code, _, err = run_cli(
        capsys, "window", "--chain", '{"type":"cycle","d":8}', "--t", "0..2", "--epsilon", "nan"
    )
    assert code == 1 and "finite" in err
    # Sizes beyond what their computation represents: a float for time, a
    # 64-bit count for the sampler.
    code, out, err = run_cli(
        capsys, "time", "--chain", '{"type":"cycle","d":8}', "--mu", "point:0", "--mu-prime", "point:1",
        "--n", "1," + "1" + "0" * 400, "--epsilon", "0.2",
    )
    assert code == 1 and out == "" and err.startswith("error: n must be at most 1.7976931348623157e+308")
    code, out, err = run_cli(
        capsys, "simulate", "--chain", '{"type":"cycle","d":4}', "--mu", "point:0", "--mu-prime", "stationary",
        "--t", "1", "--n", "100000000000000000000000", "--trials", "100",
    )
    assert code == 1 and out == "" and err == "error: n must be below 2^63, got 100000000000000000000000\n"


def test_overflowing_threshold_numerators_print_inf(capsys):
    # epsilon^-2.5 at 1e-200 and (eta/3)^-2.5 at 1e-300 exceed the float
    # range (at 5e-324, eta/3 is 0.0), so n_upper is inf; 8 eps delta^2
    # underflows, so n_lower is 0.
    base = ["complexity", "--chain", '{"type":"cycle","d":8}', "--mu", "point:0", "--mu-prime", "point:1",
            "--t", "0,3"]
    code, out, _ = run_cli(capsys, *base, "--epsilon", "1e-200")
    assert code == 0 and [line.split(",")[2:4] for line in out.splitlines()[1:]] == [["inf", "0"]] * 2
    for eta in ("1e-300", "5e-324"):
        code, out, _ = run_cli(capsys, *base, "--epsilon", "auto", "--eta", eta, "--format", "json")
        rows = json.loads(out)
        assert code == 0 and [row["n_upper"] for row in rows] == ["inf", "inf"]
        assert [row["epsilon"] for row in rows] == [None, None]


def test_time_rejects_unbounded_threshold_and_delta(capsys):
    base = ["time", "--chain", '{"type":"cycle","d":9}', "--mu", "point:0",
            "--mu-prime", "point:1", "--n", "10,1000", "--epsilon", "0.2"]
    for flag, value, message in [
        ("--threshold", "inf", "finite"),
        ("--threshold", "nan", "finite"),
        ("--delta", "inf", "delta must lie in (0, 1)"),
        ("--delta", "-1", "delta must lie in (0, 1)"),
        ("--delta", "1", "delta must lie in (0, 1)"),
        ("--delta", "5", "delta must lie in (0, 1)"),
    ]:
        code, out, err = run_cli(capsys, *base, flag, value)
        assert code == 1 and out == "" and message in err, (flag, value)


@pytest.mark.parametrize("spec", [
    '{"type":"cycle","d":null}',
    '{"type":"cycle","d":1e400}',
    '{"type":"hypercube_product","weights":1,"params":2}',
    '{"type":"blockmodel2","d":8,"intra_degree":2,"inter_degree":[1]}',
    '{"type":"cycle","d":10000000}',
])
def test_malformed_chain_spec_exits_1(capsys, spec):
    code, out, err = run_cli(capsys, "spectrum", "--chain", spec)
    assert code == 1 and out == "" and err.startswith("error: ")


# Field values for the fuzz below: wrong types, non-integral and non-finite
# numbers, and sizes no machine holds (refused before any large allocation).
# Small integers stay below 10 so that a well-formed spec decomposes quickly
# (hypercube k = 9 has 512 states).
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-3, max_value=9),
    st.sampled_from([10**7, 2**70, 0.5, 8.5, -0.0, 1e-320, math.inf, -math.inf, math.nan,
                     "", "8", "uniform01", "x"]),
)
_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from("ad"), inner, max_size=2),
    max_leaves=12,
)


@st.composite
def _chain_specs(draw):
    kind = draw(st.sampled_from([*cli.ZOO_FAMILIES, "moebius"]) | _values)
    names = cli.ZOO_FAMILIES.get(kind, ["d"]) if isinstance(kind, str) else ["d"]
    fields = draw(st.lists(st.sampled_from([*names, "extra"]), unique=True))
    spec = {name: draw(_values) for name in fields}
    if draw(st.booleans()):
        spec["type"] = kind
    return json.dumps(spec)


_dist_specs = st.one_of(
    st.just("stationary"),
    st.builds("point:{}".format, _scalars),
    st.builds("extreme:{}:{}:{}".format, st.sampled_from(["[2]", "[d]", "[3]", ""]),
              st.sampled_from(["auto", "0.1", "-1", "1e400", "nan", "x"]),
              st.sampled_from(["+", "-", "*"])),
    st.builds(json.dumps, _values),
    st.text(max_size=12),
)


def _assert_clean_exit(*argv):
    """An exception escaping main is what prints a traceback in a real process."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


@settings(max_examples=300)
@given(_chain_specs())
def test_fuzzed_chain_specs_exit_cleanly(spec):
    _assert_clean_exit("spectrum", "--chain", spec)


@settings(max_examples=200)
@given(_dist_specs, _dist_specs)
def test_fuzzed_distribution_specs_exit_cleanly(mu, mu_prime):
    _assert_clean_exit("complexity", "--chain", '{"type":"cycle","d":6}',
                       "--mu", mu, "--mu-prime", mu_prime, "--t", "0,1", "--epsilon", "0.2")


def reference_jsonable(obj):
    """The writer's reference: numpy arrays become lists, numpy scalars numbers,
    non-finite floats the strings "inf", "-inf" and "nan"; json.dumps does the rest."""
    if isinstance(obj, dict):
        return {k: reference_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [reference_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return x if math.isfinite(x) else "nan" if math.isnan(x) else "inf" if x > 0 else "-inf"
    return obj


def reference_json(doc) -> str:
    return json.dumps(reference_jsonable(doc), indent=2, sort_keys=True)


def test_jsonable_fast_path_keeps_the_json_bytes():
    rng = np.random.default_rng(1)
    for arr in (rng.random((3, 5)), rng.integers(-9, 9, size=7), np.array([0.1, np.inf, -np.inf, np.nan]),
                np.zeros((0, 3)), rng.random(4).astype(np.float32), np.array([-0.0, 5e-324, 1e308]),
                np.array([[1.0, np.nan], [np.inf, 2.0]]), np.array([True, False])):
        assert cli._json(arr) == reference_json(arr)
        doc = {"rows": [{"a": arr, "b": 1}] * 2}
        assert cli._json(doc) == reference_json(doc)


_keys = st.text(max_size=4) | st.sampled_from(["%s", "%", "t", "n_upper", "\u00e9", "\U0001f600"])
_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6),
    st.builds(np.float64, st.floats()), st.builds(np.float32, st.floats(width=32)),
    st.builds(np.int64, st.integers(min_value=-2**63, max_value=2**63 - 1)),
    st.builds(np.bool_, st.booleans()),
    hnp.arrays(st.sampled_from([np.float64, np.float32, np.int64, np.bool_]),
               hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4)),
)


def _same_keyed(inner, min_size=0):
    """Lists of dicts that all have the same keys."""
    return st.lists(_keys, unique=True, max_size=4).flatmap(
        lambda keys: st.lists(st.fixed_dictionaries({k: inner for k in keys}), min_size=min_size, max_size=4))


def _containers(inner):
    return st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(_keys, inner, max_size=4),
        _same_keyed(inner),
        st.integers(min_value=1, max_value=3).flatmap(  # lists of one length
            lambda k: st.lists(st.lists(inner, min_size=k, max_size=k), max_size=4)),
        st.builds(lambda shared, n: [{"i": i, "shared": shared} for i in range(n)],  # one nested object
                  st.dictionaries(_keys, inner, max_size=3), st.integers(min_value=0, max_value=4)),
    )


_docs = st.recursive(_leaves, _containers, max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(_docs)
def test_json_is_json_dumps_of_the_reference(doc):
    assert cli._json(doc) == reference_json(doc)


@settings(max_examples=50, deadline=None)
@given(_same_keyed(_docs, min_size=1))
def test_json_writes_rows_from_columns(rows):
    assume(rows[0])  # columns hold the row count only when there is a column
    columns = cli._Rows({k: [row[k] for row in rows] for k in rows[0]})
    assert cli._json(columns) == reference_json(rows)
    assert cli._json({"rows": columns}) == reference_json({"rows": rows})


def test_cli_import_loads_no_scipy():
    src = Path(cli.__file__).resolve().parents[1]
    # fractions, decimal and concurrent would add to the import time of
    # every CLI process.
    code = ("import markovwindow.cli, sys; "
            "print(sorted(m for m in sys.modules"
            " if m.split('.')[0] in ('scipy', 'fractions', 'decimal', 'concurrent')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert proc.stdout.strip() == "[]"


def test_budget_exceeded_exits_3(capsys, monkeypatch):
    from markovwindow.errors import BudgetExceeded

    def boom(args):
        raise BudgetExceeded("too many outcomes")

    monkeypatch.setattr(cli, "_cmd_spectrum", boom)
    parser = cli._build_parser()
    args = parser.parse_args(["spectrum", "--chain", '{"type":"cycle","d":4}'])
    # main() re-parses, so patch via the dispatch table the parser recorded.
    monkeypatch.setattr(args, "func", boom, raising=False)
    code = cli.main(["spectrum", "--chain", '{"type":"cycle","d":4}'])
    assert code == 3


def test_evolve_command(capsys):
    code, out, _ = run_cli(
        capsys, "evolve", "--chain", '{"type":"bipartite_clique","d":6}',
        "--mu", "point:0", "--t", "0..1",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,state,mass"
    t1 = {int(l.split(",")[1]): float(l.split(",")[2]) for l in lines if l.startswith("1,")}
    np.testing.assert_allclose([t1[x] for x in range(6)], [0, 0, 0, 1/3, 1/3, 1/3], atol=1e-15)


def test_complexity_extreme_pair_b_goes_infinite(capsys):
    code, out, err = run_cli(
        capsys, "complexity", "--chain", '{"type":"cycle","d":8}',
        "--mu", "extreme:[d]:auto:+", "--mu-prime", "extreme:[d]:auto:-",
        "--t", "0..3", "--epsilon", "0.2", "--delta", "0.1",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,delta_t,n_upper,n_lower,n_star_scale"
    rows = [line.split(",") for line in lines[1:]]
    assert rows[0][2] != "inf"
    for row in rows[1:]:
        assert row[1] == "0" and row[2] == "inf" and row[3] == "inf" and row[4] == "inf"
    assert "resolved alpha" in err


def test_complexity_t0_matches_scale(capsys):
    code, out, _ = run_cli(
        capsys, "complexity", "--chain", '{"type":"cycle","d":8}',
        "--mu", "extreme:[2]:0.1:+", "--mu-prime", "extreme:[2]:0.1:-",
        "--t", "0", "--epsilon", "auto",
    )
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    delta0 = float(row[1])
    assert float(row[4]) == pytest.approx(1.0 / delta0, rel=1e-12)


def test_complexity_scale_log_linear_in_t(capsys):
    # log n_star_scale grows linearly with slope 2 ln(1/|lam|) for aligned pairs.
    code, out, _ = run_cli(
        capsys, "complexity", "--chain", '{"type":"pachinko","r":2,"betas":[0.6,0.3,0.1]}',
        "--mu", "extreme:[2]:0.05:+", "--mu-prime", "extreme:[2]:0.05:-",
        "--t", "0..10", "--epsilon", "auto",
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    logs = np.log([float(r[4]) for r in rows])
    slopes = np.diff(logs)
    np.testing.assert_allclose(slopes, 2 * math.log(1 / 0.8), rtol=1e-9)


def test_window_command_auto_pairs(capsys):
    code, out, _ = run_cli(
        capsys, "window", "--chain", '{"type":"cycle","d":8}', "--t", "0..2",
        "--epsilon", "0.2",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,window"
    assert lines[1] == "0,1"
    assert lines[2].split(",")[1] == "inf"


def test_window_explicit_pairs(capsys):
    code, out, _ = run_cli(
        capsys, "window", "--chain", '{"type":"pachinko","r":2,"betas":[0.6,0.3,0.1]}',
        "--t", "0..3", "--epsilon", "0.2",
        "--mu", "extreme:[2]:auto:+", "--mu-prime", "extreme:[2]:auto:-",
        "--gamma", "extreme:[d]:auto:+", "--gamma-prime", "extreme:[d]:auto:-",
    )
    assert code == 0
    values = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
    expected = [(0.8 / 0.3) ** (2 * t) for t in range(4)]
    np.testing.assert_allclose(values, expected, rtol=1e-9)


def test_window_reports_the_auto_alpha_of_mixed_specs(capsys):
    # Three specs resolve "auto", one gives 0.01: the reported alpha is auto's.
    from markovwindow import extreme_pairs

    chain = '{"type":"pachinko","r":2,"betas":[0.6,0.3,0.1]}'
    argv = ["window", "--chain", chain, "--t", "0..3", "--epsilon", "0.2",
            "--mu", "extreme:[2]:auto:+", "--mu-prime", "extreme:[2]:0.01:-",
            "--gamma", "extreme:[d]:auto:+", "--gamma-prime", "extreme:[d]:auto:-"]
    alpha = extreme_pairs(cli._load_chain(chain), 0.2).alpha
    assert alpha != 0.01
    code, _, err = run_cli(capsys, *argv)
    assert code == 0 and err == f"resolved alpha = {cli._fmt(alpha)}\n"
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0 and json.loads(out)["alpha"] == alpha


def test_time_command_closed_form_case(capsys, tmp_path):
    # Two-state chain with lam = 1/2; threshold chosen so n Delta0 / thr = 16.
    chain = '{"type":"hypercube_product","k":1,"weights":[1.0],"params":[[0.25,0.25]]}'
    mu, mu_prime = "[0.6,0.4]", "[0.4,0.6]"
    delta0 = 0.16  # ||mu - mu'||_pi^2 = 2 * (0.2^2 / 0.5)
    n = 1000
    thr = n * delta0 / 16
    code, out, _ = run_cli(
        capsys, "time", "--chain", chain, "--mu", mu, "--mu-prime", mu_prime,
        "--n", str(n), "--threshold", str(thr),
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,t_star"
    assert lines[1] == "1000,2"


def test_time_command_infinite_sentinel(capsys):
    code, out, _ = run_cli(
        capsys, "time", "--chain", '{"type":"cycle","d":8}',
        "--mu", "extreme:[2]:0.2:+", "--mu-prime", "extreme:[2]:0.2:-",
        "--n", "10,1000", "--epsilon", "auto",
    )
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        assert line.split(",")[1] == "inf"


def test_simulate_command_and_mw_threads(capsys, monkeypatch):
    argv = [
        "simulate", "--chain", '{"type":"cycle","d":8}',
        "--mu", "extreme:[2]:0.3:+", "--mu-prime", "extreme:[2]:0.3:-",
        "--t", "2", "--n", "30", "--trials", "150", "--seed", "9",
        "--format", "json",
    ]
    monkeypatch.delenv("MW_THREADS", raising=False)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {
        "err_mu", "err_mu_prime", "err_max", "trials", "ci_halfwidth", "n", "t", "seed",
    }
    assert doc["trials"] == 150 and doc["n"] == 30 and doc["seed"] == 9
    # Trial blocks run in order on one thread; MW_THREADS, once read as a
    # thread count, is ignored whatever it holds.
    for value in ("4", "-1", "zebra"):
        monkeypatch.setenv("MW_THREADS", value)
        assert run_cli(capsys, *argv) == (0, out, ""), value


def test_simulate_meets_error_target_at_threshold(capsys):
    # n = 584 is the explicit threshold for this pair at its measured epsilon
    # (0.328), delta = 0.1; the empirical max error must respect the target.
    code, out, _ = run_cli(
        capsys, "simulate", "--chain", '{"type":"cycle","d":8}',
        "--mu", "extreme:[2]:auto:+", "--mu-prime", "extreme:[2]:auto:-",
        "--t", "2", "--n", "584", "--trials", "500", "--seed", "1",
        "--epsilon", "0.2", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["err_max"] <= 0.1 + 3 * doc["ci_halfwidth"]


def test_zoo_list(capsys):
    code, out, _ = run_cli(capsys, "zoo-list")
    assert code == 0
    assert out.splitlines()[0] == "family,parameters"
    for family in ("cycle", "pachinko", "random_chain", "hypercube_product"):
        assert any(line.startswith(family + ",") for line in out.splitlines())


def test_output_file_and_determinism(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    argv = [
        "simulate", "--chain", '{"type":"random_chain","d":6,"seed":3,"weight_law":"uniform01"}',
        "--mu", "point:0", "--mu-prime", "stationary",
        "--t", "1", "--n", "25", "--trials", "120", "--seed", "4",
    ]
    assert cli.main(argv + ["--output", str(out_a)]) == 0
    assert cli.main(argv + ["--output", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()


def test_csv_floats_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "complexity", "--chain", '{"type":"cycle","d":8}',
        "--mu", "extreme:[2]:0.123456789:+", "--mu-prime", "stationary",
        "--t", "0", "--epsilon", "auto",
    )
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    value = float(row[1])
    assert format(value, ".17g") == row[1]


_CYCLE8 = '{"type":"cycle","d":8}'
_EXT_D = ["--mu", "extreme:[d]:auto:+", "--mu-prime", "extreme:[d]:auto:-", "--epsilon", "0.2"]


def _json_row(command, doc, index, row):
    """The JSON values that the index-th CSV row mirrors, by column."""
    if command == "evolve":  # JSON keeps one mass vector per t, in order of t
        state = int(row["state"])
        entry = doc["rows"][index // len(doc["rows"][0]["mass"])]
        return {"t": entry["t"], "state": state, "mass": entry["mass"][state]}
    if command == "zoo-list":  # JSON maps each family to its parameter list
        return {"family": row["family"], "parameters": " ".join(doc[row["family"]])}
    if command == "simulate":
        return doc
    return (doc if command == "complexity" else doc["rows"])[index]


_COMMANDS = [
    ["spectrum", "--chain", '{"type":"pachinko","r":2,"betas":[0.6,0.3,0.1]}'],
    ["evolve", "--chain", _CYCLE8, "--mu", "extreme:[2]:0.05:+", "--t", "0,3,1"],
    ["complexity", "--chain", _CYCLE8, *_EXT_D, "--t", "0..3"],
    ["complexity", "--chain", _CYCLE8, "--mu", "point:0", "--mu-prime", "point:1", "--t", "0..2"],
    # Above 256 states and for t <= d / 4, Delta(t) comes from products of Q, in CSV and JSON alike.
    ["complexity", "--chain", '{"type":"line","d":300}', "--mu", "point:0", "--mu-prime", "point:7",
     "--t", "0,1,10,75"],
    ["window", "--chain", _CYCLE8, "--t", "0..3", "--epsilon", "0.2"],
    ["window", "--chain", '{"type":"pachinko","r":2,"betas":[0.6,0.3,0.1]}', "--t", "0..3",
     "--epsilon", "0.2", "--mu", "extreme:[2]:auto:+", "--mu-prime", "extreme:[2]:0.01:-",
     "--gamma", "extreme:[d]:auto:+", "--gamma-prime", "extreme:[d]:auto:-"],
    ["time", "--chain", _CYCLE8, "--mu", "point:0", "--mu-prime", "point:1", "--n", "10,1000",
     "--threshold", "0.01"],
    ["time", "--chain", _CYCLE8, "--mu", "extreme:[2]:0.2:+", "--mu-prime", "extreme:[2]:0.2:-",
     "--n", "10,1000", "--epsilon", "auto"],
    ["simulate", "--chain", _CYCLE8, *_EXT_D, "--t", "1", "--n", "20", "--trials", "200"],
    ["zoo-list"],
]


@pytest.mark.parametrize("argv", _COMMANDS, ids=lambda argv: argv[0])
def test_csv_cells_are_the_json_values(capsys, argv):
    code, csv_out, csv_err = run_cli(capsys, *argv)
    assert code == 0
    code, json_out, json_err = run_cli(capsys, *argv, "--format", "json")
    assert code == 0 and json_err == ""
    doc = json.loads(json_out)
    header, *lines = csv_out.splitlines()
    columns = header.split(",")
    assert lines
    for index, line in enumerate(lines):
        row = dict(zip(columns, line.split(",")))
        values = _json_row(argv[0], doc, index, row)
        for col in columns:
            assert row[col] == cli._fmt(values[col]), (index, col)
    record = doc[0] if argv[0] == "complexity" else doc
    if "alpha" in record:
        assert csv_err == f"resolved alpha = {cli._fmt(record['alpha'])}\n"


def _readme_examples():
    """(argv, documented CSV header) for each command of the README's Examples block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("Examples:\n\n```\n", 1)[1].split("```", 1)[0]
    headers = {cmd: header for header, cmd in re.findall(r"`([a-z_,]+)`\s*\(([a-z-]+)\)", text)}
    commands = block.replace("\\\n", " ").splitlines()
    return [(shlex.split(cmd)[1:], headers[shlex.split(cmd)[1]]) for cmd in commands if cmd.strip()]


def test_readme_examples_run(capsys):
    examples = _readme_examples()
    assert [argv[0] for argv, _ in examples] == ["spectrum", "complexity", "window", "time", "simulate"]
    for argv, header in examples:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        assert out.splitlines()[0] == header, argv


@pytest.mark.parametrize("argv", _COMMANDS, ids=lambda argv: argv[0])
def test_json_output_is_indented_with_sorted_keys(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"

import json
import math

import numpy as np
import pytest

from markovwindow import cli


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


def test_usage_errors_exit_1(capsys):
    code, _, err = run_cli(capsys, "spectrum")
    assert code == 1
    code, _, err = run_cli(capsys, "spectrum", "--chain", "not-a-file.json")
    assert code == 1
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
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {
        "err_mu", "err_mu_prime", "err_max", "trials", "ci_halfwidth", "n", "t", "seed",
    }
    assert doc["trials"] == 150 and doc["n"] == 30 and doc["seed"] == 9
    monkeypatch.setenv("MW_THREADS", "4")
    code, out_threads, _ = run_cli(capsys, *argv)
    assert code == 0 and out_threads == out
    monkeypatch.setenv("MW_THREADS", "0")
    code, out_threads, _ = run_cli(capsys, *argv)
    assert code == 0 and out_threads == out
    monkeypatch.setenv("MW_THREADS", "zebra")
    code, _, _ = run_cli(capsys, *argv)
    assert code == 1


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

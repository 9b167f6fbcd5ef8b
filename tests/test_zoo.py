import inspect
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from markovwindow import (
    InvalidParameter,
    TransitionMatrix,
    spectral_decomposition,
    stationary_distribution,
    symmetrize,
    zoo,
)


def eigs(P):
    return np.sort(spectral_decomposition(P).eigenvalues)


def test_cycle_spectra():
    for d in (3, 4, 8, 17, 64):
        np.testing.assert_allclose(
            eigs(zoo.cycle(d)), np.sort(zoo.cycle_spectrum(d)), atol=1e-9
        )
    np.testing.assert_allclose(eigs(zoo.cycle(3)), [-0.5, -0.5, 1.0], atol=1e-12)


def test_line_spectra():
    for d in (3, 5, 31):
        np.testing.assert_allclose(
            eigs(zoo.line(d)), np.sort(zoo.line_spectrum(d)), atol=1e-9
        )
    assert np.any(np.isclose(eigs(zoo.line(5)), np.sqrt(2) / 2, atol=1e-12))
    np.testing.assert_allclose(eigs(zoo.line(3)), [-1.0, 0.0, 1.0], atol=1e-12)


def test_line_reversible_with_degree_stationary():
    for d in (3, 6, 11):
        P = zoo.line(d)
        pi = stationary_distribution(P)
        degrees = np.array([1.0] + [2.0] * (d - 2) + [1.0])
        np.testing.assert_allclose(pi.mass, degrees / degrees.sum(), atol=1e-12)
        symmetrize(P)


def test_bipartite_clique_spectra():
    for d in (4, 6, 40):
        np.testing.assert_allclose(
            eigs(zoo.bipartite_clique(d)),
            np.sort(zoo.bipartite_clique_spectrum(d)),
            atol=1e-9,
        )
    with pytest.raises(InvalidParameter):
        zoo.bipartite_clique(5)


def test_hypercube_spectra():
    for k in (1, 2, 3, 5):
        np.testing.assert_allclose(
            eigs(zoo.hypercube(k)), np.sort(zoo.hypercube_spectrum(k)), atol=1e-9
        )
    # 1 - 2j/3 with multiplicities (1, 3, 3, 1).
    np.testing.assert_allclose(
        eigs(zoo.hypercube(3)),
        np.sort([1.0] + [1 / 3] * 3 + [-1 / 3] * 3 + [-1.0]),
        atol=1e-12,
    )


def test_hypercube_rows_use_one_over_k():
    P = zoo.hypercube(3)
    assert np.all(P.entries[P.entries > 0] == pytest.approx(1 / 3))
    np.testing.assert_allclose(P.entries.sum(axis=1), 1.0, atol=1e-15)


def flip_walk(k):
    """The standard hypercube walk built by flipping each bit with probability 1/k."""
    d = 1 << k
    P = np.zeros((d, d))
    idx = np.arange(d)
    for b in range(k):
        P[idx, idx ^ (1 << b)] = 1.0 / k
    return P


def test_product_chain_recovers_standard_walk():
    # hypercube(k) is built as this product, so both must equal the flip walk bit for bit.
    for k in range(1, 11):
        reference = flip_walk(k).tobytes()
        prod = zoo.hypercube_product([1 / k] * k, [(1.0, 1.0)] * k)
        assert prod.entries.tobytes() == reference
        assert zoo.hypercube(k).entries.tobytes() == reference


def test_product_chain_two_state_eigenvalue():
    prod = zoo.hypercube_product([1.0], [(0.3, 0.1)])
    np.testing.assert_allclose(eigs(prod), [0.6, 1.0], atol=1e-12)
    np.testing.assert_allclose(prod.entries, zoo.two_state(0.3, 0.1).entries)


def test_product_chain_subset_spectrum(rng):
    for trial in range(3):
        k = int(rng.integers(2, 5))
        weights = rng.random(k) + 0.2
        weights /= weights.sum()
        params = [(float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.05, 1.0))) for _ in range(k)]
        P = zoo.hypercube_product(weights, params)
        np.testing.assert_allclose(
            eigs(P), np.sort(zoo.hypercube_product_spectrum(weights, params)), atol=1e-9
        )


def test_product_chain_validation():
    with pytest.raises(InvalidParameter):
        zoo.hypercube_product([0.5, 0.6], [(0.5, 0.5), (0.5, 0.5)])
    with pytest.raises(InvalidParameter):
        zoo.hypercube_product([1.0], [(0.0, 0.5)])


def test_blockmodel_signed_block_eigenvector():
    d = 16
    P = zoo.blockmodel2(d, 4, 2)
    v = np.concatenate([np.ones(d // 2), -np.ones(d // 2)])
    np.testing.assert_allclose(P.entries @ v, (4 - 2) / (4 + 2) * v, atol=1e-12)
    assert np.any(np.isclose(eigs(P), (4 - 2) / (4 + 2), atol=1e-12))


def test_blockmodel_equal_degrees_zero_block_eigenvalue():
    d = 16
    P = zoo.blockmodel2(d, 4, 4)
    v = np.concatenate([np.ones(d // 2), -np.ones(d // 2)])
    np.testing.assert_allclose(P.entries @ v, 0.0, atol=1e-14)


def test_blockmodel_odd_intra_degree_uses_antipodal():
    d = 16
    P = zoo.blockmodel2(d, 3, 1)
    assert np.all((P.entries > 0).sum(axis=1) == 4)


def test_blockmodel_smallest_eigenvalue_trend():
    # Near-complete blocks, single matching across: |lam_[d]| shrinks like 1/d.
    scaled = []
    for d in (32, 64, 128):
        P = zoo.blockmodel2(d, d // 2 - 2, 1)
        S = spectral_decomposition(P)
        assert abs(S.eigenvalue_by_abs_rank(2)) > 1.0 - 10.0 / d
        scaled.append(abs(S.eigenvalue_by_abs_rank(S.d)) * d)
    assert max(scaled) / min(scaled) < 2.5


# The regular-graph walk and its closed form, with even and odd intra-degree
# (the odd ones take the antipodal offset), inter-degree from 1 to d/2.
@pytest.mark.parametrize("d, intra, inter", [(16, 4, 2), (16, 3, 8), (32, 14, 1), (32, 7, 5), (64, 20, 9),
                                             (64, 31, 32)])
def test_blockmodel2_spectra(d, intra, inter):
    np.testing.assert_allclose(
        eigs(zoo.blockmodel2(d, intra, inter)), np.sort(zoo.blockmodel2_spectrum(d, intra, inter)), atol=1e-12
    )


def test_blockmodel_validation():
    with pytest.raises(InvalidParameter, match=r"blockmodel2 needs even d >= 4, got 9"):
        zoo.blockmodel2(9, 2, 1)
    with pytest.raises(InvalidParameter, match="intra-degree must lie in"):
        zoo.blockmodel2(16, 8, 1)  # intra degree too large
    with pytest.raises(InvalidParameter, match="inter-degree must lie in"):
        zoo.blockmodel2(16, 4, 0)  # no inter edges
    for intra, inter in ((math.nan, 1), (math.inf, 1), (4.5, 1), (2, -math.inf), (2, 1.5)):
        with pytest.raises(InvalidParameter, match="-degree must lie in"):
            zoo.blockmodel2(8, intra, inter)


def test_pachinko_table_r3():
    betas = [0.4, 0.3, 0.2, 0.1]
    P = zoo.pachinko(3, betas)
    S = spectral_decomposition(P)
    expected = np.sort(
        [1.0]
        + [0.4 + 0.3 + 0.2 - 0.1]
        + [0.4 + 0.3 - 0.2] * 2
        + [0.4 - 0.3] * 4
    )
    np.testing.assert_allclose(np.sort(S.eigenvalues), expected, atol=1e-10)
    np.testing.assert_allclose(S.stationary.mass, 1 / 8, atol=1e-12)
    # The top split eigenvector pattern (+ on left subtree, - on right).
    v = np.array([1, 1, 1, 1, -1, -1, -1, -1], dtype=float)
    np.testing.assert_allclose(P.entries @ v, (0.4 + 0.3 + 0.2 - 0.1) * v, atol=1e-12)


def test_pachinko_closed_form_random_r(rng):
    for r in (1, 2, 4, 6):
        raw = np.sort(rng.random(r + 1))[::-1] + np.linspace(r + 1, 1, r + 1) * 0.05
        betas = raw / raw.sum()
        P = zoo.pachinko(r, betas)
        np.testing.assert_allclose(
            eigs(P), np.sort(zoo.pachinko_spectrum(r, betas)), atol=1e-9
        )
        # Eigenvalue gaps: gamma_k - gamma_{k+1} = 2 beta_{r+1-k} - beta_{r+2-k} > 0.
        gammas = np.sort(np.unique(np.round(zoo.pachinko_spectrum(r, betas), 14)))[::-1]
        for k in range(2, r + 1):
            gap = gammas[k - 1] - gammas[k]
            expected = 2 * betas[r + 1 - k] - betas[r + 2 - k]
            assert gap == pytest.approx(expected, abs=1e-12)
            assert gap > 0


def test_pachinko_validation():
    with pytest.raises(InvalidParameter):
        zoo.pachinko(2, [0.5, 0.5])  # wrong length
    with pytest.raises(InvalidParameter):
        zoo.pachinko(2, [0.4, 0.4, 0.2])  # not strictly decreasing
    with pytest.raises(InvalidParameter):
        zoo.pachinko(2, [0.5, 0.3, 0.1])  # does not sum to 1


def test_random_chain_reversible_and_deterministic():
    P1 = zoo.random_chain(20, seed=9)
    P2 = zoo.random_chain(20, seed=9)
    np.testing.assert_array_equal(P1.entries, P2.entries)
    assert not np.array_equal(P1.entries, zoo.random_chain(20, seed=10).entries)
    pi = stationary_distribution(P1)
    symmetrize(P1)
    # Stationary mass proportional to weight row sums.
    flow = pi.mass[:, None] * P1.entries
    assert np.max(np.abs(flow - flow.T)) < 1e-15


def test_random_chain_custom_law():
    # random_chain draws its weights by one law and takes no field to name one.
    with pytest.raises(InvalidParameter, match=re.escape("unexpected fields for 'random_chain': ['weight_law']")):
        zoo.chain_from_spec({"type": "random_chain", "d": 6, "seed": 3, "weight_law": "cauchy"})


def test_random_chain_matches_triu_construction():
    def reference(d, seed):
        rng = np.random.default_rng(seed)
        U = np.zeros((d, d))
        U[np.triu_indices(d)] = rng.random(d * (d + 1) // 2)
        U = U + np.triu(U, 1).T
        return U / U.sum(axis=1)[:, None]

    for d in (2, 3, 7, 64, 201):
        for seed in (0, 9, 2**40):
            assert zoo.random_chain(d, seed).entries.tobytes() == reference(d, seed).tobytes(), (d, seed)


def _line_loops(d):
    P = np.zeros((d, d))
    P[0, 1] = 1.0
    P[d - 1, d - 2] = 1.0
    for j in range(1, d - 1):
        P[j, j - 1] = 0.5
        P[j, j + 1] = 0.5
    return P


def _blockmodel2_loops(d, intra, inter):
    m = d // 2
    A_intra = np.zeros((m, m))
    offsets = list(range(1, intra // 2 + 1)) + [m - o for o in range(1, intra // 2 + 1)]
    if intra % 2 == 1:
        offsets.append(m // 2)
    idx = np.arange(m)
    for o in offsets:
        A_intra[idx, (idx + o) % m] = 1.0
    A_inter = np.zeros((m, m))
    for o in range(inter):
        A_inter[idx, (idx + o) % m] = 1.0
    return np.block([[A_intra, A_inter], [A_inter.T, A_intra]]) / (intra + inter)


def _pachinko_loops(r, betas):
    d = 1 << r
    idx = np.arange(d)
    xor = idx[:, None] ^ idx[None, :]
    heights = np.zeros_like(xor)
    nz = xor > 0
    heights[nz] = np.floor(np.log2(xor[nz])).astype(np.int64) + 1
    per_leaf = np.empty(r + 1)
    per_leaf[0] = betas[0]
    for level in range(1, r + 1):
        per_leaf[level] = betas[level] / float(2 ** (level - 1))
    return per_leaf[heights]


def test_builders_match_their_loop_constructions(rng):
    for d in (3, 4, 5, 31, 100):
        assert zoo.line(d).entries.tobytes() == _line_loops(d).tobytes(), d
    # Odd intra-degrees take the antipodal offset; inter = d/2 fills the off-diagonal blocks.
    for d, intra, inter in [(4, 0, 1), (4, 1, 2), (8, 2, 1), (8, 3, 4), (12, 4, 6), (16, 4, 2), (16, 7, 8),
                            (20, 9, 10), (24, 0, 12), (800, 200, 50)]:
        got = zoo.blockmodel2(d, intra, inter).entries
        assert got.tobytes() == _blockmodel2_loops(d, intra, inter).tobytes(), (d, intra, inter)
    for r in range(1, 9):
        betas = np.sort(rng.dirichlet(np.ones(r + 1)))[::-1]
        assert zoo.pachinko(r, betas).entries.tobytes() == _pachinko_loops(r, betas).tobytes(), r


def test_cycle_asymptotics_bounds():
    # |lam_[2]| >= 1 - C/d^2 and |lam_[d]| <= C'/d up to d = 256.
    for d in (8, 33, 100, 256):
        S = spectral_decomposition(zoo.cycle(d))
        assert abs(S.eigenvalue_by_abs_rank(2)) >= 1.0 - 6.0 / d**2
        assert abs(S.eigenvalue_by_abs_rank(S.d)) <= 3.5 / d


def test_all_constructors_reversible(zoo_chains):
    for name, P in zoo_chains.items():
        symmetrize(P)
        assert stationary_distribution(P) is P._tree_pi, name
        assert np.all(P.entries >= 0) and P.is_irreducible, name


def test_json_round_trip():
    specs = [
        {"type": "cycle", "d": 8},
        {"type": "line", "d": 5},
        {"type": "bipartite_clique", "d": 6},
        {"type": "hypercube", "k": 3},
        {
            "type": "hypercube_product",
            "weights": [0.4, 0.6],
            "params": [[0.3, 0.5], [0.7, 0.2]],
        },
        {"type": "blockmodel2", "d": 16, "intra_degree": 4, "inter_degree": 2},
        {"type": "pachinko", "r": 3, "betas": [0.5, 0.26, 0.15, 0.09]},
        {"type": "random_chain", "d": 12, "seed": 42},
    ]
    for spec in specs:
        P1 = zoo.chain_from_spec(spec)
        text = json.dumps(spec, sort_keys=True, separators=(",", ":"))
        P2 = zoo.chain_from_spec(json.loads(text))
        np.testing.assert_array_equal(P1.entries, P2.entries)
        assert json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) == text


def test_explicit_spec_and_errors():
    P = zoo.chain_from_spec({"type": "explicit", "matrix": [[0.5, 0.5], [0.5, 0.5]]})
    assert P.d == 2
    with pytest.raises(InvalidParameter):
        zoo.chain_from_spec({"type": "moebius", "d": 3})
    with pytest.raises(InvalidParameter):
        zoo.chain_from_spec({"type": "cycle"})
    with pytest.raises(InvalidParameter):
        zoo.chain_from_spec({"type": "cycle", "d": 4, "extra": 1})
    with pytest.raises(InvalidParameter):
        zoo.chain_from_spec("not json")


_BAD_SPECS = [
    {"type": "cycle", "d": None},
    {"type": "cycle", "d": float("inf")},
    {"type": "cycle", "d": 8.5},
    {"type": "cycle", "d": "8"},
    {"type": "line", "d": [5]},
    {"type": "hypercube", "k": 2**70},
    {"type": "hypercube_product", "weights": 1, "params": 2},
    {"type": "hypercube_product", "weights": [0.5, 0.5], "params": [[0.3], [0.7]]},
    {"type": "hypercube_product", "k": None, "weights": [1.0], "params": [[0.5, 0.5]]},
    {"type": "blockmodel2", "d": 8, "intra_degree": 2, "inter_degree": [1]},
    {"type": "blockmodel2", "d": 0, "intra_degree": 2, "inter_degree": 1},
    {"type": "pachinko", "r": 1, "betas": [[0.6], [0.4]]},
    {"type": "pachinko", "r": 1, "betas": {"a": 1}},
    {"type": "random_chain", "d": 4, "seed": -1},
    {"type": "random_chain", "d": 4, "seed": 1, "weight_law": None},
    {"type": "explicit", "matrix": [[{}]]},
    {"type": ["cycle"], "d": 4},
    # JSON's true and false are no numbers, in a size or in a list.
    {"type": "hypercube", "k": True},
    {"type": "random_chain", "d": 3, "seed": True},
    {"type": "explicit", "matrix": [[False, True], [True, False]]},
    {"type": "hypercube_product", "weights": [True], "params": [[True, 0.5]]},
    {"type": "hypercube_product", "weights": [1.0], "params": [[0.5, False]]},
    {"type": "pachinko", "r": 1, "betas": [0.6, True]},
    # Nor are strings, though numpy would parse them.
    {"type": "pachinko", "r": 1, "betas": ["0.6", "0.4"]},
    {"type": "explicit", "matrix": [[0.5, 0.5], ["0.5", 0.5]]},
    {"type": "hypercube_product", "weights": [1.0], "params": [[0.5, "0.5"]]},
    # Fields no constructor takes.
    {"type": "hypercube_product", "k": 2, "weights": [0.5, 0.5], "params": [[0.5, 0.5], [0.5, 0.5]]},
    {"type": "random_chain", "d": 4, "seed": 1, "weight_law": "uniform01"},
]


@pytest.mark.parametrize("spec, match", [pytest.param(s, None, id=f"spec{i}") for i, s in enumerate(_BAD_SPECS)] + [
    # NaN compares false, so it must fail the constructor's own checks, not TransitionMatrix's finiteness check.
    pytest.param({"type": "hypercube_product", "weights": [math.nan, 0.5], "params": [[0.5, 0.5], [0.5, 0.5]]},
                 "weights must be positive and sum to 1", id="nan weight"),
    pytest.param({"type": "pachinko", "r": 2, "betas": [0.5, math.nan, 0.1]}, "betas must be positive", id="nan beta"),
])
def test_chain_from_spec_rejects_bad_field_values(spec, match):
    with pytest.raises(InvalidParameter, match=match):
        zoo.chain_from_spec(spec)


def _readme_chain_specs():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("Chain specs:\n\n```\n", 1)[1].split("```", 1)[0]
    return [json.loads(line) for line in block.splitlines()]


_README_SPECS = _readme_chain_specs()
_SMALL_SPECS = [
    {"type": "cycle", "d": 5},
    {"type": "line", "d": 4},
    {"type": "bipartite_clique", "d": 6},
    {"type": "hypercube", "k": 3},
    {"type": "hypercube_product", "weights": [0.4, 0.6], "params": [[0.3, 0.5], [0.7, 0.2]]},
    {"type": "blockmodel2", "d": 16, "intra_degree": 5, "inter_degree": 3},
    {"type": "pachinko", "r": 2, "betas": [0.6, 0.3, 0.1]},
    {"type": "random_chain", "d": 7, "seed": 3},
    {"type": "explicit", "matrix": [[0.0, 1.0], [0.5, 0.5]]},
]


@pytest.mark.parametrize("spec", _README_SPECS + _SMALL_SPECS,
                         ids=[f"README {s['type']}" for s in _README_SPECS] + [s["type"] for s in _SMALL_SPECS])
def test_spec_matches_constructor(spec):
    kind = spec["type"]
    if kind == "explicit":
        built = TransitionMatrix(spec["matrix"])
    else:
        built = getattr(zoo, kind)(**{k: v for k, v in spec.items() if k != "type"})
    assert zoo.chain_from_spec(spec).entries.tobytes() == built.entries.tobytes()


@pytest.mark.parametrize("kind", sorted(set(zoo.ZOO_FAMILIES) - {"explicit"}))
def test_spec_fields_are_the_constructor_parameters(kind):
    assert zoo.ZOO_FAMILIES[kind] == list(inspect.signature(getattr(zoo, kind)).parameters)


def test_library_constructors_keep_bool_as_int():
    # Only a JSON spec refuses booleans; Python callers keep bool as int.
    assert zoo.hypercube(True).entries.tobytes() == zoo.hypercube(1).entries.tobytes()
    assert zoo.random_chain(3, seed=True).entries.tobytes() == zoo.random_chain(3, seed=1).entries.tobytes()

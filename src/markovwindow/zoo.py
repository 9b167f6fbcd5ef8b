"""Constructors for the example chain families, each paired with its
closed-form spectrum so the numerical eigensolver can be checked against an
independent formula.

Families: cycle, line, bipartite_clique, hypercube (standard walk),
hypercube_product (weighted product of two-state chains), blockmodel2
(deterministic regular two-block graph), pachinko (dyadic-tree walk on
leaves), random_chain (normalized symmetric random weights).

A JSON chain spec selects a family: {"type": "cycle", "d": 8} etc., or an
explicit matrix {"type": "explicit", "matrix": [[...], ...]}.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .chain import TransitionMatrix, _check_count
from .errors import InvalidParameter


def cycle(d: int) -> TransitionMatrix:
    """Simple random walk on the d-cycle: step to i +- 1 mod d w.p. 1/2 each."""
    d = _check_count(d, 3, f"cycle needs d >= 3, got {d!r}")
    P = np.zeros((d, d))
    idx = np.arange(d)
    P[idx, (idx + 1) % d] = 0.5
    P[idx, (idx - 1) % d] = 0.5
    return TransitionMatrix._adopt(P)


def cycle_spectrum(d: int) -> np.ndarray:
    """Eigenvalue multiset of the d-cycle walk: cos(2 pi i / d)."""
    return np.cos(2.0 * np.pi * np.arange(d) / d)


def line(d: int) -> TransitionMatrix:
    """Random walk on the d-line with reflecting endpoints.

    Interior states move to either neighbor w.p. 1/2; the endpoints move to
    their unique neighbor w.p. 1.  Reversible with stationary distribution
    proportional to node degree, so not uniform.
    """
    d = _check_count(d, 3, f"line needs d >= 3, got {d!r}")
    P = np.zeros((d, d))
    up = np.full(d - 1, 0.5)  # P[j, j + 1]; P[j + 1, j] is its mirror up[d - 2 - j]
    up[0] = 1.0
    P.flat[1 :: d + 1] = up
    P.flat[d :: d + 1] = up[::-1]
    return TransitionMatrix._adopt(P)


def line_spectrum(d: int) -> np.ndarray:
    """Eigenvalue multiset of the d-line walk: cos(pi i / (d - 1))."""
    return np.cos(np.pi * np.arange(d) / (d - 1))


def bipartite_clique(d: int) -> TransitionMatrix:
    """Random walk on the complete bipartite graph with two sides of d/2.

    From any node, jump to a uniform node on the other side (probability
    2/d each).  States 0..d/2-1 are the left side.
    """
    message = f"bipartite clique needs even d >= 4, got {d!r}"
    d = _check_count(d, 4, message)
    if d % 2 != 0:
        raise InvalidParameter(message)
    half = d // 2
    P = np.zeros((d, d))
    P[:half, half:] = 2.0 / d
    P[half:, :half] = 2.0 / d
    return TransitionMatrix._adopt(P)


def bipartite_clique_spectrum(d: int) -> np.ndarray:
    """{1, -1} plus d - 2 zeros."""
    return np.concatenate(([1.0, -1.0], np.zeros(d - 2)))


def hypercube(k: int) -> TransitionMatrix:
    """Standard walk on the k-dimensional hypercube (d = 2^k states).

    Each step flips one of the k coordinates uniformly, i.e. probability 1/k
    per Hamming-1 neighbor (the unique row-stochastic normalization).
    """
    message = f"hypercube needs 1 <= k <= 62, got {k!r}"
    k = _check_count(k, 1, message)
    if k >= 63:  # 2^k states must be indexable by a 64-bit integer
        raise InvalidParameter(message)
    return hypercube_product(np.full(k, 1.0 / k), [(1.0, 1.0)] * k)


def hypercube_spectrum(k: int) -> np.ndarray:
    """1 - 2j/k with multiplicity binomial(k, j), j = 0..k."""
    vals = [np.full(math.comb(k, j), 1.0 - 2.0 * j / k) for j in range(k + 1)]
    return np.concatenate(vals)


def two_state(p: float, q: float) -> TransitionMatrix:
    """Two-state chain: from state 0 flip w.p. p, from state 1 flip w.p. q.

    Stationary distribution (q, p) / (p + q); second eigenvalue 1 - (p + q).
    """
    if not (0.0 < p <= 1.0 and 0.0 < q <= 1.0):
        raise InvalidParameter(f"flip rates must lie in (0, 1], got p={p!r}, q={q!r}")
    return TransitionMatrix._adopt(np.array([[1.0 - p, p], [q, 1.0 - q]]))


def hypercube_product(weights, params) -> TransitionMatrix:
    """Weighted product of k two-state chains on the hypercube.

    A step picks coordinate j with probability weights[j] and moves it by the
    two-state chain with flip rates params[j] = (p_j, q_j); equivalently the
    entry from x to a Hamming-1 neighbor differing in coordinate j is
    w_j P_j(x_j, x'_j), and the diagonal carries sum_j w_j P_j(x_j, x_j).
    Coordinate j is bit j of the state index (bit 0 means factor state 0).

    With all rates 1 and uniform weights this is exactly the standard
    hypercube walk.
    """
    weights = np.asarray(weights, dtype=float)
    k = weights.size
    if k < 1 or len(params) != k:
        raise InvalidParameter("need one (p, q) pair per weight")
    if np.any(weights <= 0) or abs(float(weights.sum()) - 1.0) > 1e-12:
        raise InvalidParameter("weights must be positive and sum to 1")
    factors = [two_state(p, q).entries for p, q in params]

    d = 1 << k
    P = np.zeros((d, d))
    idx = np.arange(d)
    diag = np.zeros(d)
    for j in range(k):
        bit = (idx >> j) & 1
        M = factors[j]
        P[idx, idx ^ (1 << j)] = weights[j] * M[bit, 1 - bit]
        diag += weights[j] * M[bit, bit]
    P[idx, idx] = diag
    return TransitionMatrix._adopt(P)


def hypercube_product_spectrum(weights, params) -> np.ndarray:
    """1 - sum_{j in S} w_j (p_j + q_j) over all subsets S of coordinates."""
    weights = np.asarray(weights, dtype=float)
    k = weights.size
    rates = np.array([p + q for p, q in params], dtype=float)
    out = np.empty(1 << k)
    for mask in range(1 << k):
        members = [(mask >> j) & 1 for j in range(k)]
        out[mask] = 1.0 - float(np.sum(weights * np.array(members) * rates))
    return out


def blockmodel2(d: int, a: float, b: float) -> TransitionMatrix:
    """Deterministic regular two-block graph walk.

    Two blocks of d/2 nodes; every node has a*d neighbors inside its block
    (circulant offsets +-1..+-floor(a d / 2), plus the antipodal offset when
    a*d is odd) and b*d neighbors in the other block (circulant band of width
    b*d).  The walk is uniform over the (a + b) d neighbors; the signed-block
    vector is an eigenvector with eigenvalue (a - b) / (a + b).
    """
    d = _check_count(d, 4, f"blockmodel2 needs even d >= 4, got {d!r}")
    return _blockmodel2_graph(d, _integral(a * d, "a*d"), _integral(b * d, "b*d"))


def _blockmodel2_graph(d: int, intra: int, inter: int) -> TransitionMatrix:
    """blockmodel2 by its integer degrees: intra = a*d and inter = b*d."""
    if d < 4 or d % 2 != 0:
        raise InvalidParameter(f"blockmodel2 needs even d >= 4, got {d}")
    m = d // 2
    if inter < 1 or inter > m:
        raise InvalidParameter(f"inter-degree must lie in [1, {m}], got {inter}")
    if intra < 0 or intra >= m:
        raise InvalidParameter(f"intra-degree must lie in [0, {m - 1}], got {intra}")
    if intra % 2 == 1 and m % 2 != 0:
        raise InvalidParameter(
            f"odd intra-degree {intra} needs the antipodal offset, so d/2 must be even"
        )

    A = np.zeros((d, d))  # first, so that a size too large fails before any index array
    half = intra // 2
    offsets = np.r_[1 : half + 1, m - half : m, m // 2 : m // 2 + intra % 2]  # the antipode if intra is odd
    idx = np.arange(m)[:, None]
    intra_cols = (idx + offsets) % m
    inter_cols = (idx + np.arange(inter)) % m
    A[idx, intra_cols] = 1.0
    A[m + idx, m + intra_cols] = 1.0
    A[idx, m + inter_cols] = 1.0
    A[m + inter_cols, idx] = 1.0  # the transpose of the block above
    degree = intra + inter
    if not np.all(A.sum(axis=1) == degree) or not np.all(A.sum(axis=0) == degree):
        raise InvalidParameter("constructed blockmodel graph is not regular")
    A /= degree
    return TransitionMatrix._adopt(A)


def _integral(x: float, label: str) -> int:
    if not math.isfinite(x) or abs(x - round(x)) > 1e-9:
        raise InvalidParameter(f"{label} must be an integer, got {x!r}")
    return int(round(x))


def pachinko(r: int, betas) -> TransitionMatrix:
    """Walk on the 2^r leaves of a dyadic tree.

    The walk stays put with probability betas[0] and lands uniformly among
    the 2^{l-1} leaves whose first common ancestor with the current leaf has
    height l, with total probability betas[l] (so each such leaf gets
    betas[l] / 2^{l-1}).  Leaf index bits encode the root-to-leaf path (most
    significant bit first), so the common-ancestor height of leaves i != j is
    the bit length of i XOR j.

    betas must be positive, strictly decreasing, and sum to 1; the matrix is
    symmetric, so the stationary distribution is uniform.
    """
    r = _check_count(r, 1, f"pachinko needs r >= 1, got {r!r}")
    betas = np.asarray(betas, dtype=float)
    if betas.size != r + 1:
        raise InvalidParameter(f"need r + 1 = {r + 1} betas, got {betas.size}")
    if np.any(betas <= 0):
        raise InvalidParameter("betas must be positive")
    if np.any(np.diff(betas) >= 0):
        raise InvalidParameter("betas must be strictly decreasing")
    if abs(float(betas.sum()) - 1.0) > 1e-12:
        raise InvalidParameter("betas must sum to 1")

    d = 1 << r
    idx = np.arange(d)
    xor = idx[:, None] ^ idx[None, :]
    heights = np.zeros_like(xor)
    nz = xor > 0
    heights[nz] = np.floor(np.log2(xor[nz])).astype(np.int64) + 1
    per_leaf = betas / 2.0 ** np.maximum(np.arange(r + 1) - 1, 0)
    return TransitionMatrix._adopt(per_leaf[heights])


def pachinko_spectrum(r: int, betas) -> np.ndarray:
    """1, then for k = 2..r+1 the eigenvalue betas[0] + ... + betas[r+1-k]
    - betas[r+2-k] with multiplicity 2^{k-2}."""
    betas = np.asarray(betas, dtype=float)
    vals = [np.array([1.0])]
    for k in range(2, r + 2):
        gamma = float(betas[: r + 2 - k].sum() - betas[r + 2 - k])
        vals.append(np.full(1 << (k - 2), gamma))
    return np.concatenate(vals)


def random_chain(d: int, seed: int, weight_law="uniform01") -> TransitionMatrix:
    """Normalized symmetric random weights on the complete graph with loops.

    Draws one weight per unordered pair {i, j} (including i = j) i.i.d. from
    weight_law and normalizes rows: P_ij = U_ij / sum_x U_ix.  Reversible by
    construction with stationary distribution proportional to row sums, and
    deterministic given the seed.

    weight_law is "uniform01" (default) or a callable (rng, size) -> array of
    positive floats.
    """
    d = _check_count(d, 2, f"random_chain needs d >= 2, got {d!r}")
    rng = np.random.default_rng(_check_count(seed, 0, f"seed must be a nonnegative integer, got {seed!r}"))
    n_pairs = d * (d + 1) // 2
    if weight_law == "uniform01":
        vals = rng.random(n_pairs)
    elif callable(weight_law):
        vals = np.asarray(weight_law(rng, n_pairs), dtype=float)
        if vals.shape != (n_pairs,):
            raise InvalidParameter("weight_law must return one weight per pair")
        if np.any(vals < 0):
            raise InvalidParameter("weight_law must return nonnegative weights")
    else:
        raise InvalidParameter(f"unknown weight law {weight_law!r}")
    # The upper triangle (diagonal included) takes the weights in row-major
    # pair order, and so does the upper triangle of the transposed view,
    # which is the mirror image below the diagonal.
    upper = np.tri(d, dtype=bool).T
    U = np.zeros((d, d))
    U[upper] = vals
    U.T[upper] = vals
    del vals
    row_sums = U.sum(axis=1)
    if np.any(row_sums <= 0):
        raise InvalidParameter("a row of weights summed to zero")
    U /= row_sums[:, None]
    return TransitionMatrix._adopt(U)


ZOO_FAMILIES = {
    "cycle": ["d"],
    "line": ["d"],
    "bipartite_clique": ["d"],
    "hypercube": ["k"],
    "hypercube_product": ["k", "weights", "params"],
    "blockmodel2": ["d", "intra_degree", "inter_degree"],
    "pachinko": ["r", "betas"],
    "random_chain": ["d", "seed", "weight_law"],
    "explicit": ["matrix"],
}


def _whole(value) -> int:
    return _check_count(value, 0, f"expected a nonnegative integer, got {value!r}")  # rejects 8.5 and "8"


def _vector(value) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 1:
        raise ValueError("expected a list of numbers")
    return arr


def _pairs(value) -> list:
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("expected a list of [p, q] pairs")
    return [tuple(pq) for pq in arr.tolist()]


def _matrix(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


def chain_from_spec(spec) -> TransitionMatrix:
    """Build a chain from a JSON chain spec (dict or JSON string).

    A missing field, or a field of the wrong type or value (null, a list
    where a number belongs, a non-integral or non-finite size), raises
    InvalidParameter.
    """
    if isinstance(spec, str):
        try:
            spec = json.loads(spec)
        except json.JSONDecodeError as exc:
            raise InvalidParameter(f"chain spec is not valid JSON: {exc}") from exc
    if not isinstance(spec, dict) or "type" not in spec:
        raise InvalidParameter('chain spec must be an object with a "type" field')
    kind = spec["type"]
    fields = ZOO_FAMILIES.get(kind) if isinstance(kind, str) else None
    if fields is None:
        raise InvalidParameter(f"unknown chain type {kind!r}")
    extra = set(spec) - set(fields) - {"type"}
    if extra:
        raise InvalidParameter(f"unexpected fields for {kind!r}: {sorted(extra)}")

    def need(name, convert=_whole):
        if name not in spec:
            raise InvalidParameter(f"chain type {kind!r} requires field {name!r}")
        try:
            return convert(spec[name])
        except (InvalidParameter, TypeError, ValueError, OverflowError) as exc:
            raise InvalidParameter(f"chain type {kind!r}: bad field {name!r}: {exc}") from exc

    if kind == "explicit":
        return TransitionMatrix(need("matrix", _matrix))
    if kind == "cycle":
        return cycle(need("d"))
    if kind == "line":
        return line(need("d"))
    if kind == "bipartite_clique":
        return bipartite_clique(need("d"))
    if kind == "hypercube":
        return hypercube(need("k"))
    if kind == "hypercube_product":
        weights = need("weights", _vector)
        params = need("params", _pairs)
        if "k" in spec and need("k") != weights.size:
            raise InvalidParameter("field k disagrees with the number of weights")
        return hypercube_product(weights, params)
    if kind == "blockmodel2":
        return _blockmodel2_graph(need("d"), need("intra_degree"), need("inter_degree"))
    if kind == "pachinko":
        return pachinko(need("r"), need("betas", _vector))
    # random_chain
    return random_chain(need("d"), need("seed"), spec.get("weight_law", "uniform01"))

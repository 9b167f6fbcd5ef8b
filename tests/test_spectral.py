from functools import lru_cache

import numpy as np
import pytest

from markovwindow import (
    Distribution,
    EigensolverFailure,
    NotReversible,
    TestingInstance,
    TransitionMatrix,
    evolve,
    lazy,
    spectral_decomposition,
    stationary_distribution,
    symmetrize,
    zoo,
)
from markovwindow import cli, spectral
from markovwindow.spectral import _CACHE, EIGEN_RESIDUAL_TOL, PROBES, _eigen_residual, _fix_signs
from conftest import accepted, delta_at, pi_norm_sq, with_cycle_flow


def spectra_match(computed, closed_form, atol=1e-9):
    np.testing.assert_allclose(np.sort(computed), np.sort(closed_form), atol=atol)


def test_cycle_examples():
    spectra_match(spectral_decomposition(zoo.cycle(4)).eigenvalues, [1, 0, 0, -1])
    spectra_match(spectral_decomposition(zoo.cycle(3)).eigenvalues, [1, -0.5, -0.5])


def test_cycle8_extreme_eigenvalues():
    S = spectral_decomposition(zoo.cycle(8))
    assert S.eigenvalue_by_abs_rank(2) == -1.0
    assert S.eigenvalue_by_abs_rank(8) == 0.0


def test_bipartite_clique_spectrum():
    S = spectral_decomposition(zoo.bipartite_clique(6))
    spectra_match(S.eigenvalues, [1, -1, 0, 0, 0, 0])
    # The -1 eigenvector separates the two sides.
    u = S.left_by_abs_rank(2)
    signs = np.sign(u)
    assert np.all(signs[:3] == signs[0]) and np.all(signs[3:] == -signs[0])


def test_hypercube_small():
    spectra_match(spectral_decomposition(zoo.hypercube(2)).eigenvalues, [1, 0, 0, -1])


def test_rejects_nonreversible():
    perm = TransitionMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    with pytest.raises(NotReversible):
        spectral_decomposition(perm)


@pytest.mark.parametrize("c, d", [(c, d) for d in (3, 50, 400, 1000) for c in (1e-3, 1e-6, 1e-8, 1e-10)
                                  if c * d < 0.5])
def test_rejects_every_chain_that_fails_detailed_balance(c, d):
    # The lazy chain's diagonal flows are at least pi_i / 2, about 1 / (2d),
    # so every c below that leaves a valid chain.
    cyclic = with_cycle_flow(lazy(zoo.random_chain(d, seed=d), 0.5), c)
    balanced = accepted(cyclic)
    assert c < 1e-7 or not balanced
    if not balanced:
        with pytest.raises(NotReversible):
            spectral_decomposition(cyclic)
    else:
        assert spectral_decomposition(cyclic).d == d


def test_one_rule_for_both_checks():
    # Flows of about 5e-7 between the three states: a cycle of 4e-9 breaks
    # detailed balance by 1% of them and |Q_ij - Q_ji| by about 4e-6.  An
    # absolute 1e-8 rule on the flows accepted it; the relative rule does not,
    # and the decomposition reads the same verdict.
    cyclic = with_cycle_flow(lazy(zoo.random_chain(1000, seed=2), 0.5), 4e-9)
    with pytest.raises(NotReversible, match="chain not reversible: relative flow gap"):
        symmetrize(cyclic)
    with pytest.raises(NotReversible, match="chain not reversible: relative flow gap"):
        spectral_decomposition(cyclic)
    # A one-way edge has no reverse flow, so no pi balances it, at any weight.
    one_way = TransitionMatrix([[0.5, 0.5 - 1e-12, 1e-12], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]])
    with pytest.raises(NotReversible, match="no reverse edge"):
        symmetrize(one_way)
    with pytest.raises(NotReversible, match="no reverse edge"):
        spectral_decomposition(one_way)


@pytest.mark.parametrize("P", [
    zoo.two_state(1e-10, 1e-10),
    lazy(zoo.random_chain(50, seed=50), 1 - 1e-10),
    zoo.hypercube_product([0.5, 0.5], [[1e-10, 1e-10], [0.3, 0.2]]),
], ids=["two_state", "lazy random_chain", "hypercube_product"])
def test_accepts_slow_reversible_chains(P):
    # A diagonal entry 1 - p is stored to within 2^-54.  A dense solve for pi
    # reads it, so its pi_i P_ij - pi_j P_ji can reach 2^-55 / p of the flows
    # (2.8e-7 at p = 1e-10); the tree reads only off-diagonal entries.
    assert stationary_distribution(P) is P._tree_pi
    symmetrize(P)
    TestingInstance(P, Distribution.point(P.d, 0), Distribution.point(P.d, 1), 1)


@pytest.mark.parametrize("P, spectrum, pi", [
    (zoo.two_state(1e-10, 1e-10), [1.0, 1.0 - 2e-10], [0.5, 0.5]),
    (zoo.hypercube_product([0.5, 0.5], [[1e-10, 1e-10], [0.3, 0.2]]),
     zoo.hypercube_product_spectrum([0.5, 0.5], [[1e-10, 1e-10], [0.3, 0.2]]), [0.2, 0.2, 0.3, 0.3]),
], ids=["two_state", "hypercube_product"])
def test_decomposes_slow_chains_with_an_exact_pi(P, spectrum, pi):
    # pi from the tree is exact; a dense solve's is off by 2^-55 / p relative.
    S = spectral_decomposition(P)
    np.testing.assert_allclose(S.eigenvalues, sorted(spectrum, reverse=True), rtol=0, atol=1e-9)
    np.testing.assert_allclose(S.stationary.mass, pi, rtol=1e-15)


@pytest.mark.parametrize("P", [
    lazy(zoo.random_chain(50, seed=50), 1 - 1e-10),
    lazy(zoo.cycle(4), 1 - 1e-13),  # lambda_2..lambda_4 all lie within 2e-13 of 1
    lazy(zoo.random_chain(20, seed=1), 1 - 1e-12),
], ids=["random50", "cycle4", "random20"])
def test_decomposes_slow_chains_eigh_cannot_resolve(P):
    # 1 - lambda_2 is 2e-13 to 1e-11: eigh fixes the principal eigenvector of Q
    # only to about 2^-53 / (1 - lambda_2), so the principal pair is set from
    # pi, and the other eigenvectors are reflected to stay orthogonal to it.
    S = spectral_decomposition(P)
    pi = S.stationary.mass
    U = S.left_eigenvectors
    assert S.eigenvalues[0] == 1.0 and U[0].tobytes() == pi.tobytes()
    np.testing.assert_allclose((U / pi) @ U.T, np.eye(P.d), rtol=0, atol=1e-12)
    for i, j in [(0, 1), (2, P.d - 1)]:
        mu, mu_prime = Distribution.point(P.d, i), Distribution.point(P.d, j)
        for t in (0, 1, 5):
            evolved = pi_norm_sq(evolve(mu, P, t).mass - evolve(mu_prime, P, t).mass, S.stationary)
            assert delta_at(mu, mu_prime, S, t) == pytest.approx(evolved, rel=1e-9, abs=0)


def test_sign_fix_and_abs_order_match_loops():
    def fix_signs_loop(U):
        out = U.copy()
        for i in range(out.shape[0]):
            row = out[i]
            scale = np.max(np.abs(row))
            if scale == 0.0:
                continue
            nonzero = np.nonzero(np.abs(row) > 1e-10 * scale)[0]
            if nonzero.size and row[nonzero[0]] < 0:
                out[i] = -row
        return out

    rng = np.random.default_rng(0)
    U = np.linalg.qr(rng.standard_normal((60, 60)))[0].T
    U *= rng.choice([-1.0, 1.0], size=(60, 1))
    U[:, 0][rng.random(60) < 0.3] = 1e-13  # negligible leading coordinates
    U[7] = 0.0
    for A in (U, np.asfortranarray(U)):
        fixed = A.copy(order="K")  # _fix_signs works in place
        _fix_signs(fixed)
        assert fixed.tobytes() == fix_signs_loop(A).tobytes()

    S = spectral_decomposition(zoo.cycle(12))  # ties in |lambda| and in lambda
    lams = S.eigenvalues
    ranks = sorted(range(S.d), key=lambda i: (-abs(lams[i]), -lams[i], i))
    np.testing.assert_array_equal(S.abs_order, ranks)


@pytest.mark.parametrize("name", ["cycle7", "line6", "pachinko3", "random12", "product2"])
def test_decomposition_invariants(name, zoo_chains):
    P = zoo_chains[name]
    S = spectral_decomposition(P)
    pi = S.stationary.mass
    U, V, lams = S.left_eigenvectors, S.right_eigenvectors, S.eigenvalues

    # pi-orthonormality of the left eigenvectors.
    gram = U @ (U / pi[None, :]).T
    assert np.max(np.abs(gram - np.eye(P.d))) < 1e-8

    # Left eigenvector equations u_i P = lam_i u_i.
    assert np.max(np.abs(U @ P.entries - lams[:, None] * U)) < 1e-8

    # u_i = Pi v_i, u_1 = pi, v_1 = ones.
    assert np.max(np.abs(U - pi[None, :] * V)) < 1e-12
    np.testing.assert_array_equal(U[0], pi)
    np.testing.assert_allclose(V[0], 1.0, atol=1e-12)

    # Rows i >= 2 sum to zero.
    assert np.max(np.abs(U[1:].sum(axis=1))) < 1e-8

    # Sorted descending; abs_order is a permutation, |lam| nonincreasing.
    assert np.all(np.diff(lams) <= 1e-15)
    assert sorted(S.abs_order.tolist()) == list(range(P.d))
    abs_sorted = np.abs(lams[S.abs_order])
    assert np.all(np.diff(abs_sorted) <= 1e-15)
    assert S.abs_order[0] == 0 and lams[0] == 1.0

    # Sign convention: first non-negligible coordinate positive.
    for row in U:
        idx = np.nonzero(np.abs(row) > 1e-10 * np.max(np.abs(row)))[0]
        assert row[idx[0]] > 0

    # Stationary cross-checks.
    assert np.max(np.abs(pi @ P.entries - pi)) < 1e-10
    np.testing.assert_allclose(pi, stationary_distribution(P).mass, atol=1e-12)


def test_reconstruction_random_chains():
    # P = sum_i lam_i v_i u_i^T for random reversible chains up to d = 64.
    for d, seed in [(8, 0), (23, 1), (64, 2)]:
        P = zoo.random_chain(d, seed=seed)
        S = spectral_decomposition(P)
        rebuilt = (
            S.right_eigenvectors.T * S.eigenvalues[None, :]
        ) @ S.left_eigenvectors
        assert np.max(np.abs(rebuilt - P.entries)) < 1e-8


def test_abs_order_tie_breaks_prefer_positive():
    # Cycle 8 has |lam| = 1 twice (1 and -1): +1 must take abs rank 1.
    S = spectral_decomposition(zoo.cycle(8))
    assert S.eigenvalue_by_abs_rank(1) == 1.0
    assert S.abs_multiplicity(2) == 1
    # cos(2 pi / 8) appears twice.
    assert S.abs_multiplicity(3) == 2


def test_evolution_coefficients_scale_by_eigenvalue_powers(rng, zoo_chains):
    # <u_i, mu P^t>_pi = lam_i^t <u_i, mu>_pi.
    from markovwindow.geometry import _pi_coefficients
    from conftest import random_distribution

    P = zoo_chains["random12"]
    S = spectral_decomposition(P)
    mu = random_distribution(rng, P.d)
    t = 6
    before = np.ldexp(*_pi_coefficients(mu.mass, S))
    after = np.ldexp(*_pi_coefficients(evolve(mu, P, t).mass, S))
    np.testing.assert_allclose(after, before * S.eigenvalues**t, atol=1e-8)


@lru_cache(maxsize=1)
def eigenpairs(d):
    """Q, lams and nus of random_chain(d), as spectral_decomposition passes them to _eigen_residual."""
    P = zoo.random_chain(d, seed=d)
    Q = symmetrize(P)
    return (Q, *np.linalg.eigh(Q))


def full_residual(Q, lams, nus):
    return np.abs(Q @ nus - nus * lams).max()


@pytest.mark.parametrize("P", [zoo.cycle(8), zoo.line(33), zoo.random_chain(4 * PROBES, seed=1)],
                         ids=["cycle8", "line33", "random256"])
def test_eigen_residual_reads_every_entry_up_to_256_states(P):
    Q = symmetrize(P)
    Q.setflags(write=False)  # the residual must not write into Q
    lams, nus = np.linalg.eigh(Q)
    assert _eigen_residual(Q, lams, nus) == full_residual(Q, lams, nus)


@pytest.mark.parametrize("build, read", [
    (lambda: zoo.cycle(8), spectral_decomposition),
    (lambda: zoo.random_chain(400, seed=4), spectral_decomposition),
    (lambda: zoo.cycle(400),
     lambda P: TestingInstance(P, Distribution.point(400, 0), Distribution.point(400, 1), 10).delta()),
], ids=["full residual", "probe residual", "products"])
def test_readers_share_the_chains_q_unchanged(build, read, monkeypatch):
    # Q is built only inside the decomposition, as a local that the call drops: one symmetrize(P) there
    # and none on the products path.  Handed over read-only, it keeps the bytes of a call of its own.
    P = build()
    built = []

    def kept(P, _real=symmetrize):
        built.append(_real(P))
        built[-1].setflags(write=False)
        return built[-1]

    monkeypatch.setattr(spectral, "symmetrize", kept)
    pi = P._pi
    read(P)
    assert P._pi is pi
    assert len(built) == (read is spectral_decomposition)
    assert all(Q.tobytes() == symmetrize(P).tobytes() for Q in built)


@pytest.mark.parametrize("d", [400, 1200, 1600])
def test_probe_residual_rejects_where_the_full_check_does(d):
    # One eigenvector entry moved by 1e-9 to 1e-6.  At 1e-9 the full check
    # itself reads below 1e-10 (the change is 1e-9 times an entry of Q), so
    # the gate is agreement with it, not rejection.
    Q, lams, nus = eigenpairs(d)
    assert _eigen_residual(Q, lams, nus) <= 1e-14
    rng = np.random.default_rng(d)
    rejected = []
    for size in (1e-9, 1e-8, 1e-7, 1e-6):
        for i, j in rng.integers(d, size=(2, 2)):
            moved = nus.copy()
            moved[i, j] += size
            full = full_residual(Q, lams, moved) > EIGEN_RESIDUAL_TOL
            assert (_eigen_residual(Q, lams, moved) > EIGEN_RESIDUAL_TOL) == full, (size, i, j)
            rejected.append(full)
    assert any(rejected) and not all(rejected)


def _no_convergence(Q):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def _moved_entry(Q, _real=np.linalg.eigh):
    """eigh, with entry 1 of the eigenvector of the least eigenvalue moved by 1e-6."""
    lams, nus = _real(Q)
    nus[1, 0] += 1e-6
    return lams, nus


@pytest.mark.parametrize("eigh, message", [(_no_convergence, "symmetric eigensolver did not converge"),
                                           (_moved_entry, "eigensolver residual")],
                         ids=["no convergence", "moved entry"])
@pytest.mark.parametrize("d", [8, 300], ids=["full residual", "probe residual"])
def test_eigensolver_failure_caches_nothing(monkeypatch, capsys, eigh, message, d):
    P = zoo.cycle(d)
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    with pytest.raises(EigensolverFailure, match=message):
        spectral_decomposition(P)
    assert P not in _CACHE
    assert cli.main(["spectrum", "--chain", f'{{"type":"cycle","d":{d}}}']) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {message}")
    monkeypatch.undo()
    assert spectral_decomposition(P).d == d

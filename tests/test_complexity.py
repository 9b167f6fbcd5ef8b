import json
import math

import numpy as np
import pytest

from markovwindow import (
    Distribution,
    Infeasible,
    InvalidParameter,
    NotReversible,
    TestingInstance,
    TransitionMatrix,
    UndefinedWindow,
    bounded_lr_epsilon,
    complexity_report,
    estimate_error,
    evolve,
    extreme_pairs,
    general_upper_bound,
    hellinger_sq,
    lazy,
    pairwise_epsilon,
    sample_lower_bound,
    sample_upper_bound,
    spectral_decomposition,
    statistical_time,
    statistical_window,
    zoo,
)
from markovwindow import cli, geometry
from markovwindow.complexity import (
    CROSSING_GRID,
    CROSSING_SLACK,
    _check_unit,
    _complexity_columns,
    _thresholds,
)
from markovwindow.geometry import PRODUCT_MIN_D, _product_deltas, _times, coefficient_diff, delta_curve
from markovwindow.spectral import UNIT_SNAP_TOL
from conftest import SUBNORMAL_PI_CHAIN, centered_pair, delta_at, pi_norm_sq, random_distribution


def aligned_pair(S, rank, alpha):
    u = S.left_by_abs_rank(rank)
    return (
        Distribution(S.stationary.mass + alpha * u),
        Distribution(S.stationary.mass - alpha * u),
    )


def unit_delta_instance(t=0):
    # p = q = 1/4 two-state chain: pi = (1/2, 1/2), lam_2 = 1/2; the pair
    # (3/4, 1/4) vs (1/4, 3/4) has ||mu - mu'||_pi^2 = 1.
    P = zoo.two_state(0.25, 0.25)
    return TestingInstance(
        chain=P,
        mu=Distribution([0.75, 0.25]),
        mu_prime=Distribution([0.25, 0.75]),
        t=t,
    )


def test_pairwise_epsilon_examples(rng):
    S = spectral_decomposition(zoo.cycle(8))
    pi = S.stationary
    assert pairwise_epsilon(pi, pi, pi) == 1.0
    mu, mu_prime = aligned_pair(S, 2, 0.02)
    assert pairwise_epsilon(mu, mu_prime, pi) > 0.0
    holed = Distribution([0.0] + [1 / 7] * 7)
    assert pairwise_epsilon(holed, mu_prime, pi) == 0.0


def test_epsilon_inheritance_under_evolution(zoo_chains, rng):
    # The pairwise bound never degrades along the chain.
    for name, P in zoo_chains.items():
        pi = spectral_decomposition(P).stationary
        mu, mu_prime = random_distribution(rng, P.d), random_distribution(rng, P.d)
        base = pairwise_epsilon(mu, mu_prime, pi)
        cur, cur_p = mu, mu_prime
        for _ in range(50):
            cur, cur_p = evolve(cur, P, 1), evolve(cur_p, P, 1)
            assert pairwise_epsilon(cur, cur_p, pi) >= base - 1e-12, name


def test_instance_validation():
    P = zoo.cycle(4)
    pi = Distribution.uniform(4)
    with pytest.raises(InvalidParameter):
        TestingInstance(chain=P, mu=pi, mu_prime=pi, t=-1)
    perm = TransitionMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    with pytest.raises(NotReversible):
        TestingInstance(chain=perm, mu=Distribution.uniform(3),
                        mu_prime=Distribution.uniform(3), t=0)


def test_instance_keeps_the_validated_t():
    inst = TestingInstance(chain=zoo.cycle(5), mu=Distribution.point(5, 0), mu_prime=Distribution.point(5, 1), t=2.0)
    for t in (inst.t, complexity_report(inst, None, 0.1).t, estimate_error(inst, 5, 100, seed=1).t):
        assert type(t) is int and t == 2


def _never_called(*args):
    raise AssertionError("ran before the parameter checks")


@pytest.mark.parametrize("mu, mu_prime", [
    (Distribution.point(5, 0), Distribution.point(5, 0)),
    (Distribution([0.3, 0.2, 0.2, 0.15, 0.15]), Distribution.uniform(5)),
], ids=["dead at every t", "usable epsilon"])
@pytest.mark.parametrize("delta, eta, message", [
    (5.0, 0.75, "delta must lie in (0, 1), got 5.0"),
    (0.1, 7.0, "eta must lie in (0, 1), got 7.0"),
], ids=["delta", "eta"])
def test_complexity_checks_delta_and_eta_first(monkeypatch, mu, mu_prime, delta, eta, message):
    # Whatever Delta(t) and eps turn out to be, neither eigh nor the products run first.
    inst = TestingInstance(chain=zoo.cycle(5), mu=mu, mu_prime=mu_prime, t=1)
    monkeypatch.setattr(np.linalg, "eigh", _never_called)
    monkeypatch.setattr(geometry, "_product_deltas", _never_called)
    with pytest.raises(InvalidParameter) as info:
        complexity_report(inst, None, delta, eta)
    assert str(info.value) == message


def test_sample_upper_bound_value():
    inst = unit_delta_instance()
    assert inst.delta() == pytest.approx(1.0, rel=1e-14)
    # ceil(16 * 0.5^{-5/2} * ln 10 / 1) = ceil(208.406...) = 209.
    assert sample_upper_bound(inst, 0.5, 0.1) == 209
    assert math.ceil(16 * 0.5**-2.5 * math.log(10)) == 209


def test_sample_lower_bound_values():
    inst = unit_delta_instance()
    # floor(8 * 0.5 * 0.01 / 1) = 0: vacuous at this scale.
    assert sample_lower_bound(inst, 0.5, 0.1) == 0
    P = inst.chain
    S = inst.decomposition
    mu, mu_prime = aligned_pair(S, 2, 0.005)
    small = TestingInstance(chain=P, mu=mu, mu_prime=mu_prime, t=0)
    n = sample_lower_bound(small, 0.5, 0.1)
    assert n == math.floor(8 * 0.5 * 0.01 / small.delta())
    assert 398 <= n <= 401  # floor(0.04 / 1e-4) up to roundoff in Delta


def test_bounds_invalid_parameters():
    inst = unit_delta_instance()
    for eps, delta in [(0.0, 0.1), (1.0, 0.1), (0.5, 0.0), (0.5, 1.0)]:
        with pytest.raises(InvalidParameter):
            sample_upper_bound(inst, eps, delta)
        with pytest.raises(InvalidParameter):
            sample_lower_bound(inst, eps, delta)


def test_bounds_infinite_when_fully_decayed():
    P = zoo.cycle(8)
    ext = extreme_pairs(P, 0.2)
    inst = TestingInstance(chain=P, mu=ext.gamma, mu_prime=ext.gamma_prime, t=1)
    assert inst.delta() == 0.0
    assert sample_upper_bound(inst, 0.5, 0.1) == math.inf
    assert sample_lower_bound(inst, 0.5, 0.1) == math.inf


def test_bounds_over_overflowing_numerators_are_inf():
    # epsilon^-2.5 at 1e-200 and (eta/3)^-2.5 at 1e-300 exceed the float
    # range (at 5e-324, eta/3 is 0.0), so the upper thresholds are inf, as
    # when the ratio overflows; 8 eps delta^2 underflows to 0, so the lower
    # threshold is 0.
    inst = unit_delta_instance()
    assert sample_upper_bound(inst, 1e-200, 0.1) == math.inf
    assert sample_lower_bound(inst, 1e-200, 0.1) == 0
    assert general_upper_bound(inst, 0.1, 1e-300) == general_upper_bound(inst, 0.1, 5e-324) == math.inf
    rep = complexity_report(inst, 1e-200, 0.1)
    assert (rep.n_upper, rep.n_lower, rep.epsilon) == (math.inf, 0, 1e-200)
    points = TestingInstance(chain=zoo.cycle(4), mu=Distribution.point(4, 0), mu_prime=Distribution.point(4, 1), t=0)
    rep = complexity_report(points, None, 0.1, eta=1e-300)
    assert (rep.n_upper, rep.n_lower, rep.epsilon) == (math.inf, 0, None)


def test_upper_bound_growth_rate_for_aligned_pair():
    # Along an eigenvector with |lam| = 1/2 the threshold grows 4x per step.
    P = zoo.two_state(0.25, 0.25)
    S = spectral_decomposition(P)
    mu, mu_prime = aligned_pair(S, 2, 1e-3)
    bounds = [
        sample_upper_bound(
            TestingInstance(chain=P, mu=mu, mu_prime=mu_prime, t=t), 0.5, 0.1
        )
        for t in range(4)
    ]
    for a, b in zip(bounds, bounds[1:]):
        assert b / a == pytest.approx(0.5**-2, rel=1e-3)


def test_constant_ordering_lower_below_upper():
    # c(eps, delta) < C(eps, delta) for delta < 1/4, so n_lower <= n_upper.
    inst = unit_delta_instance()
    for eps in (0.05, 0.3, 0.7, 0.95):
        for delta in (0.01, 0.1, 0.249):
            c = 8 * eps * delta**2
            C = 16 * eps**-2.5 * math.log(1 / delta)
            assert c < C
            assert sample_lower_bound(inst, eps, delta) <= sample_upper_bound(inst, eps, delta)


def test_general_upper_bound_constant():
    inst = unit_delta_instance()
    # eta = 3/4: 16 * (1/4)^{-5/2} * 4 = 2048.
    expected = math.ceil(2048 * math.log(10) / inst.delta())
    assert general_upper_bound(inst, 0.1, eta=0.75) == expected
    assert general_upper_bound(inst, 0.1) == expected  # default eta
    with pytest.raises(InvalidParameter):
        general_upper_bound(inst, 0.1, eta=1.0)


def test_general_bound_looser_than_specific():
    # For pairs already eps-bounded with eps >= eta/3 the general bound is larger.
    inst = unit_delta_instance()
    eta = 0.75
    eps = pairwise_epsilon(inst.mu, inst.mu_prime, inst.stationary)
    assert eps >= eta / 3
    assert general_upper_bound(inst, 0.1, eta=eta) >= sample_upper_bound(inst, eps, 0.1)


def test_general_bound_infinite_when_decayed():
    P = zoo.cycle(8)
    ext = extreme_pairs(P, 0.2)
    inst = TestingInstance(chain=P, mu=ext.gamma, mu_prime=ext.gamma_prime, t=2)
    assert general_upper_bound(inst, 0.1) == math.inf


def test_infinite_delta_needs_one_sample(capsys):
    # Delta(0) lies past the float range: the upper thresholds read 1 sample,
    # not ceil(numerator / inf) = 0; n_lower stays 0 and 1 / Delta(0) is 0.
    argv = ["complexity", "--chain", json.dumps(SUBNORMAL_PI_CHAIN), "--mu", "point:0", "--mu-prime", "point:1",
            "--t", "0..2"]
    for extra in ([], ["--epsilon", "0.5"]):
        assert cli.main(argv + extra) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert rows[0] == ["0", "inf", "1", "0", "0"]
        assert [row[2] for row in rows] == ["1", "1", "1"]
    P = zoo.chain_from_spec(SUBNORMAL_PI_CHAIN)
    inst = TestingInstance(chain=P, mu=Distribution.point(2, 0), mu_prime=Distribution.point(2, 1), t=0)
    assert inst.delta() == math.inf
    assert sample_upper_bound(inst, 0.5, 0.1) == general_upper_bound(inst, 0.1) == 1
    assert sample_lower_bound(inst, 0.5, 0.1) == 0
    report = complexity_report(inst, None, 0.1)
    assert (report.n_upper, report.n_lower, report.n_star_scale) == (1, 0, 0.0)


def test_infinite_numerator_over_infinite_delta_is_refused(capsys):
    # 16 eps^-2.5 ln(1/delta) overflows at eps = 1e-130, and Delta(0) lies
    # past the float range: inf / inf is no threshold (the true n_upper is
    # about 2e17), so the command names --epsilon instead of failing on NaN.
    argv = ["complexity", "--chain", json.dumps(SUBNORMAL_PI_CHAIN), "--mu", "point:0", "--mu-prime", "point:1",
            "--t", "0..1"]
    for epsilon in ("1e-130", "1e-300"):
        assert cli.main(argv + ["--epsilon", epsilon]) == 1
        err = capsys.readouterr().err
        assert "--epsilon" in err and "past the float range" in err and "NaN" not in err
    P = zoo.chain_from_spec(SUBNORMAL_PI_CHAIN)
    inst = TestingInstance(chain=P, mu=Distribution.point(2, 0), mu_prime=Distribution.point(2, 1), t=0)
    with pytest.raises(InvalidParameter, match="^--epsilon .* past the float range"):
        sample_upper_bound(inst, 1e-130, 0.1)
    with pytest.raises(InvalidParameter, match="^--eta .* past the float range"):
        general_upper_bound(inst, 0.1, eta=1e-300)


def test_center_pair_guarantees(rng):
    # The construction promises: an (eta/3)-bounded centered pair, domination
    # of (eta/3) pi by each centered distribution, H^2 contraction by (1-eta),
    # and exact (1-eta) scaling of evolved pi-distances.
    P = zoo.random_chain(9, seed=21)
    S = spectral_decomposition(P)
    pi = S.stationary
    for eta in (0.2, 0.6, 0.9):
        mu = random_distribution(rng, 9, full_support=False)
        mu_prime = random_distribution(rng, 9, full_support=False)
        c, c_prime = centered_pair(mu, mu_prime, pi, eta)
        assert bounded_lr_epsilon(c, c_prime) >= eta / 3 - 1e-12
        assert np.min(c.mass / pi.mass) >= eta / 3 - 1e-12
        assert np.min(c_prime.mass / pi.mass) >= eta / 3 - 1e-12
        assert hellinger_sq(c, c_prime) <= (1 - eta) * hellinger_sq(mu, mu_prime) + 1e-12
        for t in (0, 3):
            lhs = math.sqrt(pi_norm_sq(evolve(c, P, t).mass - evolve(c_prime, P, t).mass, pi))
            rhs = (1 - eta) * math.sqrt(pi_norm_sq(evolve(mu, P, t).mass - evolve(mu_prime, P, t).mass, pi))
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-14)


def test_center_pair_two_sided_bound_against_pi_can_fail():
    # A concentrated mu at large eta exceeds the 3/eta ratio against pi, so
    # the triple is *not* two-sidedly (eta/3)-bounded; only the pair bound
    # plus one-sided domination of pi is guaranteed.
    pi = Distribution.uniform(10)
    mu = Distribution.point(10, 0)
    c, _ = centered_pair(mu, pi, pi, 0.6)
    assert c.mass[0] / pi.mass[0] > 3 / 0.6
    assert bounded_lr_epsilon(c, pi) < 0.6 / 3
    assert np.min(c.mass / pi.mass) >= 0.6 / 3 - 1e-12


def test_extreme_pairs_shared_alpha_and_epsilon():
    for P in (zoo.cycle(8), zoo.pachinko(3, [0.5, 0.26, 0.15, 0.09]), zoo.line(6)):
        S = spectral_decomposition(P)
        for eps_target in (0.0, 0.2, 0.7):
            ext = extreme_pairs(P, eps_target)
            assert ext.alpha > 0
            d0_a = delta_at(ext.mu, ext.mu_prime, S, 0)
            d0_b = delta_at(ext.gamma, ext.gamma_prime, S, 0)
            assert d0_a == pytest.approx(4 * ext.alpha**2, rel=1e-10)
            assert d0_b == pytest.approx(4 * ext.alpha**2, rel=1e-10)
            if eps_target > 0:
                assert pairwise_epsilon(ext.mu, ext.mu_prime, S.stationary) >= eps_target
                assert pairwise_epsilon(ext.gamma, ext.gamma_prime, S.stationary) >= eps_target


def test_extreme_pairs_single_eigenvector_decay():
    P = zoo.pachinko(3, [0.5, 0.26, 0.15, 0.09])
    S = spectral_decomposition(P)
    ext = extreme_pairs(P, 0.3)
    lam2, lamd = ext.lambda_2, ext.lambda_d
    d0 = 4 * ext.alpha**2
    for t in (1, 4, 9):
        assert delta_at(ext.mu, ext.mu_prime, S, t) == pytest.approx(
            d0 * lam2 ** (2 * t), rel=1e-10
        )
        assert delta_at(ext.gamma, ext.gamma_prime, S, t) == pytest.approx(
            d0 * lamd ** (2 * t), rel=1e-10
        )


def test_extreme_pairs_infeasible():
    with pytest.raises(Infeasible):
        extreme_pairs(zoo.cycle(8), 1.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidParameter):
            extreme_pairs(zoo.cycle(8), bad)


def test_extreme_pairs_cycle8_window_witness():
    P = zoo.cycle(8)
    S = spectral_decomposition(P)
    ext = extreme_pairs(P, 0.2)
    assert ext.lambda_2 == -1.0 and ext.lambda_d == 0.0
    d0 = delta_at(ext.mu, ext.mu_prime, S, 0)
    for t in range(1, 21):
        assert delta_at(ext.mu, ext.mu_prime, S, t) == d0
        assert delta_at(ext.gamma, ext.gamma_prime, S, t) == 0.0


def test_extreme_pairs_bipartite_side_mass_invariant():
    P = zoo.bipartite_clique(6)
    ext = extreme_pairs(P, 0.2)
    gap0 = abs(ext.mu.mass[:3].sum() - ext.mu_prime.mass[:3].sum())
    assert gap0 > 1e-3
    cur, cur_p = ext.mu, ext.mu_prime
    for _ in range(4):
        cur, cur_p = evolve(cur, P, 1), evolve(cur_p, P, 1)
        gap = abs(cur.mass[:3].sum() - cur_p.mass[:3].sum())
        assert gap == pytest.approx(gap0, rel=1e-12)


def test_window_normalization_and_closed_form():
    P = zoo.pachinko(2, [0.6, 0.3, 0.1])
    ext = extreme_pairs(P, 0.2)
    assert (ext.lambda_2, ext.lambda_d) == (pytest.approx(0.8), pytest.approx(0.3))
    ts = [0, 1, 3, 7]
    window = statistical_window(P, ext.pair_a, ext.pair_b, ts)
    assert window.shape == (4,) and window[0] == 1.0
    for t, got in zip(ts[1:], window[1:]):
        expected = (ext.lambda_2 / ext.lambda_d) ** (2 * t)
        assert got == pytest.approx(expected, rel=1e-10)


def test_window_infinite_and_undefined():
    P = zoo.cycle(8)
    ext = extreme_pairs(P, 0.2)
    assert statistical_window(P, ext.pair_a, ext.pair_b, [1, 2]).tolist() == [math.inf, math.inf]
    with pytest.raises(UndefinedWindow):
        statistical_window(P, ext.pair_b, ext.pair_b, [1])
    with pytest.raises(InvalidParameter):
        statistical_window(P, (ext.mu, ext.mu), ext.pair_b, [0])


def test_window_survives_lambda_d_underflow():
    # Past this t, lambda_[d]^{2t} Delta(0)^2 is below the smallest normal
    # float, so the decays of pair B underflow while the window stays finite.
    P = zoo.random_chain(120, seed=1)
    ext = extreme_pairs(P, 0.2)
    lam2, lamd = abs(ext.lambda_2), abs(ext.lambda_d)
    log_d0 = math.log(4.0 * ext.alpha**2)
    t_under = math.ceil((math.log(2.2e-308) - 2.0 * log_d0) / (2.0 * math.log(lamd)))
    ts = [t_under, t_under + 5]
    for t, got in zip(ts, statistical_window(P, ext.pair_a, ext.pair_b, ts)):
        assert 2.0 * t * math.log(lamd) + 2.0 * log_d0 < math.log(2.2e-308)
        expected = math.exp(2.0 * t * (math.log(lam2) - math.log(lamd)))
        assert got == pytest.approx(expected, rel=1e-9)


def closed_form_crossing(n, d0, threshold, lam):
    ratio = n * d0 / threshold
    if ratio <= 1.0 + 1e-12:
        return 0
    return max(0, math.ceil(math.log(ratio) / (2.0 * math.log(1.0 / lam)) - 1e-12))


def test_statistical_time_examples():
    P = zoo.two_state(0.25, 0.25)
    S = spectral_decomposition(P)
    mu, mu_prime = aligned_pair(S, 2, 0.1)
    d0 = delta_at(mu, mu_prime, S, 0)
    n = 1000
    # Already below the bar.
    assert statistical_time(P, mu, mu_prime, [n], threshold=2 * n * d0) == [0]
    # |lam| = 1/2 and n Delta(0) / threshold = 16: crossing at t = 2; a 16 times smaller n crosses at 0.
    assert statistical_time(P, mu, mu_prime, [n, n // 16], threshold=n * d0 / 16) == [2, 0]
    assert statistical_time(P, mu, mu_prime, [], threshold=0.1) == []
    with pytest.raises(InvalidParameter):
        statistical_time(P, mu, mu, [10], threshold=0.1)
    with pytest.raises(InvalidParameter):
        statistical_time(P, mu, mu_prime, [10, 0], threshold=0.1)


def test_statistical_time_never_crosses_on_unit_eigenvalue():
    P = zoo.cycle(8)
    ext = extreme_pairs(P, 0.2)
    d0 = 4 * ext.alpha**2
    assert statistical_time(P, ext.mu, ext.mu_prime, [100], threshold=d0) == [math.inf]


@pytest.mark.parametrize(
    "P",
    [zoo.bipartite_clique(8), zoo.cycle(8), zoo.cycle(16), zoo.blockmodel2(16, 0, 4)],
    ids=["bipartite_clique8", "cycle8", "cycle16", "blockmodel2_bipartite16"],
)
def test_statistical_time_infinite_exactly_below_permanent_mass(P, rng):
    # Reference: the permanent mass sum diff_i^2 over |lambda_i| = 1, i >= 2,
    # which n * Delta(t) never leaves; just above it the crossing is finite.
    S = spectral_decomposition(P)
    n = 1000
    for _ in range(3):
        mu, mu_prime = random_distribution(rng, P.d), random_distribution(rng, P.d)
        diff = coefficient_diff(mu, mu_prime, S)
        permanent = float(np.sum(diff[1:][np.abs(S.eigenvalues[1:]) == 1.0] ** 2))
        assert permanent > 0.0
        below = n * permanent * (1 - 1e-6)
        assert statistical_time(P, mu, mu_prime, [n], below) == [math.inf]
        above = n * permanent * (1 + 1e-6)
        bar = above * (1 + CROSSING_SLACK)
        scan = next(t for t in range(10**4) if n * delta_at(mu, mu_prime, S, t) <= bar)
        assert statistical_time(P, mu, mu_prime, [n], above) == [scan]


def test_crossing_grid_ends_where_every_decaying_mode_underflows():
    t = CROSSING_GRID[-1]
    assert t == 2**50 and CROSSING_GRID[:3] == [0, 1, 2]
    slowest_decaying = np.nextafter(1.0 - UNIT_SNAP_TOL, 0.0)
    assert np.exp(2 * t * np.log(slowest_decaying)) == 0.0


def test_statistical_time_matches_closed_form(rng):
    for lam in (0.9, 0.5, 0.1):
        P = zoo.two_state((1 - lam) / 2, (1 - lam) / 2)
        S = spectral_decomposition(P)
        lam_actual = abs(S.eigenvalue_by_abs_rank(2))
        for _ in range(10):
            alpha = float(rng.uniform(1e-4, 0.4))
            mu, mu_prime = aligned_pair(S, 2, alpha)
            d0 = delta_at(mu, mu_prime, S, 0)
            n = int(rng.integers(1, 10**9))
            threshold = float(rng.uniform(1e-6, 10.0))
            assert statistical_time(P, mu, mu_prime, [n], threshold) == [closed_form_crossing(n, d0, threshold,
                                                                                              lam_actual)]


def test_complexity_report_fields_and_infinities():
    inst = unit_delta_instance()
    rep = complexity_report(inst, 0.5, 0.1)
    d = rep.to_json_dict()
    assert list(d) == [
        "delta_t", "epsilon", "n_upper", "n_lower", "n_star_scale", "t", "eigen_summary",
    ]
    assert d["n_upper"] == 209 and d["n_star_scale"] == pytest.approx(1.0)
    assert d["eigen_summary"]["d"] == 2

    P = zoo.cycle(8)
    ext = extreme_pairs(P, 0.2)
    dead = TestingInstance(chain=P, mu=ext.gamma, mu_prime=ext.gamma_prime, t=1)
    rep = complexity_report(dead, None, 0.1)
    assert rep.delta_t == 0.0
    assert rep.n_upper == math.inf and rep.n_lower == math.inf and rep.n_star_scale == math.inf


def test_complexity_report_thresholds_overflow_to_inf():
    # Delta(530) = 4^-530 is subnormal but positive: the threshold ratios
    # overflow to inf instead of reaching math.ceil / math.floor.
    rep = complexity_report(unit_delta_instance(t=530), 0.5, 0.1)
    assert 0.0 < rep.delta_t < np.finfo(float).tiny
    assert rep.n_upper == math.inf and rep.n_lower == math.inf


def test_complexity_report_measures_epsilon():
    inst = unit_delta_instance()
    rep = complexity_report(inst, None, 0.1)
    assert rep.epsilon == pytest.approx(
        pairwise_epsilon(inst.mu, inst.mu_prime, inst.stationary)
    )


def test_complexity_report_general_fallback_without_usable_epsilon():
    # Support-mismatched pairs have no bounded-ratio parameter; the report
    # falls back to the hypothesis-free bound and a vacuous lower threshold.
    P = zoo.cycle(4)
    inst = TestingInstance(
        chain=P, mu=Distribution.point(4, 0), mu_prime=Distribution.uniform(4), t=0
    )
    assert pairwise_epsilon(inst.mu, inst.mu_prime, inst.stationary) == 0.0
    rep = complexity_report(inst, None, 0.1, eta=0.75)
    assert rep.epsilon is None
    assert rep.n_lower == 0
    assert rep.n_upper == general_upper_bound(inst, 0.1, eta=0.75)
    assert rep.n_star_scale == pytest.approx(1.0 / inst.delta())


def test_every_row_reports_the_usable_epsilon_or_none(capsys):
    # eps = 1 is not usable (0 < eps < 1), also on rows where Delta(t) = 0.
    P = zoo.cycle(5)
    inst = TestingInstance(chain=P, mu=P._pi, mu_prime=P._pi, t=1)
    rep = complexity_report(inst, None, 0.1)
    assert pairwise_epsilon(inst.mu, inst.mu_prime, inst.stationary) == 1.0
    assert (rep.delta_t, rep.epsilon) == (0.0, None)
    argv = ["complexity", "--chain", '{"type":"line","d":3}', "--mu", "[0.375,0.5,0.125]",
            "--mu-prime", "[0.125,0.5,0.375]", "--t", "0..2", "--epsilon", "1", "--format", "json"]
    assert cli.main(argv) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [row["delta_t"] == 0.0 for row in rows] == [False, True, True]
    assert [row["epsilon"] for row in rows] == [None, None, None]


def _threshold(numerator, delta_t, rounding):
    """Reference: one threshold by the scalar formula; an upper one (ceil) is at least 1."""
    if delta_t == 0.0:
        return math.inf
    ratio = numerator / delta_t
    if math.isinf(ratio):
        return math.inf
    return max(1, rounding(ratio)) if rounding is math.ceil else rounding(ratio)


@pytest.mark.parametrize("rounding, column_rounding", [(math.ceil, np.ceil), (math.floor, np.floor)])
def test_threshold_columns_match_the_scalar_formula(rounding, column_rounding):
    # Delta = 0 and a subnormal Delta whose ratio overflows give inf; 7 * 2^70
    # and 7e300 lie far above 2^63 and must stay exact ints, not int64 or float.
    deltas = np.array([0.0, 5e-324, 2.0**-70, 1e-300, 3.0, 0.1, 1e300])
    for numerator in (7.0, 0.0, math.inf):
        column = _thresholds(numerator, deltas, column_rounding)
        expected = [_threshold(numerator, delta_t, rounding) for delta_t in deltas.tolist()]
        assert column == expected and list(map(type, column)) == list(map(type, expected))
    column = _thresholds(7.0, deltas, column_rounding)
    assert column[2] == 7 * 2**70 and str(column[3]) == str(int(7e300)) and len(str(column[3])) == 301


def _reference_rows(P, mu, mu_prime, ts, epsilon, delta, eta):
    """The report rules one t at a time, through the scalar threshold formula,
    once delta and eta are checked."""
    _check_unit(delta=delta, eta=eta)
    S = spectral_decomposition(P)
    if epsilon is None:
        epsilon = pairwise_epsilon(mu, mu_prime, S.stationary)
    rows = []
    for t in ts:
        delta_t = delta_at(mu, mu_prime, S, t)
        if delta_t == 0.0:
            rows.append((0.0, epsilon if 0.0 < epsilon < 1.0 else None, math.inf, math.inf, math.inf))
        elif not 0.0 < epsilon < 1.0:
            upper = 16.0 * (eta / 3.0) ** -2.5 / (1.0 - eta) * math.log(1.0 / delta)
            rows.append((delta_t, None, _threshold(upper, delta_t, math.ceil), 0, 1.0 / delta_t))
        else:
            upper = _threshold(16.0 * epsilon**-2.5 * math.log(1.0 / delta), delta_t, math.ceil)
            lower = _threshold(8.0 * epsilon * delta**2, delta_t, math.floor)
            rows.append((delta_t, epsilon, upper, lower, 1.0 / delta_t))
    return rows


def _outcome(call):
    try:
        return call()
    except InvalidParameter as exc:
        return f"InvalidParameter: {exc}"


_CYCLE4 = zoo.cycle(4)  # point:0 vs point:2 has Delta(t) = 0 for every t >= 1
_HALF = unit_delta_instance()  # Delta(530) is subnormal


@pytest.mark.parametrize("P, mu, mu_prime, ts", [
    (_CYCLE4, Distribution.point(4, 0), Distribution.point(4, 2), [0, 1, 2, 3]),
    (_CYCLE4, Distribution.point(4, 0), Distribution.point(4, 2), [1, 2]),
    (_CYCLE4, Distribution([0.3, 0.2, 0.25, 0.25]), Distribution([0.25, 0.25, 0.3, 0.2]), [0, 1, 5]),
    (_HALF.chain, _HALF.mu, _HALF.mu_prime, [0, 1, 10, 530, 2000]),
    (zoo.cycle(9), Distribution.point(9, 0), Distribution.point(9, 1), [0, 3, 100, 10**8]),
], ids=["dead after 0", "all dead", "bounded pair", "subnormal", "long t"])
@pytest.mark.parametrize("epsilon, delta, eta", [
    (None, 0.1, 0.75), (0.5, 0.1, 0.75), (1.0, 0.1, 0.75), (0.0, 0.1, 0.75), (1.5, 0.1, 0.75),
    (0.5, 2.0, 0.75), (None, 0.1, 0.0), (0.5, 0.0, 0.75), (None, 5e-324, 0.75),
])
def test_complexity_columns_match_the_rows(P, mu, mu_prime, ts, epsilon, delta, eta):
    def columns():
        eps = pairwise_epsilon(mu, mu_prime, P._pi) if epsilon is None else epsilon
        cols = _complexity_columns(ts, delta_curve(P, mu, mu_prime, ts), eps, delta, eta)
        assert cols["t"] == ts
        assert "eigen_summary" not in cols  # the command adds it, one shared dict, for JSON alone
        fields = ("delta_t", "epsilon", "n_upper", "n_lower", "n_star_scale")
        return [tuple(row) for row in zip(*(cols[field] for field in fields))]

    got = _outcome(columns)
    assert got == _outcome(lambda: _reference_rows(P, mu, mu_prime, ts, epsilon, delta, eta))
    if not isinstance(got, str):
        assert [list(map(type, row)) for row in got] == [
            list(map(type, row)) for row in _reference_rows(P, mu, mu_prime, ts, epsilon, delta, eta)]


def _product_case(family, d, pair):
    P = {"cycle": zoo.cycle, "line": zoo.line, "lazy_cycle": lambda d: lazy(zoo.cycle(d), 0.5),
         "blockmodel2": lambda d: zoo.blockmodel2(d, d // 5, d // 20)}[family](d)
    if pair == "explicit":
        rng = np.random.default_rng(d)
        mu, mu_prime = random_distribution(rng, d), random_distribution(rng, d)
    else:
        mu, mu_prime = (Distribution.point(d, int(x)) for x in pair.split(":"))
    return P, mu, mu_prime


# Cases where the rounding guard holds at every t: Delta(t) / Delta(0) stays
# large enough for the chain's column count k (2 to 3 here, 75 and 200 for
# blockmodel2, whose point pairs 0:1 decay too fast for it beyond t = 0).
_PRODUCT_CASES = [
    (family, d, pair, ts)
    for d in (300, 800)
    for family, pair, ts in [
        ("cycle", "0:1", [0, 1, 10, d // 4]),
        ("cycle", "explicit", [10, 0, d // 4, 1, 10]),
        ("line", "0:1", [0, 1, 10, d // 4]),
        ("line", "explicit", [0, 1, 10, d // 4]),
        ("lazy_cycle", "0:1", [0, 1, 10]),
        ("lazy_cycle", "explicit", [0, 1, 10, d // 4]),
        ("blockmodel2", f"0:{d // 2}", [0, 1]),
        ("blockmodel2", "explicit", [1, 0]),
    ]
]


@pytest.mark.parametrize("family, d, pair, ts", _PRODUCT_CASES,
                         ids=[f"{family}({d}) {pair}" for family, d, pair, _ in _PRODUCT_CASES])
def test_product_deltas_agree_with_delta_curve_and_evolve(family, d, pair, ts):
    P, mu, mu_prime = _product_case(family, d, pair)
    assert d > PRODUCT_MIN_D and 4 * max(ts) <= d
    got = _product_deltas(P, mu, mu_prime, _times(ts))
    assert got is not None
    S = spectral_decomposition(P)
    np.testing.assert_allclose(got, [delta_at(mu, mu_prime, S, t) for t in ts], rtol=1e-12, atol=0)
    pi = P._pi.mass
    evolved = [float(np.sum((evolve(mu, P, t).mass - evolve(mu_prime, P, t).mass) ** 2 / pi)) for t in ts]
    assert np.max(np.abs(got - evolved)) <= 1e-9 * max(1.0, float(np.sum((mu.mass - mu_prime.mass) ** 2 / pi)))
    eps = pairwise_epsilon(mu, mu_prime, P._pi)
    assert _complexity_columns(ts, delta_curve(P, mu, mu_prime, ts), eps, 0.1, 0.75)["delta_t"] == got.tolist()


def test_dense_chain_fails_the_guard_and_prints_the_delta_curve_bytes(capsys, monkeypatch):
    chain = '{"type":"random_chain","d":400,"seed":3}'
    P = zoo.random_chain(400, seed=3)
    mu, mu_prime = Distribution.point(400, 0), Distribution.point(400, 1)
    assert _product_deltas(P, mu, mu_prime, _times([10])) is None
    outputs = []
    for min_d in (PRODUCT_MIN_D, 400):  # the product rule first, then no chain of 400 states meets it
        monkeypatch.setattr(geometry, "PRODUCT_MIN_D", min_d)
        for fmt in ("csv", "json"):
            argv = ["complexity", "--chain", chain, "--mu", "point:0", "--mu-prime", "point:1", "--t", "10"]
            assert cli.main([*argv, "--format", fmt]) == 0
            outputs.append(capsys.readouterr().out)
    assert outputs[:2] == outputs[2:]


def test_product_path_keeps_the_reversibility_check(capsys):
    # The walk on the 300-cycle that steps right w.p. 0.6: pi is uniform, the flows are not balanced.
    d = 300
    P = np.zeros((d, d))
    P[np.arange(d), (np.arange(d) + 1) % d] = 0.6
    P[np.arange(d), (np.arange(d) - 1) % d] = 0.4
    chain = '{"type":"explicit","matrix":%s}' % P.tolist()
    argv = ["complexity", "--chain", chain, "--mu", "point:0", "--mu-prime", "point:1", "--t", "0,1,10"]
    assert cli.main(argv) == 2
    assert "chain not reversible" in capsys.readouterr().err


_ONE_RULE_CHAINS = {spec: zoo.chain_from_spec(json.loads(spec))
                    for spec in ('{"type":"cycle","d":400}', '{"type":"line","d":800}')}


@pytest.mark.parametrize("spec", list(_ONE_RULE_CHAINS))
@pytest.mark.parametrize("t", [0, 1, 10, 100])
def test_instance_report_and_command_share_one_delta_rule(capsys, spec, t):
    # One Delta(t) rule for every caller: the instance, the report and the
    # command at this one t print the same float, whatever was cached before,
    # and the public bounds are the report's thresholds.
    P = _ONE_RULE_CHAINS[spec]
    inst = TestingInstance(chain=P, mu=Distribution.point(P.d, 0), mu_prime=Distribution.point(P.d, 1), t=t)
    before = inst.delta()
    rep = complexity_report(inst, 0.5, 0.1)  # builds and caches the decomposition for eigen_summary
    argv = ["complexity", "--chain", spec, "--mu", "point:0", "--mu-prime", "point:1", "--t", str(t)]
    assert cli.main(argv) == 0
    row = dict(zip(*(line.split(",") for line in capsys.readouterr().out.splitlines())))
    assert before == inst.delta() == rep.delta_t == float(row["delta_t"])
    assert sample_upper_bound(inst, 0.5, 0.1) == rep.n_upper
    assert sample_lower_bound(inst, 0.5, 0.1) == rep.n_lower

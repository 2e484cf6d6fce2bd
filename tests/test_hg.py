"""Tests for the translated-premium risk measure solver."""

import math

import numpy as np
import pytest

import orlicz.hg as hg
from orlicz import (
    Expectile,
    GeometricExpectile,
    GeometricMean,
    LpQuantile,
    LpqQuantile,
    MeasureChange,
    OrliczError,
    PiecewiseLinear,
    Power,
    QuantileStep,
    RandomVariable,
    beta_conjugate,
    gg_counterexample_check,
    hg_risk_measure,
    orlicz_premium,
    rv,
)
from orlicz.hg import COARSE_POINTS, WINDOW_TOL
from orlicz.premium import _lp_quantile_exact

# families whose premium is cash-additive, so rho(X) = H(X) = g(min X)
CASH_ADDITIVE = (
    Expectile(0.3),
    Expectile(0.8),
    LpQuantile(0.7, 2.0),
    QuantileStep(0.4),
    LpqQuantile(1.5, 0.5, 2.0, 2.0),
    LpqQuantile(1.5, 0.5, 1.0, 1.0),
    Power(1.0),
    LpqQuantile(2.0, 0.0, 2.0, 1.0),
    GeometricExpectile(2.0, 0.0),  # b = 0: the essential sup
)


CONVEX_PWL = PiecewiseLinear([(0.5, 0.25), (1.0, 1.0), (2.0, 3.0), (4.0, 9.0)])
# slopes 1.6, 0.4, 2: continuous at 1 but not convex
NONCONVEX_PWL = PiecewiseLinear([(0.0, 0.0), (0.5, 0.8), (1.0, 1.0), (2.0, 3.0)])


def _g(phi, X, x):
    shifted = RandomVariable(X.space, tuple(max(v - x, 0.0) for v in X.values))
    return x + orlicz_premium(phi, shifted).value


def test_geometric_mean_two_point_minimum():
    # g(x) = x for x in [0.5, 2] and dips toward 0.5 from the left, so the
    # global minimum 0.5 sits exactly at the lower outcome
    res = hg_risk_measure(GeometricMean(), rv((0.5, 2.0)))
    assert res.value == pytest.approx(0.5, abs=1e-6)
    assert res.minimizer_x == pytest.approx(0.5, abs=1e-4)
    assert not res.floor_active


def test_constant_outcome_is_reproduced():
    res = hg_risk_measure(Power(1.0), rv((2.0, 2.0, 2.0)))
    assert res.value == pytest.approx(2.0, abs=1e-9)
    assert res.extensions == 0
    assert not res.floor_active
    # profile is flat at the constant over the whole window
    assert all(gv == pytest.approx(2.0, abs=1e-9) for _, gv in res.profile)


def test_expectile_hand_value_on_unit_bet():
    # direct solve: g(x) = 0.8 + 0.2 x on [0, 1] and 0.8 on the plateau x <= 0
    res = hg_risk_measure(Expectile(0.8), rv((0.0, 1.0)))
    assert res.value == pytest.approx(0.8, abs=1e-9)
    assert res.minimizer_x <= 1e-6
    assert not res.floor_active


def test_quantile_step_plateau_value():
    # alpha = 0.3 picks the first atom, so g(x) = 1 for every x <= 1
    res = hg_risk_measure(QuantileStep(0.3), rv((1.0, 2.0, 4.0)))
    assert res.value == pytest.approx(1.0, abs=1e-8)


def test_convex_pwl_far_tail_is_its_expectile():
    # a convex pwl with slope 2 on [0.999, 1.001] only: g reaches E[X] = 2
    # (slopes 2 and 2 on either side of 1, so tau = 1/2) only from
    # x_L = 2 - 1/0.001 = -998 on; a left-extending sweep clamped to a floor
    # at -192 used to stop there with a gap above 0.5
    phi = PiecewiseLinear([(0.999, 0.998), (1.001, 1.002), (2.0, 4.998)])
    X = rv((1.0, 3.0))
    res = hg_risk_measure(phi, X)
    assert res.route == "tail"
    assert res.value == 2.0
    assert res.attained
    assert res.minimizer_x == pytest.approx(-998.0, rel=1e-12, abs=0.0)
    assert (res.evaluations, res.profile, res.extensions, res.floor_active) == (0, (), 0, False)
    assert _g(phi, X, res.minimizer_x) == pytest.approx(2.0, abs=1e-6)  # premium tol at k ~ 1000
    assert _g(phi, X, -1200.0) == pytest.approx(2.0, abs=1e-6)


def _expectile(X, tau):
    return _lp_quantile_exact(X.values, X.space.probs, tau, 1)


# convex pwl, continuous at 1: knots on both sides, close to 1, at 0, and a
# finite upper
TAIL_PWL = (
    CONVEX_PWL,
    PiecewiseLinear([(0.999, 0.998), (1.001, 1.002), (2.0, 4.998)]),
    PiecewiseLinear([(0.0, 0.5), (1.0, 1.0), (3.0, 4.0), (5.0, 10.0)]),
    PiecewiseLinear([(0.2, 0.0), (1.0, 1.0), (1.5, 2.0)], upper=4.0),
)


@pytest.mark.parametrize("n", [2, 3, 5, 20])
@pytest.mark.parametrize("phi", TAIL_PWL, ids=lambda p: p.spec_string())
def test_tail_route_has_a_two_sided_certificate(phi, n):
    # upper side: g(x_L) = rho.  Lower side, independent of the search:
    # dQ/dP proportional to s+ on {X > rho} and s- on {X <= rho} has
    # beta(Q) = 1 and E_Q[X] = rho, so weak duality gives rho >= E_Q[X]
    rng = np.random.default_rng(n)
    X = rv(np.round(rng.uniform(0.1, 5.0, n), 4).tolist(), rng.dirichlet(np.ones(n)).tolist())
    res = hg_risk_measure(phi, X)
    assert (res.route, res.evaluations, res.attained) == ("tail", 0, True)
    s_up, s_down = phi.derivative(np.array([1.0, math.nextafter(1.0, 0.0)])).tolist()
    assert res.value == _expectile(X, s_up / (s_up + s_down))
    rho = res.value
    slopes = [s_up if v > rho else s_down for v in X.values]
    mean = math.fsum(p * s for p, s in zip(X.space.probs, slopes))
    Q = MeasureChange(X.space, tuple(s / mean for s in slopes))
    assert beta_conjugate(phi, Q) == pytest.approx(1.0, abs=1e-12)
    q_mean = math.fsum(p * d * v for p, d, v in zip(X.space.probs, Q.density, X.values))
    assert q_mean == pytest.approx(rho, rel=1e-12, abs=0.0)
    k = rho - res.minimizer_x
    assert _g(phi, X, res.minimizer_x) == pytest.approx(rho, abs=1e-10 * k)
    assert _g(phi, X, res.minimizer_x - 50.0) == pytest.approx(rho, abs=1e-10 * (k + 50.0))


def test_nonconvex_pwl_sweeps_right_of_its_tail():
    # g = e left of x_L, so the window starts there and rho <= e
    X = rv((0.4, 1.3, 4.15), (0.5, 0.3, 0.2))
    e = _expectile(X, 2.0 / (2.0 + 0.4))  # s+ = 2, s- = 0.4
    res = hg_risk_measure(NONCONVEX_PWL, X)
    assert res.route == "window"
    x_left = res.profile[0][0]
    assert x_left == pytest.approx(e - max((4.15 - e) / 1.0, (e - 0.4) / 0.5), rel=1e-12, abs=0.0)
    assert res.value <= e
    for x in (x_left, x_left - 1.0, x_left - 50.0):
        assert _g(NONCONVEX_PWL, X, x) == pytest.approx(e, abs=1e-10 * (e - x))  # premium tol
    assert res.value <= min(gv for _, gv in res.profile)


class _Bare(Power):
    # a family that states no cash behaviour, limit or knots
    cash_behavior = None
    hg_limit = None


@pytest.mark.parametrize(
    "phi",
    [
        PiecewiseLinear([(0.0, 0.5), (1.0, 1.0), (1.0, 1.5), (3.0, 2.0)]),  # jumps at 1
        PiecewiseLinear([(0.0, 0.0), (1.0, 1.0)], upper=1.0),  # ends at 1
        _Bare(2.0),
    ],
    ids=["jump-at-1", "upper-1", "no-facts"],
)
def test_phi_without_a_route_raises(phi):
    with pytest.raises(OrliczError, match="no HG route"):
        hg_risk_measure(phi, rv((0.4, 1.3, 4.15)))


def test_tail_with_a_flat_piece_below_one_is_the_maximum():
    # s- = 0 gives tau = 1: the expectile is max X, and g is flat at it
    phi = PiecewiseLinear([(0.0, 1.0), (1.0, 1.0), (2.0, 3.0)])
    X = rv((0.4, 1.3, 4.15), (0.5, 0.3, 0.2))
    res = hg_risk_measure(phi, X)
    assert (res.route, res.value, res.evaluations) == ("tail", 4.15, 0)
    assert res.minimizer_x == pytest.approx(0.4, abs=1e-12)  # d- = 1: x_L = max X - spread
    assert _g(phi, X, res.minimizer_x) == pytest.approx(4.15, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("m", [0.25, 1.0])
@pytest.mark.parametrize(
    "phi",
    [Power(1.0), Power(2.0), Expectile(0.8), GeometricMean()],
    ids=lambda p: p.spec_string(),
)
def test_cash_additivity(phi, m):
    X = rv((0.5, 1.0, 2.5))
    Xm = rv(tuple(v + m for v in X.values))
    base = hg_risk_measure(phi, X).value
    shifted = hg_risk_measure(phi, Xm).value
    assert shifted - base == pytest.approx(m, abs=1e-7)


@pytest.mark.parametrize(
    "X",
    [rv((0.4, 1.1, 2.5, 3.0), (0.1, 0.4, 0.3, 0.2)), rv((0.0, 0.7, 0.7, 4.0))],
    ids=["weighted", "zero_atom"],
)
@pytest.mark.parametrize("phi", CASH_ADDITIVE, ids=lambda p: p.spec_string())
def test_cash_additive_route_is_one_premium(phi, X):
    lo = min(X.values)
    res = hg_risk_measure(phi, X)
    assert res.route == "cash_additive"
    assert res.value == _g(phi, X, lo)
    assert res.minimizer_x == lo
    assert res.evaluations == 1
    assert res.extensions == 0
    assert not res.floor_active
    assert res.profile == ((lo, res.value),)
    # no point of g, at the atoms or left of min X, undercuts the value
    grid = set(X.values) | set(np.linspace(lo - 4.0, max(X.values), 121).tolist())
    tol = 1e-9 * max(1.0, abs(res.value))
    for x in sorted(grid):
        assert _g(phi, X, x) >= res.value - tol, x


@pytest.mark.parametrize(
    "phi, route",
    [
        (Expectile(0.8), "cash_additive"),
        (LpqQuantile(2.0, 0.0, 1.0, 2.0), "cash_additive"),
        (GeometricMean(), "neg_inf_at_zero"),
        (Power(2.0), "limit"),
        (Power(0.5), "atoms"),
        (LpqQuantile(1.5, 0.5, 1.0, 2.0), "window"),
        (CONVEX_PWL, "tail"),
        (NONCONVEX_PWL, "window"),
    ],
    ids=lambda v: v if isinstance(v, str) else v.spec_string(),
)
def test_evaluations_count_premium_calls(monkeypatch, phi, route):
    calls = 0
    premium = hg.orlicz_premium

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return premium(*args, **kwargs)

    monkeypatch.setattr(hg, "orlicz_premium", counting)
    res = hg_risk_measure(phi, rv((0.2, 1.4, 3.1)))
    assert res.route == route
    assert res.evaluations == calls
    if route == "tail":
        assert calls == 0


@pytest.mark.parametrize(
    "phi, route",
    [
        (Expectile(0.8), "cash_additive"),
        (Power(0.5), "atoms"),
        (LpqQuantile(1.5, 0.5, 1.0, 2.0), "window"),
    ],
    ids=lambda v: v if isinstance(v, str) else v.spec_string(),
)
def test_window_polish_alone_runs_on_a_power_of_two_scale(monkeypatch, phi, route):
    # every premium closes to adjacent floats, and the window route's one
    # golden_min runs on t = x / s with s = 2^-9 for max X = 3.1 in [2, 4),
    # between the sweep points either side of the best one, so WINDOW_TOL
    # is a width in units of s, whatever the scale of X
    calls, polishes = [], []
    premium, polish = hg.orlicz_premium, hg.golden_min

    def recording(*args, **kwargs):
        calls.append(kwargs)
        return premium(*args, **kwargs)

    def polishing(f, lo, hi, tol):
        polishes.append((lo, hi, tol))
        return polish(f, lo, hi, tol=tol)

    monkeypatch.setattr(hg, "orlicz_premium", recording)
    monkeypatch.setattr(hg, "golden_min", polishing)
    res = hg_risk_measure(phi, rv((0.2, 1.4, 3.1)))
    assert res.route == route
    assert calls and all(kwargs == {} for kwargs in calls)
    if route != "window":
        assert polishes == []
        return
    ((lo, hi, tol),) = polishes
    xs = [x for x, _ in res.profile]
    i = xs.index(min(res.profile, key=lambda pt: pt[1])[0])
    bracket = xs[max(i - 1, 0)], xs[min(i + 1, COARSE_POINTS - 1)]
    assert (lo, hi, tol) == (bracket[0] * 512.0, bracket[1] * 512.0, WINDOW_TOL)


# a random X per seed, n = 3-8; scaled by s, rho must scale with it
def _random_x(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    return rng.lognormal(0.0, 1.0, n).tolist(), rng.dirichlet(np.ones(n)).tolist()


@pytest.mark.parametrize("phi", [LpqQuantile(1.5, 0.5, 1.0, 2.0), NONCONVEX_PWL], ids=lambda v: v.spec_string())
def test_window_is_positively_homogeneous(phi):
    # a polish that stops at a width absolute below scale 1 missed 2.3e-6
    # relative at s = 1e-6; on t = x / s every power of two scales exactly
    for seed in range(12):
        vals, probs = _random_x(seed)
        rho = hg_risk_measure(phi, rv(vals, probs))
        assert rho.route == "window"
        for j in (-30, -20, 20, 30):
            s = math.ldexp(1.0, j)
            assert hg_risk_measure(phi, rv([s * v for v in vals], probs)).value == s * rho.value
        for s in (1e-6, 1e-3, 1e3, 1e6):
            scaled = hg_risk_measure(phi, rv([s * v for v in vals], probs)).value / s
            assert scaled == pytest.approx(rho.value, rel=1e-12, abs=0.0), (seed, s)


@pytest.mark.parametrize("phi", [LpqQuantile(1.5, 0.5, 1.0, 2.0), NONCONVEX_PWL], ids=lambda v: v.spec_string())
def test_window_computes_no_premium_twice(monkeypatch, phi):
    # the polish starts from the sweep points either side of the best one,
    # whose premiums the sweep already computed
    excesses = []
    premium = hg.orlicz_premium

    def recording(phi, X, **kwargs):
        excesses.append(X.values)
        return premium(phi, X, **kwargs)

    monkeypatch.setattr(hg, "orlicz_premium", recording)
    res = hg_risk_measure(phi, rv((0.2, 1.4, 3.1)))
    assert res.route == "window"
    assert len(set(excesses)) == len(excesses) == res.evaluations


def test_profile_diagnostics():
    res = hg_risk_measure(NONCONVEX_PWL, rv((0.2, 1.4, 3.1)))
    assert res.route == "window"
    assert len(res.profile) == COARSE_POINTS
    xs = [x for x, _ in res.profile]
    assert xs == sorted(xs)
    assert res.evaluations >= COARSE_POINTS
    # polishing can only improve on the coarse sweep
    assert res.value <= min(gv for _, gv in res.profile) + 1e-12


def test_power_above_one_is_the_unattained_mean():
    X = rv((0.4, 1.1, 2.5, 3.0), (0.1, 0.4, 0.3, 0.2))
    res = hg_risk_measure(Power(2.0), X)
    assert res.value == math.fsum(p * x for p, x in zip(X.space.probs, X.values))
    assert not res.attained
    assert res.minimizer_x == -math.inf
    assert res.route == "limit"
    assert (res.evaluations, res.profile, res.extensions, res.floor_active) == (0, (), 0, False)
    # g comes down to the mean from above
    assert res.value < _g(Power(2.0), X, -1e4) <= res.value + 1e-3


@pytest.mark.parametrize("phi", [GeometricMean(), GeometricExpectile(2.0, 1.0)], ids=str)
def test_neg_inf_at_zero_is_min_x_from_one_premium(monkeypatch, phi):
    calls = 0
    premium = hg.orlicz_premium

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return premium(*args, **kwargs)

    monkeypatch.setattr(hg, "orlicz_premium", counting)
    X = rv((1.7, 0.35, 2.9), (0.5, 0.2, 0.3))
    res = hg_risk_measure(phi, X)
    assert res.value == 0.35
    assert res.minimizer_x == 0.35
    assert res.attained
    assert calls <= 1


def test_lpq_gain_power_above_loss_power_falls_to_min_x():
    # regression: the left-extending sweep stopped at its floor with 0.5343
    phi = LpqQuantile(1.5, 0.5, 2.0, 1.0)
    X = rv((0.4, 1.3, 4.15))
    res = hg_risk_measure(phi, X)
    assert res.value == 0.4
    assert not res.attained
    assert res.route == "limit"
    assert 0.4 < _g(phi, X, -1e6) <= 0.4 + 1e-3


@pytest.mark.parametrize("p", [0.3, 0.5, 0.8])
def test_power_below_one_no_grid_point_undercuts_the_atoms(p):
    phi = Power(p)
    rng = np.random.default_rng(int(10 * p))
    for _ in range(6):
        n = int(rng.integers(2, 6))
        X = rv(np.round(rng.uniform(0.1, 5.0, n), 3).tolist(), rng.dirichlet(np.ones(n)).tolist())
        res = hg_risk_measure(phi, X)
        assert res.route == "atoms"
        assert res.evaluations <= n
        lo, hi = min(X.values), max(X.values)
        grid = np.linspace(lo - (hi - lo) - 1.0, hi, 240).tolist()
        tol = 1e-12 * max(1.0, res.value)
        for x in grid:
            assert _g(phi, X, x) >= res.value - tol, (X, x)


def test_concave_premium_with_many_atoms_stays_on_the_atoms():
    # one premium per atom costs O(n) each: past COARSE_POINTS distinct
    # values the route samples atoms by rank and evaluates only the atoms
    # that a lower bound cannot rule out
    phi = Power(0.5)
    rng = np.random.default_rng(4)
    few = rv(rng.lognormal(0.0, 1.0, COARSE_POINTS).tolist())
    assert hg_risk_measure(phi, few).route == "atoms"
    n = 10**4
    X = rv(rng.lognormal(0.0, 1.0, n).tolist())
    res = hg_risk_measure(phi, X)
    assert res.route == "atoms"
    assert (res.extensions, res.floor_active, res.attained) == (0, False, True)
    assert res.evaluations < n // 10
    assert len(res.profile) == res.evaluations
    xs = [x for x, _ in res.profile]
    assert xs == sorted(xs)
    assert (xs[0], xs[-1]) == (min(X.values), max(X.values))
    atoms = np.sort(X.values_array())
    for x in atoms[:: n // 40].tolist():
        assert res.value <= _g(phi, X, x) + 1e-12 * res.value


def _two_clusters(rng):
    return np.abs(np.concatenate([rng.normal(2.0, 0.5, 300), rng.normal(6.0, 0.05, 300)]))


def _least_g_over_atoms(X, p):
    vals, probs = X.values_array(), X.space.probs_array()
    return min(
        float(x + (probs @ np.maximum(vals - x, 0.0) ** p) ** (1.0 / p)) for x in np.unique(vals)
    )


@pytest.mark.parametrize(
    "p, values",
    [
        # the polish that stepped over atoms missed this minimum by 2.77e-6
        (0.5, np.random.default_rng(6).lognormal(0.0, 1.0, 3000)),
        # two clusters: the least atom is not next to the best of the
        # rank sample, which misses it by 1.9e-4
        (0.3, _two_clusters(np.random.default_rng(13))),
    ],
    ids=["lognormal-3000", "two-clusters-600"],
)
def test_concave_premium_past_the_sample_finds_the_least_atom(p, values):
    X = rv(values.tolist())
    res = hg_risk_measure(Power(p), X)
    assert res.route == "atoms"
    assert res.value == pytest.approx(_least_g_over_atoms(X, p), rel=1e-13, abs=0.0)


def test_lpq_loss_power_above_gain_power_searches_only_the_window():
    # superadditive: g(x) >= g(min X) left of min X, so no left extension
    phi = LpqQuantile(1.5, 0.5, 1.0, 2.0)
    X = rv((0.4, 1.3, 4.15))
    res = hg_risk_measure(phi, X)
    assert res.route == "window"
    assert (res.extensions, res.floor_active, res.attained) == (0, False, True)
    assert 0.4 <= res.minimizer_x <= 4.15
    assert min(x for x, _ in res.profile) == 0.4
    assert res.value <= _g(phi, X, 0.4)


@pytest.mark.parametrize(
    "phi",
    [
        GeometricMean(),
        Power(0.5),
        Power(1.0),
        Power(2.0),
        QuantileStep(0.4),
        Expectile(0.8),
        LpQuantile(0.7, 1.5),
        LpqQuantile(1.5, 0.5, 2.0, 1.0),
        LpqQuantile(1.5, 0.5, 1.0, 2.0),
        GeometricExpectile(2.0, 1.0),
        CONVEX_PWL,
    ],
    ids=lambda p: p.spec_string(),
)
def test_constant_x_is_the_constant(phi):
    res = hg_risk_measure(phi, rv((1.7, 1.7, 1.7), (0.2, 0.3, 0.5)))
    assert res.value == 1.7
    assert (res.minimizer_x, res.attained, res.route) == (1.7, True, "constant")
    assert res.evaluations == 1


def test_gg_counterexample_report():
    rep = gg_counterexample_check()
    assert rep.rho_x == pytest.approx(0.5, abs=1e-6)
    assert rep.rho_y == pytest.approx(0.5, abs=1e-6)
    assert rep.rho_gmean == pytest.approx(1.0, abs=1e-9)
    assert rep.geometric_bound == pytest.approx(0.5, abs=1e-6)
    assert rep.rho_gmean > rep.geometric_bound + rep.tol
    assert rep.passed
    assert math.isfinite(rep.geometric_bound)


def test_window_polish_reaches_a_kink_at_an_atom():
    # g kinks at every atom, and here its minimum sits on the atom 0.3431.
    # A parabolic vertex next to a bracket end, taken a least step (tol / 3)
    # off the best point, once left that comparison to the premium's
    # rounding, which cut the atom off the bracket: 1.2e-7 relative too high
    X = rv((0.3431, 0.2535, 3.7834999999999996, 2.0197, 0.5805, 0.7506, 0.4116))
    res = hg_risk_measure(NONCONVEX_PWL, X)
    assert res.route == "window"
    assert res.value <= _g(NONCONVEX_PWL, X, 0.3431) * (1.0 + 1e-10)

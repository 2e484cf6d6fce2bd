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
    PiecewiseLinear,
    Power,
    QuantileStep,
    RandomVariable,
    gg_counterexample_check,
    hg_risk_measure,
    orlicz_premium,
    rv,
)
from orlicz.hg import COARSE_POINTS

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


def test_floor_is_flagged_when_the_infimum_lies_past_it():
    # a convex pwl with slope 2 on [0.999, 1.001] only: Phi(t) >= 1 + 2(t - 1)
    # gives g >= E[X] = 2, and g reaches 2 only from about x = -1000 on, far
    # past the sweep's floor at min X - 64 (spread + 1) - 1 = -192
    phi = PiecewiseLinear([(0.999, 0.998), (1.001, 1.002), (2.0, 4.998)])
    X = rv((1.0, 3.0))
    res = hg_risk_measure(phi, X)
    assert res.route == "grid"
    assert res.attained
    assert res.floor_active
    assert res.extensions >= 1
    assert res.minimizer_x == -192.0
    assert res.value == _g(phi, X, res.minimizer_x)
    assert res.value > 2.0 + 0.5  # the clamped window leaves a real gap
    assert _g(phi, X, -1200.0) == pytest.approx(2.0, abs=1e-6)  # premium tol at k ~ 1200


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
        (CONVEX_PWL, "grid"),
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


def test_profile_diagnostics():
    res = hg_risk_measure(CONVEX_PWL, rv((0.2, 1.4, 3.1)))
    assert res.route == "grid"
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


def test_concave_premium_with_many_atoms_sweeps_the_window():
    # one premium per atom costs O(n) each: past COARSE_POINTS distinct
    # values the window sweep, whose count does not grow with n, is cheaper
    phi = Power(0.5)
    rng = np.random.default_rng(4)
    few = rv(rng.lognormal(0.0, 1.0, COARSE_POINTS).tolist())
    assert hg_risk_measure(phi, few).route == "atoms"
    n = 10**4
    X = rv(rng.lognormal(0.0, 1.0, n).tolist())
    res = hg_risk_measure(phi, X)
    assert res.route == "window"
    assert (res.extensions, res.floor_active, res.attained) == (0, False, True)
    assert res.evaluations < n // 10
    atoms = np.sort(X.values_array())
    for x in atoms[:: n // 40].tolist():
        assert res.value <= _g(phi, X, x) + 1e-12 * res.value


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

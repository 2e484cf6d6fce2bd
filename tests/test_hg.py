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


def test_power_two_infimum_is_mean_and_floor_is_flagged():
    # for p > 1 the objective decreases toward E[X] without attaining it;
    # the solver must stop at its hard floor, report that, and still land
    # within the floor's resolution of the true infimum
    X = rv((1.0, 3.0))
    res = hg_risk_measure(Power(2.0), X)
    mean = 2.0
    assert res.floor_active
    assert res.extensions >= 1
    assert res.value >= mean  # premium dominates the mean, so g(x) >= E[X]
    assert res.value <= mean + 0.01


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
        (Power(2.0), "grid"),
        (Power(0.5), "grid"),
        (GeometricMean(), "grid"),
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
    res = hg_risk_measure(Power(0.5), rv((0.2, 1.4, 3.1)))
    assert len(res.profile) == COARSE_POINTS
    xs = [x for x, _ in res.profile]
    assert xs == sorted(xs)
    assert res.evaluations >= COARSE_POINTS
    # polishing can only improve on the coarse sweep
    assert res.value <= min(gv for _, gv in res.profile) + 1e-12


def test_gg_counterexample_report():
    rep = gg_counterexample_check()
    assert rep.rho_x == pytest.approx(0.5, abs=1e-6)
    assert rep.rho_y == pytest.approx(0.5, abs=1e-6)
    assert rep.rho_gmean == pytest.approx(1.0, abs=1e-9)
    assert rep.geometric_bound == pytest.approx(0.5, abs=1e-6)
    assert rep.rho_gmean > rep.geometric_bound + rep.tol
    assert rep.passed
    assert math.isfinite(rep.geometric_bound)

"""Dual engine: penalties, certificates, entropy bridge, HG restriction."""

import dataclasses
import gc
import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

import orlicz.duality as duality
from orlicz.base import INF, DimensionError, DomainError, NotConvexError, NotGAConvexError
from orlicz.duality import (
    alpha_bridge_report,
    alpha_from_beta,
    alpha_penalty,
    beta_conjugate,
    beta_on_grid,
    beta_primal,
    dual_search,
    hg_dual_check,
    relative_entropy,
    simplex_grid,
)
from orlicz.functions import (
    Expectile,
    GeometricExpectile,
    GeometricMean,
    LpQuantile,
    LpqQuantile,
    PiecewiseLinear,
    Power,
    QuantileStep,
    conjugate,
)
from orlicz.premium import orlicz_premium
from orlicz.prob import FiniteProbabilitySpace, MeasureChange, rv

UNIFORM2 = FiniteProbabilitySpace((0.5, 0.5))
P2 = MeasureChange(UNIFORM2, (1.0, 1.0))

CONVEX_BATTERY = [
    Power(1.0),
    Power(2.0),
    Power(3.0),
    Expectile(0.6),
    Expectile(0.8),
    LpQuantile(0.7, 1.0),
    LpqQuantile(1.5, 0.5, 1.0, 1.0),
    LpqQuantile(2.0, 0.0, 2.0, 1.0),
]


def _searched(phi):
    """phi in a test-side subclass that states neither first_order_point nor
    log_slopes, so the penalties run the seeded grid-and-Brent Lagrangian
    search on it."""
    cls = type(
        f"Searched{type(phi).__name__}",
        (type(phi),),
        {"first_order_point": None, "log_slopes": None},
    )
    if isinstance(phi, PiecewiseLinear):
        return cls(phi.points, value_at_zero=phi.at_zero, upper=phi.upper)
    return cls(*(getattr(phi, f.name) for f in dataclasses.fields(phi)))


def _random_measure(rng, space):
    probs = space.probs_array()
    q = rng.dirichlet(np.ones(space.n))
    q = q / np.sum(q * 0 + q)  # keep exact float simplex weights
    dens = tuple(float(qi / pi) for qi, pi in zip(q, probs))
    # renormalize the density so the unit-mean check passes exactly enough
    total = float(np.dot(probs, dens))
    dens = tuple(d / total for d in dens)
    return MeasureChange(space, dens)


def test_beta_power_closed_form():
    Q = MeasureChange(UNIFORM2, (0.6, 1.4))
    want = 1.0 / math.sqrt(0.5 * 0.36 + 0.5 * 1.96)
    assert beta_conjugate(Power(2.0), Q) == pytest.approx(want, rel=1e-12, abs=0.0)
    assert beta_conjugate(Power(1.0), Q) == pytest.approx(1.0 / 1.4, rel=1e-12, abs=0.0)


def test_beta_at_reference_measure_is_one():
    for phi in CONVEX_BATTERY:
        assert beta_conjugate(phi, P2) == pytest.approx(1.0, abs=1e-12)
        assert beta_primal(phi, P2) == pytest.approx(1.0, abs=1e-6)


def test_beta_requires_convexity():
    with pytest.raises(NotConvexError):
        beta_conjugate(QuantileStep(0.3), P2)
    with pytest.raises(NotConvexError):
        beta_primal(GeometricMean(), P2)


def test_expectile_beta_is_one_inside_slope_band():
    # beta(Q) = 1 exactly when max density / min density <= alpha/(1-alpha)
    phi = Expectile(0.8)
    inside = MeasureChange(UNIFORM2, (0.5, 1.5))  # ratio 3 < 4
    boundary = MeasureChange(UNIFORM2, (0.4, 1.6))  # ratio exactly 4
    outside = MeasureChange(UNIFORM2, (0.2, 1.8))  # ratio 9 > 4
    assert beta_conjugate(phi, inside) == pytest.approx(1.0, abs=1e-12)
    assert beta_conjugate(phi, boundary) == pytest.approx(1.0, abs=1e-12)
    assert beta_conjugate(phi, outside) < 1.0 - 1e-6


def test_all_or_nothing_family_has_unit_beta_everywhere():
    # slope 1 above, 0 below: the conjugate objective is identically 1
    phi = LpqQuantile(1.0, 0.0, 1.0, 1.0)
    for dens in [(1.0, 1.0), (0.2, 1.8), (1.99, 0.01)]:
        assert beta_conjugate(phi, MeasureChange(UNIFORM2, dens)) == pytest.approx(1.0, abs=1e-12)


def test_beta_routes_agree_on_random_instances():
    rng = np.random.default_rng(29)
    for i in range(60):
        n = int(rng.integers(2, 5))
        space = FiniteProbabilitySpace(tuple(float(p) for p in rng.dirichlet(np.ones(n))))
        Q = _random_measure(rng, space)
        phi = CONVEX_BATTERY[i % len(CONVEX_BATTERY)]
        b1 = beta_conjugate(phi, Q)
        b2 = beta_primal(phi, Q)
        assert abs(b1 - b2) <= 1e-4, (phi.spec_string(), Q.density, b1, b2)


def test_beta_of_identity_pwl_is_one_over_max_density():
    # identity-like pwl should behave like Power(1): beta = 1/max density
    phi = PiecewiseLinear([(0.0, 0.0), (1.0, 1.0), (3.0, 3.0)])
    Q = MeasureChange(UNIFORM2, (0.5, 1.5))
    assert beta_conjugate(phi, Q) == 1.0 / 1.5


@pytest.mark.parametrize(
    "phi",
    [
        PiecewiseLinear([(0.5, 0.25), (1.0, 1.0), (2.0, 3.0), (4.0, 9.0)]),
        PiecewiseLinear([(0.0, 0.2), (1.0, 1.0), (2.0, 3.0)]),
        PiecewiseLinear([(0.0, 0.0), (1.0, 1.0), (2.0, 3.0)], upper=5.0),
        PiecewiseLinear([(0.5, 0.2), (1.0, 1.0), (2.0, 4.0)], upper=2.0),
    ],
    ids=lambda phi: phi.spec_string(),
)
def test_pwl_beta_breakpoint_minimum_meets_the_lagrangian(phi):
    # the exact breakpoint minimum against the separable Lagrangian route,
    # and against the conjugate objective on a dense lambda grid it must not exceed
    rng = np.random.default_rng(31)
    lams = np.geomspace(1e-3, 1e3, 241).tolist()
    for n in (2, 3, 5, 8):
        for _ in range(3):
            probs = rng.dirichlet(np.ones(n))
            dens = rng.uniform(0.0, 4.0, n)
            Q = MeasureChange(FiniteProbabilitySpace(tuple(probs)), tuple(dens / (probs @ dens)))
            b = beta_conjugate(phi, Q)
            assert b == pytest.approx(beta_primal(phi, Q), rel=1e-10, abs=1e-10), Q.density
            w = np.asarray(Q.density)
            for lam in lams:
                psi = [conjugate(phi, lam * wi) for wi in w.tolist()]
                if INF not in psi:
                    assert 1.0 / b <= (1.0 + float(probs @ np.array(psi))) / lam + 1e-12, lam


KNOTTED_BATTERY = [phi for phi in CONVEX_BATTERY if phi.points] + [
    LpqQuantile(2.0, 0.0, 1.0, 2.0),
    PiecewiseLinear([(0.5, 0.25), (1.0, 1.0), (2.0, 3.0), (4.0, 9.0)]),
    PiecewiseLinear([(0.0, 0.0), (1.0, 1.0), (2.0, 3.0)], upper=5.0),
]


@pytest.mark.parametrize("phi", KNOTTED_BATTERY, ids=lambda phi: phi.spec_string())
def test_kinked_beta_primal_polishes_next_to_its_best_seed(monkeypatch, phi):
    # each inner sup of a piecewise-linear Phi sits at 0, a knot or upper,
    # so D(lam) is exact at every kink seed and its least seed value is the
    # answer: no lambda polish runs, and the value meets the conjugate
    # route to rounding; Phi == 1 on [0, 1] gives beta = 1 exactly
    widths = []
    polish = duality.golden_min

    def spy(f, lo, hi, tol):
        widths.append(hi - lo)
        return polish(f, lo, hi, tol=tol)

    monkeypatch.setattr(duality, "golden_min", spy)
    rng = np.random.default_rng(41)
    for n in (2, 3, 5, 8):
        for _ in range(4):
            probs = rng.dirichlet(np.ones(n))
            dens = rng.uniform(0.0, 4.0, n)
            Q = MeasureChange(FiniteProbabilitySpace(tuple(probs)), tuple(dens / (probs @ dens)))
            b_primal, b_conj = beta_primal(phi, Q), beta_conjugate(phi, Q)
            assert b_conj * (1.0 - 1e-14) <= b_primal <= b_conj + 1e-14, (Q.density, b_primal, b_conj)
            if phi.at_zero == 1.0:
                assert b_primal == 1.0
    assert widths == []


@pytest.mark.parametrize(
    "phi",
    [
        Expectile(0.8),
        Power(2.0),
        PiecewiseLinear([(0.5, 0.25), (1.0, 1.0), (2.0, 3.0), (4.0, 9.0)]),
        pytest.param(_searched(Power(2.0)), id="searched-power:2.0"),
    ],
    ids=lambda phi: phi.spec_string(),
)
def test_beta_primal_work_does_not_depend_on_atom_order(monkeypatch, phi):
    # a multiplier too small for the largest density is rejected before any
    # inner problem is solved, wherever that density sits
    solves = 0
    inner_max = duality.golden_max

    def counting(*args, **kwargs):
        nonlocal solves
        solves += 1
        return inner_max(*args, **kwargs)

    monkeypatch.setattr(duality, "golden_max", counting)
    probs, dens = (0.3, 0.3, 0.2, 0.2), (0.5, 0.6, 0.8, 2.55)
    counts, values = [], []
    for order in ((0, 1, 2, 3), (3, 2, 1, 0)):
        Q = MeasureChange(
            FiniteProbabilitySpace(tuple(probs[i] for i in order)), tuple(dens[i] for i in order)
        )
        solves = 0
        values.append(beta_primal(phi, Q))
        counts.append(solves)
    assert counts[0] == counts[1]
    assert values[0] == pytest.approx(values[1], rel=1e-12, abs=0.0)


def _solve_every_seed(monkeypatch):
    seeded_min = duality._seeded_min

    def every_seed(f, lams, tol, floors=None):
        return seeded_min(f, lams, tol)

    monkeypatch.setattr(duality, "_seeded_min", every_seed)


FLOOR_BATTERY = CONVEX_BATTERY + [
    Power(0.5),
    Power(1.5),
    GeometricMean(),
    GeometricExpectile(2.0, 1.0),
    LpqQuantile(2.0, 0.0, 1.0, 2.0),
    PiecewiseLinear([(0.5, 0.25), (1.0, 1.0), (2.0, 3.0), (4.0, 9.0)]),
    PiecewiseLinear([(0.0, 0.0), (1.0, 1.0), (2.0, 3.0)], upper=5.0),
    PiecewiseLinear([(0.5, 0.2), (1.0, 1.0), (2.0, 4.0)], upper=2.0),
    PiecewiseLinear([(0.0, 0.2), (1.0, 1.0), (2.0, 3.0)]),
]


SEARCHED_FLOOR_ROWS = [
    (beta_primal, _searched(Power(1.5))),
    (beta_primal, _searched(Power(2.0))),
    (beta_primal, _searched(Power(3.0))),
    (alpha_penalty, _searched(Power(0.5))),
    (alpha_penalty, _searched(Power(2.0))),
    (alpha_penalty, _searched(Expectile(0.8))),
    (alpha_penalty, _searched(LpqQuantile(1.5, 0.5, 1.0, 1.0))),
    # gm and gexpectile take the indicator, pwl the multiplier root
    (alpha_penalty, _searched(GeometricMean())),
    (alpha_penalty, _searched(GeometricExpectile(2.0, 1.0))),
] + [(alpha_penalty, _searched(phi)) for phi in FLOOR_BATTERY if type(phi) is PiecewiseLinear]


def test_penalty_floors_change_no_value(monkeypatch):
    # the grid floors only skip seeds that cannot win: every penalty is the
    # float that solving every seed gives
    rng = np.random.default_rng(47)
    cases = []
    for i in range(200):
        n = int(rng.integers(2, 9))
        probs = rng.dirichlet(np.ones(n))
        dens = rng.uniform(0.0, 4.0, n)
        if i % 3 == 0:
            dens[rng.integers(0, n)] = 0.0
        Q = MeasureChange(FiniteProbabilitySpace(tuple(probs)), tuple(dens / (probs @ dens)))
        cycle, k = divmod(i, len(FLOOR_BATTERY))
        phi = FLOOR_BATTERY[k]
        # a family with both flags alternates between the two penalties
        arith = phi.convex_flag and not (phi.ga_convex_flag and cycle % 2)
        cases.append((beta_primal if arith else alpha_penalty, phi, Q))
    # the first-order route solves no seed for Power, the p = q = 1
    # two-branch losses and pwl, nor the indicator for gm and gexpectile, so
    # their searched twins keep the floors exercised
    for penalty, phi in SEARCHED_FLOOR_ROWS:
        for _ in range(10):
            n = int(rng.integers(2, 9))
            probs = rng.dirichlet(np.ones(n))
            dens = rng.uniform(0.0, 4.0, n)
            if len(cases) % 3 == 0:
                dens[rng.integers(0, n)] = 0.0
            Q = MeasureChange(FiniteProbabilitySpace(tuple(probs)), tuple(dens / (probs @ dens)))
            cases.append((penalty, phi, Q))
    with_floors = [penalty(phi, Q) for penalty, phi, Q in cases]
    _solve_every_seed(monkeypatch)
    for (penalty, phi, Q), got in zip(cases, with_floors):
        assert got == penalty(phi, Q), (penalty.__name__, phi.spec_string(), Q.density)


def test_beta_primal_floors_skip_a_third_of_the_inner_solves(monkeypatch):
    _assert_floors_skip_a_third(monkeypatch, Power(2.0))


def test_searched_beta_primal_floors_skip_a_third_of_the_inner_solves(monkeypatch):
    # Power(2) takes the first-order route and solves no seed (0 <= 0 above)
    _assert_floors_skip_a_third(monkeypatch, _searched(Power(2.0)))


def _assert_floors_skip_a_third(monkeypatch, phi):
    solves = 0
    inner_max = duality.golden_max

    def counting(*args, **kwargs):
        nonlocal solves
        solves += 1
        return inner_max(*args, **kwargs)

    monkeypatch.setattr(duality, "golden_max", counting)
    Q = MeasureChange(FiniteProbabilitySpace((0.3, 0.3, 0.2, 0.2)), (0.5, 0.6, 0.8, 2.55))
    counts, values = [], []
    for every_seed in (False, True):
        if every_seed:
            _solve_every_seed(monkeypatch)
        solves = 0
        values.append(beta_primal(phi, Q))
        counts.append(solves)
    assert values[0] == values[1]
    assert counts[0] <= counts[1] * 2 / 3, counts


def _count_inner_searches(monkeypatch):
    calls = []
    inner_max = duality.golden_max

    def counting(*args, **kwargs):
        calls.append(1)
        return inner_max(*args, **kwargs)

    monkeypatch.setattr(duality, "golden_max", counting)
    return calls


def test_beta_primal_power_work_is_bounded(monkeypatch):
    # the first-order route solves no inner problem at all
    assert _beta_primal_power_work(monkeypatch, Power(2.0)) == 0


def test_searched_beta_primal_power_work_is_bounded(monkeypatch):
    _beta_primal_power_work(monkeypatch, _searched(Power(2.0)))


def _beta_primal_power_work(monkeypatch, phi):
    # golden section to 1e-11 made 236 inner solves here, 232 of them in the
    # lambda polish; Brent's search stops once the Lagrangian is flat
    calls = _count_inner_searches(monkeypatch)
    Q = MeasureChange(FiniteProbabilitySpace((0.3, 0.3, 0.2, 0.2)), (0.5, 0.6, 0.8, 2.55))
    beta = beta_primal(phi, Q)
    assert len(calls) <= 80
    assert beta == pytest.approx(beta_conjugate(Power(2.0), Q), rel=1e-15, abs=0.0)
    return len(calls)


@pytest.mark.parametrize("phi", KNOTTED_BATTERY, ids=lambda phi: phi.spec_string())
def test_knotted_beta_primal_solves_no_inner_problem(monkeypatch, phi):
    # each inner sup sits at 0, a knot or upper, and is read off there
    calls = _count_inner_searches(monkeypatch)
    rng = np.random.default_rng(59)
    for n in (2, 5):
        probs = rng.dirichlet(np.ones(n))
        dens = rng.uniform(0.0, 4.0, n)
        Q = MeasureChange(FiniteProbabilitySpace(tuple(probs)), tuple(dens / (probs @ dens)))
        beta_primal(phi, Q)
    assert calls == []


@pytest.mark.parametrize("probs, dens", [((0.04, 0.96), (25.0, 0.0)), ((0.1, 0.9), (10.0, 0.0))])
def test_capped_beta_primal_takes_the_zero_multiplier(probs, dens):
    # X = upper = 5 on the charged atom costs E[Phi(X)] = p * Phi(5) <= 1, so
    # sup E_Q[X] = 5 and beta = 1 / upper: D(0) = upper * E_P[dQ/dP], the
    # lam -> 0 end that no positive seed reaches
    phi = PiecewiseLinear([(0.0, 0.0), (1.0, 1.0), (2.0, 3.0)], upper=5.0)
    Q = MeasureChange(FiniteProbabilitySpace(probs), dens)
    assert beta_primal(phi, Q) == 0.2
    assert beta_conjugate(phi, Q) == 0.2


def test_beta_routes_agree_past_a_restart_row_at_upper():
    # Phi jumps at upper = 2 to a restart value no point of [0, 2] takes;
    # X = (1.5, 0) has E[Phi(X)] = 1 and E_Q[X] = 1.2, so beta = 1 / 1.2
    phi = PiecewiseLinear([(0.0, 0.0), (1.0, 1.0), (2.0, 3.0), (2.0, 1.0)], upper=2.0)
    Q = MeasureChange(FiniteProbabilitySpace((0.5, 0.5)), (1.6, 0.4))
    assert beta_primal(phi, Q) == pytest.approx(1.0 / 1.2, rel=1e-14, abs=0.0)
    assert beta_conjugate(phi, Q) == pytest.approx(1.0 / 1.2, rel=1e-14, abs=0.0)


def test_alpha_penalty_work_does_not_depend_on_rounding_in_the_densities(monkeypatch):
    # a first-order gm certificate had Q* = P only up to an ulp in each
    # density; seeds that close to lam = 1 once narrowed the lambda polish
    # to one side of it, and the polish then walked into the finite sliver
    # around lam = 1: 45 inner solves against 3 for exact densities.  gm
    # itself now takes the indicator, so its searched twin keeps the check
    solves = 0
    inner_max = duality.golden_max

    def counting(*args, **kwargs):
        nonlocal solves
        solves += 1
        return inner_max(*args, **kwargs)

    monkeypatch.setattr(duality, "golden_max", counting)
    space = FiniteProbabilitySpace((0.2, 0.3, 0.5))
    up, down = math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0)
    counts = []
    exact = []
    for dens in ((1.0, 1.0, 1.0), (up, up, up), (up, 1.0, up), (1.0, down, 1.0), (down, up, 1.0)):
        solves = 0
        alpha = alpha_penalty(_searched(GeometricMean()), MeasureChange(space, dens))
        counts.append(solves)
        assert 1.0 - 1e-13 <= alpha <= 1.0
        exact.append(alpha_penalty(GeometricMean(), MeasureChange(space, dens)))
    assert counts == [3] * len(counts)
    # the indicator: densities an ulp apart are a measure Q != P, alpha 0
    assert exact == [1.0, 1.0, 0.0, 0.0, 0.0]


@pytest.mark.parametrize(
    "phi",
    [
        LpqQuantile(2.0, 0.0, 2.0, 1.0),
        LpqQuantile(2.0, 0.0, 1.0, 2.0),
        PiecewiseLinear([(0.0, 1.0), (1.0, 1.0), (3.0, 5.0)]),
    ],
    ids=lambda phi: phi.spec_string(),
)
def test_beta_primal_is_one_when_phi_is_one_on_the_unit_interval(phi):
    # E[Phi(X)] <= 1 then means X <= 1 a.s., so sup E_Q[X] = 1 for every Q:
    # the Lagrangian only reaches it as lam -> inf
    rng = np.random.default_rng(53)
    for n in (2, 3, 5):
        space = FiniteProbabilitySpace(tuple(float(p) for p in rng.dirichlet(np.ones(n))))
        for _ in range(4):
            assert beta_primal(phi, _random_measure(rng, space)) == 1.0


def test_alpha_gm_is_entropy_indicator():
    assert alpha_penalty(GeometricMean(), P2) == pytest.approx(1.0, abs=1e-12)
    off = MeasureChange(UNIFORM2, (0.6, 1.4))
    assert alpha_penalty(GeometricMean(), off) == 0.0


def test_alpha_power_at_reference():
    assert alpha_penalty(Power(2.0), P2) == pytest.approx(1.0, abs=1e-6)


def test_alpha_requires_ga_convexity():
    with pytest.raises(NotGAConvexError):
        alpha_penalty(QuantileStep(0.3), P2)


@pytest.mark.parametrize(
    "phi",
    [
        LpqQuantile(2.0, 0.0, 2.0, 1.0),
        GeometricExpectile(2.0, 0.0),
        PiecewiseLinear([(0.0, 1.0), (1.0, 1.0), (3.0, 5.0)]),
    ],
    ids=lambda phi: phi.spec_string(),
)
def test_alpha_is_one_when_phi_is_one_on_the_unit_interval(phi):
    # E[Phi(e^Y)] <= 1 then forces Y <= 0, so sup E_Q[Y] = 0 for every Q:
    # the Lagrangian only reaches it as lam -> inf
    rng = np.random.default_rng(43)
    for n in (2, 3, 5):
        space = FiniteProbabilitySpace(tuple(float(p) for p in rng.dirichlet(np.ones(n))))
        for _ in range(4):
            assert alpha_penalty(phi, _random_measure(rng, space)) == 1.0
    # the first-order measure, P on max X, is then tight without the grid
    X = rv((0.7, 1.9, 2.6))
    cert = dual_search(phi, X, kind="geometric")
    assert cert.route == "first_order"
    assert cert.gap == 0.0


def test_penalty_values_are_pinned_to_the_bit():
    # the route cross-checks above hold only to 1e-4; these exact values
    # catch any drift in the lambda searches, grids or kink handling
    Q = MeasureChange(FiniteProbabilitySpace((0.2, 0.3, 0.5)), (2.5, 0.25, 0.85))
    pwl = PiecewiseLinear([(0.5, 0.5), (1.0, 1.0), (2.0, 3.0)])
    assert float(beta_primal(Power(2.0), Q)) == 0.7832604499879573
    assert float(beta_primal(Expectile(0.8), Q)) == 0.898876404494382
    assert float(beta_primal(pwl, Q)) == 0.8
    assert float(beta_conjugate(pwl, Q)) == 0.8
    assert alpha_penalty(GeometricMean(), Q) == 0.0
    assert alpha_penalty(Power(0.5), Q) == 0.5654092421545872
    assert alpha_penalty(Expectile(0.8), Q) == 0.9665463995862633
    # Power(1) takes the knot routes: knots (0, 0) and (1, 1), slope 1
    assert beta_conjugate(Power(1.0), Q) == 0.4
    assert float(beta_primal(Power(1.0), Q)) == 0.4
    below, above = math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)
    for y, want in [(0.0, 0.0), (0.5, 0.0), (below, 0.0), (1.0, 0.0), (above, INF), (1.5, INF)]:
        assert conjugate(Power(1.0), y) == want, y


def _oracle_measures(seed, count=300):
    # n = 2-8, one density set to 0 in every third Q
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(2, 9))
        probs = rng.dirichlet(np.ones(n))
        dens = rng.uniform(0.0, 4.0, n)
        if i % 3 == 0:
            dens[rng.integers(0, n)] = 0.0
        yield MeasureChange(FiniteProbabilitySpace(tuple(probs)), tuple(dens / (probs @ dens)))


def _power_closed_form(penalty, p, Q):
    """1 / ||w||_{p/(p-1)} for beta, exp(-KL(Q|P) / p) for alpha; w = dQ/dP."""
    probs, w = Q.space.probs_array(), np.asarray(Q.density)
    if penalty is beta_primal:
        r, top = p / (p - 1.0), float(w.max())
        return 1.0 / (top * float(probs @ (w / top) ** r) ** (1.0 / r))
    kl = math.fsum(float(pi * wi) * math.log(wi) for pi, wi in zip(probs, w) if wi > 0.0)
    return math.exp(-kl / p)


FIRST_ORDER_ORACLE = [
    (beta_primal, Power(1.5)),
    (beta_primal, Power(2.0)),
    (beta_primal, Power(3.0)),
    (alpha_penalty, Power(0.5)),
    (alpha_penalty, Power(1.0)),
    (alpha_penalty, Power(2.0)),
    (alpha_penalty, Power(3.0)),
    (alpha_penalty, Expectile(0.6)),
    (alpha_penalty, Expectile(0.8)),
    (alpha_penalty, LpqQuantile(1.5, 0.5, 1.0, 1.0)),
]


@pytest.mark.parametrize(
    "penalty,phi",
    FIRST_ORDER_ORACLE,
    ids=[f"{pen.__name__}-{phi.spec_string()}" for pen, phi in FIRST_ORDER_ORACLE],
)
def test_first_order_penalty_meets_the_searched_route_and_the_closed_form(penalty, phi):
    # the one multiplier root against the grid-and-Brent Lagrangian it
    # replaces, and against 1 / ||w||_{p'} or exp(-KL(Q|P) / p) for Power
    searched = _searched(phi)
    below = phi(math.exp(-duality.YCAP)) - phi.at_zero
    for Q in _oracle_measures(67):
        got, ref = penalty(phi, Q), penalty(searched, Q)
        assert 0.0 < got <= 1.0, (Q.density, got)
        # the searched alpha solves y >= -YCAP, so a zero-density atom costs it
        # lam * Phi(e^-YCAP) where the exact inner sup is lam * Phi(0): alpha
        # rises by lam* p_i (Phi(e^-YCAP) - Phi(0)), 1.9e-13 p_i for Power(0.5)
        # (lam* = 1/p <= 2) and below 1e-25 for every other row
        box = 2.0 * below * math.fsum(
            p for p, w in zip(Q.space.probs, Q.density) if w == 0.0
        )
        assert abs(got - ref) <= (4e-15 + box) * ref, (Q.density, got, ref)
        if type(phi) is Power:
            want = _power_closed_form(penalty, phi.p, Q)
            assert abs(got - want) <= 4e-15 * want, (Q.density, got, want)


def test_first_order_beta_reads_neither_conjugate_nor_hoelder_exponent():
    # beta_primal's root reads Phi and Phi' only, so it stays a cross-check
    # of beta_conjugate's closed form 1 / ||w||_{p'}
    class NoDual(Power):
        holder_exponent = None
        conjugate = None

    for Q in _oracle_measures(79, count=10):
        assert beta_primal(NoDual(2.5), Q) == beta_primal(Power(2.5), Q)


def _extreme_measures():
    rng = np.random.default_rng(71)
    yield MeasureChange(FiniteProbabilitySpace((0.3, 0.7)), (0.0, 1.0 / 0.7))
    # a density near 1 / min p_i, and one at it with every other density 0
    yield MeasureChange(FiniteProbabilitySpace((1e-6, 1.0 - 1e-6)), (999999.0, 1e-6 / (1.0 - 1e-6)))
    yield MeasureChange(FiniteProbabilitySpace((0.001, 0.499, 0.5)), (1000.0, 0.0, 0.0))
    for _ in range(3):
        yield next(_oracle_measures(int(rng.integers(1 << 30)), count=1))


@pytest.mark.parametrize("p", [1.0 + 1e-6, 50.0])
def test_first_order_penalties_at_extreme_exponents(p):
    # (s/p)^(1/(p-1)) overflows for Power(1 + 1e-6) at lam far from the
    # root: h reads +inf there and D is never taken at such a lam
    phi = Power(p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for Q in _extreme_measures():
            for penalty in (beta_primal, alpha_penalty):
                got, want = penalty(phi, Q), _power_closed_form(penalty, p, Q)
                assert abs(got - want) <= 4e-15 * want, (penalty.__name__, Q.density, got, want)
            # the Hölder closed form scales the densities when ||w||_r overflows
            beta = beta_conjugate(phi, Q)
            assert beta == pytest.approx(_power_closed_form(beta_primal, p, Q), rel=4e-15, abs=0.0)


@pytest.mark.parametrize("p", [0.5, 0.1])
def test_alpha_where_a_maximizer_underflows(p):
    # X* = (w / (lam p))^(1/p) is 0 in floats for w = 1e-200: the atom then
    # costs -lam Phi(0), off by w |log X*| < 1e-196, where log 0 would make
    # D -inf (the searched route's y >= -YCAP box was 9e-14 off for p = 0.5)
    Q = MeasureChange(FiniteProbabilitySpace((0.5, 0.5)), (1e-200, 2.0 - 1e-200))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = alpha_penalty(Power(p), Q)
    assert got == pytest.approx(_power_closed_form(alpha_penalty, p, Q), rel=4e-15, abs=0.0)


@pytest.mark.parametrize(
    "phi", [Expectile(0.8), Expectile(0.6), LpqQuantile(1.5, 0.5, 1.0, 1.0)], ids=repr
)
def test_zero_density_atoms_cost_phi_at_zero(phi):
    # Q charges one atom of P: each uncharged atom takes Y = -inf and costs
    # p_i Phi(0), so sup E_Q[Y] = log x with p_n Phi(x) = 1 - (1 - p_n) Phi(0),
    # x = 1 + (that level / p_n - 1) / a on the upper branch
    for probs in ((0.3, 0.7), (0.2, 0.5, 0.3), (0.01, 0.01, 0.98)):
        dens = (0.0,) * (len(probs) - 1) + (1.0 / probs[-1],)
        Q = MeasureChange(FiniteProbabilitySpace(probs), dens)
        level = (1.0 - (1.0 - probs[-1]) * phi.at_zero) / probs[-1]
        want = 1.0 / (1.0 + (level - 1.0) / phi.a)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert alpha_penalty(phi, Q) == pytest.approx(want, rel=4e-15, abs=0.0)


def test_first_order_penalty_is_the_dual_at_an_evaluated_multiplier():
    # each returned penalty is 1/D or exp(-D) at a lam whose maximizers were
    # computed, so it bounds the primal by construction
    seen = []

    class Recording(Power):
        def first_order_point(self, s, geometric):
            seen.append(np.array(s))
            return super().first_order_point(s, geometric)

    for penalty, geometric in ((beta_primal, False), (alpha_penalty, True)):
        for Q in _oracle_measures(73, count=20):
            phi = Recording(2.0)
            seen.clear()
            got = penalty(phi, Q)
            probs, dens = duality._canonical_atoms(Q)
            j = int(np.argmax(dens))
            duals = []
            for s in seen:
                lam = float(dens[j] / s[j])
                x = Power(2.0).first_order_point(dens / lam, geometric)
                z = np.log(x, out=np.zeros_like(x), where=x > 0.0) if geometric else x
                duals.append(lam + math.fsum(probs * (dens * z - lam * x**2.0)))
            d = min(duals)
            want = 1.0 / d if penalty is beta_primal else math.exp(-d)
            assert got == pytest.approx(want, rel=1e-15, abs=0.0), Q.density
            assert len(seen) <= 64


# (penalty, phi, most first_order_point calls, bracket and D included):
# Power's moment is a power of lam, so the secant lands on its root at
# once; the expectile's is not, and it may take no more calls than the
# bisection before the secant took (57)
FIRST_ORDER_ROWS = [
    (beta_primal, Power(2.0), 8),
    (alpha_penalty, Power(2.0), 8),
    (alpha_penalty, Expectile(0.8), 57),
    (beta_primal, Power(1.5), 8),
    (beta_primal, Power(3.0), 8),
    (alpha_penalty, Power(1.0), 8),
    (alpha_penalty, Power(3.0), 8),
]


@pytest.mark.parametrize(
    "penalty,phi,calls",
    FIRST_ORDER_ROWS,
    ids=[f"{pen.__name__}-{phi.spec_string()}" for pen, phi, _ in FIRST_ORDER_ROWS],
)
def test_first_order_work_does_not_depend_on_atom_order(monkeypatch, penalty, phi, calls):
    # the root is found on sums in the canonical atom order: the same
    # multipliers, the same float, and no inner search in any order
    inner = _count_inner_searches(monkeypatch)
    points = []

    class Counting(type(phi)):
        @property
        def first_order_point(self):
            point = super().first_order_point

            def counted(s, geometric):
                points.append(1)
                return point(s, geometric)

            return counted

    counting = Counting(*(getattr(phi, f.name) for f in dataclasses.fields(phi)))
    probs, dens = (0.3, 0.3, 0.2, 0.2), (0.5, 0.6, 0.8, 2.55)
    counts, values = [], []
    for order in ((0, 1, 2, 3), (3, 2, 1, 0), (2, 0, 3, 1)):
        Q = MeasureChange(
            FiniteProbabilitySpace(tuple(probs[i] for i in order)), tuple(dens[i] for i in order)
        )
        points.clear()
        values.append(penalty(counting, Q))
        counts.append(len(points))
    assert inner == []
    assert len(set(values)) == 1 and values[0] == penalty(phi, Q)
    assert len(set(counts)) == 1 and counts[0] <= calls, counts


def test_relative_entropy_hand_value():
    R = MeasureChange(UNIFORM2, (1.5, 0.5))
    want = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
    assert relative_entropy(R, P2) == pytest.approx(want, rel=1e-14, abs=0.0)
    assert relative_entropy(P2, R) > 0.0
    # off-support target blows up
    degenerate = MeasureChange(UNIFORM2, (2.0, 0.0))
    assert relative_entropy(R, degenerate) == math.inf
    assert relative_entropy(degenerate, R) < math.inf


def test_relative_entropy_space_mismatch():
    other = MeasureChange(FiniteProbabilitySpace((0.25, 0.75)), (1.0, 1.0))
    with pytest.raises(DimensionError):
        relative_entropy(P2, other)


def test_alpha_from_beta_lower_bounds_alpha():
    phi = Power(2.0)
    grid = beta_on_grid(phi, UNIFORM2, grid_step=0.05)
    bridged = alpha_from_beta(grid, P2)
    direct = alpha_penalty(phi, P2)
    assert bridged <= direct + 1e-9
    assert bridged >= beta_conjugate(phi, P2) - 1e-12  # Q = R term alone


def test_alpha_bridge_report_within_gap():
    report = alpha_bridge_report(Power(2.0), P2, grid_step=0.01)
    assert report.reported_gap == pytest.approx(0.05)
    assert report.within_gap, report


BRIDGE_FAMILIES = [
    Power(1.0),
    Power(1.5),
    Power(2.0),
    Power(3.0),
    Expectile(0.6),
    Expectile(0.8),
    LpQuantile(0.7, 1.0),
    LpqQuantile(1.5, 0.5, 1.0, 1.0),
]


@pytest.mark.parametrize("phi", BRIDGE_FAMILIES, ids=lambda phi: phi.spec_string())
def test_bridge_is_tight_at_the_maximizer_of_alpha(phi):
    # Q* read off alpha's own root attains alpha(R) >= beta(Q) exp(-H(R|Q))
    # with equality; rounding may move it either way, by a few ulps
    for R in _oracle_measures(83):
        report = alpha_bridge_report(phi, R)
        assert report.route == "first_order"
        assert report.direct_value == alpha_penalty(phi, R)
        bridge, direct = report.bridge_value, report.direct_value
        assert abs(bridge - direct) <= 4e-15 * direct, (R.density, bridge, direct)
        Q, _ = duality._bridge_maximizer(phi, R)
        r = np.asarray(R.density)
        assert ((np.asarray(Q.density) > 0.0) == (r > 0.0)).all(), (R.density, Q.density)
        if type(phi) is Power:
            # Q* has density proportional to (dR/dP)^((p-1)/p)
            w = np.where(r > 0.0, r ** ((phi.p - 1.0) / phi.p), 0.0)
            want = w / float(R.space.probs_array() @ w)
            assert np.asarray(Q.density) == pytest.approx(want, rel=1e-14, abs=0.0)


FLAT_ON_UNIT = [
    LpqQuantile(2.0, 0.0, 2.0, 1.0),
    LpqQuantile(1.0, 0.0, 1.0, 3.0),
    LpqQuantile(2.0, 0.0, 1.0, 2.0),
    PiecewiseLinear([(0.0, 1.0), (1.0, 1.0), (2.0, 3.0)]),
]


@pytest.mark.parametrize("phi", FLAT_ON_UNIT, ids=lambda phi: phi.spec_string())
def test_bridge_of_a_phi_flat_on_the_unit_interval_is_one_off_the_grid(phi):
    # Phi == 1 on [0, 1]: alpha = beta = 1 everywhere, and Q* = R makes the
    # bound exact; the grid read 0.9999438854304501 at this R
    R = MeasureChange(FiniteProbabilitySpace((0.3, 0.7)), (0.123456789 / 0.3, 0.876543211 / 0.7))
    report = alpha_bridge_report(phi, R)
    assert report.route == "first_order"
    assert report.bridge_value == report.direct_value == alpha_penalty(phi, R) == 1.0
    Q, alpha = duality._bridge_maximizer(phi, R)
    assert Q is R and alpha == 1.0


@pytest.mark.parametrize(
    "vals,probs,density",
    [
        ((0.5, 1.7), (0.4, 0.6), (0.0, 1.6666666666666667)),
        ((0.3, 1.1, 2.9), (0.2, 0.5, 0.3), (0.0, 0.0, 3.3333333333333335)),
        ((0.8, 1.2, 1.9, 3.3), (0.1, 0.2, 0.3, 0.4), (0.0, 0.0, 0.0, 2.5)),
    ],
)
def test_knotted_lpq_without_loss_weight_keeps_its_penalties_and_certificates(vals, probs, density):
    # lpq:2,0,1,2 is knotted (b = 0, p = 1) and its piece table states a
    # first-order point; Phi == 1 on [0, 1] still decides alpha, and the
    # certificates are the ones it had before it stated the point
    phi = LpqQuantile(2.0, 0.0, 1.0, 2.0)
    assert phi.first_order_point is not None
    X = rv(vals, probs)
    for kind in ("arithmetic", "geometric"):
        cert = dual_search(phi, X, kind)
        assert (cert.penalty, cert.lower_bound, cert.primal) == (1.0, vals[-1], vals[-1])
        assert (cert.route, cert.measure.density) == ("first_order", density)
    rng = np.random.default_rng(len(vals))
    for _ in range(20):
        Q = _random_measure(rng, X.space)
        assert alpha_penalty(phi, Q) == beta_primal(phi, Q) == beta_conjugate(phi, Q) == 1.0
    on_grid = MeasureChange(FiniteProbabilitySpace((0.3, 0.7)), (0.5 / 0.3, 0.5 / 0.7))
    assert alpha_bridge_report(phi, on_grid, grid_step=0.05).bridge_value == 1.0


def test_bridge_without_a_multiplier_root_keeps_the_grid():
    # no first_order_point (the searched Power): the sup over the simplex
    # grid, with the value it gave before the maximizer route existed
    R = MeasureChange(FiniteProbabilitySpace((0.2, 0.3, 0.5)), (2.5, 0.25, 0.85))
    phi = _searched(Power(2.0))
    report = alpha_bridge_report(phi, R, grid_step=0.05)
    assert report.route == "grid"
    assert report.bridge_value == 0.8665755213414315
    assert report.direct_value == alpha_penalty(phi, R)


def test_bridge_grid_route_refuses_more_than_four_outcomes():
    # the whole simplex grid at n = 5 and step 0.01 holds 4,598,126 measures
    space = FiniteProbabilitySpace((0.1, 0.15, 0.2, 0.25, 0.3))
    R = MeasureChange(space, (2.0, 2.0, 1.0, 0.6, 0.5))
    for call in (
        lambda: alpha_bridge_report(_searched(Power(2.0)), R),
        lambda: beta_on_grid(Power(2.0), space),
    ):
        start = time.perf_counter()
        with pytest.raises(DimensionError):
            call()
        assert time.perf_counter() - start <= 0.1
    # the first-order route builds no grid
    report = alpha_bridge_report(Power(2.0), R)
    assert report.route == "first_order"
    assert report.bridge_value == pytest.approx(report.direct_value, rel=1e-12, abs=0.0)


def test_simplex_grid_counts():
    assert len(simplex_grid(2, 0.5)) == 3
    assert len(simplex_grid(3, 0.25)) == 15  # C(6, 2)
    for q in simplex_grid(3, 0.25):
        assert math.fsum(q) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        simplex_grid(2, 0.3)


def test_simplex_grid_order_and_no_reference_cycles():
    assert simplex_grid(1, 0.25) == [(1.0,)]
    assert simplex_grid(3, 0.5) == [
        (0.0, 0.0, 1.0),
        (0.0, 0.5, 0.5),
        (0.0, 1.0, 0.0),
        (0.5, 0.0, 0.5),
        (0.5, 0.5, 0.0),
        (1.0, 0.0, 0.0),
    ]
    gc.collect()
    gc.disable()
    try:
        simplex_grid(3, 0.01)
        assert gc.collect() == 0  # nothing left for the cycle collector
    finally:
        gc.enable()


def test_dual_search_closes_gap_on_power():
    X = rv((1.0, 3.0))
    cert = dual_search(Power(2.0), X, kind="arithmetic")
    primal = orlicz_premium(Power(2.0), X).value
    assert cert.lower_bound == pytest.approx(primal, abs=1e-9)
    assert cert.lower_bound <= primal + 1e-9
    assert cert.kind == "arithmetic"


def test_dual_search_geometric_attains_at_reference():
    X = rv((0.5, 2.0))
    cert = dual_search(GeometricMean(), X, kind="geometric")
    primal = orlicz_premium(GeometricMean(), X).value
    assert cert.lower_bound == pytest.approx(primal, abs=1e-9)
    assert cert.measure.density == (1.0, 1.0)
    assert cert.penalty == pytest.approx(1.0, abs=1e-9)


def test_certificate_carries_primal_and_gap():
    for phi, X, kind in [
        (Power(2.0), rv((1.0, 3.0)), "arithmetic"),
        (Expectile(0.8), rv((0.5, 1.5, 4.0), (0.2, 0.3, 0.5)), "arithmetic"),
        (GeometricMean(), rv((0.5, 2.0)), "geometric"),
    ]:
        cert = dual_search(phi, X, kind=kind)
        assert cert.primal == orlicz_premium(phi, X).value
        assert cert.gap == cert.primal - cert.lower_bound
        assert cert.gap >= -1e-9 * max(1.0, cert.primal)


def test_dual_search_geometric_needs_positive_outcomes():
    with pytest.raises(DomainError):
        dual_search(GeometricMean(), rv((0.0, 2.0)), kind="geometric")


def test_dual_search_first_order_is_tight_beyond_grid_dimensions():
    X = rv((1.0, 2.0, 3.0, 4.0, 5.0))
    # n = 5 is past the simplex grid; Q* needs no search at any n
    cert = dual_search(Power(2.0), X, grid_step=0.05)
    primal = orlicz_premium(Power(2.0), X).value
    assert cert.route == "first_order"
    assert abs(primal - cert.lower_bound) <= 1e-9 * max(1.0, primal)


SLACK = 1e-9  # weak duality's relative slack


def _assert_tight(cert):
    slack = SLACK * max(1.0, cert.primal)
    assert cert.route == "first_order", cert
    assert cert.lower_bound <= cert.primal + slack, cert
    assert cert.gap <= slack, cert


CONVEX_PWL = PiecewiseLinear([(0.5, 0.25), (1.0, 1.0), (2.0, 3.0), (4.0, 9.0)])
FIRST_ORDER_ARITH = [
    Power(1.5),
    Power(2.0),
    Power(3.0),
    Expectile(0.8),
    LpQuantile(0.7, 1.0),
    LpqQuantile(1.5, 0.5, 1.0, 1.0),
    LpqQuantile(2.0, 0.0, 2.0, 1.0),
    CONVEX_PWL,
]
FIRST_ORDER_GEOM = [
    GeometricMean(),
    Power(0.5),
    Power(2.0),
    GeometricExpectile(2.0, 1.0),
    Expectile(0.8),
]
FIRST_ORDER_CASES = [
    (kind, phi, n)
    for n in (2, 3, 5, 8, 50)
    for kind, battery in (("arithmetic", FIRST_ORDER_ARITH), ("geometric", FIRST_ORDER_GEOM))
    for phi in battery
]


def _draw(n, salt):
    rng = np.random.default_rng([n, salt])
    vals = tuple(float(v) for v in rng.uniform(0.3, 3.0, n))
    probs = tuple(float(p) for p in rng.dirichlet(np.ones(n)))
    return rv(vals, probs)


@pytest.mark.parametrize(
    "kind,phi,n",
    FIRST_ORDER_CASES,
    ids=[f"{k[:5]}-{phi.spec_string()}-n{n}" for k, phi, n in FIRST_ORDER_CASES],
)
def test_first_order_certificate_is_tight(kind, phi, n):
    _assert_tight(dual_search(phi, _draw(n, 7), kind=kind))


def test_first_order_at_an_atom_on_the_kink():
    # the 0.8-expectile of (0, 1, 1.25) is 1, so X/k = 1 on an atom
    X = rv((0.0, 1.0, 1.25))
    cert = dual_search(Expectile(0.8), X)
    assert abs(cert.primal - 1.0) <= 1e-12
    _assert_tight(cert)
    assert cert.measure.density == pytest.approx((1.0 / 3.0, 4.0 / 3.0, 4.0 / 3.0), abs=1e-12)


def test_first_order_with_a_zero_atom():
    # Phi'(0) = 0, so Q* puts no mass on the zero atom
    cert = dual_search(Power(3.0), rv((0.0, 1.0, 2.0)))
    _assert_tight(cert)
    assert cert.measure.density[0] == 0.0


def test_first_order_when_the_derivative_vanishes_everywhere():
    # lpq:2,0,2,1 has Phi' = 0 on [0, 1] and the premium is max X, so
    # xi == 0 and Q* is P conditioned on {X = max X}
    X = rv((0.5, 2.0, 1.0, 2.0), (0.1, 0.2, 0.3, 0.4))
    cert = dual_search(LpqQuantile(2.0, 0.0, 2.0, 1.0), X)
    _assert_tight(cert)
    assert cert.primal == 2.0
    assert cert.measure.density == pytest.approx((0.0, 1.0 / 0.6, 0.0, 1.0 / 0.6), rel=1e-15, abs=0.0)
    # all-zero X: premium 0, and any measure is tight
    _assert_tight(dual_search(Power(2.0), rv((0.0, 0.0))))


ORACLE_CASES = [(phi, n) for n in (2, 3) for phi in FIRST_ORDER_ARITH]


@pytest.mark.parametrize(
    "phi,n", ORACLE_CASES, ids=[f"{phi.spec_string()}-n{n}" for phi, n in ORACLE_CASES]
)
def test_first_order_bound_dominates_the_grid(phi, n):
    X = _draw(n, 11)
    cert = dual_search(phi, X)
    _assert_tight(cert)
    step = {2: 0.01, 3: 0.05}
    probs, vals = X.space.probs_array(), X.values_array()
    for Q, b in beta_on_grid(phi, X.space, grid_step=step[n]):
        assert cert.lower_bound >= b * float(probs @ (np.asarray(Q.density) * vals)) - 1e-12


@pytest.mark.parametrize("kind", ["arithmetic", "geometric"])
def test_convex_pwl_certificates_close_to_rounding(kind):
    # the primal is the generic route's least float whose moment reads <= 1,
    # so the first-order bound meets it to rounding (gaps up to 9e-11 when
    # the route bisected to a relative width of 1e-10).  The bound may sit
    # an ulp above that float (6 of the 40 arithmetic and 13 of the 40
    # geometric gaps are negative): the float moment rounds to <= 1 a few
    # ulps below the exact root, inside weak duality's slack
    phi = PiecewiseLinear([(0.0, 0.0), (1.0, 1.0), (2.0, 3.0)])
    rng = np.random.default_rng(40)
    negative = 0
    for _ in range(40):
        n = int(rng.integers(2, 9))
        X = rv(rng.uniform(0.3, 3.0, n).tolist(), rng.dirichlet(np.ones(n)).tolist())
        cert = dual_search(phi, X, kind=kind)
        assert cert.route == "first_order", cert
        assert abs(cert.gap) <= 1e-14 * cert.primal, cert
        negative += cert.gap < 0.0
    print(f"{kind}: {negative} of 40 gaps negative")


def test_capped_convex_pwl_gets_a_tight_certificate():
    # a finite upper does not keep the convexity flag from being certified
    phi = PiecewiseLinear([(0.0, 0.0), (1.0, 1.0), (2.0, 3.0)], upper=5.0)
    assert phi.convex_flag is True
    cert = dual_search(phi, rv((1.0, 3.0)))
    _assert_tight(cert)
    assert cert.primal == pytest.approx(7.0 / 3.0, rel=1e-9, abs=0.0)


class _NoSlope(Power):
    derivative = None  # no first-order measure: every certificate takes the grid route


def test_no_derivative_falls_back_to_the_grid():
    X = rv((1.0, 3.0))
    cert = dual_search(_NoSlope(2.0), X, grid_step=0.05)
    assert cert.route == "grid"
    assert abs(cert.gap) <= 1e-9


@pytest.mark.parametrize(
    "X", [rv((1.0, 2.0), (0.3, 0.7)), rv((1.0, 2.0, 4.0), (0.2, 0.3, 0.5))], ids=["n2", "n3"]
)
def test_grid_polish_improves_on_the_best_grid_measure(X):
    phi = _NoSlope(2.0)
    cert = dual_search(phi, X, grid_step=0.05)
    assert cert.route == "grid" and abs(cert.gap) <= 1e-9
    probs, vals = X.space.probs_array(), X.values_array()
    grid = [X.space.probs] + simplex_grid(X.space.n, 0.05)
    dens = [tuple((np.asarray(q) / probs).tolist()) for q in grid]
    best = max(
        beta_conjugate(phi, MeasureChange(X.space, d)) * float(np.dot(q, vals))
        for q, d in zip(grid, dens)
    )
    assert cert.lower_bound > best + 1e-3


def test_grid_fallback_beyond_four_outcomes_and_in_geometric_form():
    # n = 6 takes the 32 seeded multistarts instead of the simplex grid
    rng = np.random.default_rng(0)
    X = rv(np.round(rng.uniform(0.5, 4.0, 6), 3).tolist(), rng.dirichlet(np.ones(6)).tolist())
    cert = dual_search(_NoSlope(2.0), X)
    assert cert.route == "grid" and abs(cert.gap) <= 1e-9
    # the geometric grid: alpha at every grid measure
    cert = dual_search(_NoSlope(2.0), rv((1.0, 3.0)), "geometric", grid_step=0.05)
    assert (cert.route, cert.kind) == ("grid", "geometric") and abs(cert.gap) <= 1e-9


def test_loose_first_order_measure_seeds_the_grid():
    # a wrong slope gives Q* = P, which is loose; the grid and polish close the gap
    class FlatSlope(Power):
        def derivative(self, xs):
            return np.ones_like(xs)

    X = rv((1.0, 3.0))
    phi = FlatSlope(2.0)
    cert = dual_search(phi, X, grid_step=0.05)
    assert cert.route == "grid"
    at_p = beta_conjugate(phi, MeasureChange(X.space, (1.0, 1.0))) * 2.0
    assert cert.lower_bound > at_p + 0.1
    assert abs(cert.gap) <= 1e-9


def test_hg_dual_check_mean_premium():
    report = hg_dual_check(Power(1.0), rv((1.0, 3.0)))
    assert report.primal == pytest.approx(2.0, abs=1e-8)
    assert report.dual_bound == pytest.approx(2.0, abs=1e-8)
    assert report.agrees


def test_hg_dual_check_expectile_twopoint():
    report = hg_dual_check(Expectile(0.8), rv((0.0, 1.0)))
    assert report.primal == pytest.approx(0.8, abs=1e-8)
    assert report.dual_bound == pytest.approx(0.8, abs=1e-8)
    assert report.best_density == (0.4, 1.6)
    assert report.agrees


def test_hg_dual_check_dimension_guard():
    with pytest.raises(DimensionError):
        hg_dual_check(Power(2.0), rv((1.0, 2.0, 3.0, 4.0, 5.0)))


@pytest.mark.parametrize("kind", ["arithmetic", "geometric"])
@pytest.mark.parametrize(
    "phi",
    [LpqQuantile(2.0, 0.0, 2.0, 1.0), PiecewiseLinear([(1.0, 1.0), (3.0, 5.0)], value_at_zero=1.0)],
    ids=lambda f: f.spec_string(),
)
def test_bound_at_max_x_leaves_no_negative_gap(phi, kind):
    # Q* sits on max X = 3 with penalty 1; exp(E_Q[log X]) rounds to
    # 3.0000000000000004, which the clamp to the charged values removes
    cert = dual_search(phi, rv((1.0, 3.0)), kind=kind)
    assert cert.primal == 3.0
    assert cert.lower_bound <= cert.primal
    assert cert.gap >= 0.0


def test_hg_dual_bound_can_exceed_the_primal():
    # the band |beta - 1| <= step admits Q with beta < 1: here the best
    # E_Q[X] sits on such a Q and lies above the HG measure, yet agrees holds
    phi = PiecewiseLinear([(0.0, 0.0), (1.0, 1.0), (2.0, 3.0), (4.0, 9.0)])
    X = rv((0.706, 3.22, 4.65))
    report = hg_dual_check(phi, X, grid_step=0.05)
    assert report.primal == pytest.approx(3.3065, rel=1e-12, abs=0.0)
    assert report.dual_bound == 3.4322
    assert report.best_density == (0.6000000000000001, 0.9, 1.5)
    assert (report.admissible_count, report.total_count) == (37, 232)
    assert report.agrees and report.gap < -0.12
    assert beta_conjugate(phi, MeasureChange(X.space, report.best_density)) < 1.0


# --- the block beta against the per-measure loop it replaced ------------------

BLOCK_FAMILIES = [
    Expectile(0.6),
    Expectile(0.8),
    LpQuantile(0.7, 1.0),
    LpqQuantile(1.5, 0.5, 1.0, 1.0),
    Power(1.0),
    PiecewiseLinear([(0.0, 0.0), (1.0, 1.0), (2.0, 3.0), (4.0, 9.0)]),
    CONVEX_PWL,
    PiecewiseLinear([(0.0, 0.0), (1.0, 1.0), (2.0, 3.0)], upper=5.0),
]


def _loop_breakpoint_min(phi, dens, probs):
    """inf over lam of (1 + E[Psi(lam w)]) / lam, one measure at a time: the
    loop the block replaced, Psi one y at a time and each sum probs @ psi."""
    knots = np.array([0.0] + [x for x, _ in phi.points])
    slopes = {float(s) for s in phi.derivative(knots) if 0.0 < s < INF}
    capped = phi.upper < INF
    s_end = max(slopes)
    edge = INF if capped else s_end / float(dens.max())
    cands = {s / w for s in slopes for w in dens.tolist() if w > 0.0 and s / w <= edge}
    if 0.0 < edge < INF:
        cands.add(edge)
    best = phi.upper
    for lam in cands:
        y = lam * dens if capped else np.minimum(lam * dens, s_end)
        psi = np.array([conjugate(phi, v) for v in y.tolist()])
        best = min(best, (1.0 + float(probs @ psi)) / lam)
    return best


def _loop_beta(phi, Q):
    """beta_conjugate as the per-measure loop computed it."""
    dens = np.asarray(Q.density, dtype=float)
    probs = Q.space.probs_array()
    r = phi.holder_exponent
    if r is not None:
        top = max(Q.density)
        if r * math.log(top) < 709.0:
            norm = float((probs @ dens**r) ** (1.0 / r))
        else:
            norm = top * float((probs @ (dens / top) ** r) ** (1.0 / r))
        return min(1.0, 1.0 / norm)
    if phi.at_zero == 1.0:
        return 1.0
    return min(1.0, 1.0 / _loop_breakpoint_min(phi, dens, probs))


def _random_blocks(seed, spaces=100, rows=3):
    # n = 2-8; one density set to 0 in every third measure
    rng = np.random.default_rng(seed)
    for _ in range(spaces):
        n = int(rng.integers(2, 9))
        space = FiniteProbabilitySpace(tuple(rng.dirichlet(np.ones(n))))
        probs = space.probs_array()
        block = []
        for i in range(rows):
            dens = rng.uniform(0.0, 4.0, n)
            if i % 3 == 0:
                dens[rng.integers(0, n)] = 0.0
            block.append(tuple((dens / (probs @ dens)).tolist()))
        yield space, block


def _assert_block_meets_the_loop(phi, space, block):
    probs = space.probs_array()
    got = duality._beta_block(phi, probs, np.array(block))
    want = [_loop_beta(phi, MeasureChange(space, d)) for d in block]
    assert got == want, (space.probs, block)


@pytest.mark.parametrize("phi", BLOCK_FAMILIES, ids=lambda f: f.spec_string())
def test_block_beta_is_the_per_measure_loop_to_the_bit(phi):
    for space, block in _random_blocks(97):
        _assert_block_meets_the_loop(phi, space, block)
        for d in block:
            Q = MeasureChange(space, d)
            assert beta_conjugate(phi, Q) == _loop_beta(phi, Q)
    rng = np.random.default_rng(98)
    for n in (2, 3, 4):
        space = FiniteProbabilitySpace(tuple(rng.dirichlet(np.ones(n))))
        probs = space.probs_array()
        grid = np.asarray(simplex_grid(n, 0.05)) / probs
        _assert_block_meets_the_loop(phi, space, [tuple(d) for d in grid.tolist()])


def test_block_beta_runs_in_bounded_passes(monkeypatch):
    # a block longer than BLOCK_ROWS is solved a pass at a time, to the same floats
    phi = Expectile(0.8)
    space, block = next(_random_blocks(99, spaces=1, rows=7))
    whole = duality._beta_block(phi, space.probs_array(), np.array(block))
    monkeypatch.setattr(duality, "BLOCK_ROWS", 2)
    assert duality._beta_block(phi, space.probs_array(), np.array(block)) == whole


def _loop_hg_dual_check(phi, X, grid_step):
    """hg_dual_check as the per-measure loop computed it."""
    from orlicz.hg import hg_risk_measure

    primal = hg_risk_measure(phi, X, tol=1e-10).value
    probs, vals = X.space.probs_array(), X.values_array()
    best_val, best_dens, admissible, total = -INF, None, 0, 0
    for q in [tuple(float(p) for p in probs)] + simplex_grid(X.space.n, grid_step):
        total += 1
        Q = MeasureChange(X.space, tuple(float(qi) / float(pi) for qi, pi in zip(q, probs)))
        if abs(_loop_beta(phi, Q) - 1.0) > grid_step:
            continue
        admissible += 1
        val = float(np.dot(q, vals))
        if val > best_val or (val == best_val and (best_dens is None or Q.density < best_dens)):
            best_val, best_dens = val, Q.density
    gap = primal - best_val
    return duality.HGDualReport(
        primal=primal,
        dual_bound=best_val,
        gap=gap,
        band=grid_step,
        admissible_count=admissible,
        total_count=total,
        best_density=best_dens,
        agrees=abs(gap) <= 2.0 * grid_step * max(1.0, abs(primal)),
    )


def _loop_beta_on_grid(phi, space, grid_step):
    probs, out, seen = space.probs_array(), [], set()
    for q in [tuple(float(p) for p in probs)] + simplex_grid(space.n, grid_step):
        Q = MeasureChange(space, tuple(float(qi) / float(pi) for qi, pi in zip(q, probs)))
        if Q.density not in seen:
            seen.add(Q.density)
            out.append((Q, _loop_beta(phi, Q)))
    return out


@pytest.mark.parametrize("phi", BLOCK_FAMILIES + [Power(2.0)], ids=lambda f: f.spec_string())
def test_grid_reports_are_the_per_measure_loop_to_the_bit(phi):
    rng = np.random.default_rng(101)
    for n, step in ((2, 0.01), (3, 0.05), (4, 0.1)):
        for _ in range(2):
            probs = rng.dirichlet(np.full(n, 3.0))
            X = rv(tuple(rng.uniform(0.1, 5.0, n).tolist()), tuple(probs.tolist()))
            assert hg_dual_check(phi, X, grid_step=step) == _loop_hg_dual_check(phi, X, step)
            assert beta_on_grid(phi, X.space, grid_step=step) == _loop_beta_on_grid(
                phi, X.space, step
            )
    # a uniform space repeats densities: each distinct one is listed once
    grid = beta_on_grid(phi, UNIFORM2, grid_step=0.5)
    assert [Q.density for Q, _ in grid] == [(1.0, 1.0), (0.0, 2.0), (2.0, 0.0)]


def test_vecdot_sums_each_row_as_the_dot_product_does():
    # the block's exactness rests on np.vecdot taking BLAS's dot product per
    # row, as probs @ psi does on one vector; psi @ probs rounds otherwise
    rng = np.random.default_rng(102)
    for n in (2, 3, 5, 8, 17, 40):
        probs = rng.dirichlet(np.ones(n))
        psi = rng.normal(size=(50, 3, n))
        rows = np.vecdot(psi, probs)
        assert [[float(probs @ np.array(v)) for v in r] for r in psi.tolist()] == rows.tolist()


# --- exact alpha: the indicator of gm and gexpectile, the root of pwl ---------

INDICATOR_FAMILIES = [GeometricMean(), GeometricExpectile(2.0, 1.0), GeometricExpectile(3.0, 0.5)]
CAPPED_PWL = PiecewiseLinear([(0.0, 0.0), (1.0, 1.0), (2.0, 3.0)], upper=5.0)


def _indicator_measures(seed, count=300):
    # n = 2-8; the densities spread by a factor of 1 (Q = P), 1.5, 2.5 or 5
    # in turn, so that both values of the indicator occur; one density set
    # to 0 in every third Q
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(2, 9))
        probs = rng.dirichlet(np.ones(n))
        dens = rng.uniform(1.0, 1.0 + (0.0, 0.5, 1.5, 4.0)[i % 4], n)
        if i % 3 == 0:
            dens[rng.integers(0, n)] = 0.0
        yield MeasureChange(FiniteProbabilitySpace(tuple(probs)), tuple((dens / (probs @ dens)).tolist()))


@pytest.mark.parametrize("phi", INDICATOR_FAMILIES, ids=lambda f: f.spec_string())
def test_alpha_of_a_log_slope_family_is_the_indicator(phi):
    # alpha(Q) = 1 where b max w <= a min w, else 0 (a zero density gives
    # 0); no random ratio here sits within 1e-9 of a / b unless the
    # densities are all one float, so the float closed form decides it
    b, a = phi.log_slopes
    seen = set()
    for Q in _indicator_measures(103):
        lo, hi = min(Q.density), max(Q.density)
        assert lo == hi or abs(b * hi - a * lo) > 1e-9 * a * lo, Q.density
        want = 1.0 if b * hi <= a * lo else 0.0
        assert alpha_penalty(phi, Q) == want, Q.density
        seen.add(want)
    assert seen == {0.0, 1.0}


@pytest.mark.parametrize("phi", INDICATOR_FAMILIES, ids=lambda f: f.spec_string())
def test_alpha_indicator_is_exact_at_its_boundary(phi):
    # densities whose ratio is exactly a / b give 1, and one float further 0
    b, a = phi.log_slopes
    lo = math.floor(512.0 / (1.0 + a / b)) / 256.0
    hi = lo * a / b  # few bits: exact
    assert Fraction(b) * Fraction(hi) == Fraction(a) * Fraction(lo)
    p = 0.5 if hi == lo else (hi - 1.0) / (hi - lo)
    space = FiniteProbabilitySpace((p, 1.0 - p))
    assert alpha_penalty(phi, MeasureChange(space, (lo, hi))) == 1.0
    assert alpha_penalty(phi, MeasureChange(space, (lo, math.nextafter(hi, INF)))) == 0.0
    assert alpha_penalty(phi, MeasureChange(space, (math.nextafter(lo, 0.0), hi))) == 0.0


@pytest.mark.parametrize(
    "phi", [GeometricMean(), GeometricExpectile(2.0, 1.0)], ids=lambda f: f.spec_string()
)
def test_log_slope_certificates_have_penalty_one(phi):
    # Q* is built from the slopes themselves, inside the indicator
    for n in range(2, 9):
        for salt in range(4):
            cert = dual_search(phi, _draw(n, 200 + salt), kind="geometric")
            _assert_tight(cert)
            assert cert.penalty == 1.0
            if type(phi) is GeometricMean:
                assert len(set(cert.measure.density)) == 1


def test_gm_certificate_at_large_n_has_penalty_one():
    X = rv(tuple(np.random.default_rng(3000).lognormal(0.0, 1.0, 3000).tolist()))
    cert = dual_search(GeometricMean(), X, kind="geometric")
    _assert_tight(cert)
    assert cert.penalty == 1.0
    assert len(set(cert.measure.density)) == 1


def test_pwl_alpha_meets_the_searched_route():
    # the multiplier root against the grid-and-Brent Lagrangian it replaces
    searched = _searched(CONVEX_PWL)
    for Q in _oracle_measures(107):
        got, ref = alpha_penalty(CONVEX_PWL, Q), alpha_penalty(searched, Q)
        assert abs(got - ref) <= 1e-9 * ref, (Q.density, got, ref)


def _stays_below_one_at_upper(phi, Q):
    """E_P[Phi(X*)] at the limit lam -> 0, X* = upper wherever w > 0, is <= 1."""
    w = np.asarray(Q.density)
    return float(Q.space.probs_array() @ np.where(w > 0.0, phi(phi.upper), phi.at_zero)) <= 1.0


def test_capped_pwl_alpha_meets_the_searched_route_or_the_limit():
    # where the moment stays <= 1 as lam -> 0, D is nondecreasing and alpha
    # is exp(-E_Q[log upper]) = 1 / upper; the searched route misses that
    # limit by up to 6e-5, so it is the oracle only elsewhere
    searched = _searched(CAPPED_PWL)
    limits = [
        MeasureChange(FiniteProbabilitySpace((0.04, 0.96)), (25.0, 0.0)),
        MeasureChange(FiniteProbabilitySpace((0.1, 0.9)), (10.0, 0.0)),
    ]
    for Q in limits + list(_oracle_measures(109, count=100)):
        got = alpha_penalty(CAPPED_PWL, Q)
        if _stays_below_one_at_upper(CAPPED_PWL, Q):
            assert got == pytest.approx(0.2, rel=1e-15, abs=0.0), Q.density
        else:
            ref = alpha_penalty(searched, Q)
            assert abs(got - ref) <= 1e-9 * ref, (Q.density, got, ref)


@pytest.mark.parametrize("phi", [CONVEX_PWL, CAPPED_PWL], ids=lambda f: f.spec_string())
def test_pwl_bridge_is_tight_at_the_maximizer_of_alpha(phi):
    # the bridge takes alpha's root, or its limit lam = 0 with Q* = R
    R = MeasureChange(FiniteProbabilitySpace((0.04, 0.96)), (25.0, 0.0))
    for R in [R] + list(_oracle_measures(113, count=600)):
        report = alpha_bridge_report(phi, R)
        assert report.route == "first_order"
        assert report.direct_value == alpha_penalty(phi, R)
        bridge, direct = report.bridge_value, report.direct_value
        assert abs(bridge - direct) <= 1e-14 * direct, (R.density, bridge, direct)
        if phi.upper < INF and _stays_below_one_at_upper(phi, R):
            Q, _ = duality._bridge_maximizer(phi, R)
            assert Q.density == pytest.approx(R.density, rel=1e-15, abs=0.0)


def test_alpha_is_zero_where_phi_of_zero_is_minus_infinity_and_a_density_is_zero():
    # Y = -inf on an atom Q does not charge pays for any E_Q[Y]; the
    # multiplier root would find no sign change of a moment that is -inf
    phi = PiecewiseLinear([(0.0, 0.0), (1.0, 1.0), (2.0, 3.0)], value_at_zero=-INF)
    Q = MeasureChange(FiniteProbabilitySpace((0.3, 0.7)), (0.0, 1.0 / 0.7))
    assert alpha_penalty(phi, Q) == 0.0


GA_CONVEX_BUILTINS = [
    GeometricMean(),
    Power(0.5),
    Power(1.0),
    Power(2.0),
    Expectile(0.8),
    LpQuantile(0.7, 1.0),
    LpqQuantile(1.5, 0.5, 1.0, 1.0),
    GeometricExpectile(2.0, 1.0),
    GeometricExpectile(2.0, 0.0),
    CONVEX_PWL,
    CAPPED_PWL,
    PiecewiseLinear([(0.0, 0.0), (1.0, 1.0), (2.0, 3.0)], value_at_zero=-INF),
]


@pytest.mark.parametrize("phi", GA_CONVEX_BUILTINS, ids=lambda f: f.spec_string())
def test_no_built_in_alpha_reaches_the_seeded_search(monkeypatch, phi):
    def refuse(*args):
        raise AssertionError(f"the seeded search ran for {phi!r}")

    monkeypatch.setattr(duality, "_searched_alpha_dual_min", refuse)
    limit = MeasureChange(FiniteProbabilitySpace((0.04, 0.96)), (25.0, 0.0))
    for Q in [limit] + list(_oracle_measures(127, count=100)):
        assert 0.0 <= alpha_penalty(phi, Q) <= 1.0
    for n in (2, 3, 5):
        _assert_tight(dual_search(phi, _draw(n, 13), kind="geometric"))

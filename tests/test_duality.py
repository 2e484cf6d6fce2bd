"""Dual engine: penalties, certificates, entropy bridge, HG restriction."""

import gc
import math

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
    assert beta_conjugate(Power(2.0), Q) == pytest.approx(want, rel=1e-12)
    assert beta_conjugate(Power(1.0), Q) == pytest.approx(1.0 / 1.4, rel=1e-12)


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
    [Expectile(0.8), Power(2.0), PiecewiseLinear([(0.5, 0.25), (1.0, 1.0), (2.0, 3.0), (4.0, 9.0)])],
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
    assert values[0] == pytest.approx(values[1], rel=1e-12)


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
    with_floors = [penalty(phi, Q) for penalty, phi, Q in cases]
    _solve_every_seed(monkeypatch)
    for (penalty, phi, Q), got in zip(cases, with_floors):
        assert got == penalty(phi, Q), (penalty.__name__, phi.spec_string(), Q.density)


def test_beta_primal_floors_skip_a_third_of_the_inner_solves(monkeypatch):
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
        values.append(beta_primal(Power(2.0), Q))
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
    # golden section to 1e-11 made 236 inner solves here, 232 of them in the
    # lambda polish; Brent's search stops once the Lagrangian is flat
    calls = _count_inner_searches(monkeypatch)
    Q = MeasureChange(FiniteProbabilitySpace((0.3, 0.3, 0.2, 0.2)), (0.5, 0.6, 0.8, 2.55))
    beta = beta_primal(Power(2.0), Q)
    assert len(calls) <= 80
    assert beta == pytest.approx(beta_conjugate(Power(2.0), Q), rel=1e-15)


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
    assert beta_primal(phi, Q) == pytest.approx(1.0 / 1.2, rel=1e-14)
    assert beta_conjugate(phi, Q) == pytest.approx(1.0 / 1.2, rel=1e-14)


def test_alpha_penalty_work_does_not_depend_on_rounding_in_the_densities(monkeypatch):
    # a first-order gm certificate has Q* = P only up to an ulp in each
    # density; seeds that close to lam = 1 once narrowed the lambda polish
    # to one side of it, and the polish then walked into the finite sliver
    # around lam = 1: 45 inner solves against 3 for exact densities
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
    for dens in ((1.0, 1.0, 1.0), (up, up, up), (up, 1.0, up), (1.0, down, 1.0), (down, up, 1.0)):
        solves = 0
        alpha = alpha_penalty(GeometricMean(), MeasureChange(space, dens))
        counts.append(solves)
        assert 1.0 - 1e-13 <= alpha <= 1.0
    assert counts == [3] * len(counts)


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
    assert alpha_penalty(Power(0.5), Q) == 0.5654092421545873
    assert alpha_penalty(Expectile(0.8), Q) == 0.9665463995862633
    # Power(1) takes the knot routes: knots (0, 0) and (1, 1), slope 1
    assert beta_conjugate(Power(1.0), Q) == 0.4
    assert float(beta_primal(Power(1.0), Q)) == 0.4
    below, above = math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)
    for y, want in [(0.0, 0.0), (0.5, 0.0), (below, 0.0), (1.0, 0.0), (above, INF), (1.5, INF)]:
        assert conjugate(Power(1.0), y) == want, y


def test_relative_entropy_hand_value():
    R = MeasureChange(UNIFORM2, (1.5, 0.5))
    want = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
    assert relative_entropy(R, P2) == pytest.approx(want, rel=1e-14)
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
        assert cert.primal == orlicz_premium(phi, X, tol=1e-10).value
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
    assert cert.measure.density == pytest.approx((0.0, 1.0 / 0.6, 0.0, 1.0 / 0.6), rel=1e-15)
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


def test_capped_convex_pwl_gets_a_tight_certificate():
    # a finite upper does not keep the convexity flag from being certified
    phi = PiecewiseLinear([(0.0, 0.0), (1.0, 1.0), (2.0, 3.0)], upper=5.0)
    assert phi.convex_flag is True
    cert = dual_search(phi, rv((1.0, 3.0)))
    _assert_tight(cert)
    assert cert.primal == pytest.approx(7.0 / 3.0, rel=1e-9)


def test_no_derivative_falls_back_to_the_grid():
    class NoSlope(Power):
        derivative = None

    X = rv((1.0, 3.0))
    cert = dual_search(NoSlope(2.0), X, grid_step=0.05)
    assert cert.route == "grid"
    assert abs(cert.gap) <= 1e-9


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

"""Function-family behaviour: values, flags, validation, conjugates."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orlicz.base import INF, NEG_INF, DomainError, InvalidPhiError, NotConvexError
from orlicz.functions import (
    Expectile,
    GeometricExpectile,
    GeometricMean,
    LpQuantile,
    LpqQuantile,
    OrliczFunction,
    PiecewiseLinear,
    Power,
    QuantileStep,
    conjugate,
    piecewise_linear_from_text,
)
from orlicz import premium
from orlicz.premium import orlicz_premium
from orlicz.prob import rv

ALL_FAMILIES = [
    GeometricMean(),
    Power(0.5),
    Power(1.0),
    Power(2.0),
    Power(3.0),
    QuantileStep(0.3),
    Expectile(0.3),
    Expectile(0.8),
    LpQuantile(0.7, 2.0),
    LpqQuantile(1.0, 1.0, 2.0, 1.0),
    GeometricExpectile(2.0, 1.0),
]


def test_geometric_mean_values():
    phi = GeometricMean()
    assert phi(1.0) == 1.0
    assert phi(math.e) == pytest.approx(2.0, rel=1e-15, abs=0.0)
    assert phi(0.0) == NEG_INF
    assert phi.at_zero == NEG_INF


def test_power_values():
    phi = Power(2.0)
    assert phi(2.0) == 4.0
    assert phi(0.0) == 0.0
    assert phi(1.0) == 1.0


def test_quantile_step_is_left_continuous_at_one():
    phi = QuantileStep(0.3)
    assert phi(1.0) == 0.3
    assert phi(1.0000001) == 1.3
    xs = phi.eval_array(np.array([0.0, 1.0, 1.5]))
    assert list(xs) == [0.3, 0.3, 1.3]


def test_expectile_kink():
    phi = Expectile(0.8)
    assert phi(1.0) == 1.0
    assert phi(2.0) == pytest.approx(1.8)
    assert phi(0.5) == pytest.approx(1.0 - 0.2 * 0.5)
    assert phi.at_zero == pytest.approx(0.8)


def test_lpq_at_zero_and_domain():
    phi = LpqQuantile(1.0, 0.75, 2.0, 1.0)
    assert phi.at_zero == pytest.approx(0.25)
    with pytest.raises(ValueError):
        LpqQuantile(0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        LpqQuantile(1.0, -0.5, 1.0, 1.0)


def test_geometric_expectile_zero_behaviour():
    assert GeometricExpectile(2.0, 1.0).at_zero == NEG_INF
    assert GeometricExpectile(2.0, 0.0).at_zero == 1.0
    assert GeometricExpectile(2.0, 0.0)(0.5) == 1.0


@pytest.mark.parametrize("phi", ALL_FAMILIES, ids=lambda f: f.spec_string())
def test_negative_input_rejected(phi):
    with pytest.raises(DomainError):
        phi(-0.1)


@pytest.mark.parametrize("phi", ALL_FAMILIES, ids=lambda f: f.spec_string())
def test_builtins_are_admissible(phi):
    report = phi.validation
    assert report.ok, report.violations


def _unit_kink(b):
    # the knots of a loss with slope b on [0, 1], 1 at 1 and linear beyond
    return ((0.0, 1.0 - b), (1.0, 1.0))


@pytest.mark.parametrize(
    "phi,cash,knots,holder",
    [
        (GeometricMean(), "superadditive", (), None),
        (Power(0.5), "superadditive", (), None),
        (Power(1.0), "additive", _unit_kink(1.0), None),
        (Power(2.0), "subadditive", (), 2.0),
        (Power(3.0), "subadditive", (), 1.5),
        (QuantileStep(0.3), "additive", (), None),
        (QuantileStep(1.0), "additive", (), None),
        (Expectile(0.3), "additive", _unit_kink(0.7), None),
        (Expectile(0.5), "additive", _unit_kink(0.5), None),
        (Expectile(0.8), "additive", _unit_kink(1.0 - 0.8), None),
        (LpQuantile(0.7, 1.0), "additive", _unit_kink(1.0 - 0.7), None),
        (LpQuantile(0.3, 2.0), "additive", (), None),
        (LpqQuantile(1.5, 0.5, 1.0, 1.0), "additive", _unit_kink(0.5), None),
        (LpqQuantile(1.0, 1.0, 2.0, 2.0), "additive", (), None),
        (LpqQuantile(1.0, 1.0, 2.0, 1.0), "subadditive", (), None),
        (LpqQuantile(1.0, 1.0, 1.0, 2.0), "superadditive", (), None),
        (LpqQuantile(2.0, 0.0, 2.0, 1.0), "additive", (), None),
        (LpqQuantile(2.0, 0.0, 1.0, 2.0), "additive", _unit_kink(0.0), None),
        (LpqQuantile(2.0, 0.0, 1.0, 1.0), "additive", _unit_kink(0.0), None),
        (GeometricExpectile(2.0, 1.0), None, (), None),
        (GeometricExpectile(2.0, 0.0), "additive", (), None),
        (GeometricExpectile(1.0, 1.0), "superadditive", (), None),  # gm
        (GeometricExpectile(3.0, 3.0), "superadditive", (), None),  # gm's premium too
        (
            PiecewiseLinear([(0.0, 0.0), (1.0, 1.0), (4.0, 4.0)]),
            None,
            ((0.0, 0.0), (1.0, 1.0), (4.0, 4.0)),
            None,
        ),
    ],
    ids=lambda v: v.spec_string() if hasattr(v, "spec_string") else str(v),
)
def test_family_facts_at_parameter_edges(phi, cash, knots, holder):
    assert phi.cash_behavior == cash
    assert phi.points == knots
    assert phi.holder_exponent == holder
    if knots:
        # Phi is linear between the knots and beyond the last one
        xs = np.linspace(0.0, 6.0, 61)
        kx, ky = zip(*knots)
        end = float(phi.derivative(np.array([kx[-1]]))[0])
        want = np.where(xs <= kx[-1], np.interp(xs, kx, ky), ky[-1] + end * (xs - kx[-1]))
        assert phi.eval_array(xs) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize(
    "phi,convex,ga",
    [
        (GeometricMean(), False, True),
        (Power(0.5), False, True),
        (Power(1.0), True, True),
        (Power(3.0), True, True),
        (QuantileStep(0.3), False, False),
        (Expectile(0.3), False, False),
        (Expectile(0.5), True, True),
        (Expectile(0.8), True, True),
        (LpQuantile(0.7, 1.0), True, True),
        (LpQuantile(0.7, 2.0), False, False),
        (LpqQuantile(1.0, 1.0, 1.0, 1.0), True, True),
        (LpqQuantile(0.5, 1.0, 1.0, 1.0), False, False),
        (LpqQuantile(1.0, 1.0, 2.0, 2.0), False, False),
        (LpqQuantile(2.0, 0.0, 2.0, 1.0), True, True),
        (GeometricExpectile(2.0, 1.0), False, True),
        (GeometricExpectile(1.0, 2.0), False, False),
    ],
    ids=lambda v: v.spec_string() if hasattr(v, "spec_string") else str(v),
)
def test_convexity_flags(phi, convex, ga):
    assert phi.convex_flag is convex
    assert phi.ga_convex_flag is ga


PWL_FLAG_CASES = {
    "convex": (([(0.0, 0.0), (1.0, 1.0), (4.0, 4.0)], None, INF), True, True),
    "convex-steep": (([(0.0, 0.2), (1.0, 1.0), (2.0, 3.0)], None, INF), True, True),
    "concave-kink": (([(0.0, 0.5), (1.0, 1.0), (2.0, 1.2)], None, INF), False, False),
    "jump": (([(0.0, 0.5), (1.0, 1.0), (1.0, 1.5), (3.0, 2.0)], None, INF), False, False),
    "jump-at-zero": (([(0.5, 0.5), (1.0, 1.0), (2.0, 2.0)], 0.0, INF), False, True),
    "finite-upper": (([(0.0, 0.0), (1.0, 1.0), (3.0, 5.0)], None, 3.0), True, True),
    "neg-inf-at-zero-concave": (([(0.5, 0.1), (1.0, 1.0), (2.0, 1.1)], NEG_INF, INF), False, False),
    "neg-inf-at-zero-steep": (([(0.5, 0.3), (1.0, 1.0), (2.0, 4.0)], NEG_INF, INF), False, True),
    # the slope falls from 1.2 to 1.1 at x = 1: a geometric-midpoint gap of only
    # +4.9e-5, which midpoints sampled off the knots can miss
    "slope-drop-at-one": (([(0.5, 0.4), (1.0, 1.0), (2.0, 2.1), (4.0, 8.0)], None, INF), False, False),
    "capped-jump": (([(0.5, 0.2), (1.0, 1.0), (2.0, 3.0), (2.0, 5.0)], None, 2.0), True, True),
    "capped-jump-below-upper": (([(0.5, 0.2), (1.0, 1.0), (2.0, 3.0), (2.0, 5.0)], None, 3.0), False, False),
    "falling-first-slope": (([(0.0, 0.5), (1.0, 0.2), (2.0, 3.0)], None, INF), True, False),
}


@pytest.mark.parametrize("case", sorted(PWL_FLAG_CASES))
@pytest.mark.parametrize("ga_first", [False, True])
def test_piecewise_linear_flags(case, ga_first):
    (points, at_zero, upper), convex, ga = PWL_FLAG_CASES[case]
    phi = PiecewiseLinear(points, value_at_zero=at_zero, upper=upper)
    if ga_first:
        assert phi.ga_convex_flag is ga
    assert phi.convex_flag is convex
    assert phi.ga_convex_flag is ga


@given(st.floats(min_value=1e-6, max_value=50.0), st.floats(min_value=1e-6, max_value=50.0))
@settings(max_examples=200, deadline=None)
def test_families_nondecreasing(x, y):
    lo, hi = sorted((x, y))
    for phi in ALL_FAMILIES:
        assert phi(lo) <= phi(hi) + 1e-12


# --- piecewise linear -------------------------------------------------------


def test_pwl_interpolates_knots():
    phi = PiecewiseLinear([(0.5, 0.25), (1.0, 1.0), (2.0, 3.0)])
    assert phi(0.5) == 0.25
    assert phi(1.0) == 1.0
    assert phi(1.5) == pytest.approx(2.0)
    # extension beyond the last knot keeps the final slope
    assert phi(3.0) == pytest.approx(5.0)


def test_pwl_tri_state_flags():
    convex = PiecewiseLinear([(0.0, 0.0), (1.0, 1.0), (2.0, 4.0)])
    assert convex.convex_flag is True
    concave_kink = PiecewiseLinear([(0.0, 0.0), (1.0, 1.0), (2.0, 1.5), (3.0, 3.5)])
    assert concave_kink.convex_flag is False


def test_pwl_capped_domain():
    phi = PiecewiseLinear([(0.5, 0.2), (1.0, 1.0), (2.0, 4.0)], upper=2.0)
    assert phi.upper == 2.0
    assert phi(2.0) == 4.0
    assert phi(2.0000001) == INF
    assert phi.convex_flag is True  # slopes 0, 1.6, 3 and Phi(0) = Phi(0+)
    assert phi.ga_convex_flag is True


def test_pwl_from_text():
    text = """
    # knots
    0, -inf
    0.5, 0.2
    1.0, 1.0
    2.0, 4.0
    3.0, inf
    """
    phi = piecewise_linear_from_text(text)
    assert phi.at_zero == NEG_INF
    assert phi.upper == 3.0
    assert phi(1.0) == 1.0
    assert phi(1.5) == pytest.approx(2.5)


def test_pwl_from_text_rejects_garbage():
    with pytest.raises(ValueError):
        piecewise_linear_from_text("0.5, 0.3, 1.0\n")
    with pytest.raises(ValueError):
        piecewise_linear_from_text("# nothing\n")


def test_validate_flags_inadmissible_pwl():
    # exceeds 1 inside [0, 1]
    bad = PiecewiseLinear([(0.5, 1.5), (1.0, 2.0), (2.0, 3.0)])
    report = bad.validation
    assert not report.ok
    assert any(v.condition == "below_one_on_unit" for v in report.violations)
    # never exceeds 1 at all
    flat = PiecewiseLinear([(0.0, 0.0), (5.0, 0.5)])
    report = flat.validation
    assert not report.ok


DOWNWARD_JUMPS = [
    PiecewiseLinear([(0, 0), (1, 1), (2, 3), (2, 2.5), (3, 9)]),
    PiecewiseLinear([(0, 0), (1, 1), (2, 3), (2, 2.5), (2.0001, 3.1), (4, 9)]),
]


@pytest.mark.parametrize("phi", DOWNWARD_JUMPS, ids=lambda f: f.spec_string())
def test_validate_catches_a_drop_at_a_jump(phi):
    # Phi(2) = 3 but Phi(2+) = 2.5; no sample grid lands on the restart value
    report = phi.validation
    assert [v.condition for v in report.violations] == ["nondecreasing"]
    assert (report.violations[0].x, report.violations[0].value) == (2.0, 2.5)
    with pytest.raises(InvalidPhiError, match="nondecreasing"):
        orlicz_premium(phi, rv((1.0, 2.0)))


def _admissibility_oracle(phi):
    """The violated conditions seen on a dense sample: 0, each knot and the
    floats either side of it, 1, points of every piece from 1e-6 of its
    length on, and points past the last knot and past upper.  Phi > 1 is
    read from 1 + 1e-9 on: at 1 + ulp the interpolation can round to 1."""
    kx = sorted({0.0, 1.0} | {x for x, _ in phi.points})
    last = max(kx[-1], 1.0) + 3.0
    if phi.upper < INF:
        last = max(last, 2.0 * phi.upper + 1.0)
        kx = sorted(set(kx) | {phi.upper})
    xs = set(kx) | {math.nextafter(x, INF) for x in kx} | {math.nextafter(x, 0.0) for x in kx}
    for x0, x1 in zip(kx + [kx[-1]], kx[1:] + [last]):
        xs |= {x0 + t * (x1 - x0) for t in [1e-6, 1e-3] + np.linspace(0.0, 1.0, 41).tolist()}
    xs = sorted(x for x in xs if x >= 0.0)
    vals = [phi(x) for x in xs]
    bad = set()
    for x, v in zip(xs, vals):
        if x <= 1.0 and v > 1.0 + 1e-12:
            bad.add("below_one_on_unit")
        if x > 1.0 + 1e-9 and not v > 1.0:
            bad.add("above_one_beyond_unit")
    if any(v1 < v0 - 1e-12 for v0, v1 in zip(vals, vals[1:])):
        bad.add("nondecreasing")
    return bad


def _random_pwl(rng):
    # knots on a coarse lattice around a knot at 1, at most 1 up to x = 1
    # and at least 1 beyond, so that ties with 1, flat pieces and both
    # outcomes all happen
    n = int(rng.integers(1, 6))
    xs = sorted({1.0} | set(rng.choice(np.arange(0.0, 3.01, 0.25), n, replace=False).tolist()))
    low = np.arange(0.0, 1.01, 0.25)
    high = np.arange(1.0, 4.01, 0.25)
    ys = sorted(1.0 if x == 1.0 else float(rng.choice(low if x < 1.0 else high)) for x in xs)
    pts = []
    for x, y in zip(xs, ys):
        if rng.random() < 0.15:  # a jump up or down, left value first
            pts.append((x, y + float(rng.choice([-0.75, -0.25, 0.25, 0.75]))))
        pts.append((x, y))
    zero = rng.choice([None, None, None, 0.0, 1.25, -INF])
    upper = INF if rng.random() < 0.6 else xs[-1] + float(rng.choice([0.0, 0.5, 2.0]))
    return PiecewiseLinear(pts, value_at_zero=zero, upper=upper)


def test_validate_at_the_knots_matches_a_dense_oracle():
    rng = np.random.default_rng(47)
    outcomes = {True: 0, False: 0}
    for _ in range(600):
        phi = _random_pwl(rng)
        want = _admissibility_oracle(phi)
        got = {v.condition for v in phi.validation.violations}
        assert phi.validation.ok == (not want), (phi.spec_string(), got, want)
        # below a drop the sample can exceed 1 inside (0, 1) where the knots
        # check Phi(0) and Phi(1); the drop is reported either way
        assert got == want or "nondecreasing" in got & want, (phi.spec_string(), got, want)
        outcomes[not want] += 1
    assert min(outcomes.values()) >= 60, outcomes


# --- conjugates -------------------------------------------------------------


def _conjugate_oracle(phi, y, hi=1e4):
    # dense log-grid sup plus the kink at 1; ~1e-6 for bounded conjugates
    xs = np.sort(np.concatenate([[0.0, 1.0, 2.0], np.geomspace(1e-8, hi, 20001)]))
    best = -math.inf
    for x in xs:
        v = phi(float(x))
        if v == INF:
            break
        best = max(best, float(x) * y - v)
    return best


def test_power_conjugate_closed_form():
    phi = Power(2.0)
    assert conjugate(phi, 0.0) == 0.0
    assert conjugate(phi, 2.0) == pytest.approx(1.0, rel=1e-12, abs=0.0)
    for y in (0.5, 1.0, 3.0):
        assert conjugate(phi, y) == pytest.approx((y / 2.0) ** 2, rel=1e-12, abs=0.0)


def test_power_one_conjugate_is_indicator():
    phi = Power(1.0)
    assert conjugate(phi, 0.5) == 0.0
    assert conjugate(phi, 1.0) == 0.0
    assert conjugate(phi, 1.0000001) == INF


@pytest.mark.parametrize("y", [0.0, 0.1, 0.25, 0.5, 0.79, 0.8])
def test_expectile_conjugate_matches_grid(y):
    phi = Expectile(0.8)
    assert conjugate(phi, y) == pytest.approx(_conjugate_oracle(phi, y), abs=1e-6)


def test_expectile_conjugate_unbounded_beyond_upper_slope():
    assert conjugate(Expectile(0.8), 0.81) == INF


def test_kinked_conjugate_piecewise_values():
    # slopes a=1.5 above 1, b=0.5 below; Psi = b-1 below b, y-1 in [b, a]
    phi = LpqQuantile(1.5, 0.5, 1.0, 1.0)
    assert conjugate(phi, 0.2) == pytest.approx(-0.5)
    assert conjugate(phi, 1.0) == pytest.approx(0.0)
    assert conjugate(phi, 1.4) == pytest.approx(0.4)
    assert conjugate(phi, 1.6) == INF


def test_conjugate_requires_convexity_and_domain():
    with pytest.raises(NotConvexError):
        conjugate(QuantileStep(0.3), 1.0)
    with pytest.raises(DomainError):
        conjugate(Power(2.0), -0.5)


def test_convex_pwl_conjugate_matches_the_grid():
    phi = PiecewiseLinear([(0.0, 0.0), (1.0, 1.0), (2.0, 4.0)])
    for y in (0.3, 1.0, 2.5):
        assert conjugate(phi, y) == pytest.approx(_conjugate_oracle(phi, y), abs=1e-6)
    # beyond the terminal slope 3 the sup runs away
    assert conjugate(phi, 3.5) == INF


def test_capped_pwl_conjugate_skips_the_restart_row_at_upper():
    # the jump at upper = 2 restarts Phi at 1 only past the domain: Phi(2)
    # is 3, so the sup of 1.5 x - Phi(x) over [0, 2] is 0.5, at x = 1
    phi = PiecewiseLinear([(0.0, 0.0), (1.0, 1.0), (2.0, 3.0), (2.0, 1.0)], upper=2.0)
    assert phi.convex_flag is True and phi(2.0) == 3.0
    assert conjugate(phi, 1.5) == 0.5
    assert conjugate(phi, 4.0) == 5.0  # at upper: 4 * 2 - 3


@pytest.mark.parametrize(
    "phi",
    [
        Power(1.0),
        PiecewiseLinear([(0.0, 0.0), (1.0, 1.0), (2.0, 3.0)]),
        PiecewiseLinear([(0.0, 0.0), (1.0, 1.0), (2.0, 3.0)], upper=5.0),
    ],
    ids=lambda phi: phi.spec_string(),
)
def test_knotted_conjugate_at_zero_is_positive_zero(phi):
    # a tie goes to the earliest point, so the knot (0, 0) gives +0.0
    # where -Phi(0) alone would give -0.0
    assert math.copysign(1.0, conjugate(phi, 0.0)) == 1.0


def _conjugate_numeric(phi, y, x_cap=1e6):
    # 257 log-spaced points on (0, x_cap], 0 and the knots, then a golden
    # polish in log x around the best; +inf when the objective at x_cap
    # still exceeds the best interior value by more than 1 (linear growth)
    from orlicz.search import golden_max

    def obj(x):
        v = phi(x)
        return -math.inf if v == INF else x * y - v

    xs = [0.0] + list(np.geomspace(1e-9, x_cap, 257))
    xs.extend(x for x, _ in phi.points if 0 < x < x_cap)
    xs.sort()
    vals = [obj(x) for x in xs]
    if vals[-1] > max(vals[:-1]) + 1.0:
        return INF
    i = max(range(len(xs)), key=lambda k: (vals[k], -k))
    lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)]
    if lo > 0:
        _, v = golden_max(lambda t: obj(math.exp(t)), math.log(lo), math.log(hi), tol=1e-13)
    else:
        _, v = golden_max(obj, lo, hi, tol=1e-13)
    return max(v, vals[i])


CONJUGATE_YS = (0.0, 0.2, 0.5, 1.0, 1.7, 2.5)


@pytest.mark.parametrize(
    "phi",
    [
        PiecewiseLinear([(0.0, 0.0), (1.0, 1.0), (2.0, 4.0)]),
        PiecewiseLinear([(0.5, 0.25), (1.0, 1.0), (2.0, 3.0), (4.0, 9.0)]),
        PiecewiseLinear([(0.25, 0.1), (1.0, 1.0), (3.0, 5.0)]),
    ],
    ids=range(3),
)
def test_exact_pwl_conjugate_matches_the_numeric_search(phi):
    # the maximum over the knots and 0 against the 257-point search and polish
    assert phi.convex_flag is True
    end_slope = float(phi.derivative(np.array([phi.points[-1][0]]))[0])
    for y in CONJUGATE_YS + (end_slope,):
        if y <= end_slope:
            want = _conjugate_numeric(phi, y)
            assert conjugate(phi, y) == pytest.approx(want, rel=1e-12, abs=1e-12), y
    assert conjugate(phi, math.nextafter(end_slope, INF)) == INF


@pytest.mark.parametrize(
    "phi",
    [
        PiecewiseLinear([(0.0, 0.0), (1.0, 1.0), (2.0, 3.0)], upper=5.0),
        PiecewiseLinear([(0.5, 0.2), (1.0, 1.0), (2.0, 4.0)], upper=2.0),
        PiecewiseLinear([(0.5, 0.2), (1.0, 1.0), (2.0, 3.0), (2.0, 5.0)], upper=2.0),
    ],
    ids=range(3),
)
def test_capped_pwl_conjugate_is_finite_and_matches_the_numeric_search(phi):
    # beyond upper Phi is +inf, so the sup stops at x = upper for every y
    assert phi.convex_flag is True
    for y in CONJUGATE_YS + (3.0, 10.0, 1e3):
        got = conjugate(phi, y)
        assert got < INF
        assert got == pytest.approx(_conjugate_numeric(phi, y), rel=1e-12, abs=1e-12), y
    assert conjugate(phi, 1e3) == 1e3 * phi.upper - phi(phi.upper)


@pytest.mark.parametrize(
    "phi", [LpqQuantile(2.0, 0.0, 2.0, 1.0), LpqQuantile(1.5, 0.0, 1.5, 3.0)], ids=repr
)
def test_lpq_conjugate_without_loss_weight_has_a_closed_form(phi):
    # Phi == 1 on [0, 1] and 1 + a (x-1)^p beyond: Psi(y) = y - 1 + (p-1) a (y/(a p))^(p/(p-1))
    a, p = phi.a, phi.p
    for y in CONJUGATE_YS + (4.0,):
        want = y - 1.0 + (p - 1.0) * a * (y / (a * p)) ** (p / (p - 1.0))
        assert conjugate(phi, y) == want
        assert want == pytest.approx(_conjugate_numeric(phi, y), rel=1e-12, abs=1e-12), y


def test_lpq_conjugate_without_loss_weight_at_p_one_is_kinked():
    # b = 0, p = 1: slopes (a, 0) whatever q is
    for q in (1.0, 2.0):
        phi = LpqQuantile(2.0, 0.0, 1.0, q)
        assert [conjugate(phi, y) for y in (0.0, 0.5, 2.0, 2.5)] == [-1.0, -0.5, 1.0, INF]


def test_conjugate_needs_a_stated_closed_form():
    class NoConjugate(Power):
        conjugate = None

    assert OrliczFunction.conjugate is None
    with pytest.raises(NotImplementedError):
        conjugate(NoConjugate(2.0), 1.0)


CONVEX_CONJUGATES = [
    Power(1.0),
    Power(2.0),
    Power(3.5),
    Expectile(0.6),
    Expectile(0.8),
    LpQuantile(0.7, 1.0),
    LpqQuantile(1.5, 0.5, 1.0, 1.0),
    LpqQuantile(2.0, 0.0, 2.0, 1.0),
    LpqQuantile(2.0, 0.0, 1.0, 3.0),
    PiecewiseLinear([(0.0, 0.0), (1.0, 1.0), (2.0, 3.0), (4.0, 9.0)]),
    PiecewiseLinear([(0.5, 0.25), (1.0, 1.0), (2.0, 3.0), (4.0, 9.0)]),
    PiecewiseLinear([(0.0, 0.0), (1.0, 1.0), (2.0, 3.0)], upper=5.0),
    PiecewiseLinear([(0.5, 0.2), (1.0, 1.0), (2.0, 3.0), (2.0, 5.0)], upper=2.0),
]


@pytest.mark.parametrize("phi", CONVEX_CONJUGATES, ids=lambda f: f.spec_string())
def test_array_conjugate_is_the_scalar_calls_entry_by_entry(phi):
    # random y, the knot slopes and their neighbours, 0 and y past any end slope
    rng = np.random.default_rng(17)
    slopes = phi.derivative(np.array([0.0] + [x for x, _ in phi.points] + [1.0]))
    marks = [s for s in slopes.tolist() if s < INF]
    ys = np.concatenate(
        [
            rng.uniform(0.0, 5.0, 60),
            marks,
            [math.nextafter(s, INF) for s in marks],
            [math.nextafter(s, 0.0) for s in marks if s > 0.0],
            [0.0, 1e3, 1e300],
        ]
    )
    ys = ys[: 6 * (len(ys) // 6)].reshape(2, 3, -1)  # any shape, kept
    got = conjugate(phi, ys)
    assert isinstance(got, np.ndarray) and got.shape == ys.shape
    want = [conjugate(phi, y) for y in ys.ravel().tolist()]
    assert got.ravel().tolist() == want
    assert all(type(v) is float for v in want)
    assert conjugate(phi, ys.tolist()).tolist() == got.tolist()  # a nested list is an array too


@pytest.mark.parametrize(
    "phi",
    [phi for phi in CONVEX_CONJUGATES if phi.points and phi.upper == INF],
    ids=lambda f: f.spec_string(),
)
def test_array_conjugate_is_infinite_past_the_end_slope(phi):
    # with upper = inf the sup runs away past the largest slope
    end = float(np.max(phi.derivative(np.array([x for x, _ in phi.points]))))
    got = conjugate(phi, np.array([0.0, end, math.nextafter(end, INF), 2.0 * end + 1.0, INF]))
    assert got[:2].max() < INF
    assert got[2:].tolist() == [INF, INF, INF]


@pytest.mark.parametrize(
    "phi", [Power(2.0), Power(3.5), LpqQuantile(2.0, 0.0, 2.0, 1.0)], ids=lambda f: f.spec_string()
)
def test_conjugate_past_the_float_range_is_infinite(phi):
    # Python's float power raises OverflowError where the closed form passes
    # the float range; Psi grows without bound there, so it reads +inf
    big = [1e300, 1e308, 1.7976931348623157e308]
    for y in big:
        assert conjugate(phi, y) == INF
    ys = np.array([0.0, 1.5, 1e3] + big + [INF])
    got = conjugate(phi, ys)
    assert got.tolist() == [conjugate(phi, y) for y in ys.tolist()]
    assert got[3:].tolist() == [INF] * 4 and (got[:3] < INF).all()


def test_array_conjugate_rejects_a_single_negative_entry():
    ys = np.full((3, 4), 0.5)
    ys[2, 1] = -1e-300
    for phi in (Expectile(0.8), Power(2.0), PiecewiseLinear([(0.0, 0.0), (1.0, 1.0)], upper=3.0)):
        with pytest.raises(DomainError, match="-1e-300"):
            conjugate(phi, ys)
    # nan is no negative entry: it stays nan, as a scalar call gives
    assert math.isnan(conjugate(Expectile(0.8), np.array([np.nan, 0.5]))[0])
    assert math.isnan(conjugate(Expectile(0.8), math.nan))


@pytest.mark.parametrize(
    "phi", [phi for phi in CONVEX_CONJUGATES if phi.points], ids=lambda f: f.spec_string()
)
def test_knotted_conjugate_is_the_maximum_over_its_sup_points(phi):
    # the knotted closed form against Python's max over (x, Phi(x)) at the
    # knots below upper, at a finite upper and at 0, one y at a time
    rows = [(x, v) for x, v in phi.points if x < phi.upper]
    if phi.upper < INF:
        rows.append((phi.upper, phi(phi.upper)))
    rows.append((0.0, phi.at_zero))
    slopes = phi.derivative(np.array([x for x, _ in phi.points]))
    end = float(slopes[slopes < INF].max())  # the largest slope below upper
    for y in np.random.default_rng(18).uniform(0.0, end, 200).tolist() + [0.0, end]:
        assert conjugate(phi, y) == max([x * y - v for x, v in rows])


# --- right derivative -------------------------------------------------------

CONVEX_PWL = PiecewiseLinear([(0.5, 0.25), (1.0, 1.0), (2.0, 3.0), (4.0, 9.0)])
JUMP_PWL = PiecewiseLinear([(1.0, 0.5), (1.0, 1.5), (2.0, 3.0)], value_at_zero=NEG_INF, upper=5.0)
DERIVATIVE_FAMILIES = ALL_FAMILIES + [
    Power(1.5),
    LpQuantile(0.7, 0.5),
    LpQuantile(0.7, 1.0),
    LpqQuantile(1.5, 0.5, 1.0, 1.0),
    LpqQuantile(2.0, 0.0, 2.0, 1.0),
    GeometricExpectile(2.0, 0.0),
    CONVEX_PWL,
    JUMP_PWL,
]
# kinks, knots and jumps of the families above; the smooth-point check keeps off them
NONSMOOTH = (0.0, 0.5, 1.0, 2.0, 4.0, 5.0)


@pytest.mark.parametrize("phi", DERIVATIVE_FAMILIES + [LpQuantile(0.3, 1.5)], ids=repr)
def test_at_zero_is_phi_of_zero(phi):
    assert phi.at_zero == phi(0.0) == phi.eval_array(np.zeros(1))[0]


@pytest.mark.parametrize("phi", DERIVATIVE_FAMILIES, ids=lambda f: f.spec_string())
def test_derivative_matches_one_sided_differences_away_from_kinks(phi):
    grid = np.geomspace(0.03, 7.0, 41)
    xs = np.array([x for x in grid if min(abs(x - k) for k in NONSMOOTH) > 1e-3 and x < phi.upper])
    got = phi.derivative(xs)
    assert got.shape == xs.shape
    for x, d in zip(xs, got):
        x = float(x)
        h = 1e-7 * x
        right = (phi(x + h) - phi(x)) / h
        left = (phi(x) - phi(x - h)) / h
        assert d == pytest.approx(right, rel=1e-5, abs=1e-9), x
        assert d == pytest.approx(left, rel=1e-5, abs=1e-9), x


@pytest.mark.parametrize(
    "phi,x,want",
    [
        (GeometricMean(), 0.0, INF),
        (GeometricMean(), 1.0, 1.0),
        (Power(0.5), 0.0, INF),
        (Power(1.0), 0.0, 1.0),
        (Power(2.0), 0.0, 0.0),
        (Power(3.0), 1.0, 3.0),
        (QuantileStep(0.3), 1.0, INF),
        (QuantileStep(0.3), 0.0, 0.0),
        (Expectile(0.8), 1.0, 0.8),
        (Expectile(0.8), 0.0, 1.0 - 0.8),
        (Expectile(0.3), 1.0, 0.3),
        (LpQuantile(0.7, 1.0), 1.0, 0.7),
        (LpQuantile(0.7, 2.0), 1.0, 0.0),
        (LpQuantile(0.7, 0.5), 1.0, INF),
        (LpqQuantile(1.5, 0.5, 1.0, 1.0), 1.0, 1.5),
        (LpqQuantile(1.5, 0.5, 1.0, 1.0), 0.0, 0.5),
        (LpqQuantile(2.0, 0.0, 2.0, 1.0), 1.0, 0.0),
        (LpqQuantile(2.0, 0.0, 2.0, 1.0), 0.5, 0.0),
        (LpqQuantile(1.0, 1.0, 2.0, 1.0), 0.0, 1.0),
        (GeometricExpectile(2.0, 1.0), 1.0, 2.0),
        (GeometricExpectile(2.0, 1.0), 0.0, INF),
        (GeometricExpectile(2.0, 0.0), 0.0, 0.0),
        (GeometricExpectile(2.0, 0.0), 0.5, 0.0),
        (CONVEX_PWL, 0.0, 0.0),  # flat below the first knot
        (CONVEX_PWL, 0.25, 0.0),
        (CONVEX_PWL, 0.5, 1.5),  # each knot takes the slope on its right
        (CONVEX_PWL, 1.0, 2.0),
        (CONVEX_PWL, 2.0, 3.0),
        (CONVEX_PWL, 4.0, 3.0),  # the last slope extends beyond the last knot
        (JUMP_PWL, 0.0, INF),  # Phi(0) = -inf below Phi(0+)
        (JUMP_PWL, 0.5, 0.0),
        (JUMP_PWL, 1.0, INF),  # upward jump
        (JUMP_PWL, 2.0, 1.5),
        (JUMP_PWL, 5.0, INF),  # the domain ends at upper
    ],
    ids=lambda v: v.spec_string() if hasattr(v, "spec_string") else repr(v),
)
def test_derivative_takes_the_right_slope_at_kinks_and_knots(phi, x, want):
    assert phi.derivative(np.array([x]))[0] == want
    if want < INF:
        h = 1e-7
        assert (phi(x + h) - phi(x)) / h == pytest.approx(want, rel=1e-5, abs=1e-6)


def test_derivative_is_no_claim_on_the_base_class():
    assert OrliczFunction.derivative is None
    assert Power(2.0).derivative(np.array([[1.0, 2.0]])).shape == (1, 2)


# --- first-order point ------------------------------------------------------

CAPPED_PWL = PiecewiseLinear([(0.0, 0.0), (1.0, 1.0), (2.0, 3.0)], upper=5.0)
FIRST_ORDER_FAMILIES = [
    Power(0.5),
    Power(1.0),
    Power(1.5),
    Power(3.0),
    Power(50.0),
    Expectile(0.3),
    Expectile(0.8),
    LpQuantile(0.7, 1.0),
    LpqQuantile(1.5, 0.5, 1.0, 1.0),
    LpqQuantile(1.0, 0.0, 1.0, 1.0),
    PiecewiseLinear([(0.0, 0.0), (1.0, 1.0), (2.0, 3.0), (4.0, 9.0)]),
    CONVEX_PWL,  # flat up to its first knot at 0.5
    CAPPED_PWL,
]


@pytest.mark.parametrize("geometric", [False, True], ids=["arith", "geom"])
@pytest.mark.parametrize("phi", FIRST_ORDER_FAMILIES, ids=lambda f: f.spec_string())
def test_first_order_point_is_the_least_x_that_reaches_s(phi, geometric):
    # Phi'_+(x) (x Phi'_+(x) when geometric) reaches s at the point and
    # nowhere below it, and reaches no s where the point is +inf
    def reach(x):
        d = phi.derivative(x)
        return x * d if geometric else d

    kinks = [getattr(phi, name, 1.0) for name in ("a", "b", "p")]
    # a pwl's slopes, and each knot times the slope on its right, are its kinks
    knots = np.array([x for x, _ in phi.points])
    slopes = phi.derivative(knots)
    kinks += [v for v in np.concatenate([slopes, knots * slopes]).tolist() if v < INF]
    s = np.concatenate([[0.0], kinks, np.random.default_rng(89).uniform(0.0, 4.0, 200)])
    x = phi.first_order_point(s.reshape(2, -1), geometric).ravel()
    assert x.shape == s.shape
    assert (x[s == 0.0] == 0.0).all()
    hit = (s > 0.0) & (x < INF)
    assert (reach(x[hit]) >= s[hit] * (1.0 - 1e-12)).all()
    inside = hit & (x > 0.0)
    assert (reach(x[inside] * (1.0 - 1e-9)) < s[inside]).all()
    assert (reach(np.full((x == INF).sum(), 1e300)) < s[x == INF]).all()


@pytest.mark.parametrize(
    "phi",
    [
        GeometricMean(),
        QuantileStep(0.3),
        LpQuantile(0.7, 2.0),
        LpqQuantile(1.0, 1.0, 2.0, 1.0),
        LpqQuantile(2.0, 0.0, 2.0, 1.0),
        GeometricExpectile(2.0, 1.0),
    ],
    ids=lambda f: f.spec_string(),
)
def test_first_order_point_is_no_claim_without_a_closed_form(phi):
    # the base class states a point only for a Phi with a piece table
    assert phi._pieces is None
    assert phi.first_order_point is None


@pytest.mark.parametrize(
    "phi,s,arith,geom",
    [
        # slopes 0 below 0.5, then 1.5, 2, 3: x Phi'_+(x) jumps at each knot
        (CONVEX_PWL, 0.1, 0.5, 0.5),  # 0.5 * 1.5 >= 0.1 at the first knot
        (CONVEX_PWL, 1.5, 0.5, 1.0),  # 1.5 x < 1.5 below 1
        (CONVEX_PWL, 2.5, 2.0, 1.25),  # 2 x = 2.5 inside [1, 2)
        (CONVEX_PWL, 3.5, INF, 1.75),  # past the end slope; 2 x = 3.5 inside [1, 2)
        (CONVEX_PWL, 30.0, INF, 10.0),  # 3 x = 30 beyond the last knot
        # capped at 5: Phi'_+ is +inf from upper on, so upper reaches every s
        (CAPPED_PWL, 1.5, 1.0, 1.0),
        (CAPPED_PWL, 2.5, 5.0, 1.25),
        (CAPPED_PWL, 9.0, 5.0, 4.5),
        (CAPPED_PWL, 11.0, 5.0, 5.0),
    ],
    ids=lambda v: v.spec_string() if hasattr(v, "spec_string") else repr(v),
)
def test_pwl_first_order_point_in_closed_form(phi, s, arith, geom):
    assert phi.first_order_point(np.array([s]), False)[0] == arith
    assert phi.first_order_point(np.array([s]), True)[0] == geom


@pytest.mark.parametrize(
    "phi,want",
    [(GeometricMean(), (1.0, 1.0)), (GeometricExpectile(2.0, 1.0), (1.0, 2.0)),
     (GeometricExpectile(3.0, 0.5), (0.5, 3.0))],
    ids=lambda v: v.spec_string() if hasattr(v, "spec_string") else repr(v),
)
def test_log_slopes_state_phi_of_e_to_the_y(phi, want):
    # (b, a) with Phi(e^y) = 1 + a y_+ - b y_-
    assert phi.log_slopes == want
    b, a = want
    for y in (-3.0, -0.5, 0.0, 0.25, 2.0):
        assert phi(math.exp(y)) == pytest.approx(1.0 + a * max(y, 0.0) - b * max(-y, 0.0), abs=1e-14)


@pytest.mark.parametrize(
    "phi", [Power(2.0), Expectile(0.8), CONVEX_PWL, QuantileStep(0.3)], ids=lambda f: f.spec_string()
)
def test_log_slopes_is_no_claim_elsewhere(phi):
    assert OrliczFunction.log_slopes is None
    assert phi.log_slopes is None


def test_geometric_mean_is_the_geometric_expectile_at_a_equal_b_one():
    gm, ge = GeometricMean(), GeometricExpectile(1.0, 1.0)
    rng = np.random.default_rng(28)
    xs = np.concatenate(
        [[0.0, 5e-324, 1e-310, 1.0, math.nextafter(1.0, 2.0), 1e300, INF],
         rng.uniform(0.0, 3.0, 10_000), 10.0 ** rng.uniform(-300.0, 300.0, 10_000)]
    )
    assert [gm(x) for x in xs.tolist()] == [ge(x) for x in xs.tolist()]
    assert gm.eval_array(xs).tolist() == ge.eval_array(xs).tolist()
    assert gm.derivative(xs).tolist() == ge.derivative(xs).tolist()
    facts = ("at_zero", "convex_flag", "ga_convex_flag", "log_slopes", "cash_behavior")
    assert [getattr(gm, f) for f in facts] == [getattr(ge, f) for f in facts]
    # every a = b takes the geometric mean's closed form; past a = 1 the
    # moment that checks it differs, and so can its ulp nudges
    for _ in range(200):
        n = int(rng.integers(2, 9))
        X = rv(rng.lognormal(0.0, 1.0, n).tolist(), rng.dirichlet(np.ones(n)).tolist())
        want = orlicz_premium(gm, X)
        got = orlicz_premium(ge, X)
        assert (got.value, got.route) == (want.value, "closed_form:geometric_expectile")
        cols = (X.values_array(), X.space.probs_array())
        closed = premium._log_branch(gm, X, *cols)
        assert premium._log_branch(GeometricExpectile(3.0, 3.0), X, *cols) == closed


EDGE_XS = np.array([0.0, 5e-324, 1e-310, 1.0, math.nextafter(1.0, 2.0), 1e300, 1.7e308, INF])


@pytest.mark.parametrize(
    "phi",
    ALL_FAMILIES
    + [
        Power(0.01),
        LpQuantile(0.7, 1.5),
        LpqQuantile(1.5, 0.5, 2.0, 1.0),
        LpqQuantile(1.5, 0.5, 1.0, 1.0),
        GeometricExpectile(2.0, 0.0),
        PiecewiseLinear([(0.0, 0.0), (0.5, 0.8), (1.0, 1.0), (2.0, 3.0)]),
        CAPPED_PWL,
    ],
    ids=lambda f: f.spec_string(),
)
def test_facts_at_the_ends_of_the_float_range_warn_nothing(phi):
    # +-inf past the float range is the right value, and no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phi.eval_array(EDGE_XS)
        phi.derivative(EDGE_XS)
        if phi.first_order_point is not None:
            phi.first_order_point(EDGE_XS, False)
            phi.first_order_point(EDGE_XS, True)

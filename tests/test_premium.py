"""Premium solver: closed forms vs generic bisection vs independent oracles."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orlicz import premium
from orlicz.base import InvalidPhiError
from orlicz.functions import (
    Expectile,
    GeometricExpectile,
    GeometricMean,
    LpQuantile,
    LpqQuantile,
    PiecewiseLinear,
    Power,
    QuantileStep,
)
from orlicz.premium import (
    _left_quantile,
    cash_additivity_probe,
    orlicz_premium,
    phi_moment,
    premium_of_distribution,
)
from orlicz.prob import DiscreteDistribution, distribution_of, quantile, rv

# --- independent oracles (no code shared with the solver) -------------------


def oracle_gm(values, probs):
    return math.exp(math.fsum(p * math.log(v) for v, p in zip(values, probs)))


def oracle_power(values, probs, p):
    return math.fsum(pr * v**p for v, pr in zip(values, probs)) ** (1.0 / p)


def oracle_quantile(values, probs, alpha):
    pairs = sorted(zip(values, probs))
    acc = 0.0
    for v, pr in pairs:
        acc += pr
        if acc >= alpha - 1e-15:
            return v
    return pairs[-1][0]


def oracle_asymmetric_root(values, probs, alpha, p):
    # bisection on the signed tail-moment balance; brackets [min, max]
    def h(k):
        up = math.fsum(pr * max(v - k, 0.0) ** p for v, pr in zip(values, probs))
        dn = math.fsum(pr * max(k - v, 0.0) ** p for v, pr in zip(values, probs))
        return alpha * up - (1.0 - alpha) * dn

    lo, hi = min(values), max(values)
    if lo == hi:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if h(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _random_instance(rng, n_max=6):
    n = int(rng.integers(2, n_max + 1))
    values = tuple(float(v) for v in rng.uniform(0.05, 5.0, n))
    raw = rng.dirichlet(np.ones(n))
    probs = tuple(float(p) for p in raw)
    return values, probs


def test_generic_route_matches_gm_oracle():
    rng = np.random.default_rng(11)
    for _ in range(200):
        values, probs = _random_instance(rng)
        X = rv(values, probs)
        got = orlicz_premium(GeometricMean(), X, route="generic").value
        want = oracle_gm(values, probs)
        assert got == pytest.approx(want, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.0])
def test_generic_route_matches_power_oracle(p):
    rng = np.random.default_rng(13)
    for _ in range(100):
        values, probs = _random_instance(rng)
        X = rv(values, probs)
        got = orlicz_premium(Power(p), X, route="generic").value
        assert got == pytest.approx(oracle_power(values, probs, p), rel=1e-9, abs=0.0)


def test_fast_paths_match_generic():
    rng = np.random.default_rng(17)
    families = [
        GeometricMean(),
        Power(2.0),
        QuantileStep(0.3),
        Expectile(0.8),
        Expectile(0.3),
        LpQuantile(0.7, 2.0),
        LpqQuantile(1.0, 1.0, 2.0, 1.0),
        GeometricExpectile(2.0, 1.0),
    ]
    for i in range(160):
        values, probs = _random_instance(rng)
        X = rv(values, probs)
        phi = families[i % len(families)]
        fast = orlicz_premium(phi, X).value
        slow = orlicz_premium(phi, X, route="generic").value
        assert fast == pytest.approx(slow, rel=1e-8, abs=0.0), phi.spec_string()


def test_expectile_fast_path_matches_bisection_oracle():
    rng = np.random.default_rng(19)
    for _ in range(100):
        values, probs = _random_instance(rng)
        alpha = float(rng.uniform(0.05, 0.95))
        got = orlicz_premium(Expectile(alpha), rv(values, probs)).value
        want = oracle_asymmetric_root(values, probs, alpha, 1.0)
        assert got == pytest.approx(want, rel=1e-10, abs=0.0)


def test_lp_quantile_p2_matches_bisection_oracle():
    rng = np.random.default_rng(23)
    for _ in range(100):
        values, probs = _random_instance(rng)
        alpha = float(rng.uniform(0.1, 0.9))
        got = orlicz_premium(LpQuantile(alpha, 2.0), rv(values, probs)).value
        want = oracle_asymmetric_root(values, probs, alpha, 2.0)
        assert got == pytest.approx(want, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_lpq_with_equal_exponents_is_the_lp_quantile(p):
    # a*E[((X-k)_+/k)^p] <= b*E[((k-X)_+/k)^p] times k^p: level a/(a+b)
    rng = np.random.default_rng(int(10 * p))
    for _ in range(60):
        values, probs = _random_instance(rng, n_max=9)
        a, b = (float(w) for w in rng.uniform(0.1, 4.0, 2))
        X = rv(values, probs)
        lpq, lp = LpqQuantile(a, b, p, p), LpQuantile(a / (a + b), p)
        # both solvers weigh by (a/(a+b), 1 - a/(a+b)) and run one arithmetic
        solved = [premium._two_branch(phi, X, X.values_array(), X.space.probs_array(), 1e-10)[0]
                  for phi in (lpq, lp)]
        assert solved[0] == solved[1], (a, b, values, probs)
        # _finish reads each family's own Phi, whose rounding near g = 1 may
        # nudge one value up by ulps and not the other
        got, want = orlicz_premium(lpq, X), orlicz_premium(lp, X)
        assert got.value == pytest.approx(want.value, rel=1e-12, abs=0.0), (a, b, values, probs)
        if got.nudges == want.nudges == 0:
            assert got.value == want.value, (a, b, values, probs)
        # p = 1.5 bisects the scaled inequality; p in {1, 2} solves per segment
        assert got.route == ("bisect:" if p == 1.5 else "closed_form:") + "lpq_quantile"


def test_zero_loss_weight_gives_the_essential_supremum():
    # dyadic probabilities: every order of summing them gives exactly 1
    rng = np.random.default_rng(37)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        cuts = np.sort(rng.choice(np.arange(1, 64), n - 1, replace=False))
        probs = (np.diff(np.concatenate(([0], cuts, [64]))) / 64.0).tolist()
        values = rng.uniform(0.0, 5.0, n).round(3).tolist()
        if n > 1:
            values[0] = 0.0
        X = rv(values, probs)
        a, p, q = float(rng.uniform(0.1, 4.0)), float(rng.uniform(1.0, 3.0)), 2.0
        for phi in (LpqQuantile(a, 0.0, p, q), LpqQuantile(a, 0.0, p, p), GeometricExpectile(a, 0.0)):
            res = orlicz_premium(phi, X)
            assert res.value == max(values), (phi, values, probs)
            assert res.g_at_value == 1.0


def test_quantile_premium_is_left_quantile():
    X = rv((1.0, 2.0, 3.0), (0.3, 0.3, 0.4))
    assert orlicz_premium(QuantileStep(0.3), X).value == 1.0
    assert orlicz_premium(QuantileStep(0.31), X).value == 2.0
    assert orlicz_premium(QuantileStep(1.0), X).value == 3.0


def test_quantile_premium_homogeneous_at_small_and_large_scale():
    # close atoms must not merge: at 1e-6 they lie 5e-13 apart
    assert orlicz_premium(QuantileStep(0.9), rv((1e-6, 1.0000005e-6))).value == 1.0000005e-6
    values = (1.0, 1.0000005, 1.0000001, 2.0, 1.5)
    for scale in (1e-6, 1e6):
        X = rv([scale * v for v in values])
        for alpha in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
            want = scale * orlicz_premium(QuantileStep(alpha), rv(values)).value
            got = orlicz_premium(QuantileStep(alpha), X).value
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), (scale, alpha)


def _weighted_draws():
    # lognormal draws on both sides of VECTOR_MIN, and rounded
    # uniform ones with ties, each with normalized uniform(0.5, 1.5) weights
    rng = np.random.default_rng(5)
    samples = [rng.lognormal(0.0, 1.5, n) for n in (1, 2, 5, 8, 63, 500)]
    samples += [np.round(rng.uniform(0.0, 3.0, n), 1) for n in (6, 40, 400)]
    for values in samples:
        w = rng.uniform(0.5, 1.5, values.size)
        yield rv(values.tolist(), (w / w.sum()).tolist())


def test_quantile_route_reads_the_law_to_the_bit():
    # from VECTOR_MIN outcomes on the route skips the
    # DiscreteDistribution; sizes on both sides of it, with and without
    # ties.  _finish may still nudge the premium by ulps, so compare before it
    for X in _weighted_draws():
        law = distribution_of(X)
        for alpha in (0.001, 0.25, 0.5, 0.9137331, 1.0):
            assert _left_quantile(X, alpha) == quantile(law, alpha)


@pytest.mark.parametrize(
    "phi",
    [QuantileStep(1.0), LpqQuantile(2.0, 0.0, 2.0, 1.0), GeometricExpectile(2.0, 0.0)],
    ids=lambda f: f.spec_string(),
)
def test_essential_sup_is_not_nudged_past_max_x(phi):
    # Phi(X/k) <= 1 for every k >= max X, so a moment above 1 there is the
    # rounding of the sum of the probabilities (1 + 2.2e-16 on the n = 63
    # and the tied n = 6 draws), and no ulp nudge could cure it
    for X in _weighted_draws():
        res = orlicz_premium(phi, X)
        assert res.value == max(X.values)
        assert res.bracket == (res.value, res.value)
        assert res.g_at_value == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize(
    "phi",
    [Expectile(0.8), LpQuantile(0.7, 1.5), LpqQuantile(1.5, 0.5, 2.0, 1.0), GeometricExpectile(2.0, 1.0)],
    ids=lambda f: f.spec_string(),
)
def test_dedicated_routes_return_feasible_values_at_size(phi):
    # at 1e4 lognormal points the expectile root and the dot-product
    # moment disagree by about 1,600 ulps (g = 1 + 6e-14 at the root for
    # seed 0), more than any fixed number of nudges covers
    for seed in (0, 1, 2):
        X = rv(np.random.default_rng(seed).lognormal(0.0, 1.5, 10**4).tolist())
        res = orlicz_premium(phi, X)
        assert res.g_at_value <= 1.0
        assert res.g_at_value == phi_moment(phi, X.values_array(), X.space.probs_array(), res.value)
        assert res.value == pytest.approx(orlicz_premium(phi, X, route="generic").value, rel=1e-9, abs=0.0)


def test_nudged_value_is_the_least_feasible_float():
    # the gallop overshoots the first feasible float by up to its last
    # step; the bisection after it leaves an infeasible float just below
    X = rv(np.random.default_rng(0).lognormal(0.0, 1.5, 10**4).tolist())
    res = orlicz_premium(Expectile(0.8), X)
    below = math.nextafter(res.value, 0.0)
    assert res.g_at_value <= 1.0
    assert phi_moment(Expectile(0.8), X.values_array(), X.space.probs_array(), below) > 1.0


def test_nudges_count_the_moments_after_the_first(monkeypatch):
    # every phi_moment call of a closed-form route is _finish's: the first
    # at the closed-form value, then one per gallop or bisection step
    calls = []

    def counted(*args):
        calls.append(args[-1])
        return phi_moment(*args)

    X = rv(np.random.default_rng(0).lognormal(0.0, 1.5, 10**5))
    monkeypatch.setattr(premium, "phi_moment", counted)
    res = orlicz_premium(Expectile(0.8), X)
    assert res.route == "closed_form:expectile"
    assert res.nudges == len(calls) - 1 > 0
    assert res.iterations == 0
    assert orlicz_premium(Power(2.0), rv([1.0, 2.0])).nudges == 0


@pytest.mark.parametrize(
    "phi", [LpQuantile(0.7, 1.5), LpqQuantile(1.5, 0.5, 2.0, 1.0)], ids=lambda f: f.spec_string()
)
def test_two_branch_bisections_report_their_steps_and_bracket(phi):
    X = rv(np.random.default_rng(0).lognormal(0.0, 1.0, 50).tolist())
    res = orlicz_premium(phi, X)
    lo, hi = res.bracket
    assert res.iterations > 0
    assert lo < hi
    assert lo <= res.value <= hi
    assert hi - lo <= 1e-10 * hi
    assert phi_moment(phi, X.values_array(), X.space.probs_array(), lo) > 1.0


@pytest.mark.parametrize(
    "phi", [Expectile(0.8), LpQuantile(0.7, 2.0), LpqQuantile(2.0, 0.0, 2.0, 1.0)],
    ids=lambda f: f.spec_string(),
)
def test_two_branch_closed_forms_report_no_steps(phi):
    res = orlicz_premium(phi, rv((0.3, 1.2, 2.6, 4.0)))
    assert res.iterations == 0
    assert res.bracket == (res.value, res.value)
    assert res.route.startswith("closed_form:")


@pytest.mark.parametrize(
    "phi, route",
    [
        (LpQuantile(0.7, 1.5), "bisect:lp_quantile"),
        (LpqQuantile(1.5, 0.5, 1.5, 1.5), "bisect:lpq_quantile"),
        (LpqQuantile(1.5, 0.5, 2.0, 1.0), "bisect:lpq_quantile"),
    ],
    ids=lambda v: v if isinstance(v, str) else v.spec_string(),
)
def test_two_branch_bisections_are_labelled_bisect(phi, route):
    res = orlicz_premium(phi, rv((0.3, 1.2, 2.6, 4.0)))
    assert res.route == route
    assert res.iterations > 0


HOMOGENEITY_FAMILIES = [
    GeometricMean(),
    Power(0.5),
    Power(2.0),
    QuantileStep(0.7),
    Expectile(0.8),
    LpQuantile(0.7, 1.5),
    LpQuantile(0.7, 2.0),
    LpqQuantile(1.5, 0.5, 2.0, 1.0),
    LpqQuantile(1.5, 0.5, 1.0, 2.0),
    GeometricExpectile(2.0, 1.0),
    PiecewiseLinear([(0.5, 0.25), (1.0, 1.0), (2.0, 3.0), (4.0, 9.0)]),
]


@pytest.mark.parametrize("scale", [1e-6, 1e6])
@pytest.mark.parametrize("route", ["auto", "generic"])
@pytest.mark.parametrize("phi", HOMOGENEITY_FAMILIES, ids=lambda f: f.spec_string())
def test_positive_homogeneity_holds_to_tol_at_every_scale(phi, route, scale):
    # tol is relative: H(cX) and c H(X) both lie within tol of the truth;
    # a stopping width absolute below 1 would leave errors up to 3.8e-5 at 1e-6
    tol = 1e-10
    values = np.random.default_rng(0).lognormal(0.0, 1.5, 50)
    base = orlicz_premium(phi, rv(values.tolist()), tol=tol, route=route).value
    got = orlicz_premium(phi, rv((scale * values).tolist()), tol=tol, route=route).value
    assert got == pytest.approx(scale * base, rel=2.0 * tol, abs=0.0)


@pytest.mark.parametrize(
    "phi", [Expectile(0.8), LpQuantile(0.5, 2.0), LpQuantile(0.7, 2.0)], ids=lambda f: f.spec_string()
)
@pytest.mark.parametrize("shift", [600, -600])
def test_exact_lp_quantile_is_homogeneous_to_the_bit_past_squares_that_overflow(phi, shift):
    # at 2**600 the squares of the atoms would overflow, at 2**-600 they
    # would underflow; the walk first scales every atom by a power of two,
    # which changes no bit
    values, probs = [1.0, 3.0, 4.0, 7.0], [0.1, 0.4, 0.3, 0.2]
    base = orlicz_premium(phi, rv(values, probs))
    scaled = orlicz_premium(phi, rv([math.ldexp(v, shift) for v in values], probs))
    assert scaled.value == math.ldexp(base.value, shift)
    assert scaled.g_at_value == base.g_at_value


def test_lp2_premium_past_squares_that_overflow():
    # 2e154 ** 2 overflows: the unscaled walk read h as nan and returned max X
    tol = 1e-10
    res = orlicz_premium(LpQuantile(0.5, 2.0), rv((1.0, 2e154)), tol=tol)
    assert res.value == pytest.approx(1e154, rel=tol, abs=0.0)
    assert res.g_at_value <= 1.0
    # (2 - k)^2 + (3 - k)^2 = k^2 on [0, 2] in units of 1e154; the midpoint
    # of two atoms, whose squares at 1e-200 underflow unless scaled up
    for values, want in (((1.0, 2e154, 3e154), (5.0 - 12.0**0.5) * 1e154),
                         ((2.0**600, 2.0**601), 1.5 * 2.0**600),
                         ((1e-200, 2e-200), 1.5e-200)):
        res = orlicz_premium(LpQuantile(0.5, 2.0), rv(values), tol=tol)
        assert res.value == pytest.approx(want, rel=tol, abs=0.0)
        assert res.g_at_value <= 1.0
        assert res.nudges == 0


BISECTED_TWO_BRANCH = [
    LpQuantile(0.5, 1.5),
    LpQuantile(0.5, 3.0),
    LpqQuantile(1.5, 0.5, 2.0, 1.0),
    LpqQuantile(1.0, 1.0, 1.0, 2.0),
]


@pytest.mark.parametrize("phi", BISECTED_TWO_BRANCH, ids=lambda f: f.spec_string())
def test_bisected_two_branch_premium_is_homogeneous_to_the_bit_at_every_scale(phi):
    # the bisection reads X only through X/k, so scaling X by a power of two
    # scales every midpoint and leaves every ratio, hence every bit, alone
    rng = np.random.default_rng(41)
    for _ in range(20):
        values, probs = _random_instance(rng, n_max=9)
        base = orlicz_premium(phi, rv(values, probs))
        assert base.route.startswith("bisect:")
        for shift in (600, -600):
            scaled = orlicz_premium(phi, rv([math.ldexp(v, shift) for v in values], probs))
            assert scaled.value == math.ldexp(base.value, shift), (shift, values, probs)


# reference roots: the midpoint of two equal atoms at level 1/2, and for the
# three-atom law a 60-digit decimal bisection of the root equation
@pytest.mark.parametrize(
    "phi, values, want",
    [
        (LpQuantile(0.5, 3.0), (1.0, 2e154, 3e154), 1.5087799017242918e154),
        (LpQuantile(0.5, 1.5), (1.0, 2e154, 3e154), 1.5753283808818356e154),
        (LpQuantile(0.5, 3.0), (2.0**600, 2.0**601), 1.5 * 2.0**600),
        (LpQuantile(0.5, 1.5), (2.0**600, 2.0**601), 1.5 * 2.0**600),
        (LpQuantile(0.5, 3.0), (1e-200, 3e-200), 2e-200),
        (LpQuantile(0.5, 1.5), (1e-200, 3e-200), 2e-200),
    ],
)
def test_bisected_lp_quantile_needs_no_nudge_at_either_end_of_the_float_range(phi, values, want):
    # (X - k)^3 at 1e154 would overflow; the scaled inequality reads X only
    # through X/k, stays finite, and leaves _finish nothing to mend
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = orlicz_premium(phi, rv(values))
    assert res.nudges == 0
    assert res.iterations <= 50
    assert res.g_at_value <= 1.0
    assert res.value == pytest.approx(want, rel=1e-12, abs=0.0)


def test_degenerate_zero_mass_with_unbounded_below_phi():
    X = rv((0.0, 2.0))
    res = orlicz_premium(GeometricMean(), X)
    assert res.value == 0.0
    assert res.route == "closed_form:degenerate"
    res = orlicz_premium(GeometricExpectile(2.0, 1.0), X)
    assert res.value == 0.0


def test_zero_variable_premium_is_zero():
    X = rv((0.0, 0.0))
    assert orlicz_premium(Power(2.0), X).value == 0.0


def test_normalization_exact():
    X = rv((1.0,))
    for phi in (
        GeometricMean(),
        Power(0.5),
        Power(2.0),
        QuantileStep(0.3),
        Expectile(0.8),
        LpQuantile(0.7, 2.0),
        LpqQuantile(1.0, 1.0, 2.0, 1.0),
        GeometricExpectile(2.0, 1.0),
    ):
        assert abs(orlicz_premium(phi, X).value - 1.0) <= 1e-10, phi.spec_string()


def test_bounded_phi_bracketing():
    # domain capped at u = 2: premium must sit in [ess/2, ess]
    phi = PiecewiseLinear([(0.0, 0.0), (1.0, 1.0), (2.0, 4.0)], upper=2.0)
    X = rv((1.0, 3.0))
    res = orlicz_premium(phi, X)
    assert 1.5 - 1e-10 <= res.value <= 3.0 + 1e-10
    assert phi_moment(phi, X.values_array(), X.space.probs_array(), res.value) <= 1.0 + 1e-9


@pytest.mark.filterwarnings("error")
def test_phi_moment_extended_real_rule():
    # -inf from a zero atom, +inf beyond the cap; +inf dominates -inf,
    # also when the infinite term carries zero weight
    capped = PiecewiseLinear(
        [(0.0, 0.0), (1.0, 1.0), (2.0, 4.0)], value_at_zero=-math.inf, upper=2.0
    )
    X = rv((0.0, 1.0, 3.0), (0.2, 0.5, 0.3))
    xs, probs = X.values_array(), X.space.probs_array()
    assert phi_moment(GeometricMean(), xs, probs, 1.0) == -math.inf
    assert phi_moment(capped, xs[1:], np.array([0.5, 0.5]), 1.0) == math.inf
    assert phi_moment(capped, xs, probs, 1.0) == math.inf
    assert phi_moment(capped, xs, np.array([0.5, 0.5, 0.0]), 1.0) == math.inf
    assert phi_moment(GeometricMean(), xs, np.array([0.0, 0.5, 0.5]), 1.0) == -math.inf
    k = 1.7
    finite = phi_moment(capped, xs[1:], np.array([0.4, 0.6]), k)
    assert finite == float(np.array([0.4, 0.6]) @ capped.eval_array(xs[1:] / k))


def test_pwl_premium_reduces_to_mean_for_identity_knots():
    phi = PiecewiseLinear([(0.0, 0.0), (1.0, 1.0), (4.0, 4.0)])
    X = rv((1.0, 3.0), (0.5, 0.5))
    assert orlicz_premium(phi, X).value == pytest.approx(2.0, rel=1e-10, abs=0.0)


def test_invalid_pwl_rejected_by_solver():
    bad = PiecewiseLinear([(0.5, 1.5), (1.0, 2.0), (2.0, 3.0)])
    with pytest.raises(InvalidPhiError):
        orlicz_premium(bad, rv((1.0, 2.0)))


def test_invalid_pwl_names_its_witness_on_every_call():
    bad = PiecewiseLinear([(0.5, 1.5), (1.0, 2.0), (2.0, 3.0)])
    messages = []
    for _ in range(2):
        with pytest.raises(InvalidPhiError) as info:
            orlicz_premium(bad, rv((1.0, 2.0)))
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert "below_one_on_unit fails at x=" in messages[0]


def test_geometric_expectile_bisects_log_expectile():
    X = rv((1.0, 4.0), (0.5, 0.5))
    got = orlicz_premium(GeometricExpectile(2.0, 1.0), X).value
    # log-space expectile at level a/(a+b) = 2/3 of log X
    want = math.exp(
        oracle_asymmetric_root([math.log(1.0), math.log(4.0)], [0.5, 0.5], 2.0 / 3.0, 1.0)
    )
    assert got == pytest.approx(want, rel=1e-9, abs=0.0)
    # b = 0 collapses to the essential sup, zero atoms included
    assert orlicz_premium(GeometricExpectile(2.0, 0.0), rv((1.0, 4.0))).value == 4.0
    assert orlicz_premium(GeometricExpectile(2.0, 0.0), rv((0.0, 4.0))).value == 4.0


def test_premium_of_distribution_matches_rv_route():
    d = DiscreteDistribution((0.5, 2.0), (0.25, 0.75))
    ours = premium_of_distribution(Power(2.0), d).value
    assert ours == pytest.approx(1.75, rel=1e-12, abs=0.0)


@given(
    st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=2, max_size=5),
    st.floats(min_value=0.2, max_value=5.0),
)
@settings(max_examples=150, deadline=None)
def test_positive_homogeneity_property(values, lam):
    X = rv(values)
    Y = rv([lam * v for v in values])
    for phi in (GeometricMean(), Power(2.0), Expectile(0.7)):
        hx = orlicz_premium(phi, X).value
        hy = orlicz_premium(phi, Y).value
        assert hy == pytest.approx(lam * hx, rel=1e-9, abs=0.0)


@given(st.lists(st.floats(min_value=0.05, max_value=8.0), min_size=2, max_size=5))
@settings(max_examples=150, deadline=None)
def test_threshold_equivalence_property(values):
    X = rv(values)
    for phi in (Power(2.0), Expectile(0.8), GeometricMean()):
        h = orlicz_premium(phi, X).value
        g1 = phi_moment(phi, X.values_array(), X.space.probs_array(), 1.0)
        if g1 <= 1.0:
            assert h <= 1.0 + 1e-8
        if h <= 1.0 - 1e-8:
            assert g1 <= 1.0 + 1e-9


# --- cash behaviour ---------------------------------------------------------


def test_gm_shift_witness():
    X = rv((0.5, 2.0))
    h0 = orlicz_premium(GeometricMean(), X).value
    h1 = orlicz_premium(GeometricMean(), rv((1.5, 3.0))).value
    assert h0 == pytest.approx(1.0, rel=1e-12, abs=0.0)
    assert h1 == pytest.approx(math.sqrt(4.5), rel=1e-12, abs=0.0)
    assert h1 > h0 + 1.0 + 0.1  # strict superadditivity with a wide margin


def test_cash_probe_classifications():
    X = rv((0.5, 1.0, 2.5), (0.2, 0.3, 0.5))
    cases = [
        (Expectile(0.7), "additive"),
        (LpqQuantile(1.0, 1.0, 2.0, 2.0), "additive"),
        (LpqQuantile(1.0, 1.0, 2.0, 1.0), "subadditive"),
        (LpqQuantile(1.0, 1.0, 1.0, 2.0), "superadditive"),
        (LpqQuantile(2.0, 0.0, 2.0, 1.0), "additive"),  # b = 0: the essential sup
        (LpqQuantile(2.0, 0.0, 1.0, 2.0), "additive"),
        (GeometricExpectile(2.0, 0.0), "additive"),  # b = 0: the essential sup
        (GeometricExpectile(1.0, 1.0), "superadditive"),  # a = b: the geometric mean
        (GeometricExpectile(3.0, 3.0), "superadditive"),
        (Power(2.0), "subadditive"),
        (Power(0.5), "superadditive"),
        (GeometricMean(), "superadditive"),
    ]
    for phi, want in cases:
        report = cash_additivity_probe(phi, X)
        assert report.classification == want, (phi.spec_string(), report)
        assert report.expected == want == phi.cash_behavior
        assert report.consistent is True

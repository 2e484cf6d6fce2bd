"""The shared 1-D searches: Brent's method and monotone bisection.

golden_max and golden_min keep the contract golden section had: both
ends are evaluated and the result is the best point evaluated, never an
extrapolation.  Brent's parabolic steps and the flat stop only change
how few evaluations it takes to get there.  bisect_root_decreasing keeps
u > v at the bottom of its bracket and u <= v at the top, closed to
adjacent floats at every scale, and counts each evaluation;
bisect_smallest_feasible is that search on g <= 1.  secant_root,
which it and the penalties' multiplier root share, takes the steps of the
loop that duality ran before it.
"""

import math
import warnings

import numpy as np
import pytest

import orlicz.duality as duality
from orlicz import (
    Expectile,
    FiniteProbabilitySpace,
    LpqQuantile,
    LpQuantile,
    MeasureChange,
    PiecewiseLinear,
    Power,
    alpha_penalty,
    beta_conjugate,
)
from orlicz.base import OrliczError
from orlicz.search import (
    SECANT_SLACK,
    bisect_root_decreasing,
    bisect_smallest_feasible,
    golden_max,
    golden_min,
    secant_root,
)


def counted(f):
    """f that records every point it is evaluated at."""
    seen = []

    def g(x):
        v = f(x)
        seen.append((x, v))
        return v

    return g, seen


@pytest.mark.parametrize(
    "f, lo, hi",
    [
        (lambda x: -(x - 0.3) ** 2, 0.0, 1.0),
        (lambda x: x, 0.0, 1.0),  # the maximum is an end
        (lambda x: -x, -2.0, 5.0),
        (lambda x: -abs(x - 0.71) if x < 0.71 else -3.0 * (x - 0.71), 0.0, 1.0),
    ],
)
def test_result_is_the_best_evaluated_point_with_both_ends_evaluated(f, lo, hi):
    g, seen = counted(f)
    x, v = golden_max(g, lo, hi, tol=1e-10)
    points = [p for p, _ in seen]
    assert lo in points and hi in points
    assert (x, v) in seen
    assert v == max(val for _, val in seen)


@pytest.mark.parametrize("kink", [0.3, 0.71, 0.123456])
def test_a_tent_kink_is_found_to_the_callers_tol(kink):
    # left slope 1, right slope 3: a parabola never fits it, and its values
    # never read as flat
    def tent(x):
        return -(kink - x) if x < kink else -3.0 * (x - kink)

    x, v = golden_max(tent, 0.0, 1.0, tol=1e-10)
    assert abs(x - kink) <= 1e-10
    xm, vm = golden_min(lambda t: -tent(t), 0.0, 1.0, tol=1e-10)
    assert (xm, vm) == (x, -v)


@pytest.mark.parametrize("top", [1.0, 0.0])
def test_a_quadratic_takes_at_most_30_evaluations(top):
    # golden section takes 62 evaluations to a width of 1e-12; with top = 1
    # the search stops flat, and with top = 0 (values next to 0 are never
    # within a few ulps of it) on its bracket width
    g, seen = counted(lambda x: top - (x - 0.3) ** 2)
    x, v = golden_max(g, 0.0, 1.0)
    assert len(seen) <= 30
    assert v == top and abs(x - 0.3) <= 1e-7


W, LAM = 1.3, 0.7
LAGRANGIANS = [
    # w y - lam Phi(e^y) for Phi(x) = x^p: the inner problem of the seeded
    # alpha Lagrangian, which runs for families that state no
    # first_order_point (Power states one); its maximizer is
    # y* = log(w / (lam p)) / p
    *[
        (f"alpha-p{p}", lambda t, p=p: W * t - LAM * math.exp(p * t), math.log(W / (LAM * p)) / p)
        for p in (0.5, 1.5, 2.0, 3.0)
    ],
    # w x - lam x^p in t = log x: the inner problem of the seeded beta
    # Lagrangian, which runs for families that state neither knots nor
    # first_order_point (no built-in); its maximizer is
    # log x* = log(w / (lam p)) / (p - 1)
    *[
        (
            f"beta-p{p}",
            lambda t, p=p: W * math.exp(t) - LAM * math.exp(p * t),
            math.log(W / (LAM * p)) / (p - 1.0),
        )
        for p in (1.5, 2.0, 3.0)
    ],
]


@pytest.mark.parametrize("name, f, t_star", LAGRANGIANS, ids=[case[0] for case in LAGRANGIANS])
def test_smooth_inner_problems_stop_within_30_evaluations(name, f, t_star):
    # golden section takes about 61 evaluations to the same tolerance
    g, seen = counted(f)
    _, v = golden_max(g, math.log(0.05), math.log(20.0), tol=1e-11)
    assert len(seen) <= 30, name
    assert abs(v - f(t_star)) <= 4.0 * math.ulp(f(t_star)), name


@pytest.mark.filterwarnings("error")
def test_flat_and_infinite_objectives_raise_no_warning():
    # numpy scalars would warn on inf - inf or 0 * inf in a parabolic step
    flat, seen = counted(lambda x: np.float64(1.0))
    assert golden_max(flat, 0.0, 1.0) == (0.0, 1.0)
    assert len(seen) < 62
    inner, _ = counted(lambda x: np.float64(0.0) if x in (0.0, 1.0) else np.float64(-np.inf))
    assert golden_max(inner, 0.0, 1.0) == (0.0, 0.0)
    # -inf past a cap, as for a Phi that is +inf beyond its upper
    capped, _ = counted(lambda x: np.float64(-np.inf) if x > 0.6 else np.float64(x - x * x))
    x, v = golden_max(capped, 0.0, 1.0, tol=1e-10)
    assert abs(x - 0.5) <= 1e-7 and v == 0.25


# decreasing ratios u / v with a root at r, each read only through k / r as
# a premium's scaled inequality is, so none overflows or underflows at any
# scale; flat has u = v = 0 on [r, 1.5 r]
DECREASING = {
    "line": lambda r: (lambda k: (1.0, k / r)),
    "cube": lambda r: (lambda k: ((r / k) ** 3, 1.0)),
    "flat": lambda r: (lambda k: (max(1.0 - k / r, 0.0), max(k / r - 1.5, 0.0))),
}


def exhausted(h, lo, hi):
    """Bisection of h = (u, v) on u > v to adjacent floats: the reference."""
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        u, v = h(mid)
        lo, hi = (mid, hi) if u > v else (lo, mid)
    return lo, hi


@pytest.mark.parametrize("scale", [1e-300, 1e-150, 1.0, 1e150, 1e300])
@pytest.mark.parametrize("start", [1.5e-3, 1.0, 5.0])
@pytest.mark.parametrize("name", sorted(DECREASING))
def test_root_search_keeps_its_bracket_to_adjacent_floats_at_every_scale(name, start, scale):
    # the bracket stays inside [lo, hi], each end on its side of the root,
    # closed to adjacent floats; the count is every evaluation of h
    r = 0.7310585786300049 * scale
    h, seen = counted(DECREASING[name](r))
    lo, hi = r * 1e-3, r * 7.0
    blo, bhi, evaluations = bisect_root_decreasing(h, lo, hi, r * start)
    assert evaluations == len(seen) <= 64
    assert lo <= blo < bhi <= hi and math.nextafter(blo, hi) == bhi
    u_lo, v_lo = h(blo)
    u_hi, v_hi = h(bhi)
    assert u_lo > v_lo and not u_hi > v_hi
    if name != "flat":  # flat is 0 on [r, 1.5 r]: its bracket may close anywhere there
        assert abs(bhi - r) <= 2.0 * math.ulp(r)


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
def test_root_search_finds_the_crossing_that_bisection_exhausts_to(scale):
    # line and cube cross once in floats, so the adjacent pair is unique:
    # the secant must find the very pair that bisection over floats finds,
    # with every point a power of two or a step inside one binade
    rng = np.random.default_rng(7)
    for name in ("line", "cube"):
        for r in rng.uniform(0.01, 5.0, 30) * scale:
            lo, hi = r * float(rng.uniform(1e-3, 0.9)), r * float(rng.uniform(1.1, 9.0))
            h = DECREASING[name](r)
            start = float(rng.uniform(lo, hi))
            blo, bhi, evaluations = bisect_root_decreasing(h, lo, hi, start)
            assert (blo, bhi) == exhausted(h, lo, hi), (name, r)
            assert evaluations <= 12, (name, r, evaluations)


def test_root_search_reads_a_nan_as_at_most_zero():
    # where u is nan (an overflowing moment, say) the root search moves its
    # top down, as at u <= v
    r = 0.7310585786300049
    h, seen = counted(lambda k: (math.nan, 1.0) if k >= r else (1.0, 0.5))
    blo, bhi, evaluations = bisect_root_decreasing(h, 0.1, 2.0, 1.0)
    assert blo < r <= bhi and math.nextafter(blo, 2.0) == bhi
    assert evaluations == len(seen)
    # the smallest feasible search reads a nan as feasible, as g <= 1
    g, seen = counted(lambda k: math.nan if k >= r else 2.0)
    blo, bhi, evaluations = bisect_smallest_feasible(g, 0.1, 2.0, 1.0)
    assert blo < r <= bhi and math.nextafter(blo, 2.0) == bhi
    assert evaluations == len(seen)


# nonincreasing g with g <= 1 from about r on, each read only through k / r
# as a premium's moment is; plateau reads exactly 1 over floats below r
FEASIBLE = {
    "square": lambda r: (lambda k: (r / k) ** 2),
    "step": lambda r: (lambda k: 2.0 if k < r else 0.5),
    "plateau": lambda r: (lambda k: max(2.0 - k / r, 1.0)),
}


@pytest.mark.parametrize("scale", [1e-300, 1e-150, 1.0, 1e150, 1e300])
@pytest.mark.parametrize("start", [1.5e-3, 1.0, 5.0])
@pytest.mark.parametrize("name", sorted(FEASIBLE))
def test_smallest_feasible_is_the_least_float_at_every_scale(name, start, scale):
    # adjacent floats, g > 1 at the bottom and g <= 1 at the top: the very
    # pair that bisection over floats finds; the count is every evaluation
    r = 0.7310585786300049 * scale
    g, seen = counted(FEASIBLE[name](r))
    lo, hi = r * 1e-3, r * 7.0
    blo, bhi, evaluations = bisect_smallest_feasible(g, lo, hi, r * start)
    assert evaluations == len(seen) <= 64
    assert lo < blo < bhi <= hi and math.nextafter(blo, hi) == bhi
    assert g(blo) > 1.0 >= g(bhi)
    assert (blo, bhi) == exhausted(lambda k: (g(k), 1.0), lo, hi)
    if name == "step":
        assert bhi == r


def test_smallest_feasible_ends_at_its_bottom_where_every_float_is_feasible():
    # g <= 1 down to the least positive float: the bottom comes back unread,
    # so a caller can report the infimum lo rather than a float above it
    g, seen = counted(lambda k: 0.5)
    blo, bhi, evaluations = bisect_smallest_feasible(g, 0.0, 1.0, 0.5)
    assert (blo, bhi) == (0.0, 5e-324)
    assert evaluations == len(seen) <= 13


def test_root_search_evaluates_only_inside_its_ends():
    # lo and hi are taken on their sides unread, as the premium takes 0 and
    # max X; a start off the ends still scans inside them
    for lo, hi, start in ((0.0, 1.0, 1.0), (0.75, 1.0, 0.8), (0.0, 3.0, 7.0), (0.0, 2.0**-1070, 1e-300)):
        r = lo + 0.6 * (hi - lo)
        h, seen = counted(lambda k: (1.0, k / r))
        blo, bhi, _ = bisect_root_decreasing(h, lo, hi, start)
        assert all(lo < k < hi for k, _ in seen)
        assert (blo, bhi) == exhausted(lambda k: (1.0, k / r), lo, hi)


def multiplier_root(moment, lo, hi, m_lo, m_hi):
    """duality._multiplier_root as it was before search.secant_root took it
    over, on a scalar moment: the oracle for the shared root."""

    def log_of(m):
        return math.log(m) if 0.0 < m < math.inf else math.nan

    y_lo, y_hi = log_of(m_lo), log_of(m_hi)
    x0, y0, x1, y1 = lo, y_lo, hi, y_hi
    spacing = math.ulp(lo)
    first = hi - lo
    j = 0
    side = run = 0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo, hi
        j += 1
        budget = math.ldexp(first, min(SECANT_SLACK - j, 0))
        x = mid
        a, ya, b, yb = (x0, y0, x1, y1) if y0 != y1 else (lo, y_lo, hi, y_hi)
        if math.isfinite(ya) and math.isfinite(yb) and ya != yb:
            t = (yb - 2.0**-53) * math.log(b / a) / (yb - ya)
            x = b * math.exp(-min(max(t, -1.0), 1.0))
            step = math.ldexp(spacing, min(run, 52))
            if side > 0:
                x = max(x, lo + step)
            elif side < 0:
                x = min(x, hi - step)
            x = max(x, hi - budget, math.nextafter(lo, hi))
            x = min(x, lo + budget, math.nextafter(hi, lo))
        m = moment(x)
        y = log_of(m)
        s = 1 if m > 1.0 else -1
        if s > 0:
            lo, y_lo = x, y
        else:
            hi, y_hi = x, y
        run = run + 1 if s == side else 0
        side = s
        x0, y0, x1, y1 = x1, y1, x, y


@pytest.mark.parametrize("k", [1023, 600, 1, -1021, -1060])
def test_secant_root_closes_any_binade(k):
    # a moment that is a power of lam takes the secant a few steps; one with
    # a kink at the root and flat to rounding beyond it gets nothing from
    # the secant, and takes at most SECANT_SLACK steps more than plain
    # bisection (52 in a normal binade, 13 in the subnormal one here).  In
    # the top binade 8 times the width is past the float range
    lo, hi = math.ldexp(1.0, k - 1), math.ldexp(1.0, k)
    spacing = math.ulp(lo)
    steps = round((hi - lo) / spacing).bit_length() - 1
    for frac in (0.3, 0.7, 1e-9, 1.0 - 1e-12):
        root = lo + math.floor(frac * (hi - lo) / spacing) * spacing
        if not lo < root:
            continue
        moments = [lambda lam, q=q: (root / lam) ** q for q in (1.0, 2.0, 50.0)]
        moments.append(lambda lam: 1.0 + (root - lam) / root if lam < root else 1.0 - 2.0**-53)
        for moment in moments:
            calls = []

            def ratio(lam):
                calls.append(lam)
                return moment(lam), 1.0

            with warnings.catch_warnings():
                warnings.simplefilter("error")
                a, b, steps_taken = secant_root(ratio, lo, hi, (moment(lo), 1.0), (moment(hi), 1.0))
            assert steps_taken == len(calls)
            assert lo <= a and math.nextafter(a, hi) == b <= hi, (frac, a, b)
            assert moment(a) > 1.0 >= moment(b)
            assert len(calls) <= steps + SECANT_SLACK, (frac, len(calls))
            if moment is not moments[-1]:
                assert len(calls) <= 4, (frac, len(calls))
            # the oracle takes the same steps to the same pair
            oracle_calls = []

            def scalar(lam):
                oracle_calls.append(lam)
                return moment(lam)

            assert multiplier_root(scalar, lo, hi, moment(lo), moment(hi)) == (a, b)
            assert oracle_calls == calls


PENALTY_FAMILIES = [
    Power(0.5),
    Power(2.0),
    Power(3.0),
    Expectile(0.8),
    LpQuantile(0.7, 1.0),
    LpqQuantile(1.5, 0.5, 1.0, 1.0),
    PiecewiseLinear([(0.5, 0.25), (1.0, 1.0), (2.0, 3.0), (4.0, 9.0)]),
]


def _penalties(phi, measures):
    out = []
    for Q in measures:
        for penalty in (beta_conjugate, alpha_penalty):
            try:
                out.append(penalty(phi, Q))
            except OrliczError as err:  # a penalty the family does not define
                out.append(type(err).__name__)
    return out


@pytest.mark.parametrize("phi", PENALTY_FAMILIES, ids=lambda f: f.spec_string())
def test_penalties_are_bit_identical_under_the_oracle_root(monkeypatch, phi):
    # every multiplier root the penalties take runs through secant_root;
    # with the oracle in its place each beta and alpha keeps every bit
    rng = np.random.default_rng(300)
    measures = []
    for _ in range(300):
        space = FiniteProbabilitySpace(tuple((rng.dirichlet(np.ones(int(rng.integers(2, 7))))).tolist()))
        q = rng.dirichlet(np.ones(space.n))
        dens = q / space.probs_array()
        measures.append(MeasureChange(space, tuple((dens / float(space.probs_array() @ dens)).tolist())))
    shared = _penalties(phi, measures)
    roots = []

    def oracle(f, lo, hi, f_lo, f_hi):
        roots.append(lo)
        return *multiplier_root(lambda lam: f(lam)[0], lo, hi, f_lo[0], f_hi[0]), 0

    monkeypatch.setattr(duality, "secant_root", oracle)
    assert _penalties(phi, measures) == shared
    assert roots, "no penalty took the multiplier root"

"""The shared 1-D searches: Brent's method and monotone bisection.

golden_max and golden_min keep the contract golden section had: both
ends are evaluated and the result is the best point evaluated, never an
extrapolation.  Brent's parabolic steps and the flat stop only change
how few evaluations it takes to get there.  bisect_root_decreasing keeps
h(lo) > 0 >= h(hi) down to a relative width at every scale.
"""

import math

import numpy as np
import pytest

from orlicz.search import (
    bisect_root_decreasing,
    bisect_smallest_feasible,
    golden_max,
    golden_min,
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


# decreasing h with a root at r, each read only through k / r as a premium's
# scaled inequality is, so none overflows or underflows at any scale
DECREASING = {
    "line": lambda r: (lambda k: 1.0 - k / r),
    "cube": lambda r: (lambda k: (r / k) ** 3 - 1.0),
    "flat": lambda r: (lambda k: max(1.0 - k / r, 0.0) - max(k / r - 1.5, 0.0)),
}


@pytest.mark.parametrize("scale", [1e-300, 1e-150, 1.0, 1e150, 1e300])
@pytest.mark.parametrize("rel_tol", [1e-10, 1e-12, 1e-14])
@pytest.mark.parametrize("name", sorted(DECREASING))
def test_root_bisection_keeps_its_bracket_to_a_relative_width_at_every_scale(name, rel_tol, scale):
    r = 0.7310585786300049 * scale
    h, seen = counted(DECREASING[name](r))
    lo, hi = r * 1e-3, r * 7.0
    root, blo, bhi, iters = bisect_root_decreasing(h, lo, hi, rel_tol=rel_tol)
    assert lo <= blo < bhi <= hi
    assert h(blo) > 0.0 >= h(bhi)
    assert bhi - blo <= rel_tol * max(abs(blo), abs(bhi))
    assert root == 0.5 * (blo + bhi)
    assert iters == len(seen) - 2 <= 60
    if name != "flat":  # flat is 0 on [r, 1.5 r]: its bracket may close anywhere there
        assert abs(bhi - r) <= rel_tol * r


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
def test_root_bisection_iterates_as_the_smallest_feasible_search_on_nan_free_h(scale):
    # the two differ only in the point they return and in how they read a
    # nan; on any other h both send h <= 0 to the top of the bracket
    rng = np.random.default_rng(7)
    for name in sorted(DECREASING):
        for r in rng.uniform(0.01, 5.0, 30) * scale:
            lo, hi = r * float(rng.uniform(1e-3, 0.9)), r * float(rng.uniform(1.1, 9.0))
            rel_tol = float(rng.choice([1e-10, 1e-12, 1e-14]))
            f, seen_f = counted(DECREASING[name](r))
            g, seen_g = counted(DECREASING[name](r))
            _, blo, bhi, iters = bisect_root_decreasing(f, lo, hi, rel_tol=rel_tol)
            value, glo, ghi, giters = bisect_smallest_feasible(g, lo, hi, 0.0, rel_tol=rel_tol)
            assert seen_f == seen_g
            assert (bhi, blo, bhi, iters) == (value, glo, ghi, giters)


def test_root_bisection_reads_a_nan_as_at_most_zero():
    # where h is nan (an overflowing moment, say) the root search moves its
    # top down, as at h <= 0; the smallest feasible search moves its bottom up
    r = 0.7310585786300049
    h, seen = counted(lambda k: math.nan if k >= r else 1.0)
    root, blo, bhi, iters = bisect_root_decreasing(h, 0.1, 2.0, rel_tol=1e-12)
    assert blo < r <= bhi and bhi - blo <= 1e-12 * bhi
    assert root == 0.5 * (blo + bhi) and iters == len(seen)
    value, glo, ghi, _ = bisect_smallest_feasible(h, 0.1, 2.0, 0.0, rel_tol=1e-12)
    assert value == ghi == 2.0 and glo > 2.0 * (1.0 - 1e-12)

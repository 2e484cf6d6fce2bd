"""The shared 1-D search: Brent's method behind golden_max and golden_min.

The contract is the one golden section had: both ends are evaluated and
the result is the best point evaluated, never an extrapolation.  Brent's
parabolic steps and the flat stop only change how few evaluations it
takes to get there.
"""

import math

import numpy as np
import pytest

from orlicz.search import golden_max, golden_min


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
    # w y - lam Phi(e^y) for Phi(x) = x^p, alpha_penalty's inner problem;
    # its maximizer is y* = log(w / (lam p)) / p
    *[
        (f"alpha-p{p}", lambda t, p=p: W * t - LAM * math.exp(p * t), math.log(W / (LAM * p)) / p)
        for p in (0.5, 1.5, 2.0, 3.0)
    ],
    # w x - lam x^p in t = log x, beta_primal's inner problem; its
    # maximizer is log x* = log(w / (lam p)) / (p - 1)
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

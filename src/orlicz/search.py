"""One-dimensional search primitives: golden-section and monotone bisection.

All solvers in this package reduce to searches over a single scalar (a
premium level k, a Lagrange multiplier, a cash shift), so these helpers
are deliberately small and allocation-free.  Golden-section assumes a
unimodal objective on the bracket; bisection assumes monotonicity.  Both
report the best point actually evaluated, never an extrapolation.
"""

from __future__ import annotations

import math
from typing import Callable

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2
# iteration caps, a backstop for tolerances too fine for the fp grid
GOLDEN_ITERS = 200
BISECT_ITERS = 400


def golden_max(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-12,
) -> tuple[float, float]:
    """Maximize a unimodal f on [lo, hi]; returns (argmax, max) among evaluated points."""
    best_x, best_v = lo, f(lo)
    v_hi = f(hi)
    if v_hi > best_v:
        best_x, best_v = hi, v_hi
    a, b = lo, hi
    h = b - a
    if h <= tol * max(1.0, abs(a), abs(b)):
        return best_x, best_v
    c = a + INV_PHI2 * h
    d = a + INV_PHI * h
    fc, fd = f(c), f(d)
    for _ in range(GOLDEN_ITERS):
        if fc > best_v:
            best_x, best_v = c, fc
        if fd > best_v:
            best_x, best_v = d, fd
        if h <= tol * max(1.0, abs(a), abs(b)):
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + INV_PHI2 * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + INV_PHI * h
            fd = f(d)
    return best_x, best_v


def golden_min(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-12,
) -> tuple[float, float]:
    """Minimize a unimodal f on [lo, hi]; returns (argmin, min) among evaluated points."""
    x, v = golden_max(lambda t: -f(t), lo, hi, tol=tol)
    return x, -v


def bisect_smallest_feasible(
    g: Callable[[float], float],
    lo: float,
    hi: float,
    threshold: float = 1.0,
    rel_tol: float = 1e-10,
) -> tuple[float, float, float, int]:
    """Smallest k with g(k) <= threshold for nonincreasing g.

    Requires g(lo) > threshold >= g(hi) on entry.  Stops once the
    bracket is narrower than rel_tol * |hi|, relative at every scale.
    Returns (value, bracket_lo, bracket_hi, iterations) where value ==
    bracket_hi, g(value) <= threshold is guaranteed, and g(bracket_lo) >
    threshold.
    """
    it = 0
    while (hi - lo) > rel_tol * abs(hi) and it < BISECT_ITERS:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # fp exhaustion
            break
        if g(mid) <= threshold:
            hi = mid
        else:
            lo = mid
        it += 1
    return hi, lo, hi, it


def bisect_root_decreasing(
    h: Callable[[float], float],
    lo: float,
    hi: float,
    rel_tol: float = 1e-14,
) -> tuple[float, float, float, int]:
    """Root of a continuous nonincreasing h with h(lo) >= 0 >= h(hi), to
    a bracket narrower than rel_tol * max(|lo|, |hi|).

    Returns (root, bracket_lo, bracket_hi, iterations), the root being
    the midpoint of the final bracket.
    """
    it = 0
    while it < BISECT_ITERS:
        if (hi - lo) <= rel_tol * max(abs(hi), abs(lo)):
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if h(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        it += 1
    return 0.5 * (lo + hi), lo, hi, it


"""One-dimensional search primitives: Brent's method and monotone bisection.

All solvers in this package reduce to searches over a single scalar (a
premium level k, a Lagrange multiplier, a cash shift), so these helpers
are deliberately small and allocation-free.  golden_max and golden_min
run Brent's method (Brent 1973, *Algorithms for Minimization without
Derivatives*, ch. 5): golden section with parabolic steps, on an
objective unimodal on the bracket.  They stop at the caller's bracket
width, or as soon as the objective is flat to rounding around its
optimum, where no further step can change the value.  Bisection assumes
monotonicity.  Both report the best point actually evaluated, never an
extrapolation.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2, the golden-section step
# iteration caps, a backstop for tolerances too fine for the fp grid
GOLDEN_ITERS = 200
BISECT_ITERS = 400
SQRT_EPS = math.sqrt(sys.float_info.epsilon)
# close values this many ulps apart are flat: the search stops
FLAT_ULPS = 4
# a parabola through points this close, relative to the bracket, models
# a smooth f up to this many ulps of rounding in its values
MODEL_WIDTH = 1e-3
MODEL_ULPS = 64


def golden_max(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-12,
) -> tuple[float, float]:
    """Maximize a unimodal f on [lo, hi]; returns (argmax, max) among evaluated points.

    Brent's method: golden-section steps, and parabolic steps through the
    three best interior points x, w, v where their values are finite and
    the vertex is a safe step.  Stops when the bracket is narrower than
    tol * max(1, |a|, |b|), or when the search is flat: x, w and v are
    distinct, lie within SQRT_EPS * (hi - lo) of each other, and their
    values agree to FLAT_ULPS ulps.  A smooth f changes only by rounding
    that close to its optimum; a kink never passes the value test.

    Once x, w and v lie within MODEL_WIDTH * (hi - lo) of each other, a
    parabolic step checks the parabola against f: a value that misses
    the parabola by more than the change the parabola predicted (and
    MODEL_ULPS ulps of rounding) shows a kink, or noise in f beyond
    rounding, and golden-section steps alone close the bracket from
    there.  A vertex next to an end of the bracket is taken two least
    steps inside that end, not a least step from x as in Brent's
    original: values a least step apart may differ by noise alone, and
    that comparison would cut off the rest of the bracket.
    """
    best_x, best_v = lo, f(lo)
    v_hi = f(hi)
    if v_hi > best_v:
        best_x, best_v = hi, v_hi
    a, b = lo, hi
    if b - a <= tol * max(1.0, abs(a), abs(b)):
        return best_x, best_v
    near = SQRT_EPS * (hi - lo)
    x = w = v = a + INV_PHI2 * (b - a)
    fx = fw = fv = f(x)
    if fx > best_v:
        best_x, best_v = x, fx
    d = e = 0.0  # the last step and the one before it
    smooth = True  # until the parabola misses f
    for _ in range(GOLDEN_ITERS):
        width = tol * max(1.0, abs(a), abs(b))
        if b - a <= width:
            break
        step = width / 3.0  # the least step: three close the bracket
        mid = 0.5 * (a + b)
        parabolic = model = False
        if math.isfinite(fx) and math.isfinite(fw) and math.isfinite(fv):
            spread = max(x, w, v) - min(x, w, v)
            close = x != w != v != x and spread <= MODEL_WIDTH * (hi - lo)
            if close and spread <= near and fx - min(fw, fv) <= FLAT_ULPS * math.ulp(fx):
                break
            if smooth and abs(e) > step:
                r = (x - w) * (fx - fv)
                q = (x - v) * (fx - fw)
                p = (x - v) * q - (x - w) * r
                q = 2.0 * (q - r)
                if q > 0.0:
                    p = -p
                q = abs(q)
                # take the vertex only inside the bracket and at less than half
                # the step before last, so the steps shrink at least geometrically
                if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                    e, d = d, p / q
                    d = min(max(d, a + 2.0 * step - x), b - 2.0 * step - x)
                    parabolic = True
                    model = close
        if not parabolic:
            e = (a - x) if x >= mid else (b - x)
            d = INV_PHI2 * e
        u = x + (d if abs(d) >= step else math.copysign(step, d))
        if not a < u < b:  # fp exhaustion
            break
        fu = f(u)
        if fu > best_v:
            best_x, best_v = u, fu
        if model:
            # the parabola through x, w, v in Newton form, at u
            slope = (fw - fx) / (w - x)
            at_u = fx + (u - x) * (slope + (u - w) * ((fv - fw) / (v - w) - slope) / (v - x))
            smooth = abs(fu - at_u) <= abs(at_u - fx) + MODEL_ULPS * math.ulp(fx)
        if fu >= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu
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
    """Root of a nonincreasing h with h(lo) > 0 >= h(hi), to a bracket
    narrower than rel_tol * |hi|, relative at every scale.

    bisect_smallest_feasible at threshold 0, with a nan of h read as <= 0,
    and read at its midpoint: returns (root, bracket_lo, bracket_hi,
    iterations), the root being the midpoint of the final bracket, and
    h(bracket_lo) > 0 >= h(bracket_hi).
    """
    _, lo, hi, it = bisect_smallest_feasible(lambda t: float(h(t) > 0.0), lo, hi, 0.0, rel_tol)
    return 0.5 * (lo + hi), lo, hi, it

"""One-dimensional search: Brent's method, bisection and a secant root.

All solvers in this package reduce to searches over a single scalar (a
premium level k, a Lagrange multiplier, a cash shift), so these helpers
are deliberately small and allocation-free.  golden_max and golden_min
run Brent's method (Brent 1973, *Algorithms for Minimization without
Derivatives*, ch. 5) on a unimodal objective and report the best point
evaluated, never an extrapolation.  secant_root closes the root of a
nonincreasing ratio in one binade to adjacent floats.  The penalties'
multiplier root shares it, and so does every searched premium after a
power-of-two scan (bisect_root_decreasing): the two-branch premiums'
scaled inequality, and the generic route's moment through
bisect_smallest_feasible.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2, the golden-section step
# iteration cap, a backstop for tolerances too fine for the fp grid
GOLDEN_ITERS = 200
SQRT_EPS = math.sqrt(sys.float_info.epsilon)
# close values this many ulps apart are flat: the search stops
FLAT_ULPS = 4
# a parabola through points this close, relative to the bracket, models
# a smooth f up to this many ulps of rounding in its values
MODEL_WIDTH = 1e-3
MODEL_ULPS = 64
SECANT_AIM = 2.0**-53  # the secant aims above 1: a ratio of exactly 1 keeps its side
# evaluations the secant may spend beyond plain bisection
SECANT_SLACK = 3


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
    g: Callable[[float], float], lo: float, hi: float, start: float
) -> tuple[float, float, int]:
    """(lo', hi', evaluations): the least float hi' in (lo, hi] with g(hi')
    <= 1, for nonincreasing g, and the float below it.

    bisect_root_decreasing on (g(k), 1) from start: lo and hi count as
    g > 1 and g <= 1 unread, and a nan reads as <= 1.  lo' is lo itself
    where no float read above 1.  bench/spans.py wraps the name (a
    bisection's).
    """
    return bisect_root_decreasing(lambda k: (g(k), 1.0), lo, hi, start)


def secant_root(
    f: Callable[[float], tuple[float, float]], lo: float, hi: float,
    f_lo: tuple[float, float], f_hi: tuple[float, float],
) -> tuple[float, float, int]:
    """(lo', hi', steps): adjacent floats with u > v at lo' and not at hi'
    (nan reads as not) for f = (u, v), u / v nonincreasing, from [lo, hi]
    in one binade and f at its ends (nan pairs where unread).  Each step is
    a secant in (log x, log u - log v) through the last two points read, or
    the bracket ends where they agree (for a power of x it lands on the
    root), at least 2^(j-1) floats inside the end the last j steps moved
    and at most SECANT_SLACK steps behind bisection's 52; the midpoint
    where u or v is not finite and positive.
    """

    def log_of(uv: tuple[float, float]) -> float:
        u, v = uv
        return math.log(u) - math.log(v) if 0.0 < u < math.inf and 0.0 < v < math.inf else math.nan

    y_lo, y_hi = log_of(f_lo), log_of(f_hi)
    x0, y0, x1, y1 = lo, y_lo, hi, y_hi  # the last two evaluated points
    spacing, first = math.ulp(lo), hi - lo  # of the floats in [lo, hi]; the width
    j = side = run = 0  # steps; the end the last step moved (+1 lo, -1 hi), its streak
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo, hi, j
        j += 1
        # the widest bracket this step may leave; the first SECANT_SLACK are free
        budget = math.ldexp(first, min(SECANT_SLACK - j, 0))
        x = mid
        a, ya, b, yb = (x0, y0, x1, y1) if y0 != y1 else (lo, y_lo, hi, y_hi)
        if math.isfinite(ya) and math.isfinite(yb) and ya != yb:
            # the bracket spans a factor of 2 at most, so the clip keeps exp
            # finite and changes only steps that the clamps below take back
            t = (yb - SECANT_AIM) * math.log(b / a) / (yb - ya)
            x = b * math.exp(-min(max(t, -1.0), 1.0))
            step = math.ldexp(spacing, min(run, 52))  # 2^52 spacings span the binade
            if side > 0:
                x = max(x, lo + step)
            elif side < 0:
                x = min(x, hi - step)
            # floats in one binade: both bounds are exact where they bind
            x = max(x, hi - budget, math.nextafter(lo, hi))
            x = min(x, lo + budget, math.nextafter(hi, lo))
        fx = f(x)
        y, s = log_of(fx), 1 if fx[0] > fx[1] else -1
        if s > 0:
            lo, y_lo = x, y
        else:
            hi, y_hi = x, y
        run, side = run + 1 if s == side else 0, s
        x0, y0, x1, y1 = x1, y1, x, y


def bisect_root_decreasing(
    h: Callable[[float], tuple[float, float]], lo: float, hi: float, start: float
) -> tuple[float, float, int]:
    """secant_root's pair in [lo, hi] and the evaluations of h, for 0 <= lo
    < start < hi.  Powers of two 2^e in (lo, hi), whose ends count unread,
    bracket the root first: e strides 1, 2, 4, ... from start's while the
    side holds, then bisects.  bench/spans.py wraps the name (a bisection's).
    """
    h_lo = h_hi = (math.nan, math.nan)  # not evaluated
    # the exponents inside (lo, hi); bottom - 1 and top + 1 stand for lo and hi
    bottom = math.frexp(lo)[1] if lo > 0.0 else -1074
    top = math.frexp(math.nextafter(hi, 0.0))[1] - 1
    e_lo, e_hi = bottom - 1, top + 1
    e = min(max(math.frexp(start)[1] - 1, bottom), top)
    stride, last, evaluations = 1, None, 0  # the gallop's stride (0 once bisecting), side
    while e_lo + 1 < e_hi:
        hx = h(math.ldexp(1.0, e))
        evaluations += 1
        up = hx[0] > hx[1]
        if up:
            e_lo, h_lo = e, hx
        else:
            e_hi, h_hi = e, hx
        if stride and last in (None, up):
            e = min(max(e + (stride if up else -stride), e_lo + 1), e_hi - 1)
            stride, last = 2 * stride, up
        else:
            stride, e = 0, (e_lo + e_hi) // 2
    lo = math.ldexp(1.0, e_lo) if e_lo >= bottom else lo
    hi = math.ldexp(1.0, e_hi) if e_hi <= top else hi
    lo, hi, steps = secant_root(h, lo, hi, h_lo, h_hi)
    return lo, hi, evaluations + steps

"""Dual representations of the premium: penalty functions and certificates.

For convex Phi the premium has an arithmetic dual form

    H(X) = sup_Q  beta(Q) * E_Q[X],

and for GA-convex Phi a geometric dual form

    H(X) = sup_Q  alpha(Q) * exp(E_Q[log X]),

both over probability measures Q << P.  The penalties take values in
[0, 1]; 0 encodes an infinitely implausible model.  beta has two
independent computation routes that cross-check each other: a separable
Lagrangian over the primal constraint set {E[Phi(X)] <= 1}, and an
exact minimization built on the closed-form convex conjugate.  alpha
runs the Lagrangian in log coordinates.  Both Lagrangians are

    D(lam) = lam + sum_i p_i sup_z (w_i z - lam F(z)),  w = dQ/dP,

with z = x and F = Phi for beta, z = log x and F = Phi(e^z) for alpha,
summed in a canonical atom order, so that neither a value nor the work
of the searches that stop on it depends on how Q lists its atoms.
Phi == 1 on all of [0, 1] gives both penalties exactly 1 without a
search.  Otherwise the family's stated facts pick the route:

- knots (pwl, Power(1), the two-branch losses with p = 1 and q = 1 or
  b = 0; any Phi with points and a derivative): beta's inner sups sit at
  the left ends of its pieces (phi._pieces) and D's minimum at its own
  kinks, so beta needs no search.  beta_conjugate's minimum runs on
  a block of measures (_beta_block): the breakpoints s / w_i of each
  measure are built row by row, Psi at all of them comes from one array
  call of conjugate, and np.vecdot sums each breakpoint's E[Psi] with the
  dot product that probs @ psi takes on one measure, so every beta is
  the per-measure float.  hg_dual_check, beta_on_grid and the grid of
  dual_search take their betas in one block; beta_conjugate is a block
  of one.
- log_slopes (gm, gexpectile; alpha only): Phi(e^y) = 1 + a y_+ - b y_-
  makes the constraint a cone, and alpha the indicator of
  b max(dQ/dP) <= a min(dQ/dP), compared exactly in rationals.
- first_order_point (Power; for alpha also every knotted Phi, whose
  table states it): each inner sup sits at X* with Phi'(X*) = w / lam
  (X* Phi'(X*) = w / lam for alpha), D'(lam) = 1 - E_P[Phi(X*)], and
  the root of E_P[Phi(X*)] = 1, closed to adjacent floats by a
  safeguarded secant in log coordinates, gives the penalty
  (_first_order_dual_min).
- neither (a user family): the seeded search.  Each inner problem runs
  grid plus Brent's method (search.golden_max), which stops once the
  value is flat to rounding; a multiplier seed is solved only while its
  grid floor, a lower bound on the dual read off the inner problems'
  grids for every seed in one array pass, leaves it a chance to win, and
  a lam polish follows the best seed.  The seeds skipped never change a
  result.  No built-in family reaches it.

A relative-entropy bridge bounds alpha by beta: alpha(R) >=
beta(Q) exp(-H(R|Q)) for every Q.  Where alpha takes the multiplier root,
the maximizers at that root give the one Q* at which the bound is an
equality (alpha_bridge_report), and Phi == 1 on [0, 1] gives Q* = R;
elsewhere the sup runs over a simplex grid, for n <= GRID_MAX_N only.

Everything here is a certificate engine.  A certificate is built at the
first-order measure Q*, read off Phi'(X/k) at the premium k, which
attains the premium; a simplex grid plus a deterministic local polish
is only the fallback when Q* is unavailable or loose.  Any Q gives a
weak-duality bound, so no reported lower bound can exceed the primal
premium beyond fp noise.  Gaps are reported, not hidden.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .base import (
    DimensionError,
    DomainError,
    INF,
    NEG_INF,
    NotConvexError,
    NotGAConvexError,
    OrliczError,
)
from .functions import OrliczFunction, conjugate
from .prob import MeasureChange, RandomVariable
from .search import golden_max, golden_min, secant_root

X_CAP = 1e6  # right end of beta_primal's x grid when upper = inf
YCAP = 60.0  # log-coordinate box for the geometric Lagrangian
GROWTH_EPS = 1e-9  # cap-growth threshold: larger slope means an unbounded ray
GRID_MAX_N = 4  # the whole simplex grid at step 0.01: 176,851 measures at n = 4, 4,598,126 at 5


@dataclass(frozen=True)
class DualCertificate:
    """A verified lower bound on the premium from one measure Q.

    lower_bound = penalty * E_Q[X] (arithmetic) or
    penalty * exp(E_Q[log X]) (geometric); weak duality keeps it at or
    below primal, the premium orlicz_premium returns.  route says how Q
    was found: "first_order" (the measure read off Phi'(X/k)) or "grid"
    (the simplex grid or multistart search with its polish).
    """

    measure: MeasureChange
    penalty: float
    lower_bound: float
    kind: str
    primal: float
    route: str

    @property
    def gap(self) -> float:
        """primal - lower_bound: how far the certificate is from tight."""
        return self.primal - self.lower_bound


def _require_convex(phi: OrliczFunction) -> None:
    if phi.convex_flag is not True:
        raise NotConvexError(
            f"needs certified convexity; flag is {phi.convex_flag!r} for {phi!r}"
        )


def _require_ga_convex(phi: OrliczFunction) -> None:
    if phi.ga_convex_flag is not True:
        raise NotGAConvexError(
            f"needs certified GA-convexity; flag is {phi.ga_convex_flag!r} for {phi!r}"
        )


def _seeded_min(
    f: Callable[[float], float],
    lams: Sequence[float],
    tol: float,
    floors: Optional[np.ndarray] = None,
) -> float:
    """min of f over the ascending seeds lams, then Brent's search
    (golden_min) in log lam between the best finite seed's neighbours;
    +inf when no seed is finite.  The neighbours are the nearest seeds
    more than a relative tol away, so seeds an ulp apart (densities that
    differ only by rounding) neither narrow the bracket to one side nor
    change its cost.  The polish stops at tol or once f is flat to
    rounding.

    floors[k], when given, must be at most f(lams[k]) (+inf only where f
    is +inf).  Seeds are then solved in ascending (floors[k], k) until
    the next one can no longer beat the best (value, index) found, and a
    seed with an infinite floor is never solved, so the best seed, its
    tie-break and the polish are those of solving every seed.  A NaN
    floor bounds nothing; its seed is always solved.
    """
    if floors is None:
        keys = [NEG_INF] * len(lams)
    else:
        keys = np.where(np.isnan(floors), NEG_INF, floors).tolist()
    best, i = INF, -1
    for k in sorted(range(len(lams)), key=lambda k: (keys[k], k)):
        if keys[k] == INF or (i >= 0 and (keys[k], k) > (best, i)):
            break
        v = f(lams[k])
        if v < INF and (i < 0 or (v, k) < (best, i)):
            best, i = v, k
    if i < 0:
        return INF
    # seeds within a relative tol of the best one are the same point to
    # the polish, so the bracket reaches past them on either side
    lo = lams[max(bisect.bisect_left(lams, lams[i] / (1.0 + tol)) - 1, 0)]
    hi = lams[min(bisect.bisect_right(lams, lams[i] * (1.0 + tol)), len(lams) - 1)]
    _, v = golden_min(lambda t: f(math.exp(t)), math.log(lo), math.log(hi), tol=tol)
    return min(best, v)


def _canonical_atoms(Q: MeasureChange) -> tuple[np.ndarray, np.ndarray]:
    """(probs, dens) of Q sorted by (density, prob).

    The Lagrangians and their grid floors sum their terms in this order,
    so neither their values nor the searches that stop on those values
    depend on the order in which Q lists its atoms.
    """
    dens = np.asarray(Q.density, dtype=float)
    probs = Q.space.probs_array()
    order = np.lexsort((probs, dens))
    return probs[order], dens[order]


def _lagrangian(
    inner: Callable[[float, float], float], probs: np.ndarray, dens: np.ndarray
) -> Callable[[float], float]:
    """lam -> lam + sum_i p_i * inner(lam, w_i); +inf as soon as a term is."""

    def dual(lam: float) -> float:
        total = lam
        for p_i, w in zip(probs, dens):
            s = inner(lam, float(w))
            if s == INF:
                return INF
            total += p_i * s
        return total

    return dual


def _grid_floors(
    lams: Sequence[float],
    grid: np.ndarray,
    phi_grid: np.ndarray,
    probs: np.ndarray,
    dens: np.ndarray,
    edge_growth: bool = False,
) -> np.ndarray:
    """Lower bounds on the _lagrangian at every lam at once, for an inner
    problem that returns at least its grid maximum of w * grid - lam * phi_grid.

    The terms are summed in the order given (_canonical_atoms) with
    _lagrangian's own float operations, and rounding is monotone, so each
    floor is at most the Lagrangian in floating point too.  With
    edge_growth, a floor is +inf where some term fails the inner
    problem's edge-growth test, as the Lagrangian then is.
    """
    lam = np.asarray(lams, dtype=float)
    total = lam.copy()
    unbounded = np.zeros(len(lam), dtype=bool)
    for p_i, w in zip(probs, dens):
        obj = float(w) * grid - lam[:, None] * phi_grid
        obj = np.where(np.isnan(obj), NEG_INF, obj)
        if edge_growth:
            unbounded |= obj[:, 0] > obj[:, 1] + GROWTH_EPS
            unbounded |= obj[:, -1] > obj[:, -2] + GROWTH_EPS
        total += p_i * obj.max(axis=1)
    total[unbounded] = INF
    return total


def _first_order_dual_min(
    phi: OrliczFunction, probs: np.ndarray, dens: np.ndarray, geometric: bool
) -> Optional[tuple[float, float]]:
    """(min, argmin) over lam > 0 of D(lam) = lam + sum_i p_i sup_z (w_i z -
    lam F(z)), from the maximizers phi.first_order_point states; None when
    no root is bracketed or D is not finite at either end.

    z = x and F = Phi for beta, z = log x and F = Phi(e^z) for alpha.  At
    lam each inner sup sits at X*_i = first_order_point(w_i / lam), so D is
    convex with D'(lam) = 1 - m(lam), the moment m = E_P[Phi(X*)]
    nonincreasing.  A power-of-two bracket of m = 1 is closed to adjacent
    floats (search.secant_root), and D is evaluated at both ends, summed in
    the order given (_canonical_atoms); the smaller value is returned with
    its multiplier.  Any lam bounds the primal supremum from above, so
    rounding in the root never lets the penalty overstate.  An atom with
    w_i = 0 has X*_i = 0 and adds exactly -lam Phi(0): its w_i z term is 0,
    never 0 * log 0.  So does an atom whose X*_i underflows to 0, which
    overstates its inner sup by less than w_i |log X*_i|, itself below the
    float range.  An X* past the float range (+inf) makes m +inf and D +inf
    there.

    A finite upper stops every X* at upper as lam -> 0 (lam = 0 below
    stands for that limit: s = +inf wherever w_i > 0).  When the moment
    there is still at most 1 it never crosses 1, D is nondecreasing, and
    its infimum is the limit D(0+), returned with lam = 0.
    """
    point = phi.first_order_point

    def x_star(lam: float) -> np.ndarray:
        return point(dens / lam if lam > 0.0 else np.where(dens > 0.0, INF, 0.0), geometric)

    def moment(lam: float) -> float:
        return float(probs @ phi.eval_array(x_star(lam)))

    def dual(lam: float) -> float:
        x = x_star(lam)
        if not np.isfinite(x).all():
            return INF
        z = np.log(x, out=np.zeros_like(x), where=x > 0.0) if geometric else x
        total = lam
        for p_i, t in zip(probs.tolist(), (dens * z - lam * phi.eval_array(x)).tolist()):
            total += p_i * t
        return total if -INF < total < INF else INF

    # step k from 0 toward the root until m(2^k) - 1 changes sign
    k, m = 0, moment(1.0)
    above = m > 1.0
    if not above and phi.upper < INF and moment(0.0) <= 1.0:
        d = dual(0.0)
        return (d, 0.0) if d < INF else None
    prev = m
    while m == m and (m > 1.0) == above:
        k += 1 if above else -1
        if not -1074 <= k <= 1023:
            return None
        prev, m = m, moment(math.ldexp(1.0, k))
    if m != m:
        return None
    lo, hi, m_lo, m_hi = (k - 1, k, prev, m) if above else (k, k + 1, m, prev)
    lo, hi = math.ldexp(1.0, lo), math.ldexp(1.0, hi)
    lo, hi, _ = secant_root(lambda lam: (moment(lam), 1.0), lo, hi, (m_lo, 1.0), (m_hi, 1.0))
    d_lo, d_hi = dual(lo), dual(hi)
    best, lam = (d_hi, hi) if d_hi < d_lo else (d_lo, lo)
    return (best, lam) if best < INF else None


# ---------------------------------------------------------------------------
# beta: conjugate route
# ---------------------------------------------------------------------------


def beta_conjugate(phi: OrliczFunction, Q: MeasureChange) -> float:
    """beta(Q) = (inf over lam > 0 of (1/lam) E[1 + Psi(lam * dQ/dP)])^-1.

    Three exact cases.  A norm premium (phi.holder_exponent = r) has the
    dual-norm closed form 1 / ||dQ/dP||_r.  Phi == 1 on all of [0, 1]
    makes the premium the essential sup and beta exactly 1, the infimum
    approached as lam -> 0.  Any other convex built-in is knotted
    (PiecewiseLinear, Power(1), the two-branch losses with p = 1), and the
    infimum sits on a breakpoint (_breakpoint_dual_min).  This is
    _beta_block on one measure.
    """
    return _beta_block(phi, Q.space.probs_array(), np.array([Q.density]))[0]


# rows of densities per pass of _breakpoint_dual_min, which holds a few
# arrays of (rows x slopes x n) x n floats: a cap on memory, not on speed
BLOCK_ROWS = 2048


def _beta_block(phi: OrliczFunction, probs: np.ndarray, dens: np.ndarray) -> list[float]:
    """beta_conjugate at each row of dens (m x n), the densities of m
    measures on the space with probabilities probs, each to the bit."""
    _require_convex(phi)
    r = phi.holder_exponent
    if r is not None:
        return [_hoelder_beta(r, probs, w) for w in dens.tolist()]
    if phi.at_zero == 1.0:
        return [1.0] * len(dens)
    mins: list[float] = []
    for i in range(0, len(dens), BLOCK_ROWS):
        mins += _breakpoint_dual_min(phi, dens[i : i + BLOCK_ROWS], probs)
    return [min(1.0, 1.0 / v) for v in mins]


def _hoelder_beta(r: float, probs: np.ndarray, density: list[float]) -> float:
    """1 / ||w||_r capped at 1, for the density w of one measure."""
    dens = np.asarray(density, dtype=float)
    # once the largest density's r-th power passes e^709 the sum can
    # overflow (r large, p near 1), so scale by that density first
    top = max(density)
    if r * math.log(top) < 709.0:
        norm = float((probs @ dens**r) ** (1.0 / r))
    else:
        norm = top * float((probs @ (dens / top) ** r) ** (1.0 / r))
    return min(1.0, 1.0 / norm)


def _breakpoint_dual_min(phi: OrliczFunction, dens: np.ndarray, probs: np.ndarray) -> list[float]:
    """inf over lam > 0 of f(lam) = (1 + E[Psi(lam w)]) / lam for piecewise-linear
    Phi, at each row w of dens (m x n): m minima.

    Psi is piecewise linear with its breaks at the slopes s of Phi
    (phi._knot_slopes).  Between the breakpoints s / w_i, f is c0 / lam + c1
    and so monotone: its infimum sits on a breakpoint, at the limit upper
    that f reaches as lam -> inf (upper < inf), or, for upper = inf, on
    the edge s_end / max w beyond which Psi is +inf.  The edge is itself
    the breakpoint of the largest slope s_end at the largest w, and y is
    clipped to s_end against rounding.

    The breakpoints are built row by row.  Psi at every (breakpoint, atom)
    of the block comes from one conjugate call, and np.vecdot sums each
    breakpoint's E[Psi] with BLAS's dot product, the kernel of probs @ psi
    on one vector (psi @ probs would take the matrix-vector product, which
    rounds otherwise).  So each minimum is the float a loop over one
    measure's breakpoints gives.
    """
    slopes = phi._knot_slopes
    if not slopes:
        raise NotImplementedError(f"no exact beta for {phi!r}: it has no knots")
    capped = phi.upper < INF
    s_end = slopes[-1]
    rows: list[int] = []
    lams: list[float] = []
    for r, w in enumerate(dens.tolist()):
        edge = INF if capped else s_end / max(w)
        cands = {s / x for s in slopes for x in w if x > 0.0 and s / x <= edge}
        rows += [r] * len(cands)
        lams += cands
    y = np.array(lams)[:, None] * dens.take(rows, axis=0)
    if not capped:
        np.minimum(y, s_end, out=y)
    best = [phi.upper] * len(dens)
    for r, lam, total in zip(rows, lams, np.vecdot(conjugate(phi, y), probs).tolist()):
        v = (1.0 + total) / lam
        if v < best[r]:
            best[r] = v
    return best


# ---------------------------------------------------------------------------
# beta: primal (Lagrangian) route
# ---------------------------------------------------------------------------


def beta_primal(phi: OrliczFunction, Q: MeasureChange) -> float:
    """beta(Q) via sup{E_Q[X] : E[Phi(X)] <= 1, X >= 0}, reciprocal taken.

    The constraint is separable, so for a multiplier lam >= 0 the dual is
    D(lam) = lam + sum_i p_i * sup_x (phi_i x - lam Phi(x)), convex in
    lam, summed in the canonical atom order (_canonical_atoms).
    min_lam D(lam) >= the primal supremum, so 1/D never overstates beta
    beyond fp noise.  With a finite upper, D(0) = upper * E_P[dQ/dP] is
    the lam -> 0 end.  The routes read Phi and Phi' only, never the
    conjugate or the Hölder exponent, so each stays a cross-check of
    beta_conjugate.

    Phi == 1 on all of [0, 1] (and > 1 beyond it) makes
    {E[Phi(X)] <= 1} = {X <= 1 a.s.}, so sup E_Q[X] = 1 and beta is
    exactly 1, the infimum the Lagrangian only approaches.

    For a knotted Phi (phi._pieces) each inner sup sits at 0, at a knot
    below a finite upper or at upper itself
    (phi._sup_points, which the conjugate reads too), so D is evaluated
    there exactly, and D is piecewise linear with its kinks at w / s for
    the slopes s of Phi: its minimum over those kinks (and lam = 0) is
    the answer, with no search at all (_kink_dual_min).

    Any other family that states phi.first_order_point (Power with p > 1
    among the built-ins) takes the inner maximizer X* = least x with
    Phi'_+(x) >= w / lam, and the minimum of D is the root of
    E_P[Phi(X*)] = 1, found by a safeguarded secant
    (_first_order_dual_min).

    Any other Phi (no built-in) runs the seeded search: each inner
    problem, concave in x, by grid plus Brent's search on
    [0, min(X_CAP, upper)].  Unbounded rays are detected from the slope
    of Phi toward that cap, for the largest density first.  Each inner
    value is at least its grid maximum, so the grid gives every seed a
    floor under D (_grid_floors), +inf where the ray test rejects the
    seed; a seed whose floor is above the best value found, or whose
    floor is +inf, is never solved, and a lam polish follows the best
    seed (_seeded_min).
    """
    _require_convex(phi)
    if phi.at_zero == 1.0:
        return 1.0
    probs, dens = _canonical_atoms(Q)
    if phi._pieces is not None:
        dmin = _kink_dual_min(phi, probs, dens)
    else:
        root = None
        if phi.first_order_point is not None:
            root = _first_order_dual_min(phi, probs, dens, geometric=False)
        dmin = root[0] if root is not None else _searched_beta_dual_min(phi, probs, dens)
    if phi.upper < INF:
        dmin = min(dmin, phi.upper * float(probs @ dens))
    if dmin == INF:
        return 0.0  # infinitely penalized: constraint never binds the objective
    if not (dmin > 0.0):
        return 1.0
    return min(1.0, 1.0 / dmin)


def _kink_dual_min(phi: OrliczFunction, probs: np.ndarray, dens: np.ndarray) -> float:
    """beta_primal's min of D over its kinks w / s, D exact at each from
    phi._sup_points (_grid_floors); +inf with no kink.  With upper = inf,
    D is +inf below max w / s_end (w x - lam Phi(x) runs away along the
    last piece), the edge beta_conjugate stops at too."""
    slopes = phi._knot_slopes
    if not slopes:
        return INF
    w = [float(x) for x in dens if x > 0.0]
    edge = max(w) / slopes[-1] if phi.upper == INF else 0.0
    lams = sorted({x / s for s in slopes for x in w if x / s >= edge})
    xs, vs = phi._sup_points[..., 0]
    return float(_grid_floors(lams, xs, vs, probs, dens).min(initial=INF))


def _searched_beta_dual_min(phi: OrliczFunction, probs: np.ndarray, dens: np.ndarray) -> float:
    """beta_primal's seeded search with grid-and-Brent inner solves."""
    top = min(X_CAP, phi.upper)
    v_top = phi(top)
    v_half = phi(top * 0.5)
    slope_inf = INF if v_top == INF else (v_top - v_half) / (top * 0.5)
    dmax = float(dens.max())
    has_ray = phi.upper == INF and slope_inf < INF

    # x -> w x - lam Phi(x) grows without bound once w exceeds lam times
    # the slope toward the cap; the test is monotone in w, so the largest
    # density settles it for every term before any inner problem is solved
    def ray(lam):
        return dmax - lam * slope_inf > 1e-12 * max(1.0, dmax)

    xs = [0.0] + [float(x) for x in np.geomspace(1e-9, top, 41)]
    xs.extend(x for x, _ in phi.points if 0.0 < x < top)
    xs = sorted(set(xs))
    xs_arr = np.asarray(xs)
    phi_grid = phi.eval_array(xs_arr)

    def inner(lam: float, w: float) -> float:
        obj = w * xs_arr - lam * phi_grid
        obj = np.where(np.isnan(obj), NEG_INF, obj)
        i = int(np.argmax(obj))
        lo = xs[max(i - 1, 0)]
        hi = xs[min(i + 1, len(xs) - 1)]

        def scalar(x: float) -> float:
            v = phi(x)
            return NEG_INF if v == INF else w * x - lam * v

        if lo > 0.0:
            _, v2 = golden_max(
                lambda t: scalar(math.exp(t)), math.log(lo), math.log(hi), tol=1e-11
            )
        else:
            _, v2 = golden_max(scalar, lo, hi, tol=1e-13)
        return max(float(obj[i]), v2)

    # the upper reach matters when the dual objective decreases toward a
    # lam -> inf limit, as it does for functions flat at level 1 on [0, 1]
    cands = {1.0} | {float(l) for l in np.geomspace(1e-4, 1e6, 33)}
    if 0.0 < slope_inf < INF:
        lam_min = dmax / slope_inf
        cands |= {lam_min, lam_min * (1.0 + 1e-9), lam_min * 1.25, lam_min * 2.0, lam_min * 8.0}
    lam_list = sorted(c for c in cands if c > 0.0)
    lagrangian = _lagrangian(inner, probs, dens)

    def dual(lam: float) -> float:
        return INF if has_ray and ray(lam) else lagrangian(lam)

    floors = _grid_floors(lam_list, xs_arr, phi_grid, probs, dens)
    if has_ray:
        floors[ray(np.asarray(lam_list))] = INF
    return _seeded_min(dual, lam_list, 1e-11, floors=floors)


# ---------------------------------------------------------------------------
# alpha: geometric penalty
# ---------------------------------------------------------------------------


def alpha_penalty(phi: OrliczFunction, Q: MeasureChange) -> float:
    """alpha(Q) = exp(-sup{E_Q[Y] : E[Phi(e^Y)] <= 1}), 0 when the sup is inf.

    GA-convexity makes y -> Phi(e^y) convex, so the same separable
    Lagrangian as in beta_primal applies in log coordinates, summed in
    the canonical atom order (_canonical_atoms).  Phi == 1 on all of
    [0, 1] forces Y <= 0, so the sup is 0 and alpha exactly 1, the
    infimum the Lagrangian only approaches as lam -> inf.

    A family that states phi.log_slopes = (b, a) (gm, gexpectile) has
    Phi(e^y) = 1 + a y_+ - b y_-, and alpha is exactly 1 or 0
    (_indicator_alpha).

    Phi(0) = -inf and an atom with w_i = 0 give alpha = 0: Y = -inf there
    pays for any E_Q[Y], and D is +inf at every lam.

    A family that states phi.first_order_point (Power, and every knotted
    Phi: pwl, the expectile, lp:alpha,1, lpq:a,b,1,1 and lpq:a,0,1,q, whose
    piece table states it) takes the inner maximizer X* = least x with
    x Phi'_+(x) >= w / lam, and the minimum of D is the root of
    E_P[Phi(X*)] = 1, found by a safeguarded secant, or for a finite upper
    the limit lam -> 0 where no root exists (_first_order_dual_min).
    For Power(p) that gives exp(-KL(Q|P) / p).

    Any other Phi (a user family; no built-in) runs the seeded search on
    the box [-YCAP, YCAP], each inner problem by grid plus Brent's search.
    Positive growth at either box edge certifies an unbounded feasible ray
    (the objective is concave), which sends the penalty to exactly 0.  As
    in beta_primal, a seed is solved only while its grid floor can still
    win; the floor is +inf where the edge-growth test fires.
    """
    _require_ga_convex(phi)
    if phi.at_zero == 1.0:
        return 1.0
    slopes = phi.log_slopes
    if slopes is not None:
        return _indicator_alpha(slopes, Q.density)
    if phi.at_zero == NEG_INF and min(Q.density) == 0.0:
        return 0.0
    probs, dens = _canonical_atoms(Q)
    root = None
    if phi.first_order_point is not None:
        root = _first_order_dual_min(phi, probs, dens, geometric=True)
    dmin = root[0] if root is not None else _searched_alpha_dual_min(phi, probs, dens)
    if dmin == INF:
        return 0.0
    return min(1.0, math.exp(-dmin))


def _indicator_alpha(log_slopes: tuple[float, float], density: Sequence[float]) -> float:
    """alpha(Q) for Phi(e^y) = 1 + a y_+ - b y_-, (b, a) = log_slopes: 1
    where b max w <= a min w over the atoms (w = dQ/dP), else 0.

    E_Q[Y] <= max w E_P[Y_+] - min w E_P[Y_-], and the constraint
    E_P[a Y_+ - b Y_-] <= 0 caps E_P[Y_+] at (b / a) E_P[Y_-], so
    b max w <= a min w gives E_Q[Y] <= 0, attained at Y = 0 (alpha 1).
    Otherwise b > 0, and Y = t on an atom i of max w and -t p_i a / (p_j b)
    on an atom j of min w meets the constraint with
    E_Q[Y] = t p_i (w_i - w_j a / b) > 0 for every t (alpha 0; a zero
    density is such a j).  The test is a jump, so it is decided in exact
    rationals, not in rounded products.
    """
    b, a = log_slopes
    lo, hi = Fraction(min(density)), Fraction(max(density))
    return 1.0 if Fraction(b) * hi <= Fraction(a) * lo else 0.0


def _searched_alpha_dual_min(phi: OrliczFunction, probs: np.ndarray, dens: np.ndarray) -> float:
    """alpha_penalty's seeded search with grid-and-Brent inner solves."""
    ys = np.linspace(-YCAP, YCAP, 97)
    with np.errstate(over="ignore"):
        phi_e = phi.eval_array(np.exp(ys))

    # the edge-growth test reads two grid points at each end; it runs first,
    # with the grid's own float operations, so a multiplier it rejects (most
    # polish steps for gm) costs no pass over the grid
    edges = [(float(ys[j]), float(phi_e[j])) for j in (0, 1, -2, -1)]

    def inner(lam: float, w: float) -> float:
        o = [w * y - lam * v for y, v in edges]
        o = [NEG_INF if t != t else t for t in o]  # nan -> -inf, as on the grid
        if o[0] > o[1] + GROWTH_EPS or o[3] > o[2] + GROWTH_EPS:
            return INF
        obj = w * ys - lam * phi_e
        obj = np.where(np.isnan(obj), NEG_INF, obj)
        i = int(np.argmax(obj))
        lo = float(ys[max(i - 1, 0)])
        hi = float(ys[min(i + 1, len(ys) - 1)])

        def scalar(y: float) -> float:
            v = phi(math.exp(y))
            return NEG_INF if v == INF else w * y - lam * v

        _, v2 = golden_max(scalar, lo, hi, tol=1e-13)
        return max(float(obj[i]), v2)

    cands = {1.0} | {float(w) for w in dens if w > 0.0}
    cands |= {float(l) for l in np.geomspace(1e-4, 1e4, 25)}
    lam_list = sorted(cands)
    floors = _grid_floors(lam_list, ys, phi_e, probs, dens, edge_growth=True)
    return _seeded_min(_lagrangian(inner, probs, dens), lam_list, 1e-11, floors=floors)


# ---------------------------------------------------------------------------
# simplex search
# ---------------------------------------------------------------------------


def simplex_grid(n: int, step: float) -> list[tuple[float, ...]]:
    """All probability vectors of length n with coordinates on a step grid."""
    if n < 1:
        raise DimensionError(f"need n >= 1, got {n}")
    M = round(1.0 / step)
    if M < 1 or abs(M * step - 1.0) > 1e-9:
        raise ValueError(f"step {step!r} must evenly divide 1")
    # stars and bars: n - 1 bars among M + n - 1 slots, in lexicographic order
    end = (M + n - 1,)
    return [
        tuple((b - a - 1) / M for a, b in zip((-1,) + bars, bars + end))
        for bars in itertools.combinations(range(M + n - 1), n - 1)
    ]


def _as_measure(space, q: Sequence[float], probs: np.ndarray) -> MeasureChange:
    dens = tuple(float(qi) / float(pi) for qi, pi in zip(q, probs))
    return MeasureChange(space, dens)


def _first_order_weights(
    phi: OrliczFunction, vals: np.ndarray, probs: np.ndarray, k: float, kind: str
) -> Optional[np.ndarray]:
    """Weights of Q* with dQ*/dP = xi / E[xi], or None without a usable xi.

    xi = Phi'_+(X/k) (arithmetic) or (X/k) Phi'_+(X/k) (geometric).
    Fenchel equality holds for every subgradient, so the right derivative
    serves at kinks and zero atoms too.  When xi == 0 (or k == 0), Q* is
    P conditioned on {X = max X}.
    """
    deriv = phi.derivative
    if deriv is None:
        return None
    if k > 0.0:
        x = vals / k
        xi = deriv(x) if kind == "arithmetic" else x * deriv(x)
        if not (np.isfinite(xi).all() and (xi >= 0.0).all()):
            return None
    else:
        xi = np.zeros_like(vals)
    w = probs * xi
    if not float(w.sum()) > 0.0:
        w = np.where(vals == vals.max(), probs, 0.0)
    return w / w.sum()


def _log_slope_density(
    log_slopes: tuple[float, float], vals: np.ndarray, probs: np.ndarray, k: float
) -> tuple[float, ...]:
    """dQ*/dP of the geometric Q* for Phi(e^y) = 1 + a y_+ - b y_-, with
    (b, a) = log_slopes and k > 0 the premium.

    xi = (X/k) Phi'_+(X/k) is b below k and a from k on, taken from the
    fact itself: through derivative, x * (1 / x) can land an ulp off 1.
    dQ*/dP is b / c and a / c, c = E_P[xi], and the larger value is
    rounded down until the exact test of _indicator_alpha passes, so that
    alpha(Q*) = 1 (for gm both values are one float).  The integral of the
    density stays within the ulps that MeasureChange allows.
    """
    b, a = log_slopes
    up = vals >= k
    c = float(probs @ np.where(up, a, b))
    lo, hi = b / c, a / c
    while _indicator_alpha(log_slopes, (lo, hi)) == 0.0:
        hi = math.nextafter(hi, 0.0)
    return tuple(np.where(up, hi, lo).tolist())


def dual_search(
    phi: OrliczFunction,
    X: RandomVariable,
    kind: str = "arithmetic",
    grid_step: Optional[float] = None,
) -> DualCertificate:
    """Dual certificate at the first-order measure Q*, with a grid fallback.

    With k the premium orlicz_premium returns, Q* has dQ*/dP proportional to
    Phi'_+(X/k) (arithmetic) or (X/k) Phi'_+(X/k) (geometric) and attains
    beta(Q*) E_Q*[X] = k (alpha(Q*) exp(E_Q*[log X]) = k); the penalty
    comes from beta_conjugate / alpha_penalty as for any Q.  Q* is
    returned with route "first_order" when its gap is within
    1e-9 * max(1, primal), the slack weak duality is checked with.

    Otherwise (phi.derivative is None, Phi'_+ is infinite at an atom, or
    the bound is loose) the search runs with route "grid": the better of
    P and Q* is the incumbent, the candidates are the whole simplex grid
    (step grid_step, default 0.01 for n <= 3 and 0.05 for n = 4) or 32
    seeded multistarts for larger n, and a deterministic pairwise-transfer
    polish with halving step refines the best point.  Ties prefer the
    lexicographically smallest density, independent of evaluation order.
    """
    if kind not in ("arithmetic", "geometric"):
        raise ValueError(f"kind must be 'arithmetic' or 'geometric', got {kind!r}")
    n = X.space.n
    probs = X.space.probs_array()
    vals = X.values_array()
    if kind == "arithmetic":
        _require_convex(phi)
        logs = None
    else:
        _require_ga_convex(phi)
        if float(vals.min()) <= 0.0:
            raise DomainError("geometric certificates need strictly positive outcomes")
        logs = np.log(vals)

    from .premium import orlicz_premium

    primal = orlicz_premium(phi, X).value
    slack = 1e-9 * max(1.0, primal)

    def bound(q: Sequence[float], pen: float) -> float:
        # a Q-mean lies between the least and greatest value Q charges;
        # clamping keeps the rounding of the dot product inside that range
        charged = vals[np.asarray(q) > 0.0]
        lo, hi = float(charged.min()), float(charged.max())
        if kind == "arithmetic":
            val = min(max(float(np.dot(q, vals)), lo), hi)
        else:
            val = min(max(math.exp(np.dot(q, logs)), lo), hi) if pen > 0.0 else 0.0
        return pen * val

    def evaluate(
        q: Sequence[float], density: Optional[tuple[float, ...]] = None
    ) -> tuple[float, float, MeasureChange]:
        Q = _as_measure(X.space, q, probs) if density is None else MeasureChange(X.space, density)
        pen = beta_conjugate(phi, Q) if kind == "arithmetic" else alpha_penalty(phi, Q)
        return bound(q, pen), pen, Q

    def certificate(bound: float, pen: float, Q: MeasureChange, route: str) -> DualCertificate:
        if bound > primal + slack:
            raise OrliczError(f"weak duality violated: bound {bound!r} exceeds primal {primal!r}")
        return DualCertificate(
            measure=Q, penalty=pen, lower_bound=bound, kind=kind, primal=primal, route=route
        )

    slopes = phi.log_slopes if kind == "geometric" else None
    d_star = None
    if slopes is not None:
        d_star = _log_slope_density(slopes, vals, probs, primal)
        q_star = probs * np.asarray(d_star)
    else:
        q_star = _first_order_weights(phi, vals, probs, primal, kind)
    if q_star is not None:
        star = evaluate(q_star, d_star)
        if primal - star[0] <= slack:
            return certificate(*star, "first_order")

    def better(b: float, Q: MeasureChange) -> bool:
        return b > best_bound or (b == best_bound and Q.density < best_Q.density)

    best_bound, best_pen, best_Q = evaluate(tuple(float(p) for p in probs))
    best_q = probs.copy()
    if q_star is not None and better(star[0], star[2]):
        (best_bound, best_pen, best_Q), best_q = star, q_star
    if grid_step is None:
        grid_step = 0.01 if n <= 3 else 0.05
    if n <= GRID_MAX_N:
        candidates: Iterable[Sequence[float]] = simplex_grid(n, grid_step)
    else:
        rng = np.random.default_rng(20210607)
        candidates = [tuple(rng.dirichlet(np.ones(n))) for _ in range(32)]

    # every candidate's beta in one block; a measure is built only to be kept
    dens = np.asarray(candidates, dtype=float) / probs
    rows = [tuple(d) for d in dens.tolist()]
    if kind == "arithmetic":
        pens = _beta_block(phi, probs, dens)
    else:
        pens = [alpha_penalty(phi, MeasureChange(X.space, d)) for d in rows]
    for q, d, pen in zip(candidates, rows, pens):
        b = bound(q, pen)
        if b > best_bound or (b == best_bound and d < best_Q.density):
            best_bound, best_pen, best_Q = b, pen, MeasureChange(X.space, d)
            best_q = np.asarray(q, dtype=float)

    # pairwise-transfer polish with halving step
    q = best_q.copy()
    delta = grid_step / 2.0
    while delta > 1e-9:
        improved = False
        for i in range(n):
            for j in range(n):
                if i == j or q[j] < delta:
                    continue
                cand = q.copy()
                cand[i] += delta
                cand[j] -= delta
                cand /= math.fsum(cand)  # rounding in the transfers must not drift off the simplex
                b, pen, Q = evaluate(cand)
                if b > best_bound:
                    best_bound, best_pen, best_Q = b, pen, Q
                    q = cand
                    improved = True
        if not improved:
            delta *= 0.5

    return certificate(best_bound, best_pen, best_Q, "grid")


# ---------------------------------------------------------------------------
# entropy bridge
# ---------------------------------------------------------------------------


def relative_entropy(R: MeasureChange, Q: MeasureChange) -> float:
    """KL divergence sum p_i r_i log(r_i / q_i); +inf off Q's support."""
    if R.space != Q.space:
        raise DimensionError("measures must share their base space")
    terms = []
    for p, r, qd in zip(R.space.probs, R.density, Q.density):
        if r == 0.0:
            continue
        if qd == 0.0:
            return INF
        terms.append(p * r * math.log(r / qd))
    return float(math.fsum(terms))


def alpha_from_beta(
    beta_values: Iterable[tuple[MeasureChange, float]], R: MeasureChange
) -> float:
    """sup over the (Q, beta(Q)) pairs of beta(Q) * exp(-H(R, Q)); a lower bound on alpha(R)."""
    best = 0.0
    for Q, b in beta_values:
        if b <= 0.0:
            continue
        h = relative_entropy(R, Q)
        if h == INF:
            continue
        best = max(best, b * math.exp(-h))
    return best


def beta_on_grid(
    phi: OrliczFunction, space, grid_step: float = 0.01
) -> list[tuple[MeasureChange, float]]:
    """beta on the simplex grid (plus Q = P), for the entropy bridge.

    Every distinct measure, in grid order, with its beta from one
    _beta_block call.  DimensionError for n > GRID_MAX_N, before any
    measure is built.
    """
    probs = space.probs_array()
    _check_grid_size(len(probs))
    _, dens = _grid_measures(probs, grid_step)
    distinct = list(dict.fromkeys(map(tuple, dens.tolist())))
    betas = _beta_block(phi, probs, np.array(distinct))
    return [(MeasureChange(space, d), b) for d, b in zip(distinct, betas)]


def _check_grid_size(n: int) -> None:
    if n > GRID_MAX_N:
        raise DimensionError(f"grid restriction limited to n <= {GRID_MAX_N}, got n = {n}")


def _grid_measures(
    probs: np.ndarray, grid_step: float
) -> tuple[list[tuple[float, ...]], np.ndarray]:
    """The weights of Q = P and of each measure of the simplex grid, and
    their densities dQ/dP, one row each, the floats of _as_measure."""
    qs = [tuple(probs.tolist())] + simplex_grid(len(probs), grid_step)
    return qs, np.asarray(qs) / probs


@dataclass(frozen=True)
class AlphaBridgeReport:
    """The bridge lower bound on alpha(R) against alpha(R) itself.

    bridge_value is beta(Q) exp(-H(R|Q)) at the maximizer Q* read off
    alpha's multiplier root (route "first_order"), where the bound holds
    with equality, or the sup of that bound over the simplex grid (route
    "grid"), which can undershoot by the grid resolution.  reported_gap
    is the budget 5 * grid_step that the acceptance checks use, on either
    route.
    """

    bridge_value: float
    direct_value: float
    reported_gap: float
    grid_step: float
    within_gap: bool
    route: str


def alpha_bridge_report(
    phi: OrliczFunction, R: MeasureChange, grid_step: float = 0.01
) -> AlphaBridgeReport:
    """alpha(R) against its bridge lower bound sup_Q beta(Q) exp(-H(R|Q)).

    Every Q gives alpha(R) >= beta(Q) exp(-H(R|Q)).  Where alpha_penalty
    takes the multiplier root (_first_order_dual_min; phi states
    first_order_point), the sup is attained at the one measure
    dQ*/dP = g / c, g = r / (lam* X*), c = E_P[g], r = dR/dP, with X* the
    maximizers at alpha's root lam* (g = 0 where r = 0), and the bound
    holds with equality:
    - X*_i maximizes r_i log x - lam* Phi(x), so g_i is a subgradient of
      Phi at X*_i, and E_P[Phi(X*)] = 1 at the root;
    - so Phi(X) >= Phi(X*) + g (X - X*) puts X* at the maximum of
      E_Q*[X] over {E_P[Phi(X)] <= 1}, and beta(Q*) = 1 / E_Q*[X*] = lam* c;
    - H(R|Q*) = E_R[log(r c / g)] = log(lam* c) + E_R[log X*];
    - so beta(Q*) exp(-H(R|Q*)) = exp(-E_R[log X*]) = exp(-D(lam*)) = alpha(R).
    Where a finite upper leaves no root and D takes its infimum as
    lam -> 0, X* = upper wherever r > 0, so Q* = R, and
    beta(R) = 1 / upper = exp(-D(0+)) = alpha(R).  Phi == 1 on [0, 1]
    makes alpha and beta exactly 1, and Q* = R too.
    The report then reads bridge_value = beta_conjugate(Q*) exp(-H(R|Q*))
    and direct_value = exp(-D) at the same root, route "first_order";
    rounding can move Q* off the exact maximizer, but any Q keeps
    bridge_value a lower bound.  Any other phi, or a maximizer that
    underflows to 0 on an atom R charges, takes the sup over the simplex
    grid of step grid_step (plus Q = P), route "grid", which raises
    DimensionError for n > GRID_MAX_N.
    """
    _require_convex(phi)
    _require_ga_convex(phi)
    star = _bridge_maximizer(phi, R)
    if star is None:
        bridge = alpha_from_beta(beta_on_grid(phi, R.space, grid_step), R)
        direct, route = alpha_penalty(phi, R), "grid"
    else:
        Q, direct = star
        bridge, route = alpha_from_beta([(Q, beta_conjugate(phi, Q))], R), "first_order"
    gap = 5.0 * grid_step
    return AlphaBridgeReport(
        bridge_value=bridge,
        direct_value=direct,
        reported_gap=gap,
        grid_step=grid_step,
        within_gap=abs(direct - bridge) <= gap,
        route=route,
    )


def _bridge_maximizer(
    phi: OrliczFunction, R: MeasureChange
) -> Optional[tuple[MeasureChange, float]]:
    """(Q*, alpha(R)) from alpha's multiplier root, or its limit lam = 0
    (alpha_bridge_report), or None where alpha_penalty takes neither or a
    maximizer on an atom R charges underflows to 0.  Phi == 1 on [0, 1]
    gives (R, 1.0): alpha = beta = 1 everywhere, and H(R|R) = 0."""
    if phi.at_zero == 1.0:
        return R, 1.0
    if phi.first_order_point is None:
        return None
    probs, dens = _canonical_atoms(R)
    root = _first_order_dual_min(phi, probs, dens, geometric=True)
    if root is None:
        return None
    d, lam = root
    r = np.asarray(R.density, dtype=float)
    charged = r > 0.0
    with np.errstate(divide="ignore"):  # lam = 0: the limit, s = +inf where r > 0
        s = np.divide(r, lam, out=np.zeros_like(r), where=charged)
    x = phi.first_order_point(s, True)
    if not (x[charged] > 0.0).all():
        return None
    g = np.divide(r, x, out=np.zeros_like(r), where=charged)
    c = float(R.space.probs_array() @ g)
    return MeasureChange(R.space, tuple((g / c).tolist())), min(1.0, math.exp(-d))


# ---------------------------------------------------------------------------
# HG dual restriction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HGDualReport:
    """The plain-expectation dual of the HG measure, read off a simplex grid.

    dual_bound is the largest E_Q[X] over the grid measures with
    |beta(Q) - 1| <= band (admissible_count of them, out of total_count),
    best_density the density of the measure that attains it.  The band
    admits Q with beta(Q) < 1, whose E_Q[X] the exact dual over
    {beta(Q) = 1} never reaches, so dual_bound is a grid estimate of the
    dual value and can exceed primal: it is not a lower bound.  gap is
    primal - dual_bound, and agrees says |gap| <= 2 * band * max(1, |primal|).
    """

    primal: float
    dual_bound: float
    gap: float
    band: float
    admissible_count: int
    total_count: int
    best_density: Optional[tuple[float, ...]]
    agrees: bool


def hg_dual_check(
    phi: OrliczFunction, X: RandomVariable, grid_step: float = 0.01
) -> HGDualReport:
    """Maximize E_Q[X] over grid measures with |beta(Q) - 1| <= grid_step.

    The exact dual of the HG measure ranges over {beta(Q) = 1}; on a
    grid that set is thickened to a band of width grid_step, and the
    result is compared to the primal within 2 * grid_step.  The band
    holds measures with beta(Q) < 1 too, so the maximum can lie above the
    primal (HGDualReport): it estimates the dual value, it does not bound
    it.  Q = P comes first, then the grid; every beta comes from one
    _beta_block call, and ties in E_Q[X] go to the smallest density.
    """
    _require_convex(phi)
    _check_grid_size(X.space.n)
    from .hg import hg_risk_measure

    primal = hg_risk_measure(phi, X, tol=1e-10).value
    probs = X.space.probs_array()
    vals = X.values_array()
    band = grid_step
    qs, dens = _grid_measures(probs, grid_step)
    betas = _beta_block(phi, probs, dens)
    rows = dens.tolist()
    best_val = NEG_INF
    best: Optional[int] = None
    admissible = [i for i, b in enumerate(betas) if abs(b - 1.0) <= band]
    for i in admissible:
        val = float(np.dot(qs[i], vals))
        if val > best_val or (val == best_val and (best is None or rows[i] < rows[best])):
            best_val, best = val, i
    gap = primal - best_val
    agrees = abs(gap) <= 2.0 * grid_step * max(1.0, abs(primal))
    return HGDualReport(
        primal=primal,
        dual_bound=best_val,
        gap=gap,
        band=band,
        admissible_count=len(admissible),
        total_count=len(rows),
        best_density=None if best is None else tuple(rows[best]),
        agrees=agrees,
    )

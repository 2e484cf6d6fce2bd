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
runs the Lagrangian in log coordinates.  Each Lagrangian sums its terms
in a canonical atom order, so its value, and the work of the searches
that stop on it, does not depend on how Q lists its atoms.  For a
piecewise-linear Phi, beta's Lagrangian is exact at the knots of Phi and
at its own kinks, and needs no search.  Otherwise its inner problems and
the multiplier polish run Brent's method (search.golden_max), which
stops once the value is flat to rounding; a multiplier seed is solved
only while its grid floor, a lower bound on the dual read off the inner
problems' grids for every seed in one array pass, leaves it a chance to
win, and the seeds skipped never change a result.  Phi == 1 on all of
[0, 1] gives both penalties exactly 1 without a search.  A
relative-entropy bridge converts beta values into alpha values.

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
from .search import golden_max, golden_min

X_CAP = 1e6  # right end of beta_primal's x grid when upper = inf
YCAP = 60.0  # log-coordinate box for the geometric Lagrangian
GROWTH_EPS = 1e-9  # cap-growth threshold: larger slope means an unbounded ray


@dataclass(frozen=True)
class DualCertificate:
    """A verified lower bound on the premium from one measure Q.

    lower_bound = penalty * E_Q[X] (arithmetic) or
    penalty * exp(E_Q[log X]) (geometric); weak duality keeps it at or
    below primal, the premium computed at tol 1e-10.  route says how Q
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


# ---------------------------------------------------------------------------
# beta: conjugate route
# ---------------------------------------------------------------------------


def beta_conjugate(phi: OrliczFunction, Q: MeasureChange) -> float:
    """beta(Q) = (inf over lam > 0 of (1/lam) E[1 + Psi(lam * dQ/dP)])^-1.

    Three exact cases.  A norm premium (phi.holder_exponent = r) has the
    dual-norm closed form 1 / ||dQ/dP||_r.  Phi == 1 on all of [0, 1]
    makes the premium the essential sup and beta exactly 1, the infimum
    approached as lam -> 0.  Any other convex built-in is piecewise
    linear (PiecewiseLinear, Power(1), the two-branch losses with p = 1),
    and the infimum sits on a breakpoint (_breakpoint_dual_min).
    """
    _require_convex(phi)
    dens = np.asarray(Q.density, dtype=float)
    probs = Q.space.probs_array()
    r = phi.holder_exponent
    if r is not None:
        return min(1.0, 1.0 / float((probs @ dens**r) ** (1.0 / r)))
    if phi.at_zero == 1.0:
        return 1.0
    return min(1.0, 1.0 / _breakpoint_dual_min(phi, dens, probs))


def _knot_slopes(phi: OrliczFunction) -> set[float]:
    """The finite positive slopes of a piecewise-linear Phi, read off
    phi.derivative at 0 and at its knots; empty when Phi states no knots."""
    if phi.derivative is None or not phi.points:
        return set()
    knots = np.array([0.0] + [x for x, _ in phi.points])
    return {float(s) for s in phi.derivative(knots) if 0.0 < s < INF}


def _breakpoint_dual_min(phi: OrliczFunction, dens: np.ndarray, probs: np.ndarray) -> float:
    """inf over lam > 0 of f(lam) = (1 + E[Psi(lam w)]) / lam for piecewise-linear Phi.

    Psi is piecewise linear with its breaks at the slopes s of Phi
    (_knot_slopes).  Between the breakpoints s / w_i, f is c0 / lam + c1
    and so monotone: its infimum sits on a breakpoint, on the edge
    s_end / max w beyond which Psi is +inf (upper = inf; y is clipped to
    s_end there against rounding), or at the limit upper that f reaches
    as lam -> inf (upper < inf).
    """
    slopes = _knot_slopes(phi)
    if not slopes:
        raise NotImplementedError(f"no exact beta for {phi!r}: it has no knots")
    capped = phi.upper < INF
    s_end = max(slopes, default=0.0)
    edge = INF if capped else s_end / float(dens.max())
    cands = {s / w for s in slopes for w in dens.tolist() if w > 0.0 and s / w <= edge}
    if 0.0 < edge < INF:
        cands.add(edge)
    best = phi.upper
    for lam in cands:
        y = lam * dens if capped else np.minimum(lam * dens, s_end)
        psi = np.array([conjugate(phi, v) for v in y.tolist()])
        best = min(best, (1.0 + float(probs @ psi)) / lam)
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
    beyond fp noise.  Unbounded rays are detected from the slope of Phi
    toward min(X_CAP, upper), for the largest density first.  With a
    finite upper, D(0) = upper * E_P[dQ/dP] is the lam -> 0 end.

    For a piecewise-linear Phi (_knot_slopes non-empty) each inner sup
    sits at 0, at a knot below a finite upper or at upper itself
    (phi._sup_points, which the conjugate reads too), so D is evaluated
    there exactly, and D is piecewise linear with its kinks at w / s for
    the slopes s of Phi: its minimum over those kinks (and lam = 0) is
    the answer, with no search at all.

    Any other Phi solves each inner problem, concave in x (Phi convex),
    by grid plus Brent's search on [0, min(X_CAP, upper)].  Each inner
    value is at least its grid maximum, so the grid gives every seed a
    floor under D (_grid_floors), +inf where the ray test rejects the
    seed; a seed whose floor is above the best value found, or whose
    floor is +inf, is never solved, and a lam polish follows the best
    seed (_seeded_min).  Phi == 1 on all of [0, 1] (and > 1 beyond it)
    makes {E[Phi(X)] <= 1} = {X <= 1 a.s.}, so sup E_Q[X] = 1 and beta
    is exactly 1, the infimum the Lagrangian only approaches.
    """
    _require_convex(phi)
    if phi.at_zero == 1.0:
        return 1.0
    probs, dens = _canonical_atoms(Q)

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

    slopes = _knot_slopes(phi)
    if slopes:
        # the floors on the exact inner values are D itself at every kink
        xs_arr, phi_grid = np.array(phi._sup_points).T
        lam_list = sorted({float(w) / s for s in slopes for w in dens if w > 0.0})
        d_seeds = _grid_floors(lam_list, xs_arr, phi_grid, probs, dens)
        if has_ray:
            d_seeds[ray(np.asarray(lam_list))] = INF
        dmin = float(d_seeds.min(initial=INF))
    else:
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
        dmin = _seeded_min(dual, lam_list, 1e-11, floors=floors)
    if phi.upper < INF:
        dmin = min(dmin, phi.upper * float(probs @ dens))
    if dmin == INF:
        return 0.0  # infinitely penalized: constraint never binds the objective
    if not (dmin > 0.0):
        return 1.0
    return min(1.0, 1.0 / dmin)


# ---------------------------------------------------------------------------
# alpha: geometric penalty
# ---------------------------------------------------------------------------


def alpha_penalty(phi: OrliczFunction, Q: MeasureChange) -> float:
    """alpha(Q) = exp(-sup{E_Q[Y] : E[Phi(e^Y)] <= 1}), 0 when the sup is inf.

    GA-convexity makes y -> Phi(e^y) convex, so the same separable
    Lagrangian applies in log coordinates on the box [-YCAP, YCAP],
    summed in the canonical atom order (_canonical_atoms), with each
    inner problem solved by grid plus Brent's search.  That holds for a
    piecewise-linear Phi too: Phi(e^y) is not piecewise linear in y, so
    its knots do not end the search as they do in beta_primal.  Positive
    growth at either box edge certifies an unbounded feasible ray (the
    objective is concave), which sends the penalty to exactly 0.
    Phi == 1 on all of [0, 1] forces Y <= 0, so the sup is 0 and alpha
    exactly 1, the infimum the Lagrangian only approaches as lam -> inf.
    As in beta_primal, a seed is solved only while its grid floor can
    still win; the floor is +inf where the edge-growth test fires.
    """
    _require_ga_convex(phi)
    if phi.at_zero == 1.0:
        return 1.0
    probs, dens = _canonical_atoms(Q)

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
    dmin = _seeded_min(_lagrangian(inner, probs, dens), lam_list, 1e-11, floors=floors)
    if dmin == INF:
        return 0.0
    return min(1.0, math.exp(-dmin))


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


def dual_search(
    phi: OrliczFunction,
    X: RandomVariable,
    kind: str = "arithmetic",
    grid_step: Optional[float] = None,
) -> DualCertificate:
    """Dual certificate at the first-order measure Q*, with a grid fallback.

    With k the premium at tol 1e-10, Q* has dQ*/dP proportional to
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

    primal = orlicz_premium(phi, X, tol=1e-10).value
    slack = 1e-9 * max(1.0, primal)

    def evaluate(q: Sequence[float]) -> tuple[float, float, MeasureChange]:
        # a Q-mean lies between the least and greatest value Q charges;
        # clamping keeps the rounding of the dot product inside that range
        Q = _as_measure(X.space, q, probs)
        charged = vals[np.asarray(q) > 0.0]
        lo, hi = float(charged.min()), float(charged.max())
        if kind == "arithmetic":
            pen = beta_conjugate(phi, Q)
            val = min(max(float(np.dot(q, vals)), lo), hi)
        else:
            pen = alpha_penalty(phi, Q)
            val = min(max(math.exp(np.dot(q, logs)), lo), hi) if pen > 0.0 else 0.0
        return pen * val, pen, Q

    def certificate(bound: float, pen: float, Q: MeasureChange, route: str) -> DualCertificate:
        if bound > primal + slack:
            raise OrliczError(f"weak duality violated: bound {bound!r} exceeds primal {primal!r}")
        return DualCertificate(
            measure=Q, penalty=pen, lower_bound=bound, kind=kind, primal=primal, route=route
        )

    q_star = _first_order_weights(phi, vals, probs, primal, kind)
    if q_star is not None:
        star = evaluate(q_star)
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
    if n <= 4:
        candidates: Iterable[Sequence[float]] = simplex_grid(n, grid_step)
    else:
        rng = np.random.default_rng(20210607)
        candidates = [tuple(rng.dirichlet(np.ones(n))) for _ in range(32)]

    for q in candidates:
        b, pen, Q = evaluate(q)
        if better(b, Q):
            best_bound, best_pen, best_Q = b, pen, Q
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
    """beta on the simplex grid (plus Q = P), for the entropy bridge."""
    probs = space.probs_array()
    out = []
    seen = set()
    for q in [tuple(float(p) for p in probs)] + simplex_grid(space.n, grid_step):
        Q = _as_measure(space, q, probs)
        if Q.density in seen:
            continue
        seen.add(Q.density)
        out.append((Q, beta_conjugate(phi, Q)))
    return out


@dataclass(frozen=True)
class AlphaBridgeReport:
    """Grid-based alpha versus the direct computation, with the gap budget.

    bridge_value is a sup over finitely many Q, so it can undershoot the
    direct value by at most the grid resolution; reported_gap is the
    budget 5 * grid_step that the acceptance checks use.
    """

    bridge_value: float
    direct_value: float
    reported_gap: float
    grid_step: float
    within_gap: bool


def alpha_bridge_report(
    phi: OrliczFunction, R: MeasureChange, grid_step: float = 0.01
) -> AlphaBridgeReport:
    grid = beta_on_grid(phi, R.space, grid_step)
    bridge = alpha_from_beta(grid, R)
    direct = alpha_penalty(phi, R)
    gap = 5.0 * grid_step
    return AlphaBridgeReport(
        bridge_value=bridge,
        direct_value=direct,
        reported_gap=gap,
        grid_step=grid_step,
        within_gap=abs(direct - bridge) <= gap,
    )


# ---------------------------------------------------------------------------
# HG dual restriction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HGDualReport:
    """Plain-expectation dual of the HG measure over nearly-unit-beta Q."""

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
    result is compared to the primal within 2 * grid_step.
    """
    _require_convex(phi)
    n = X.space.n
    if n > 4:
        raise DimensionError(f"grid restriction limited to n <= 4, got n = {n}")
    from .hg import hg_risk_measure

    primal = hg_risk_measure(phi, X, tol=1e-10).value
    probs = X.space.probs_array()
    vals = X.values_array()
    band = grid_step
    best_val = NEG_INF
    best_dens: Optional[tuple[float, ...]] = None
    admissible = 0
    total = 0
    for q in [tuple(float(p) for p in probs)] + simplex_grid(n, grid_step):
        total += 1
        Q = _as_measure(X.space, q, probs)
        b = beta_conjugate(phi, Q)
        if abs(b - 1.0) > band:
            continue
        admissible += 1
        val = float(np.dot(q, vals))
        if val > best_val or (val == best_val and (best_dens is None or Q.density < best_dens)):
            best_val = val
            best_dens = Q.density
    gap = primal - best_val
    agrees = abs(gap) <= 2.0 * grid_step * max(1.0, abs(primal))
    return HGDualReport(
        primal=primal,
        dual_bound=best_val,
        gap=gap,
        band=band,
        admissible_count=admissible,
        total_count=total,
        best_density=best_dens,
        agrees=agrees,
    )

"""Haezendonck-Goovaerts risk measures on finite distributions.

rho(X) = inf over x of g(x), where g(x) = x + H((X - x)_+) and H is the
premium for a fixed admissible Phi, computed at hg_risk_measure's tol.
H is monotone, normalized and positively homogeneous, so g(x) >=
max(x, min X) for every x: right of min X, H >= 0; left of it,
(X - x)_+ >= min X - x pointwise.  At or above max X the positive part
vanishes and g(x) = x.

hg_risk_measure picks its route from facts the family states, first
match wins:

- constant: X has one value c, and g(c) = c + H(0) = c meets the bound.
- cash_additive (phi.cash_behavior == "additive"): g(x) >= x + H(X - x)
  = H(X), with equality for every x <= min X, so rho = H(X) = g(min X)
  (Bellini & Rosazza Gianin 2008).  One premium.
- neg_inf_at_zero (phi.at_zero == -inf): (X - min X)_+ has an atom at 0,
  so its premium is 0 and g(min X) = min X meets the bound.  One premium.
- limit (phi.hg_limit returns a value): the family knows that g falls to
  its x -> -inf limit and never goes below it, e.g. E[X] for Power(p > 1)
  by Jensen.  rho is that limit, not attained; no premium.
- atoms (superadditive, phi.premium_concave): left of min X,
  H(X - x) >= H(X - min X) + (min X - x), so g(x) >= g(min X).  Between
  two neighbouring atoms (X - x)_+ is affine in x, so g is concave there
  and its minimum sits at an atom.  rho = the least g over the atoms.
  Up to COARSE_POINTS distinct values g is taken at every atom.  Past
  that, at COARSE_POINTS atoms spread evenly by rank; then, H being
  monotone, g(x) >= x + g(b) - b for x <= b, so a gap between evaluated
  atoms a < b is split at its middle atom while its first inner atom
  plus g(b) - b is below the least g found, until no gap is.
- tail (knotted Phi, continuous at 1, convex): Phi is linear on each side
  of 1 with slopes s+ and s-, out to the nearest knots 1 + d+ and 1 - d-.
  Far enough left every (X - x)/k lies between them, and E[Phi] = 1
  reads s+ E[(X - x - k)_+] = s- E[(x + k - X)_+]: x + k is the
  tau-expectile e of X, tau = s+/(s+ + s-).  So g(x) = e for every
  x <= x_L = e - max((max X - e)/d+, (e - min X)/d-).  A convex Phi makes
  g convex, and a convex g that is constant on a half-line has that
  constant as its infimum: rho = e, attained at x_L; no premium.
- window (the superadditive families whose premium is not concave, lpq
  with p < q, and the other knotted Phi continuous at 1): the arguments
  above confine the minimum to [min X, max X], or for a knotted Phi to
  [x_L, max X] with e the value left of it, which a coarse sweep plus a
  polish by Brent's method (search.golden_min) searches.

Any other Phi (a pwl that jumps at 1 or ends there, a family that states
no facts) raises OrliczError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .base import INF, NEG_INF, OrliczError
from .functions import GeometricMean, OrliczFunction
from .premium import _ensure_admissible, _lp_quantile_exact, orlicz_premium
from .prob import RandomVariable, rv
from .search import golden_min

COARSE_POINTS = 256
GG_TOL = 1e-9  # margin by which the counterexample must break GG-convexity


@dataclass(frozen=True)
class HGResult:
    """Infimum of the translated-premium profile g, with search diagnostics.

    route names how the value was found (see the module docstring):
    "constant", "cash_additive", "neg_inf_at_zero", "limit" and "tail"
    are exact by a one-line bound, "atoms" by concavity between atoms,
    "window" sweeps a non-concave g.  attained is True when value =
    g(minimizer_x) at a finite point; on the "limit" route it is False,
    minimizer_x is -inf and value is lim g(x) as x -> -inf.  profile
    holds points (x, g(x)) the route evaluated, ascending: the single
    point on the one-premium routes, none on "limit" and "tail", the
    atoms evaluated on "atoms", the coarse sweep on "window".
    evaluations counts the premiums computed.  extensions and
    floor_active are always 0 and False: no route widens its window or
    clamps it to a floor any more.  They stay because the CLI's hg
    envelope prints them and the benchmark's tracer reads them.
    """

    value: float
    minimizer_x: float
    profile: tuple[tuple[float, float], ...]
    extensions: int
    floor_active: bool
    evaluations: int
    route: str
    attained: bool


def hg_risk_measure(phi: OrliczFunction, X: RandomVariable, tol: float = 1e-10) -> HGResult:
    vals = X.values_array()
    lo_val = float(vals.min())
    hi_val = float(vals.max())
    count = 0

    def g(x: float) -> float:
        nonlocal count
        count += 1
        shifted = np.maximum(vals - x, 0.0)
        excess = RandomVariable(X.space, tuple(shifted.tolist()))
        return x + orlicz_premium(phi, excess, tol).value

    def at_min(route: str) -> HGResult:
        value = g(lo_val)
        return HGResult(value, lo_val, ((lo_val, value),), 0, False, count, route, True)

    if lo_val == hi_val:
        return at_min("constant")
    if phi.cash_behavior == "additive":
        return at_min("cash_additive")
    if phi.at_zero == NEG_INF:
        return at_min("neg_inf_at_zero")
    limit = None if phi.hg_limit is None else phi.hg_limit(X.values, X.space.probs)
    if limit is not None:
        return HGResult(limit, NEG_INF, (), 0, False, 0, "limit", False)

    tail_x, tail_v = INF, INF  # no value left of the window
    if phi.cash_behavior == "superadditive":
        if phi.premium_concave:
            profile = _atom_profile(g, sorted(set(X.values)))
            best_x, best_v = min(profile, key=lambda pt: pt[1])
            return HGResult(best_v, best_x, profile, 0, False, count, "atoms", True)
        lo = lo_val
    else:
        tail_x, tail_v = _linear_tail(phi, X, lo_val, hi_val)
        if phi.convex_flag is True:
            return HGResult(tail_v, tail_x, (), 0, False, 0, "tail", True)
        lo = tail_x
    best_x, best_v, profile = _sweep(g, lo, hi_val, tol)
    if tail_v < best_v:
        best_x, best_v = tail_x, tail_v
    return HGResult(best_v, best_x, profile, 0, False, count, "window", True)


def _linear_tail(
    phi: OrliczFunction, X: RandomVariable, lo: float, hi: float
) -> tuple[float, float]:
    """(x_L, e) with g(x) = e for every x <= x_L (see the module docstring).

    Raises OrliczError unless Phi has knots, Phi(1) = 1 and a finite
    slope right of 1.
    """
    _ensure_admissible(phi)  # the tail route computes no premium that would check
    knots = [x for x, _ in phi.points]
    if knots and phi(1.0) == 1.0:
        s_up, s_down = phi.derivative(np.array([1.0, math.nextafter(1.0, 0.0)])).tolist()
        if math.isfinite(s_up):  # else a jump at 1, or upper == 1
            e = _lp_quantile_exact(X.values, X.space.probs, s_up / (s_up + s_down), 1)
            d_up = min([x for x in knots if x > 1.0] + [phi.upper]) - 1.0
            d_down = 1.0 - max([x for x in knots if x < 1.0] + [0.0])
            return e - max((hi - e) / d_up, (e - lo) / d_down), e
    raise OrliczError(
        f"no HG route for {phi!r}: it needs knots, Phi(1) = 1 and a finite slope right of 1"
    )


def _atom_profile(g: Callable[[float], float], atoms: list[float]) -> tuple[tuple[float, float], ...]:
    """(x, g(x)) at the atoms the atoms route evaluates (module docstring), ascending."""
    if len(atoms) <= COARSE_POINTS:
        return tuple((x, g(x)) for x in atoms)
    step = (len(atoms) - 1) / (COARSE_POINTS - 1)  # > 1, so the ranks are distinct
    ranks = [round(k * step) for k in range(COARSE_POINTS)]
    seen = {r: g(atoms[r]) for r in ranks}
    best = min(seen.values())
    gaps = list(zip(ranks, ranks[1:]))
    while gaps:
        lo, hi = gaps.pop()
        # g(x) >= x + g(b) - b for x <= b = atoms[hi], so this bounds the atoms inside
        if hi - lo > 1 and atoms[lo + 1] + seen[hi] - atoms[hi] < best:
            mid = (lo + hi) // 2
            seen[mid] = g(atoms[mid])
            best = min(best, seen[mid])
            gaps += [(lo, mid), (mid, hi)]
    return tuple((atoms[r], seen[r]) for r in sorted(seen))


def _sweep(
    g: Callable[[float], float], lo: float, hi: float, tol: float
) -> tuple[float, float, tuple[tuple[float, float], ...]]:
    """Coarse sweep of g on [lo, hi], then Brent's method (golden_min)
    around its best point.  Returns (x, g(x), sweep)."""
    xs = np.linspace(lo, hi, COARSE_POINTS)
    gs = [g(float(x)) for x in xs]
    profile = tuple((float(x), float(v)) for x, v in zip(xs, gs))
    i = min(range(len(gs)), key=lambda k: (gs[k], k))
    best_x, best_v = float(xs[i]), float(gs[i])
    blo = float(xs[max(i - 1, 0)])
    bhi = float(xs[min(i + 1, len(xs) - 1)])
    # the polish starts from two sweep points: their premiums are known
    swept = dict(profile)
    x2, v2 = golden_min(
        lambda x: swept[x] if x in swept else g(x), blo, bhi, tol=max(tol, 1e-13)
    )
    if v2 < best_v:
        best_x, best_v = float(x2), float(v2)
    return best_x, best_v, profile


@dataclass(frozen=True)
class GGCounterexampleReport:
    """Witness that the HG measure can break GG-convexity.

    With the geometric-mean premium, X = (1/2, 2) and its swap Y satisfy
    sqrt(X * Y) = 1 pointwise, yet rho(sqrt(X Y)) exceeds
    sqrt(rho(X) * rho(Y)); passed means the violation was certified at
    tolerance tol (GG_TOL).
    """

    rho_x: float
    rho_y: float
    rho_gmean: float
    geometric_bound: float
    passed: bool
    tol: float


def gg_counterexample_check() -> GGCounterexampleReport:
    phi = GeometricMean()
    X = rv((0.5, 2.0))
    Y = rv((2.0, 0.5))
    Z = rv((1.0, 1.0))  # sqrt(X * Y) pointwise
    rho_x = hg_risk_measure(phi, X).value
    rho_y = hg_risk_measure(phi, Y).value
    rho_z = hg_risk_measure(phi, Z).value
    bound = math.sqrt(rho_x * rho_y)
    return GGCounterexampleReport(
        rho_x=rho_x,
        rho_y=rho_y,
        rho_gmean=rho_z,
        geometric_bound=bound,
        passed=rho_z > bound + GG_TOL,
        tol=GG_TOL,
    )

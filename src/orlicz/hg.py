"""Haezendonck-Goovaerts risk measures on finite distributions.

rho(X) = inf over x of g(x), where g(x) = x + H((X - x)_+) and H is the
premium for a fixed admissible Phi.  H is monotone, normalized and
positively homogeneous, so g(x) >= max(x, min X) for every x: right of
min X, H >= 0; left of it, (X - x)_+ >= min X - x pointwise.  At or above
max X the positive part vanishes and g(x) = x.

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
- atoms (superadditive, phi.premium_concave, at most COARSE_POINTS
  distinct values): left of min X, H(X - x) >= H(X - min X) + (min X - x),
  so g(x) >= g(min X).  Between two neighbouring atoms (X - x)_+ is
  affine in x, so g is concave there and its minimum sits at an atom.
  rho = the least g over the atoms, one premium per atom.
- window (other superadditive families, and concave ones with more
  distinct values than a sweep has points): the same argument confines
  the minimum to [min X, max X], which a coarse sweep plus polish
  searches.
- grid (no claim): a coarse sweep that extends left, down to a hard
  floor, while its left edge strictly improves, then a polish: golden
  section when Phi is convex (g is convex then), recursive grid
  refinement otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .base import INF, NEG_INF
from .functions import GeometricMean, OrliczFunction
from .premium import orlicz_premium
from .prob import RandomVariable, rv
from .search import golden_min

COARSE_POINTS = 256
EDGE_EPS = 1e-12  # strict-improvement margin for extending the search window
MAX_EXTENSIONS = 6
GG_TOL = 1e-9  # margin by which the counterexample must break GG-convexity


@dataclass(frozen=True)
class HGResult:
    """Infimum of the translated-premium profile g, with search diagnostics.

    route names how the value was found (see the module docstring):
    "constant", "cash_additive", "neg_inf_at_zero" and "limit" are exact
    by a one-line bound, "atoms" is exact by concavity between atoms,
    "window" and "grid" are sweeps.  attained is True when value =
    g(minimizer_x) at a finite point; on the "limit" route it is False,
    minimizer_x is -inf and value is lim g(x) as x -> -inf.  profile
    holds points (x, g(x)) the route evaluated: the single point on the
    one-premium routes, none on "limit", every atom on "atoms", the last
    coarse sweep on "window" and "grid".  evaluations counts the premiums
    computed.  extensions counts left widenings of the "grid" sweep, and
    floor_active flags that they hit the hard floor, in which case value
    is the best found on the clamped window rather than a certified
    infimum; they are 0 and False on every other route.
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
        return x + orlicz_premium(phi, excess).value

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

    if phi.cash_behavior == "superadditive":
        atoms = sorted(set(X.values))
        # each premium costs O(n), so the atoms beat the sweep only while few
        if phi.premium_concave and len(atoms) <= COARSE_POINTS:
            profile = tuple((x, g(x)) for x in atoms)
            best_x, best_v = min(profile, key=lambda pt: pt[1])
            return HGResult(best_v, best_x, profile, 0, False, count, "atoms", True)
        floor: Optional[float] = None
        lo = lo_val
        route = "window"
    else:
        spread = hi_val - lo_val
        floor = lo_val - 64.0 * (spread + 1.0) - 1.0
        lo = lo_val - spread - 1.0
        route = "grid"
    best_x, best_v, profile, extensions, floor_active = _sweep(
        g, lo, hi_val, floor, phi.convex_flag is True, tol
    )
    return HGResult(best_v, best_x, profile, extensions, floor_active, count, route, True)


def _sweep(
    g: Callable[[float], float],
    lo: float,
    hi: float,
    floor: Optional[float],
    convex: bool,
    tol: float,
) -> tuple[float, float, tuple[tuple[float, float], ...], int, bool]:
    """Coarse sweep of g on [lo, hi], then a polish around its best point.

    With a floor, the window widens left (down to the floor) while its
    left edge strictly improves.  Returns (x, g(x), last sweep,
    extensions, floor reached).
    """
    floor_active = False
    extensions = 0
    while True:
        xs = np.linspace(lo, hi, COARSE_POINTS)
        gs = [g(float(x)) for x in xs]
        if (
            floor is None
            or floor_active
            or extensions >= MAX_EXTENSIONS
            or gs[0] >= min(gs[1:]) - EDGE_EPS
        ):
            break
        # minimum may sit past the left edge; widen (down to the floor) and resweep
        lo = max(lo - 2.0 * (hi - lo), floor)
        floor_active = lo == floor
        extensions += 1

    profile = tuple((float(x), float(v)) for x, v in zip(xs, gs))
    i = min(range(len(gs)), key=lambda k: (gs[k], k))
    best_x, best_v = float(xs[i]), float(gs[i])
    blo = float(xs[max(i - 1, 0)])
    bhi = float(xs[min(i + 1, len(xs) - 1)])

    polish = golden_min if convex else _refine_min
    x2, v2 = polish(g, blo, bhi, tol=max(tol, 1e-13))
    if v2 < best_v:
        best_x, best_v = float(x2), float(v2)
    return best_x, best_v, profile, extensions, floor_active


def _refine_min(g, lo: float, hi: float, tol: float) -> tuple[float, float]:
    # no convexity to exploit: shrink a 64-point grid around the best sample
    best_x = lo
    best_v = INF
    for _ in range(48):
        xs = np.linspace(lo, hi, 65)
        gs = [g(float(x)) for x in xs]
        i = min(range(65), key=lambda k: (gs[k], k))
        if gs[i] < best_v:
            best_x, best_v = float(xs[i]), float(gs[i])
        lo2 = float(xs[max(i - 1, 0)])
        hi2 = float(xs[min(i + 1, 64)])
        if hi2 - lo2 <= tol * max(1.0, abs(best_x)):
            break
        lo, hi = lo2, hi2
    return best_x, best_v


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

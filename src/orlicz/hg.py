"""Haezendonck-Goovaerts risk measures on finite distributions.

rho(X) = inf over x of g(x), where g(x) = x + H((X - x)_+) and H is the
premium for a fixed admissible Phi.  g(x) >= min X always, and for x at
or above the essential sup the positive part vanishes, so a finite
minimizer exists even without convexity.

Two routes:

- cash_additive: when the premium is monotone and cash-additive
  (phi.cash_behavior is "additive": expectiles, quantiles,
  L^p-quantiles, lpq with p = q or b = 0, gexpectile with b = 0,
  Power(1)), g(x) = x + H((X - x)_+) >= x + H(X - x) = H(X) for
  every x, with equality for all x <= min X (Bellini & Rosazza Gianin
  2008).  So rho(X) = H(X) = g(min X), found with one premium.
- grid: every other family.  The solver profiles g on a coarse grid,
  extends the grid left only while the edge strictly improves, then
  polishes with golden section when Phi is convex (g is convex then)
  and with recursive grid refinement otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base import INF
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
    """Minimum of the translated-premium profile, with search diagnostics.

    route is "cash_additive" when phi.cash_behavior is "additive", else "grid".
    profile holds the points of g the search kept for plotting or
    export: the single point (min X, g(min X)) on the cash_additive
    route, the last coarse sweep on the grid route.  evaluations counts
    the premiums computed (1 on the cash_additive route).  floor_active
    flags that the left extension hit its hard floor, in which case the
    reported value is the best found on the clamped window rather than
    a certified global minimum; it is always False on the cash_additive
    route.
    """

    value: float
    minimizer_x: float
    profile: tuple[tuple[float, float], ...]
    extensions: int
    floor_active: bool
    evaluations: int
    route: str


def hg_risk_measure(phi: OrliczFunction, X: RandomVariable, tol: float = 1e-10) -> HGResult:
    vals = X.values_array()
    lo_val = float(vals.min())
    hi_val = float(vals.max())
    spread = hi_val - lo_val
    count = 0

    def g(x: float) -> float:
        nonlocal count
        count += 1
        shifted = np.maximum(vals - x, 0.0)
        excess = RandomVariable(X.space, tuple(shifted.tolist()))
        return x + orlicz_premium(phi, excess).value

    if phi.cash_behavior == "additive":
        # g(x) >= H(X) everywhere, with equality at every x <= min X
        value = g(lo_val)
        return HGResult(
            value=value,
            minimizer_x=lo_val,
            profile=((lo_val, value),),
            extensions=0,
            floor_active=False,
            evaluations=count,
            route="cash_additive",
        )

    lo = lo_val - spread - 1.0
    hi = hi_val
    floor = lo_val - 64.0 * (spread + 1.0) - 1.0
    floor_active = False
    extensions = 0
    while True:
        xs = np.linspace(lo, hi, COARSE_POINTS)
        gs = [g(float(x)) for x in xs]
        if floor_active or extensions >= MAX_EXTENSIONS or gs[0] >= min(gs[1:]) - EDGE_EPS:
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

    polish = golden_min if phi.convex_flag is True else _refine_min
    x2, v2 = polish(g, blo, bhi, tol=max(tol, 1e-13))
    if v2 < best_v:
        best_x, best_v = float(x2), float(v2)

    return HGResult(
        value=best_v,
        minimizer_x=best_x,
        profile=profile,
        extensions=extensions,
        floor_active=floor_active,
        evaluations=count,
        route="grid",
    )


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

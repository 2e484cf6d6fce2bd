"""Premium computation: smallest k > 0 with E[Phi(X/k)] <= 1.

The map k -> E[Phi(X/k)] is nonincreasing and right-continuous.  The
generic route returns the least float k in (max X / upper, max X] at
which the float moment reads <= 1: search.bisect_smallest_feasible
brackets it by powers of two from E[X] and closes the bracket to
adjacent floats by the shared secant root.  orlicz_premium is the one
entry point.  Phi(0) = 1 makes an admissible Phi equal to 1 on all of
[0, 1], and the premium max X on every route.  Otherwise the auto route
looks up each built-in family except PiecewiseLinear, which has no
dedicated solver, in one table (_SOLVERS) of private solvers that
exploit its structure: closed forms for the norms and quantiles, one
solver (_log_branch) for the loss 1 + a(log x)_+ - b(log x)_- shared by
gm and gexpectile, and one (_two_branch) for the loss 1 + a(x-1)_+^p -
b(x-1)_-^q shared by the expectile, lp and lpq.  p = q gives the
L^p-quantile at level a/(a+b), for p in {1, 2} by one exact walk over
the atoms (_lp_quantile_exact, which scales them by a power of two near
either end of the float range).  Every other two-branch premium closes
its inequality in X/k, which no scale overflows, by the same secant
root.  The generic and dedicated routes agree to a few ulps and
cross-check in the tests.

cash_additivity_probe measures how the premium answers cash shifts and
compares the result with the family's claim, phi.cash_behavior.

Degenerate rule: when Phi(0) = -inf and X carries mass at zero, the
premium is 0 by definition (each division by smaller k only spreads the
-inf further, and the monotone-limit value is zero).  The generic route
reports the same limit, 0, where the moment reads <= 1 down to the least
positive float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .base import VECTOR_MIN, DomainError, INF, InvalidPhiError, NEG_INF
from .functions import (
    Expectile,
    GeometricExpectile,
    GeometricMean,
    LpQuantile,
    LpqQuantile,
    OrliczFunction,
    Power,
    QuantileStep,
)
from .prob import (
    DiscreteDistribution,
    RandomVariable,
    as_random_variable,
    distribution_of,
    merged_law,
    quantile,
    quantile_index,
    sorted_law,
)
from .search import bisect_root_decreasing, bisect_smallest_feasible

# Atoms below 2**WALK_EXP in magnitude keep every square, h term and
# discriminant of the exact L^p-quantile walk below 2**1023, and a largest
# atom of at least 2**-WALK_EXP keeps the squares from underflowing
WALK_EXP = 510
WALK_TOP, WALK_BOTTOM = 2.0 ** WALK_EXP, 2.0 ** -WALK_EXP
CASH_TOL = 1e-8  # |delta| below this reads as cash-additive


def _ensure_admissible(phi: OrliczFunction) -> None:
    """Raise with the first witness unless phi.validation passes (the family caches it)."""
    report = phi.validation
    if not report.ok:
        witness = report.violations[0]
        raise InvalidPhiError(
            f"inadmissible function: {witness.condition} fails at x={witness.x!r} "
            f"(value {witness.value!r})"
        )


@dataclass(frozen=True)
class PremiumResult:
    """Premium value with solver diagnostics.

    bracket is (lo, hi) with lo <= value <= hi, and iterations counts the
    evaluations that narrowed it; a closed form reports (value, value) and
    0.  Searches leave value = hi, the float above lo, and E[Phi(X/lo)] >
    1 (lp and lpq without an exact walk: >=, see _finish).  The generic
    route counts every moment it read, and reports (lo, lo) where the cap
    lo = max X / upper is feasible.  route is "generic", "bisect:<family>"
    for a dedicated solver that searched, else "closed_form:<family>".
    g_at_value is E[Phi(X/value)] (None for the zero premiums: the
    definitional cases, and the generic route's unattained limit).  nudges
    (not in iterations) counts _finish's moments after the one at the
    value but the one that ends a check below it.
    """

    value: float
    bracket: tuple[float, float]
    iterations: int
    route: str
    g_at_value: Optional[float]
    nudges: int = 0


def phi_moment(phi: OrliczFunction, xs: np.ndarray, probs: np.ndarray, k: float) -> float:
    """E[Phi(X/k)] in the extended reals; +inf dominates -inf."""
    vals = phi.eval_array(xs / k)
    with np.errstate(invalid="ignore"):
        total = float(probs @ vals)
    if math.isfinite(total):
        # a finite sum means no infinite term carries weight (0 * inf is nan)
        return total
    if np.isposinf(vals).any():
        return INF
    if np.isneginf(vals).any():
        return NEG_INF
    return total


def orlicz_premium(phi: OrliczFunction, X: RandomVariable, route: str = "auto") -> PremiumResult:
    """Compute the premium; route='auto' uses family shortcuts, 'generic' searches.

    The generic route takes the least float k in (max X / upper, max X]
    whose moment reads <= 1 (see the module docstring).
    """
    if route not in ("auto", "generic"):
        raise ValueError(f"route must be 'auto' or 'generic', got {route!r}")
    _ensure_admissible(phi)
    vals = X.values_array()
    probs = X.space.probs_array()
    ess = float(vals.max())
    if ess == 0.0:
        g0 = phi.at_zero
        return PremiumResult(0.0, (0.0, 0.0), 0, "closed_form:degenerate", g0)
    if phi.at_zero == NEG_INF and float(vals.min()) == 0.0:
        return PremiumResult(0.0, (0.0, 0.0), 0, "closed_form:degenerate", None)

    solver = _SOLVERS.get(type(phi)) if route == "auto" else None
    if phi.at_zero == 1.0:  # Phi == 1 on [0, 1] and > 1 past it: max X, exactly
        label = "generic" if solver is None else "closed_form:" + solver[0]
        return _finish(phi, vals, probs, ess, ess, label, None, 0)
    if solver is not None:
        name, solve = solver
        value, bracket, iterations, *g = solve(phi, X, vals, probs)
        label = ("closed_form:" if bracket is None else "bisect:") + name
        return _finish(phi, vals, probs, ess, value, label, bracket, iterations, *g)
    return _generic(phi, vals, probs, ess)


def _generic(phi: OrliczFunction, vals: np.ndarray, probs: np.ndarray, ess: float) -> PremiumResult:
    moments: dict[float, float] = {}  # every moment the route read, by k

    def g(k: float) -> float:
        moments[k] = phi_moment(phi, vals, probs, k)
        return moments[k]

    lo = ess / phi.upper  # below it max X / k passes upper, where Phi = +inf
    if lo > 0.0 and g(lo) <= 1.0:
        return PremiumResult(lo, (lo, lo), 1, "generic", moments[lo])
    # X / k overflows to +inf near the least floats, where a Phi with a flat
    # tail reads nan, as the search reads a feasible moment
    with np.errstate(over="ignore"):
        lo, hi, _ = bisect_smallest_feasible(g, lo, ess, float(probs @ vals))
    iterations = len(moments)  # each k is read once
    if lo == 0.0:  # the moment reads <= 1 down to the least float: the limit 0
        return PremiumResult(0.0, (0.0, hi), iterations, "generic", None)
    g_hi = moments[hi] if hi in moments else g(hi)  # max X counts as feasible unread
    return PremiumResult(hi, (lo, hi), iterations, "generic", g_hi)


def _finish(
    phi: OrliczFunction, X_vals: np.ndarray, probs: np.ndarray, ess: float, value: float,
    route: str, bracket: Optional[tuple[float, float]], iterations: int, g: Optional[float] = None,
) -> PremiumResult:
    """Package a dedicated-route value, moved by ulps to where fp reads the root.

    bracket and iterations come from a route that searched (None and 0 for a
    closed form), g = E[Phi(X/value)] from a solver that read it.  Where g > 1,
    a gallop up by 1, 2, 4, ... ulps and a bisection back end at a float with
    g <= 1 whose next float down has g > 1; where g < 1 at a search's bracket
    bottom, the same steps down end at g < 1 with g >= 1 one float down (g can
    round to 1 over floats the search resolves).  No nudge passes ess, max X,
    where a g above 1 is only the rounding of the sum of the probabilities.
    """
    g = phi_moment(phi, X_vals, probs, value) if g is None and value > 0 else g
    nudges, below, top = 0, value, math.nextafter(1.0, 2.0)  # feasible: g < top
    if value > 0 and g is not None:
        start, step = value, math.ulp(value)
        while g > 1.0 and g != INF and value < ess:
            below, value = value, min(start + step, ess)
            step *= 2.0
            g = phi_moment(phi, X_vals, probs, value)
            nudges += 1
        if bracket is not None and below == value:
            below, top = bracket[0], 1.0
            while below > 0.0 and (g_below := phi_moment(phi, X_vals, probs, below)) < top:
                value, g, step, nudges = below, g_below, 2.0 * step, nudges + 1
                below = max(start - step, 0.0)
        mid = below + (value - below) / 2
        while g < top and below < mid < value:
            g_mid = phi_moment(phi, X_vals, probs, mid)
            nudges += 1
            if g_mid < top:
                value, g = mid, g_mid
            else:
                below = mid
            mid = below + (value - below) / 2
    bracket = (value, value) if bracket is None else (below, value)
    return PremiumResult(value, bracket, iterations, route, g, nudges)


# ---------------------------------------------------------------------------
# dedicated solvers
# ---------------------------------------------------------------------------


def _columns(X: RandomVariable) -> tuple[Sequence[float], Sequence[float]]:
    """X's values and probabilities: the cached arrays from VECTOR_MIN outcomes on."""
    if X.space.n >= VECTOR_MIN:
        return X.values_array(), X.space.probs_array()
    return X.values, X.space.probs


def _running(first: float, terms: np.ndarray, op: np.ufunc) -> np.ndarray:
    """[first op t0, (first op t0) op t1, ...]: a loop's running value after each term.

    np.add.accumulate and np.subtract.accumulate work strictly left to
    right, so each entry is the loop's value to the bit.
    """
    return op.accumulate(np.concatenate(([first], terms)))[1:]


def _lp_quantile_exact(
    values: Sequence[float], probs: Sequence[float], alpha: float, p: float
) -> float:
    """Exact L^p-quantile at level alpha, p in {1, 2}, of a finite (possibly signed) law.

    h(k) = alpha*E[(X-k)_+^p] - (1-alpha)*E[(k-X)_+^p] is strictly
    decreasing, of degree p in k between atoms.  The walk keeps the sums
    of p_i*v_i^m, m <= p, above (a) and below (b) each atom, and solves
    the first segment whose end has h <= 0.  Atoms with max |v| outside
    [2**-WALK_EXP, 2**WALK_EXP) are first scaled by a power of two into
    [2**509, 2**510), the root back (a scale down rounds atoms below 2**-508).
    """
    vs, ps = merged_law(values, probs)
    if len(vs) == 1:
        return float(vs[0])
    top, shift = max(-vs[0], vs[-1]), 0
    if not WALK_BOTTOM <= top < WALK_TOP:
        shift = math.frexp(top)[1] - WALK_EXP
        vs = np.ldexp(vs, -shift) if isinstance(vs, np.ndarray) else [math.ldexp(v, -shift) for v in vs]
    beta = 1.0 - alpha
    if len(values) >= VECTOR_MIN:  # the loop's running sums, all at once
        w, wv = ps[:-1], ps * vs
        a0, b0 = _running(1.0, w, np.subtract), _running(0.0, w, np.add)
        a1 = _running(math.fsum(wv.tolist()), wv[:-1], np.subtract)
        b1 = _running(0.0, wv[:-1], np.add)
        nxt = vs[1:]
        if p == 1:
            h = alpha * (a1 - nxt * a0) - beta * (nxt * b0 - b1)
        else:
            # Python's float power, as in the loop: pow(v, 2) and v * v
            # differ in the last bit for some v
            w2 = w * np.array([v ** 2 for v in vs[:-1].tolist()])
            a2 = _running(math.fsum((wv * vs).tolist()), w2, np.subtract)
            b2 = _running(0.0, w2, np.add)
            h = alpha * (a2 - 2.0 * nxt * a1 + nxt * nxt * a0) - beta * (
                nxt * nxt * b0 - 2.0 * nxt * b1 + b2
            )
        hits = np.flatnonzero(h <= 0.0)
        if hits.size == 0:
            return math.ldexp(float(vs[-1]), shift)
        j = int(hits[0])
        a0, a1, b0, b1 = (float(s[j]) for s in (a0, a1, b0, b1))
        if p == 2:
            a2, b2 = float(a2[j]), float(b2[j])
    else:
        a0, a1 = 1.0, math.fsum(w * v for w, v in zip(ps, vs))
        a2 = math.fsum(w * v * v for w, v in zip(ps, vs)) if p == 2 else 0.0
        b0 = b1 = b2 = 0.0
        for j in range(len(vs) - 1):
            w, wv, nxt = ps[j], ps[j] * vs[j], vs[j + 1]
            b0 += w
            b1 += wv
            a0 -= w
            a1 -= wv
            if p == 1:
                h = alpha * (a1 - nxt * a0) - beta * (nxt * b0 - b1)
            else:
                w2 = w * vs[j] ** 2
                b2 += w2
                a2 -= w2
                h = alpha * (a2 - 2.0 * nxt * a1 + nxt * nxt * a0) - beta * (
                    nxt * nxt * b0 - 2.0 * nxt * b1 + b2
                )
            if h <= 0.0:
                break
        else:
            return math.ldexp(vs[-1], shift)
    if p == 1:
        c2, c1, c0 = 0.0, -alpha * a0 - beta * b0, alpha * a1 + beta * b1
    else:
        c2, c1 = alpha * a0 - beta * b0, -2.0 * alpha * a1 + 2.0 * beta * b1
        c0 = alpha * a2 - beta * b2
    return math.ldexp(_quadratic_root_in(c2, c1, c0, vs[j], vs[j + 1]), shift)


def _two_branch(
    phi: OrliczFunction, X: RandomVariable, vals: np.ndarray, probs: np.ndarray
) -> tuple[float, Optional[tuple[float, float]], int]:
    """Premium for Phi(x) = 1 + a(x-1)_+^p - b(x-1)_-^q (expectile, lp, lpq).

    Phi(0) = 1 - b is below 1 here (Phi == 1 on [0, 1] takes
    orlicz_premium's max X).  p = q is the L^p-quantile at level alpha =
    a/(a+b), exact per segment for p in {1, 2}; weights (alpha, 1 - alpha)
    make lp(alpha, p) and lpq(a, b, p, p) one arithmetic.  Else
    bisect_root_decreasing closes a*G = b*L, G and L the gains and losses
    means of X/k (no scale overflows), on (0, max X] from E[X]; returns
    (its top, its bracket or None, evaluations).
    """
    a, b, p, q = phi.a, phi.b, phi.p, phi.q
    if p == q:
        alpha = a / (a + b)
        if p in (1.0, 2.0):
            values, weights = _columns(X)
            return _lp_quantile_exact(values, weights, alpha, p), None, 0
        a, b = alpha, 1.0 - alpha
    ess = float(vals.max())
    if float(vals.min()) == ess:  # E[Phi(X/k)] <= 1 iff k >= X
        return ess, None, 0

    def gains_losses(k: float) -> tuple[float, float]:
        # numpy's power is ~3x slower on a zero: |X/k - 1| has none off atoms at k
        above, ratio = vals > k, np.abs(vals - k) / k
        gains = ratio ** p
        losses = gains if q == p else ratio ** q
        return (a * float(probs @ np.where(above, gains, 0.0)),
                b * float(probs @ np.where(above, 0.0, losses)))

    with np.errstate(over="ignore"):  # X/k may overflow far below the root: a*G > b*L there
        lo, hi, evaluations = bisect_root_decreasing(gains_losses, 0.0, ess, float(probs @ vals))
    return hi, (lo, hi), evaluations


def _quadratic_root_in(c2: float, c1: float, c0: float, lo: float, hi: float) -> float:
    if abs(c2) < 1e-14:
        return min(max(-c0 / c1, lo), hi)
    span = max(abs(lo), abs(hi), 1.0)
    disc = c1 * c1 - 4.0 * c2 * c0
    disc = max(disc, 0.0)
    sq = math.sqrt(disc)
    # numerically stable pair of roots
    q = -0.5 * (c1 + math.copysign(sq, c1))
    roots = []
    if q != 0.0:
        roots.append(c0 / q)
    roots.append(q / c2)
    inside = [r for r in roots if lo - 1e-9 * span <= r <= hi + 1e-9 * span]
    if not inside:  # fall back: nearest root to the segment
        inside = sorted(roots, key=lambda r: max(lo - r, r - hi, 0.0))[:1]
    return min(max(inside[0], lo), hi)


def _left_quantile(X: RandomVariable, alpha: float) -> float:
    """prob.quantile of X's law, to the bit.

    From VECTOR_MIN outcomes on it reads the arrays of
    prob.sorted_law, which merges ties as the law does, instead of
    building a DiscreteDistribution that would turn them into tuples and
    back.
    """
    if X.space.n < VECTOR_MIN:
        return quantile(distribution_of(X), alpha)
    vs, ps = sorted_law(X.values_array(), X.space.probs_array())
    return float(vs[quantile_index(ps, alpha)])


def _quantile(phi: QuantileStep, X: RandomVariable, vals: np.ndarray, probs: np.ndarray) -> tuple:
    """Left alpha-quantile k, or the next atom if g rounds above 1 at k (g is
    constant between atoms: x / k > 1 iff x > k); and g there, for _finish."""
    k = _left_quantile(X, phi.alpha)
    g = phi_moment(phi, vals, probs, k) if k > 0.0 else None
    if g is not None and g > 1.0 and k < float(vals.max()):
        k = float(vals[vals > k].min())
        g = phi_moment(phi, vals, probs, k)
    return k, None, 0, g


def _log_branch(
    phi: OrliczFunction, X: RandomVariable, vals: np.ndarray, probs: np.ndarray
) -> float:
    """Premium for Phi(x) = 1 + a(log x)_+ - b(log x)_- (gm, gexpectile):
    exp of the a/(a+b)-expectile of log X, a closed form.

    b > 0 here (b = 0 makes Phi == 1 on [0, 1]: orlicz_premium's max X),
    so Phi(0) = -inf and X > 0 everywhere.  a = b is level 1/2, where the
    expectile is the mean: exp(E[log X]).  Any other level is one exact
    walk over log X.
    """
    a, b = phi.a, phi.b
    if a == b:
        return float(np.exp(probs @ np.log(vals)))
    # math.log, not np.log: numpy's vectorized log can differ from the C
    # library's in the last bit (1,937 of 1e6 lognormal(0, 1.5) draws with
    # numpy 2.4.6 on an AVX-512 x86-64 CPU), which would change the premium
    logs = list(map(math.log, X.values))
    return math.exp(_lp_quantile_exact(logs, _columns(X)[1], a / (a + b), 1))


# family -> (route name, solver(phi, X, values, probs) -> (premium, root
# bracket or None for a closed form, evaluations[, its moment])), labelled
# "bisect:" or "closed_form:" + name.  Keyed by exact class: a subclass
# (PiecewiseLinear) goes generic.  No solver sees max X = 0, mass at zero
# under Phi(0) = -inf, or Phi(0) = 1.
_SOLVERS: dict[type, tuple[str, Callable[..., tuple]]] = {
    GeometricMean: ("gm", lambda *args: (_log_branch(*args), None, 0)),
    Power: ("power",
            lambda phi, X, xs, ps: (float((ps @ xs ** phi.p) ** (1.0 / phi.p)), None, 0)),
    QuantileStep: ("quantile", _quantile),
    Expectile: ("expectile", _two_branch),
    LpQuantile: ("lp_quantile", _two_branch),
    LpqQuantile: ("lpq_quantile", _two_branch),
    GeometricExpectile: ("geometric_expectile", lambda *args: (_log_branch(*args), None, 0)),
}


def premium_of_distribution(phi: OrliczFunction, dist: DiscreteDistribution) -> PremiumResult:
    """Premium of a distribution via its canonical carrier (law invariance)."""
    return orlicz_premium(phi, as_random_variable(dist))


# ---------------------------------------------------------------------------
# cash behaviour probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CashAdditivityReport:
    """Observed cash behaviour of the premium under positive shifts.

    deltas[i] = H(X + shifts[i]) - (H(X) + shifts[i]).  classification is
    'additive' / 'subadditive' / 'superadditive' / 'neither' at tolerance
    CASH_TOL; expected is the theory prediction phi.cash_behavior (None
    when no claim applies) and consistent compares the two.
    """

    classification: str
    shifts: tuple[float, ...]
    deltas: tuple[float, ...]
    base_premium: float
    expected: Optional[str]
    consistent: Optional[bool]


def cash_additivity_probe(
    phi: OrliczFunction,
    X: RandomVariable,
    shifts: Sequence[float] = (0.25, 0.5, 1.0, 2.0),
) -> CashAdditivityReport:
    """Measure H(X+m) - (H(X)+m) over the given shifts and classify."""
    if any(not (m > 0) for m in shifts):
        raise DomainError("shifts must be strictly positive")
    base = orlicz_premium(phi, X).value
    deltas = []
    for m in shifts:
        shifted = RandomVariable(X.space, tuple(v + m for v in X.values))
        deltas.append(orlicz_premium(phi, shifted).value - (base + m))
    if all(abs(d) <= CASH_TOL for d in deltas):
        cls = "additive"
    elif all(d <= CASH_TOL for d in deltas):
        cls = "subadditive"
    elif all(d >= -CASH_TOL for d in deltas):
        cls = "superadditive"
    else:
        cls = "neither"
    exp = phi.cash_behavior
    return CashAdditivityReport(
        classification=cls,
        shifts=tuple(float(m) for m in shifts),
        deltas=tuple(deltas),
        base_premium=base,
        expected=exp,
        consistent=None if exp is None else (cls == exp),
    )

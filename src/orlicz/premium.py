"""Premium computation: smallest k > 0 with E[Phi(X/k)] <= 1.

The map k -> E[Phi(X/k)] is nonincreasing and right-continuous, so the
premium is found by monotone bracketing plus bisection (the generic
route).  orlicz_premium is the one entry point.  Its auto route looks
up each built-in family except PiecewiseLinear, which has no dedicated
solver, in one table (_SOLVERS) of private solvers that exploit its
structure: closed forms for the norms and quantiles, and one solver
(_two_branch) for the loss 1 + a(x-1)_+^p - b(x-1)_-^q shared by the
expectile, lp and lpq.  b = 0 gives the essential supremum.  p = q gives
the L^p-quantile at level a/(a+b): an exact segment solve for p in
{1, 2}, a bisection of its root equation for other p.  Only lpq with
p != q bisects its scaled inequality.  The generic and dedicated routes
agree to solver tolerance and cross-check each other in the tests.

cash_additivity_probe measures how the premium answers cash shifts and
compares the result with the family's claim, phi.cash_behavior.

Degenerate rule: when Phi(0) = -inf and X carries mass at zero, the
premium is 0 by definition (each division by smaller k only spreads the
-inf further, and the monotone-limit value is zero).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .base import VECTOR_MIN, DomainError, INF, InvalidPhiError, NEG_INF, check_tol
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
    quantile,
    quantile_index,
    sorted_law,
)
from .search import bisect_root_decreasing, bisect_smallest_feasible

LOWER_FLOOR = 1e-300
# From this many outcomes the quantile route reads prob.sorted_law's arrays;
# below it the tuple law costs less.  Measured per call on a 2-core Xeon VM:
# 4-7 us against 13-18 us at n = 2-8, about even at n = 24, 18-22 us
# against 20-44 us at n = 32-63.
QUANTILE_ARRAY_MIN = 32
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

    bracket is (lo, hi) with lo <= value <= hi, and iterations counts
    the bisection steps that narrowed it.  A closed form reports
    (value, value) and 0.  The generic route and lpq with p != q bisect
    the moment condition: E[Phi(X/lo)] > 1 and value = hi.  The
    L^p-quantile with p not in {1, 2} bisects its root equation and
    returns the bracket's midpoint.  route is "generic", or for a
    dedicated solver "bisect:<family>" when it bisected and
    "closed_form:<family>" when it did not.  g_at_value is
    E[Phi(X/value)] (None for the definitional zero-premium cases where
    it is vacuous).
    """

    value: float
    bracket: tuple[float, float]
    iterations: int
    route: str
    g_at_value: Optional[float]


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


def orlicz_premium(
    phi: OrliczFunction,
    X: RandomVariable,
    tol: float = 1e-10,
    route: str = "auto",
) -> PremiumResult:
    """Compute the premium; route='auto' uses family shortcuts, 'generic' bisects.

    The generic route brackets [ess_sup/u, ess_sup] (with a geometric
    downward expansion when u = inf) and bisects to relative width tol.
    """
    check_tol(tol)
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
    if solver is not None:
        name, solve = solver
        value, bracket, iterations = solve(phi, X, vals, probs, tol)
        label = ("closed_form:" if bracket is None else "bisect:") + name
        return _finish(phi, vals, probs, ess, value, label, bracket, iterations)
    return _generic(phi, vals, probs, ess, tol)


def _generic(
    phi: OrliczFunction, vals: np.ndarray, probs: np.ndarray, ess: float, tol: float
) -> PremiumResult:
    def g(k: float) -> float:
        return phi_moment(phi, vals, probs, k)

    hi = ess  # Phi(x) <= 1 for x <= 1 makes ess_sup always feasible
    if phi.upper < INF:
        lo = ess / phi.upper
        if g(lo) <= 1.0:
            return PremiumResult(lo, (lo, lo), 0, "generic", g(lo))
    else:
        lo = tol * ess
        expansions = 0
        while g(lo) <= 1.0:
            if lo <= LOWER_FLOOR:
                return PremiumResult(lo, (0.0, lo), expansions, "generic", g(lo))
            lo *= 1e-3
            expansions += 1
    value, blo, bhi, iters = bisect_smallest_feasible(g, lo, hi, 1.0, tol)
    return PremiumResult(value, (blo, bhi), iters, "generic", g(value))


def _finish(
    phi: OrliczFunction,
    X_vals: np.ndarray,
    probs: np.ndarray,
    ess: float,
    value: float,
    route: str,
    bracket: Optional[tuple[float, float]],
    iterations: int,
) -> PremiumResult:
    """Package a dedicated-route value, moving up by ulps if fp left g > 1.

    bracket and iterations come from a route that bisected (None and 0
    for a closed form, whose bracket is the value itself); a nudge past
    the bracket's top raises the top to the value.  A gallop tries the
    value plus 1, 2, 4, ... of its ulps up to the first with g <= 1, and
    a bisection between that float and the last one tried with g > 1
    then narrows to a float with g <= 1 whose next float down has g > 1,
    so the value is feasible however far the closed form and the moment
    disagree, and no further above the root than the rounding needs.  No nudge
    passes ess, max X: from there on every Phi(X/k) is at most 1, and a
    g above 1 is only the rounding of the sum of the probabilities.
    """
    g = phi_moment(phi, X_vals, probs, value) if value > 0 else None
    if value > 0 and g is not None:
        start, step, below = value, math.ulp(value), value
        while g > 1.0 and g != INF and value < ess:
            below, value = value, min(start + step, ess)
            step *= 2.0
            g = phi_moment(phi, X_vals, probs, value)
        mid = below + (value - below) / 2
        while g <= 1.0 and below < mid < value:
            g_mid = phi_moment(phi, X_vals, probs, mid)
            if g_mid <= 1.0:
                value, g = mid, g_mid
            else:
                below = mid
            mid = below + (value - below) / 2
    bracket = (value, value) if bracket is None else (bracket[0], max(bracket[1], value))
    return PremiumResult(value, bracket, iterations, route, g)


# ---------------------------------------------------------------------------
# dedicated solvers
# ---------------------------------------------------------------------------


def _columns(X: RandomVariable) -> tuple[Sequence[float], Sequence[float]]:
    """X's values and probabilities: the cached arrays from VECTOR_MIN outcomes on."""
    if X.space.n >= VECTOR_MIN:
        return X.values_array(), X.space.probs_array()
    return X.values, X.space.probs


def _aggregate(
    values: Sequence[float], probs: Sequence[float]
) -> tuple[Sequence[float], Sequence[float]]:
    """Distinct values ascending with their summed probabilities.

    Arrays from VECTOR_MIN entries on (prob.sorted_law), lists below; the
    sums are the same to the bit.
    """
    if len(values) >= VECTOR_MIN:
        return sorted_law(np.asarray(values, dtype=float), np.asarray(probs, dtype=float))
    acc: dict[float, float] = {}
    for v, p in zip(values, probs):
        acc[v] = acc.get(v, 0.0) + p
    vs = sorted(acc)
    return vs, [acc[v] for v in vs]


def _running(first: float, terms: np.ndarray, op: np.ufunc) -> np.ndarray:
    """[first op t0, (first op t0) op t1, ...]: a loop's running value after each term.

    np.add.accumulate and np.subtract.accumulate work strictly left to
    right, so each entry is the loop's value to the bit.
    """
    return op.accumulate(np.concatenate(([first], terms)))[1:]


def _expectile_signed(values: Sequence[float], probs: Sequence[float], alpha: float) -> float:
    """Exact expectile of a finite (possibly signed) distribution.

    Solves alpha*E[(X-k)_+] = (1-alpha)*E[(k-X)_+]; the left side minus
    the right is piecewise linear and strictly decreasing in k, so the
    root is located segment by segment and solved in closed form.
    """
    vs, ps = _aggregate(values, probs)
    if len(vs) == 1:
        return float(vs[0])
    if len(values) >= VECTOR_MIN:
        return _expectile_sweep(vs, ps, alpha)
    above_m = math.fsum(p * v for p, v in zip(ps, vs))
    above_p = 1.0
    below_m = 0.0
    below_p = 0.0
    for j in range(len(vs) - 1):
        below_m += ps[j] * vs[j]
        below_p += ps[j]
        above_m -= ps[j] * vs[j]
        above_p -= ps[j]
        nxt = vs[j + 1]
        h_next = alpha * (above_m - nxt * above_p) - (1.0 - alpha) * (nxt * below_p - below_m)
        if h_next <= 0.0:
            k = (alpha * above_m + (1.0 - alpha) * below_m) / (
                alpha * above_p + (1.0 - alpha) * below_p
            )
            return min(max(k, vs[j]), nxt)
    return vs[-1]


def _expectile_sweep(vs: np.ndarray, ps: np.ndarray, alpha: float) -> float:
    """The loop of _expectile_signed on arrays: its running sums at every j at once."""
    pv = ps * vs
    head, ph = pv[:-1], ps[:-1]
    with np.errstate(over="ignore", invalid="ignore"):
        above_m = _running(math.fsum(pv.tolist()), head, np.subtract)
        above_p = _running(1.0, ph, np.subtract)
        below_m = _running(0.0, head, np.add)
        below_p = _running(0.0, ph, np.add)
        nxt = vs[1:]
        h_next = alpha * (above_m - nxt * above_p) - (1.0 - alpha) * (nxt * below_p - below_m)
    hits = np.flatnonzero(h_next <= 0.0)
    if hits.size == 0:
        return float(vs[-1])
    j = int(hits[0])
    k = (alpha * float(above_m[j]) + (1.0 - alpha) * float(below_m[j])) / (
        alpha * float(above_p[j]) + (1.0 - alpha) * float(below_p[j])
    )
    return min(max(k, float(vs[j])), float(nxt[j]))


def _two_branch(
    phi: OrliczFunction, X: RandomVariable, vals: np.ndarray, probs: np.ndarray, tol: float
) -> tuple[float, Optional[tuple[float, float]], int]:
    """Premium for Phi(x) = 1 + a(x-1)_+^p - b(x-1)_-^q (expectile, lp, lpq).

    b = 0 leaves only the gain branch: the premium is max X.  For p = q,
    a*E[((X-k)_+/k)^p] <= b*E[((k-X)_+/k)^p] times k^p is the L^p-quantile
    at level alpha = a/(a+b): the root of the strictly decreasing
    alpha*E[(X-k)_+^p] - (1-alpha)*E[(k-X)_+^p], solved per segment for
    p in {1, 2} and bisected for other p.  p != q bisects the scaled
    difference, strictly decreasing in k with its zero on (0, max X].
    Returns (value, bracket, bisection steps); an exact branch has no
    bracket and 0 steps.
    """
    a, b, p, q = phi.a, phi.b, phi.p, phi.q
    if b == 0.0:
        return float(vals.max()), None, 0
    if p == q:
        alpha = a / (a + b)
        values, weights = _columns(X)
        if p == 1.0:
            return _expectile_signed(values, weights, alpha), None, 0
        if p == 2.0:
            return _lp2_exact(values, weights, alpha), None, 0
        vs, ps = _aggregate(values, weights)
        if len(vs) == 1:
            return float(vs[0]), None, 0
        pa, va = np.asarray(ps), np.asarray(vs)

        def h(k: float) -> float:
            gains = np.maximum(va - k, 0.0) ** p
            losses = np.maximum(k - va, 0.0) ** p
            return alpha * float(pa @ gains) - (1.0 - alpha) * float(pa @ losses)

        value, blo, bhi, iters = bisect_root_decreasing(h, float(vs[0]), float(vs[-1]), rel_tol=1e-14)
        return value, (blo, bhi), iters

    def hhat(k: float) -> float:
        gains = (np.maximum(vals - k, 0.0) / k) ** p
        losses = (np.maximum(k - vals, 0.0) / k) ** q
        return a * float(probs @ gains) - b * float(probs @ losses)

    ess = float(vals.max())
    lo = ess * 1e-3
    while hhat(lo) <= 0.0 and lo > LOWER_FLOOR:
        lo *= 1e-2
    if hhat(lo) <= 0.0:
        return lo, (0.0, lo), 0
    value, blo, bhi, iters = bisect_smallest_feasible(hhat, lo, ess, 0.0, rel_tol=min(tol, 1e-12))
    return value, (blo, bhi), iters


def _lp2_exact(values: Sequence[float], probs: Sequence[float], alpha: float) -> float:
    vs, ps = _aggregate(values, probs)
    if len(vs) == 1:
        return float(vs[0])
    if len(values) >= VECTOR_MIN:
        value = _lp2_sweep(vs, ps, alpha)
        if value is not None:
            return value
        vs, ps = vs.tolist(), ps.tolist()
    a1 = math.fsum(p * v for p, v in zip(ps, vs))
    a2 = math.fsum(p * v * v for p, v in zip(ps, vs))
    ap = 1.0
    b1 = b2 = bp = 0.0
    beta = 1.0 - alpha
    for j in range(len(vs) - 1):
        b1 += ps[j] * vs[j]
        b2 += ps[j] * vs[j] ** 2
        bp += ps[j]
        a1 -= ps[j] * vs[j]
        a2 -= ps[j] * vs[j] ** 2
        ap -= ps[j]
        nxt = vs[j + 1]
        h_next = alpha * (a2 - 2.0 * nxt * a1 + nxt * nxt * ap) - beta * (
            nxt * nxt * bp - 2.0 * nxt * b1 + b2
        )
        if h_next <= 0.0:
            c2 = alpha * ap - beta * bp
            c1 = -2.0 * alpha * a1 + 2.0 * beta * b1
            c0 = alpha * a2 - beta * b2
            return _quadratic_root_in(c2, c1, c0, vs[j], nxt)
    return vs[-1]


def _lp2_sweep(vs: np.ndarray, ps: np.ndarray, alpha: float) -> Optional[float]:
    """The loop of _lp2_exact on arrays; None when a square overflows.

    The squares come from Python's float power, as in the loop: pow(v, 2)
    and v * v differ in the last bit for some v.  Python's power raises
    OverflowError where numpy would give inf, and the loop raises it only
    if its walk reaches that atom, so an overflow hands back to the loop.
    """
    try:
        sq = np.array([v ** 2 for v in vs[:-1].tolist()])
    except OverflowError:
        return None
    beta = 1.0 - alpha
    pv, p2 = ps * vs, ps[:-1] * sq
    head, ph = pv[:-1], ps[:-1]
    with np.errstate(over="ignore", invalid="ignore"):
        a1 = _running(math.fsum(pv.tolist()), head, np.subtract)
        a2 = _running(math.fsum((pv * vs).tolist()), p2, np.subtract)
        ap = _running(1.0, ph, np.subtract)
        b1 = _running(0.0, head, np.add)
        b2 = _running(0.0, p2, np.add)
        bp = _running(0.0, ph, np.add)
        nxt = vs[1:]
        h_next = alpha * (a2 - 2.0 * nxt * a1 + nxt * nxt * ap) - beta * (
            nxt * nxt * bp - 2.0 * nxt * b1 + b2
        )
    hits = np.flatnonzero(h_next <= 0.0)
    if hits.size == 0:
        return float(vs[-1])
    j = int(hits[0])
    a1j, a2j, apj, b1j, b2j, bpj = (float(x[j]) for x in (a1, a2, ap, b1, b2, bp))
    c2 = alpha * apj - beta * bpj
    c1 = -2.0 * alpha * a1j + 2.0 * beta * b1j
    c0 = alpha * a2j - beta * b2j
    return _quadratic_root_in(c2, c1, c0, float(vs[j]), float(nxt[j]))


def _quadratic_root_in(c2: float, c1: float, c0: float, lo: float, hi: float) -> float:
    span = max(abs(lo), abs(hi), 1.0)
    if abs(c2) < 1e-14:
        k = -c0 / c1
        return min(max(k, lo), hi)
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

    From QUANTILE_ARRAY_MIN outcomes on it reads the arrays of
    prob.sorted_law, which merges ties as the law does, instead of
    building a DiscreteDistribution that would turn them into tuples and
    back.
    """
    if X.space.n < QUANTILE_ARRAY_MIN:
        return quantile(distribution_of(X), alpha)
    vs, ps = sorted_law(X.values_array(), X.space.probs_array())
    return float(vs[quantile_index(ps, alpha)])


def _geometric_expectile(X: RandomVariable, a: float, b: float) -> float:
    """exp of the a/(a+b)-expectile of log X; X > 0 everywhere when b > 0.

    b = 0 sends the level to 1 and the value to the essential supremum.
    """
    if b == 0.0:
        return max(X.values)  # zero atoms are harmless here: Phi(0) = 1
    logs = list(map(math.log, X.values))
    return math.exp(_expectile_signed(logs, _columns(X)[1], a / (a + b)))


# family -> (route name, solver(phi, X, values, probs, tol) -> (premium,
# bisection bracket or None for a closed form, bisection steps)); the label
# is "bisect:<name>" with a bracket, else "closed_form:<name>".  Keyed by
# exact class: a subclass may redefine Phi, so it takes the generic route,
# as PiecewiseLinear does.  orlicz_premium has already returned for max X = 0
# and for mass at zero under Phi(0) = -inf, so no solver sees either case.
_SOLVERS: dict[type, tuple[str, Callable[..., tuple]]] = {
    GeometricMean: ("gm",
                    lambda phi, X, xs, ps, tol: (float(np.exp(ps @ np.log(xs))), None, 0)),
    Power: ("power",
            lambda phi, X, xs, ps, tol: (float((ps @ xs ** phi.p) ** (1.0 / phi.p)), None, 0)),
    QuantileStep: ("quantile",
                   lambda phi, X, xs, ps, tol: (_left_quantile(X, phi.alpha), None, 0)),
    Expectile: ("expectile", _two_branch),
    LpQuantile: ("lp_quantile", _two_branch),
    LpqQuantile: ("lpq_quantile", _two_branch),
    GeometricExpectile: ("geometric_expectile",
                         lambda phi, X, xs, ps, tol: (
                             _geometric_expectile(X, phi.a, phi.b), None, 0)),
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

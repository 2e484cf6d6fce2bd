"""Independent reference premia for the benchmark's checks.

These use only numpy and math, never the library: sorted cumulative sums
for the quantile and expectile, compensated sums (math.fsum) for the
power and geometric-mean closed forms, and a bisection on a relative
bracket width for everything that has no closed form.  They read a
function spec in the CLI grammar, so one string names the function for
the library and for its reference.
"""

from __future__ import annotations

import math

import numpy as np


def parse_spec(spec: str) -> tuple[str, list]:
    """('power', [2.0]) from 'power:2'; pwl specs keep their knot text."""
    head, _, tail = spec.partition(":")
    if head == "pwl":
        with open(tail) as fh:
            return head, [fh.read()]
    return head, [float(a) for a in tail.split(",")] if tail else []


def pwl_knots(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Knots of a continuous, uncapped piecewise-linear file with no 0,y row."""
    rows = [ln.split(",") for ln in text.splitlines() if ln.strip()]
    kx = np.array([float(x) for x, _ in rows])
    ky = np.array([float(y) for _, y in rows])
    if kx[0] <= 0.0 or np.any(np.diff(kx) <= 0.0) or not np.all(np.isfinite(ky)):
        raise ValueError("reference pwl needs strictly ascending knots at x > 0")
    return kx, ky


def pwl_eval(kx: np.ndarray, ky: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Flat below the first knot, interpolated between, last slope beyond."""
    slope = (ky[-1] - ky[-2]) / (kx[-1] - kx[-2])
    return np.where(x > kx[-1], ky[-1] + slope * (x - kx[-1]), np.interp(x, kx, ky))


def bisect_last_true(pred, lo: float, hi: float) -> float:
    """Boundary of a predicate true on [lo, b] and false on (b, hi], to 2 ulps."""
    for _ in range(2000):
        mid = 0.5 * (lo + hi)
        if hi - lo <= 4.0 * math.ulp(hi) or mid <= lo or mid >= hi:
            break
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return hi


def expectile(v: np.ndarray, p: np.ndarray, alpha: float) -> float:
    """Root of alpha*E[(X-k)+] = (1-alpha)*E[(k-X)+] from sorted atoms."""
    atoms, inv = np.unique(v, return_inverse=True)
    w = np.bincount(inv, weights=p)
    if atoms.size == 1:
        return float(atoms[0])
    cp = np.cumsum(w)
    cm = np.cumsum(w * atoms)
    tp, tm = cp[-1], cm[-1]
    # h at each atom a_j, with atoms <= a_j below and the rest above
    h = alpha * ((tm - cm) - atoms * (tp - cp)) - (1.0 - alpha) * (atoms * cp - cm)
    j = int(np.argmax(h <= 0.0))  # first atom where h has turned; h is decreasing
    if j == 0:
        return float(atoms[0])
    below = slice(0, j)
    above = slice(j, atoms.size)
    bm = math.fsum(w[below] * atoms[below])
    bp = math.fsum(w[below])
    am = math.fsum(w[above] * atoms[above])
    ap = math.fsum(w[above])
    k = (alpha * am + (1.0 - alpha) * bm) / (alpha * ap + (1.0 - alpha) * bp)
    return min(max(k, float(atoms[j - 1])), float(atoms[j]))


def premium(spec: str, values, probs) -> float:
    """Reference premium of a strictly positive outcome vector."""
    v = np.asarray(values, dtype=float)
    p = np.asarray(probs, dtype=float)
    if not np.all(v > 0.0):
        raise ValueError("reference premia assume strictly positive outcomes")
    head, args = parse_spec(spec)
    if head == "gm":
        return math.exp(math.fsum(p * np.log(v)))
    if head == "power":
        (e,) = args
        return math.fsum(p * v**e) ** (1.0 / e)
    if head == "quantile":
        (a,) = args
        order = np.argsort(v, kind="stable")
        cum = np.cumsum(p[order])
        i = min(int(np.searchsorted(cum, a, side="left")), v.size - 1)
        return float(v[order][i])
    if head == "expectile":
        return expectile(v, p, args[0])
    if head == "gexpectile":
        a, b = args
        if b == 0.0:
            return float(v.max())
        return math.exp(expectile(np.log(v), p, a / (a + b)))
    if head == "lp":
        a, e = args
        if e == 1.0:
            return expectile(v, p, a)

        def gains_win(k: float) -> bool:
            up = p @ np.maximum(v - k, 0.0) ** e
            down = p @ np.maximum(k - v, 0.0) ** e
            return a * up > (1.0 - a) * down

        return bisect_last_true(gains_win, float(v.min()), float(v.max()))
    if head == "lpq":
        a, b, e, f = args

        def infeasible(k: float) -> bool:
            up = p @ (np.maximum(v - k, 0.0) / k) ** e
            down = p @ (np.maximum(k - v, 0.0) / k) ** f
            return a * up > b * down

        return bisect_last_true(infeasible, float(v.max()) * 1e-12, float(v.max()))
    if head == "pwl":
        kx, ky = pwl_knots(args[0])
        return bisect_last_true(
            lambda k: p @ pwl_eval(kx, ky, v / k) > 1.0, float(v.max()) * 1e-12, float(v.max())
        )
    raise ValueError(f"no reference for spec {spec!r}")


def hg_power_one(values, probs) -> float:
    """E[X]: the HG measure of every Power(p >= 1), attained as x -> -inf."""
    return math.fsum(np.asarray(probs, dtype=float) * np.asarray(values, dtype=float))

"""The piece table of a knotted Phi against the per-family copies it replaced.

Each knotted family (pwl, Power(1), the two-branch losses with p = 1 and
q = 1 or b = 0) is described once, by OrliczFunction._pieces; the
conjugate, both betas, the first-order point and the HG tail read it.
The functions below are the copies those readers used before, kept here
as oracles: the two-branch and Power(1) first-order points, pwl's own
table, the knot rows of the sup, the knot slopes read off derivative,
the end slopes each family passed, and the HG tail's reads of points
and derivative.  The table must give their floats, bit for bit.  pwl's
derivative, which now reads slopes and jumps tabled in __init__, is
checked the same way against its old per-call method.
"""

import math

import numpy as np
import pytest

from orlicz.base import INF
from orlicz.duality import beta_conjugate, beta_primal
from orlicz.functions import (
    Expectile,
    LpQuantile,
    LpqQuantile,
    PiecewiseLinear,
    Power,
    conjugate,
)
from orlicz.hg import _linear_tail
from orlicz.premium import _lp_quantile_exact
from orlicz.prob import FiniteProbabilitySpace, MeasureChange, rv

TWO_BRANCH = [
    Expectile(0.3),
    Expectile(0.6),
    Expectile(0.8),
    LpQuantile(0.7, 1.0),
    LpqQuantile(1.5, 0.5, 1.0, 1.0),
    LpqQuantile(1.0, 0.0, 1.0, 1.0),
    LpqQuantile(2.0, 0.0, 1.0, 2.0),
    LpqQuantile(1.0, 0.0, 1.0, 3.0),
]
PWLS = [
    PiecewiseLinear([(0.0, 0.0), (1.0, 1.0), (2.0, 3.0), (4.0, 9.0)]),
    PiecewiseLinear([(0.5, 0.25), (1.0, 1.0), (2.0, 3.0), (4.0, 9.0)]),  # first knot above 0
    PiecewiseLinear([(0.0, 0.0), (1.0, 1.0), (2.0, 3.0)], upper=5.0),  # capped
    PiecewiseLinear([(0.5, 0.2), (1.0, 1.0), (2.0, 4.0)], upper=2.0),  # both
    PiecewiseLinear([(0.999, 0.998), (1.001, 1.002), (2.0, 4.998)]),  # 1 inside a piece
    PiecewiseLinear([(0.0, 0.0), (0.5, 0.2), (1.0, 1.0), (3.0, 2.0)]),  # not convex
]
KNOTTED = [Power(1.0)] + TWO_BRANCH + PWLS


def _ids(phi):
    return phi.spec_string()


# --- the deleted copies -------------------------------------------------------


def _two_branch_point(phi, s, geometric):
    # Phi'_+ is b on [0, 1) and a from 1 on (b = 0 reads 0 below 1 for any q)
    a, b = phi.a, phi.b
    if not geometric:
        return np.where(s <= b, 0.0, np.where(s <= a, 1.0, INF))
    upper = np.maximum(s / a, 1.0)
    return np.where(s < b, s / b, upper) if b > 0.0 else np.where(s == 0.0, 0.0, upper)


def _power_one_point(phi, s, geometric):
    if geometric:
        return (s / phi.p) ** (1.0 / phi.p)
    return np.where(s <= 1.0, 0.0, INF)


def _pwl_point(phi, s, geometric):
    # PiecewiseLinear's own five-column table and its point
    left = sorted({0.0, *(x for x, _ in phi.points if x < phi.upper)})
    if phi.upper < INF:
        left.append(phi.upper)
    lo = np.array(left)
    hi = np.append(lo[1:], INF)
    d0 = phi.derivative(lo)
    inside = phi.derivative(np.where(hi < INF, lo + 0.5 * (hi - lo), lo + 1.0))
    reach = np.where(lo > 0.0, lo * d0, 0.0)
    lo, hi, d0, inside, reach = (c[:, None] for c in (lo, hi, d0, inside, reach))
    t = s.reshape(1, -1)
    if geometric:
        q = t / inside
        x = np.where(reach >= t, lo, np.where(q < hi, np.maximum(q, lo), INF))
    else:
        x = np.where(d0 >= t, lo, INF)
    return x.min(axis=0)


def _old_point(phi, s, geometric):
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if isinstance(phi, PiecewiseLinear):
            return _pwl_point(phi, s, geometric)
        if isinstance(phi, Power):
            return _power_one_point(phi, s, geometric)
        return _two_branch_point(phi, s, geometric)


def _old_sup_rows(phi):
    # every knot below upper, upper itself, then (0, Phi(0))
    rows = [(x, v) for x, v in phi.points if x < phi.upper]
    if phi.upper < INF:
        rows.append((phi.upper, phi(phi.upper)))
    return rows + [(0.0, phi.at_zero)]


def _old_knot_slopes(phi):
    knots = np.array([0.0] + [x for x, _ in phi.points])
    return tuple(sorted({s for s in phi.derivative(knots).tolist() if 0.0 < s < INF}))


def _old_end_slope(phi):
    # the end_slope each family passed to the knotted conjugate
    if isinstance(phi, PiecewiseLinear):
        return phi._end_slope
    return 1.0 if isinstance(phi, Power) else phi.a


def _old_tail(phi, X, lo, hi):
    knots = [x for x, _ in phi.points]
    s_up, s_down = phi.derivative(np.array([1.0, math.nextafter(1.0, 0.0)])).tolist()
    e = _lp_quantile_exact(X.values, X.space.probs, s_up / (s_up + s_down), 1)
    d_up = min([x for x in knots if x > 1.0] + [phi.upper]) - 1.0
    d_down = 1.0 - max([x for x in knots if x < 1.0] + [0.0])
    return e - max((hi - e) / d_up, (e - lo) / d_down), e


def _s_values(phi):
    """Over 20k values of s: 0, every slope, knot times slope, a and b, each
    with its neighbouring floats, the ends of the float range, and random
    values on a linear and a logarithmic scale."""
    knots = np.array([0.0] + [x for x, _ in phi.points])
    slopes = phi.derivative(knots)
    with np.errstate(invalid="ignore"):
        marks = {1.0, *slopes.tolist(), *(knots * slopes).tolist()}
    marks |= {getattr(phi, name) for name in ("a", "b") if hasattr(phi, name)}
    marks = [m for m in marks if 0.0 < m < INF]
    near = [math.nextafter(m, d) for m in marks for d in (0.0, INF)]
    rng = np.random.default_rng(2027)
    rand = [rng.uniform(0.0, 5.0, 10_000), 10.0 ** rng.uniform(-300.0, 300.0, 10_000)]
    ends = [0.0, 5e-324, 1e-300, 1e300, 1e308, 1.7976931348623157e308, INF]
    return np.concatenate([ends, marks, near] + rand)


# --- the table against them ---------------------------------------------------


@pytest.mark.parametrize("geometric", [False, True], ids=["arith", "geom"])
@pytest.mark.parametrize("phi", KNOTTED, ids=_ids)
def test_first_order_point_is_the_old_copy_bit_for_bit(phi, geometric):
    s = _s_values(phi)
    assert s.size >= 20_000
    # RuntimeWarnings fail the suite: s / b overflows at s = 1e308 in the
    # branch np.where drops, and so did the old copies
    got = phi.first_order_point(s, geometric)
    assert got.tolist() == _old_point(phi, s, geometric).tolist()
    shaped = phi.first_order_point(s[:20_000].reshape(4, 5, -1), geometric)  # any shape, kept
    assert shaped.shape == (4, 5, 1000) and shaped.ravel().tolist() == got[:20_000].tolist()


@pytest.mark.parametrize("phi", KNOTTED, ids=_ids)
def test_sup_points_slopes_and_end_slope_are_the_old_reads(phi):
    # no Phi above repeats a knot, so the rows are the old ones in order;
    # below a first knot above 0 the table adds (0, Phi(0+)), which that
    # knot's row dominates for y >= 0
    rows = _old_sup_rows(phi)
    if phi.points[0][0] > 0.0:
        rows.insert(0, (0.0, phi.points[0][1]))
    assert phi._sup_points[..., 0].T.tolist() == [list(r) for r in rows]
    assert phi._knot_slopes == _old_knot_slopes(phi)
    end = phi._pieces[3, -1, 0]
    assert end == (_old_end_slope(phi) if phi.upper == INF else INF)


TAIL_FAMILIES = [phi for phi in KNOTTED if phi(1.0) == 1.0 and phi.validation.ok]


@pytest.mark.parametrize("phi", TAIL_FAMILIES, ids=_ids)
def test_hg_tail_is_the_old_read_of_points_and_derivative(phi):
    rng = np.random.default_rng(71)
    for n in (2, 3, 5, 8, 8):
        X = rv(np.round(rng.uniform(0.1, 5.0, n), 4).tolist(), rng.dirichlet(np.ones(n)).tolist())
        lo, hi = min(X.values), max(X.values)
        assert _linear_tail(phi, X, lo, hi) == _old_tail(phi, X, lo, hi)


# --- repeated knots at 0 ------------------------------------------------------

ZERO_JUMPS = [
    PiecewiseLinear([(0.0, 0.2), (0.0, 0.5), (1.0, 1.0), (2.0, 3.0)], value_at_zero=0.6),
    PiecewiseLinear([(0.0, 0.1), (0.0, 0.3), (1.0, 1.0), (3.0, 4.0)], value_at_zero=0.45),
    PiecewiseLinear([(0.0, 0.5), (0.0, 0.2), (1.0, 1.0), (2.0, 3.0)]),
    PiecewiseLinear([(0.0, 0.4), (0.0, 0.0), (1.0, 1.0), (2.0, 3.0)], value_at_zero=0.7, upper=4.0),
]


def _brute_psi(phi, ys):
    # the sup of x y - Phi(x) over 3e5 points, the knots, upper and points near 0
    top = phi.upper if phi.upper < INF else 10.0
    xs = np.concatenate(
        [[0.0, 1e-300, 1e-15], np.linspace(0.0, top, 300_000), [x for x, _ in phi.points]]
    )
    vs = phi.eval_array(xs)
    return np.array([float(np.max(xs * y - vs)) for y in ys])


@pytest.mark.parametrize("phi", ZERO_JUMPS, ids=_ids)
def test_conjugate_with_a_jump_at_zero_meets_a_brute_force_sup(phi):
    # a knot row at 0 that is neither Phi(0) nor Phi(0+) is no value of Phi
    assert phi.convex_flag
    slopes = _old_knot_slopes(phi)
    ys = [0.0, *slopes] + np.random.default_rng(3).uniform(0.0, slopes[-1], 40).tolist()
    got = conjugate(phi, np.array(ys))
    assert got == pytest.approx(_brute_psi(phi, ys), rel=0.0, abs=1e-12)


@pytest.mark.parametrize("phi", ZERO_JUMPS, ids=_ids)
def test_betas_with_a_jump_at_zero_meet_the_brute_force_conjugate(phi):
    # beta = 1 / inf over lam of (1 + E[Psi(lam w)]) / lam, whose infimum
    # sits where some lam w_i is a slope, or at the edge of Psi's domain
    rng = np.random.default_rng(11)
    slopes = _old_knot_slopes(phi)
    for n in (2, 3, 4):
        probs = rng.dirichlet(np.ones(n))
        draw = rng.uniform(0.1, 3.0, n)
        w = draw / float(probs @ draw)
        Q = MeasureChange(FiniteProbabilitySpace(tuple(probs.tolist())), tuple(w.tolist()))
        edge = INF if phi.upper < INF else slopes[-1] / w.max()
        lams = [s / x for s in slopes for x in w.tolist() if s / x <= edge]
        f = [(1.0 + float(probs @ _brute_psi(phi, lam * w))) / lam for lam in lams]
        want = min(1.0, 1.0 / min(f + [phi.upper]))
        assert beta_conjugate(phi, Q) == pytest.approx(want, rel=1e-12, abs=0.0)
        assert beta_primal(phi, Q) == pytest.approx(want, rel=1e-12, abs=0.0)


# --- pwl's derivative ---------------------------------------------------------


def _old_pwl_derivative(phi, xs):
    # PiecewiseLinear.derivative before __init__ tabled its slopes and jumps:
    # a knot division per call, and eval_array to find the upward jumps
    x = np.asarray(xs, dtype=float)
    kx, ky = phi._kx_arr, phi._ky_arr
    j = np.searchsorted(kx, x, side="right")
    lo, hi = np.maximum(j - 1, 0), np.minimum(j, len(kx) - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = (ky[hi] - ky[lo]) / (kx[hi] - kx[lo])
    slope = np.select([j == 0, j == len(kx)], [0.0, phi._end_slope], inner)
    on_knot = (x == 0.0) | ((j > 0) & (kx[lo] == x))
    jump = on_knot & (ky[lo] > phi.eval_array(x))
    return np.where(jump | (x >= phi.upper), INF, slope)


DERIVATIVE_PWLS = PWLS + ZERO_JUMPS + [
    PiecewiseLinear([(0.0, 0.0), (0.5, 0.8), (1.0, 1.0), (2.0, 3.0)]),
    PiecewiseLinear(  # jumps up and down at positive knots, Phi(0) = -inf
        [(0.5, 0.2), (1.0, 0.6), (1.0, 1.0), (2.0, 1.5), (2.0, 1.2), (3.0, 4.0)],
        value_at_zero=-INF,
    ),
    PiecewiseLinear([(0.0, 0.0), (1.0, 1.0), (1.0, 2.0)]),  # flat after a terminal jump
    PiecewiseLinear([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (2.0, 3.0)], upper=2.0),  # jump at upper
    PiecewiseLinear([(1.0, 1.0)]),
]


@pytest.mark.parametrize("phi", DERIVATIVE_PWLS, ids=_ids)
def test_pwl_derivative_is_the_old_method_bit_for_bit(phi):
    marks = [0.0, phi.upper] + [x for x, _ in phi.points]
    near = [math.nextafter(m, d) for m in marks for d in (0.0, INF) if m < INF]
    rng = np.random.default_rng(29)
    top = 2.0 * marks[-1] + 1.0
    rand = [rng.uniform(0.0, top, 10_000), 10.0 ** rng.uniform(-300.0, 300.0, 10_000)]
    ends = [-0.0, 5e-324, 1e-300, 1e300, 1.7976931348623157e308, INF]
    xs = np.concatenate([ends, marks, near] + rand)
    assert xs.size >= 20_000
    assert phi.derivative(xs).tolist() == _old_pwl_derivative(phi, xs).tolist()
    square = xs[:60].reshape(3, 20)  # any shape, kept
    assert phi.derivative(square).tolist() == phi.derivative(xs[:60]).reshape(3, 20).tolist()

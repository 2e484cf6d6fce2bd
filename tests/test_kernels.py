"""The numpy kernels against the loops they replace from VECTOR_MIN entries on.

Each check runs the same call twice, once with every module's VECTOR_MIN
raised so the loops run and once with it lowered to 1 so the numpy
kernels run, and compares the results with ==.  Inputs have heavy ties
and sizes on both sides of the real constant.
"""

import math

import numpy as np
import pytest

from orlicz import functions, premium, prob
from orlicz.base import VECTOR_MIN, DomainError
from orlicz.functions import GeometricExpectile, LpQuantile, LpqQuantile, PiecewiseLinear
from orlicz.prob import DiscreteDistribution, distribution_of, quantile, rv
from orlicz.properties import _describe

SIZES = (2, 5, VECTOR_MIN - 1, VECTOR_MIN, VECTOR_MIN + 1, 300, 2000)
LOOPS, KERNELS = 10**9, 1


def both_paths(monkeypatch, call):
    """call() under the loops and under the numpy kernels."""
    out = []
    for threshold in (LOOPS, KERNELS):
        for module in (prob, premium, functions):
            monkeypatch.setattr(module, "VECTOR_MIN", threshold)
        out.append(call())
    return out


def two_branch(phi, X):
    """The expectile/lp/lpq solver's value itself, without _finish's ulp nudges."""
    return premium._two_branch(phi, X, X.values_array(), X.space.probs_array())[0]


def log_branch(phi, X):
    """The gm/gexpectile solver's value itself, without _finish's ulp nudges."""
    return premium._log_branch(phi, X, X.values_array(), X.space.probs_array())


def tied_sample(rng, n, signed=False):
    """Values on a coarse grid (many ties) with Dirichlet weights."""
    values = rng.integers(0, max(2, n // 4), n) * 0.37
    if signed:
        values = values - 0.37 * (n // 8)
    probs = rng.dirichlet(np.ones(n))
    return values.tolist(), (probs / math.fsum(probs)).tolist()


@pytest.mark.parametrize("n", SIZES)
def test_closed_forms_bit_equal(monkeypatch, n):
    rng = np.random.default_rng(n)
    for _ in range(6):
        values, probs = tied_sample(rng, n)
        for alpha in (0.05, 0.3, 0.5, 0.8, 0.97):
            got = both_paths(
                monkeypatch,
                lambda: premium._lp_quantile_exact(*premium._columns(rv(values, probs)), alpha, 1),
            )
            assert got[0] == got[1], (n, alpha)
            for p in (1.0, 2.0, 1.5):
                got = both_paths(
                    monkeypatch, lambda: two_branch(LpQuantile(alpha, p), rv(values, probs))
                )
                assert got[0] == got[1], (n, alpha, p)
        for a, b in ((1.5, 0.5), (1.0, 3.0)):
            for p in (1.0, 2.0):
                got = both_paths(
                    monkeypatch, lambda: two_branch(LpqQuantile(a, b, p, p), rv(values, probs))
                )
                assert got[0] == got[1], (n, a, b, p)
        positive = [v + 0.01 for v in values]
        for a, b in ((1.0, 1.0), (2.0, 1.0), (1.0, 3.0)):
            got = both_paths(
                monkeypatch, lambda: log_branch(GeometricExpectile(a, b), rv(positive, probs))
            )
            assert got[0] == got[1], (n, a, b)


def test_lp2_squares_as_the_loop_does(monkeypatch):
    # values whose float power v ** 2 differs from v * v in the last bit
    draws = np.random.default_rng(5).lognormal(0.0, 2.0, 20000).tolist()
    odd = [v for v in draws if v ** 2 != v * v][:40]
    values = odd + draws[: 200 - len(odd)]
    for alpha in (0.2, 0.5, 0.9):
        got = both_paths(monkeypatch, lambda: two_branch(LpQuantile(alpha, 2.0), rv(values)))
        assert got[0] == got[1], alpha


def test_lp2_overflowing_square_beyond_the_root(monkeypatch):
    # 1.5e154 ** 2 overflows, but the loop finds the root before that atom
    values = [1.0] * 100 + [2.0, 3.0, 1.5e154, 1.6e154]
    probs = [1.0 / 102] * 102 + [5e-324, 5e-324]
    got = both_paths(monkeypatch, lambda: two_branch(LpQuantile(0.5, 2.0), rv(values, probs)))
    assert got[0] == got[1]
    assert 1.0 <= got[0] <= 2.0
    # here the root lies past 1.5e154, so the walk squares it
    probs = [0.05 / 100] * 100 + [0.05 / 2] * 2 + [0.45, 0.45]
    got = both_paths(monkeypatch, lambda: two_branch(LpQuantile(0.99, 2.0), rv(values, probs)))
    assert got[0] == got[1]
    assert 1.5e154 <= got[0] <= 1.6e154


@pytest.mark.parametrize("n", SIZES)
def test_signed_expectile_bit_equal(monkeypatch, n):
    rng = np.random.default_rng(100 + n)
    values, probs = tied_sample(rng, n, signed=True)
    for alpha in (0.1, 0.5, 0.9):
        got = both_paths(monkeypatch, lambda: premium._lp_quantile_exact(values, probs, alpha, 1))
        assert got[0] == got[1]


@pytest.mark.parametrize("n", SIZES)
def test_quantile_bit_equal_at_exact_cumulative_levels(monkeypatch, n):
    rng = np.random.default_rng(200 + n)
    # dyadic weights: every running sum is exact, so levels can hit them
    counts = rng.integers(1, 4, n)
    probs = (counts / counts.sum()).tolist()
    values = (rng.integers(0, max(2, n // 3), n) * 0.5).tolist()
    X = rv(values, probs)
    dist = distribution_of(X)
    levels = [float(c) for c in np.cumsum(dist.probs)[:: max(1, len(dist.probs) // 7)]]
    levels += [1.0, 0.5, 1e-9, 0.9137331]
    for t in levels:
        got = both_paths(monkeypatch, lambda: quantile(distribution_of(rv(values, probs)), t))
        assert got[0] == got[1], (n, t)
        got = both_paths(monkeypatch, lambda: quantile(dist, t))
        assert got[0] == got[1], (n, t)


@pytest.mark.parametrize("n", SIZES)
def test_laws_bit_equal(monkeypatch, n):
    rng = np.random.default_rng(300 + n)
    values, probs = tied_sample(rng, n)
    values[0] = -0.0  # merges with 0.0 and keeps the sign of its first occurrence
    values[-1] = 0.0
    weights = [p if i % 5 else 0.0 for i, p in enumerate(probs)]
    weights = [w / math.fsum(weights) for w in weights]
    pairs = list(zip(values, weights))

    def law(d):
        return [math.copysign(1.0, a) for a in d.atoms], d.atoms, d.probs

    got = both_paths(monkeypatch, lambda: law(DiscreteDistribution.from_pairs(pairs)))
    assert got[0] == got[1]
    got = both_paths(monkeypatch, lambda: law(DiscreteDistribution.from_pairs(np.array(pairs))))
    assert got[0] == got[1]
    got = both_paths(monkeypatch, lambda: law(distribution_of(rv(values, probs))))
    assert got[0] == got[1]
    got = both_paths(monkeypatch, lambda: prob.merged_law(values, probs))
    assert [list(map(float, g)) for g in got[0]] == [list(map(float, g)) for g in got[1]]


def test_sorted_law_sums_ties_in_input_order():
    vals = np.array([2.0, 1.0, 2.0, 1.0, 2.0])
    probs = np.array([0.1, 0.2, 0.3, 0.15, 0.25])
    atoms, merged = prob.sorted_law(vals, probs)
    assert atoms.tolist() == [1.0, 2.0]
    assert merged.tolist() == [0.0 + 0.2 + 0.15, 0.0 + 0.1 + 0.3 + 0.25]


PWL_CASES = [
    PiecewiseLinear([(0.5, 0.2), (1.0, 1.0), (2.0, 4.0)]),
    PiecewiseLinear([(0.5, 0.2), (1.0, 1.0), (1.0, 1.5), (3.0, 2.0)], upper=4.0),
    PiecewiseLinear([(0.0, 0.0), (1.0, 1.0), (1.0, 3.0)], value_at_zero=-math.inf),
    PiecewiseLinear([(1.0, 1.0)], upper=2.5),
]


@pytest.mark.parametrize("phi", PWL_CASES, ids=range(len(PWL_CASES)))
def test_pwl_eval_array_equals_call(phi):
    knots = [x for x, _ in phi.points]
    special = [0.0, -0.0, 1e-300, 2.5, 2.5000000001, 4.0, 4.0000001, 7.5, 1e6]
    special += knots + [math.nextafter(x, math.inf) for x in knots]
    special += [math.nextafter(x, 0.0) for x in knots if x > 0]
    grid = np.random.default_rng(7).uniform(0.0, 5.0, 400).tolist()
    assert len(special) < VECTOR_MIN <= len(special + grid)
    for xs in (special, special + grid):
        want = [phi(x) for x in xs]
        got = phi.eval_array(np.array(xs)).tolist()
        assert [repr(g) for g in got] == [repr(float(w)) for w in want]
    square = np.array(grid[:160]).reshape(20, 8)
    assert phi.eval_array(square).tolist() == phi.eval_array(square.ravel()).reshape(20, 8).tolist()


@pytest.mark.parametrize("size", [3, 200])
def test_pwl_eval_array_rejects_negative_input_like_call(size):
    phi = PWL_CASES[0]
    xs = np.full(size, 0.5)
    xs[size // 2] = -0.25
    with pytest.raises(DomainError) as from_array:
        phi.eval_array(xs)
    with pytest.raises(DomainError) as from_call:
        phi(float(xs[size // 2]))
    assert str(from_array.value) == str(from_call.value)


@pytest.mark.parametrize("n", [3, 300])
def test_cached_arrays_are_read_only_and_built_once(n):
    X = rv(np.linspace(0.5, 2.0, n))
    dist = distribution_of(X)
    for get in (X.values_array, X.space.probs_array, dist.atoms_array, dist.probs_array):
        arr = get()
        assert arr is get()
        assert arr.dtype == np.float64
        with pytest.raises(ValueError):
            arr[0] = 1.0
    assert X.values_array().tolist() == list(X.values)
    assert X.space.probs_array().tolist() == list(X.space.probs)


def test_cached_arrays_do_not_change_equality_or_hash():
    X, Y = rv((0.5, 2.0)), rv((0.5, 2.0))
    X.values_array()
    X.space.probs_array()
    assert X == Y and X.space == Y.space
    assert hash(X.space) == hash(Y.space)


def test_rv_does_not_freeze_the_callers_array():
    values = np.array([0.5, 1.0, 2.0] * 30)
    rv(values).values_array()
    values[0] = 3.0
    assert values.flags.writeable


def test_failure_text_prints_plain_floats():
    from orlicz.functions import Power

    text = _describe(Power(2.0), rv((0.5, 2.0)))
    assert text == "phi=power:2.0 values=[0.5, 2.0] probs=[0.5, 0.5]"

"""Probability-space plumbing: spaces, distributions, quantiles, rearrangement."""

import itertools
import math

import numpy as np
import pytest

from orlicz.base import DimensionError
from orlicz.prob import (
    DiscreteDistribution,
    FiniteProbabilitySpace,
    MeasureChange,
    RandomVariable,
    as_random_variable,
    comonotone_integral,
    distribution_of,
    mixture,
    quantile,
    rv,
)


def test_space_rejects_bad_probs():
    with pytest.raises(ValueError):
        FiniteProbabilitySpace((0.5, 0.6))
    with pytest.raises(ValueError):
        FiniteProbabilitySpace((1.2, -0.2))
    with pytest.raises(ValueError):
        FiniteProbabilitySpace(())


def test_rv_alignment_and_domain():
    space = FiniteProbabilitySpace((0.5, 0.5))
    with pytest.raises(DimensionError):
        RandomVariable(space, (1.0,))
    with pytest.raises(ValueError):
        RandomVariable(space, (1.0, -2.0))
    with pytest.raises(ValueError):
        RandomVariable(space, (1.0, math.inf))


def test_rv_uniform_default():
    X = rv((1.0, 2.0, 3.0))
    assert X.space.probs == (1 / 3, 1 / 3, 1 / 3)


def test_from_pairs_sorts_merges_and_drops_zeros():
    d = DiscreteDistribution.from_pairs([(2.0, 0.25), (1.0, 0.5), (2.0, 0.25), (9.0, 0.0)])
    assert d.atoms == (1.0, 2.0)
    assert d.probs == (0.5, 0.5)


def test_from_pairs_merges_only_equal_atoms():
    # atoms 5e-13 apart stay apart: the law of 1e-6 * X is the scaled law of X
    d = DiscreteDistribution.from_pairs([(1.0000005e-6, 0.5), (1e-6, 0.25), (1e-6, 0.25)])
    assert d.atoms == (1e-6, 1.0000005e-6)
    assert d.probs == (0.5, 0.5)


def test_quantile_left_inverse():
    d = DiscreteDistribution((1.0, 2.0, 3.0), (0.2, 0.3, 0.5))
    assert quantile(d, 0.2) == 1.0  # boundary belongs to the lower atom
    assert quantile(d, 0.20001) == 2.0
    assert quantile(d, 0.5) == 2.0
    assert quantile(d, 1.0) == 3.0


def test_mixture_weights():
    F = DiscreteDistribution((1.0,), (1.0,))
    G = DiscreteDistribution((2.0,), (1.0,))
    Z = mixture(F, G, 0.25)
    assert Z.atoms == (1.0, 2.0)
    assert Z.probs == (0.25, 0.75)


def test_distribution_roundtrip():
    X = rv((3.0, 1.0, 3.0), (0.2, 0.3, 0.5))
    d = distribution_of(X)
    assert d.atoms == (1.0, 3.0)
    assert d.probs == (0.3, 0.7)
    Y = as_random_variable(d)
    assert Y.values == d.atoms


def test_measure_change_needs_unit_mean():
    space = FiniteProbabilitySpace((0.5, 0.5))
    MeasureChange(space, (0.5, 1.5))
    with pytest.raises(ValueError):
        MeasureChange(space, (0.5, 1.0))
    with pytest.raises(ValueError):
        MeasureChange(space, (-0.5, 2.5))


def _enumeration_max(values, dens, probs):
    n = len(values)
    best = -math.inf
    for perm in itertools.permutations(range(n)):
        total = math.fsum(values[i] * dens[perm[i]] * probs[i] for i in range(n))
        best = max(best, total)
    return best


def test_comonotone_integral_matches_enumeration_exactly():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4, 5):
        for _ in range(40):
            values = tuple(float(v) for v in rng.uniform(0.0, 5.0, n))
            draw = rng.uniform(0.1, 3.0, n)
            dens = tuple(float(d) for d in draw / np.mean(draw))
            X = rv(values)
            Q = MeasureChange(X.space, dens)
            walk = comonotone_integral(X, Q)
            assert walk == _enumeration_max(list(values), list(dens), [1.0 / n] * n)


def test_comonotone_integral_rejects_mismatched_spaces():
    X = rv((1.0, 2.0))
    other = MeasureChange(FiniteProbabilitySpace((0.25, 0.75)), (2.0, 2 / 3))
    with pytest.raises(DimensionError):
        comonotone_integral(X, other)


def _same_bits(arr, seq):
    return not arr.flags.writeable and arr.tobytes() == np.fromiter(seq, float, len(seq)).tobytes()


@pytest.mark.parametrize("n", [7, 64, 300, 100_000])
def test_rv_of_an_array_equals_rv_of_its_list(n):
    rng = np.random.default_rng(n)
    values = rng.lognormal(0.0, 1.5, n)
    weights = rng.uniform(0.5, 1.5, n)
    probs = weights / weights.sum()
    for args in ((values,), (values, probs)):
        X = rv(*args)
        Y = rv(*(a.tolist() for a in args))
        assert X == Y
        assert hash(X) == hash(Y)
        assert X.values_array().tobytes() == Y.values_array().tobytes()
        assert X.space.probs_array().tobytes() == Y.space.probs_array().tobytes()
        assert _same_bits(X.values_array(), X.values)
        assert _same_bits(X.space.probs_array(), X.space.probs)
    values[0] = 9.0  # rv copied the array, and left the caller's writable
    assert X.values[0] == Y.values[0] == X.values_array()[0] != 9.0


@pytest.mark.parametrize("n", [64, 300, 100_000])
def test_law_arrays_are_built_once_and_shared_by_its_carrier(n):
    rng = np.random.default_rng(n)
    values = np.round(rng.lognormal(0.0, 1.0, n), 1)  # ties
    X = rv(values)
    d = distribution_of(X)
    for owner, attrs in ((X.space, ["_probs_array"]), (X, ["_values_array"]),
                         (d, ["_atoms_array", "_probs_array"])):
        for attr in attrs:
            assert not owner.__dict__[attr].flags.writeable, attr
    assert _same_bits(d.atoms_array(), d.atoms)
    assert _same_bits(d.probs_array(), d.probs)
    Y = as_random_variable(d)
    assert Y.values_array() is d.atoms_array()
    assert Y.space.probs_array() is d.probs_array()
    assert Y == RandomVariable(FiniteProbabilitySpace(d.probs), d.atoms)

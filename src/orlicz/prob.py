"""Finite probability spaces, nonnegative random variables, distributions.

Everything downstream works on a finite space with strictly positive
outcome probabilities.  Random variables are nonnegative value vectors
aligned with the space; distributions are sorted atom/probability lists
with equal atoms merged.

The public fields are tuples, so spaces, variables and densities compare
and hash by value.  probs_array(), values_array() and atoms_array() hand
out a read-only float64 copy of them, kept on the object.  A constructor
that already holds the arrays hands them in (rv of a float64 array and
its uniform weights, from_pairs from VECTOR_MIN pairs on, and
as_random_variable, which shares the law's arrays); otherwise they are
built from the tuples on first use.  From VECTOR_MIN entries on,
validation and the sort that builds a law run on those arrays; below it
they run as plain loops, which are cheaper at that size.  Both give the
same result to the bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional, Sequence

import numpy as np

from .base import VECTOR_MIN, DimensionError, DomainError

PROB_SUM_TOL = 1e-12


@dataclass(frozen=True)
class FiniteProbabilitySpace:
    """Strictly positive outcome probabilities summing to one."""

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        probs = self.probs
        if len(probs) < 1:
            raise ValueError("a space needs at least one outcome")
        if len(probs) >= VECTOR_MIN:
            positive = bool((self.probs_array() > 0).all())
        else:
            positive = not any(map(math.isnan, probs)) and min(probs) > 0
        if not positive:
            raise ValueError("all outcome probabilities must be strictly positive")
        total = math.fsum(probs)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")

    @property
    def n(self) -> int:
        return len(self.probs)

    def probs_array(self) -> np.ndarray:
        return _cached_array(self, "_probs_array", self.probs)


@dataclass(frozen=True)
class RandomVariable:
    """Nonnegative finite values, one per outcome of the space."""

    space: FiniteProbabilitySpace
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        values = self.values
        if len(values) != self.space.n:
            raise DimensionError(
                f"{len(values)} values for a space of {self.space.n} outcomes"
            )
        if len(values) >= VECTOR_MIN:
            arr = self.values_array()
            valid = bool(np.isfinite(arr).all()) and bool((arr >= 0).all())
        else:
            valid = all(map(math.isfinite, values)) and min(values) >= 0
        if not valid:
            raise ValueError("values must be finite and nonnegative")

    def values_array(self) -> np.ndarray:
        return _cached_array(self, "_values_array", self.values)


def _cached_array(owner: object, attr: str, seq: Sequence[float]) -> np.ndarray:
    """seq as a read-only float64 array, built once and kept on the frozen owner."""
    arr = owner.__dict__.get(attr)
    if arr is None:
        # np.array converts short tuples faster, np.fromiter long ones
        if len(seq) >= VECTOR_MIN:
            arr = np.fromiter(seq, dtype=float, count=len(seq))
        else:
            arr = np.array(seq, dtype=float)
        object.__setattr__(owner, attr, _frozen(arr))
    return arr


def _with_arrays(cls, arrays: dict[str, np.ndarray], *args):
    """cls(*args), with arrays in place as its read-only caches before validation reads them."""
    if not arrays:
        return cls(*args)
    obj = cls.__new__(cls)
    obj.__dict__.update(arrays)
    obj.__init__(*args)
    return obj


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _tuple_and_cache(seq: Sequence[float], attr: str) -> tuple[tuple[float, ...], dict]:
    """seq as a float tuple, with {attr: read-only copy} for a float64 array of VECTOR_MIN or more."""
    if isinstance(seq, np.ndarray) and seq.dtype == np.float64 and seq.ndim == 1:
        if seq.size >= VECTOR_MIN:
            arr = _frozen(seq.copy())  # the caller may still write to seq
            return tuple(arr.tolist()), {attr: arr}
    return tuple(map(float, seq)), {}


def rv(values: Sequence[float], probs: Optional[Sequence[float]] = None) -> RandomVariable:
    """Convenience constructor; uniform probabilities when probs is omitted.

    A float64 array of VECTOR_MIN or more values (or probabilities) is
    copied once and kept as the variable's array, not rebuilt from the tuple.
    """
    vals, vals_cache = _tuple_and_cache(values, "_values_array")
    if probs is None:
        n = len(vals)
        probs_t = (1.0 / n,) * n
        probs_cache = {"_probs_array": _frozen(np.full(n, 1.0 / n))} if n >= VECTOR_MIN else {}
    else:
        probs_t, probs_cache = _tuple_and_cache(probs, "_probs_array")
    space = _with_arrays(FiniteProbabilitySpace, probs_cache, probs_t)
    return _with_arrays(RandomVariable, vals_cache, space, vals)


def sorted_law(vals: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values ascending, with the probabilities of equal values summed.

    bincount adds the probabilities of each value one by one, from 0.0,
    in the order of the sort, and a stable sort keeps equal values in
    input order: the same sums, to the bit, as a running total per value
    over the input.  Each distinct value is represented by its first
    occurrence.  Without ties every sort gives that order, so the stable
    sort (about four times slower) runs only when there are ties.
    """
    order = np.argsort(vals)
    v = vals[order]
    if v.size == 0:
        return v, probs[order]
    starts = np.empty(v.size, dtype=bool)
    starts[0] = True
    np.not_equal(v[1:], v[:-1], out=starts[1:])
    if not starts.all():
        order = np.argsort(vals, kind="stable")
        v = vals[order]
    return v[starts], np.bincount(np.cumsum(starts) - 1, weights=probs[order])


def merged_law(
    values: Sequence[float], probs: Sequence[float]
) -> tuple[Sequence[float], Sequence[float]]:
    """Distinct values ascending with their summed probabilities.

    sorted_law's arrays for an array or VECTOR_MIN or more values; below,
    lists from a stable sort and a running sum per value, the same floats
    to the bit.
    """
    if isinstance(values, np.ndarray) or len(values) >= VECTOR_MIN:
        return sorted_law(np.asarray(values, dtype=float), np.asarray(probs, dtype=float))
    atoms, merged = [], []
    for v, p in sorted(zip(values, probs), key=itemgetter(0)):
        if atoms and v == atoms[-1]:
            merged[-1] += p
        else:
            atoms.append(v)
            merged.append(p)
    return atoms, merged


@dataclass(frozen=True)
class DiscreteDistribution:
    """Sorted atoms with strictly positive probabilities summing to one."""

    atoms: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        atoms, probs = self.atoms, self.probs
        if len(atoms) != len(probs) or not atoms:
            raise ValueError("atoms and probs must be nonempty and aligned")
        if len(atoms) >= VECTOR_MIN:
            a = self.atoms_array()
            ascending = not (a[:-1] >= a[1:]).any()
            positive = bool((self.probs_array() > 0).all())
        else:
            ascending = not any(atoms[i] >= atoms[i + 1] for i in range(len(atoms) - 1))
            positive = not any(map(math.isnan, probs)) and min(probs) > 0
        if not ascending:
            raise ValueError("atoms must be strictly ascending (merge duplicates first)")
        if not positive:
            raise ValueError("atom probabilities must be strictly positive")
        total = math.fsum(probs)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")

    def atoms_array(self) -> np.ndarray:
        return _cached_array(self, "_atoms_array", self.atoms)

    def probs_array(self) -> np.ndarray:
        return _cached_array(self, "_probs_array", self.probs)

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[float, float]]) -> "DiscreteDistribution":
        """Build from (value, probability) pairs, merging equal atoms.

        pairs may also be an (n, 2) array.  Only exactly equal values
        merge, so the law of lam * X is the law of X scaled by lam at
        every scale.  Pairs with probability zero are dropped.
        """
        if len(pairs) >= VECTOR_MIN:
            arr = np.asarray(pairs, dtype=float)
            kept = arr[arr[:, 1] != 0.0]
            if (kept[:, 1] < 0).any():
                raise ValueError("probabilities must be nonnegative")
            atoms, merged = merged_law(kept[:, 0], kept[:, 1])
            return _with_arrays(
                cls,
                {"_atoms_array": _frozen(atoms), "_probs_array": _frozen(merged)},
                tuple(atoms.tolist()),
                tuple(merged.tolist()),
            )
        values = [float(v) for v, p in pairs if p != 0.0]
        probs = [float(p) for _, p in pairs if p != 0.0]
        if any(p < 0 for p in probs):
            raise ValueError("probabilities must be nonnegative")
        atoms, merged = merged_law(values, probs)
        return cls(tuple(atoms), tuple(merged))


@dataclass(frozen=True)
class MeasureChange:
    """A density (Radon-Nikodym derivative) of a measure Q << P on a space."""

    space: FiniteProbabilitySpace
    density: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.density) != self.space.n:
            raise DimensionError(
                f"{len(self.density)} density values for {self.space.n} outcomes"
            )
        if any(not (d >= 0) for d in self.density):
            raise ValueError("density values must be nonnegative")
        total = math.fsum(p * d for p, d in zip(self.space.probs, self.density))
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"density integrates to {total!r}, not 1")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def distribution_of(X: RandomVariable) -> DiscreteDistribution:
    """Law of X: sorted atoms, probabilities of equal values aggregated."""
    if X.space.n >= VECTOR_MIN:
        pairs = np.column_stack((X.values_array(), X.space.probs_array()))
    else:
        pairs = list(zip(X.values, X.space.probs))
    return DiscreteDistribution.from_pairs(pairs)


def quantile(dist: DiscreteDistribution, t: float) -> float:
    """Left-continuous generalized inverse: inf{x : F(x) >= t}, 0 < t <= 1."""
    if not (0.0 < t <= 1.0):
        raise DomainError(f"quantile level must be in (0, 1], got {t!r}")
    if len(dist.probs) >= VECTOR_MIN:
        return dist.atoms[quantile_index(dist.probs_array(), t)]
    acc = 0.0
    for a, p in zip(dist.atoms, dist.probs):
        acc += p
        if acc >= t:
            return a
    return dist.atoms[-1]  # guard against fp undershoot of the final cumsum


def quantile_index(probs: np.ndarray, t: float) -> int:
    """Where quantile's running sum first reaches t, over a law's probabilities.

    The probabilities are positive, so the running sums ascend, and cumsum
    adds left to right like the loop.  Clamped to the last atom against fp
    undershoot of the final sum.
    """
    i = int(np.searchsorted(np.cumsum(probs), t, side="left"))
    return min(i, probs.size - 1)


def mixture(F: DiscreteDistribution, G: DiscreteDistribution, lam: float) -> DiscreteDistribution:
    """lam*F + (1-lam)*G as a distribution, equal atoms merged."""
    if not (0.0 <= lam <= 1.0):
        raise DomainError(f"mixture weight must be in [0, 1], got {lam!r}")
    pairs = [(a, lam * p) for a, p in zip(F.atoms, F.probs)]
    pairs += [(a, (1.0 - lam) * p) for a, p in zip(G.atoms, G.probs)]
    return DiscreteDistribution.from_pairs(pairs)


def as_random_variable(dist: DiscreteDistribution) -> RandomVariable:
    """Canonical carrier: a variable on the space whose outcomes are the atoms.

    Where the law holds its arrays (from VECTOR_MIN atoms, or pairs, on),
    the space and the variable share them.
    """
    if "_atoms_array" not in dist.__dict__:
        return RandomVariable(FiniteProbabilitySpace(dist.probs), dist.atoms)
    space = _with_arrays(FiniteProbabilitySpace, {"_probs_array": dist.probs_array()}, dist.probs)
    return _with_arrays(RandomVariable, {"_values_array": dist.atoms_array()}, space, dist.atoms)


def comonotone_integral(X: RandomVariable, phi_Q: MeasureChange) -> float:
    """Integral of q_X(t) * q_phi(t) over t in (0, 1).

    q_X and q_phi are the left-continuous quantile functions of X and of
    the density.  This is the largest value of E[X * phi'] over densities
    phi' distributed like phi_Q (the comonotone / rearrangement bound).
    Both quantile step functions are walked jointly, so the result is a
    finite fsum of products and exact for step data.
    """
    if X.space is not phi_Q.space and X.space.probs != phi_Q.space.probs:
        raise DimensionError("X and the density must live on the same space")
    da = distribution_of(X)
    db = DiscreteDistribution.from_pairs(list(zip(phi_Q.density, phi_Q.space.probs)))
    terms: list[float] = []
    ia = ib = 0
    rem_a = da.probs[0]
    rem_b = db.probs[0]
    while True:
        w = rem_a if rem_a <= rem_b else rem_b
        terms.append(da.atoms[ia] * db.atoms[ib] * w)
        rem_a -= w
        rem_b -= w
        if rem_a == 0.0:
            ia += 1
            if ia == len(da.probs):
                break
            rem_a = da.probs[ia]
        if rem_b == 0.0:
            ib += 1
            if ib == len(db.probs):
                break
            rem_b = db.probs[ib]
    return math.fsum(terms)

"""Finite probability spaces, nonnegative random variables, distributions.

Everything downstream works on a finite space with strictly positive
outcome probabilities.  Random variables are nonnegative value vectors
aligned with the space; distributions are sorted atom/probability lists
with equal atoms merged.  Expectations run through math.fsum and the
extended-real convention that a +inf term dominates any -inf term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .base import DimensionError, DomainError, ext_weighted_sum

PROB_SUM_TOL = 1e-12


@dataclass(frozen=True)
class FiniteProbabilitySpace:
    """Strictly positive outcome probabilities summing to one."""

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.probs) < 1:
            raise ValueError("a space needs at least one outcome")
        if any(not (p > 0) for p in self.probs):
            raise ValueError("all outcome probabilities must be strictly positive")
        total = math.fsum(self.probs)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")

    @property
    def n(self) -> int:
        return len(self.probs)

    def probs_array(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=float)


@dataclass(frozen=True)
class RandomVariable:
    """Nonnegative finite values, one per outcome of the space."""

    space: FiniteProbabilitySpace
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.space.n:
            raise DimensionError(
                f"{len(self.values)} values for a space of {self.space.n} outcomes"
            )
        if any(not math.isfinite(v) or v < 0 for v in self.values):
            raise ValueError("values must be finite and nonnegative")

    def values_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


def rv(values: Sequence[float], probs: Optional[Sequence[float]] = None) -> RandomVariable:
    """Convenience constructor; uniform probabilities when probs is omitted."""
    vals = tuple(float(v) for v in values)
    if probs is None:
        n = len(vals)
        probs_t = tuple([1.0 / n] * n)
    else:
        probs_t = tuple(float(p) for p in probs)
    return RandomVariable(FiniteProbabilitySpace(probs_t), vals)


@dataclass(frozen=True)
class DiscreteDistribution:
    """Sorted atoms with strictly positive probabilities summing to one."""

    atoms: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.atoms) != len(self.probs) or not self.atoms:
            raise ValueError("atoms and probs must be nonempty and aligned")
        if any(self.atoms[i] >= self.atoms[i + 1] for i in range(len(self.atoms) - 1)):
            raise ValueError("atoms must be strictly ascending (merge duplicates first)")
        if any(not (p > 0) for p in self.probs):
            raise ValueError("atom probabilities must be strictly positive")
        total = math.fsum(self.probs)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[float, float]]) -> "DiscreteDistribution":
        """Build from (value, probability) pairs, merging equal atoms.

        Only exactly equal values merge, so the law of lam * X is the
        law of X scaled by lam at every scale.
        """
        kept = [(float(v), float(p)) for v, p in pairs if p != 0.0]
        if any(p < 0 for _, p in kept):
            raise ValueError("probabilities must be nonnegative")
        kept.sort(key=lambda vp: vp[0])
        atoms: list[float] = []
        probs: list[float] = []
        for v, p in kept:
            if atoms and v == atoms[-1]:
                probs[-1] = probs[-1] + p
            else:
                atoms.append(v)
                probs.append(p)
        return cls(tuple(atoms), tuple(probs))


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


def expect(X: RandomVariable, f: Optional[Callable[[float], float]] = None) -> float:
    """E[f(X)] in the extended reals (identity when f is None).

    +inf terms dominate -inf terms, matching the monotone-limit reading
    of the expectation; finite parts are fsum-accumulated.
    """
    if f is None:
        vals: Sequence[float] = X.values
    else:
        vals = [f(v) for v in X.values]
    return ext_weighted_sum(X.space.probs, vals)


def ess_sup(X: RandomVariable) -> float:
    """Essential supremum (max over the finitely many outcomes)."""
    return max(X.values)


def distribution_of(X: RandomVariable) -> DiscreteDistribution:
    """Law of X: sorted atoms, probabilities of equal values aggregated."""
    return DiscreteDistribution.from_pairs(list(zip(X.values, X.space.probs)))


def quantile(dist: DiscreteDistribution, t: float) -> float:
    """Left-continuous generalized inverse: inf{x : F(x) >= t}, 0 < t <= 1."""
    if not (0.0 < t <= 1.0):
        raise DomainError(f"quantile level must be in (0, 1], got {t!r}")
    acc = 0.0
    for a, p in zip(dist.atoms, dist.probs):
        acc += p
        if acc >= t:
            return a
    return dist.atoms[-1]  # guard against fp undershoot of the final cumsum


def mixture(F: DiscreteDistribution, G: DiscreteDistribution, lam: float) -> DiscreteDistribution:
    """lam*F + (1-lam)*G as a distribution, equal atoms merged."""
    if not (0.0 <= lam <= 1.0):
        raise DomainError(f"mixture weight must be in [0, 1], got {lam!r}")
    pairs = [(a, lam * p) for a, p in zip(F.atoms, F.probs)]
    pairs += [(a, (1.0 - lam) * p) for a, p in zip(G.atoms, G.probs)]
    return DiscreteDistribution.from_pairs(pairs)


def as_random_variable(dist: DiscreteDistribution) -> RandomVariable:
    """Canonical carrier: a variable on the space whose outcomes are the atoms."""
    return RandomVariable(FiniteProbabilitySpace(dist.probs), dist.atoms)


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

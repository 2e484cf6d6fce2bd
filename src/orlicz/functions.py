"""Acceptance functions for generalized Orlicz premia, and their analysis.

An admissible function Phi maps [0, inf) into the extended reals and must
satisfy three conditions:

  (a) Phi(x) > -inf for x > 0, Phi(x) <= 1 for x <= 1, Phi(x) > 1 for x > 1;
  (b) Phi is nondecreasing;
  (c) Phi is left-continuous.

Phi(0) = -inf is allowed, as is Phi(x) = +inf beyond a finite threshold
u = sup{x : Phi(x) < inf}.  Convexity is deliberately NOT required: the
premium functional stays well behaved without it, which is the point of
the generalized family.

Built-in families
-----------------
GeometricMean          1 + log(x), GeometricExpectile(1, 1); premium exp(E[log X]).
Power(p)               x**p; premium is the p-norm, p > 0.
QuantileStep(alpha)    alpha on [0,1], 1+alpha above; premium is the left
                       alpha-quantile (alpha = 1 gives the essential sup).
Expectile(alpha)       1 + alpha(x-1)_+ - (1-alpha)(x-1)_-.
LpQuantile(alpha, p)   1 + alpha(x-1)_+**p - (1-alpha)(x-1)_-**p.
LpqQuantile(a,b,p,q)   1 + a(x-1)_+**p - b(x-1)_-**q; for p = q the premium
                       is the L^p-quantile at level a/(a+b), for b = 0 the
                       essential supremum.
GeometricExpectile(a,b) 1 + a(log x)_+ - b(log x)_-; a = b gives gm's premium.
PiecewiseLinear        user-supplied knots, left-continuous at jumps.

Two convexity notions matter here.  Plain convexity of Phi makes the
premium convex.  GA-convexity (convexity of x -> Phi(exp(x))) makes the
premium geometrically convex (multiplicatively, between scaled copies).
Both flags are tri-state: True / False / None for "not determined"; the
built-in families, PiecewiseLinear included, state them exactly.  Each
convex built-in has its convex conjugate in closed form; a knotted one
reads it off its piece table (OrliczFunction._pieces).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable, ClassVar, Iterable, Iterator, Optional, Sequence

import numpy as np

from .base import VECTOR_MIN, DomainError, INF, NEG_INF, NotConvexError


@dataclass(frozen=True)
class Violation:
    """One admissibility failure: which condition, where, what value."""

    condition: str
    x: float
    value: float


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]
    method: str


class OrliczFunction(ABC):
    """Base class for acceptance functions; instances are immutable.

    Each family also states what is known about it; solvers read these
    facts (None: no claim) instead of testing the class.
    """

    name: ClassVar[str] = "orlicz"
    # H(X + m) against H(X) + m: "additive", "subadditive" or "superadditive"
    cash_behavior: ClassVar[Optional[str]] = None
    # r when the premium is an L^p norm, so that beta(Q) = 1 / ||dQ/dP||_r
    holder_exponent: ClassVar[Optional[float]] = None
    # xs -> the right derivative Phi'_+ at each entry (+inf at an upward jump
    # and from a finite upper on); with points, it makes Phi knotted (_pieces)
    derivative: ClassVar[Optional[Callable[[np.ndarray], np.ndarray]]] = None
    # (b, a) when Phi(e^y) = 1 + a*y_+ - b*y_- in y (gm: a = b = 1); alpha(Q)
    # is then 1 where b * max dQ/dP <= a * min dQ/dP, and 0 elsewhere
    log_slopes: ClassVar[Optional[tuple[float, float]]] = None
    # y -> Psi(y) = sup_x (x*y - Phi(x)) for y >= 0, a scalar or at every
    # entry of an array; holds where convex_flag is True, which conjugate()
    # checks before it calls this; a knotted Phi's comes from its table
    conjugate: ClassVar[Optional[Callable]] = None
    # (values, probs) -> lim of x + H((X - x)_+) as x -> -inf when that limit
    # is the HG infimum, else None
    hg_limit: ClassVar[Optional[Callable[[Sequence[float], Sequence[float]], Optional[float]]]] = None
    # True when the premium is concave on nonnegative variables
    premium_concave: ClassVar[Optional[bool]] = None
    # admissibility; the built-in families are admissible by construction
    validation: ClassVar[ValidationReport] = ValidationReport(True, (), "analytic")

    @abstractmethod
    def __call__(self, x: float) -> float:
        """Evaluate Phi at a scalar x >= 0 (may return +-inf)."""

    @abstractmethod
    def eval_array(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized evaluation on a nonnegative array."""

    @property
    @abstractmethod
    def at_zero(self) -> float:
        """Phi(0)."""

    @property
    def upper(self) -> float:
        """sup{x : Phi(x) < inf}; inf for every built-in family."""
        return INF

    @property
    def points(self) -> tuple[tuple[float, float], ...]:
        """Knots (x, y) of a piecewise-linear Phi, ascending; empty otherwise.

        A repeated x is a jump (PiecewiseLinear).  Power(1) and the
        two-branch losses with p = 1 and q = 1 or b = 0 are piecewise
        linear too and state (0, Phi(0)) and (1, 1).
        """
        return ()

    @cached_property
    def _pieces(self) -> Optional[np.ndarray]:
        """The one description of a knotted Phi (one that states points and
        a derivative), None for any other: rows (left, right, Phi'_+(left),
        slope inside, left * Phi'_+(left), Phi(left+)) of the pieces
        [left, right) that start at 0, at each knot below upper and at a
        finite upper (where the last column is Phi(upper)), as column vectors.

        Phi is linear inside each piece; Phi'_+ differs from the slope
        inside only at an upward jump at the left end, or from upper on
        (+inf).  The last piece's slope inside is the end slope.  The slopes
        are derivative's own floats: from knot differences they can round
        otherwise (1 - (1 - 0.2) is not 0.2).
        """
        points = self.points
        if self.derivative is None or not points:
            return None
        upper = self.upper
        level = {x: v for x, v in points if x < upper}  # the later of two at x
        left = sorted({0.0, *level})
        levels = [level.get(x, points[0][1]) for x in left]
        if upper < INF:
            left.append(upper)
            levels.append(self(upper))
        right = left[1:] + [INF]
        mid = [lo + 0.5 * (hi - lo) if hi < INF else lo + 1.0 for lo, hi in zip(left, right)]
        slopes = self.derivative(np.array(left + mid)).tolist()
        d0, inside = slopes[: len(left)], slopes[len(left) :]
        reach = [lo * d if lo > 0.0 else 0.0 for lo, d in zip(left, d0)]  # floats: inf on overflow
        rows = np.array([left, right, d0, inside, reach, levels])[..., None]
        rows.flags.writeable = False
        return rows

    @cached_property
    def _sup_points(self) -> np.ndarray:
        """(xs, Phi(xs)) as two columns: each piece's left end at Phi(left+),
        then (0, Phi(0)) last, an order that decides signed-zero ties.  For
        convex Phi the sup over x of w*x - lam*Phi(x) sits at one of them
        or runs away along the last piece (the conjugate, beta_primal)."""
        table = self._pieces
        xs = table[0, :, 0].tolist() + [0.0]
        pts = np.array([xs, table[5, :, 0].tolist() + [self.at_zero]])[..., None]
        pts.flags.writeable = False
        return pts

    @cached_property
    def _knot_slopes(self) -> tuple[float, ...]:
        """The distinct finite positive Phi'_+ at the pieces' left ends,
        ascending: beta's breakpoints and beta_primal's kinks are w / s."""
        if self._pieces is None:
            return ()
        return tuple(sorted({s for s in self._pieces[2, :, 0].tolist() if 0.0 < s < INF}))

    @property
    def first_order_point(self) -> Optional[Callable[[np.ndarray, bool], np.ndarray]]:
        """(s, geometric) -> at each entry of s >= 0 the least x >= 0 with
        Phi'_+(x) >= s, or with x * Phi'_+(x) >= s when geometric; +inf
        where no x reaches s, and 0 where s = 0.  None: no claim.  For
        convex (GA-convex) Phi it maximizes w*x - lam*Phi(x) (w*log x -
        lam*Phi(x)) at s = w/lam.  The piece table states it (_knot_point)."""
        return None if self._pieces is None else self._knot_point

    def _knot_point(self, s: np.ndarray, geometric: bool) -> np.ndarray:
        # the least x over the pieces: a left end where Phi'_+ (x Phi'_+)
        # reaches s already, or, when geometric, the point s / m inside a piece
        # of slope m, where x Phi'_+(x) = m x meets s (s / m may overflow where
        # np.where drops it); a finite upper reaches every s, and with
        # upper = inf an s past every slope is +inf
        s = np.asarray(s, dtype=float)
        lo, hi, d0, inside, reach, _ = self._pieces
        t = s.reshape(1, -1)
        if geometric:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                q = t / inside
            x = np.where(reach >= t, lo, np.where(q < hi, np.maximum(q, lo), INF))
        else:
            x = np.where(d0 >= t, lo, INF)
        return x.min(axis=0).reshape(s.shape)

    @property
    @abstractmethod
    def convex_flag(self) -> Optional[bool]: ...

    @property
    @abstractmethod
    def ga_convex_flag(self) -> Optional[bool]: ...

    def spec_string(self) -> str:
        """Canonical 'name' or 'name:param,...' form, params in field order.

        The CLI parser reads it back for every family but pwl, whose
        'pwl[...]' form is for display only; the CLI takes pwl from a file.
        """
        params = ",".join(repr(getattr(self, f.name)) for f in fields(self))
        return f"{self.name}:{params}" if params else self.name

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.spec_string()}>"


# ---------------------------------------------------------------------------
# built-in families
# ---------------------------------------------------------------------------


@dataclass(frozen=True, repr=False)
class Power(OrliczFunction):
    """Phi(x) = x**p for p > 0; the premium is the p-norm.

    Convex iff p >= 1; GA-convex for every p > 0.
    """

    p: float
    name: ClassVar[str] = "power"

    def __post_init__(self) -> None:
        if not (self.p > 0):
            raise ValueError(f"power exponent must be positive, got {self.p!r}")

    def __call__(self, x: float) -> float:
        if x < 0:
            raise DomainError(f"negative input {x!r}")
        return x ** self.p

    def eval_array(self, xs: np.ndarray) -> np.ndarray:
        if self.p <= 1.0:  # x ** p <= max(x, 1): no overflow, and no errstate to pay for
            return xs ** self.p
        with np.errstate(over="ignore"):  # past the float range: +inf
            return xs ** self.p

    def derivative(self, xs: np.ndarray) -> np.ndarray:
        # at 0: +inf for p < 1, 1 for p = 1, 0 for p > 1
        with np.errstate(divide="ignore", over="ignore"):
            return self.p * np.asarray(xs, dtype=float) ** (self.p - 1.0)

    @property
    def first_order_point(self) -> Optional[Callable[[np.ndarray, bool], np.ndarray]]:
        # p = 1 is knotted, and the piece table states its point
        return super().first_order_point or self._power_point

    def _power_point(self, s: np.ndarray, geometric: bool) -> np.ndarray:
        # x Phi'(x) = p x^p rises from 0 for every p, and so does
        # Phi'(x) = p x^(p-1) for p > 1; for p < 1 it falls from Phi'_+(0) = +inf
        s = np.asarray(s, dtype=float)
        p = self.p
        if geometric or p > 1.0:
            with np.errstate(over="ignore"):
                return (s / p) ** (1.0 / (p if geometric else p - 1.0))
        return np.zeros_like(s)

    def conjugate(self, y):
        # convex and unknotted means p > 1
        p, r = self.p, self.holder_exponent
        return _entrywise(lambda v: (p - 1.0) * (v / p) ** r, y)

    def hg_limit(self, values: Sequence[float], probs: Sequence[float]) -> Optional[float]:
        # p > 1: ||X + c||_p - c falls to E[X] as c grows, and Jensen gives
        # ||Y||_p >= E[Y], so x + H((X - x)_+) >= x + E[X - x] = E[X] everywhere
        if self.p > 1.0:
            return math.fsum(w * v for w, v in zip(probs, values))
        return None

    @property
    def at_zero(self) -> float:
        return 0.0

    @property
    def convex_flag(self) -> Optional[bool]:
        return self.p >= 1.0

    @property
    def ga_convex_flag(self) -> Optional[bool]:
        return True

    @property
    def cash_behavior(self) -> Optional[str]:
        # Minkowski's direction for the norm of X + m
        if self.p == 1.0:
            return "additive"
        return "subadditive" if self.p > 1.0 else "superadditive"

    @property
    def points(self) -> tuple[tuple[float, float], ...]:
        return ((0.0, 0.0), (1.0, 1.0)) if self.p == 1.0 else ()

    @property
    def premium_concave(self) -> Optional[bool]:
        # the p-norm is concave on the nonnegative orthant for p <= 1, convex above
        return self.p <= 1.0

    @property
    def holder_exponent(self) -> Optional[float]:
        return self.p / (self.p - 1.0) if self.p > 1.0 else None


@dataclass(frozen=True, repr=False)
class QuantileStep(OrliczFunction):
    """Phi = alpha on [0, 1] and 1 + alpha on (1, inf), 0 < alpha <= 1.

    Left-continuous at the jump; the premium is the left alpha-quantile.
    Neither convex nor GA-convex.
    """

    alpha: float
    name: ClassVar[str] = "quantile"
    cash_behavior: ClassVar[Optional[str]] = "additive"

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"quantile level must be in (0, 1], got {self.alpha!r}")

    def __call__(self, x: float) -> float:
        if x < 0:
            raise DomainError(f"negative input {x!r}")
        return self.alpha if x <= 1.0 else 1.0 + self.alpha

    def eval_array(self, xs: np.ndarray) -> np.ndarray:
        return np.where(xs > 1.0, 1.0 + self.alpha, self.alpha)

    def derivative(self, xs: np.ndarray) -> np.ndarray:
        return np.where(np.asarray(xs) == 1.0, INF, 0.0)  # the jump is just right of 1

    @property
    def at_zero(self) -> float:
        return self.alpha

    @property
    def convex_flag(self) -> Optional[bool]:
        return False

    @property
    def ga_convex_flag(self) -> Optional[bool]:
        return False


class _TwoBranch(OrliczFunction):
    """Phi(x) = 1 + a(x-1)_+**p - b(x-1)_-**q: the loss of Expectile,
    LpQuantile and LpqQuantile.

    Each subclass maps its fields to (a, b, p, q) in __post_init__; every
    other fact follows from the four numbers.  With p = 1 and q = 1 or
    b = 0, Phi is linear on each side of 1: it states the knots 0 and 1,
    and the piece table (_pieces) gives its conjugate and first-order
    point; the other members state neither.  Each also binds eval_array
    in its own class body, where a tracer that wraps it per family (the
    benchmark's bench/spans.py) looks for it.
    """

    a: float
    b: float
    p: float
    q: float

    def _branches(self, a: float, b: float, p: float, q: float) -> None:
        # plain attributes, not properties: the scalar call reads them
        for name, value in zip("abpq", (a, b, p, q)):
            object.__setattr__(self, name, value)

    def __call__(self, x: float) -> float:
        if x < 0:
            raise DomainError(f"negative input {x!r}")
        if x >= 1.0:
            d = x - 1.0
            return 1.0 + self.a * (d if self.p == 1.0 else d ** self.p)
        d = 1.0 - x
        return 1.0 - self.b * (d if self.q == 1.0 else d ** self.q)

    def eval_array(self, xs: np.ndarray) -> np.ndarray:
        d = xs - 1.0
        with np.errstate(over="ignore"):  # past the float range: +inf
            return 1.0 + self.a * np.maximum(d, 0.0) ** self.p - self.b * np.maximum(-d, 0.0) ** self.q

    def derivative(self, xs: np.ndarray) -> np.ndarray:
        # at x = 1: a for p = 1, 0 for p > 1, +inf for p < 1
        x = np.asarray(xs, dtype=float)
        up, down = self.a * self.p, self.b * self.q
        if self.p != 1.0 or self.q != 1.0:  # two linear branches need no powers
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                up = up * np.maximum(x - 1.0, 0.0) ** (self.p - 1.0)
                down = down * np.maximum(1.0 - x, 0.0) ** (self.q - 1.0)
        return np.where(x >= 1.0, up, down)

    def conjugate(self, y):
        # convex and unknotted means b = 0 and p > 1: the sup sits at
        # x = 1 + (y / (a p))^(1 / (p - 1))
        a, p = self.a, self.p
        return _entrywise(lambda v: v - 1.0 + (p - 1.0) * a * (v / (a * p)) ** (p / (p - 1.0)), y)

    def hg_limit(self, values: Sequence[float], probs: Sequence[float]) -> Optional[float]:
        # b > 0, p > q: at shift c the gain term shrinks like c^(q-p) against
        # the loss term, so H(X + c) - c falls to the essential infimum, the
        # least value that carries weight
        if self.b > 0.0 and self.p > self.q:
            return min(v for v, w in zip(values, probs) if w > 0.0)
        return None

    @property
    def at_zero(self) -> float:
        return 1.0 - self.b

    @property
    def convex_flag(self) -> Optional[bool]:
        if self.b == 0.0:
            return self.p >= 1.0
        return self.p == 1.0 and self.q == 1.0 and self.a >= self.b

    @property
    def ga_convex_flag(self) -> Optional[bool]:
        return self.convex_flag

    @property
    def cash_behavior(self) -> Optional[str]:
        if self.p == self.q or self.b == 0.0:
            return "additive"
        return "subadditive" if self.p > self.q else "superadditive"

    @property
    def points(self) -> tuple[tuple[float, float], ...]:
        if self.p == 1.0 and (self.q == 1.0 or self.b == 0.0):
            return ((0.0, 1.0 - self.b), (1.0, 1.0))
        return ()


@dataclass(frozen=True, repr=False)
class Expectile(_TwoBranch):
    """Phi(x) = 1 + alpha(x-1)_+ - (1-alpha)(x-1)_-, 0 < alpha < 1.

    Convex (and GA-convex) iff alpha >= 1/2.
    """

    alpha: float
    name: ClassVar[str] = "expectile"

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"expectile level must be in (0, 1), got {self.alpha!r}")
        self._branches(self.alpha, 1.0 - self.alpha, 1.0, 1.0)

    def eval_array(self, xs: np.ndarray) -> np.ndarray:
        d = xs - 1.0  # p = q = 1: no powers
        return 1.0 + self.a * np.maximum(d, 0.0) - self.b * np.maximum(-d, 0.0)


@dataclass(frozen=True, repr=False)
class LpQuantile(_TwoBranch):
    """Phi(x) = 1 + alpha(x-1)_+**p - (1-alpha)(x-1)_-**p, p > 0."""

    alpha: float
    p: float
    name: ClassVar[str] = "lp"

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"level must be in (0, 1), got {self.alpha!r}")
        if not (self.p > 0):
            raise ValueError(f"exponent must be positive, got {self.p!r}")
        self._branches(self.alpha, 1.0 - self.alpha, self.p, self.p)

    eval_array = _TwoBranch.eval_array


@dataclass(frozen=True, repr=False)
class LpqQuantile(_TwoBranch):
    """Phi(x) = 1 + a(x-1)_+**p - b(x-1)_-**q with a > 0, b >= 0, p, q >= 1.

    a = 0 would leave Phi == 1 beyond x = 1 and break admissibility, so it
    is rejected up front.
    """

    a: float
    b: float
    p: float
    q: float
    name: ClassVar[str] = "lpq"

    def __post_init__(self) -> None:
        if not (self.a > 0):
            raise ValueError(f"gain weight a must be positive, got {self.a!r}")
        if not (self.b >= 0):
            raise ValueError(f"loss weight b must be nonnegative, got {self.b!r}")
        if not (self.p >= 1 and self.q >= 1):
            raise ValueError(f"exponents must be >= 1, got p={self.p!r}, q={self.q!r}")

    eval_array = _TwoBranch.eval_array


class _LogBranch(OrliczFunction):
    """Phi(x) = 1 + a(log x)_+ - b(log x)_-, the log-coordinate twin of
    _TwoBranch: the loss of GeometricMean (a = b = 1) and GeometricExpectile.

    Every fact follows from (a, b): GA-convex iff a >= b, never convex.
    Each subclass binds eval_array in its own class body, as _TwoBranch's do.
    """

    a: float
    b: float

    def __call__(self, x: float) -> float:
        if x < 0:
            raise DomainError(f"negative input {x!r}")
        if x >= 1.0:
            return 1.0 + self.a * math.log(x)
        if x == 0.0:
            return NEG_INF if self.b > 0 else 1.0
        return 1.0 - self.b * (-math.log(x)) if self.b > 0 else 1.0

    def eval_array(self, xs: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            lx = np.log(xs)
        out = 1.0 + self.a * np.maximum(lx, 0.0)
        if self.b > 0:
            out = out - self.b * np.maximum(-lx, 0.0)
        return out

    def derivative(self, xs: np.ndarray) -> np.ndarray:
        x = np.asarray(xs, dtype=float)
        w = np.where(x >= 1.0, self.a, self.b)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return np.where(w > 0.0, w / x, 0.0)

    @property
    def at_zero(self) -> float:
        return NEG_INF if self.b > 0 else 1.0

    @property
    def convex_flag(self) -> Optional[bool]:
        return False

    @property
    def ga_convex_flag(self) -> Optional[bool]:
        return self.a >= self.b

    @property
    def log_slopes(self) -> Optional[tuple[float, float]]:
        return (self.b, self.a)

    @property
    def cash_behavior(self) -> Optional[str]:
        # b = 0: the essential sup; a = b: the geometric mean, concave and homogeneous
        if self.b == 0.0:
            return "additive"
        return "superadditive" if self.a == self.b else None


@dataclass(frozen=True, repr=False)
class GeometricMean(_LogBranch):
    """Phi(x) = 1 + log(x), with Phi(0) = -inf: GeometricExpectile(1, 1).

    The premium it induces is the geometric mean exp(E[log X]); any mass
    at zero collapses the premium to 0.  Concave, but GA-convex (its
    log-reparametrization is affine).
    """

    name: ClassVar[str] = "gm"
    a = b = 1.0

    def eval_array(self, xs: np.ndarray) -> np.ndarray:
        # one branch: the same floats as _LogBranch.eval_array, in half the time
        with np.errstate(divide="ignore"):
            return 1.0 + np.log(xs)


@dataclass(frozen=True, repr=False)
class GeometricExpectile(_LogBranch):
    """Phi(x) = 1 + a(log x)_+ - b(log x)_- with a > 0, b >= 0.

    The premium is exp of the a/(a+b)-expectile of log X (essential sup
    when b = 0, the geometric mean when a = b).  GA-convex iff a >= b;
    never convex in the plain sense since the upper branch grows
    logarithmically.
    """

    a: float
    b: float
    name: ClassVar[str] = "gexpectile"

    def __post_init__(self) -> None:
        if not (self.a > 0):
            raise ValueError(f"gain weight a must be positive, got {self.a!r}")
        if not (self.b >= 0):
            raise ValueError(f"loss weight b must be nonnegative, got {self.b!r}")

    eval_array = _LogBranch.eval_array


class PiecewiseLinear(OrliczFunction):
    """User-defined piecewise-linear function from ascending knots.

    points: sequence of (x, y) with x >= 0 ascending.  A repeated x value
    encodes a jump: the first y is the left limit (the function value, by
    left-continuity), the second the restart level just above x.  Beyond
    the last knot the final segment's slope is extended (flat after a
    terminal jump).  Below the first knot the function is constant.

    value_at_zero overrides Phi(0); it may be -inf.  upper caps the
    effective domain: Phi(x) = +inf for x > upper.

    No admissibility checking happens here; read .validation for that.
    The convexity flags are exact, read off the knots in O(K): convex iff
    the slopes (0 below a first knot at x > 0, then each segment's) never
    fall, Phi jumps at no positive knot below upper, and Phi(0) >= Phi(0+);
    GA-convex iff the slopes are nonnegative and never fall and Phi jumps
    at no positive knot below upper.
    """

    name: ClassVar[str] = "pwl"

    def __init__(
        self,
        points: Iterable[tuple[float, float]],
        value_at_zero: Optional[float] = None,
        upper: float = INF,
    ) -> None:
        pts = [(float(x), float(y)) for x, y in points]
        if not pts:
            raise ValueError("need at least one knot")
        xs = [x for x, _ in pts]
        ys = [y for _, y in pts]
        if any(x < 0 for x in xs):
            raise ValueError("knot locations must be nonnegative")
        if any(xs[i] > xs[i + 1] for i in range(len(xs) - 1)):
            raise ValueError("knot locations must be ascending")
        for x in set(xs):
            if xs.count(x) > 2:
                raise ValueError(f"more than one jump encoded at x={x!r}")
        if any(not math.isfinite(y) for y in ys):
            raise ValueError("knot values must be finite; use value_at_zero/upper for infinities")
        if not (upper >= xs[-1]):
            raise ValueError("upper must be at least the last knot location")
        self._kx = tuple(xs)
        self._ky = tuple(ys)
        self._kx_arr = np.array(xs)
        self._ky_arr = np.array(ys)
        self._upper = float(upper)
        if value_at_zero is None:
            self._at_zero = ys[0]
        else:
            if value_at_zero == INF:
                raise ValueError("Phi(0) may not be +inf")
            self._at_zero = float(value_at_zero)
        if len(xs) >= 2 and xs[-1] > xs[-2]:
            self._end_slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
        else:
            self._end_slope = 0.0
        slopes = [0.0] if xs[0] > 0.0 else []
        # derivative's table, by the count j of knots at or left of x: the
        # slope right of x, and knot j - 1 where Phi jumps up there (else nan)
        after, up_at = [0.0], [math.nan, math.nan]
        jump = False
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if x1 > x0:
                slopes.append((y1 - y0) / (x1 - x0))
            elif y1 != y0 and 0.0 < x0 < upper:
                jump = True
            after.append(slopes[-1] if x1 > x0 else 0.0)  # 0.0: no x has that count
            up_at.append(x1 if x1 == x0 and y1 > y0 else math.nan)
        self._slope_after = np.array(after + [self._end_slope])
        self._up_at = np.array(up_at)
        rising = not jump and all(s0 <= s1 for s0, s1 in zip(slopes, slopes[1:]))
        # Phi(0+): the last knot at 0, else the first
        self._zero_plus = ys[max(xs.count(0.0), 1) - 1]
        self._convex = rising and self._at_zero >= self._zero_plus
        self._ga_convex = rising and (not slopes or slopes[0] >= 0.0)

    @property
    def points(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self._kx, self._ky))

    def __call__(self, x: float) -> float:
        if x < 0:
            raise DomainError(f"negative input {x!r}")
        if x == 0.0:
            return self._at_zero
        if x > self._upper:
            return INF
        kx, ky = self._kx, self._ky
        i = bisect_left(kx, x)
        if i == len(kx):
            return ky[-1] + self._end_slope * (x - kx[-1])
        if kx[i] == x:
            return ky[i]  # first duplicate: the left limit
        if i == 0:
            return ky[0]
        x0, y0 = kx[i - 1], ky[i - 1]
        x1, y1 = kx[i], ky[i]
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)

    def eval_array(self, xs: np.ndarray) -> np.ndarray:
        """__call__ on every entry, case for case and to the bit."""
        flat = np.asarray(xs, dtype=float)
        x = flat.ravel()
        if x.size < VECTOR_MIN:
            return np.fromiter(map(self, x.tolist()), dtype=float, count=x.size).reshape(flat.shape)
        neg = np.flatnonzero(x < 0)
        if neg.size:
            raise DomainError(f"negative input {float(x[neg[0]])!r}")
        kx, ky = self._kx_arr, self._ky_arr
        i = np.searchsorted(kx, x, side="left")
        i[np.isnan(x)] = 0  # bisect_left places nan before every knot
        at = np.minimum(i, len(kx) - 1)
        x0, y0 = kx[np.maximum(i - 1, 0)], ky[np.maximum(i - 1, 0)]
        x1, y1 = kx[at], ky[at]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            inner = y0 + (y1 - y0) * (x - x0) / (x1 - x0)
            beyond = ky[-1] + self._end_slope * (x - kx[-1])
        out = np.select(
            [x == 0.0, x > self._upper, i == len(kx), x1 == x, i == 0],
            [self._at_zero, INF, beyond, y1, ky[0]],
            inner,
        )
        return out.reshape(flat.shape)

    def derivative(self, xs: np.ndarray) -> np.ndarray:
        """Slope of the segment right of each x, 0 below the first knot;
        +inf at an upward jump (Phi(x+) > Phi(x)) and from a finite upper on."""
        x = np.asarray(xs, dtype=float)
        j = np.searchsorted(self._kx_arr, x, side="right")  # kx[:j] are the knots at or left of x
        jump = np.where(x == 0.0, self._zero_plus > self._at_zero, self._up_at[j] == x)
        return np.where(jump | (x >= self._upper), INF, self._slope_after[j])

    @property
    def at_zero(self) -> float:
        return self._at_zero

    @property
    def upper(self) -> float:
        return self._upper

    @property
    def convex_flag(self) -> Optional[bool]:
        return self._convex

    @property
    def ga_convex_flag(self) -> Optional[bool]:
        return self._ga_convex

    @cached_property
    def validation(self) -> ValidationReport:
        """Admissibility read off the knots, where Phi is linear between them.

        Phi is nondecreasing once it rises (to 1e-12) from Phi(0) to Phi(0+),
        across every segment and jump and along the last piece.  Then
        Phi <= 1 on [0, 1] needs Phi(0), Phi(1) <= 1 (to 1e-12; Phi(1) is
        inf when upper < 1), and Phi > 1 beyond needs Phi(1+) >= 1 and the
        piece right of 1 to end above 1.  Knot values are finite, so
        Phi > -inf on (0, inf).
        """
        kx, ky, upper = self._kx, self._ky, self._upper
        bad: list[Violation] = []
        for x in (0.0, 1.0):
            v = self(x)
            if v > 1.0 + 1e-12:
                bad.append(Violation("below_one_on_unit", x, v))
        if upper > 1.0:
            j = bisect_right(kx, 1.0)  # kx[:j] are the knots at or left of 1
            right = ky[j - 1] if j and kx[j - 1] == 1.0 else self(1.0)  # Phi(1+)
            # the value where the piece right of 1 ends
            if j < len(kx):
                end = self(kx[j])
            elif upper < INF:
                end = self(upper)
            else:
                end = INF if self._end_slope > 0.0 else right
            if not (right >= 1.0 and end > 1.0):
                x = math.nextafter(1.0, INF)
                bad.append(Violation("above_one_beyond_unit", x, self(x)))
        walk = [(0.0, self._at_zero), (0.0, self._zero_plus)]
        walk += [(x, y) for x, y in zip(kx, ky) if x > 0.0]
        if kx[-2:] == (upper, upper):
            walk.pop()  # a restart at upper is never a value: Phi = inf past it
        for (_, y0), (x1, y1) in zip(walk, walk[1:]):
            if y1 < y0 - 1e-12:
                bad.append(Violation("nondecreasing", x1, y1))
        if self._end_slope < 0.0 and upper > kx[-1]:
            x = min(upper, kx[-1] + 1.0)
            bad.append(Violation("nondecreasing", x, self(x)))
        return ValidationReport(ok=not bad, violations=tuple(bad), method="knots")

    def spec_string(self) -> str:
        body = ";".join(f"{x!r},{y!r}" for x, y in zip(self._kx, self._ky))
        extra = ""
        if self._at_zero != self._ky[0]:
            extra += f";zero={self._at_zero!r}"
        if self._upper < INF:
            extra += f";upper={self._upper!r}"
        return f"pwl[{body}{extra}]"


def midpoint_gaps(
    phi: OrliczFunction, xs: Sequence[float], geometric: bool
) -> Iterator[tuple[float, float, float]]:
    """(gap, x1, x2) for each pair x1 before x2 in xs where Phi is finite at both.

    gap = Phi(m) - (Phi(x1) + Phi(x2)) / 2 at the midpoint m = (x1 + x2) / 2,
    or m = sqrt(x1 x2) when geometric; a positive gap is a violation of
    midpoint (GA-)convexity.  An end at -inf makes the gap +inf unless
    Phi(m) is -inf too, which gives nan, no violation.  Pairs come
    lazily, in index order.
    """
    vals = [phi(x) for x in xs]
    for i, (x1, v1) in enumerate(zip(xs, vals)):
        if v1 == INF:
            continue
        for x2, v2 in zip(xs[i + 1 :], vals[i + 1 :]):
            if v2 == INF:
                continue  # chord ends at +inf: no constraint
            m = math.sqrt(x1 * x2) if geometric else 0.5 * (x1 + x2)
            yield phi(m) - 0.5 * (v1 + v2), x1, x2


# ---------------------------------------------------------------------------
# convex conjugate
# ---------------------------------------------------------------------------


def conjugate(phi: OrliczFunction, y):
    """Psi(y) = sup_{x >= 0} (x*y - Phi(x)) for convex phi and y >= 0.

    Checks y and the convexity flag.  A knotted Phi (one with a piece
    table: pwl, Power(1), the two-branch losses with p = 1) takes
    _knot_conjugate; any other calls the family's closed form
    phi.conjugate, which every other convex built-in states.  +inf means
    the supremum runs away.  y may be an array: Psi comes back at every entry,
    as the floats a scalar call on that entry returns, and one negative
    entry raises DomainError.
    """
    if isinstance(y, np.ndarray) or np.ndim(y):
        y = np.asarray(y, dtype=float)
        if np.fmin.reduce(y, axis=None, initial=INF) < 0:  # the least entry but nan
            raise DomainError(f"conjugate argument must be nonnegative, got {float(y[y < 0][0])!r}")
    elif y < 0:
        raise DomainError(f"conjugate argument must be nonnegative, got {y!r}")
    if phi.convex_flag is not True:
        raise NotConvexError(
            f"conjugate needs certified convexity; flag is {phi.convex_flag!r} for {phi!r}"
        )
    if phi._pieces is not None:
        return _knot_conjugate(phi, y)
    if phi.conjugate is None:
        raise NotImplementedError(f"{phi!r} states no closed-form conjugate")
    return phi.conjugate(y)


def _entrywise(f: Callable[[float], float], y):
    """f(y) for a scalar y; for an array, f on each entry as a Python float.

    A closed form with a power keeps its scalar floats on arrays this way:
    numpy's vectorized power differs from Python's in the last bit on
    about one input in twenty.  Python's float power raises OverflowError
    past the float range; the closed forms here grow without bound in y,
    so such an entry is +inf.
    """

    def g(v: float) -> float:
        try:
            return f(v)
        except OverflowError:
            return INF

    if not np.ndim(y):
        return g(y)
    ys = np.asarray(y, dtype=float)
    return np.fromiter(map(g, ys.ravel().tolist()), dtype=float, count=ys.size).reshape(ys.shape)


def _knot_conjugate(phi: OrliczFunction, y):
    """Psi(y) for a convex knotted Phi, at a scalar y or at every entry of
    an array y.

    x*y - Phi(x) is linear on each piece, so its sup is the maximum over
    phi._sup_points, or runs away along the last piece where y passes its
    slope (+inf past a finite upper).  Each entry is one exact product and
    difference per point and a maximum, as a scalar call computes it.
    """
    ys = np.asarray(y, dtype=float)
    flat = ys.reshape(-1)
    xs, vs = phi._sup_points
    top = float(np.fmax.reduce(flat, initial=NEG_INF))
    if top * float(xs[-2, 0]) < INF:  # xs[-2] is the largest x, the row before 0
        t = xs * flat
    else:  # x * y overflows to inf, as it does in Python floats, and 0 * inf
        # is nan, which fmax skips
        with np.errstate(over="ignore", invalid="ignore"):
            t = xs * flat
    t -= vs
    best = np.fmax.reduce(t, axis=0)
    end = float(phi._pieces[3, -1, 0])
    if top > end:
        best = np.where(flat > end, INF, best)
    return best.reshape(ys.shape) if ys.ndim else float(best[0])


def piecewise_linear_from_text(text: str) -> PiecewiseLinear:
    """Parse a piecewise-linear function from 'x,y' lines with ascending x.

    Blank lines and lines starting with '#' are skipped.  A row with
    x = 0 and a finite y is a knot like any other; a row 0,-inf sets the
    value at zero to -inf.  A final row whose y is inf caps the domain at
    its x (the function is +inf beyond).  A repeated x encodes a jump,
    exactly as in the constructor, at 0 as anywhere else.
    """
    points: list[tuple[float, float]] = []
    value_at_zero: Optional[float] = None
    upper = INF
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ValueError(f"expected 'x,y' per line, got {raw!r}")
        try:
            x = float(parts[0])
            y = float(parts[1])
        except ValueError as exc:
            raise ValueError(f"non-numeric entry in line {raw!r}") from exc
        if x == 0.0 and not math.isfinite(y):
            value_at_zero = y
        elif y == INF:
            upper = x
        else:
            points.append((x, y))
    if not points:
        raise ValueError("no finite breakpoints found")
    return PiecewiseLinear(points, value_at_zero=value_at_zero, upper=upper)


BUILTIN_FAMILIES = (
    GeometricMean,
    Power,
    QuantileStep,
    Expectile,
    LpQuantile,
    LpqQuantile,
    GeometricExpectile,
    PiecewiseLinear,
)

FAMILIES: dict[str, type[OrliczFunction]] = {cls.name: cls for cls in BUILTIN_FAMILIES}

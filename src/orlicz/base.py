"""Shared error types and extended-real arithmetic conventions.

Quantities in this package live in the extended reals and are represented
as ordinary floats, with ``math.inf`` / ``-math.inf`` standing in for the
two infinities.  IEEE arithmetic leaves ``-inf + inf`` and ``0 * inf``
undefined (NaN); the convention is that in expectations a ``+inf`` term
dominates any ``-inf`` term, which makes the monotone limits that
motivate it come out right.  Its one implementation is
``premium.phi_moment``, the moment E[Phi(X/k)].
"""

from __future__ import annotations

import math

INF = math.inf
NEG_INF = -math.inf

# Inputs with at least this many entries take the numpy kernels; shorter
# ones take plain loops, which cost less per call at that size.  Both give
# the same numbers to the bit.
VECTOR_MIN = 64


class OrliczError(Exception):
    """Base class for all errors raised by this package."""


class InvalidPhiError(OrliczError):
    """A function failed validation against the admissibility conditions."""


class NotConvexError(OrliczError):
    """An operation requiring convexity was applied to a non-convex function."""


class NotGAConvexError(OrliczError):
    """An operation requiring GA-convexity was applied where it fails or is unknown."""


class DomainError(OrliczError):
    """Input values lie outside the domain an operation supports."""


class DimensionError(OrliczError):
    """Mismatched or unsupported dimensions (space size, vector lengths)."""


class ToleranceError(OrliczError):
    """Tolerance is non-positive or below floating-point resolution."""


def check_tol(tol: float) -> float:
    """Reject tolerances that are non-positive or below fp resolution."""
    if not (tol > 0.0):
        raise ToleranceError(f"tolerance must be positive, got {tol!r}")
    if tol < 1e-15:
        raise ToleranceError(f"tolerance {tol!r} is below float64 resolution")
    return tol

"""Randomized and constructive checks of the premium's structural laws.

Five suites:

  axioms         normalization, positive homogeneity, monotonicity
  convexity      midpoint convexity of H; certified violations when the
                 underlying Phi is non-convex
  gg-convexity   the geometric analogue, with sqrt(X Y) midpoints
  collapse       cash-additivity classification per family
  cxls           mixtures of equal-premium distributions keep the premium

Suites are deterministic given (trials, seed): trial t draws from
default_rng([seed, t]).  A failure records a reproducible description of
the inputs.  For non-convex families success means *finding* a violation
witness; not finding one is the failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .functions import (
    Expectile,
    GeometricExpectile,
    GeometricMean,
    LpQuantile,
    LpqQuantile,
    OrliczFunction,
    Power,
    QuantileStep,
    midpoint_gaps,
)
from .premium import cash_additivity_probe, orlicz_premium, premium_of_distribution
from .prob import DiscreteDistribution, RandomVariable, distribution_of, mixture, rv

PROB_UNITS = 1_000_000  # probabilities live on a 1e-6 grid so repros are exact
MIDPOINT_TOL = 1e-9  # a Phi-level midpoint gap must exceed this to seed a witness


@dataclass(frozen=True)
class Failure:
    seed: int
    trial: int
    inputs: str
    observed: str
    expected: str

    def __str__(self) -> str:
        return (
            f"trial {self.trial} (seed {self.seed}): {self.inputs} | "
            f"observed {self.observed} | expected {self.expected}"
        )


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    trials: int
    failures: tuple[Failure, ...]
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "passed" if self.passed else f"FAILED ({len(self.failures)} failures)"
        return f"{self.suite}: {self.trials} trials, {status}"


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng([seed, trial])


def _quantized_probs(rng: np.random.Generator, n: int, floor: float = 0.0) -> tuple[float, ...]:
    raw = rng.dirichlet(np.ones(n))
    if floor > 0.0:
        raw = raw * (1.0 - floor * n) + floor
    units = np.maximum(np.rint(raw * PROB_UNITS).astype(int), 1)
    units[int(np.argmax(units))] += PROB_UNITS - int(units.sum())
    return tuple(float(u) / PROB_UNITS for u in units)


def _random_values(rng: np.random.Generator, n: int, lo: float, hi: float) -> tuple[float, ...]:
    v = np.round(rng.uniform(lo, hi, n), 6)
    return tuple(float(max(x, lo)) for x in v)


def _random_rv(
    rng: np.random.Generator, sizes=(2, 3, 4), lo: float = 0.05, hi: float = 4.0
) -> RandomVariable:
    n = int(rng.choice(list(sizes)))
    return rv(_random_values(rng, n, lo, hi), _quantized_probs(rng, n))


def _describe(phi: OrliczFunction, X: RandomVariable, extra: str = "") -> str:
    body = (
        f"phi={phi.spec_string()} values={list(X.values)!r} "
        f"probs={list(X.space.probs)!r}"
    )
    return f"{body} {extra}".strip()


# ---------------------------------------------------------------------------
# axioms
# ---------------------------------------------------------------------------

AXIOM_FAMILIES: tuple[OrliczFunction, ...] = (
    GeometricMean(),
    Power(0.5),
    Power(1.0),
    Power(2.0),
    Power(3.0),
    QuantileStep(0.3),
    QuantileStep(0.7),
    Expectile(0.3),
    Expectile(0.8),
    LpQuantile(0.7, 2.0),
    LpqQuantile(1.0, 1.0, 2.0, 1.0),
    GeometricExpectile(2.0, 1.0),
)


def run_axioms_suite(trials: int, seed: int) -> SuiteReport:
    """H(c) = c, H(lam X) = lam H(X), and X <= Y implies H(X) <= H(Y)."""
    failures = []
    for t in range(trials):
        rng = _trial_rng(seed, t)
        phi = AXIOM_FAMILIES[t % len(AXIOM_FAMILIES)]
        X = _random_rv(rng)
        hx = orlicz_premium(phi, X).value

        c = float(np.round(rng.uniform(0.1, 3.0), 6))
        hc = orlicz_premium(phi, rv((c,))).value
        if abs(hc - c) > 1e-9 * max(1.0, c):
            failures.append(
                Failure(seed, t, f"phi={phi.spec_string()} c={c!r}", f"H={hc!r}", f"{c!r}")
            )

        for lam in (0.5, 2.3):
            Y = RandomVariable(X.space, tuple(lam * v for v in X.values))
            hy = orlicz_premium(phi, Y).value
            if abs(hy - lam * hx) > 1e-8 * max(1.0, lam * hx):
                failures.append(
                    Failure(
                        seed,
                        t,
                        _describe(phi, X, f"lam={lam}"),
                        f"H(lam X)={hy!r}",
                        f"lam H(X)={lam * hx!r}",
                    )
                )

        bump = np.round(rng.uniform(0.0, 1.0, X.space.n), 6)
        Y = RandomVariable(X.space, tuple(float(v + b) for v, b in zip(X.values, bump)))
        hy = orlicz_premium(phi, Y).value
        if hy < hx - 1e-9 * max(1.0, hx):
            failures.append(
                Failure(
                    seed,
                    t,
                    _describe(phi, X, f"bump={list(bump)!r}"),
                    f"H(Y)={hy!r}",
                    f">= H(X)={hx!r}",
                )
            )
    return SuiteReport("axioms", trials, tuple(failures))


# ---------------------------------------------------------------------------
# convexity and its geometric analogue
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvexityWitness:
    """A three-atom construction certifying H is not midpoint-(GA-)convex.

    X carries (z, x1, x2) and Y the swap (z, x2, x1) on probabilities
    (lam, (1-lam)/2, (1-lam)/2), so X and Y share a distribution; Z
    carries the (geometric) midpoint.  violation = H(Z) - bound > 0.
    """

    geometric: bool
    lam: float
    z: float
    x1: float
    x2: float
    scale: float
    premium_mid: float
    bound: float
    violation: float

    def __str__(self) -> str:
        kind = "GA" if self.geometric else "arithmetic"
        return (
            f"{kind} witness: lam={self.lam} z={self.z} x1={self.x1} x2={self.x2} "
            f"scale={self.scale} H(Z)={self.premium_mid!r} bound={self.bound!r} "
            f"violation={self.violation!r}"
        )


_WITNESS_POOL = sorted(
    {float(x) for x in np.geomspace(0.05, 4.0, 65)}
    | {0.9, 1.3, math.exp(-0.6), math.exp(-0.05), 0.999, 1.001, 0.999999, 1.000001}
)
_WITNESS_Z = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0)
_WITNESS_LAM = tuple(round(0.02 * k, 6) for k in range(1, 50))
_WITNESS_SCALE = (0.5, 1.0, 2.0)


def find_convexity_witness(
    phi: OrliczFunction, geometric: bool = False
) -> Optional[ConvexityWitness]:
    """Search for a certified violation of (GA-)midpoint convexity of H.

    Pairs with the largest Phi-level midpoint gap are lifted to
    three-atom premium comparisons over a deterministic grid of mixing
    weights, low atoms, and scales.  Returns the first instance whose
    premiums violate the bound by more than 1e-9 * max(1, H(Z)), or None.
    """
    gaps = [g for g in midpoint_gaps(phi, _WITNESS_POOL, geometric) if g[0] > MIDPOINT_TOL]
    gaps.sort(key=lambda g: (-g[0], g[1], g[2]))
    for _, x1, x2 in gaps[:40]:
        m = math.sqrt(x1 * x2) if geometric else 0.5 * (x1 + x2)
        for z in _WITNESS_Z:
            for lam in _WITNESS_LAM:
                probs = (lam, (1.0 - lam) / 2.0, (1.0 - lam) / 2.0)
                for s in _WITNESS_SCALE:
                    X = rv((s * z, s * x1, s * x2), probs)
                    Y = rv((s * z, s * x2, s * x1), probs)
                    Z = rv((s * z, s * m, s * m), probs)
                    hx = orlicz_premium(phi, X).value
                    hy = orlicz_premium(phi, Y).value
                    hz = orlicz_premium(phi, Z).value
                    bound = math.sqrt(hx * hy) if geometric else 0.5 * (hx + hy)
                    if hz > bound + 1e-9 * max(1.0, hz):
                        return ConvexityWitness(
                            geometric=geometric,
                            lam=lam,
                            z=s * z,
                            x1=s * x1,
                            x2=s * x2,
                            scale=s,
                            premium_mid=hz,
                            bound=bound,
                            violation=hz - bound,
                        )
    return None


CONVEXITY_BATTERY: tuple[OrliczFunction, ...] = (
    Power(1.0),
    Power(2.0),
    Power(3.0),
    Expectile(0.8),
    LpQuantile(0.7, 1.0),
    LpqQuantile(1.5, 1.0, 1.0, 1.0),
    QuantileStep(0.3),
    GeometricMean(),
    Expectile(0.3),
    Power(0.5),
)

GA_CONVEXITY_BATTERY: tuple[OrliczFunction, ...] = (
    GeometricMean(),
    Power(0.5),
    Power(1.0),
    Power(2.0),
    Expectile(0.8),
    LpQuantile(0.7, 1.0),
    GeometricExpectile(2.0, 1.0),
    LpqQuantile(1.0, 1.0, 2.0, 2.0),
    Expectile(0.3),
    QuantileStep(0.3),
)


def _midpoint_suite(
    name: str,
    battery: tuple[OrliczFunction, ...],
    geometric: bool,
    trials: int,
    seed: int,
) -> SuiteReport:
    """Random midpoint trials per family whose flag (ga_convex_flag when
    geometric, else convex_flag) is True, witness search per family whose
    flag is False, each in battery order.

    The midpoint of a and b is sqrt(a b) when geometric, else (a + b) / 2.
    """
    flags = [phi.ga_convex_flag if geometric else phi.convex_flag for phi in battery]
    convex = [phi for phi, flag in zip(battery, flags) if flag is True]
    nonconvex = [phi for phi, flag in zip(battery, flags) if flag is False]

    def mid(a: float, b: float) -> float:
        return math.sqrt(a * b) if geometric else 0.5 * (a + b)

    law = "GA-convexity" if geometric else "convexity"
    label = "H(gmid)" if geometric else "H(mid)"
    failures = []
    notes = []
    total = 0
    for phi in convex:
        for t in range(trials):
            total += 1
            rng = _trial_rng(seed, t)
            X = _random_rv(rng)
            # uniform draws on [0.05, 4.0) rounded to 1e-6 stay >= 0.05
            bump = np.round(rng.uniform(0.05, 4.0, X.space.n), 6)
            Y = RandomVariable(X.space, tuple(float(b) for b in bump))
            Z = RandomVariable(X.space, tuple(mid(a, b) for a, b in zip(X.values, Y.values)))
            hx = orlicz_premium(phi, X).value
            hy = orlicz_premium(phi, Y).value
            hz = orlicz_premium(phi, Z).value
            bound = mid(hx, hy)
            if hz > bound + 1e-8 * max(1.0, bound):
                failures.append(
                    Failure(
                        seed,
                        t,
                        _describe(phi, X, f"other={list(Y.values)!r}"),
                        f"{label}={hz!r}",
                        f"<= {bound!r}",
                    )
                )
    for phi in nonconvex:
        total += 1
        w = find_convexity_witness(phi, geometric=geometric)
        if w is None:
            failures.append(
                Failure(
                    seed,
                    -1,
                    f"phi={phi.spec_string()}",
                    "no violation found",
                    f"certified {law} violation",
                )
            )
        else:
            notes.append(f"{phi.spec_string()}: {w}")
    return SuiteReport(name, total, tuple(failures), tuple(notes))


def run_convexity_suite(trials: int, seed: int) -> SuiteReport:
    """Midpoint convexity per family: random trials when convex_flag is
    True (trials per family), witness construction when it is False."""
    return _midpoint_suite("convexity", CONVEXITY_BATTERY, False, trials, seed)


def run_gg_convexity_suite(trials: int, seed: int) -> SuiteReport:
    """Geometric midpoint law H(sqrt(X Y)) <= sqrt(H(X) H(Y)) per family:
    random trials when ga_convex_flag is True, witness construction when
    it is False."""
    return _midpoint_suite("gg-convexity", GA_CONVEXITY_BATTERY, True, trials, seed)


# ---------------------------------------------------------------------------
# cash-additivity collapse
# ---------------------------------------------------------------------------

# each family's expected class is its own phi.cash_behavior
COLLAPSE_BATTERY: tuple[OrliczFunction, ...] = (
    Expectile(0.7),
    LpQuantile(0.6, 2.0),
    QuantileStep(0.4),
    LpqQuantile(1.0, 1.0, 2.0, 2.0),
    LpqQuantile(1.0, 1.0, 2.0, 1.0),
    LpqQuantile(1.0, 1.0, 1.0, 2.0),
    Power(1.0),
    Power(2.0),
    Power(0.5),
    GeometricMean(),
)


def _margin_safe_rv(rng: np.random.Generator, n: int) -> RandomVariable:
    # tiny probabilities or near-constant values shrink the sub/super
    # margins below classification tolerance, so keep both away from 0
    probs = _quantized_probs(rng, n, floor=0.05)
    for _ in range(64):
        values = _random_values(rng, n, 0.3, 4.0)
        if max(values) - min(values) >= 1.0:
            return rv(values, probs)
    values = list(values)
    values[0] = round(min(values) + 1.5, 6)
    return rv(tuple(values), probs)


def run_collapse_suite(trials: int, seed: int) -> SuiteReport:
    """Shift H(X + m) against H(X) + m and classify each family."""
    failures = []
    for t in range(trials):
        rng = _trial_rng(seed, t)
        phi = COLLAPSE_BATTERY[t % len(COLLAPSE_BATTERY)]
        X = _margin_safe_rv(rng, int(rng.choice([2, 3])))
        report = cash_additivity_probe(phi, X)
        if report.classification != report.expected:
            failures.append(
                Failure(
                    seed,
                    t,
                    _describe(phi, X, f"deltas={list(report.deltas)!r}"),
                    report.classification,
                    report.expected,
                )
            )
    # pinned counterexample: the geometric-mean premium gains from a unit shift
    phi = GeometricMean()
    X = rv((0.5, 2.0))
    h0 = orlicz_premium(phi, X).value
    h1 = orlicz_premium(phi, rv((1.5, 3.0))).value
    target = math.sqrt(4.5)
    note = f"gm shift witness: H(X)={h0!r} H(X+1)={h1!r} target={target!r}"
    if abs(h1 - target) > 1e-9 or h1 <= h0 + 1.0 + 1e-9:
        failures.append(
            Failure(seed, -1, "phi=gm values=[0.5, 2.0] probs=[0.5, 0.5] shift=1", f"H(X+1)={h1!r}", f"{target!r} > H(X)+1")
        )
    return SuiteReport("collapse", trials, tuple(failures), (note,))


# ---------------------------------------------------------------------------
# convexity at level sets (mixtures of equal-premium distributions)
# ---------------------------------------------------------------------------

CXLS_BATTERY: tuple[OrliczFunction, ...] = (
    GeometricMean(),
    Power(2.0),
    Power(0.5),
    QuantileStep(0.3),
    Expectile(0.8),
    Expectile(0.3),
    LpQuantile(0.7, 2.0),
    LpqQuantile(1.0, 1.0, 2.0, 1.0),
    GeometricExpectile(2.0, 1.0),
)


def run_cxls_suite(trials: int, seed: int) -> SuiteReport:
    """If H(F) = H(G) = gamma then every mixture also has premium gamma."""
    failures = []
    lam_set = (0.25, 0.5, 0.75)
    for t in range(trials):
        rng = _trial_rng(seed, t)
        phi = CXLS_BATTERY[t % len(CXLS_BATTERY)]
        F = distribution_of(_random_rv(rng, lo=0.1))
        G = distribution_of(_random_rv(rng, lo=0.1))
        gamma = premium_of_distribution(phi, F).value
        gG = premium_of_distribution(phi, G).value
        if gamma <= 1e-9 or gG <= 1e-9:
            continue
        # positive homogeneity moves G onto the same level set as F
        for _ in range(2):
            s = gamma / gG
            G = DiscreteDistribution.from_pairs(
                [(float(a * s), float(p)) for a, p in zip(G.atoms, G.probs)]
            )
            gG = premium_of_distribution(phi, G).value
            if abs(gG - gamma) <= 1e-10 * max(1.0, gamma):
                break
        for lam in lam_set:
            Z = mixture(F, G, lam)
            hz = premium_of_distribution(phi, Z).value
            if abs(hz - gamma) > 1e-7 * max(1.0, gamma):
                failures.append(
                    Failure(
                        seed,
                        t,
                        f"phi={phi.spec_string()} F={list(zip(F.atoms, F.probs))!r} "
                        f"G={list(zip(G.atoms, G.probs))!r} lam={lam}",
                        f"H(mix)={hz!r}",
                        f"gamma={gamma!r}",
                    )
                )
    return SuiteReport("cxls", trials, tuple(failures))


SUITES: dict[str, Callable[[int, int], SuiteReport]] = {
    "axioms": run_axioms_suite,
    "convexity": run_convexity_suite,
    "gg-convexity": run_gg_convexity_suite,
    "collapse": run_collapse_suite,
    "cxls": run_cxls_suite,
}

DEFAULT_TRIALS: dict[str, int] = {
    "axioms": 200,
    "convexity": 200,
    "gg-convexity": 120,
    "collapse": 120,
    "cxls": 180,
}


def run_suite(name: str, trials: Optional[int] = None, seed: int = 0) -> SuiteReport:
    """Run one suite by name; trials defaults to DEFAULT_TRIALS[name]."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choices: {sorted(SUITES)}")
    n = DEFAULT_TRIALS[name] if trials is None else trials
    return SUITES[name](n, seed)

"""Acceptance battery: one test per numbered criterion.

Each test prints a single pass line when it survives its assertions, so
`pytest -v -s` gives a readable scorecard.  Oracles here are written
from scratch against the defining equations and kept independent of the
library's solver internals.
"""

import itertools
import math

import numpy as np
import pytest

from orlicz import (
    Expectile,
    FiniteProbabilitySpace,
    GeometricExpectile,
    GeometricMean,
    LpQuantile,
    LpqQuantile,
    MeasureChange,
    Power,
    QuantileStep,
    RandomVariable,
    alpha_bridge_report,
    alpha_penalty,
    beta_conjugate,
    beta_on_grid,
    beta_primal,
    cash_additivity_probe,
    comonotone_integral,
    dual_search,
    find_convexity_witness,
    gg_counterexample_check,
    hg_risk_measure,
    orlicz_premium,
    piecewise_linear_from_text,
    run_convexity_suite,
    run_cxls_suite,
    run_gg_convexity_suite,
    rv,
    simplex_grid,
)
from orlicz.base import INF
from orlicz import duality, hg, premium
from orlicz.premium import phi_moment


# ---------------------------------------------------------------------------
# shared generators and oracles
# ---------------------------------------------------------------------------


def random_instance(rng, n_choices=(2, 3, 4, 5, 6), lo=0.05, hi=4.0):
    n = int(rng.choice(n_choices))
    vals = tuple(float(v) for v in rng.uniform(lo, hi, n))
    probs = tuple(float(p) for p in rng.dirichlet(np.ones(n)))
    return RandomVariable(FiniteProbabilitySpace(probs), vals)


def oracle_gm(X):
    return math.exp(math.fsum(p * math.log(v) for v, p in zip(X.values, X.space.probs)))


def oracle_power(X, p):
    return math.fsum(q * v**p for v, q in zip(X.values, X.space.probs)) ** (1.0 / p)


def oracle_left_quantile(X, alpha):
    pairs = sorted(zip(X.values, X.space.probs))
    acc = 0.0
    for v, q in pairs:
        acc += q
        if acc >= alpha - 1e-15:
            return v
    return pairs[-1][0]


def oracle_asymmetric_root(X, alpha, p):
    # bisect the signed tail-moment balance in ratio space:
    # alpha E[((X/k - 1)+)^p] = (1 - alpha) E[((1 - X/k)+)^p]
    vals = np.asarray(X.values)
    probs = np.asarray(X.space.probs)

    def h(k):
        r = vals / k
        up = float(probs @ np.maximum(r - 1.0, 0.0) ** p)
        down = float(probs @ np.maximum(1.0 - r, 0.0) ** p)
        return alpha * up - (1.0 - alpha) * down

    lo, hi = float(vals.min()), float(vals.max())
    if lo == hi:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # lo and hi are adjacent floats: no further step can move them
            break
        if h(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


BUILTIN_FAMILIES = (
    GeometricMean(),
    Power(0.5),
    Power(1.0),
    Power(2.0),
    Power(3.0),
    QuantileStep(0.3),
    QuantileStep(0.5),
    QuantileStep(0.8),
    Expectile(0.3),
    Expectile(0.5),
    Expectile(0.8),
    LpQuantile(0.7, 1.0),
    LpQuantile(0.7, 2.0),
    LpqQuantile(1.5, 0.5, 1.0, 1.0),
    LpqQuantile(1.0, 1.0, 2.0, 2.0),
    LpqQuantile(2.0, 0.0, 2.0, 1.0),
    GeometricExpectile(2.0, 1.0),
    GeometricExpectile(2.0, 0.0),
)

PWL_CONVEX = piecewise_linear_from_text("0,0\n0.5,0.5\n1,1\n2,3\n")
PWL_CAPPED = piecewise_linear_from_text("0,0.2\n0.5,0.6\n1,1\n1.5,2\n2,inf\n")


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def count_work(monkeypatch):
    """(work, orlicz_premium counted): a dict of the premium calls, the
    penalties (one per measure priced) and the moments E[Phi(X/k)] that
    the library makes from here on.  The work is counted, not timed: a
    wall-clock bound tests the host as well as the code.
    """
    work = {"premiums": 0, "penalties": 0, "moments": 0}

    def counted(name, fn, size=lambda *args: 1):
        def wrapper(*args, **kwargs):
            work[name] += size(*args)
            return fn(*args, **kwargs)

        return wrapper

    solve = counted("premiums", premium.orlicz_premium)
    for owner in (premium, hg):  # dual_search imports it from premium when called
        monkeypatch.setattr(owner, "orlicz_premium", solve)
    monkeypatch.setattr(premium, "phi_moment", counted("moments", premium.phi_moment))
    rows = lambda phi, probs, dens: len(dens)  # noqa: E731
    monkeypatch.setattr(duality, "_beta_block", counted("penalties", duality._beta_block, rows))
    monkeypatch.setattr(duality, "alpha_penalty", counted("penalties", duality.alpha_penalty))
    return work, solve


# premium calls and moments that criterion 01 makes: 9,000 generic
# premiums, each a power-of-two bracket and a secant to adjacent floats
CRITERION_01_PREMIUMS = 9000
CRITERION_01_MOMENTS = 119_677


def test_criterion_01_closed_form_agreement(monkeypatch):
    configs = [
        ("gm", GeometricMean, None),
        ("power", Power, (0.5, 1.0, 2.0, 3.0)),
        ("quantile", QuantileStep, None),
        ("expectile", Expectile, None),
        ("lp", LpQuantile, (1.0, 2.0)),
    ]
    rng = np.random.default_rng(20260817)
    work, solve = count_work(monkeypatch)
    worst = 0.0
    for name, cls, ps in configs:
        for p in ps or (None,):
            for _ in range(1000):
                X = random_instance(rng)
                if name == "gm":
                    phi, ref = cls(), oracle_gm(X)
                elif name == "power":
                    phi, ref = cls(p), oracle_power(X, p)
                elif name == "quantile":
                    a = float(rng.uniform(0.05, 0.95))
                    phi, ref = cls(a), oracle_left_quantile(X, a)
                elif name == "expectile":
                    a = float(rng.uniform(0.05, 0.95))
                    phi, ref = cls(a), oracle_asymmetric_root(X, a, 1.0)
                else:
                    a = float(rng.uniform(0.05, 0.95))
                    phi, ref = cls(a, p), oracle_asymmetric_root(X, a, p)
                got = solve(phi, X, route="generic").value
                worst = max(worst, abs(got - ref) / max(1.0, abs(ref)))
    assert worst <= 1e-8, f"worst relative error {worst:.3e}"
    assert work["premiums"] == CRITERION_01_PREMIUMS, work
    assert work["moments"] <= CRITERION_01_MOMENTS, work
    print(
        f"criterion 01 closed-form agreement: PASS ({work['premiums']} instances, "
        f"{work['moments']} moments, worst rel err {worst:.2e})"
    )


def test_criterion_02_normalization_and_bounds():
    families = BUILTIN_FAMILIES + (PWL_CONVEX, PWL_CAPPED)
    for phi in families:
        h1 = orlicz_premium(phi, rv((1.0,))).value
        assert h1 == pytest.approx(1.0, abs=1e-10), phi.spec_string()
    rng = np.random.default_rng(41)
    checked = 0
    for phi in families:
        for _ in range(40):
            X = random_instance(rng)
            ess = max(X.values)
            lower = 0.0 if phi.upper == INF else ess / phi.upper
            h = orlicz_premium(phi, X).value
            assert lower - 1e-8 <= h <= ess + 1e-8, (phi.spec_string(), X.values, h)
            checked += 1
    print(
        f"criterion 02 normalization and bounds: PASS "
        f"({len(families)} families at 1, {checked} bound checks)"
    )


def test_criterion_03_threshold_equivalence():
    battery = (
        GeometricMean(),
        Power(0.5),
        Power(2.0),
        QuantileStep(0.3),
        QuantileStep(0.7),
        Expectile(0.3),
        Expectile(0.8),
        LpQuantile(0.7, 2.0),
        LpqQuantile(1.5, 0.5, 1.0, 1.0),
        GeometricExpectile(2.0, 1.0),
    )
    rng = np.random.default_rng(303)
    low_side = high_side = 0
    for t in range(1000):
        phi = battery[t % len(battery)]
        X = random_instance(rng, n_choices=(2, 3, 4))
        h0 = orlicz_premium(phi, X).value
        if h0 <= 0.0:
            continue
        target = float(rng.uniform(0.5, 1.5))
        Y = RandomVariable(X.space, tuple(v * target / h0 for v in X.values))
        vals = Y.values_array()
        probs = Y.space.probs_array()
        h = orlicz_premium(phi, Y).value
        moment = phi_moment(phi, vals, probs, 1.0)
        if h <= 1.0 - 1e-8:
            assert moment <= 1.0 + 1e-9, (phi.spec_string(), h, moment)
            low_side += 1
        if moment <= 1.0 - 1e-9:
            assert h <= 1.0 + 1e-8, (phi.spec_string(), h, moment)
        if h >= 1.0 + 1e-8:
            assert moment > 1.0 - 1e-9, (phi.spec_string(), h, moment)
            high_side += 1
    assert low_side >= 200 and high_side >= 200, (low_side, high_side)
    print(
        f"criterion 03 threshold equivalence: PASS "
        f"({low_side} below-threshold, {high_side} above-threshold checks)"
    )


# the work criterion 04 makes: 4 premiums here and 4 in dual_search, the
# penalties of its grids and of beta_on_grid's, and _finish's moments
CRITERION_04_WORK = {"premiums": 8, "penalties": 20_612, "moments": 10}


def test_criterion_04_arithmetic_duality_certificates(monkeypatch):
    rng = np.random.default_rng(44)
    work, solve = count_work(monkeypatch)
    for phi in (Power(2.0), Expectile(0.8)):
        for _ in range(2):
            vals = tuple(float(v) for v in np.sort(rng.uniform(0.3, 3.0, 3)))
            probs = tuple(float(p) for p in rng.dirichlet((2.0, 2.0, 2.0)))
            X = RandomVariable(FiniteProbabilitySpace(probs), vals)
            primal = solve(phi, X).value
            cert = dual_search(phi, X, kind="arithmetic", grid_step=0.01)
            assert primal - cert.lower_bound <= 1e-3, (phi.spec_string(), primal, cert)
            assert cert.lower_bound <= primal + 1e-9
            # sweep every grid certificate for weak duality
            xs = np.asarray(vals)
            ps = np.asarray(probs)
            for Q, b in beta_on_grid(phi, X.space, grid_step=0.01):
                bound = b * float(ps @ (np.asarray(Q.density) * xs))
                assert bound <= primal + 1e-9, (phi.spec_string(), bound, primal)
    assert work["premiums"] == CRITERION_04_WORK["premiums"], work
    assert work["penalties"] == CRITERION_04_WORK["penalties"], work
    assert work["moments"] <= CRITERION_04_WORK["moments"], work
    print(f"criterion 04 arithmetic duality certificates: PASS (4 instances, step 0.01, {work})")


def test_criterion_05_penalty_route_agreement():
    battery = (
        Power(1.0),
        Power(2.0),
        Power(3.0),
        Expectile(0.6),
        Expectile(0.8),
        LpQuantile(0.65, 1.0),
        LpqQuantile(1.5, 0.5, 1.0, 1.0),
        LpqQuantile(2.0, 0.0, 2.0, 1.0),
    )
    rng = np.random.default_rng(55)
    worst = 0.0
    for t in range(200):
        phi = battery[t % len(battery)]
        n = int(rng.choice((2, 3, 4)))
        probs = tuple(float(p) for p in rng.dirichlet(np.ones(n)))
        space = FiniteProbabilitySpace(probs)
        draw = rng.uniform(0.2, 3.0, n)
        dens = draw / float(np.asarray(probs) @ draw)
        Q = MeasureChange(space, tuple(float(d) for d in dens))
        diff = abs(beta_primal(phi, Q) - beta_conjugate(phi, Q))
        worst = max(worst, diff)
    assert worst <= 1e-4, worst
    print(f"criterion 05 penalty route agreement: PASS (200 instances, worst gap {worst:.2e})")


def test_criterion_06_geometric_duality_indicator():
    phi = GeometricMean()
    for X, step in ((rv((0.5, 2.0)), 0.01), (rv((0.5, 1.2, 2.5)), 0.02)):
        primal = orlicz_premium(phi, X).value
        cert = dual_search(phi, X, kind="geometric", grid_step=step)
        assert abs(cert.lower_bound - primal) <= 1e-9, (X.values, cert)
        assert all(abs(d - 1.0) <= 1e-9 for d in cert.measure.density)
        assert cert.penalty == pytest.approx(1.0, abs=1e-9)
        probs = X.space.probs_array()
        off_p = 0
        for q in simplex_grid(X.space.n, step):
            dens = tuple(float(qi) / float(pi) for qi, pi in zip(q, probs))
            if max(abs(d - 1.0) for d in dens) <= 1e-12:
                continue
            Q = MeasureChange(X.space, dens)
            assert alpha_penalty(phi, Q) == 0.0, (X.values, dens)
            off_p += 1
        assert off_p > 50
    print("criterion 06 geometric duality indicator: PASS (certificate at P, grid penalties 0)")


def test_criterion_07_entropy_bridge():
    space = FiniteProbabilitySpace((1 / 3, 1 / 3, 1 / 3))
    R = MeasureChange(space, (1.0, 1.0, 1.0))
    report = alpha_bridge_report(Power(2.0), R, grid_step=0.01)
    assert report.grid_step == 0.01
    assert report.reported_gap <= 5e-2 + 1e-15
    assert abs(report.bridge_value - report.direct_value) <= report.reported_gap
    assert report.within_gap
    print(
        f"criterion 07 entropy bridge: PASS "
        f"(bridge {report.bridge_value:.6f}, direct {report.direct_value:.6f}, "
        f"gap bound {report.reported_gap})"
    )


def test_criterion_08_hg_counterexample(monkeypatch):
    # each of the four premiums is the degenerate zero of an excess with an
    # atom at 0 under gm's Phi(0) = -inf: no moment
    work, _ = count_work(monkeypatch)
    res = hg_risk_measure(GeometricMean(), rv((0.5, 2.0)))
    rep = gg_counterexample_check()
    assert res.value == pytest.approx(0.5, abs=1e-6)
    assert rep.rho_x == pytest.approx(0.5, abs=1e-6)
    assert rep.rho_y == pytest.approx(0.5, abs=1e-6)
    assert rep.rho_gmean == pytest.approx(1.0, abs=1e-6)
    assert rep.geometric_bound == pytest.approx(0.5, abs=1e-6)
    assert rep.rho_gmean > rep.geometric_bound + rep.tol
    assert rep.passed
    assert work == {"premiums": 4, "penalties": 0, "moments": 0}, work
    print(f"criterion 08 hg counterexample: PASS (violation 1 > 0.5 certified, {work})")


def test_criterion_09_hg_cash_additivity():
    battery = (
        Power(1.0),
        Power(2.0),
        Expectile(0.6),
        Expectile(0.8),
        LpQuantile(0.65, 1.0),
        LpqQuantile(1.5, 0.5, 1.0, 1.0),
    )
    rng = np.random.default_rng(99)
    worst = 0.0
    for t in range(100):
        phi = battery[t % len(battery)]
        X = random_instance(rng, n_choices=(2, 3), lo=0.1)
        base = hg_risk_measure(phi, X).value
        for m in (0.25, 1.0):
            shifted = RandomVariable(X.space, tuple(v + m for v in X.values))
            diff = abs(hg_risk_measure(phi, shifted).value - base - m)
            worst = max(worst, diff)
    assert worst <= 1e-7, worst
    print(f"criterion 09 hg cash additivity: PASS (100 instances, worst drift {worst:.2e})")


def _margin_instance(rng, n):
    u = rng.uniform(0.0, 1.0, n)
    probs = tuple(float(p) for p in (u + 0.25) / float(np.sum(u + 0.25)))
    lo = float(rng.uniform(0.3, 1.0))
    hi = lo + float(rng.uniform(1.0, 2.5))
    mids = [float(rng.uniform(lo, hi)) for _ in range(n - 2)]
    vals = tuple([lo] + mids + [hi])
    return RandomVariable(FiniteProbabilitySpace(probs), vals)


def test_criterion_10_collapse_classification():
    rng = np.random.default_rng(110)
    table = (
        (Expectile(0.3), "additive"),
        (Expectile(0.7), "additive"),
        (LpqQuantile(1.3, 0.9, 2.0, 2.0), "additive"),
        (LpqQuantile(1.0, 1.0, 2.0, 1.0), "subadditive"),
        (LpqQuantile(1.0, 1.0, 1.0, 2.0), "superadditive"),
    )
    for phi, expected in table:
        for _ in range(5):
            X = _margin_instance(rng, int(rng.choice((2, 3))))
            rep = cash_additivity_probe(phi, X)
            assert rep.classification == expected, (phi.spec_string(), rep)
            assert rep.consistent
    gm = cash_additivity_probe(GeometricMean(), rv((0.5, 2.0)), shifts=(1.0,))
    assert gm.classification == "superadditive"
    assert gm.base_premium == pytest.approx(1.0, abs=1e-12)
    shifted_premium = gm.base_premium + 1.0 + gm.deltas[0]
    assert shifted_premium == pytest.approx(math.sqrt(4.5), abs=1e-9)
    assert shifted_premium > 2.0 + 1e-3
    print("criterion 10 collapse classification: PASS (5 families, gm witness sqrt(4.5) > 2)")


def test_criterion_11_convexity_characterization():
    w = find_convexity_witness(QuantileStep(0.3))
    assert w is not None and w.violation > 0.0
    # recompute the witness numbers from scratch
    probs = (w.lam, (1.0 - w.lam) / 2.0, (1.0 - w.lam) / 2.0)
    space = FiniteProbabilitySpace(probs)
    s = w.scale
    X = RandomVariable(space, (w.z * s, w.x1 * s, w.x2 * s))
    Y = RandomVariable(space, (w.z * s, w.x2 * s, w.x1 * s))
    mid = 0.5 * (w.x1 + w.x2)
    Z = RandomVariable(space, (w.z * s, mid * s, mid * s))
    phi = QuantileStep(0.3)
    hx = orlicz_premium(phi, X).value
    hy = orlicz_premium(phi, Y).value
    hz = orlicz_premium(phi, Z).value
    assert hz > 0.5 * (hx + hy) + 1e-9
    conv = run_convexity_suite(trials=1000, seed=0)
    assert conv.passed, conv.summary()
    gg = run_gg_convexity_suite(trials=1000, seed=0)
    assert gg.passed, gg.summary()
    print(
        f"criterion 11 convexity characterization: PASS "
        f"(quantile witness violation {w.violation:.3f}, {conv.trials + gg.trials} trials clean)"
    )


def test_criterion_12_cxls():
    rep = run_cxls_suite(trials=500, seed=0)
    assert rep.trials == 500
    assert rep.passed, rep.summary()
    print("criterion 12 cxls: PASS (500 instances, mixtures stay on the level set)")


def test_criterion_13_comonotone_bound_exact():
    rng = np.random.default_rng(113)
    checked = 0
    for n in (2, 3, 4, 5):
        space = FiniteProbabilitySpace(tuple([1.0 / n] * n))
        for _ in range(40):
            values = [float(v) for v in rng.uniform(0.05, 4.0, n)]
            draw = rng.uniform(0.2, 3.0, n)
            dens = [float(d) for d in draw / np.mean(draw)]
            X = RandomVariable(space, tuple(values))
            Q = MeasureChange(space, tuple(dens))
            walk = comonotone_integral(X, Q)
            best = -math.inf
            for perm in itertools.permutations(range(n)):
                total = math.fsum(values[i] * dens[perm[i]] * (1.0 / n) for i in range(n))
                best = max(best, total)
            assert walk == best, (values, dens, walk, best)
            checked += 1
    print(f"criterion 13 comonotone bound: PASS ({checked} exact equalities)")

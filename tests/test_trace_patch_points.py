"""The traced bench runs wrap library names at their import sites.

bench/spans.py looks each name up in its owner's __dict__, so moving or
renaming a wrapped function breaks only traced runs, which the unit
tests never start.  This test installs and removes the wrappers.
"""

from pathlib import Path

import orlicz.duality as duality
import orlicz.functions as functions
import orlicz.hg as hg
import orlicz.premium as premium

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_finds_every_patch_point(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    def patch_points():
        return (
            duality.golden_min,
            duality.conjugate,
            premium.bisect_smallest_feasible,
            premium.bisect_root_decreasing,
        )

    originals = patch_points()
    hg_names = ("golden_min", "orlicz_premium", "rv", "hg_risk_measure")
    hg_originals = {name: getattr(hg, name) for name in hg_names}
    tracer = spans.Tracer()
    try:
        tracer.install()
        for wrapped, orig in zip(patch_points(), originals):
            assert wrapped.__wrapped__ is orig, orig.__name__
        for cls in functions.BUILTIN_FAMILIES:
            assert hasattr(cls.__dict__["eval_array"], "__wrapped__"), cls.__name__
        for name, orig in hg_originals.items():
            assert getattr(hg, name).__wrapped__ is orig, name
    finally:
        tracer.uninstall()
    assert patch_points() == originals
    assert {name: getattr(hg, name) for name in hg_names} == hg_originals


def test_traced_hg_calls_fold_into_the_layer_metrics(monkeypatch):
    # the tracer reads HGResult.extensions and floor_active after each hg
    # call; a traced op through the tail and window routes must fold cleanly
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    from orlicz import LpqQuantile, PiecewiseLinear, rv

    tracer = spans.Tracer()
    tracer.op = "hg"
    tracer.install()
    try:
        X = rv((0.2, 1.4, 3.1))
        tail = hg.hg_risk_measure(PiecewiseLinear([(0.5, 0.25), (1.0, 1.0), (2.0, 3.0)]), X)
        window = hg.hg_risk_measure(LpqQuantile(1.5, 0.5, 1.0, 2.0), X)
    finally:
        tracer.uninstall()
    tracer.add_op()
    assert (tail.route, window.route) == ("tail", "window")
    metrics = tracer.metrics(1, 0.0)
    assert metrics["hg.calls"] == 2
    assert metrics["hg.premium_evals"] == window.evaluations
    assert (metrics["hg.extensions"], metrics["hg.floor_active"]) == (0, 0)
    assert metrics["search.golden_calls"] == 1

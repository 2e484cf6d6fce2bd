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

    originals = (duality.golden_min, duality.conjugate, premium.bisect_smallest_feasible)
    hg_names = ("golden_min", "orlicz_premium", "rv", "hg_risk_measure")
    hg_originals = {name: getattr(hg, name) for name in hg_names}
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert duality.golden_min.__wrapped__ is originals[0]
        for cls in functions.BUILTIN_FAMILIES:
            assert hasattr(cls.__dict__["eval_array"], "__wrapped__"), cls.__name__
        for name, orig in hg_originals.items():
            assert getattr(hg, name).__wrapped__ is orig, name
    finally:
        tracer.uninstall()
    assert (duality.golden_min, duality.conjugate, premium.bisect_smallest_feasible) == originals
    assert {name: getattr(hg, name) for name in hg_names} == hg_originals

"""Closed-loop rounds of ops, with latencies and check outcomes.

A round runs every op of a workload once, in order, each op starting
when the previous one returns.  Only op.run() is timed; its output is
checked after the timer stops.  Each round starts with a full garbage
collection, untimed: the library leaves reference cycles behind (the
recursive closure in duality.simplex_grid, for one), and without it the
heap, and with it peak_rss_mb, grew with the number of rounds.

Untraced rounds also time a calibration before the first op and after
each op, outside the op's timer.  It is fixed work that never touches
the library, so its time tracks only the speed the shared host gives
this process at that moment.  Each op's latency is kept twice: as
measured, and scaled to reference speed by the calibration times on
either side of it (see speed_factor).
"""

from __future__ import annotations

import gc
import math
import statistics
import time

import numpy as np

CALIBRATION_STEPS = 300
CALIBRATION_X = np.linspace(0.5, 2.0, 8)
# The calibration's median time in one measurement on the reference
# machine (a shared 2-core Xeon VM, Python 3.11).  It only sets the scale
# of the scaled latencies: they read as wall milliseconds on that machine
# at the speed it had then.
REFERENCE_CALIBRATION_S = 2.4e-3


def calibration() -> float:
    """Wall time of fixed work that never calls the library.

    Each step does what the small-n and dual-certify ops spend most of
    their time on: numpy calls on a length-8 array, float maths and a
    dict.  A plain integer loop tracked the host's speed changes less
    well: replayed over 150 s of small-n rounds, the range of 25 s window
    medians of items_per_s over their median was 0.31 as measured, 0.10
    scaled by an integer loop and 0.02 scaled by this one.
    """
    t0 = time.perf_counter()
    s = 0.0
    for i in range(CALIBRATION_STEPS):
        y = CALIBRATION_X * (1.0 + i * 1e-3)
        s += float(np.sum(y * y)) + math.log1p(i)
        s += {"step": i}["step"]
    return time.perf_counter() - t0


def speed_factor(before: float, after: float) -> float:
    """Scale from measured time to reference speed, from the calibration
    times just before and just after the measured work."""
    return REFERENCE_CALIBRATION_S / (0.5 * (before + after))


class Runner:
    """Runs rounds of ops and keeps latencies and check outcomes."""

    def __init__(self, ops):
        self.ops = ops
        self.state = {"first_text": {}, "round": {}}
        self.latencies: dict[str, list[float]] = {op.name: [] for op in ops}  # untraced rounds
        self.scaled: dict[str, list[float]] = {op.name: [] for op in ops}  # at reference speed
        self.failures: dict[str, list] = {}  # op name -> failures of its last failing run
        self.fail_counts: dict[str, int] = {}
        self.attempted = 0
        self.failed_any = 0
        self.failed_unexpected = 0

    def record(self, op, failures) -> None:
        self.attempted += 1
        if not failures:
            return
        self.failed_any += 1
        if any(name not in op.known for name, _ in failures):
            self.failed_unexpected += 1
        self.failures[op.name] = failures
        self.fail_counts[op.name] = self.fail_counts.get(op.name, 0) + 1

    def execute(self, op, tracer=None) -> float:
        """Run one op, check its output, and return its latency."""
        if tracer is not None:
            tracer.op = op.name
            tracer.install()
        err = None
        t0 = time.perf_counter()
        try:
            raw = op.run()
        except Exception as exc:  # a raising op is a counted failure, not a crash
            err = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
            tracer.add_op()
        if err is not None:
            failures = [("raised", err)]
        else:
            try:
                ans = op.answer(raw)
                self.state["round"][op.name] = ans
                failures = op.check(ans, self.state)
            except Exception as exc:  # output the checks cannot read is a wrong answer
                failures = [("unreadable", f"{type(exc).__name__}: {exc}")]
        self.record(op, failures)
        return dt

    def round(self) -> None:
        """Every op once, in order."""
        gc.collect()
        self.state["round"] = {}
        before = calibration()
        for op in self.ops:
            dt = self.execute(op)
            after = calibration()
            self.latencies[op.name].append(dt)
            self.scaled[op.name].append(dt * speed_factor(before, after))
            before = after

    def traced_round(self, tracer, index: int) -> tuple[float, float]:
        """Every op twice, untraced and traced, in alternating order.

        Running the pair back to back gives both the same warm caches, and
        swapping which goes first cancels the advantage of going second.
        Returns the summed untraced and traced op times.
        """
        gc.collect()
        self.state["round"] = {}
        tracer.keep = index == 0
        plain = traced = 0.0
        for i, op in enumerate(self.ops):
            if (index + i) % 2:
                traced += self.execute(op, tracer)
                plain += self.execute(op)
            else:
                plain += self.execute(op)
                traced += self.execute(op, tracer)
        return plain, traced


def per_op_median(samples: dict[str, list[float]]) -> dict[str, float]:
    """Each op's median latency over the untraced rounds.

    On a shared host, other tenants change the machine's speed by as much
    as 2x, for stretches of seconds to minutes.  A round is a few
    seconds, so the rounds of a run sample each op at many points in time.
    The median follows the speed the machine has for most of the run; the
    fastest round follows whether a fast stretch happened to fall in the
    run, which made per-op minima spread several times as wide between
    runs.  Speed changes that outlast a run are what the calibration
    scaling is for.  The timing metrics take one value per op from here.
    """
    return {name: statistics.median(xs) for name, xs in samples.items()}


def tail(latencies) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least 10 samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10

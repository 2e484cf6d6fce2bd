#!/usr/bin/env python3
"""Benchmark driver for the orlicz library.

    python3 bench/run.py --workload bulk-premium --seed 1 --seconds 25 --trace 0

Run from anywhere; it builds nothing and imports the library from the
checkout's src/.  One caller runs a closed loop in this one process: each
op starts when the previous one returns.  A round is every op of the
workload once, in a fixed order; rounds repeat until --seconds have
passed, and at least four times.  Every metric is taken over whole
rounds, so the op mix is the same in every run, and each op's latency is
its median over the rounds, scaled to reference speed by a calibration
loop timed around it (bench/runner.py).  Inputs come from --seed
through a set-up child process (bench/workloads.py), and every op's
output is checked against an independent reference after its timer
stops.

--trace 0 prints the end-to-end metrics.  --trace 1 runs every op twice
per round, untraced and traced, and prints the per-layer metrics of
bench/spans.py, including trace.overhead_frac.  The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
failed counts ops that raised or failed a check that exposes no known
defect; fail_frac, printed above it, also counts the known-defect
failures, each listed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
SETUP_REPEATS = 9
MIN_ROUNDS = 4  # each op's latency is its median round, so it needs a few

# numpy's BLAS/OpenMP pools are sized when numpy is first imported, so the
# cap goes in before any import below and into every child's environment.
for _var in THREAD_VARS:
    os.environ[_var] = "1"
ORLICZ_THREADS_AT_START = os.environ.pop("ORLICZ_THREADS", None)
os.environ["PYTHONPATH"] = str(SRC)
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import spans as layer_trace  # noqa: E402
import workloads  # noqa: E402
from runner import Runner, per_op_median, tail  # noqa: E402


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_library() -> None:
    """Import orlicz from this checkout's src/, and from nowhere else."""
    if not (SRC / "orlicz" / "__init__.py").is_file():
        fail(f"no library source at {SRC / 'orlicz'}")
    import orlicz
    import orlicz.cli  # noqa: F401

    if Path(orlicz.__file__).resolve().parent != (SRC / "orlicz").resolve():
        fail(f"imported orlicz from {orlicz.__file__}, not from {SRC}")


def setup_seconds() -> float:
    """Median wall time for a fresh interpreter to import orlicz and its CLI.

    Not scaled to reference speed like the op latencies: the launch runs
    in a child process, and scaling it by the parent's calibration
    widened its spread over ten seeds in each of four sets.
    """
    cmd = [sys.executable, "-c", "import orlicz, orlicz.cli"]
    subprocess.run(cmd, check=True, cwd=ROOT, timeout=60)  # writes the bytecode cache
    times = []
    for _ in range(SETUP_REPEATS):
        # no timeout here: with one, subprocess polls the child in steps of
        # up to 50 ms, which would round every sample up to that grid
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def machine_facts() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (checkout is not a git repository)"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        if res.returncode == 0:
            commit = res.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "blas_thread_cap": {v: os.environ[v] for v in THREAD_VARS},
        "orlicz_threads": "unset" if ORLICZ_THREADS_AT_START is None
        else f"was {ORLICZ_THREADS_AT_START!r}, unset for the run",
    }


def prepare(args, workdir: Path) -> None:
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH / "run.py"), "--prepare", str(workdir),
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    subprocess.run(cmd, check=True, cwd=ROOT, timeout=170)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    ap.add_argument("--prepare", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args()
    # turn a kill into an exception, so the set-up child is stopped and waited
    # for and the generated inputs are removed on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    import_library()
    if args.prepare:
        workloads.prepare(args.workload, args.seed, args.prepare, args.tiny)
        return

    facts = machine_facts()
    setup_s = setup_seconds() if args.trace == 0 else None
    tag = f"{args.workload}-seed{args.seed}{'-tiny' if args.tiny else ''}"
    workdir = WORK / f"{tag}-pid{os.getpid()}"
    try:
        prepare(args, workdir)
        ops = workloads.load(str(workdir))
        for op in workloads.first_of_each_kind(ops):
            try:
                op.run()
            except Exception:  # the timed runs of this op record the failure
                pass
        runner = Runner(ops)
        rounds = 0
        start = time.perf_counter()
        if args.trace == 0:
            while rounds < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
                runner.round()
                rounds += 1
        else:
            tracer = layer_trace.Tracer()
            plain = traced = 0.0
            while rounds == 0 or time.perf_counter() - start < args.seconds:
                p, t = runner.traced_round(tracer, rounds)
                plain += p
                traced += t
                rounds += 1
            trace_path = WORK / f"trace-{tag}.tsv"
            tracer.write_kept(str(trace_path))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    fail_frac = runner.failed_any / runner.attempted
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} rounds {rounds} ops {runner.attempted}")
    print("machine " + json.dumps(facts, sort_keys=True))
    if args.trace == 0:
        items = sum(op.items for op in ops)
        per_op = per_op_median(runner.scaled)
        lat = list(per_op.values())
        tail_ms, tail_pct, beyond = tail(lat)
        metrics = {
            "setup_s": setup_s,
            "items_per_s": items / sum(lat),
            "op_p50_ms": 1e3 * statistics.median(lat),
            "op_tail_ms": 1e3 * tail_ms,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wall_lat = list(per_op_median(runner.latencies).values())
        wall = {
            "items_per_s": items / sum(wall_lat),
            "op_p50_ms": 1e3 * statistics.median(wall_lat),
            "op_tail_ms": 1e3 * tail(wall_lat)[0],
        }
        units = dict(END_TO_END)
        notes = {
            "items_per_s": "rows priced per second" if args.workload == "bulk-premium"
            else "ops per second",
            "op_p50_ms": f"over {len(lat)} ops, each the median of {rounds} rounds",
            "op_tail_ms": f"p{tail_pct:.1f} of {len(lat)} ops, {beyond} beyond it",
        }
        for name in wall:
            notes[name] = "; ".join(filter(None, (notes.get(name), "at reference speed")))
    else:
        metrics = tracer.metrics(rounds, traced / plain - 1.0)
        units = dict(layer_trace.layer_metric_names())
        notes = {"trace.overhead_frac": f"each op run untraced and traced in {rounds} rounds; "
                                        f"spans of the first traced round in {trace_path}"}
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"metric {name} {value} {units[name]}{note}")
    print(f"metric fail_frac {fail_frac} ratio  ({runner.failed_any} of {runner.attempted} ops "
          f"failed a check; {runner.failed_unexpected} not explained by a known defect)")
    if args.trace == 0:
        for name, value in wall.items():
            print(f"wall {name} {value} {units[name]}  (as measured, not scaled)")
        for name, value in per_op.items():
            print(f"op {name} {1e3 * value:.3f} ms")
    for name, failures in runner.failures.items():
        op = next(o for o in ops if o.name == name)
        print(f"failed {name} x{runner.fail_counts[name]}: {workloads.describe(op, failures)}")
    result = {
        "correct": runner.failed_unexpected == 0,
        "attempted": runner.attempted,
        "failed": runner.failed_unexpected,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()

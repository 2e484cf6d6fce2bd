"""Self-test of the benchmark.  Run it with

    python3 -m pytest bench/test_bench.py -q -p no:cacheprovider

It runs every workload at tiny sizes and checks that each metric named
in BENCHMARK.json prints with its unit, that every checker counts a
planted wrong answer as a failure, and that the benchmark refuses to run
without the library source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from runner import Runner  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def plant_wrong(answer: dict) -> dict:
    """A wrong answer of the same shape as a real one.

    Every float turns negative and moves by at least 1, every flag flips
    and text gains a byte.
    """
    def wrong(v):
        if isinstance(v, bool):
            return not v
        if isinstance(v, float):
            return -(abs(v) + 1.0)
        if isinstance(v, list):
            return [wrong(x) for x in v]
        if isinstance(v, str):
            return v + " "
        return v

    return {k: wrong(v) for k, v in answer.items()}


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture
def workdir():
    path = ROOT / ".bench_work" / "selftest"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], (int, float))
        assert any(ln.startswith(f"metric {m['name']} ") and f" {m['unit']}" in ln for ln in lines)
    assert any(ln.startswith("metric fail_frac ") for ln in lines)
    assert any(ln.startswith("machine ") for ln in lines)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_planted_wrong_answers_are_counted(workload, workdir):
    workloads.prepare(workload, 5, str(workdir), tiny=True)
    ops = workloads.load(str(workdir))

    honest = Runner(ops)
    honest.round()
    assert honest.failed_unexpected == 0, honest.failures

    for op in ops:
        op.answer = lambda raw, extract=op.answer: plant_wrong(extract(raw))
    planted = Runner(ops)
    planted.round()
    assert planted.failed_any == planted.attempted == len(ops)
    # a wrong answer on an op whose only failure is a known defect would be
    # excused, so every op must also fail a check that is not excused
    assert planted.failed_unexpected == len(ops), sorted(planted.failures)


def test_small_reference_error_is_caught(workdir):
    workloads.prepare("bulk-premium", 5, str(workdir), tiny=True)
    ops = [op for op in workloads.load(str(workdir)) if op.name.startswith("cli/d_small/")]
    state = {"first_text": {}, "round": {}}
    for op in ops:
        answer = op.answer(op.run())
        assert op.check(answer, state) == []
        nudged = dict(answer, value=answer["value"] * (1.0 + 1e-7))
        assert [c for c, _ in op.check(nudged, state)] == ["reference"] + (
            ["generic_route"] if op.name.split("/")[2].startswith(("lpq", "gexpectile")) else []
        )


def test_refuses_to_run_without_the_library(workdir):
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(BENCH, workdir / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "small-n", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=workdir)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

"""The benchmark's three workloads: their seeded inputs, ops and checks.

Each workload is built in two steps.  prepare() runs in a child process
during set-up: it draws every input from the seed, writes the CSV and
knot files, computes the reference answers with bench/oracles.py (and,
where the checks call for it, the library's generic route), and stores
all of it in spec.json.  load() runs in the measuring process: it reads
spec.json back and turns each entry into an Op, so the measured process
never pays for input generation or references.

An op's run() is the only timed call.  answer() pulls the numbers the
checks need out of the raw output, and check() compares them with the
references, returning (check, detail) for every check that failed.
Op.known maps a check name to the known defect it exposes; such a
failure is counted and listed but does not make the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracles

WORKLOADS = ("bulk-premium", "small-n", "dual-certify")

# Every built-in family in the CLI grammar.  The quantile level sits off the
# 1/n grid of every sample size used, so the left quantile is unambiguous.
ALL_SPECS = (
    "gm",
    "power:0.5",
    "power:2",
    "quantile:0.9137331",
    "expectile:0.8",
    "lp:0.7,1.5",
    "lp:0.7,2",
    "lpq:1.5,0.5,2,1",
    "gexpectile:2,1",
)
# Convex, continuous, first knot at x > 0: the file has no "0,y" row, so
# the value at zero is the first knot's level and the conjugate is numeric.
PWL_TEXT = "0.5,0.25\n1,1\n2,3\n4,9\n"

DEFECT_SCALE = (
    "ROADMAP item 2: bisection stops at an absolute width below 1, "
    "so tol is not relative at the 1e-6 scale"
)
DEFECT_HG_FLOOR = (
    "ROADMAP item 2: for Power(p > 1) the HG search stops at its floor "
    "instead of the x -> -inf limit E[X]"
)
DEFECT_DUAL_GAP = (
    "ROADMAP item 4: grid plus pairwise polish can leave gaps above the "
    "1e-3 budget from n = 3 up (seen: 1.8e-3 at n = 3, 4e-3 at n = 4)"
)

CLI_RTOL = 1e-9  # closed forms and tightly bisected routes
GENERIC_RTOL = 1e-8  # routes that bisect to the CLI's default tol of 1e-10
HOMOGENEITY_RTOL = 1e-9  # ten times the CLI's default tol
GAP_BUDGET = 1e-3
PENALTY_AGREEMENT = 1e-4
SUITE_SEED = 7


@dataclass
class Op:
    name: str
    kind: str
    items: int
    run: Callable[[], object]
    answer: Callable[[object], dict]
    check: Callable[[dict, dict], list]
    known: dict = field(default_factory=dict)


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# prepare: seeded inputs and references (runs in a set-up child process)
# ---------------------------------------------------------------------------


def _write_csv(path: str, values, probs=None) -> None:
    if probs is None:
        body = "\n".join(map(repr, values.tolist()))
    else:
        body = "\n".join(f"{v!r},{p!r}" for v, p in zip(values.tolist(), probs.tolist()))
    with open(path, "w") as fh:
        fh.write(body + "\n")


def _write_pwl(workdir: str) -> str:
    path = os.path.join(workdir, "convex.pwl")
    with open(path, "w") as fh:
        fh.write(PWL_TEXT)
    return f"pwl:{path}"


def _small_rv(rng: np.random.Generator, n: int, lo: float, hi: float) -> tuple[list, list]:
    values = np.round(rng.uniform(lo, hi, n), 6)
    probs = rng.dirichlet(np.full(n, 2.0))
    return values.tolist(), probs.tolist()


def _prepare_bulk(rng, workdir, tiny):
    from orlicz import orlicz_premium, rv
    from orlicz.cli import parse_phi_spec

    small, mid, big = (300, 600, 1000) if tiny else (10**4, 10**5, 10**6)
    pwl = _write_pwl(workdir)

    files = {}

    def add(name, n, dist=False, values=None):
        v = rng.lognormal(0.0, 1.5, n) if values is None else values
        p = None
        if dist:
            w = rng.uniform(0.5, 1.5, n)
            p = w / w.sum()
        path = os.path.join(workdir, name + ".csv")
        _write_csv(path, v, p)
        files[name] = (path, v, np.full(n, 1.0 / n) if p is None else p)
        return v

    base = add("s_small", small)
    add("d_small", small, dist=True)
    add("s_small_x1e-6", small, values=base * 1e-6)
    add("s_small_x1e6", small, values=base * 1e6)
    add("s_mid", mid)
    add("d_mid", mid, dist=True)
    add("ties", mid, values=np.maximum(np.round(rng.lognormal(0.0, 1.5, mid), 1), 0.1))
    add("s_big", big)

    plan = [("s_small", s) for s in ALL_SPECS + (pwl,)]
    plan += [("d_small", s) for s in ("gm", "quantile:0.9137331", "expectile:0.8",
                                      "lp:0.7,1.5", "lpq:1.5,0.5,2,1")]
    scaled = ("power:2", "expectile:0.8", "lp:0.7,1.5", "lpq:1.5,0.5,2,1", "gexpectile:2,1")
    plan += [(f, s) for f in ("s_small_x1e-6", "s_small_x1e6") for s in scaled]
    plan += [("s_small_x1e-6", pwl)]
    plan += [("s_mid", s) for s in ("power:2", "quantile:0.9137331")]
    plan += [("d_mid", "expectile:0.8")]
    plan += [("ties", s) for s in ("quantile:0.9137331", "expectile:0.8")]
    plan += [("s_big", "expectile:0.8")]

    ops = []
    for fname, spec in plan:
        path, v, p = files[fname]
        label = "pwl" if spec == pwl else spec
        entry = {
            "name": f"cli/{fname}/{label}",
            "kind": "cli",
            "items": int(v.size),
            "spec": spec,
            "path": path,
            "min": float(v.min()),
            "max": float(v.max()),
            "known": {},
        }
        if "_x1e" in fname:
            entry["base"] = f"cli/s_small/{label}"
            entry["scale"] = 1e-6 if fname.endswith("1e-6") else 1e6
            if fname.endswith("1e-6") and spec.split(":")[0] in ("lp", "lpq", "pwl"):
                entry["known"]["homogeneity"] = DEFECT_SCALE
        else:
            entry["ref"] = oracles.premium(spec, v, p)
            entry["rtol"] = GENERIC_RTOL if spec == pwl else CLI_RTOL
            if spec.split(":")[0] in ("lpq", "gexpectile"):
                X = rv(v.tolist(), p.tolist())
                entry["generic"] = orlicz_premium(parse_phi_spec(spec), X, route="generic").value
        ops.append(entry)
    # the same invocation once more: its stdout must be byte-identical
    ops.append(dict(ops[2], name="cli/s_small/power:2/repeat", repeat_of=ops[2]["name"]))
    return ops


HG_FAMILIES = (
    "power:1",
    "power:2",
    "expectile:0.8",
    "lpq:1.5,0.5,1,1",
    "gm",
    "power:0.5",
    "expectile:0.3",
    "quantile:0.7",
    "lp:0.7,2",
    "gexpectile:2,1",
)
HG_SIZES = tuple(range(2, 9))
# The lpq HG search costs about 0.2 s, seven times a cheap family's, so it
# runs at two sizes; every other family runs at every size.  Many cheap
# ops keep op_p50_ms and op_tail_ms off the gaps between a few ops whose
# cost depends on the seed.
HG_SIZES_LPQ = (5, 8)
HG_LARGE = ((100, ("power:1", "expectile:0.8")), (1000, ("power:1",)))
SUITE_TRIALS = {"axioms": 40, "convexity": 10, "gg-convexity": 2, "collapse": 30, "cxls": 40}


def _hg_entry(name, spec, values, probs):
    entry = {
        "name": name,
        "kind": "hg",
        "items": 1,
        "spec": spec,
        "values": values,
        "probs": probs,
        "min": min(values),
        "premium": oracles.premium(spec, values, probs),
        "known": {},
    }
    head, args = oracles.parse_spec(spec)
    if head == "power" and args[0] >= 1.0:
        entry["mean"] = oracles.hg_power_one(values, probs)
        if args[0] > 1.0:
            entry["known"]["power_mean"] = DEFECT_HG_FLOOR
    return entry


def _prepare_small(rng, workdir, tiny):
    ops = []
    for spec in HG_FAMILIES:
        sizes = HG_SIZES_LPQ if spec.startswith("lpq") else HG_SIZES
        for n in (2, 3) if tiny else sizes:
            ops.append(_hg_entry(f"hg/n{n}/{spec}", spec, *_small_rv(rng, n, 0.2, 5.0)))
    if not tiny:
        for n, specs in HG_LARGE:
            for spec in specs:
                ops.append(_hg_entry(f"hg/n{n}/{spec}", spec, *_small_rv(rng, n, 0.2, 5.0)))
    pinned = _hg_entry("hg/pinned/gm", "gm", [0.5, 2.0], [0.5, 0.5])
    pinned["pinned"] = 0.5
    ops.append(pinned)
    for suite, trials in SUITE_TRIALS.items():
        ops.append({
            "name": f"suite/{suite}",
            "kind": "suite",
            "items": 1,
            "suite": suite,
            "trials": 2 if tiny else trials,
            "seed": SUITE_SEED,
            "known": {},
        })
    return ops


ARITH_SPECS = ("power:2", "expectile:0.8", "lpq:1.5,0.5,1,1", "lpq:2,0,2,1")
# (n, grid step or None for the library default, families).  All four
# families run at n = 2; above it the cheap closed-form power:2 and kinked
# lpq:2,0,2,1 run at every size, and the golden-searched expectile and
# kinked lpq:1.5,0.5,1,1 (0.15-0.3 s each) once each, at n = 4 and on the
# multistart path at n = 6.
ARITH_PLAN = (
    (2, 0.01, ARITH_SPECS),
    (3, 0.01, ("power:2", "lpq:2,0,2,1")),
    (4, None, ("power:2", "lpq:2,0,2,1", "expectile:0.8")),
    (6, None, ("power:2", "lpq:2,0,2,1", "lpq:1.5,0.5,1,1")),
)
GEOM_PLAN = ((2, 0.05), (3, 0.1))  # (n, grid step), for gm
PENALTY_SPECS = ("power:2", "power:3", "expectile:0.8", "lpq:1.5,0.5,1,1", "lpq:2,0,2,1")


def _dual_entry(name, spec, kind, n, step, rng):
    values, probs = _small_rv(rng, n, 0.3, 3.0)
    entry = {
        "name": name,
        "kind": "dual",
        "items": 1,
        "spec": spec,
        "cert": kind,
        "grid_step": step,
        "values": values,
        "probs": probs,
        "primal": oracles.premium(spec, values, probs),
        "known": {},
    }
    if n >= 3:
        entry["known"]["gap_budget"] = DEFECT_DUAL_GAP
    return entry


def _prepare_dual(rng, workdir, tiny):
    pwl = _write_pwl(workdir)
    ops = []
    for n, step, specs in ARITH_PLAN[:1] if tiny else ARITH_PLAN:
        for spec in specs[:2] if tiny else specs:
            ops.append(_dual_entry(f"dual/arith/n{n}/{spec}", spec, "arithmetic", n, step, rng))
    # Geometric certificates run for gm only.  One for power:2 takes 1.1-1.8 s
    # at n = 2 and one for gexpectile 0.2-0.7 s, depending on the data
    # (2-core Xeon VM), against about 1.4 s for the rest of a round.
    for n, step in GEOM_PLAN[:1] if tiny else GEOM_PLAN:
        ops.append(_dual_entry(f"dual/geom/n{n}/gm", "gm", "geometric", n, step, rng))
    # the pwl's numeric conjugate runs at n = 2 only: 0.3 s at n = 4
    for n, specs in ((2, PENALTY_SPECS[:1] + (pwl,)),) if tiny else (
            (2, PENALTY_SPECS + (pwl,)), (3, PENALTY_SPECS), (4, PENALTY_SPECS)):
        for spec in specs:
            probs = rng.dirichlet(np.ones(n))
            draw = rng.uniform(0.2, 3.0, n)
            label = "pwl" if spec == pwl else spec
            ops.append({
                "name": f"penalty/n{n}/{label}",
                "kind": "penalty",
                "items": 1,
                "spec": spec,
                "probs": probs.tolist(),
                "density": (draw / float(probs @ draw)).tolist(),
                "known": {},
            })
    for n, step in ((2, 0.1),) if tiny else ((2, 0.01), (3, 0.05)):
        probs = rng.dirichlet(np.full(n, 4.0))
        draw = rng.uniform(0.5, 2.0, n)
        ops.append({
            "name": f"bridge/n{n}/power:2",
            "kind": "bridge",
            "items": 1,
            "spec": "power:2",
            "probs": probs.tolist(),
            "density": (draw / float(probs @ draw)).tolist(),
            "grid_step": step,
            "known": {},
        })
    # hg_dual_check runs for expectile only: for the kinked lpq it takes 0.2-0.5 s
    values, probs = _small_rv(rng, 2, 0.3, 3.0)
    ops.append({
        "name": "hg-dual/n2/expectile:0.8",
        "kind": "hg_dual",
        "items": 1,
        "spec": "expectile:0.8",
        "values": values,
        "probs": probs,
        "grid_step": 0.05 if tiny else 0.01,
        "known": {},
    })
    return ops


def prepare(workload: str, seed: int, workdir: str, tiny: bool = False) -> None:
    """Draw every input from the seed and write files and spec.json."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    build = {"bulk-premium": _prepare_bulk, "small-n": _prepare_small, "dual-certify": _prepare_dual}
    ops = build[workload](rng, workdir, tiny)
    with open(os.path.join(workdir, "spec.json"), "w") as fh:
        json.dump({"workload": workload, "seed": seed, "tiny": tiny, "ops": ops}, fh)


# ---------------------------------------------------------------------------
# load: ops for the measuring process
# ---------------------------------------------------------------------------


def _cli_op(e: dict) -> Op:
    import orlicz.cli

    argv = ["premium", "--phi", e["spec"], "--data", e["path"]]

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = orlicz.cli.main(argv)
        return rc, out.getvalue()

    def answer(raw):
        rc, text = raw
        value = json.loads(text)["result"]["value"] if rc == 0 else None
        return {"rc": rc, "value": value, "text": text}

    def check(a, state):
        if a["rc"] != 0:
            return [("exit_code", f"exit code {a['rc']}")]
        v = a["value"]
        # H(X) >= min X because Phi > 1 beyond 1; H(X) <= max X because Phi <= 1 on [0, 1]
        bad = []
        if not e["min"] * (1 - 1e-12) <= v <= e["max"] * (1 + 1e-12):
            bad.append(("bracket", f"{v!r} outside [min X, max X] = [{e['min']!r}, {e['max']!r}]"))
        if "ref" in e and not _close(v, e["ref"], e["rtol"]):
            bad.append(("reference", f"{v!r} vs reference {e['ref']!r}"))
        if "generic" in e and not _close(v, e["generic"], GENERIC_RTOL):
            bad.append(("generic_route", f"{v!r} vs route=generic {e['generic']!r}"))
        if "base" in e:
            base = state["round"].get(e["base"], {}).get("value")
            want = None if base is None else e["scale"] * base
            if want is None or not _close(v, want, HOMOGENEITY_RTOL):
                bad.append(("homogeneity", f"{v!r} vs scaled base {want!r}"))
        if "repeat_of" in e and a["text"] != state["round"].get(e["repeat_of"], {}).get("text"):
            bad.append(("byte_identical", f"stdout differs from {e['repeat_of']}"))
        if a["text"] != state["first_text"].setdefault(e["name"], a["text"]):
            bad.append(("byte_identical", "stdout differs from the first round"))
        return bad

    return Op(e["name"], "cli", e["items"], run, answer, check)


def _hg_op(e: dict) -> Op:
    import orlicz.hg
    from orlicz.cli import parse_phi_spec
    from orlicz.prob import rv

    X = rv(e["values"], e["probs"])
    spec = e["spec"]

    def run():
        return orlicz.hg.hg_risk_measure(parse_phi_spec(spec), X)

    def check(a, state):
        rho = a["value"]
        bad = []
        if rho < e["min"] - 1e-12 * max(1.0, e["min"]):
            bad.append(("lower_bound", f"rho {rho!r} < min X {e['min']!r}"))
        if rho > e["premium"] * (1.0 + 1e-9) + 1e-12:
            bad.append(("upper_bound", f"rho {rho!r} > H(X) {e['premium']!r}"))
        if "mean" in e and not _close(rho, e["mean"], 1e-9):
            bad.append(("power_mean", f"rho {rho!r} vs E[X] {e['mean']!r}"))
        if "pinned" in e and abs(rho - e["pinned"]) > 1e-6:
            bad.append(("pinned", f"rho {rho!r} vs {e['pinned']!r}"))
        return bad

    return Op(e["name"], "hg", 1, run, lambda r: {"value": r.value}, check)


def _suite_op(e: dict) -> Op:
    import orlicz.properties

    def run():
        return orlicz.properties.run_suite(e["suite"], trials=e["trials"], seed=e["seed"])

    def answer(r):
        return {"passed": r.passed, "failures": len(r.failures)}

    def check(a, state):
        if a["passed"] and a["failures"] == 0:
            return []
        return [("all_passed", f"{a['failures']} failures")]

    return Op(e["name"], "suite", 1, run, answer, check)


def _dual_op(e: dict) -> Op:
    import orlicz.duality
    from orlicz.cli import parse_phi_spec
    from orlicz.prob import rv

    X = rv(e["values"], e["probs"])
    vals = np.asarray(e["values"])
    probs = np.asarray(e["probs"])

    def run():
        phi = parse_phi_spec(e["spec"])
        return orlicz.duality.dual_search(phi, X, kind=e["cert"], grid_step=e["grid_step"])

    def answer(c):
        return {"bound": c.lower_bound, "penalty": c.penalty, "density": list(c.measure.density)}

    def check(a, state):
        bound, pen = a["bound"], a["penalty"]
        q = probs * np.asarray(a["density"])
        if e["cert"] == "arithmetic":
            recomputed = pen * math.fsum(q * vals)
        else:
            recomputed = pen * math.exp(math.fsum(q * np.log(vals))) if pen > 0 else 0.0
        primal = e["primal"]
        bad = []
        if not 0.0 <= pen <= 1.0:
            bad.append(("penalty_range", f"penalty {pen!r}"))
        if not _close(bound, recomputed, 1e-9):
            bad.append(("certificate", f"bound {bound!r} vs penalty * E_Q {recomputed!r}"))
        if bound > primal + 1e-9 * max(1.0, primal):
            bad.append(("weak_duality", f"bound {bound!r} > primal {primal!r}"))
        if primal - bound > GAP_BUDGET:
            bad.append(("gap_budget", f"gap {primal - bound:.3e} > {GAP_BUDGET}"))
        return bad

    return Op(e["name"], "dual", 1, run, answer, check)


def _measure(e: dict):
    from orlicz.prob import FiniteProbabilitySpace, MeasureChange

    return MeasureChange(FiniteProbabilitySpace(tuple(e["probs"])), tuple(e["density"]))


def _penalty_op(e: dict) -> Op:
    import orlicz.duality
    from orlicz.cli import parse_phi_spec

    Q = _measure(e)

    def run():
        phi = parse_phi_spec(e["spec"])
        return orlicz.duality.beta_primal(phi, Q), orlicz.duality.beta_conjugate(phi, Q)

    def check(a, state):
        bp, bc = a["primal"], a["conjugate"]
        bad = []
        if not (0.0 <= bp <= 1.0 and 0.0 <= bc <= 1.0):
            bad.append(("penalty_range", f"beta {bp!r}, {bc!r}"))
        if abs(bp - bc) > PENALTY_AGREEMENT:
            bad.append(("route_agreement", f"|{bp!r} - {bc!r}| > {PENALTY_AGREEMENT}"))
        return bad

    return Op(e["name"], "penalty", 1, run, lambda r: {"primal": r[0], "conjugate": r[1]}, check)


def _bridge_op(e: dict) -> Op:
    import orlicz.duality
    from orlicz.cli import parse_phi_spec

    R = _measure(e)
    step = e["grid_step"]

    def run():
        return orlicz.duality.alpha_bridge_report(parse_phi_spec(e["spec"]), R, grid_step=step)

    def answer(r):
        return {"bridge": r.bridge_value, "direct": r.direct_value,
                "gap": r.reported_gap, "within": r.within_gap}

    def check(a, state):
        if a["within"] and abs(a["direct"] - a["bridge"]) <= a["gap"] <= 5.0 * step + 1e-15:
            return []
        return [("within_gap", f"|{a['direct']!r} - {a['bridge']!r}| vs gap {a['gap']!r}")]

    return Op(e["name"], "bridge", 1, run, answer, check)


def _hg_dual_op(e: dict) -> Op:
    import orlicz.duality
    from orlicz.cli import parse_phi_spec
    from orlicz.prob import rv

    X = rv(e["values"], e["probs"])
    step = e["grid_step"]

    def run():
        return orlicz.duality.hg_dual_check(parse_phi_spec(e["spec"]), X, grid_step=step)

    def answer(r):
        return {"agrees": r.agrees, "gap": r.gap, "primal": r.primal}

    def check(a, state):
        if a["agrees"] and abs(a["gap"]) <= 2.0 * step * max(1.0, abs(a["primal"])):
            return []
        return [("agrees", f"gap {a['gap']!r} at grid step {step}")]

    return Op(e["name"], "hg_dual", 1, run, answer, check)


BUILDERS = {
    "cli": _cli_op,
    "hg": _hg_op,
    "suite": _suite_op,
    "dual": _dual_op,
    "penalty": _penalty_op,
    "bridge": _bridge_op,
    "hg_dual": _hg_dual_op,
}


def load(workdir: str) -> list[Op]:
    """Ops from a prepared spec.json, in their fixed round order."""
    with open(os.path.join(workdir, "spec.json")) as fh:
        spec = json.load(fh)
    ops = []
    for e in spec["ops"]:
        op = BUILDERS[e["kind"]](e)
        op.known = e["known"]
        ops.append(op)
    return ops


def first_of_each_kind(ops: list[Op]) -> list[Op]:
    """One cheap op per kind, to warm lazy imports and caches before timing."""
    seen: dict[str, Op] = {}
    for op in ops:
        seen.setdefault(op.kind, op)
    return list(seen.values())


def describe(op: Op, failures: list) -> str:
    """One line naming each failed check, its detail and any known defect."""
    parts = []
    for name, detail in failures:
        tag = f" [known defect: {op.known[name]}]" if name in op.known else ""
        parts.append(f"{name}: {detail[:160]}{tag}")
    return "; ".join(parts)

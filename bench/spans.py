"""Timing wrappers at the library's module boundaries, for traced runs only.

install() replaces public functions and class methods at the import
sites the modules call through (for example orlicz.hg.orlicz_premium,
the name hg.py looks up, rather than only orlicz.premium's own) with
wrappers that record one span per call: name, start, end, parent span
and op id.  uninstall() puts the originals back, so untraced rounds run
the library exactly as shipped.  Nothing under src/ is edited.

Spans stay in memory.  After each op, add_op() folds that op's spans
into the per-layer totals; the spans of the first traced round are kept
and written out when the run ends.

A span's self time is its duration minus the time covered by its direct
children.  Layer time metrics of leaf layers (cli, prob, functions,
search) and the *.self_s metrics are self times; per-call-kind times of
upper layers (premium routes, duality calls, property suites) include
their children.  See bench/README.md for the metric table.
"""

from __future__ import annotations

import time
from collections import defaultdict

SUITES = ("axioms", "convexity", "gg-convexity", "collapse", "cxls")
ROUTES = (
    "generic",
    "closed_form:degenerate",
    "closed_form:gm",
    "closed_form:power",
    "closed_form:quantile",
    "closed_form:expectile",
    "closed_form:lp_quantile",
    "closed_form:lpq_quantile",
    "closed_form:geometric_expectile",
    "other",
)


def _route_key(route: str) -> str:
    return route.replace(":", ".")


def layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in print order."""
    names = [
        ("cli.load_data_s", "s"),
        ("cli.rows", "count"),
        ("cli.emit_s", "s"),
        ("prob.construct_calls", "count"),
        ("prob.construct_s", "s"),
        ("prob.distribution_of_s", "s"),
        ("functions.eval_array_calls", "count"),
        ("functions.eval_array_points", "count"),
        ("functions.eval_array_s", "s"),
        ("functions.conjugate_calls", "count"),
        ("functions.conjugate_s", "s"),
        ("premium.calls", "count"),
        ("premium.self_s", "s"),
    ]
    for r in ROUTES:
        names += [(f"premium.route.{_route_key(r)}.calls", "count"),
                  (f"premium.route.{_route_key(r)}.s", "s")]
    names += [
        ("premium.phi_moment_calls", "count"),
        ("premium.finish_nudges", "count"),
        ("premium.reported_iterations", "count"),
        ("premium.hidden_bisections", "count"),
        ("search.bisect_calls", "count"),
        ("search.golden_calls", "count"),
        ("search.objective_evals", "count"),
        ("search.s", "s"),
        ("hg.calls", "count"),
        ("hg.self_s", "s"),
        ("hg.premium_evals", "count"),
        ("hg.extensions", "count"),
        ("hg.floor_active", "count"),
        ("duality.dual_search_s", "s"),
        ("duality.beta_conjugate_calls", "count"),
        ("duality.beta_conjugate_s", "s"),
        ("duality.beta_primal_calls", "count"),
        ("duality.beta_primal_s", "s"),
        ("duality.alpha_penalty_calls", "count"),
        ("duality.alpha_penalty_s", "s"),
        ("duality.penalty_calls_per_cert", "calls/cert"),
        ("duality.gap_max", "abs"),
    ]
    names += [(f"properties.suite_s.{s}", "s") for s in SUITES]
    names += [
        ("properties.witness_s", "s"),
        ("properties.premium_calls", "count"),
        ("trace.overhead_frac", "ratio"),
    ]
    return names


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op, info]
        self.stack: list[int] = []
        self.op = ""
        self.totals: dict[str, float] = defaultdict(float)
        self.gap_max = 0.0
        self.certs = 0
        self.cert_penalty_calls = 0
        self.kept: list[tuple] = []
        self.keep = False
        self._saved: list[tuple] = []

    # -- wrappers -------------------------------------------------------

    def _wrap(self, name, fn, info=None, counts_objective=False):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if counts_objective and stack and tracer.spans[stack[-1]][0].startswith("search."):
                return fn(*args, **kwargs)  # golden_min delegating to golden_max
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            if counts_objective:
                evals = [0]
                objective = args[0]

                def counted(*a):
                    evals[0] += 1
                    return objective(*a)

                args = (counted,) + args[1:]
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                rec[1] = t0
                stack.pop()
            if counts_objective:
                rec[5] = evals[0]
            elif info is not None:
                rec[5] = info(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, name, **kw) -> None:
        is_dict = isinstance(owner, dict)
        orig = owner[attr] if is_dict else owner.__dict__[attr]
        if isinstance(orig, classmethod):
            new = classmethod(self._wrap(name, orig.__func__, **kw))
        else:
            new = self._wrap(name, orig, **kw)
        self._saved.append((owner, attr, orig))
        if is_dict:
            owner[attr] = new
        else:
            setattr(owner, attr, new)

    def install(self) -> None:
        import orlicz.cli as cli
        import orlicz.duality as duality
        import orlicz.functions as functions
        import orlicz.hg as hg
        import orlicz.premium as premium
        import orlicz.prob as prob
        import orlicz.properties as properties
        import orlicz.search as search

        P = self._patch
        P(cli, "load_data", "cli.load_data", info=lambda a, X: X.space.n)
        P(cli, "_emit", "cli.emit")
        for owner in (cli, hg, properties):
            P(owner, "rv", "prob.construct")
        P(prob.FiniteProbabilitySpace, "__init__", "prob.construct")
        P(prob.RandomVariable, "__init__", "prob.construct")
        P(prob.DiscreteDistribution, "from_pairs", "prob.construct")
        for owner in (premium, properties):
            P(owner, "distribution_of", "prob.distribution_of")
        for cls in functions.BUILTIN_FAMILIES:
            P(cls, "eval_array", "functions.eval_array", info=lambda a, out: out.size)
        for owner in (duality, cli):
            P(owner, "conjugate", "functions.conjugate")
        premium_info = lambda a, r: (r.route, r.iterations, r.value)  # noqa: E731
        for owner in (premium, hg, properties, cli):
            P(owner, "orlicz_premium", "premium.orlicz_premium", info=premium_info)
        P(premium, "phi_moment", "premium.phi_moment")
        for attr in ("bisect_smallest_feasible", "bisect_root_decreasing"):
            P(premium, attr, "search.bisect", counts_objective=True)
        for owner, attr in ((hg, "golden_min"), (duality, "golden_max"),
                            (duality, "golden_min"), (search, "golden_max")):
            P(owner, attr, "search.golden", counts_objective=True)
        hg_info = lambda a, r: (r.extensions, r.floor_active)  # noqa: E731
        for owner in (hg, cli):
            P(owner, "hg_risk_measure", "hg.hg_risk_measure", info=hg_info)
        P(duality, "dual_search", "duality.dual_search", info=lambda a, c: c.lower_bound)
        for attr in ("beta_conjugate", "beta_primal", "alpha_penalty"):
            P(duality, attr, f"duality.{attr}")
        for suite in SUITES:
            P(properties.SUITES, suite, f"properties.suite.{suite}")
        P(properties, "find_convexity_witness", "properties.witness")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)

    # -- aggregation ----------------------------------------------------

    def add_op(self) -> None:
        """Fold the finished op's spans into the totals and clear them."""
        spans, self.spans = self.spans, []
        if self.keep:
            self.kept.extend(tuple(s[:5]) for s in spans)
        n = len(spans)
        child_time = [0.0] * n
        moments = [0] * n  # direct phi_moment children
        sub_bisect = [0] * n  # bisection steps in the subtree
        sub_premium = [0] * n  # premium calls in the subtree
        sub_penalty = [0] * n  # beta/alpha calls in the subtree
        child_value = [None] * n  # value of the last direct premium child
        for i in range(n - 1, -1, -1):  # children start after their parent
            name, t0, t1, parent, _, info = spans[i]
            own = sub_bisect[i] + (info if name == "search.bisect" else 0)
            prem = sub_premium[i] + (name == "premium.orlicz_premium")
            pen = sub_penalty[i] + (name in ("duality.beta_conjugate", "duality.alpha_penalty"))
            if parent >= 0:
                child_time[parent] += t1 - t0
                sub_bisect[parent] += own
                sub_premium[parent] += prem
                sub_penalty[parent] += pen
                if name == "premium.phi_moment":
                    moments[parent] += 1
                if name == "premium.orlicz_premium" and child_value[parent] is None:
                    child_value[parent] = info[2]
        T = self.totals
        for i, (name, t0, t1, parent, _, info) in enumerate(spans):
            dur = t1 - t0
            self_t = dur - child_time[i]
            if name == "cli.load_data":
                T["cli.load_data_s"] += self_t
                T["cli.rows"] += info or 0
            elif name == "cli.emit":
                T["cli.emit_s"] += self_t
            elif name == "prob.construct":
                T["prob.construct_calls"] += 1
                T["prob.construct_s"] += self_t
            elif name == "prob.distribution_of":
                T["prob.distribution_of_s"] += dur
            elif name == "functions.eval_array":
                T["functions.eval_array_calls"] += 1
                T["functions.eval_array_points"] += info or 0
                T["functions.eval_array_s"] += self_t
            elif name == "functions.conjugate":
                T["functions.conjugate_calls"] += 1
                T["functions.conjugate_s"] += self_t
            elif name == "premium.orlicz_premium":
                T["premium.calls"] += 1
                T["premium.self_s"] += self_t
                if info is None:  # the call raised
                    continue
                route, iterations, _ = info
                key = _route_key(route if route in ROUTES else "other")
                T[f"premium.route.{key}.calls"] += 1
                T[f"premium.route.{key}.s"] += dur
                T["premium.reported_iterations"] += iterations
                if route.startswith("closed_form:") and route != "closed_form:degenerate":
                    T["premium.finish_nudges"] += max(moments[i] - 1, 0)
                if iterations == 0:
                    T["premium.hidden_bisections"] += sub_bisect[i]
            elif name == "premium.phi_moment":
                T["premium.phi_moment_calls"] += 1
            elif name.startswith("search."):
                kind = "bisect" if name == "search.bisect" else "golden"
                T[f"search.{kind}_calls"] += 1
                T["search.objective_evals"] += info or 0
                T["search.s"] += self_t
            elif name == "hg.hg_risk_measure":
                T["hg.calls"] += 1
                T["hg.self_s"] += self_t
                T["hg.premium_evals"] += sub_premium[i]
                if info is not None:
                    T["hg.extensions"] += info[0]
                    T["hg.floor_active"] += bool(info[1])
            elif name == "duality.dual_search":
                T["duality.dual_search_s"] += dur
                self.certs += 1
                self.cert_penalty_calls += sub_penalty[i]
                if info is not None and child_value[i] is not None:
                    self.gap_max = max(self.gap_max, child_value[i] - info)
            elif name.startswith("duality."):
                T[f"{name}_calls"] += 1
                T[f"{name}_s"] += dur
            elif name.startswith("properties.suite."):
                T["properties.suite_s." + name[len("properties.suite."):]] += dur
                T["properties.premium_calls"] += sub_premium[i]
            elif name == "properties.witness":
                T["properties.witness_s"] += dur

    def metrics(self, rounds: int, overhead_frac: float) -> dict[str, float]:
        """Per-round layer metrics; counts come out as exact integers."""
        out = {}
        for name, unit in layer_metric_names():
            if unit == "count":
                total = self.totals.get(name, 0)
                out[name] = int(total) // rounds if int(total) % rounds == 0 else total / rounds
            else:
                out[name] = self.totals.get(name, 0.0) / rounds
        out["duality.penalty_calls_per_cert"] = (
            self.cert_penalty_calls / self.certs if self.certs else 0.0
        )
        out["duality.gap_max"] = self.gap_max
        out["trace.overhead_frac"] = overhead_frac
        return out

    def write_kept(self, path: str) -> None:
        """Tab-separated spans of the first traced round, times in microseconds."""
        with open(path, "w") as fh:
            fh.write("op\tspan\tparent\tname\tstart_us\tdur_us\n")
            base = self.kept[0][1] if self.kept else 0.0
            index = 0
            current_op = None
            for name, t0, t1, parent, op in self.kept:
                if op != current_op:
                    current_op, index = op, 0
                fh.write(f"{op}\t{index}\t{parent}\t{name}\t"
                         f"{(t0 - base) * 1e6:.1f}\t{(t1 - t0) * 1e6:.1f}\n")
                index += 1

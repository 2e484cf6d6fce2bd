"""Command-line front end.

Five subcommands: premium, hg, dual-verify, conjugate, properties.
Output is a deterministic JSON envelope {command, inputs, result,
diagnostics} with sorted keys, so runs are byte-identical given the
same inputs.  Exit codes: 0 ok, 1 computation failed, 2 bad input,
3 property suite reported failures.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import stat
import sys
from dataclasses import fields
from typing import Optional, Sequence

import numpy as np

from .base import OrliczError
from .duality import dual_search
from .functions import FAMILIES, OrliczFunction, conjugate, piecewise_linear_from_text
from .hg import hg_risk_measure
from .premium import orlicz_premium
from .prob import DiscreteDistribution, as_random_variable, rv
from .properties import DEFAULT_TRIALS, SUITES, run_suite


class InputError(Exception):
    pass


PHI_GRAMMAR = (
    "gm | power:P | quantile:A | expectile:A | lp:A,P | lpq:A,B,P,Q | "
    "gexpectile:A,B | pwl:PATH"
)


def parse_phi_spec(text: str) -> OrliczFunction:
    """Build a function family from its compact spec string."""
    head, _, tail = text.strip().partition(":")
    try:
        if head == "pwl":
            with open(tail) as fh:
                return piecewise_linear_from_text(fh.read())
        args = [float(a) for a in tail.split(",")] if tail else []
        cls = FAMILIES.get(head)
        if cls is not None and len(args) == len(fields(cls)):
            return cls(*args)
    except (ValueError, OSError) as exc:
        raise InputError(f"bad phi spec {text!r}: {exc}") from None
    raise InputError(f"bad phi spec {text!r}; grammar: {PHI_GRAMMAR}")


def _numeric(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _cells(row: list[str]) -> list[str]:
    return [c for c in map(str.strip, row) if c]


def _convert(rows, fmt: str, values: list[float], probs: list[float]) -> Optional[Exception]:
    """Append each row's numbers in file order; return the first bad row's error.

    float() ignores the surrounding whitespace that strip() removes, so a
    row whose cells all convert as they stand skips the stripping; any
    other row is stripped first, which keeps the error texts.
    """
    try:
        if fmt != "dist":
            for row in rows:
                if len(row) == 1:
                    try:
                        values.append(float(row[0]))
                        continue
                    except ValueError:
                        pass
                cells = _cells(row)
                if cells:
                    values.append(float(cells[0]))
            return None
        for row in rows:
            if len(row) == 2:
                try:
                    v, p = float(row[0]), float(row[1])
                    values.append(v)
                    probs.append(p)
                    continue
                except ValueError:
                    pass
            cells = _cells(row)
            if not cells:
                continue
            if len(cells) < 2:
                raise InputError(f"dist rows need value,probability: {cells!r}")
            v, p = float(cells[0]), float(cells[1])
            values.append(v)
            probs.append(p)
    except UnicodeDecodeError:  # a ValueError, but a read error
        raise
    except (ValueError, InputError) as exc:
        return exc
    return None


_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def _file_name(path: str, fh) -> Optional[str]:
    """An absolute name for fh's regular file if path still names it, else None.

    numpy's loader opens a name ending in a compression suffix with that
    decompressor, and fetches a name that reads as a URL, so it gets the
    absolute name, and never one with such a suffix.
    """
    if path.endswith(_COMPRESSED):
        return None
    try:
        opened, named = os.fstat(fh.fileno()), os.stat(path)
        name = os.path.abspath(path)
    except OSError:
        return None
    return name if stat.S_ISREG(opened.st_mode) and os.path.samestat(opened, named) else None


def _table(fh, path: str, skip: int, fmt: str) -> Optional[np.ndarray]:
    """The data columns from numpy's C reader, or None if it refuses the file.

    numpy reads the file from its start and passes over its first skip
    lines, which end with the header.  Where path still names the open
    regular file, numpy opens it by name and reads it in large chunks;
    otherwise it reads the open handle line by line.  Either way it splits
    lines at LF, CR and CRLF, as the csv reader does.  Every cell must
    parse as a float, so a quoted or empty cell, a whitespace-only row or
    a change in the column count sends the file to the row reader; on the
    files numpy accepts, both readers give the same rows and floats.
    """
    name = _file_name(path, fh)
    fh.seek(0)
    try:
        table = np.loadtxt(
            fh if name is None else name,
            delimiter=",",
            comments=None,
            skiprows=skip,
            ndmin=2,
            encoding="utf-8",
        )
    except ValueError:
        return None
    width = 2 if fmt == "dist" else 1
    return table[:, :width] if table.shape[1] >= width else None


def load_data(path: str, fmt: str = "auto"):
    """Read a CSV of outcomes as a random variable.

    dist format has value,probability rows; sample format has one value
    per row (uniform weights).  auto picks dist when the first data row
    has two or more cells.  Blank rows are skipped, and so is the first
    non-blank row if its first cell is not a number (a header).  The file
    is read as UTF-8.

    The csv reader reads the head of the file to find the header and the
    format.  If the file can seek, numpy's C reader then reads the data
    rows in one call (see _table), and the sample column or the pairs
    go to the law as arrays.  Where numpy refuses the file, or the file
    is a pipe, the row reader reads it instead, in file order, so the
    first bad row is the one reported; it reads the file to its end
    first, as a read error outranks a bad row.
    """
    values: list[float] = []
    probs: list[float] = []
    first: Optional[list[str]] = None
    table: Optional[np.ndarray] = None
    error: Optional[Exception] = None
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = csv.reader(fh)
            first = next((c for c in map(_cells, rows) if c), None)
            skip = 0
            if first is not None and not _numeric(first[0]):
                skip = rows.line_num
                first = next((c for c in map(_cells, rows) if c), None)
            if first is not None:
                if fmt == "auto":
                    fmt = "dist" if len(first) >= 2 else "sample"
                if fh.seekable():
                    consumed = rows.line_num
                    table = _table(fh, path, skip, fmt)
                    if table is None:  # _table moved the handle: reread the head
                        fh.seek(0)
                        rows = csv.reader(fh)
                        next(_ for _ in rows if rows.line_num >= consumed)
                if table is None:
                    error = _convert(itertools.chain([first], rows), fmt, values, probs)
                    for _ in rows:
                        pass
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path!r}: {exc}") from None
    if isinstance(error, InputError):
        raise error
    if first is None:
        raise InputError(f"{path!r} holds no data rows")
    try:
        if error is not None:
            raise error
        if fmt == "dist":
            pairs = np.column_stack((values, probs)) if table is None else table
            return as_random_variable(DiscreteDistribution.from_pairs(pairs))
        return rv(values if table is None else table[:, 0])
    except (ValueError, OrliczError) as exc:
        raise InputError(f"bad data in {path!r}: {exc}") from None


def _jsonable(obj):
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
        return obj
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _emit(command: str, inputs: dict, result: dict, diagnostics: Optional[dict] = None) -> None:
    envelope = {
        "command": command,
        "inputs": _jsonable(inputs),
        "result": _jsonable(result),
        "diagnostics": _jsonable(diagnostics or {}),
    }
    print(json.dumps(envelope, sort_keys=True, indent=2))


def _cmd_premium(args) -> int:
    phi = parse_phi_spec(args.phi)
    X = load_data(args.data, args.format)
    res = orlicz_premium(phi, X, tol=args.tol)
    _emit(
        "premium",
        {"phi": phi.spec_string(), "data": args.data, "tol": args.tol},
        {
            "value": res.value,
            "bracket": list(res.bracket),
            "route": res.route,
            "g_at_value": res.g_at_value,
        },
        {"iterations": res.iterations, "n": X.space.n},
    )
    return 0


def _cmd_hg(args) -> int:
    phi = parse_phi_spec(args.phi)
    X = load_data(args.data, args.format)
    res = hg_risk_measure(phi, X, tol=args.tol)
    if args.profile:
        with open(args.profile, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x", "g"])
            for x, g in res.profile:
                w.writerow([repr(x), repr(g)])
    _emit(
        "hg",
        {"phi": phi.spec_string(), "data": args.data, "tol": args.tol},
        {"value": res.value, "minimizer_x": res.minimizer_x},
        {
            "attained": res.attained,
            "evaluations": res.evaluations,
            "extensions": res.extensions,
            "floor_active": res.floor_active,
            "profile_written": args.profile or None,
            "route": res.route,
        },
    )
    return 0


def _cmd_dual_verify(args) -> int:
    phi = parse_phi_spec(args.phi)
    X = load_data(args.data, args.format)
    kind = "arithmetic" if args.kind == "arith" else "geometric"
    cert = dual_search(phi, X, kind=kind, grid_step=args.grid_step)
    _emit(
        "dual-verify",
        {
            "phi": phi.spec_string(),
            "data": args.data,
            "kind": args.kind,
            "grid_step": args.grid_step,
        },
        {
            "primal": cert.primal,
            "best_bound": cert.lower_bound,
            "gap": cert.gap,
            "argmax_density": list(cert.measure.density),
            "penalty": cert.penalty,
        },
        {"n": X.space.n, "route": cert.route},
    )
    return 0


def _cmd_conjugate(args) -> int:
    phi = parse_phi_spec(args.phi)
    if args.at:
        try:
            ys = [float(y) for y in args.at.split(",")]
        except ValueError as exc:
            raise InputError(f"bad --at list: {exc}") from None
    else:
        ys = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
    if any(y < 0 for y in ys):
        raise InputError("conjugate arguments must be nonnegative")
    table = [[y, conjugate(phi, y)] for y in ys]
    _emit(
        "conjugate",
        {"phi": phi.spec_string(), "at": ys},
        {"pairs": table},
        {"convex_flag": phi.convex_flag},
    )
    return 0


def _cmd_properties(args) -> int:
    names = [args.suite] if args.suite else list(SUITES)
    reports = [run_suite(nm, trials=args.trials, seed=args.seed) for nm in names]
    result = {
        "suites": [
            {
                "suite": r.suite,
                "trials": r.trials,
                "passed": r.passed,
                "failures": [str(f) for f in r.failures],
                "notes": list(r.notes),
            }
            for r in reports
        ],
        "all_passed": all(r.passed for r in reports),
    }
    _emit(
        "properties",
        {"suite": args.suite, "trials": args.trials, "seed": args.seed},
        result,
        {"defaults": DEFAULT_TRIALS},
    )
    return 0 if result["all_passed"] else 3


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="orlicz",
        description="Premia and risk measures for finite distributions.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, data=True):
        p.add_argument("--phi", required=True, help=f"function spec: {PHI_GRAMMAR}")
        if data:
            p.add_argument("--data", required=True, help="CSV of outcomes")
            p.add_argument(
                "--format",
                choices=["auto", "dist", "sample"],
                default="auto",
                help="dist: value,probability rows; sample: one value per row",
            )

    p = sub.add_parser("premium", help="smallest scale k with E[Phi(X/k)] <= 1")
    add_common(p)
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=_cmd_premium)

    p = sub.add_parser("hg", help="translated-premium risk measure inf_x x + H((X-x)+)")
    add_common(p)
    p.add_argument(
        "--tol",
        type=float,
        default=1e-10,
        help="relative accuracy of every premium, and the width of the window route's polish",
    )
    p.add_argument("--profile", help="write the x,g points the route evaluated to this CSV")
    p.set_defaults(func=_cmd_hg)

    p = sub.add_parser("dual-verify", help="best dual lower bound vs the primal")
    add_common(p)
    p.add_argument("--kind", choices=["arith", "geom"], default="arith")
    p.add_argument(
        "--grid-step",
        type=float,
        default=None,
        help="step of the fallback simplex grid, searched only when the first-order "
        "certificate is unavailable or loose (default 0.01 for n <= 3, 0.05 for n = 4)",
    )
    p.set_defaults(func=_cmd_dual_verify)

    p = sub.add_parser("conjugate", help="evaluate the convex conjugate")
    add_common(p, data=False)
    p.add_argument("--at", help="comma-separated y values")
    p.set_defaults(func=_cmd_conjugate)

    p = sub.add_parser("properties", help="run the structural-law suites")
    p.add_argument("--suite", choices=sorted(SUITES), default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_properties)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except OrliczError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

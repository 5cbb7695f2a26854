"""Command line front end: read a channel, pick a solver, emit a report.

Exit codes: 0 success, 2 malformed input file or bad flags, 3 invalid
matrix (bad probabilities, wrong shape for the chosen method, singular
where invertibility is required), 4 solver hit the iteration limit (the
report is still written, with the achieved bounds in diagnostics).

The JSON report is byte-deterministic: fixed field order, diagnostics keys
sorted, every real rendered with 17 significant digits so values round-trip
exactly.
"""

import argparse
import functools
import itertools
import json
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .binary import (
    DEGENERATE_TOL,
    binary_capacity,
    binary_optimal_input,
    binary_optimal_output,
)
from .channel import binary_channel, check_channel
from .entropy import SUM_TOL, LogConfig
from .muroga import INPUT_FEASIBILITY_TOL, SingularChannelError, feasible_input, muroga_capacity
from .oracle import OracleConfig, blahut_arimoto, capacity_bounds, grid_search_binary

EXIT_OK = 0
EXIT_BAD_FILE = 2
EXIT_BAD_MATRIX = 3
EXIT_NO_CONVERGENCE = 4

#: Row sums may deviate from 1 by up to this much on ingest (then renormalized).
INGEST_ROW_SUM_TOL = 1e-9

METHODS = ("auto", "binary", "muroga", "blahut-arimoto", "grid")


class ChannelFileError(ValueError):
    """Structurally unusable channel file (unreadable, bad JSON, bad fields)."""


@dataclass(frozen=True)
class CapacityResult:
    """One solved channel, as reported to the user."""

    capacity: float
    units: str
    method: str  # binary_closed_form | muroga | blahut_arimoto | grid
    optimal_input: tuple
    optimal_output: tuple
    feasible: bool
    fallback_used: bool
    diagnostics: dict  # text -> real


def _units(base):
    return "bits" if base == 2.0 else f"base-{_fmt(base)} units"


def _fmt(x):
    x = float(x)
    if x == 0.0:
        x = 0.0  # avoid a stray "-0"
    return "%.17g" % x


def _vec(values):
    return "[" + ", ".join(_fmt(v) for v in values) + "]"


def emit_report(result: CapacityResult, format: str = "json") -> str:
    """Render a result as deterministic JSON or a small text table."""
    if format == "json":
        diag = ", ".join(
            json.dumps(k) + ": " + _fmt(result.diagnostics[k]) for k in sorted(result.diagnostics)
        )
        parts = [
            '"capacity": ' + _fmt(result.capacity),
            '"units": ' + json.dumps(result.units),
            '"method": ' + json.dumps(result.method),
            '"optimal_input": ' + _vec(result.optimal_input),
            '"optimal_output": ' + _vec(result.optimal_output),
            '"feasible": ' + ("true" if result.feasible else "false"),
            '"fallback_used": ' + ("true" if result.fallback_used else "false"),
            '"diagnostics": {' + diag + "}",
        ]
        return "{\n  " + ",\n  ".join(parts) + "\n}"
    if format == "text":
        lines = [
            f"capacity        {_fmt(result.capacity)} {result.units}",
            f"method          {result.method}",
            f"optimal input   {_vec(result.optimal_input)}",
            f"optimal output  {_vec(result.optimal_output)}",
            f"feasible        {'yes' if result.feasible else 'no'}",
            f"fallback used   {'yes' if result.fallback_used else 'no'}",
        ]
        if result.diagnostics:
            lines.append("diagnostics")
            for k in sorted(result.diagnostics):
                lines.append(f"  {k:<14}{_fmt(result.diagnostics[k])}")
        return "\n".join(lines)
    raise ValueError(f"unknown report format {format!r}")


def parse_report(text: str) -> CapacityResult:
    """Inverse of emit_report for the json format."""
    obj = json.loads(text)
    expected = {f.name for f in fields(CapacityResult)}
    if set(obj) != expected:
        raise ValueError(f"report fields {sorted(obj)} != {sorted(expected)}")
    return CapacityResult(
        capacity=float(obj["capacity"]),
        units=str(obj["units"]),
        method=str(obj["method"]),
        optimal_input=tuple(float(v) for v in obj["optimal_input"]),
        optimal_output=tuple(float(v) for v in obj["optimal_output"]),
        feasible=bool(obj["feasible"]),
        fallback_used=bool(obj["fallback_used"]),
        diagnostics={str(k): float(v) for k, v in obj["diagnostics"].items()},
    )


def read_channel_file(path):
    """Load a channel file: {"matrix": rows, "base"?: real, "method"?: text}.

    Returns (raw matrix ndarray, base or None, method or None).  Structural
    problems raise ChannelFileError; probability semantics are checked later.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ChannelFileError(f"cannot read {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ChannelFileError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "matrix" not in obj:
        raise ChannelFileError(f'{path} must be a JSON object with a "matrix" key')
    rows = obj["matrix"]
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise ChannelFileError('"matrix" must be a non-empty list of rows')
    width = len(rows[0])
    if width == 0 or any(len(r) != width for r in rows):
        raise ChannelFileError("matrix rows must all have the same positive length")
    # json.loads yields exact int and float for numbers, so one C-level scan
    # of the entry types decides; the loop only names the first bad entry.
    if not set(map(type, itertools.chain.from_iterable(rows))) <= {int, float}:
        for r in rows:
            for v in r:
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    raise ChannelFileError(f"matrix entries must be numbers, got {v!r}")
    base = obj.get("base")
    if base is not None and (isinstance(base, bool) or not isinstance(base, (int, float))):
        raise ChannelFileError(f'"base" must be a number, got {base!r}')
    method = obj.get("method")
    if method is not None and method not in METHODS:
        raise ChannelFileError(f'"method" must be one of {METHODS}, got {method!r}')
    return np.array(rows, dtype=float), base, method


def ingest_matrix(raw):
    """Apply the loose row-sum tolerance, renormalize with a warning, validate."""
    raw = np.array(raw, dtype=float)
    if not np.all(np.isfinite(raw)):
        raise ValueError("matrix contains non-finite entries")
    try:
        sums = np.array([math.fsum(row) for row in raw.tolist()])
    except OverflowError as exc:  # finite entries near the float limit
        raise ValueError(f"row sums overflow: {exc}") from exc
    dev = float(np.abs(sums - 1.0).max())
    if dev > INGEST_ROW_SUM_TOL:
        raise ValueError(f"row sums deviate from 1 by {dev:g}, beyond {INGEST_ROW_SUM_TOL:g}")
    if dev > SUM_TOL:
        print(
            f"warning: row sums off by up to {dev:.3g}; renormalizing rows",
            file=sys.stderr,
        )
        raw = raw / sums[:, np.newaxis]
    return check_channel(raw)


def _report(q, cfg, ocfg, method, capacity, p, r, diagnostics, raw=None, fallback_used=False):
    """The one place a solver's answer becomes a CapacityResult.

    Every report is certified from its own reported input ``p``:
    ``diagnostics["gap"]`` is upper - lower of ``capacity_bounds(p, q)``.
    ``r`` is the method's own output distribution; without one the report
    shows ``p Q``.  An explicit answer passes its raw input ``raw`` (``p`` is
    its clamp onto the simplex) and is feasible only when no raw entry is
    below -INPUT_FEASIBILITY_TOL and capacity, lower and upper bound all lie
    within ``ocfg.tolerance`` of each other; an infeasible one records the
    smallest raw entry.  An iterative answer is feasible unless it is a
    fallback.
    """
    lower, upper = capacity_bounds(p, q, cfg)
    diagnostics["gap"] = upper - lower
    feasible = not fallback_used
    if raw is not None:
        span = max(lower, upper, capacity) - min(lower, upper, capacity)
        feasible = bool(raw.min() >= -INPUT_FEASIBILITY_TOL and span <= ocfg.tolerance)
        if not feasible:
            diagnostics["min_input_raw"] = float(raw.min())
    return CapacityResult(
        capacity=capacity,
        units=_units(cfg.base),
        method=method,
        optimal_input=tuple(float(v) for v in p),
        optimal_output=tuple(float(v) for v in (p @ q if r is None else r)),
        feasible=feasible,
        fallback_used=fallback_used,
        diagnostics=diagnostics,
    )


def _explicit_answer(q, closed_form, cfg):
    """(method, capacity, raw input, output or None, diagnostics) of an explicit solver.

    Silverman's binary closed form is Muroga's method carried out at n = 2;
    its diagnostic ``det = c - a`` is the quantity DEGENERATE_TOL judges.
    Muroga raises SingularChannelError on a singular channel.
    """
    if closed_form:
        a = float(q[0, 1])
        c = float(q[1, 1])
        diag = {"det": c - a}
        if abs(c - a) <= DEGENERATE_TOL:
            return "binary_closed_form", 0.0, np.array([0.5, 0.5]), None, diag
        capacity = binary_capacity(a, c, cfg)
        raw = binary_optimal_input(a, c)
        return "binary_closed_form", capacity, raw, binary_optimal_output(a, c), diag
    sol = muroga_capacity(q, cfg)
    return "muroga", sol.capacity, sol.opt_input_raw, sol.opt_output, {}


def solve_channel(q, method, cfg, ocfg):
    """Dispatch to a solver; returns (CapacityResult, exit code).

    Under auto a 2x2 channel uses the closed form and any other square
    channel Muroga's solution; an infeasible explicit answer falls back to
    Blahut-Arimoto with ``fallback_used``, a singular channel goes to it
    directly.  Raises ValueError / SingularChannelError for
    matrix-vs-method mismatches (the CLI maps those to exit 3).
    """
    n, m = q.shape
    if method == "binary" and (n, m) != (2, 2):
        raise ValueError(f"binary method needs a 2x2 channel, got {n}x{m}")
    if method == "muroga" and n != m:
        raise ValueError(f"muroga method needs a square channel, got {n}x{m}")
    if method == "grid":
        res = grid_search_binary(q, cfg, ocfg)
        p = np.array([res.p1, 1.0 - res.p1])
        diag = {"grid_resolution": float(ocfg.grid_resolution)}
        return _report(q, cfg, ocfg, "grid", res.capacity, p, None, diag), EXIT_OK
    fallback = None  # the raw explicit capacity, once auto falls back
    if method != "blahut-arimoto" and n == m:
        closed_form = method == "binary" or (method == "auto" and n == 2)
        try:
            solver, capacity, raw, r, diag = _explicit_answer(q, closed_form, cfg)
        except SingularChannelError:
            if method != "auto":
                raise
        else:
            # Under auto a negative raw input already decides the fallback,
            # so its certificate is not computed.
            if method != "auto" or raw.min() >= -INPUT_FEASIBILITY_TOL:
                result = _report(q, cfg, ocfg, solver, capacity, feasible_input(raw), r, diag, raw)
                if result.feasible or method != "auto":
                    return result, EXIT_OK
            fallback = capacity
    res = blahut_arimoto(q, cfg, ocfg)
    diag = {"iterations": float(res.iterations)}
    if fallback is not None:
        diag.update(muroga_capacity_raw=fallback, oracle_capacity=res.capacity)
    result = _report(
        q, cfg, ocfg, "blahut_arimoto", res.capacity, res.input_dist, None, diag,
        fallback_used=fallback is not None,
    )
    return result, EXIT_OK if res.converged else EXIT_NO_CONVERGENCE


@functools.cache
def _build_parser():
    # Built once per process: construction costs about as much as a 2x2 solve,
    # and parse_args leaves the parser as it was, so in-process callers of
    # run() can share it.
    parser = argparse.ArgumentParser(
        prog="capacity",
        description="Capacity of a discrete memoryless channel from its transition matrix.",
    )
    parser.add_argument("--matrix", metavar="PATH", help="JSON channel file")
    parser.add_argument("--a", type=float, help="P(output 2 | input 1) for the binary shortcut")
    parser.add_argument("--c", type=float, help="P(output 2 | input 2) for the binary shortcut")
    parser.add_argument("--base", type=float, default=None, help="log base (default 2)")
    parser.add_argument("--method", choices=METHODS, default=None, help="solver (default auto)")
    parser.add_argument("--tol", type=float, default=1e-9, help="iterative stopping gap")
    parser.add_argument("--max-iter", type=int, default=100000, help="iteration cap")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.matrix is not None and (args.a is not None or args.c is not None):
            parser.error("--matrix and --a/--c are mutually exclusive")
        if args.matrix is None and (args.a is None or args.c is None):
            parser.error("provide either --matrix or both --a and --c")
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_BAD_FILE

    file_base = file_method = None
    if args.matrix is not None:
        try:
            raw, file_base, file_method = read_channel_file(args.matrix)
        except ChannelFileError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_BAD_FILE
    else:
        try:
            raw = binary_channel(args.a, args.c)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_BAD_MATRIX

    base = args.base if args.base is not None else (file_base if file_base is not None else 2.0)
    method = args.method if args.method is not None else (file_method or "auto")
    try:
        cfg = LogConfig(base=float(base))
        ocfg = OracleConfig(tolerance=args.tol, max_iterations=args.max_iter)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_FILE

    try:
        q = ingest_matrix(raw)
        result, code = solve_channel(q, method, cfg, ocfg)
    except (SingularChannelError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_MATRIX

    print(emit_report(result, args.format))
    return code


def main():
    sys.exit(run())

"""Command line front end: read a channel, solve it with ``chancap.dispatch``, emit a report.

Exit codes: 0 success, 2 malformed input file or bad flags, 3 invalid
matrix (bad probabilities, wrong shape for the chosen method, singular
where invertibility is required), 4 solver hit the iteration limit (the
report is still written, with the achieved bounds in diagnostics).  The
flags and the file are checked before the channel, so a call with a bad
flag and a bad channel exits 2, whether the channel comes from a file or
from ``--a`` and ``--c``.

The JSON report is byte-deterministic: fixed field order, diagnostics keys
sorted, every real rendered with 17 significant digits so values round-trip
exactly.
"""

import gc
import itertools
import json
import math
import reprlib
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from .channel import binary_channel, check_channel
from .dispatch import METHODS, CapacityResult, _fmt, _solve
from .entropy import _DEFAULT as _DEFAULT_LOG, SUM_TOL, LogConfig, _as_float_array
from .oracle import _DEFAULT_ORACLE, OracleConfig

EXIT_OK = 0
EXIT_BAD_FILE = 2
EXIT_BAD_MATRIX = 3
EXIT_NO_CONVERGENCE = 4

#: Row sums may deviate from 1 by up to this much on ingest (then renormalized).
INGEST_ROW_SUM_TOL = 1e-9


class ChannelFileError(ValueError):
    """Structurally unusable channel file (unreadable, bad JSON, bad fields)."""


def _vec(values):
    # One %-format over every value; adding 0.0 turns -0.0 into 0.0, as _fmt does.
    return "[" + ", ".join(["%.17g"] * len(values)) % tuple(map((0.0).__add__, values)) + "]"


#: The JSON report, one field a line in a fixed order.
_JSON_REPORT = """{
  "capacity": %s,
  "units": %s,
  "method": %s,
  "optimal_input": %s,
  "optimal_output": %s,
  "feasible": %s,
  "fallback_used": %s,
  "diagnostics": {%s}
}"""


def emit_report(result: CapacityResult, format: str = "json") -> str:
    """Render a result as deterministic JSON or a small text table."""
    if format == "json":
        # encode_basestring_ascii is what json.dumps runs on a str.
        diag = ", ".join([encode_basestring_ascii(k) + ": " + _fmt(v) for k, v in sorted(result.diagnostics.items())])
        return _JSON_REPORT % (
            _fmt(result.capacity),
            encode_basestring_ascii(result.units),
            encode_basestring_ascii(result.method),
            _vec(result.optimal_input),
            _vec(result.optimal_output),
            "true" if result.feasible else "false",
            "true" if result.fallback_used else "false",
            diag,
        )
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
            # Keys of 13 characters or fewer keep the 14-column layout; a
            # longer one widens it so that a space always precedes the value.
            width = max(14, 1 + max(map(len, result.diagnostics)))
            lines += [f"  {k:<{width}}{_fmt(v)}" for k, v in sorted(result.diagnostics.items())]
        return "\n".join(lines)
    raise ValueError(f"unknown report format {format!r}")


def _is_number(v):
    return type(v) is int or type(v) is float  # the types json reads a number as; never a bool


def _is_vector(v):
    return type(v) is list and all(map(_is_number, v))


#: Each report field: the test its JSON value must pass, and what it names.
_REPORT_FIELDS = {
    "capacity": (_is_number, "a number"),
    "units": (lambda v: type(v) is str, "a string"),
    "method": (lambda v: type(v) is str, "a string"),
    "optimal_input": (_is_vector, "a list of numbers"),
    "optimal_output": (_is_vector, "a list of numbers"),
    "feasible": (lambda v: type(v) is bool, "true or false"),
    "fallback_used": (lambda v: type(v) is bool, "true or false"),
    "diagnostics": (lambda v: type(v) is dict and all(map(_is_number, v.values())), "an object of numbers"),
}


def parse_report(text: str) -> CapacityResult:
    """Inverse of emit_report for the json format.

    Each field must hold the JSON type that emit_report writes there;
    nothing is converted, so a flag written as ``"false"`` or a vector
    written as an object raises ValueError naming the field.
    """
    obj = json.loads(text, parse_int=_json_int)
    if type(obj) is not dict:
        raise ValueError(f"a report is a JSON object, got {reprlib.repr(obj)}")
    if set(obj) != set(_REPORT_FIELDS):
        raise ValueError(f"report fields {sorted(obj)} != {sorted(_REPORT_FIELDS)}")
    for name, (ok, kind) in _REPORT_FIELDS.items():
        if not ok(obj[name]):
            raise ValueError(f"report field {name!r} must be {kind}, got {reprlib.repr(obj[name])}")
    return CapacityResult(
        capacity=float(obj["capacity"]),
        units=obj["units"],
        method=obj["method"],
        optimal_input=tuple(map(float, obj["optimal_input"])),
        optimal_output=tuple(map(float, obj["optimal_output"])),
        feasible=obj["feasible"],
        fallback_used=obj["fallback_used"],
        diagnostics={k: float(v) for k, v in obj["diagnostics"].items()},
    )


def _json_int(text):
    """An int literal as ``json`` reads it; beyond the float range, its float spelling.

    ``1`` followed by 400 zeros then reads as ``1e400`` does, an infinity,
    which the checks downstream report; as an int it would overflow numpy.
    """
    value = float(text)
    return int(text) if math.isfinite(value) else value


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
    except UnicodeDecodeError as exc:
        raise ChannelFileError(f"{path} is not UTF-8 text: {exc}") from exc
    try:
        obj = json.loads(text, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise ChannelFileError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:  # arrays or objects nested beyond the parser's depth
        raise ChannelFileError(f"{path} nests too deeply to parse: {exc}") from exc
    if not isinstance(obj, dict) or "matrix" not in obj:
        raise ChannelFileError(f'{path} must be a JSON object with a "matrix" key')
    rows = obj["matrix"]
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise ChannelFileError('"matrix" must be a non-empty list of rows')
    width = len(rows[0])
    if width == 0 or any(len(r) != width for r in rows):
        raise ChannelFileError("matrix rows must all have the same positive length")
    # json.loads yields exact int and float for numbers, so one C-level scan
    # of the entry types decides; the second scan only names the first bad entry.
    if not set(map(type, itertools.chain.from_iterable(rows))) <= {int, float}:
        bad = next(v for v in itertools.chain.from_iterable(rows) if not _is_number(v))
        raise ChannelFileError(f"matrix entries must be numbers, got {reprlib.repr(bad)}")
    base = obj.get("base")
    if base is not None and not _is_number(base):
        raise ChannelFileError(f'"base" must be a number, got {reprlib.repr(base)}')
    method = obj.get("method")
    if method is not None and method not in METHODS:
        raise ChannelFileError(f'"method" must be one of {METHODS}, got {reprlib.repr(method)}')
    return np.array(rows, dtype=float), base, method


def ingest_matrix(raw):
    """A channel file's matrix as a checked channel, under the loose row-sum rule.

    ``raw`` must be a non-empty, finite, 2-D table of real numbers.  A row
    whose exact sum is off 1 by more than SUM_TOL but at most
    INGEST_ROW_SUM_TOL is divided by that sum, with a warning on stderr; a
    row further off raises ValueError.  The result is ``check_channel`` of
    the rows so settled.

    With no negative entry, a row's sum in ``check_channel`` is the file's
    own sum, so a matrix that ``check_channel`` accepts needs no settling and
    is returned as is; only a rejected one, or one with a negative entry,
    is summed again here.
    """
    raw, lo, _ = _as_float_array(raw, "matrix", 2)
    if lo >= 0.0:
        try:
            return check_channel(raw)
        except ValueError:
            pass
    try:
        sums = np.array([math.fsum(row) for row in raw.tolist()])
    except OverflowError as exc:  # finite entries near the float limit
        raise ValueError(f"row sums overflow: {exc}") from exc
    dev = float(np.abs(sums - 1.0).max())
    if dev > INGEST_ROW_SUM_TOL:
        raise ValueError(f"row sums deviate from 1 by {dev:g}, beyond {INGEST_ROW_SUM_TOL:g}")
    if dev > SUM_TOL:
        print(f"warning: row sums off by up to {dev:.3g}; renormalizing rows", file=sys.stderr)
        raw = raw / sums[:, np.newaxis]
    return check_channel(raw)


#: The command line, one row per flag: flag -> (metavar, converter, default,
#: help text, choices).  A flag with choices shows them as its metavar.
_FLAGS = {
    "--matrix": ("PATH", str, None, "JSON channel file", None),
    "--a": ("A", float, None, "P(output 2 | input 1) for the binary shortcut", None),
    "--c": ("C", float, None, "P(output 2 | input 2) for the binary shortcut", None),
    "--base": ("BASE", float, None, "log base (default 2)", None),
    "--method": (None, str, None, "solver (default auto)", METHODS),
    "--tol": ("TOL", float, _DEFAULT_ORACLE.tolerance, "stopping gap, absolute in the report's units", None),
    "--max-iter": ("MAX_ITER", int, _DEFAULT_ORACLE.max_iterations, "iteration cap", None),
    "--format": (None, str, "json", "report format (default json)", ("json", "text")),
}
_LONG_NAMES = ("--help", *_FLAGS)
_DEFAULTS = {flag: row[2] for flag, row in _FLAGS.items()}
_USAGE_WIDTH = 78


def _invocation(flag):
    metavar, _, _, _, choices = _FLAGS[flag]
    return f"{flag} {metavar or '{' + ','.join(choices) + '}'}"


def _usage():
    """The usage line, wrapped between flags."""
    lines = ["usage: capacity"]
    for part in ["[-h]"] + [f"[{_invocation(flag)}]" for flag in _FLAGS]:
        if len(lines[-1]) + 1 + len(part) > _USAGE_WIDTH:
            lines.append(" " * len("usage: capacity"))
        lines[-1] += " " + part
    return "\n".join(lines)


def _help():
    rows = [("-h, --help", "show this help message and exit")]
    rows += [(_invocation(flag), row[3]) for flag, row in _FLAGS.items()]
    options = "".join(
        f"\n  {flag:<22}{text}" if len(flag) <= 20 else f"\n  {flag}\n{'':24}{text}" for flag, text in rows
    )
    return (
        f"{_usage()}\n\nCapacity of a discrete memoryless channel from its transition matrix."
        f"\n\noptions:{options}"
    )


def _is_value(token):
    """Whether ``token`` is a value rather than a flag: it does not start with
    ``-``, is ``-`` alone, holds a space, or is a number (``-0.2``, ``-1e-3``, ``-inf``)."""
    if token[:1] != "-" or len(token) == 1 or " " in token:
        return True
    try:
        float(token)
    except ValueError:
        return False
    return True


def _parse_args(argv):
    """The flags of one ``capacity`` command line, by flag, or None for help.

    One pass over ``argv``.  A flag's value is the next token or follows
    ``=``; a long flag may be shortened to any unique prefix; a repeated flag
    keeps its last value.  Raises ValueError with the reason on a usage
    error, and requires exactly one source: ``--matrix`` or both ``--a`` and
    ``--c``.
    """
    opts = _DEFAULTS.copy()
    extras = []  # reported after the pass, so that a later -h still wins
    tokens = iter(argv)
    for token in tokens:
        if token == "--":  # what follows is positional, and capacity takes none
            extras.append(token)
            extras += tokens
            break
        if token == "-h":
            return None
        if not token.startswith("--"):
            extras.append(token)
            continue
        name, eq, value = token.partition("=")
        hits = [name] if name in _LONG_NAMES else [f for f in _LONG_NAMES if f.startswith(name)]
        if len(hits) > 1:
            raise ValueError(f"ambiguous option: {token} could match {', '.join(hits)}")
        if not hits:
            extras.append(token)
            continue
        flag = hits[0]
        if flag == "--help":
            if eq:
                raise ValueError(f"argument -h/--help: ignored explicit argument {value!r}")
            return None
        _, convert, _, _, choices = _FLAGS[flag]
        if not eq:
            value = next(tokens, None)
            if value is None or not _is_value(value):
                raise ValueError(f"argument {flag}: expected one argument")
        try:
            value = convert(value)
        except ValueError:
            raise ValueError(f"argument {flag}: invalid {convert.__name__} value: {value!r}") from None
        if choices is not None and value not in choices:
            allowed = ", ".join(map(repr, choices))
            raise ValueError(f"argument {flag}: invalid choice: {value!r} (choose from {allowed})")
        opts[flag] = value
    if extras:
        raise ValueError(f"unrecognized arguments: {' '.join(extras)}")
    if opts["--matrix"] is not None and (opts["--a"] is not None or opts["--c"] is not None):
        raise ValueError("--matrix and --a/--c are mutually exclusive")
    if opts["--matrix"] is None and (opts["--a"] is None or opts["--c"] is None):
        raise ValueError("provide either --matrix or both --a and --c")
    return opts


def run(argv=None) -> int:
    """The ``capacity`` command on ``argv`` (default ``sys.argv[1:]``); returns its exit code."""
    try:
        opts = _parse_args(sys.argv[1:] if argv is None else argv)
    except ValueError as exc:
        print(f"{_usage()}\ncapacity: error: {exc}", file=sys.stderr)
        return EXIT_BAD_FILE
    if opts is None:
        print(_help())
        return EXIT_OK

    matrix = opts["--matrix"]
    file_base = file_method = None
    try:
        if matrix is not None:
            raw, file_base, file_method = read_channel_file(matrix)
        base, method = opts["--base"], opts["--method"] or file_method or "auto"
        if base is None:
            base = _DEFAULT_LOG.base if file_base is None else file_base
        tol, max_iter = opts["--tol"], opts["--max-iter"]
        # The default configs are validated once, at import; equal fields
        # make an equal config, so reusing them changes no report.
        base = float(base)
        cfg = _DEFAULT_LOG if base == _DEFAULT_LOG.base else LogConfig(base=base)
        same = tol == _DEFAULT_ORACLE.tolerance and max_iter == _DEFAULT_ORACLE.max_iterations
        ocfg = _DEFAULT_ORACLE if same else OracleConfig(tolerance=tol, max_iterations=max_iter)
    except ValueError as exc:  # ChannelFileError is one
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_FILE

    try:
        # binary_channel checks a and c, so every entry lies in [0, 1] and
        # each row sums to 1 within one ulp; ingest would only copy its q.
        q = ingest_matrix(raw) if matrix is not None else binary_channel(opts["--a"], opts["--c"])
        result, converged = _solve(q, method, cfg, ocfg)
    except ValueError as exc:  # SingularChannelError is one
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_MATRIX

    print(emit_report(result, opts["--format"]))
    return EXIT_OK if converged else EXIT_NO_CONVERGENCE


def main():
    """The ``capacity`` console script: ``run()`` on ``sys.argv``, then exit with its code.

    The process ends when ``run()`` returns, so the heap that importing numpy
    and this package built stays alive to the end.  Freezing it first moves it
    to the permanent generation, which no later collection visits, not even
    the full one at interpreter shutdown; a cold call then skips that
    collection.  In-process callers use ``run()``, whose heap is never frozen.
    """
    gc.freeze()
    sys.exit(run())

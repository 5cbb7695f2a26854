"""Command line front end: file ingest, solver dispatch, deterministic reports."""

import argparse
import contextlib
import gc
import importlib
import io
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chancap import (
    LogConfig,
    OracleConfig,
    SingularChannelError,
    binary_capacity,
    binary_channel,
    blahut_arimoto,
    capacity,
    capacity_bounds,
    check_channel,
    muroga_capacity,
)
from chancap.binary import _closed_form
from chancap.cli import (
    EXIT_BAD_FILE,
    EXIT_BAD_MATRIX,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    METHODS,
    CapacityResult,
    ChannelFileError,
    _parse_args,
    _usage,
    emit_report,
    ingest_matrix,
    main,
    parse_report,
    read_channel_file,
    run,
)

INFEASIBLE_3X3 = [[0.8, 0.1, 0.1], [0.5, 0.25, 0.25], [0.1, 0.1, 0.8]]
#: A valid file whose a = 1 + 2 ulp lies just outside the closed form's square.
ABOVE_ONE_2X2 = [[0.0, 1.0000000000000004], [0.5, 0.5]]
# |c - a| ≈ 1.0e-12: a formula that divides a cancelling difference by c - a
# gives a raw input of about (-5.1e5, 5.1e5) here.
NEAR_DEGENERATE_A, NEAR_DEGENERATE_C = 0.5674319950470281, 0.5674319950480301

CFG = LogConfig()
OCFG = OracleConfig()


#: Files that are no channel file at all: bytes that are not UTF-8, and JSON
#: nested beyond the depth the parser can recurse to.
ODD_BYTES = {
    "latin1.json": '{"matrix": [[1, 0], [0, 1]], "method": "\xe9"}'.encode("latin-1"),
    "deep.json": b"[" * 100_000 + b"]" * 100_000,
}


def binary_q(a, c):
    return np.array([[1.0 - a, a], [1.0 - c, c]])


def write_channel_file(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestReadChannelFile:
    def test_reads_matrix_and_metadata(self, tmp_path):
        path = write_channel_file(
            tmp_path, "ch.json", {"matrix": [[0.5, 0.5], [0.2, 0.8]], "base": 10, "method": "grid"}
        )
        raw, base, method = read_channel_file(path)
        np.testing.assert_array_equal(raw, [[0.5, 0.5], [0.2, 0.8]])
        assert base == 10
        assert method == "grid"

    def test_metadata_optional(self, tmp_path):
        path = write_channel_file(tmp_path, "ch.json", {"matrix": [[1.0, 0.0], [0.5, 0.5]]})
        _, base, method = read_channel_file(path)
        assert base is None and method is None

    def test_missing_file(self, tmp_path):
        with pytest.raises(ChannelFileError):
            read_channel_file(str(tmp_path / "absent.json"))

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ChannelFileError):
            read_channel_file(str(path))

    def test_missing_matrix_key(self, tmp_path):
        with pytest.raises(ChannelFileError):
            read_channel_file(write_channel_file(tmp_path, "x.json", {"rows": []}))

    @pytest.mark.parametrize("rows", [[], [1, 2]])
    def test_matrix_not_a_list_of_rows(self, tmp_path, rows):
        with pytest.raises(ChannelFileError, match="non-empty list of rows"):
            read_channel_file(write_channel_file(tmp_path, "x.json", {"matrix": rows}))

    def test_ragged_rows(self, tmp_path):
        with pytest.raises(ChannelFileError):
            read_channel_file(
                write_channel_file(tmp_path, "x.json", {"matrix": [[0.5, 0.5], [1.0]]})
            )

    def test_non_numeric_entry(self, tmp_path):
        with pytest.raises(ChannelFileError):
            read_channel_file(
                write_channel_file(tmp_path, "x.json", {"matrix": [[0.5, "a"], [0.5, 0.5]]})
            )

    def test_unknown_method(self, tmp_path):
        with pytest.raises(ChannelFileError):
            read_channel_file(
                write_channel_file(
                    tmp_path, "x.json", {"matrix": [[1.0, 0.0], [0.0, 1.0]], "method": "magic"}
                )
            )

    @pytest.mark.parametrize("name, reason", [("latin1.json", "not UTF-8"), ("deep.json", "nests too deeply")])
    def test_odd_bytes(self, tmp_path, name, reason):
        path = tmp_path / name
        path.write_bytes(ODD_BYTES[name])
        with pytest.raises(ChannelFileError, match=reason):
            read_channel_file(str(path))


class TestIngestMatrix:
    def test_accepts_exact(self):
        q = ingest_matrix(np.array([[0.5, 0.5], [0.2, 0.8]]))
        assert q.shape == (2, 2)

    def test_renormalizes_small_deviation_with_warning(self, capsys):
        q = ingest_matrix(np.array([[0.5, 0.5000000005], [0.2, 0.8]]))
        assert "renormalizing" in capsys.readouterr().err
        assert abs(math.fsum(q[0]) - 1.0) <= 1e-15

    def test_rejects_large_deviation(self):
        with pytest.raises(ValueError):
            ingest_matrix(np.array([[0.5, 0.51], [0.2, 0.8]]))

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            ingest_matrix(np.array([[1.2, -0.2], [0.5, 0.5]]))

    @pytest.mark.parametrize("raw", [[0.5, 0.5], 1.0, [[[0.5, 0.5]], [[0.2, 0.8]]]], ids=["1-D", "0-D", "3-D"])
    def test_rejects_a_table_that_is_not_2_d(self, raw):
        """A channel is a 2-D table: any other shape is a ValueError naming it."""
        with pytest.raises(ValueError, match=rf"^matrix must be 2-D, got shape {re.escape(str(np.shape(raw)))}$"):
            ingest_matrix(raw)


#: Reals at the edges of the %.17g rendering: signed zeros, the least
#: subnormal and the largest magnitudes.
EDGE_REALS = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1.0]
#: Strings that JSON must escape: a quote, a backslash, non-ASCII text.
EDGE_TEXT = ["bits", "base-10 units", 'q"b', "back\\slash", "\u00e9t\u00e9 \u2603", "gap"]


@st.composite
def report_results(draw):
    reals = st.one_of(st.sampled_from(EDGE_REALS), st.floats(allow_nan=False, allow_infinity=False))
    text = st.one_of(st.sampled_from(EDGE_TEXT), st.text(max_size=8))
    vector = st.lists(reals, max_size=5).map(tuple)
    return CapacityResult(
        capacity=draw(reals),
        units=draw(text),
        method=draw(text),
        optimal_input=draw(vector),
        optimal_output=draw(vector),
        feasible=draw(st.booleans()),
        fallback_used=draw(st.booleans()),
        diagnostics=draw(st.one_of(st.just({}), st.dictionaries(text, reals, min_size=2, max_size=5))),
    )


def joined_report(result):
    """The JSON report assembled as a list of fields joined by commas."""

    def real(x):
        x = float(x)
        return "%.17g" % (0.0 if x == 0.0 else x)

    def vec(values):
        return "[" + ", ".join(real(v) for v in values) + "]"

    diag = ", ".join(json.dumps(k) + ": " + real(result.diagnostics[k]) for k in sorted(result.diagnostics))
    parts = [
        '"capacity": ' + real(result.capacity),
        '"units": ' + json.dumps(result.units),
        '"method": ' + json.dumps(result.method),
        '"optimal_input": ' + vec(result.optimal_input),
        '"optimal_output": ' + vec(result.optimal_output),
        '"feasible": ' + ("true" if result.feasible else "false"),
        '"fallback_used": ' + ("true" if result.fallback_used else "false"),
        '"diagnostics": {' + diag + "}",
    ]
    return "{\n  " + ",\n  ".join(parts) + "\n}"


#: A report that parses; each case of ``MISTYPED_FIELDS`` changes one field of it.
GOOD_REPORT = {
    "capacity": 0.32, "units": "bits", "method": "binary_closed_form", "optimal_input": [0.6, 0.4],
    "optimal_output": [0.8, 0.2], "feasible": True, "fallback_used": False, "diagnostics": {"gap": 0},
}
MISTYPED_FIELDS = [
    ("feasible", "false"), ("fallback_used", "no"), ("feasible", 1), ("fallback_used", None),
    ("capacity", True), ("capacity", "0.5"), ("capacity", None), ("capacity", [0.5]),
    ("units", 2), ("method", None), ("method", ["blahut_arimoto"]),
    ("optimal_output", {"0.5": 1}), ("optimal_input", "0.5"), ("optimal_input", [0.5, True]),
    ("optimal_input", [[0.5]]), ("optimal_output", [0.5, None]),
    ("diagnostics", []), ("diagnostics", None), ("diagnostics", {"gap": "0"}), ("diagnostics", {"gap": False}),
]


class TestReports:
    def _sample(self):
        result, converged = capacity(ingest_matrix(np.array([[1.0, 0.0], [0.5, 0.5]])), "auto", CFG, OCFG)
        assert converged
        return result

    def test_json_round_trip_exact(self):
        result = self._sample()
        again = parse_report(emit_report(result, "json"))
        assert again == result

    def test_json_is_byte_deterministic(self):
        result = self._sample()
        assert emit_report(result, "json") == emit_report(result, "json")

    def test_json_field_set(self):
        obj = json.loads(emit_report(self._sample(), "json"))
        assert sorted(obj) == [
            "capacity",
            "diagnostics",
            "fallback_used",
            "feasible",
            "method",
            "optimal_input",
            "optimal_output",
            "units",
        ]

    def test_seventeen_significant_digits(self):
        obj = json.loads(emit_report(self._sample(), "json"))
        assert obj["optimal_input"][0] == 0.6

    def test_text_format(self):
        text = emit_report(self._sample(), "text")
        assert "capacity" in text and "bits" in text and "binary_closed_form" in text

    def test_text_diagnostics_split_into_key_and_value(self):
        """Every diagnostics line is a key, a space, a value, whatever the key's
        length; a report whose keys are all short keeps the 14-column layout."""
        fallback, _ = capacity(ingest_matrix(np.array(INFEASIBLE_3X3)), "auto", CFG, OCFG)
        grid, _ = capacity(ingest_matrix(binary_q(0.1, 0.7)), "grid", CFG, OCFG)
        assert "muroga_capacity_raw" in fallback.diagnostics and "grid_resolution" in grid.diagnostics
        for result in (fallback, grid, self._sample()):
            lines = emit_report(result, "text").splitlines()
            diag = lines[lines.index("diagnostics") + 1 :]
            assert len(diag) == len(result.diagnostics)
            for line in diag:
                key, value = line.split()
                assert float(value) == result.diagnostics[key], line
        short = emit_report(self._sample(), "text").splitlines()
        assert short[-1] == "  gap           " + short[-1].split()[1]

    def test_strings_are_quoted_as_json_dumps_quotes_them(self):
        """Units, method and diagnostics keys holding a quote, a backslash, a
        non-ASCII character and a control character come out as json.dumps
        writes them, and the report reads back."""
        odd = 'q"b\\\u00e9\u2603\n'
        result = CapacityResult(1.0, odd, odd, (1.0,), (1.0,), True, False, {odd: 0.5, "gap": 0.0})
        text = emit_report(result)
        assert '"units": ' + json.dumps(odd) + "," in text
        assert '"method": ' + json.dumps(odd) + "," in text
        assert '"diagnostics": {' + json.dumps("gap") + ": 0, " + json.dumps(odd) + ": 0.5}" in text
        assert text.isascii()
        assert parse_report(text) == result

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_json_matches_the_list_and_join_rendering(self, data):
        """The one-template report has the bytes of a report assembled field by
        field, and reads back as the result it renders."""
        result = data.draw(report_results())
        text = emit_report(result)
        assert text == joined_report(result)
        again = parse_report(text)
        assert again == result
        assert emit_report(again) == text

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_report(self._sample(), "yaml")

    @pytest.mark.parametrize(
        "text, named",
        [
            pytest.param('{"capacity": 1.0}', "report fields", id="missing-fields"),
            pytest.param("[]", "JSON object", id="array"),
            pytest.param("1.5", "JSON object", id="number"),
            pytest.param('"report"', "JSON object", id="string"),
            *[
                pytest.param(json.dumps({**GOOD_REPORT, field: value}), repr(field), id=f"{field}={json.dumps(value)}")
                for field, value in MISTYPED_FIELDS
            ],
        ],
    )
    def test_parse_rejects_missing_fields(self, text, named):
        """Each field must hold the JSON type emit_report writes: nothing is
        converted, and the error names what is wrong."""
        assert parse_report(json.dumps(GOOD_REPORT)).feasible is True
        with pytest.raises(ValueError, match=re.escape(named)):
            parse_report(text)


class TestSolveChannel:
    def test_auto_2x2_uses_closed_form(self):
        result, converged = capacity(ingest_matrix(np.array([[1.0, 0.0], [0.5, 0.5]])), "auto", CFG, OCFG)
        assert converged
        assert result.method == "binary_closed_form"
        assert result.capacity == pytest.approx(math.log2(1.25), abs=1e-12)
        assert result.feasible and not result.fallback_used

    @pytest.mark.parametrize("cfg", [CFG, LogConfig(base=math.e)], ids=["bits", "nats"])
    def test_oracle_reports_the_closed_form_input(self, cfg):
        """On a 2x2 channel Blahut-Arimoto tries the closed form before its
        first sweep, so its report shows the input and gap that auto's does,
        down to rows as close as |c - a| = 1e-3."""
        rng = np.random.default_rng(17)
        for _ in range(200):
            a, c = rng.random(2)
            if abs(c - a) <= 1e-3:
                continue
            q = binary_channel(a, c)
            auto, _ = capacity(q, "auto", cfg, OCFG)
            ba, converged = capacity(q, "blahut-arimoto", cfg, OCFG)
            assert converged and ba.diagnostics["iterations"] == 1.0, q
            assert ba.optimal_input == auto.optimal_input, q
            assert ba.diagnostics["gap"] == auto.diagnostics["gap"], q

    def test_auto_square_uses_explicit_solver(self):
        result, converged = capacity(ingest_matrix(np.eye(3)), "auto", CFG, OCFG)
        assert converged
        assert result.method == "muroga"
        assert result.capacity == pytest.approx(math.log2(3.0), abs=1e-12)

    def test_binary_report_evaluates_closed_form_once(self, monkeypatch, capsys):
        """Capacity, input and output of a 2x2 report come from one closed-form
        evaluation (a = 0.3 is the anchor, so it does not recurse)."""
        calls = []

        def counted(*args):
            calls.append(args)
            return _closed_form(*args)

        monkeypatch.setattr("chancap.binary._closed_form", counted)
        monkeypatch.setattr("chancap.dispatch._closed_form", counted)
        assert run(["--a", "0.3", "--c", "0.9"]) == EXIT_OK
        result = parse_report(capsys.readouterr().out)
        assert result.method == "binary_closed_form"
        assert calls == [(0.3, 0.9)]
        assert result.capacity == binary_capacity(0.3, 0.9)

    def test_auto_feasible_square_runs_explicit_solver_once(self, murogas):
        q = ingest_matrix(np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]]))
        result, converged = capacity(q, "auto", CFG, OCFG)
        assert converged
        assert result.method == "muroga" and result.feasible
        assert len(murogas) == 1

    def test_auto_infeasible_falls_back_to_oracle(self):
        q = ingest_matrix(np.array(INFEASIBLE_3X3))
        result, converged = capacity(q, "auto", CFG, OCFG)
        assert converged
        assert result.method == "blahut_arimoto"
        assert result.fallback_used and not result.feasible
        raw = result.diagnostics["muroga_capacity_raw"]
        assert raw == pytest.approx(muroga_capacity(q).capacity, abs=1e-12)
        assert result.capacity < raw
        assert result.diagnostics["oracle_capacity"] == result.capacity

    def test_auto_singular_square_uses_oracle_without_fallback_flag(self):
        q = ingest_matrix(np.array([[0.7, 0.2, 0.1], [0.7, 0.2, 0.1], [0.1, 0.3, 0.6]]))
        result, converged = capacity(q, "auto", CFG, OCFG)
        assert converged
        assert result.method == "blahut_arimoto"
        assert result.feasible and not result.fallback_used

    def test_auto_non_square_uses_oracle(self):
        q = ingest_matrix(np.array([[0.5, 0.25, 0.25], [0.25, 0.25, 0.5]]))
        result, _ = capacity(q, "auto", CFG, OCFG)
        assert result.method == "blahut_arimoto"

    def test_degenerate_2x2_reports_zero(self):
        result, converged = capacity(ingest_matrix(np.array([[0.7, 0.3], [0.7, 0.3]])), "auto", CFG, OCFG)
        assert converged
        assert result.capacity == 0.0
        assert result.feasible
        assert result.optimal_input == (0.5, 0.5)

    def test_explicit_binary_on_larger_matrix_rejected(self):
        with pytest.raises(ValueError):
            capacity(ingest_matrix(np.eye(3)), "binary", CFG, OCFG)

    def test_explicit_muroga_on_non_square_rejected(self):
        q = ingest_matrix(np.array([[0.5, 0.25, 0.25], [0.25, 0.25, 0.5]]))
        with pytest.raises(ValueError):
            capacity(q, "muroga", CFG, OCFG)

    def test_explicit_muroga_reports_infeasible_without_fallback(self):
        result, converged = capacity(ingest_matrix(np.array(INFEASIBLE_3X3)), "muroga", CFG, OCFG)
        assert converged
        assert result.method == "muroga"
        assert not result.feasible and not result.fallback_used
        assert min(result.optimal_input) >= 0.0  # reported input is clamped

    def test_grid_method(self):
        result, converged = capacity(ingest_matrix(np.array([[1.0, 0.0], [0.5, 0.5]])), "grid", CFG, OCFG)
        assert converged
        assert result.method == "grid"
        assert result.capacity == pytest.approx(math.log2(1.25), abs=1e-9)

    def test_method_consistency_muroga_vs_binary(self):
        rng = np.random.default_rng(71)
        for _ in range(200):
            a, c = rng.random(2)
            if abs(c - a) <= 1e-3:
                continue
            q = ingest_matrix(np.array([[1.0 - a, a], [1.0 - c, c]]))
            via_muroga, _ = capacity(q, "muroga", CFG, OCFG)
            via_binary, _ = capacity(q, "binary", CFG, OCFG)
            assert via_muroga.capacity == pytest.approx(via_binary.capacity, abs=1e-10)

    def test_nonconvergence_exit_code(self):
        # A channel that neither the uniform input nor the polish settles by sweep 2.
        q = ingest_matrix(np.array(INFEASIBLE_3X3))
        result, converged = capacity(q, "blahut-arimoto", CFG, OracleConfig(max_iterations=2))
        assert not converged
        assert result.diagnostics["iterations"] == 2.0


def _build_parser():
    """The argparse front end that ``_parse_args`` replaced, kept as its reference."""
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


def argparse_reference(argv):
    """``argv`` as the argparse front end read it, with its two source rules:
    the flags' values by flag, None for help, or the exit code of a usage error."""
    parser = _build_parser()
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            args = parser.parse_args(argv)
            if args.matrix is not None and (args.a is not None or args.c is not None):
                parser.error("--matrix and --a/--c are mutually exclusive")
            if args.matrix is None and (args.a is None or args.c is None):
                parser.error("provide either --matrix or both --a and --c")
    except SystemExit as exc:
        return None if exc.code == 0 else exc.code
    return {"--" + dest.replace("_", "-"): value for dest, value in vars(args).items()}


def parsed(argv):
    """What ``_parse_args`` makes of ``argv``, in the terms of argparse_reference."""
    try:
        return _parse_args(argv)
    except ValueError:
        return EXIT_BAD_FILE


def flags(**values):
    """Every flag's value: the defaults, updated by ``values`` (``max_iter`` is --max-iter)."""
    opts = {"--matrix": None, "--a": None, "--c": None, "--base": None, "--method": None,
            "--tol": 1e-9, "--max-iter": 100000, "--format": "json"}
    opts.update({"--" + name.replace("_", "-"): value for name, value in values.items()})
    return opts


AC = ["--a", "0.1", "--c", "0.6"]
#: Command lines on which the parser and the argparse reference agree.
PARITY_CORPUS = [
    # every flag, as "--flag value" and as "--flag=value"
    ["--matrix", "m.json"], ["--matrix=m.json"], AC, ["--a=0.1", "--c=0.6"],
    [*AC, "--base", "10"], [*AC, "--base=10"], [*AC, "--method", "grid"], [*AC, "--method=grid"],
    [*AC, "--tol", "1e-6"], [*AC, "--tol=1e-6"], [*AC, "--max-iter", "7"], [*AC, "--max-iter=7"],
    [*AC, "--format", "text"], [*AC, "--format=text"], ["--matrix", "-"], ["--matrix=--a"],
    ["--matrix", "-odd name.json"], ["--c", "0.6", "--a", "0.1"],
    # unique prefixes, and ambiguous ones
    [*AC, "--meth", "grid"], ["--mat", "m.json"], [*AC, "--max", "5"], [*AC, "--f", "text"],
    [*AC, "--t", "1e-3"], [*AC, "--b", "3"], [*AC, "--fo=text"], [*AC, "--me=binary"],
    ["--m", "x"], [*AC, "--m", "x"], [*AC, "--m=x"], [*AC, "--ma", "5"], ["--=x", *AC],
    # a repeated flag keeps its last value
    ["--a", "0.3", *AC], [*AC, "--format", "text", "--format", "json"],
    [*AC, "--method", "grid", "--meth", "binary"], ["--matrix", "x", "--matrix", "y"],
    # a missing value, at the end and before another flag
    ["--a", "0.1", "--c"], ["--a", "--c", "0.5"], ["--matrix", "--a", "0.1"], ["--matrix"],
    ["--a", "-h", "--c", "0.5"], ["--a", "--bogus", "--c", "0.5"],
    # values that do not convert
    ["--a", "x", "--c", "0.5"], ["--a", "", "--c", "0.5"], ["--a=", "--c", "0.5"],
    ["--a=0.1=2", "--c", "0.5"], [*AC, "--max-iter", "1.5"], [*AC, "--max-iter", "1e3"],
    [*AC, "--max-iter", " 5 "], [*AC, "--max-iter", "9" * 5000], [*AC, "--method", "foo"],
    [*AC, "--format", "xml"], [*AC, "--format="], [*AC, "--base", "1e400"],
    # unknown flags, stray positionals and "--"
    [*AC, "--bogus"], [*AC, "--bogus", "1"], [*AC, "-x"], [*AC, "-a", "0.1"], ["0.5", *AC],
    [*AC, "extra"], [*AC, "-3"], [*AC, ""], [*AC, "---a"], [*AC, "--"], ["--", *AC],
    ["--a", "0.1", "--", "--c", "0.6"], [*AC, "--", "x"], ["--a", "--", "0.1", "--c", "0.5"],
    ["--", "--help"],
    # negative values that argparse also reads as numbers
    ["--a", "-0.2", "--c", "0.5"], ["--a", "-.5", "--c", "0.5"], ["--a", "-7", "--c", "0.5"],
    # help wins over what follows it, and over unrecognized arguments before it
    ["-h"], ["--help"], ["--h"], ["--he"], [*AC, "--help"], ["--help", "--a", "x"],
    ["--bogus", "--help"], ["--a", "x", "--help"], ["--help=1"],
    # the source rules
    [], ["--a", "0.1"], ["--c", "0.5"], ["--matrix", "m.json", "--a", "0.1"],
    ["--matrix", "m.json", *AC],
]
#: Command lines the parser reads on purpose otherwise than argparse did:
#: every negative float literal after a flag is its value, and the one pass
#: stops at help before it meets an ambiguous prefix.
DELIBERATE = {
    ("--a", "-1e-3", "--c", "0.5"): flags(a=-1e-3, c=0.5),
    ("--a", "-inf", "--c", "0.5"): flags(a=-math.inf, c=0.5),
    ("--a", "-5.", "--c", "0.5"): flags(a=-5.0, c=0.5),
    ("--help", "--m"): None,
}


class TestParseArgs:
    @pytest.mark.parametrize("argv", PARITY_CORPUS, ids=lambda argv: " ".join(argv)[:60] or "<none>")
    def test_matches_argparse(self, argv):
        assert parsed(argv) == argparse_reference(argv)

    @pytest.mark.parametrize("argv", DELIBERATE, ids=" ".join)
    def test_deliberate_differences(self, argv):
        assert parsed(list(argv)) == DELIBERATE[argv] != argparse_reference(list(argv))

    def test_values(self):
        assert parsed(["--meth=grid", "--a", "-0.2", "--c", "1", "--max", "3", "--f", "text"]) == flags(
            a=-0.2, c=1.0, method="grid", max_iter=3, format="text"
        )
        assert parsed(AC) == flags(a=0.1, c=0.6)


class TestRun:
    def test_binary_shortcut(self, capsys):
        assert run(["--a", "0", "--c", "0.5"]) == EXIT_OK
        result = parse_report(capsys.readouterr().out)
        assert result.method == "binary_closed_form"
        assert result.capacity == pytest.approx(math.log2(1.25), abs=1e-12)

    def test_matrix_file(self, tmp_path, capsys):
        path = write_channel_file(tmp_path, "ident3.json", {"matrix": np.eye(3).tolist()})
        assert run(["--matrix", path]) == EXIT_OK
        result = parse_report(capsys.readouterr().out)
        assert result.method == "muroga"
        assert result.capacity == pytest.approx(math.log2(3.0), abs=1e-12)

    def test_explicit_oracle_on_z_channel(self, tmp_path, capsys):
        path = write_channel_file(tmp_path, "z.json", {"matrix": [[1.0, 0.0], [0.5, 0.5]]})
        assert run(["--matrix", path, "--method", "blahut-arimoto", "--tol", "1e-9"]) == EXIT_OK
        result = parse_report(capsys.readouterr().out)
        assert abs(result.capacity - math.log2(1.25)) <= 1e-9
        assert not result.fallback_used

    def test_repeated_runs_byte_identical(self, capsys):
        run(["--a", "0.17", "--c", "0.83"])
        first = capsys.readouterr().out
        run(["--a", "0.17", "--c", "0.83"])
        assert capsys.readouterr().out == first

    def test_file_metadata_used_when_flags_absent(self, tmp_path, capsys):
        path = write_channel_file(
            tmp_path, "m.json", {"matrix": [[0.2, 0.8], [0.9, 0.1]], "base": 10, "method": "grid"}
        )
        run(["--matrix", path])
        result = parse_report(capsys.readouterr().out)
        assert result.units == "base-10 units"
        assert result.method == "grid"

    def test_units_label_keeps_every_digit_of_the_base(self, capsys):
        run(["--a", "0", "--c", "0.5", "--base", "1.0000000000000002"])
        assert parse_report(capsys.readouterr().out).units == "base-1.0000000000000002 units"

    def test_flags_override_file_metadata(self, tmp_path, capsys):
        path = write_channel_file(
            tmp_path, "m.json", {"matrix": [[0.2, 0.8], [0.9, 0.1]], "base": 10, "method": "grid"}
        )
        run(["--matrix", path, "--base", "2", "--method", "binary"])
        result = parse_report(capsys.readouterr().out)
        assert result.units == "bits"
        assert result.method == "binary_closed_form"

    def test_text_format(self, capsys):
        assert run(["--a", "0", "--c", "0.5", "--format", "text"]) == EXIT_OK
        assert "binary_closed_form" in capsys.readouterr().out

    def test_missing_source_is_usage_error(self, capsys):
        assert run([]) == EXIT_BAD_FILE
        capsys.readouterr()

    # -hx is pinned here, not in PARITY_CORPUS: argparse reads it as help from Python 3.13 on.
    @pytest.mark.parametrize(
        "argv",
        [[], ["--a", "0.1"], ["--m", "x"], ["--a", "x", "--c", "0.5"], [*AC, "--method", "foo"],
         [*AC, "--bogus"], ["--a", "--c", "0.5"], ["--help=1"], ["-hx"]],
        ids=lambda argv: " ".join(argv) or "<none>",
    )
    def test_usage_error_writes_only_to_stderr(self, capsys, argv):
        assert run(argv) == EXIT_BAD_FILE
        captured = capsys.readouterr()
        assert captured.out == ""
        usage, error = captured.err.split("\ncapacity: error: ")
        assert usage.startswith("usage: capacity [-h] [--matrix PATH]")
        assert usage.endswith("[--format {json,text}]")
        assert error.endswith("\n") and "\n" not in error[:-1]

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["--he"], [*AC, "--help"]])
    def test_help(self, capsys, argv):
        assert run(argv) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        assert_names_every_flag(captured.out)

    def test_conflicting_sources_is_usage_error(self, tmp_path, capsys):
        path = write_channel_file(tmp_path, "m.json", {"matrix": [[1.0, 0.0], [0.0, 1.0]]})
        assert run(["--matrix", path, "--a", "0.1", "--c", "0.5"]) == EXIT_BAD_FILE
        capsys.readouterr()

    def test_unreadable_file_exit(self, tmp_path, capsys):
        assert run(["--matrix", str(tmp_path / "none.json")]) == EXIT_BAD_FILE
        capsys.readouterr()

    def test_odd_bytes_exit(self, tmp_path, capsys):
        for name, data in ODD_BYTES.items():
            path = tmp_path / name
            path.write_bytes(data)
            assert run(["--matrix", str(path)]) == EXIT_BAD_FILE
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith(f"error: {path} ")

    def test_invalid_matrix_exit(self, tmp_path, capsys):
        # The second file's row sum overflows a float although every entry is finite.
        for name, rows in (("m.json", [[0.9, 0.2], [0.5, 0.5]]), ("big.json", [[1e308, 1e308], [0.5, 0.5]])):
            path = write_channel_file(tmp_path, name, {"matrix": rows})
            assert run(["--matrix", path]) == EXIT_BAD_MATRIX
            assert capsys.readouterr().err.startswith("error: ")
        # An int literal beyond the float range reads as its float spelling 1e400.
        for spelling in ("1" + "0" * 400, "1e400", "-" + "9" * 5000):
            path = tmp_path / "huge_int.json"
            path.write_text('{"matrix": [[%s, 0], [0.5, 0.5]]}' % spelling, encoding="utf-8")
            assert run(["--matrix", str(path)]) == EXIT_BAD_MATRIX
            assert capsys.readouterr().err == "error: matrix contains non-finite entries\n"

    @pytest.mark.parametrize(
        "text",
        [
            '{"matrix": [[0.5, %s], [0.5, 0.5]]}' % ("[" * 400 + "]" * 400),
            '{"matrix": [[0.5, %s], [0.5, 0.5]]}' % json.dumps([0.5] * 5000),
            '{"matrix": [[1, 0], [0.5, 0.5]], "base": "%s"}' % ("2" * 5000),
            '{"matrix": [[1, 0], [0.5, 0.5]], "method": "%s"}' % ("m" * 5000),
        ],
        ids=["deep-entry", "long-entry", "long-base", "long-method"],
    )
    def test_bad_value_message_is_short(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        assert run(["--matrix", str(path)]) == EXIT_BAD_FILE
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert len(captured.err) < 200, captured.err[:300]

    def test_singular_with_explicit_muroga_exit(self, capsys):
        assert run(["--a", "0.3", "--c", "0.3", "--method", "muroga"]) == EXIT_BAD_MATRIX
        capsys.readouterr()

    def test_inverse_not_finite_exit(self, tmp_path, capsys):
        rows = [[0.5, 0.5, 0, 0], [0, 0.5, 0.5, 0], [0.25, 0.5, 0.25, 4e-309], [0.25, 0.25, 0.25, 0.25]]
        path = write_channel_file(tmp_path, "nan_inverse.json", {"matrix": rows})
        assert run(["--matrix", path, "--method", "muroga"]) == EXIT_BAD_MATRIX
        assert capsys.readouterr() == ("", "error: inverse is not finite\n")

    def test_out_of_range_shortcut_exit(self, capsys):
        assert run(["--a", "-0.2", "--c", "0.5"]) == EXIT_BAD_MATRIX
        capsys.readouterr()

    def test_bad_base_exit(self, tmp_path, capsys):
        assert run(["--a", "0", "--c", "0.5", "--base", "1"]) == EXIT_BAD_FILE
        assert run(["--a", "0", "--c", "0.5", "--base", "inf"]) == EXIT_BAD_FILE
        path = tmp_path / "inf_base.json"
        path.write_text('{"matrix": [[1, 0], [0.5, 0.5]], "base": 1e309}', encoding="utf-8")
        assert run(["--matrix", str(path)]) == EXIT_BAD_FILE
        assert "log base" in capsys.readouterr().err
        path.write_text('{"matrix": [[1, 0], [0.5, 0.5]], "base": 1%s}' % ("0" * 400), encoding="utf-8")
        assert run(["--matrix", str(path)]) == EXIT_BAD_FILE
        assert capsys.readouterr().err == "error: log base must be finite and > 1, got inf\n"

    @pytest.mark.parametrize("method", ["auto", "blahut-arimoto", "grid"])
    def test_default_settings_spelled_out_change_nothing(self, capsys, method):
        """Flags that restate the default base, tolerance and cap print the
        report that no flags print."""
        argv = ["--a", "0.3", "--c", "0.9", "--method", method]
        assert run(argv) == EXIT_OK
        plain = capsys.readouterr()
        assert run([*argv, "--base", "2", "--tol", "1e-9", "--max-iter", "100000"]) == EXIT_OK
        assert capsys.readouterr() == plain

    @pytest.mark.parametrize(
        "flags", [["--tol", "0"], ["--tol", "nan"], ["--tol", "-1e-9"], ["--max-iter", "0"], ["--base", "nan"]]
    )
    def test_settings_off_the_defaults_are_still_checked(self, capsys, flags):
        assert run(["--a", "0.3", "--c", "0.9", *flags]) == EXIT_BAD_FILE
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")

    def test_nonconvergence_still_reports(self, tmp_path, capsys):
        path = write_channel_file(tmp_path, "inf.json", {"matrix": INFEASIBLE_3X3})
        assert run(["--matrix", path, "--method", "blahut-arimoto", "--max-iter", "3"]) == EXIT_NO_CONVERGENCE
        result = parse_report(capsys.readouterr().out)
        assert result.method == "blahut_arimoto"
        assert result.diagnostics["iterations"] == 3.0

    def test_fallback_reported_through_cli(self, tmp_path, capsys):
        path = write_channel_file(tmp_path, "inf.json", {"matrix": INFEASIBLE_3X3})
        assert run(["--matrix", path]) == EXIT_OK
        result = parse_report(capsys.readouterr().out)
        assert result.fallback_used and not result.feasible
        assert result.diagnostics["muroga_capacity_raw"] > result.capacity

    def test_binary_fallback_settles_at_sweep_one(self, capsys):
        # At a tolerance below rounding auto rejects the closed form by its
        # capacity term alone; Blahut-Arimoto evaluates it again, and its
        # bracket alone accepts it before the first sweep.
        assert run(["--a", "0.1", "--c", "0.9", "--tol", "1e-16", "--max-iter", "3"]) == EXIT_OK
        result = parse_report(capsys.readouterr().out)
        assert result.method == "blahut_arimoto" and result.fallback_used
        assert result.diagnostics["iterations"] == 1.0
        assert result.optimal_input == (0.5, 0.5)
        # The closed form's capacity is kept under its own name: no Muroga solve ran.
        assert result.diagnostics["binary_closed_form_capacity_raw"] == binary_capacity(0.1, 0.9)
        assert "muroga_capacity_raw" not in result.diagnostics

    @pytest.mark.parametrize(
        "argv, code, err",
        [
            pytest.param(
                [*AC, "--bogus"], EXIT_BAD_FILE, "{usage}\ncapacity: error: unrecognized arguments: --bogus\n",
                id="bad-flag",
            ),
            pytest.param(
                ["--matrix", "{missing}"], EXIT_BAD_FILE,
                "error: cannot read {missing}: [Errno 2] No such file or directory: '{missing}'\n",
                id="unreadable-file",
            ),
            pytest.param(["--a", "2", "--c", "0.5"], EXIT_BAD_MATRIX, "error: a must lie in [0, 1], got 2.0\n", id="bad-a"),
            pytest.param(
                ["--a", "2", "--c", "0.5", "--tol", "-1"], EXIT_BAD_FILE, "error: tolerance must be positive, got -1.0\n",
                id="bad-a-and-tol",
            ),
            pytest.param(
                ["--matrix", "{bad}", "--tol", "-1"], EXIT_BAD_FILE, "error: tolerance must be positive, got -1.0\n",
                id="bad-file-and-tol",
            ),
            pytest.param(
                ["--a", "0.3", "--c", "0.3", "--method", "muroga"], EXIT_BAD_MATRIX, "error: Singular matrix\n",
                id="singular-muroga",
            ),
            pytest.param(
                ["--matrix", "{infeasible}", "--method", "blahut-arimoto", "--max-iter", "3"], EXIT_NO_CONVERGENCE, "",
                id="iteration-cap",
            ),
        ],
    )
    def test_error_paths(self, tmp_path, capsys, argv, code, err):
        """Exit code and stderr of each error path.  Flags are checked before
        the channel, so a bad flag exits 2 whether the bad channel comes from
        --a/--c or from a file."""
        paths = {
            "missing": str(tmp_path / "none.json"),
            "bad": write_channel_file(tmp_path, "bad.json", {"matrix": [[0.9, 0.2], [0.5, 0.5]]}),
            "infeasible": write_channel_file(tmp_path, "inf.json", {"matrix": INFEASIBLE_3X3}),
        }
        assert run([arg.format(**paths) for arg in argv]) == code
        out, got = capsys.readouterr()
        assert got == err.format(usage=_usage(), **paths)
        if code == EXIT_NO_CONVERGENCE:
            assert parse_report(out).diagnostics["iterations"] == 3.0
        else:
            assert out == ""


def patch_everywhere(monkeypatch, fn, replacement):
    """Replace a package function at every module global bound to it."""
    package = [m for n, m in list(sys.modules.items()) if n == "chancap" or n.startswith("chancap.")]
    for mod in package:
        for gname, value in list(vars(mod).items()):
            if value is fn:
                monkeypatch.setattr(mod, gname, replacement)


def count_calls(monkeypatch, *names):
    """Calls of each named package function, through every module global bound to it."""
    counts = {}
    for dotted in names:
        home, name = dotted.rsplit(".", 1)
        fn = getattr(importlib.import_module(home), name)
        counts[name] = 0

        def counted(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        patch_everywhere(monkeypatch, fn, counted)
    return counts


def count_channel_logs(monkeypatch):
    """The 2-D arrays, channels, given to ``_log_pos`` through every module binding."""
    logged = []
    real = importlib.import_module("chancap.entropy")._log_pos

    def counted(x, base):
        if np.ndim(x) == 2:
            logged.append(x)
        return real(x, base)

    patch_everywhere(monkeypatch, real, counted)
    return logged


class TestChecksOnce:
    """One run() checks its channel once: on ingest for a file, in _check_binary
    for --a/--c, and takes its masked logs once; the solvers run as their
    cores on the checked channel, and the certificate does not check again."""

    VALIDATORS = (
        "chancap.entropy.check_channel",
        "chancap.entropy.check_distribution",
        "chancap.oracle.capacity_bounds",
        "chancap.cli.ingest_matrix",
    )

    @pytest.mark.parametrize("method", METHODS)
    def test_binary_shortcut(self, monkeypatch, capsys, method):
        counts = count_calls(monkeypatch, *self.VALIDATORS)
        logged = count_channel_logs(monkeypatch)
        assert run(["--a", "0.3", "--c", "0.9", "--method", method]) == EXIT_OK
        capsys.readouterr()
        assert counts == {
            "check_channel": 0,
            "check_distribution": 0,
            "capacity_bounds": 0,
            "ingest_matrix": 0,
        }
        assert len(logged) == 1, method

    def test_oracle_report_reuses_its_bracket(self, monkeypatch, capsys):
        # The closed-form try alone, before sweep 1; the report takes its bracket.
        counts = count_calls(monkeypatch, "chancap.channel._bracket")
        assert run(["--a", "0.3", "--c", "0.9", "--method", "blahut-arimoto"]) == EXIT_OK
        capsys.readouterr()
        assert counts == {"_bracket": 1}

    def test_file_channel_is_ingested_once(self, monkeypatch, tmp_path, capsys):
        # auto on an infeasible square channel: ingest checks it, and Muroga
        # and BA run as cores on the checked channel.
        path = write_channel_file(tmp_path, "inf.json", {"matrix": INFEASIBLE_3X3})
        counts = count_calls(monkeypatch, *self.VALIDATORS)
        logged = count_channel_logs(monkeypatch)
        assert run(["--matrix", path]) == EXIT_OK
        assert parse_report(capsys.readouterr().out).fallback_used
        assert counts == {
            "check_channel": 1,
            "check_distribution": 0,
            "capacity_bounds": 0,
            "ingest_matrix": 1,
        }
        assert len(logged) == 1

    @pytest.mark.parametrize("method", METHODS)
    def test_each_method_logs_the_channel_once(self, monkeypatch, tmp_path, capsys, method):
        matrix = {"binary": [[0.6, 0.4], [0.15, 0.85]], "grid": [[0.6, 0.4, 0.0], [0.15, 0.8, 0.05]]}
        path = write_channel_file(tmp_path, "q.json", {"matrix": matrix.get(method, INFEASIBLE_3X3)})
        counts = count_calls(monkeypatch, *self.VALIDATORS)
        logged = count_channel_logs(monkeypatch)
        assert run(["--matrix", path, "--method", method]) == EXIT_OK
        capsys.readouterr()
        assert counts["check_channel"] == 1
        assert len(logged) == 1


#: a, c over the closed unit square, with its corners, the smallest
#: subnormal and the largest double below 1 drawn often.
UNIT = st.one_of(st.sampled_from([0.0, 1.0, 5e-324, 1.0 - 2.0**-53]), st.floats(0.0, 1.0))


class TestBinaryShortcutAsBuilt:
    """run() uses binary_channel(a, c) without ingesting it, which is sound
    because the matrix passes check_channel unchanged."""

    @settings(deadline=None)
    @given(UNIT, UNIT)
    @example(5e-324, 1.0 - 2.0**-53)
    @example(1.0, 1.0 - 2.0**-53)
    def test_check_channel_returns_it_unchanged(self, a, c):
        q = binary_channel(a, c)
        checked = check_channel(q)
        assert checked.dtype == q.dtype and checked.tobytes() == q.tobytes()

    @settings(deadline=None)
    @given(UNIT, UNIT)
    @example(5e-324, 1.0 - 2.0**-53)
    @example(0.3, 0.3)
    def test_flags_report_as_the_matrix_file(self, tmp_path_factory, a, c):
        path = write_channel_file(tmp_path_factory.mktemp("ac"), "q.json", {"matrix": [[1 - a, a], [1 - c, c]]})
        for method in METHODS:
            outputs = []
            for source in (["--a", repr(a), "--c", repr(c)], ["--matrix", path]):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = run([*source, "--method", method])
                outputs.append((code, out.getvalue(), err.getvalue()))
            assert outputs[0] == outputs[1], (method, a, c)


HELP_NAMES = ("-h", "--help", "--matrix", "--a", "--c", "--base", "--method", "--tol", "--max-iter", "--format")


def assert_names_every_flag(text):
    assert text.startswith("usage: capacity ")
    words = text.replace(",", " ").replace("{", " ").replace("}", " ").split()
    for name in (*HELP_NAMES, *METHODS):
        assert name in words, name


@pytest.fixture
def unfreeze():
    yield
    gc.unfreeze()


class TestConsoleScript:
    @pytest.mark.skipif(shutil.which("capacity") is None, reason="entry point not installed")
    def test_installed_entry_point(self):
        proc = subprocess.run(
            ["capacity", "--a", "0", "--c", "0.5"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        result = parse_report(proc.stdout)
        assert result.capacity == pytest.approx(math.log2(1.25), abs=1e-12)


    def test_python_dash_m(self):
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "chancap", "--a", "0", "--c", "0.5"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0
        result = parse_report(proc.stdout)
        assert result.capacity == pytest.approx(math.log2(1.25), abs=1e-12)

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_python_dash_m_help(self, flag):
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "chancap", flag],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        assert_names_every_flag(proc.stdout)

    def test_import_leaves_argparse_out(self):
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, chancap.cli; print('argparse' in sys.modules)"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")

    def test_import_closure(self):
        """A fresh ``import chancap.cli`` loads what ``import numpy, json,
        dataclasses`` loads, the package's own modules and ``gc``, nothing
        more: a cold call pays for no other import."""
        src = Path(__file__).resolve().parents[1] / "src"

        def loaded(statement):
            proc = subprocess.run(
                [sys.executable, "-c", f"import sys; {statement}; print(' '.join(sorted(sys.modules)))"],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": str(src)},
            )
            assert (proc.returncode, proc.stderr) == (0, ""), statement
            return set(proc.stdout.split())

        extra = loaded("import chancap.cli") - loaded("import numpy, json, dataclasses")
        assert {"chancap.cli", "chancap.dispatch"} <= extra
        assert {m for m in extra if m != "chancap" and not m.startswith("chancap.")} <= {"gc"}

    def test_main_freezes_the_heap_and_run_does_not(self, monkeypatch, capsys, unfreeze):
        argv = ["--a", "-0.2", "--c", "0.5"]
        frozen = gc.get_freeze_count()
        code = run(argv)
        assert gc.get_freeze_count() == frozen
        monkeypatch.setattr(sys, "argv", ["capacity", *argv])
        with pytest.raises(SystemExit) as exit_info:
            main()
        assert exit_info.value.code == code == EXIT_BAD_MATRIX
        assert gc.get_freeze_count() > 0
        capsys.readouterr()

    def test_console_script_matches_run(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
        root = Path(__file__).resolve().parents[1]
        with open(root / "pyproject.toml", "rb") as fh:
            module, func = tomllib.load(fh)["project"]["scripts"]["capacity"].split(":")
        script = f"import sys; from {module} import {func}; sys.exit({func}())"
        unsolved = write_channel_file(tmp_path, "inf.json", {"matrix": INFEASIBLE_3X3})
        cases = {
            EXIT_OK: ["--a", "0.1", "--c", "0.6"],
            EXIT_BAD_FILE: ["--matrix", str(tmp_path / "absent.json")],
            EXIT_BAD_MATRIX: ["--a", "-0.2", "--c", "0.5"],
            EXIT_NO_CONVERGENCE: ["--matrix", unsolved, "--method", "blahut-arimoto", "--max-iter", "3"],
        }
        for expected, argv in cases.items():
            proc = subprocess.run(
                [sys.executable, "-c", script, *argv],
                capture_output=True,
                env={**os.environ, "PYTHONPATH": str(root / "src")},
            )
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
            assert code == expected
            assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (
                code, out.getvalue().encode(), err.getvalue()
            ), argv


class TestCapacityResultInvariants:
    def test_reported_distributions_are_valid(self):
        cases = [
            (np.array([[1.0, 0.0], [0.5, 0.5]]), "auto"),
            (np.array(INFEASIBLE_3X3), "auto"),
            (np.array(INFEASIBLE_3X3), "muroga"),
            (np.array([[0.7, 0.3], [0.7, 0.3]]), "auto"),
            (binary_q(NEAR_DEGENERATE_A, NEAR_DEGENERATE_C), "auto"),
            (binary_q(NEAR_DEGENERATE_A, NEAR_DEGENERATE_C), "binary"),
            (binary_q(0.3, 0.3000000001), "auto"),
            (binary_q(0.3, 0.3000000001), "binary"),
            (binary_q(0.9, 0.9 - 1e-15), "auto"),
            (binary_q(0.0, 1e-300), "auto"),
        ]
        for raw, method in cases:
            result, _ = capacity(ingest_matrix(raw), method, CFG, OCFG)
            if method == "auto" and raw.shape == (2, 2):
                # The closed form is feasible on the whole square: no fallback.
                assert result.method == "binary_closed_form", raw
                assert result.feasible and not result.fallback_used, raw
            assert result.capacity >= -1e-12
            for dist in (result.optimal_input, result.optimal_output):
                assert min(dist) >= -1e-12
                assert abs(math.fsum(dist) - 1.0) <= 1e-9

    def test_oracle_result_matches_library_call(self):
        q = ingest_matrix(np.array(INFEASIBLE_3X3))
        result, _ = capacity(q, "blahut-arimoto", CFG, OCFG)
        assert result.capacity == pytest.approx(blahut_arimoto(q).capacity, abs=1e-12)

    def test_binary_result_matches_library_call(self):
        result, _ = capacity(ingest_matrix(np.array([[0.6, 0.4], [0.15, 0.85]])), "binary", CFG, OCFG)
        assert result.capacity == binary_capacity(0.4, 0.85)


@st.composite
def channels(draw):
    """A 2x2 channel with |c - a| down to 1e-12, a square one, or a tall one."""
    kind = draw(st.sampled_from(["binary", "square", "tall"]))
    if kind == "binary":
        a = draw(st.floats(0.0, 1.0))
        d = 10.0 ** draw(st.floats(-12.0, 0.0))
        return binary_q(a, a + d if a + d <= 1.0 else max(a - d, 0.0))
    if kind == "square":
        n = draw(st.integers(3, 5))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return rng.dirichlet(np.ones(n), size=n)
    return np.array([[0.6, 0.4], [0.3, 0.7], [0.1, 0.9]])


class TestCertificate:
    """Every report carries the gap of its own reported input."""

    OCFG = OracleConfig(max_iterations=500, grid_resolution=10**4)
    #: Bits, nats and decimal digits: a certificate that ignored the base fails.
    CFGS = (CFG, LogConfig(base=math.e), LogConfig(base=10.0))

    @settings(deadline=None)
    @given(channels())
    @example(binary_q(NEAR_DEGENERATE_A, NEAR_DEGENERATE_C))
    def test_reports_are_certified_by_their_own_input(self, raw):
        q = ingest_matrix(raw)
        n, m = q.shape
        if (n, m) == (2, 2):
            methods = METHODS
        elif n == m:
            methods = ("auto", "muroga", "blahut-arimoto")
        else:
            methods = ("auto", "blahut-arimoto")
        for cfg, method in itertools.product(self.CFGS, methods):
            try:
                result, converged = capacity(q, method, cfg, self.OCFG)
            except SingularChannelError:
                continue
            if not converged:
                continue
            p = np.array(result.optimal_input)
            assert np.all(p >= 0.0) and abs(math.fsum(p) - 1.0) <= 1e-12, (method, p)
            lower, upper = capacity_bounds(p, q, cfg)
            assert result.diagnostics["gap"] == upper - lower, (cfg.base, method)
            if result.feasible:
                tol = self.OCFG.tolerance
                assert lower - tol <= result.capacity <= upper + tol, (cfg.base, method, result)


def _bits_bracket(q, p):
    """(I(p; Q), max_i D(Q_i || pQ)) in bits, by numpy alone.

    The bracket of ``perfbench/check.py``, with output masses floored at
    1e-300 as the package floors them: an output that no input in use
    reaches, or whose mass underflows, then gives a large finite divergence
    instead of an infinite one and a NaN gap.  The floored maximum is within
    log2(1 + m * 1e-300) of the divergence bound from the distribution
    max(r, 1e-300) / sum, so it is still an upper bound up to rounding.
    """
    log_r = np.log2(np.maximum(p @ q, 1e-300))
    pos = q > 0.0
    terms = np.where(pos, q * (np.log2(np.where(pos, q, 1.0)) - log_r[np.newaxis, :]), 0.0)
    d = terms.sum(axis=1)
    return float(p @ d), float(d.max())


@st.composite
def odd_matrices(draw):
    """1..6 x 1..6 channels with subnormal entries and exact or near-duplicate rows."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = rng.dirichlet(np.full(m, draw(st.sampled_from([0.05, 0.3, 1.0]))), size=n)
    tiny = draw(st.sampled_from([0.0, 5e-324, 1e-310, 1e-300]))
    if tiny:
        q[rng.random((n, m)) < 0.3] = tiny
        q /= q.sum(axis=1, keepdims=True)
    for _ in range(draw(st.integers(0, n - 1))):
        i, j = rng.integers(0, n, 2)
        eps = draw(st.sampled_from([0.0, 1e-15, 1e-12, 1e-8]))
        q[j] = (1.0 - eps) * q[i] + eps * q[j]
    # A row that puts its mass 1 + k ulp on one output, as a file may carry
    # it: the row sum passes the check, and the entry lies above 1.
    ulps = draw(st.sampled_from([0, 0, 1, 2, 4]))
    if ulps:
        q[rng.integers(0, n)] = np.eye(m)[rng.integers(0, m)] * (1.0 + ulps * 2.0**-52)
    return q


class TestOddFiles:
    """Odd channel files under every method exit with a documented code and
    no traceback, and every report's gap is its own input's bracket.  A file
    that ingests is refused (exit 3) only by a method that does not take its
    shape, or by Muroga's singularity rule."""

    @settings(deadline=None, max_examples=80)
    @given(odd_matrices())
    @example(np.array(INFEASIBLE_3X3))
    @example(np.array([[0.7, 0.2, 0.1], [0.7, 0.2, 0.1], [0.1, 0.1, 0.8]]))
    @example(np.array([[1.0, 0.0], [1.0 - 5e-324, 5e-324]]))
    @example(np.array([[0.5, 0.5, 0, 0], [0, 0.5, 0.5, 0], [0.25, 0.5, 0.25, 4e-309], [0.25, 0.25, 0.25, 0.25]]))
    @example(np.array(ABOVE_ONE_2X2))
    def test_exit_codes_and_gaps(self, tmp_path_factory, q):
        path = write_channel_file(tmp_path_factory.mktemp("odd"), "q.json", {"matrix": q.tolist()})
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                ingest_matrix(q)
            valid = True
        except ValueError:
            valid = False
        n, m = q.shape
        takes = {"auto": True, "binary": (n, m) == (2, 2), "muroga": False, "blahut-arimoto": True, "grid": n == 2}
        for method in METHODS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(["--matrix", path, "--method", method, "--max-iter", "300"])
            assert code in (EXIT_OK, EXIT_BAD_FILE, EXIT_BAD_MATRIX, EXIT_NO_CONVERGENCE), method
            assert "Traceback" not in err.getvalue(), method
            assert not (valid and takes[method] and code == EXIT_BAD_MATRIX), (method, err.getvalue())
            if code in (EXIT_OK, EXIT_NO_CONVERGENCE):
                result = parse_report(out.getvalue())
                lower, upper = _bits_bracket(q, np.array(result.optimal_input))
                assert result.diagnostics["gap"] == pytest.approx(upper - lower, rel=1e-12, abs=1e-12), method

    @pytest.mark.parametrize("method", METHODS)
    def test_entry_above_one_is_solved(self, tmp_path, capsys, method):
        """An entry 1 + 2 ulp passes the check; the binary closed form takes
        it as 1, and the report is certified on the file's own entries."""
        path = write_channel_file(tmp_path, "q.json", {"matrix": ABOVE_ONE_2X2})
        assert run(["--matrix", path, "--method", method]) == EXIT_OK
        result = parse_report(capsys.readouterr().out)
        lower, upper = capacity_bounds(np.array(result.optimal_input), np.array(ABOVE_ONE_2X2))
        assert result.diagnostics["gap"] == upper - lower
        assert result.feasible

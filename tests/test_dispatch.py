"""``chancap.capacity``, the library's certified answer, against what the
``capacity`` command reports for the same channel."""

import contextlib
import io
import json
import math

import numpy as np
import pytest

import chancap
from chancap import LogConfig, OracleConfig, blahut_arimoto, capacity
from chancap.cli import EXIT_BAD_MATRIX, EXIT_NO_CONVERGENCE, EXIT_OK, METHODS, emit_report, run

INFEASIBLE_3X3 = [[0.8, 0.1, 0.1], [0.5, 0.25, 0.25], [0.1, 0.1, 0.8]]
#: Channels that reach every branch: 2x2 closed forms (corners, a == c, an
#: entry 1 + 2 ulp), feasible, infeasible and singular squares, two-row
#: channels for the grid, and tall and wide ones for Blahut-Arimoto.
CHANNELS = [
    [[0.7, 0.3], [0.1, 0.9]],
    [[1.0, 0.0], [0.5, 0.5]],
    [[0.6, 0.4], [0.6, 0.4]],
    [[1.0, 0.0], [1.0 - 5e-324, 5e-324]],
    [[1.0 + 2.0**-51, 0.0], [0.25, 0.75]],
    [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]],
    INFEASIBLE_3X3,
    [[0.7, 0.2, 0.1], [0.7, 0.2, 0.1], [0.1, 0.1, 0.8]],
    [[0.6, 0.4, 0.0], [0.15, 0.8, 0.05]],
    [[0.9, 0.1], [0.5, 0.5], [0.1, 0.9]],
    *np.random.default_rng(28).dirichlet(np.full(4, 0.5), size=(4, 4)),
]
BASES = (2.0, math.e, 10.0)
#: Default stopping, and a cap of 3 sweeps that leaves most Blahut-Arimoto
#: runs unconverged (exit 4).
ORACLES = (OracleConfig(), OracleConfig(max_iterations=3))
FORMATS = ("json", "text")


def command(path, argv=()):
    """(exit code, stdout, stderr) of the ``capacity`` command on a channel file."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["--matrix", str(path), *argv])
    return code, out.getvalue(), err.getvalue()


def library(raw, method, cfg, ocfg):
    """``capacity`` as the command would print it, by format: (exit code, stdout, stderr)."""
    try:
        result, converged = capacity(raw, method, cfg, ocfg)
    except ValueError as exc:
        return dict.fromkeys(FORMATS, (EXIT_BAD_MATRIX, "", f"error: {exc}\n"))
    assert type(converged) is bool, (raw, method)
    code = EXIT_OK if converged else EXIT_NO_CONVERGENCE
    return {fmt: (code, emit_report(result, fmt) + "\n", "") for fmt in FORMATS}


def write_channel(path, raw):
    path.write_text(json.dumps({"matrix": np.asarray(raw).tolist()}), encoding="utf-8")
    return path


def test_capacity_is_what_the_command_reports(tmp_path):
    """Over every method, base and cap, in both formats: exit code, stdout
    and stderr of the command are those of ``capacity`` on the same
    channel; ``converged`` is a bool, false exactly where the command exits
    4, and the command exits 3 with the message ``capacity`` raises."""
    codes = set()
    for i, raw in enumerate(CHANNELS):
        path = write_channel(tmp_path / f"q{i}.json", raw)
        for base in BASES:
            cfg = LogConfig(base=base)
            for ocfg in ORACLES:
                for method in METHODS:
                    argv = ["--base", repr(base), "--max-iter", str(ocfg.max_iterations), "--method", method]
                    for fmt, want in library(raw, method, cfg, ocfg).items():
                        assert command(path, [*argv, "--format", fmt]) == want, (raw, argv, fmt)
                        codes.add(want[0])
    assert codes == {EXIT_OK, EXIT_BAD_MATRIX, EXIT_NO_CONVERGENCE}


def test_defaults_are_the_command_lines(tmp_path):
    q = np.array(INFEASIBLE_3X3)
    result, converged = capacity(q)
    assert (result, converged) == capacity(q, "auto", LogConfig(), OracleConfig())
    assert converged and command(write_channel(tmp_path / "q.json", q)) == (EXIT_OK, emit_report(result) + "\n", "")


@pytest.mark.parametrize(
    "raw",
    [
        [[0.5, 0.6], [0.5, 0.5]],
        [[0.5, 0.5 + 1e-10], [0.5, 0.5]],
        [[-0.1, 1.1], [0.5, 0.5]],
        [[math.nan, 1.0], [0.5, 0.5]],
        [0.5, 0.5],
        [[]],
    ],
)
def test_unchecked_channel_raises_as_blahut_arimoto_does(raw):
    """The library checks as the solvers do: no loose row-sum tolerance, no
    renormalizing, which only the command line's file ingest applies."""
    with pytest.raises(ValueError) as want:
        blahut_arimoto(raw)
    with pytest.raises(ValueError) as got:
        capacity(raw)
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


@pytest.mark.parametrize("method", ["blahut_arimoto", "Auto", "", None])
def test_unknown_method_raises(method):
    with pytest.raises(ValueError, match="method must be one of"):
        capacity([[0.9, 0.1], [0.2, 0.8]], method)


def test_public_name():
    assert "capacity" in chancap.__all__
    assert chancap.capacity is capacity

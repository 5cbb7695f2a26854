"""
Capacity reports from the command line
======================================

The `capacity` console script wraps the solvers behind one entry point and
emits a deterministic JSON report.  This script drives the same entry point
in-process: write a channel file, run it, and read the report back.  The
library's `chancap.capacity` gives the same certified answer without a file.
"""

import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from chancap import capacity
from chancap.cli import emit_report, parse_report, run


def capture(argv):
    """Run the CLI entry point and return (exit_code, stdout text)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(argv)
    return code, buf.getvalue()


# Binary channels need no file at all: pass the two crossover numbers.
code, out = capture(["--a", "0", "--c", "0.5"])
print("exit code:", code)
print(out)

# General channels come from a JSON file holding the row-stochastic matrix.
with tempfile.TemporaryDirectory() as tmpdir:
    tmp = Path(tmpdir)
    noisy_matrix = [
        [0.7, 0.2, 0.1],
        [0.1, 0.8, 0.1],
        [0.05, 0.15, 0.8],
    ]
    noisy = tmp / "noisy3.json"
    noisy.write_text(json.dumps({"matrix": noisy_matrix}))
    code, out = capture(["--matrix", str(noisy)])
    report = parse_report(out)
    print("method       :", report.method)
    print("capacity     :", report.capacity, report.units)
    print("optimal input:", report.optimal_input)

    # Reports are byte-deterministic: run twice, compare bytes.
    _, again = capture(["--matrix", str(noisy)])
    print("reruns byte-identical:", out == again)

    # The library entry point: the same result, with no file and no argv.
    # It returns (result, converged); the command exits 4 where converged is false.
    result, converged = capacity(noisy_matrix)
    print("library report == CLI stdout:", emit_report(result) + "\n" == out, " converged:", converged)
    assert emit_report(result) + "\n" == out

    # Method auto falls back to the iterative solver when the explicit formula
    # produces a negative input weight.  The report says so and keeps both
    # numbers in the diagnostics.
    bad = tmp / "infeasible3.json"
    bad.write_text(
        json.dumps(
            {
                "matrix": [
                    [0.8, 0.1, 0.1],
                    [0.5, 0.25, 0.25],
                    [0.1, 0.1, 0.8],
                ]
            }
        )
    )
    code, out = capture(["--matrix", str(bad)])
    report = parse_report(out)
    print()
    print("fallback_used:", report.fallback_used, " method:", report.method)
    print("raw Muroga C   :", report.diagnostics["muroga_capacity_raw"])
    print("true capacity  :", report.capacity)

    # Channel files may carry their own base and method; flags still win.
    nats = tmp / "nats.json"
    nats.write_text(json.dumps({"matrix": [[0.9, 0.1], [0.2, 0.8]], "base": 2.718281828459045}))
    _, out = capture(["--matrix", str(nats)])
    report = parse_report(out)
    print()
    print("file-supplied base -> units:", report.units, " capacity:", report.capacity)
    _, out = capture(["--matrix", str(nats), "--base", "2"])
    print("flag override      -> units:", parse_report(out).units)

# Humans can ask for a table instead of JSON.
_, out = capture(["--a", "0.1", "--c", "0.9", "--format", "text"])
print()
print(out)

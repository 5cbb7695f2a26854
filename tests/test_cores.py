"""The solvers' private cores against their public entry points, and run()
against a reference pipeline built from the public solvers alone.

``blahut_arimoto`` and ``grid_search_binary`` check their channel and run
a core on it; the command line runs the cores on the channel it checked
once.  Each public result must be its core's, bit for bit, and each report
the one the public solvers give.
"""

import contextlib
import io
import json
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chancap import (
    LogConfig,
    OracleConfig,
    SingularChannelError,
    binary_capacity,
    binary_optimal_input,
    binary_optimal_output,
    blahut_arimoto,
    capacity,
    capacity_bounds,
    check_channel,
    feasible_input,
    grid_search_binary,
    muroga_capacity,
)
from chancap.cli import (
    EXIT_BAD_MATRIX,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    METHODS,
    CapacityResult,
    emit_report,
    ingest_matrix,
    run,
)
from chancap.entropy import _log_pos
from chancap.muroga import INPUT_FEASIBILITY_TOL
from chancap.oracle import _blahut_arimoto, _grid_search_binary

INFEASIBLE_3X3 = [[0.8, 0.1, 0.1], [0.5, 0.25, 0.25], [0.1, 0.1, 0.8]]
#: (a, c) at and next to the corners of the unit square.
CORNERS = [
    (0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0),
    (5e-324, 1.0 - 2.0**-53), (1.0, 1.0 - 2.0**-53), (0.0, 5e-324),
]
#: Bits, nats and decimal digits.
BASES = (2.0, math.e, 10.0)
#: A cap that keeps a stalling channel cheap; it still reaches the polish.
MAX_ITER = 200


@st.composite
def channels(draw):
    """1..8 x 1..8 channels with exact and 1e-8 near-duplicate rows, subnormal
    entries and an entry 1 + 2 ulp, the infeasible 3x3, or a 2x2 corner."""
    kind = draw(st.sampled_from(["random", "random", "random", "infeasible", "corner"]))
    if kind == "infeasible":
        return np.array(INFEASIBLE_3X3)
    if kind == "corner":
        a, c = draw(st.sampled_from(CORNERS))
        return np.array([[1.0 - a, a], [1.0 - c, c]])
    n, m = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = rng.dirichlet(np.full(m, draw(st.sampled_from([0.1, 0.5, 1.0, 5.0]))), size=n)
    tiny = draw(st.sampled_from([0.0, 0.0, 5e-324, 1e-310]))
    if tiny:
        q[rng.random((n, m)) < 0.3] = tiny
        q /= q.sum(axis=1, keepdims=True)
    for _ in range(draw(st.integers(0, n - 1))):
        i, j = rng.integers(0, n, 2)
        eps = draw(st.sampled_from([0.0, 1e-8]))
        q[j] = (1.0 - eps) * q[i] + eps * q[j]
    if draw(st.booleans()):
        q[rng.integers(0, n)] = np.eye(m)[rng.integers(0, m)] * (1.0 + 2.0 * 2.0**-52)
    return q


def bits(value):
    """A value as comparable bits: arrays by dtype, shape and bytes, floats by bytes."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (float, np.floating)):
        return np.float64(value).tobytes()
    return type(value), value


def fields_bits(result):
    """Every field of a solver result (BAResult, GridResult), as bits."""
    return {name: bits(v) for name, v in result._asdict().items()}


def outcome(fn, *args):
    """A solver's fields as bits, or the exception it raised."""
    try:
        return fields_bits(fn(*args))
    except ValueError as exc:
        return type(exc), str(exc)


class TestCoresEqualPublicSolvers:
    @settings(deadline=None, max_examples=60)
    @given(channels())
    @example(np.array(INFEASIBLE_3X3))
    @example(np.array([[0.7, 0.2, 0.1], [0.7, 0.2, 0.1], [0.1, 0.1, 0.8]]))
    def test_field_by_field(self, raw):
        q = check_channel(raw)
        ocfg = OracleConfig(max_iterations=MAX_ITER, grid_resolution=10**4)
        for base in BASES:
            cfg = LogConfig(base=base)
            logq = _log_pos(q, base)
            assert outcome(blahut_arimoto, q, cfg, ocfg) == outcome(_blahut_arimoto, q, logq, cfg, ocfg)
            if q.shape[0] == 2:
                assert outcome(grid_search_binary, q, cfg, ocfg) == outcome(_grid_search_binary, q, cfg, ocfg)


def reference_solve(q, method, cfg, ocfg):
    """``chancap.capacity`` with the command line's exit code, built from
    the public solvers, each of which checks ``q`` again: a 2x2 explicit
    answer by the public closed form, a larger one by ``muroga_capacity``,
    then ``blahut_arimoto`` from the uniform input, ``grid_search_binary``,
    and every gap by ``capacity_bounds``."""
    n, m = q.shape
    if method == "binary" and (n, m) != (2, 2):
        raise ValueError(f"binary method needs a 2x2 channel, got {n}x{m}")
    if method == "muroga" and n != m:
        raise ValueError(f"muroga method needs a square channel, got {n}x{m}")

    def report(name, capacity, p, r, diagnostics, raw=None, fallback_used=False, bounds=None):
        lower, upper = capacity_bounds(p, q, cfg) if bounds is None else bounds
        diagnostics["gap"] = upper - lower
        feasible = not fallback_used
        if raw is not None:
            span = max(lower, upper, capacity) - min(lower, upper, capacity)
            feasible = bool(raw.min() >= -INPUT_FEASIBILITY_TOL and span <= ocfg.tolerance)
            if not feasible:
                diagnostics["min_input_raw"] = float(raw.min())
        units = "bits" if cfg.base == 2.0 else "base-%.17g units" % cfg.base
        return CapacityResult(
            capacity, units, name, tuple(p.tolist()), tuple((p @ q if r is None else r).tolist()),
            feasible, fallback_used, diagnostics,
        )

    if method == "grid":
        res = grid_search_binary(q, cfg, ocfg)
        p = np.array([res.p1, 1.0 - res.p1])
        return report("grid", res.capacity, p, None, {"grid_resolution": float(ocfg.grid_resolution)}), EXIT_OK
    fallback = None
    if method != "blahut-arimoto" and n == m:
        try:
            if method == "binary" or (method == "auto" and n == 2):
                a, c = min(float(q[0, 1]), 1.0), min(float(q[1, 1]), 1.0)
                name, capacity, raw = "binary_closed_form", binary_capacity(a, c, cfg), binary_optimal_input(a, c)
                r, diag = binary_optimal_output(a, c), {"det": c - a}
            else:
                sol = muroga_capacity(q, cfg)
                name, capacity, raw, r, diag = "muroga", sol.capacity, sol.opt_input_raw, sol.opt_output, {}
        except SingularChannelError:
            if method != "auto":
                raise
        else:
            if method != "auto" or raw.min() >= -INPUT_FEASIBILITY_TOL:
                result = report(name, capacity, feasible_input(raw), r, diag, raw)
                if result.feasible or method != "auto":
                    return result, EXIT_OK
            fallback = capacity
    res = blahut_arimoto(q, cfg, ocfg)
    diag = {"iterations": float(res.iterations)}
    if fallback is not None:
        diag.update({f"{name}_capacity_raw": fallback, "oracle_capacity": res.capacity})
    result = report(
        "blahut_arimoto", res.capacity, res.input_dist, None, diag,
        fallback_used=fallback is not None, bounds=(res.capacity, res.upper),
    )
    return result, EXIT_OK if res.converged else EXIT_NO_CONVERGENCE


def reference_run(raw, base, method):
    """(exit code, stdout, stderr) of ``run()`` on a file holding ``raw``, by the reference."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            q = ingest_matrix(raw)
        result, code = reference_solve(q, method, LogConfig(base=base), OracleConfig(max_iterations=MAX_ITER))
    except ValueError as exc:
        return EXIT_BAD_MATRIX, "", err.getvalue() + f"error: {exc}\n"
    return code, emit_report(result) + "\n", err.getvalue()


class TestRunMatchesPublicPipeline:
    """Every method in bits, nats and decimal digits: exit code, stdout and
    stderr of run() are those of the reference pipeline."""

    @settings(deadline=None, max_examples=40)
    @given(channels())
    @example(np.array(INFEASIBLE_3X3))
    @example(np.array([[1.0, 0.0], [1.0 - 5e-324, 5e-324]]))
    def test_bytes(self, tmp_path_factory, raw):
        path = tmp_path_factory.mktemp("q") / "q.json"
        path.write_text(json.dumps({"matrix": raw.tolist()}), encoding="utf-8")
        for base in BASES:
            for method in METHODS:
                if method == "grid" and raw.shape[0] == 2 and np.abs(raw[0] - raw[1]).max() < 1e-6:
                    continue  # a near-degenerate 2-row channel scans most of 10**6 grid points
                out, err = io.StringIO(), io.StringIO()
                argv = ["--matrix", str(path), "--base", repr(base), "--method", method, "--max-iter", str(MAX_ITER)]
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = run(argv)
                assert (code, out.getvalue(), err.getvalue()) == reference_run(raw, base, method), argv


class TestAutoFallbackReusesMuroga:
    def test_infeasible_square(self, murogas, solves):
        """Under auto an infeasible square's Muroga answer is evaluated once,
        by the command line, and Blahut-Arimoto makes no second try: the
        same solves and the same report as the public pipeline."""
        q = ingest_matrix(np.array(INFEASIBLE_3X3))
        cfg, ocfg = LogConfig(), OracleConfig()
        want, want_code = reference_solve(q, "auto", cfg, ocfg)
        assert len(murogas) == 1
        reference_solves = len(solves)
        murogas.clear()
        solves.clear()
        got, converged = capacity(q, "auto", cfg, ocfg)
        assert len(murogas) == 1
        assert len(solves) == reference_solves
        assert got.fallback_used and converged and want_code == EXIT_OK
        for fmt in ("json", "text"):
            assert emit_report(got, fmt) == emit_report(want, fmt)

    def test_singular_square_evaluates_no_muroga(self, murogas, monkeypatch):
        """A square the singularity rule rejects goes to Blahut-Arimoto: the
        one evaluation of Muroga's formula stops at the rule, before either
        LU solve (Q x = h, Q^T p = r), and Blahut-Arimoto makes none."""
        q = ingest_matrix(np.array([[0.7, 0.2, 0.1], [0.7, 0.2, 0.1], [0.1, 0.1, 0.8]]))
        matrices = []
        real_solve = np.linalg.solve

        def recording_solve(a, b):
            matrices.append(np.array(a))
            return real_solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", recording_solve)
        got, _ = capacity(q, "auto", LogConfig(), OracleConfig())
        assert len(murogas) == 1 and not got.fallback_used
        assert not [a for a in matrices if np.array_equal(a, q) or np.array_equal(a, q.T)]
        assert emit_report(got) == emit_report(reference_solve(q, "auto", LogConfig(), OracleConfig())[0])

"""One certified capacity per channel: pick a solver, certify its answer, fall back.

``capacity(q)`` is what the ``capacity`` command reports, as a library
call: the binary closed form on a 2x2 channel, Muroga's formula on another
square one, Blahut-Arimoto where neither gives a feasible answer, each
reported with the one certificate ``capacity_bounds`` computes.
"""

import math
from dataclasses import dataclass

import numpy as np

from .binary import _channel_ac, _closed_form
from .channel import _bracket, check_channel
from .entropy import _DEFAULT, LogConfig, _config, _log_pos
from .muroga import INPUT_FEASIBILITY_TOL, SingularChannelError, _muroga, feasible_input
from .oracle import _DEFAULT_ORACLE, OracleConfig, _blahut_arimoto, _grid_search_binary

METHODS = ("auto", "binary", "muroga", "blahut-arimoto", "grid")


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


def _fmt(x):
    return "%.17g" % (float(x) + 0.0)  # adding 0.0 turns -0.0 into 0.0: no stray "-0"


def _units(base):
    return "bits" if base == 2.0 else f"base-{_fmt(base)} units"


def capacity(q, method="auto", cfg: LogConfig = None, oracle: OracleConfig = None):
    """The certified capacity of channel ``q``: ``(CapacityResult, converged)``.

    ``method`` is one of METHODS, as the ``capacity`` command's
    ``--method``; ``cfg`` sets the log base and ``oracle`` the tolerance and
    iteration cap, as ``--base``, ``--tol`` and ``--max-iter`` do, and the
    grid resolution, which the command leaves at its default.  ``q`` is
    checked as ``check_channel`` checks it, then solved as ``_solve``
    describes.  ``converged`` is false only when Blahut-Arimoto stopped at
    its iteration cap, where the command exits 4; the result then holds the
    bracket it reached.  Raises ValueError on an invalid channel or method
    and on a channel of the wrong shape for the method, and
    SingularChannelError when ``muroga`` meets a channel the singularity
    rule rejects.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    cfg = _config(cfg, _DEFAULT)
    oracle = _config(oracle, _DEFAULT_ORACLE)
    return _solve(check_channel(q), method, cfg, oracle)


def _report(q, cfg, method, capacity, p, r, diagnostics, bounds, feasible, fallback_used=False):
    """The one place a solver's answer becomes a CapacityResult.

    ``bounds`` is the certificate ``(lower, upper)`` of the reported input
    ``p`` on the checked channel ``q``, as ``capacity_bounds(p, q, cfg)``
    computes it; ``diagnostics["gap"]`` records upper - lower.  ``r`` is the
    method's own output distribution, a sequence of floats; without one the
    report shows ``p Q``.
    """
    diagnostics["gap"] = bounds[1] - bounds[0]
    return CapacityResult(
        capacity=capacity,
        units=_units(cfg.base),
        method=method,
        optimal_input=tuple(p.tolist()),
        optimal_output=tuple(p.dot(q).tolist() if r is None else r),
        feasible=feasible,
        fallback_used=fallback_used,
        diagnostics=diagnostics,
    )


def _solve(q, method, cfg, ocfg):
    """Dispatch a checked channel ``q`` to a solver; returns (CapacityResult, converged).

    A square channel has an explicit answer: under ``binary``, and under
    ``auto`` when 2x2, the closed form at its (a, c), clamped into [0, 1]
    since a checked entry may exceed 1 by rounding, with the diagnostic
    ``det = c - a``; otherwise Muroga's formula, which raises
    SingularChannelError on a channel the singularity rule rejects.  Each
    explicit answer reports its raw input clamped onto the simplex and is
    certified there.  It is feasible when no raw entry lies below
    -INPUT_FEASIBILITY_TOL and its capacity, lower and upper bound lie
    within ``ocfg.tolerance`` of each other; an infeasible one records its
    smallest raw entry as ``min_input_raw``.

    Under ``auto`` an infeasible explicit answer falls back to
    Blahut-Arimoto with ``fallback_used``, and a channel that the
    singularity rule rejects goes to Blahut-Arimoto directly; neither hands
    it anything.  A fallback keeps the explicit capacity under its solver's
    name, ``muroga_capacity_raw`` or ``binary_closed_form_capacity_raw``.
    On a 2x2 channel Blahut-Arimoto tries the closed form again before its
    first sweep and accepts it by its bracket alone, so a closed form
    rejected only by its capacity term, at a tolerance near rounding,
    returns at sweep 1.  A Blahut-Arimoto or grid answer is
    feasible unless it is a fallback, and only Blahut-Arimoto can return
    unconverged.  Raises ValueError / SingularChannelError for
    matrix-vs-method mismatches.

    The solvers run as their private cores, on ``q`` as checked and on its
    masked logs, taken once here.
    """
    n, m = q.shape
    if method == "binary" and (n, m) != (2, 2):
        raise ValueError(f"binary method needs a 2x2 channel, got {n}x{m}")
    if method == "muroga" and n != m:
        raise ValueError(f"muroga method needs a square channel, got {n}x{m}")
    logq = _log_pos(q, cfg.base)
    if method == "grid":
        res = _grid_search_binary(q, cfg, ocfg)
        p = np.array([res.p1, 1.0 - res.p1])
        diag = {"grid_resolution": float(ocfg.grid_resolution)}
        _, lower, upper = _bracket(q, logq, p, cfg.base)
        return _report(q, cfg, "grid", res.capacity, p, None, diag, (lower, upper), True), True
    fallback = None  # the raw explicit capacity, once auto falls back
    if method != "blahut-arimoto" and n == m:
        try:
            if method == "binary" or (method == "auto" and n == 2):
                a, c = _channel_ac(q)
                capacity, raw, r = _closed_form(a, c)
                solver, capacity, diag = "binary_closed_form", capacity / math.log(cfg.base), {"det": c - a}
            else:
                sol = _muroga(q, logq, cfg.base)
                solver, capacity, raw, r, diag = "muroga", sol.capacity, sol.opt_input_raw, sol.opt_output.tolist(), {}
        except SingularChannelError:
            if method != "auto":
                raise
        else:
            p = feasible_input(raw)
            _, lower, upper = _bracket(q, logq, p, cfg.base)
            raw_min = min(raw)
            span = max(lower, upper, capacity) - min(lower, upper, capacity)
            feasible = bool(raw_min >= -INPUT_FEASIBILITY_TOL and span <= ocfg.tolerance)
            if feasible or method != "auto":
                if not feasible:
                    diag["min_input_raw"] = float(raw_min)
                return _report(q, cfg, solver, capacity, p, r, diag, (lower, upper), feasible), True
            fallback = capacity
    res = _blahut_arimoto(q, logq, cfg, ocfg)
    diag = {"iterations": float(res.iterations)}
    if fallback is not None:
        diag.update({f"{solver}_capacity_raw": fallback, "oracle_capacity": res.capacity})
    return _report(
        q, cfg, "blahut_arimoto", res.capacity, res.input_dist, None, diag,
        (res.capacity, res.upper), fallback is None, fallback_used=fallback is not None,
    ), res.converged

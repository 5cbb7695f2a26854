"""Independent correctness check of capacity reports (numpy only).

From a report's ``optimal_input`` p this recomputes, in bits, the classical
bracket of the capacity: the lower bound I(p; Q) and the upper bound
max_i D(Q_i || pQ).  No code of the package under test is used.
"""

import json

import numpy as np

#: Slack on both sides of the bracket, in bits.
BRACKET_SLACK = 1e-6
#: Largest bracket width a converged report may leave, in bits.
GAP_TOL = 1e-6
#: The grid oracle resolves the input only to 1/(R-1) = 1e-6 at its default
#: resolution R = 1e6, and the bracket width is first order in that input
#: error; its capacity must still match the closed form within AGREE_TOL.
GRID_GAP_TOL = 1e-5
#: Closed form, BA and grid capacities of one binary channel agree this closely.
AGREE_TOL = 1e-6
#: Exit codes of the capacity CLI that carry a report: success, iteration cap.
EXIT_OK = 0
EXIT_NO_CONVERGENCE = 4


def bracket(q, p):
    """(I(p; Q), max_i D(Q_i || pQ)) in bits."""
    r = p @ q
    pos = q > 0.0
    with np.errstate(divide="ignore"):
        log_r = np.log2(r)
    terms = np.where(pos, q * (np.log2(np.where(pos, q, 1.0)) - log_r[np.newaxis, :]), 0.0)
    d = terms.sum(axis=1)
    return float(p @ d), float(d.max())


def check_report(op, code, stdout):
    """Judge one invocation; returns (report or None, failure text or None)."""
    if code not in (EXIT_OK, EXIT_NO_CONVERGENCE):
        return None, f"exit code {code}"
    try:
        report = json.loads(stdout)
        cap = float(report["capacity"])
        p = np.array(report["optimal_input"], dtype=float)
    except (ValueError, KeyError, TypeError) as exc:
        return None, f"unreadable report: {exc}"
    if report.get("units") != "bits":
        return report, f"units {report.get('units')!r}, expected bits"
    if p.shape != (op.q.shape[0],) or np.any(p < 0.0) or abs(p.sum() - 1.0) > 1e-9:
        return report, "optimal_input is not a distribution over the channel inputs"
    lower, upper = bracket(op.q, p)
    if not lower - BRACKET_SLACK <= cap <= upper + BRACKET_SLACK:
        return report, f"capacity {cap!r} outside independent bracket [{lower!r}, {upper!r}]"
    if code == EXIT_NO_CONVERGENCE:
        # Not converged is an honest answer only if the report says so.
        if report.get("method") != "blahut_arimoto":
            return report, f"exit 4 from method {report.get('method')!r}"
        claimed = float(report["diagnostics"].get("gap", np.nan))
        if not abs(claimed - (upper - lower)) <= BRACKET_SLACK:
            return report, f"reported gap {claimed!r} vs independent {upper - lower!r}"
        return report, None
    tol = GRID_GAP_TOL if report.get("method") == "grid" else GAP_TOL
    if upper - lower > tol:
        return report, f"bracket width {upper - lower!r} above {tol:g} on a converged report"
    return report, None


def check_agreement(reports):
    """Capacities of ops on one binary channel agree; reports: {kind: report}."""
    if "auto" not in reports:
        return None
    ref = float(reports["auto"]["capacity"])
    for kind, rep in reports.items():
        if abs(float(rep["capacity"]) - ref) > AGREE_TOL:
            return f"{kind} capacity {rep['capacity']!r} vs closed form {ref!r}"
    return None

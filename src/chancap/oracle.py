"""Iterative capacity solvers, independent of the closed forms.

Two oracles: the alternating-maximization scheme with a certified
optimality gap (works for any channel shape), and a brute-force grid sweep
over the input simplex for binary channels.  Both exist so the explicit
formulas elsewhere in the package can be cross-checked against methods that
share none of their code.  The alternating scheme's Newton polish solves the
same optimality conditions as Muroga's construction, but nothing it returns
is trusted without the bracket.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import GRADIENT_OUTPUT_FLOOR, check_channel
from .entropy import LogConfig, _DEFAULT, _check_pair, _log_b, _log_pos, xlogx_star


@dataclass(frozen=True)
class OracleConfig:
    """Stopping and resolution knobs shared by the iterative solvers."""

    tolerance: float = 1e-9
    max_iterations: int = 100000
    grid_resolution: int = 10**6

    def __post_init__(self):
        if not (math.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise ValueError(f"tolerance must be positive, got {self.tolerance!r}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be at least 1, got {self.max_iterations!r}")
        if self.grid_resolution < 2:
            raise ValueError(f"grid_resolution must be at least 2, got {self.grid_resolution!r}")


_DEFAULT_ORACLE = OracleConfig()


class BAResult(NamedTuple):
    capacity: float  # certified lower bound on C for input_dist
    input_dist: np.ndarray
    iterations: int
    converged: bool


class GridResult(NamedTuple):
    capacity: float
    p1: float  # mass on the first input at the best grid point


def _divergences(q, logq, r, base):
    # d_i = sum_j q_ij (log_b q_ij - log_b r_j).  Entries with q_ij = 0 have
    # logq = 0 there and the floor keeps logr finite, so the product is an
    # exact 0 and no explicit mask is needed.
    logr = _log_b(np.maximum(r, GRADIENT_OUTPUT_FLOOR), base)
    return (q * (logq - logr[np.newaxis, :])).sum(axis=1)


def capacity_bounds(p, q, cfg: LogConfig = None):
    """Certified (lower, upper) capacity bracket from any input distribution.

    The lower bound is the mutual information of p itself; the upper bound
    is the largest single-input divergence, which dominates the capacity.
    """
    cfg = _DEFAULT if cfg is None else cfg
    p, q = _check_pair(p, q)
    _, lower, upper = _bracket(q, _log_pos(q, cfg.base), p, cfg.base)
    return lower, upper


def _bracket(q, logq, p, base):
    # (d, lower, upper) of p: the one certificate, shared by capacity_bounds,
    # every BA sweep and the Newton polish's acceptance test.
    d = _divergences(q, logq, p @ q, base)
    return d, float(p @ d), float(d.max())


#: The polish takes as support the inputs with at least this share of the
#: largest input mass.
SUPPORT_SHARE = 1e-3
#: Newton steps per support before the polish gives up on it.
NEWTON_STEPS = 30


def _newton_support(q, logq, p, base, tol):
    """Solve the KKT system on a guessed support; a candidate input or None.

    Unknowns are p_S and C; the equations d_S(p) - C = 0 and sum(p_S) = 1.
    Since dd_i/dp_l = -sum_j q_ij q_lj / (r_j ln b), the Jacobian is
    -Q_S diag(1/r) Q_S^T / ln b bordered by a column of -1 and a row of 1.
    A step that makes some p_S non-positive drops the most negative input
    and starts again from ``p`` on the smaller support.
    """
    ln_base = math.log(base)
    order = np.argsort(-p, kind="stable")[: q.shape[1]]
    support = order[p[order] >= SUPPORT_SHARE * p[order[0]]]
    while support.size:
        k = support.size
        # Outputs no support input reaches add nothing to d_S or the Jacobian.
        cols = q[support].any(axis=0)
        qs, logqs = q[support][:, cols], logq[support][:, cols]
        ps = p[support] / p[support].sum()
        jac = np.zeros((k + 1, k + 1))
        jac[:k, k] = -1.0
        jac[k, :k] = 1.0
        rhs = np.empty(k + 1)
        c = None
        for _ in range(NEWTON_STEPS):
            r = ps @ qs
            d = _divergences(qs, logqs, r, base)
            if c is None:
                c = float(ps @ d)
            res = d - c
            worst = float(np.abs(res).max())
            if not math.isfinite(worst):
                return None
            if worst <= tol / 4:
                out = np.zeros_like(p)
                out[support] = ps / ps.sum()
                return out
            jac[:k, :k] = (qs / r) @ qs.T / -ln_base
            if not np.isfinite(jac).all():
                return None  # an output mass underflowed; LAPACK cannot use this
            rhs[:k] = -res
            rhs[k] = 1.0 - ps.sum()
            try:
                step = np.linalg.solve(jac, rhs)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(jac, rhs, rcond=None)[0]
            ps = ps + step[:k]
            c += float(step[k])
            if not ps.min() > 0.0:
                support = np.delete(support, int(np.argmin(ps)))
                break
        else:
            return None
    return None


def blahut_arimoto(q, cfg: LogConfig = None, oracle: OracleConfig = None) -> BAResult:
    """Alternating maximization from the uniform input, with a certified Newton polish.

    Each sweep computes d_i = sum_j q_ij (log_b q_ij - log_b r_j) against the
    current output distribution r = p Q, and with it the certificate of p:
    the capacity lies between the mutual information I(p) = sum_i p_i d_i
    and max_i d_i.  Once the bracket width is at most ``oracle.tolerance``
    the loop stops and reports I(p); otherwise it rescales p by b**d_i,
    which never lowers I(p) (in exact arithmetic).

    KKT system.  p is optimal exactly when d_i = C on the inputs with
    p_i > 0 and d_i <= C on the rest, with C the capacity and sum p = 1.  On
    a square channel with full support this is Muroga's system.

    Support bound.  The optimal output r* is unique, so the optimal inputs
    form a polytope, and each of its vertices has support at most
    rank Q <= m.  At sweeps 4, 8, 16, ... (doubling, so failed attempts cost
    O(log sweeps) solves) the loop takes as support S the inputs with
    p_i >= SUPPORT_SHARE * max p, at most the m largest, and runs Newton on
    d_S - C = 0, sum p_S = 1 (``_newton_support``).

    Acceptance rule.  The Newton answer is accepted only if its own
    certificate, computed exactly as ``capacity_bounds`` computes it, has
    width at most ``oracle.tolerance`` and its I(p) is at least the current
    sweep's; the reported capacity is then that I(p).  Otherwise the sweeps
    go on.  So correctness never rests on the support guess, the capacity is
    nondecreasing in ``oracle.max_iterations`` (up to rounding of I(p)),
    ``iterations`` counts sweeps, and a converged result's ``capacity`` is
    the lower bound of ``capacity_bounds(input_dist, q)``, whose width is at
    most the tolerance.
    """
    cfg = _DEFAULT if cfg is None else cfg
    oracle = _DEFAULT_ORACLE if oracle is None else oracle
    q = check_channel(q)
    tol = oracle.tolerance
    logq = _log_pos(q, cfg.base)
    ln_base = math.log(cfg.base)
    p = np.full(q.shape[0], 1.0 / q.shape[0])
    polish_at = 4
    for iteration in range(1, oracle.max_iterations + 1):
        if iteration > 1:
            w = p * np.exp((d - upper) * ln_base)
            p = w / w.sum()
        d, lower, upper = _bracket(q, logq, p, cfg.base)
        if upper - lower <= tol:
            return BAResult(lower, p, iteration, True)
        if iteration == polish_at:
            polish_at *= 2
            with np.errstate(all="ignore"):  # a failed step is caught below, not warned
                cand = _newton_support(q, logq, p, cfg.base, tol)
            if cand is not None:
                _, c_lower, c_upper = _bracket(q, logq, cand, cfg.base)
                if c_upper - c_lower <= tol and c_lower >= lower:
                    return BAResult(c_lower, cand, iteration, True)
    return BAResult(lower, p, oracle.max_iterations, False)


def grid_search_binary(q, cfg: LogConfig = None, oracle: OracleConfig = None) -> GridResult:
    """Sweep p1 over an even grid on [0, 1] for a two-input channel.

    ``q`` must have exactly two rows (any number of output columns).  With
    resolution R the grid spacing is 1/(R-1); near the maximum the mutual
    information is locally quadratic, so the capacity error is O(spacing**2).
    """
    cfg = _DEFAULT if cfg is None else cfg
    oracle = _DEFAULT_ORACLE if oracle is None else oracle
    q = check_channel(q)
    if q.shape[0] != 2:
        raise ValueError(f"grid search needs exactly 2 input rows, got {q.shape[0]}")
    t = np.linspace(0.0, 1.0, oracle.grid_resolution)
    row_entropy_1 = -math.fsum(xlogx_star(q[0], cfg))
    row_entropy_2 = -math.fsum(xlogx_star(q[1], cfg))
    out_entropy = np.zeros_like(t)
    for j in range(q.shape[1]):
        out_entropy -= xlogx_star(t * q[0, j] + (1.0 - t) * q[1, j], cfg)
    mi = out_entropy - (t * row_entropy_1 + (1.0 - t) * row_entropy_2)
    best = int(np.argmax(mi))
    return GridResult(float(mi[best]), float(t[best]))

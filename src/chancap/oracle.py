"""Iterative capacity solvers, independent of the closed forms.

Two oracles: the alternating-maximization scheme with a certified
optimality gap (works for any channel shape), and a grid search over the
input simplex for binary channels that returns the best of all its grid
points.  Both exist so the explicit formulas elsewhere in the package can be
cross-checked against methods that share none of their code.  The
alternating scheme's Newton polish solves the same optimality conditions as
Muroga's construction, but nothing it returns is trusted without the
bracket.
"""

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import GRADIENT_OUTPUT_FLOOR, check_channel
from .entropy import LogConfig, _DEFAULT, _check_pair, _log_b, _log_pos, xlogx_star


@dataclass(frozen=True)
class OracleConfig:
    """Stopping and resolution knobs shared by the iterative solvers.

    ``max_iterations`` and ``grid_resolution`` are counts: a Python or numpy
    integer, never a bool or a float, even an integral one.
    """

    tolerance: float = 1e-9
    max_iterations: int = 100000
    grid_resolution: int = 10**6

    def __post_init__(self):
        if not (math.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise ValueError(f"tolerance must be positive, got {self.tolerance!r}")
        for name, least in (("max_iterations", 1), ("grid_resolution", 2)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be at least {least}, got {value!r}")


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
#: largest input mass; an input the certificate adds enters with this share.
SUPPORT_SHARE = 1e-3
#: Newton steps per support before the polish gives up on it.
NEWTON_STEPS = 30
#: A row whose least-squares residual against the support's rows is at most
#: this lies in their span (measured: 8e-16 when it does, 0.015 when not).
SPAN_TOL = 1e-9


def _add_input(q, cand, j):
    """Warm start for the support of ``cand`` plus the input j it fails on.

    If row j lies in the span of the support's rows, then v with v_j = 1 and
    v_S solving Q_S^T v_S = -q_j has v Q = 0, so sum v = 0: moving ``cand``
    along v keeps the output r, hence every divergence, and raises I(p) at
    rate d_j - C > 0.  The move stops where the first support input reaches
    0, and that input leaves (the simplex method's ratio test).  Without it
    a support that already spans the rows would gain j and, the system
    being singular, lose j again on the next drop.  Otherwise j enters with
    SUPPORT_SHARE of the largest mass.
    """
    support = np.flatnonzero(cand)
    qs = q[support]
    v = np.linalg.lstsq(qs.T, -q[j], rcond=None)[0]
    start = cand.copy()
    shrink = v < 0.0
    if np.abs(v @ qs + q[j]).max() <= SPAN_TOL and shrink.any():
        ratios = cand[support][shrink] / -v[shrink]
        t = float(ratios.min())
        start[support] += t * v
        start[support[shrink][np.argmin(ratios)]] = 0.0
        np.maximum(start, 0.0, out=start)
        start[j] = t
    else:
        start[j] = SUPPORT_SHARE * cand.max()
    return start / start.sum()


def _newton_support(q, logq, p, base, tol, support=None):
    """Solve the KKT system on a support; a candidate input or None.

    Unknowns are p_S and C; the equations d_S(p) - C = 0 and sum(p_S) = 1.
    Since dd_i/dp_l = -sum_j q_ij q_lj / (r_j ln b), the Jacobian is
    -Q_S diag(1/r) Q_S^T / ln b bordered by a column of -1 and a row of 1.
    Newton starts from ``p`` restricted to S.  Without ``support``, S is
    guessed from ``p``: the inputs with p_i >= SUPPORT_SHARE * max p, at most
    the m largest; the caller passes one to grow S by an input the
    certificate flagged (``_add_input``).  A step that makes some p_S
    non-positive drops the most negative input and starts again from ``p``
    on the smaller support; so S only shrinks here, and only the caller
    adds.
    """
    ln_base = math.log(base)
    if support is None:
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


def _polish(q, logq, p, lower, base, tol):
    """(I, input) of a certified Newton candidate with I >= ``lower``, or None.

    The two-sided active set of ``blahut_arimoto``: the first support is
    guessed from ``p``, Newton drops inputs, and the certificate adds the
    input with the largest divergence, at most m times.
    """
    start, support = p, None
    for _ in range(q.shape[1] + 1):
        with np.errstate(all="ignore"):  # a failed step is caught below, not warned
            cand = _newton_support(q, logq, start, base, tol, support)
        if cand is None:
            return None
        d, c_lower, c_upper = _bracket(q, logq, cand, base)
        if c_upper - c_lower <= tol:
            return (c_lower, cand) if c_lower >= lower else None
        j = int(np.argmax(d))
        if cand[j] > 0.0:
            return None
        start = _add_input(q, cand, j)
        support = np.flatnonzero(start)
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
    O(log sweeps) polishes) the loop runs a two-sided active set on
    d_S - C = 0, sum p_S = 1 (``_polish``).  The first support S is the
    inputs with p_i >= SUPPORT_SHARE * max p, at most the m largest, and
    Newton drops an input that a step drives out of the simplex
    (``_newton_support``).  If the candidate's certificate is too wide and
    its largest divergence d_j sits at an input j outside S, j is added and
    Newton solves again from the candidate (``_add_input``); an attempt makes
    at most m additions and stops when the largest d_j is already in S.  The
    add step reads the d that the certificate has just computed, so a first
    candidate that passes costs nothing more.

    Acceptance rule.  Each candidate is accepted only if its own
    certificate, computed exactly as ``capacity_bounds`` computes it, has
    width at most ``oracle.tolerance`` and its I(p) is at least the current
    sweep's; the reported capacity is then that I(p).  Otherwise the sweeps
    go on.  So correctness never rests on the support guess, nor on which
    inputs were dropped or added; the capacity is nondecreasing in
    ``oracle.max_iterations`` (up to rounding of I(p)), ``iterations``
    counts sweeps, and a converged result's ``capacity`` is the lower bound
    of ``capacity_bounds(input_dist, q)``, whose width is at most the
    tolerance.
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
            polished = _polish(q, logq, p, lower, cfg.base, tol)
            if polished is not None:
                return BAResult(*polished, iteration, True)
    return BAResult(lower, p, oracle.max_iterations, False)


#: Evenly spaced grid indices sampled per coarse pass of the grid search.
GRID_SAMPLES = 1024
#: Grid points evaluated at once when the grid search scans its final window.
GRID_CHUNK = 2**15


def grid_search_binary(q, cfg: LogConfig = None, oracle: OracleConfig = None) -> GridResult:
    """Best point of an even grid over p1 in [0, 1] for a two-input channel.

    ``q`` must have exactly two rows (any number m of output columns).  With
    resolution R the grid is t_k = k * (1/(R-1)), k = 0..R-1, with t_{R-1} = 1
    exactly: the values of ``np.linspace(0, 1, R)``.  Near the maximum the
    mutual information is locally quadratic, so the capacity error is
    O(spacing**2).  The result is the grid point with the largest computed
    I(t_k), the first one on a tie: bit for bit what evaluating all R points
    and taking ``np.argmax`` returns, since every point is computed by the
    same elementwise expression.

    Concavity.  I(t) = H(t Q_1 + (1-t) Q_2) - t H(Q_1) - (1-t) H(Q_2) is
    concave in t (Cover & Thomas, Thm 2.7.4), so along the grid it rises to
    its maximum and then falls.  The search samples GRID_SAMPLES + 1 evenly
    spaced indices of a window [lo, hi], initially the whole grid, takes
    their largest computed value M and narrows the window to the samples
    just outside those with a value >= M - delta.  It repeats while a pass
    at least halves the window and the window holds more than
    2 * GRID_SAMPLES points, then scans the window point by point.

    The guard.  Let E bound the rounding error of one computed I(t_k).  An
    index k left of the new window lies left of a sample s whose computed
    value is below M - delta, and s lies left of the sample attaining M.
    By concavity the exact I(s) is at least the smaller of the exact I(k)
    and the exact value at M's sample; with delta >= 2E the latter is the
    larger, so the computed I(k) < M - delta + 2E <= M.  Likewise on the
    right.  Every discarded index computes strictly below a value attained
    inside the final window, so none of them is the full scan's first
    maximum.  Errors in the computed H(Q_1), H(Q_2) add a term linear in t,
    which keeps I concave, so only the per-point rounding counts.

    Rounding bound.  With u = eps/2 the unit roundoff: each output mass
    x = t q_1j + (1-t) q_2j carries a relative error <= 3u, which moves
    x log_b x by <= 3u (|x log_b x| + x / ln b); the log (numpy's is within
    4 ulp), the base change and the product add <= 12u |x log_b x|; summing
    the m terms adds <= (m-1) u sum |x log_b x|, where sum |x log_b x| is
    the output entropy, at most log_b m; subtracting t H_1 + (1-t) H_2 adds
    <= 3u (|H_1| + |H_2|) and an ulp of the result.  Since sum x = 1 and
    1/ln b = log_b e, altogether E <= (m + 16) u S with
    S = |H_1| + |H_2| + log_b(e (m + 1)).  The code takes
    delta = 2 (m + 16) eps S, which is 2E with a further factor 2 of margin.

    Cost and memory.  On a separated channel the first pass leaves about two
    sample spacings, so a call evaluates a few thousand points.  On a
    near-degenerate channel (|c - a| below about 1e-6 at R = 10**6) the
    plateau within delta of the maximum spans much of the grid, no pass
    halves the window, and the scan costs up to one evaluation per grid
    point, as a full sweep does.  The scan runs in chunks of GRID_CHUNK
    points, carrying the first maximum so far, so memory does not grow
    with R.
    """
    cfg = _DEFAULT if cfg is None else cfg
    oracle = _DEFAULT_ORACLE if oracle is None else oracle
    q = check_channel(q)
    if q.shape[0] != 2:
        raise ValueError(f"grid search needs exactly 2 input rows, got {q.shape[0]}")
    m = q.shape[1]
    last = int(oracle.grid_resolution) - 1
    step = 1.0 / last
    row_entropy_1 = -math.fsum(xlogx_star(q[0], cfg))
    row_entropy_2 = -math.fsum(xlogx_star(q[1], cfg))

    def mi(k):
        # (t_k, I(t_k)) for an integer index array k.
        t = k * step
        t[k == last] = 1.0
        s = 1.0 - t
        out = np.zeros_like(t)
        for j in range(m):
            out -= xlogx_star(t * q[0, j] + s * q[1, j], cfg)
        return t, out - (t * row_entropy_1 + s * row_entropy_2)

    log_outputs = math.log(math.e * (m + 1)) / math.log(cfg.base)
    scale = abs(row_entropy_1) + abs(row_entropy_2) + log_outputs
    delta = 2.0 * (m + 16) * np.finfo(float).eps * scale
    lo, hi = 0, last
    while hi - lo >= 2 * GRID_SAMPLES:
        ks = lo + np.arange(GRID_SAMPLES + 1) * (hi - lo) // GRID_SAMPLES
        _, v = mi(ks)
        near = np.flatnonzero(v >= v.max() - delta)
        new_lo = int(ks[max(near[0] - 1, 0)])
        new_hi = int(ks[min(near[-1] + 1, GRID_SAMPLES)])
        halved = 2 * (new_hi - new_lo) <= hi - lo
        lo, hi = new_lo, new_hi
        if not halved:
            break
    best = None
    for start in range(lo, hi + 1, GRID_CHUNK):
        t, v = mi(np.arange(start, min(start + GRID_CHUNK, hi + 1)))
        i = int(np.argmax(v))
        if best is None or v[i] > best.capacity:
            best = GridResult(float(v[i]), float(t[i]))
    return best

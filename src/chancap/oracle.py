"""Iterative capacity solvers with a certified optimality gap.

Two oracles: the alternating-maximization scheme (any channel shape), which
on a 2x2 channel tries the binary closed form once, before the first sweep,
and is polished at sweeps 4, 8, 16, ... by Muroga's system on an active set
(``muroga._active_set``), and a grid search over the input simplex for
binary channels that returns the best of all its grid points.  Muroga's
explicit formula is not evaluated here: ``chancap.dispatch`` offers it
first on a square channel.  Nothing either oracle returns is trusted
without the bracket, the one certificate that the explicit formulas are
checked by too; the alternating scheme returns both ends of the bracket it
accepted, so no caller need compute it again.
"""

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .binary import _channel_ac, _closed_form
from .channel import _bracket, check_channel
from .entropy import LogConfig, _DEFAULT, _as_float, _check_pair, _config, _is_real, _log_pos, xlogx_star
from .muroga import _active_set, feasible_input


@dataclass(frozen=True)
class OracleConfig:
    """Stopping and resolution knobs shared by the iterative solvers.

    ``tolerance`` is a positive finite real number, never a bool or a str.
    ``max_iterations`` and ``grid_resolution`` are counts: a Python or numpy
    integer, never a bool or a float, even an integral one.
    """

    tolerance: float = 1e-9
    max_iterations: int = 100000
    grid_resolution: int = 10**6

    def __post_init__(self):
        if not _is_real(self.tolerance):
            raise ValueError(f"tolerance must be a number, got {self.tolerance!r}")
        if not (math.isfinite(_as_float(self.tolerance)) and self.tolerance > 0.0):
            raise ValueError(f"tolerance must be positive, got {self.tolerance!r}")
        for name, least in (("max_iterations", 1), ("grid_resolution", 2)):
            value = getattr(self, name)
            if type(value) is not int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be at least {least}, got {value!r}")


_DEFAULT_ORACLE = OracleConfig()


class BAResult(NamedTuple):
    capacity: float  # certified lower bound on C for input_dist
    input_dist: np.ndarray
    iterations: int
    converged: bool
    upper: float  # certified upper bound on C, from the same bracket as capacity


class GridResult(NamedTuple):
    capacity: float
    p1: float  # mass on the first input at the best grid point


def capacity_bounds(p, q, cfg: LogConfig = None):
    """Certified (lower, upper) capacity bracket from any input distribution.

    The lower bound is the mutual information of p itself; the upper bound
    is the largest single-input divergence, which dominates the capacity.
    """
    cfg = _config(cfg, _DEFAULT)
    p, q = _check_pair(p, q)
    _, lower, upper = _bracket(q, _log_pos(q, cfg.base), p, cfg.base)
    return lower, upper


def blahut_arimoto(q, cfg: LogConfig = None, oracle: OracleConfig = None) -> BAResult:
    """Alternating maximization from the uniform input, with certified shortcuts.

    Each sweep computes d_i = sum_j q_ij (log_b q_ij - log_b r_j) against the
    current output distribution r = p Q, and with it the certificate of p:
    the capacity lies between the mutual information I(p) = sum_i p_i d_i
    and max_i d_i.  Once the bracket width is at most ``oracle.tolerance``
    the loop stops and reports I(p); otherwise it rescales p by b**d_i,
    which never lowers I(p) (in exact arithmetic).

    KKT system.  p is optimal exactly when d_i = C on the inputs with
    p_i > 0 and d_i <= C on the rest, with C the capacity and sum p = 1.  On
    a square channel with full support this is Muroga's system.

    Explicit try.  A 2x2 channel's explicit answer is evaluated once, before
    the first sweep: the paper's closed form (``binary._closed_form``) at
    the channel's (a, c), clamped into [0, 1] as ``chancap.dispatch``
    clamps them, with its input clamped onto the simplex as
    ``feasible_input`` does.  It needs no linear solve, costs less than the
    uniform input's bracket it would otherwise follow, and certifies to a
    few ulps where that bracket can pass with a gap near the tolerance.  An
    accepted answer returns with ``iterations`` 1; otherwise the sweeps go
    on exactly as without the try.  Every one of 1998 random binary
    channels (|c - a| > 1e-3) settles at sweep 1 this way, where the polish
    settled them at sweep 4.  A larger square has no explicit try: Muroga's
    formula costs an inverse, for the singularity rule, plus two linear
    solves, and under ``auto`` ``chancap.dispatch`` evaluates it first and
    falls back here only when its answer is rejected.

    Support bound.  The optimal output r* is unique, so the optimal inputs
    form a polytope, and each of its vertices has support at most
    rank Q <= m.  At sweeps 4, 8, 16, ... (doubling, so failed attempts cost
    O(log sweeps) solves) the loop hands p to ``muroga._active_set``, which
    solves d_S - C = 0, sum p_S = 1 by Newton's method on a support S of at
    most m inputs guessed from p, pruning the guess in batches, and then
    adds the inputs the certificate flags, dropping one input per step
    after an add.  A square support is solved by Newton too.  A batch can
    discard an optimal input that an add must bring back: on 6000 random
    tall channels (128x8 and 96x6, 24 028 sweeps in all) all but five
    settle at sweep 4, and none later than sweep 16.  All of 1200 random
    square channels (n = 3..8, rows Dirichlet(0.7)) settle at sweep 4, in
    6570 Newton solves.

    Acceptance rule.  Each candidate, the closed form or a polished input,
    is accepted only if its own certificate, computed exactly as
    ``capacity_bounds`` computes it, has width at most ``oracle.tolerance``
    and, for a polished input, its I(p) is at least the current sweep's;
    the reported capacity is then that I(p).  Otherwise the sweeps go on.
    The closed form's capacity is not compared with its bracket, so at a
    tolerance near rounding this rule can accept a closed form that the
    dispatcher's rule, which also asks the capacity to lie within the
    tolerance, rejected.  So correctness never rests on the closed form,
    the support guess, nor on which inputs were dropped or added; the
    capacity is nondecreasing in ``oracle.max_iterations`` (up to rounding
    of I(p)), ``iterations`` counts sweeps, and a converged result's
    ``capacity`` is the lower bound of ``capacity_bounds(input_dist, q)``,
    whose width is at most the tolerance.

    Returned bracket.  On every return, converged or not, ``(capacity,
    upper)`` is the bracket of ``input_dist`` from the one ``_bracket`` call
    that accepted it (or, at the iteration cap, last bracketed it): bit for
    bit ``capacity_bounds(input_dist, q, cfg)``.

    This entry point checks ``q`` and runs the core, ``_blahut_arimoto``, on
    the checked channel and its masked logs.
    """
    cfg = _config(cfg, _DEFAULT)
    oracle = _config(oracle, _DEFAULT_ORACLE)
    q = check_channel(q)
    return _blahut_arimoto(q, _log_pos(q, cfg.base), cfg, oracle)


def _blahut_arimoto(q, logq, cfg, oracle):
    """``blahut_arimoto`` on a checked channel ``q`` with masked log_b ``logq``."""
    tol = oracle.tolerance
    n, m = q.shape
    if n == m == 2:
        p = feasible_input(_closed_form(*_channel_ac(q))[1])
        _, lower, upper = _bracket(q, logq, p, cfg.base)
        if upper - lower <= tol:
            return BAResult(lower, p, 1, True, upper)
    ln_base = math.log(cfg.base)
    p = np.full(n, 1.0 / n)
    polish_at = 4
    for iteration in range(1, oracle.max_iterations + 1):
        if iteration > 1:
            w = p * np.exp((d - upper) * ln_base)
            p = w / w.sum()
        d, lower, upper = _bracket(q, logq, p, cfg.base)
        if upper - lower <= tol:
            return BAResult(lower, p, iteration, True, upper)
        if iteration == polish_at:
            polish_at *= 2
            polished = _active_set(q, logq, p, cfg.base, tol)
            if polished is not None and polished[0] >= lower:
                return BAResult(polished[0], polished[1], iteration, True, polished[2])
    return BAResult(lower, p, oracle.max_iterations, False, upper)


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

    This entry point checks ``q`` and runs the core, ``_grid_search_binary``,
    on the checked channel.
    """
    cfg = _config(cfg, _DEFAULT)
    oracle = _config(oracle, _DEFAULT_ORACLE)
    return _grid_search_binary(check_channel(q), cfg, oracle)


def _grid_search_binary(q, cfg, oracle):
    """``grid_search_binary`` on a checked channel ``q``; raises ValueError unless it has 2 rows."""
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

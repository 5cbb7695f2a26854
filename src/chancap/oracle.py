"""Iterative capacity solvers, independent of the closed forms.

Two oracles: the alternating-maximization scheme with a certified
optimality gap (works for any channel shape), and a brute-force grid sweep
over the input simplex for binary channels.  Both exist so the explicit
formulas elsewhere in the package can be cross-checked against methods that
share none of their algebra.
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
    d = _divergences(q, _log_pos(q, cfg.base), p @ q, cfg.base)
    return float(p @ d), float(d.max())


def _blahut_arimoto_2x2(q, base, tol, max_iter):
    # Scalar transcription of the loop below for the 2x2 case, which the
    # acceptance workload hits thousands of times; avoids numpy call
    # overhead without changing the algorithm.
    q00, q01, q10, q11 = float(q[0, 0]), float(q[0, 1]), float(q[1, 0]), float(q[1, 1])
    ln_b = math.log(base)

    def lg(x):
        return math.log(x) / ln_b if x > 0.0 else 0.0

    l00, l01, l10, l11 = lg(q00), lg(q01), lg(q10), lg(q11)
    floor = GRADIENT_OUTPUT_FLOOR
    p0 = p1 = 0.5
    lower = 0.0
    for iteration in range(1, max_iter + 1):
        r0 = p0 * q00 + p1 * q10
        r1 = p0 * q01 + p1 * q11
        lr0 = math.log(r0 if r0 > floor else floor) / ln_b
        lr1 = math.log(r1 if r1 > floor else floor) / ln_b
        d0 = q00 * (l00 - lr0) + q01 * (l01 - lr1)
        d1 = q10 * (l10 - lr0) + q11 * (l11 - lr1)
        upper = d0 if d0 >= d1 else d1
        w0 = p0 * math.exp((d0 - upper) * ln_b)
        w1 = p1 * math.exp((d1 - upper) * ln_b)
        z = w0 + w1
        lower = upper + math.log(z) / ln_b
        p0 = w0 / z
        p1 = w1 / z
        if upper - lower <= tol:
            return BAResult(lower, np.array([p0, p1]), iteration, True)
    return BAResult(lower, np.array([p0, p1]), max_iter, False)


def blahut_arimoto(q, cfg: LogConfig = None, oracle: OracleConfig = None) -> BAResult:
    """Alternating maximization from the uniform input.

    Each pass computes d_i = sum_j q_ij (log_b q_ij - log_b r_j) against the
    current output distribution r = p Q, then rescales p by b**d_i.  The
    classical bound pair brackets the capacity: max_i d_i from above and
    log_b(sum_i p_i b**d_i) from below (the log of the rescaling normalizer,
    so it costs nothing extra).  The loop stops when the bracket width
    reaches ``oracle.tolerance``; the reported capacity is the lower bound,
    which is nondecreasing in the iteration count.
    """
    cfg = _DEFAULT if cfg is None else cfg
    oracle = _DEFAULT_ORACLE if oracle is None else oracle
    q = check_channel(q)
    if q.shape == (2, 2):
        return _blahut_arimoto_2x2(q, cfg.base, oracle.tolerance, oracle.max_iterations)
    n = q.shape[0]
    logq = _log_pos(q, cfg.base)
    ln_base = math.log(cfg.base)
    p = np.full(n, 1.0 / n)
    lower = 0.0
    for iteration in range(1, oracle.max_iterations + 1):
        d = _divergences(q, logq, p @ q, cfg.base)
        upper = float(d.max())
        w = p * np.exp((d - upper) * ln_base)
        z = float(w.sum())  # sum_i p_i b**(d_i - upper), in (0, 1]
        lower = upper + math.log(z) / ln_base
        p = w / z
        if upper - lower <= oracle.tolerance:
            return BAResult(lower, p, iteration, True)
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

"""Explicit capacity of a square invertible channel.

For a nonsingular transition matrix Q the capacity-achieving output
distribution can be written in closed form: solve Q x = h where
h_i = sum_j q_ij log_b q_ij, then

    C    = log_b sum_j b**x_j
    r_j  = b**(x_j - C)
    p    = F^T r,   F = Q^{-1}

The output distribution r is always a valid distribution; the input p
recovered through the inverse may have negative entries, in which case the
unconstrained stationary point lies outside the simplex and C is only an
upper bound on the true capacity.  Callers should fall back to an iterative
solver in that case.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import check_channel
from .entropy import LogConfig, _DEFAULT, _log_b, xlogx_star
from .linalg import SingularMatrixError, _solve_with_inverse, inverse, solve

#: Raw inputs with entries no more negative than this count as feasible.
INPUT_FEASIBILITY_TOL = 1e-12


class SingularChannelError(ValueError):
    """The transition matrix is singular, so the explicit formula does not apply."""


@dataclass(frozen=True)
class MurogaSolution:
    """Everything the explicit formula produces for one channel."""

    aux: np.ndarray  # x solving Q x = h
    capacity: float
    opt_output: np.ndarray  # r, always a distribution
    opt_input_raw: np.ndarray  # F^T r, possibly outside the simplex
    feasible: bool
    inverse: np.ndarray  # F = Q^{-1}


def _check_square_channel(q):
    q = check_channel(q)
    if q.shape[0] != q.shape[1]:
        raise ValueError(f"explicit formula needs a square channel, got shape {q.shape}")
    return q


def _exp_b(t, base):
    if base == 2.0:
        return np.exp2(t)
    return np.exp(np.asarray(t, dtype=float) * math.log(base))


def _row_terms(q, cfg):
    """h_i = sum_j q_ij log_b q_ij, each row summed exactly rounded."""
    return np.array([math.fsum(row) for row in xlogx_star(q, cfg).tolist()])


def solve_auxiliary(q, cfg: LogConfig = None):
    """Solve Q x = h, h_i = sum_j q_ij log_b q_ij, for the auxiliary vector x."""
    cfg = _DEFAULT if cfg is None else cfg
    q = _check_square_channel(q)
    try:
        return solve(q, _row_terms(q, cfg))
    except SingularMatrixError as exc:
        raise SingularChannelError(str(exc)) from exc


def capacity_from_aux(aux, cfg: LogConfig = None):
    """C = log_b sum_j b**x_j, evaluated with the max shifted out."""
    cfg = _DEFAULT if cfg is None else cfg
    aux = np.asarray(aux, dtype=float)
    m = float(aux.max())
    total = math.fsum(_exp_b(aux - m, cfg.base))
    return m + float(_log_b(total, cfg.base))


def optimal_output(aux, capacity, cfg: LogConfig = None):
    """r_j = b**(x_j - C); sums to one by construction of C."""
    cfg = _DEFAULT if cfg is None else cfg
    aux = np.asarray(aux, dtype=float)
    return _exp_b(aux - capacity, cfg.base)


def optimal_input(q, opt_output):
    """Pull the output distribution back through F = Q^{-1}: p = F^T r.

    Entries may be negative; that is the infeasible case, not an error.
    """
    q = _check_square_channel(q)
    r = np.asarray(opt_output, dtype=float)
    if r.shape != (q.shape[0],):
        raise ValueError(f"output distribution shape {r.shape} does not match channel {q.shape}")
    try:
        f = inverse(q)
    except SingularMatrixError as exc:
        raise SingularChannelError(str(exc)) from exc
    return f.T @ r


def feasible_input(opt_input_raw):
    """Clamp tiny negative entries to zero and renormalize, for reporting."""
    p = np.asarray(opt_input_raw, dtype=float).copy()
    p[p < 0.0] = 0.0
    total = math.fsum(p)
    if total <= 0.0:
        raise ValueError("raw input has no positive mass to renormalize")
    return p / total


def muroga_capacity(q, cfg: LogConfig = None) -> MurogaSolution:
    """Run the full explicit pipeline on a square invertible channel."""
    cfg = _DEFAULT if cfg is None else cfg
    q = _check_square_channel(q)
    try:
        aux, f = _solve_with_inverse(q, _row_terms(q, cfg))
    except SingularMatrixError as exc:
        raise SingularChannelError(str(exc)) from exc
    capacity = capacity_from_aux(aux, cfg)
    if -1e-12 < capacity < 0.0:  # roundoff on near-zero-capacity channels
        capacity = 0.0
    r = optimal_output(aux, capacity, cfg)
    p_raw = f.T @ r
    feasible = bool(np.all(p_raw >= -INPUT_FEASIBILITY_TOL))
    return MurogaSolution(
        aux=aux,
        capacity=capacity,
        opt_output=r,
        opt_input_raw=p_raw,
        feasible=feasible,
        inverse=f,
    )

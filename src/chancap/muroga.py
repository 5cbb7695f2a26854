"""Muroga's explicit capacity solution, and its system on an active set.

For a nonsingular transition matrix Q the capacity-achieving output
distribution can be written in closed form: solve Q x = h where
h_i = sum_j q_ij log_b q_ij, then

    C    = log_b sum_j b**x_j
    r_j  = b**(x_j - C)
    p    solves Q^T p = r

The output distribution r is always a valid distribution; the input p
recovered through Q^T may have negative entries, in which case the
unconstrained stationary point lies outside the simplex and C is only an
upper bound on the true capacity.  Callers should fall back to an iterative
solver in that case.

``_muroga`` applies the singularity rule, ``_inverse``, and evaluates the
formula; the public ``solve`` and ``inverse`` expose the rule on any square
matrix.  ``muroga_capacity`` is a channel check, then ``_muroga``;
``chancap.dispatch`` runs ``_muroga`` on the channel it has checked.

For Q of any shape, ``_active_set`` solves the same system on a support S
that grows and shrinks, d_S = C and sum p_S = 1, by Newton's method, and
returns an input only with a certified bracket; ``oracle.blahut_arimoto``
uses it as its polish.  The formula itself is evaluated only by
``muroga_capacity``, which ``solve_auxiliary`` calls, and by
``chancap.dispatch``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import _bracket, _divergences, check_channel
from .entropy import LogConfig, _DEFAULT, _as_float, _as_float_array, _config, _is_real, _log_b, _log_pos, _real_array

#: Raw inputs with entries no more negative than this count as feasible.
INPUT_FEASIBILITY_TOL = 1e-12
#: A reciprocal 1-norm condition number not >= RCOND_TOL means singular.
RCOND_TOL = 1e-12


class SingularChannelError(ValueError):
    """The matrix is singular or too ill-conditioned to trust a solve."""


#: Alias of SingularChannelError, so ``except SingularMatrixError`` still catches it.
SingularMatrixError = SingularChannelError


@dataclass(frozen=True)
class MurogaSolution:
    """Everything the explicit formula produces for one channel."""

    aux: np.ndarray  # x solving Q x = h
    capacity: float
    opt_output: np.ndarray  # r, always a distribution
    opt_input_raw: np.ndarray  # F^T r, possibly outside the simplex
    feasible: bool
    inverse: np.ndarray  # F = Q^{-1}


def _check_square(a):
    arr = _as_float_array(a, "matrix")[0]
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def _check_square_channel(q):
    q = check_channel(q)
    if q.shape[0] != q.shape[1]:
        raise ValueError(f"explicit formula needs a square channel, got shape {q.shape}")
    return q


def _inverse(a):
    """F = a^{-1} of a checked square float matrix, under the one singularity rule.

    ``a`` is singular, and SingularChannelError is raised, when LAPACK raises
    ``LinAlgError`` or when ``rcond = 1 / (||a||_1 * ||F||_1)`` is not
    >= ``RCOND_TOL``; the "not >=" also rejects an overflowed ``F``.  A NaN
    in ``F`` makes ``rcond`` NaN, and the error then says that the inverse
    is not finite.
    """
    try:
        f = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise SingularChannelError(str(exc)) from exc
    with np.errstate(over="ignore"):
        rcond = 1.0 / (np.linalg.norm(a, 1) * np.linalg.norm(f, 1))
    if not rcond >= RCOND_TOL:
        if math.isnan(rcond):
            raise SingularChannelError("inverse is not finite")
        raise SingularChannelError(f"reciprocal condition number {rcond:g} below {RCOND_TOL:g}")
    return f


def solve(a, rhs):
    """Solve ``a @ x = rhs`` for a square matrix; raises SingularChannelError if singular.

    ``a`` and ``rhs`` must be non-empty and finite, and ``rhs`` 1-D of the
    matrix's order; anything else raises ValueError naming the argument.
    """
    a = _check_square(a)
    rhs = _as_float_array(rhs, "rhs")[0]
    if rhs.shape != (a.shape[0],):
        raise ValueError(f"rhs shape {rhs.shape} does not match matrix of order {a.shape[0]}")
    _inverse(a)
    return np.linalg.solve(a, rhs)


def inverse(a):
    """Inverse of a square matrix; raises SingularChannelError if singular."""
    return _inverse(_check_square(a))


def _exp_b(t, base):
    if base == 2.0:
        return np.exp2(t)
    return np.exp(np.asarray(t, dtype=float) * math.log(base))


def _log_sum_exp(x, base):
    """``(C, r)``: C = log_b sum_j b**x_j and r = b**(x - C), as w / sum w.

    The max of x is shifted out before the sum, and a C within 1e-12 below
    0, roundoff on a near-zero capacity channel, reads 0.
    """
    top = x.max()
    w = _exp_b(x - top, base)
    total = w.sum()
    capacity = float(top + _log_b(total, base))
    if -1e-12 < capacity < 0.0:
        capacity = 0.0
    return capacity, w / total


def _muroga(q, logq, base):
    """Muroga's formula, above, on a checked square channel: a MurogaSolution.

    ``logq`` is the masked log_b of ``q``.  The singularity rule
    (``_inverse``) runs first and raises SingularChannelError, so no solve
    of the formula sees a matrix the rule rejects.  C and r are
    ``_log_sum_exp`` of x, and p is the one solution of d = C, sum p = 1,
    possibly outside the simplex.
    """
    f = _inverse(q)
    x = np.linalg.solve(q, (q * logq).sum(axis=1))
    capacity, r = _log_sum_exp(x, base)
    p = np.linalg.solve(q.T, r)
    feasible = bool(np.all(p >= -INPUT_FEASIBILITY_TOL))
    return MurogaSolution(aux=x, capacity=capacity, opt_output=r, opt_input_raw=p, feasible=feasible, inverse=f)


def solve_auxiliary(q, cfg: LogConfig = None):
    """Solve Q x = h, h_i = sum_j q_ij log_b q_ij, for the auxiliary vector x."""
    return muroga_capacity(q, cfg).aux


def capacity_from_aux(aux, cfg: LogConfig = None):
    """C = log_b sum_j b**x_j, as ``muroga_capacity`` takes it from its x.

    A C within 1e-12 below 0 reads 0, as there.  ``aux`` must be a
    non-empty, finite, 1-D array; anything else raises ValueError.
    """
    cfg = _config(cfg, _DEFAULT)
    return _log_sum_exp(_as_float_array(aux, "aux", 1)[0], cfg.base)[0]


def optimal_output(aux, capacity, cfg: LogConfig = None):
    """r_j = b**(x_j - C); sums to one by construction of C.

    ``aux`` must be a non-empty, finite, 1-D array and ``capacity`` a finite
    real number, not a bool; anything else raises ValueError.
    """
    cfg = _config(cfg, _DEFAULT)
    aux = _as_float_array(aux, "aux", 1)[0]
    if not (_is_real(capacity) and math.isfinite(_as_float(capacity))):
        raise ValueError(f"capacity must be a finite real, got {capacity!r}")
    return _exp_b(aux - capacity, cfg.base)


def optimal_input(q, opt_output):
    """Pull the output distribution back through F = Q^{-1}: p = F^T r.

    Solves ``Q^T p = r`` by LU, as ``muroga_capacity`` does, so the two give
    the same bytes.  Entries may be negative; that is the infeasible case,
    not an error.  ``opt_output`` must be finite and 1-D of the channel's
    order; anything else raises ValueError, and a channel the singularity
    rule rejects raises SingularChannelError.
    """
    q = _check_square_channel(q)
    r = _as_float_array(opt_output, "opt_output")[0]
    if r.shape != (q.shape[0],):
        raise ValueError(f"output distribution shape {r.shape} does not match channel {q.shape}")
    _inverse(q)
    return np.linalg.solve(q.T, r)


def feasible_input(opt_input_raw):
    """Clamp tiny negative entries to zero and renormalize, for reporting.

    ``opt_input_raw`` must be 1-D; anything else raises ValueError, as does
    a NaN, an infinity or no positive mass.
    """
    p = _real_array(opt_input_raw, "opt_input_raw", copy=True)
    if p.ndim != 1:
        raise ValueError(f"opt_input_raw must be 1-D, got shape {p.shape}")
    p[p < 0.0] = 0.0
    try:
        total = math.fsum(p.tolist())
    except OverflowError:  # finite entries whose sum is not
        total = math.inf
    if not (math.isfinite(total) and total > 0.0):
        raise ValueError(f"raw input has no finite positive mass to renormalize, total {total!r}")
    return p / total


def muroga_capacity(q, cfg: LogConfig = None) -> MurogaSolution:
    """Run the full explicit pipeline on a square invertible channel.

    Checks ``q``, then runs ``_muroga`` on the checked channel and its
    masked logs; a channel the singularity rule rejects raises
    SingularChannelError.
    """
    cfg = _config(cfg, _DEFAULT)
    q = _check_square_channel(q)
    return _muroga(q, _log_pos(q, cfg.base), cfg.base)


#: The active set takes as support the inputs with at least this share of
#: the largest input mass; an input the certificate adds enters with this share.
SUPPORT_SHARE = 1e-3
#: Newton steps per support before the active set gives up on it.
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


@np.errstate(all="ignore")  # a failed step is caught below, not warned
def _active_set(q, logq, p, base, tol):
    """Muroga's system on an active set: a certified ``(lower, input, upper)`` or None.

    ``q`` is a checked channel of any shape, ``logq`` its masked log_b and
    ``p`` the start.  One loop owns the support S: it guesses S from ``p``,
    the inputs with p_i >= SUPPORT_SHARE * max p, at most the m largest;
    solves d_S(p) - C = 0, sum(p_S) = 1 by Newton on S; shrinks S when a
    step leaves the simplex; certifies a converged candidate with its
    bracket; and, while that bracket is wider than ``tol``, grows S by the
    input with the largest divergence (``_add_input``), at most m times,
    unless it is already in S.  ``lower`` and ``upper`` are the accepted
    candidate's bracket, computed as ``capacity_bounds`` computes it.

    Newton.  Since dd_i/dp_l = -sum_j q_ij q_lj / (r_j ln b), the Jacobian
    is -Q_S diag(1/r) Q_S^T / ln b bordered by a column of -1 and a row of
    1.  Newton starts from ``p`` restricted to S, where ``p`` is the start
    or, after an add, ``_add_input``'s warm start, and a candidate is
    taken once max |d_S - C| <= tol / 4.

    The drop rule.  An optimal input with zero mass has d_i <= C, and one
    with positive mass has d_i = C.  A step that leaves the simplex drops
    the most negative input and starts Newton again from ``p`` on what is
    left (a restart from the clipped iterate took fewer solves on some
    channel sets and more on others).  While S is the guess it also drops
    every input whose new mass is <= 0 and whose divergence at the point
    the step was taken from lies below the estimate, d_i - c < 0, failing
    both tests at once, so a guess with many spurious inputs is pruned in
    a few solves.  After an add S drops one input per step, since a batch
    could throw out the input just added.  A wrong drop costs speed only:
    the certificate still decides.
    """
    ln_base = math.log(base)
    order = np.argsort(-p, kind="stable")[: q.shape[1]]
    support = order[p[order] >= SUPPORT_SHARE * p[order[0]]]
    guessed, adds = True, q.shape[1]
    while support.size:
        k = support.size
        # Outputs no support input reaches add nothing to d_S or the Jacobian.
        qs = q[support]
        cols = qs.any(axis=0)
        qs, logqs = qs[:, cols], logq[support][:, cols]
        ps, c = p[support] / p[support].sum(), None
        jac = np.zeros((k + 1, k + 1))
        jac[:k, k] = -1.0
        jac[k, :k] = 1.0
        rhs = np.empty(k + 1)
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
                break
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
                drop = guessed & (ps <= 0.0) & (res < 0.0)
                drop[np.argmin(ps)] = True
                support = support[~drop]
                break
        else:
            return None
        if worst > tol / 4:
            continue  # a step left the simplex and S shrank
        cand = np.zeros_like(p)
        cand[support] = ps / ps.sum()
        d, lower, upper = _bracket(q, logq, cand, base)
        if upper - lower <= tol:
            return lower, cand, upper
        j = int(np.argmax(d))
        if cand[j] > 0.0 or not adds:
            return None
        p, guessed, adds = _add_input(q, cand, j), False, adds - 1
        support = np.flatnonzero(p)
    return None

"""Discrete memoryless channels: row-stochastic transition matrices, the
distributions they induce, the channel mutual information I(p, Q) and its
gradient on the probability simplex.
"""

import math

import numpy as np

from .binary import _check_binary
from .entropy import LogConfig, _DEFAULT, _check_pair, _config, _log_b, _log_pos, check_channel  # check_channel: re-export

#: Output columns with mass below this are excluded from the gradient sum.
GRADIENT_OUTPUT_FLOOR = 1e-300


def _divergences(q, logq, r, base):
    # d_i = sum_j q_ij (log_b q_ij - log_b r_j).  Entries with q_ij = 0 have
    # logq = 0 there and the floor keeps logr finite, so the product is an
    # exact 0 and no explicit mask is needed.  logr broadcasts over the rows.
    logr = _log_b(np.maximum(r, GRADIENT_OUTPUT_FLOOR), base)
    # np.add.reduce and np.maximum.reduce are what ndarray.sum and .max call,
    # without their Python wrappers.
    return np.add.reduce(q * (logq - logr), axis=1)


def _bracket(q, logq, p, base):
    # (d, lower, upper) of p: the one certificate, shared by capacity_bounds,
    # every BA sweep and the active set's acceptance test, for every shape.
    # ndarray.dot gives the bits of @ on these 1-D-by-2-D and 1-D-by-1-D
    # products (tests/test_channel.py) at about half the call overhead.
    d = _divergences(q, logq, p.dot(q), base)
    return d, float(p.dot(d)), float(np.maximum.reduce(d))


def binary_channel(a, c):
    """The 2x2 transition matrix ((1-a, a), (1-c, c)) with a, c in [0, 1].

    Row 1 flips symbol 0 with probability ``a``; row 2 keeps symbol 1 with
    probability ``c``.  ``a = 0`` gives the Z-channel, ``c = 1 - a`` the
    binary symmetric channel.
    """
    a, c = _check_binary(a, c)
    return np.array([[1.0 - a, a], [1.0 - c, c]])


def output_distribution(p, q):
    """Output marginal r_j = sum_i p_i q_ij induced by input p through q."""
    p, q = _check_pair(p, q)
    return p @ q


def joint_distribution(p, q):
    """Joint table with cells p_i * q_ij; marginals reproduce p and p @ q."""
    p, q = _check_pair(p, q)
    return p[:, None] * q


def channel_mutual_information(p, q, cfg: LogConfig = None):
    """Mutual information between channel input and output, I(p, Q).

    Evaluated as ``sum_ij p_i q_ij (log_b q_ij - log_b r_j)`` over the terms
    with positive weight, which agrees with the joint-table definition but
    never touches log(0): whenever ``p_i q_ij > 0`` the output mass ``r_j``
    is positive too.
    """
    cfg = _config(cfg, _DEFAULT)
    p, q = _check_pair(p, q)
    r = p @ q
    w = p[:, None] * q
    terms = np.where(w > 0.0, w * (_log_pos(q, cfg.base) - _log_pos(r, cfg.base)), 0.0)
    return math.fsum(terms.ravel()) + 0.0


def mi_gradient(p, q, cfg: LogConfig = None):
    """Gradient of I(p, Q) with respect to p at an interior point.

    Component k is ``sum_j q_kj (log_b q_kj - log_b r_j) - 1/ln(b)``, summed
    over outputs with positive mass; terms with ``q_kj = 0`` contribute
    nothing.  Defined only for strictly positive p (the mutual information
    has unbounded slope on the simplex boundary), so a boundary point raises
    ``ValueError``.
    """
    cfg = _config(cfg, _DEFAULT)
    p, q = _check_pair(p, q)
    if np.any(p <= 0.0):
        raise ValueError("gradient requires an interior point (all p_i > 0)")
    r = p @ q
    keep = r >= GRADIENT_OUTPUT_FLOOR
    pos = (q > 0.0) & keep[None, :]
    bracket = np.where(pos, q * (_log_pos(q, cfg.base) - _log_pos(r, cfg.base)), 0.0)
    const = 1.0 / math.log(cfg.base)
    return np.array([math.fsum(row) - const for row in bracket])


def _check_perm(perm, q, axis):
    # A repeated, missing or boolean index would duplicate or drop symbols.
    n, perm = q.shape[axis], np.asarray(perm)
    if perm.dtype.kind not in "iu" or not np.array_equal(np.sort(perm), np.arange(n)):
        raise ValueError(f"perm must be a permutation of range({n}), got {perm.tolist()}")
    return perm


def relabel_inputs(p, q, perm):
    """Permute the input symbols of (p, Q) together; ``perm`` orders Q's rows.

    ``p`` must pass ``check_distribution`` and ``q`` ``check_channel``, with
    one row of ``q`` per entry of ``p``; anything else raises ValueError.
    """
    p, q = _check_pair(p, q)
    perm = _check_perm(perm, q, 0)
    return p[perm], q[perm, :]


def relabel_outputs(q, perm):
    """Permute the output symbols of Q; ``perm`` orders its columns.

    ``q`` must pass ``check_channel``; anything else raises ValueError.
    """
    q = check_channel(q)
    return q[:, _check_perm(perm, q, 1)]

"""Discrete memoryless channels: row-stochastic transition matrices, the
distributions they induce, the channel mutual information I(p, Q) and its
gradient on the probability simplex.
"""

import math

import numpy as np

from .binary import _check_binary
from .entropy import LogConfig, _check_pair, _log_pos, check_channel  # check_channel: re-export

#: Output columns with mass below this are excluded from the gradient sum.
GRADIENT_OUTPUT_FLOOR = 1e-300

_DEFAULT = LogConfig()


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
    cfg = cfg or _DEFAULT
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
    cfg = cfg or _DEFAULT
    p, q = _check_pair(p, q)
    if np.any(p <= 0.0):
        raise ValueError("gradient requires an interior point (all p_i > 0)")
    r = p @ q
    keep = r >= GRADIENT_OUTPUT_FLOOR
    pos = (q > 0.0) & keep[None, :]
    bracket = np.where(pos, q * (_log_pos(q, cfg.base) - _log_pos(r, cfg.base)), 0.0)
    const = 1.0 / math.log(cfg.base)
    return np.array([math.fsum(row) - const for row in bracket])


def relabel_inputs(p, q, perm):
    """Apply one relabeling of input symbols to (p, Q): permute both together."""
    perm = np.asarray(perm)
    return np.asarray(p, dtype=float)[perm], np.asarray(q, dtype=float)[perm, :]


def relabel_outputs(q, perm):
    """Apply one relabeling of output symbols to Q: permute its columns."""
    return np.asarray(q, dtype=float)[:, np.asarray(perm)]

"""Shannon entropy, joint/conditional entropy and mutual information for
finite discrete distributions.

All quantities are measured in units fixed by a logarithm base ``b > 1``
(``b = 2`` gives bits).  Zero probabilities are handled through the starred
logarithm ``log*``, which assigns an arbitrary finite value ``w`` to
``log*(0)`` so that ``x * log*(x)`` is continuous (and exactly zero) at
``x = 0``.  No computed quantity may depend on ``w``.
"""

import math
from dataclasses import dataclass

import numpy as np

#: Absolute tolerance on probability sums.
SUM_TOL = 1e-12

#: Entries in [NEG_CLAMP, 0) are treated as rounding noise and clamped to 0.
NEG_CLAMP = -1e-15


@dataclass(frozen=True)
class LogConfig:
    """Logarithm convention: base ``b > 1`` and the value assigned to log*(0).

    ``base=2`` measures information in bits.  ``star_value`` is the constant
    ``w`` returned by :func:`log_star` at zero; every formula in this package
    multiplies it by a zero weight, so results never depend on it.
    """

    base: float = 2.0
    star_value: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.base) and self.base > 1.0):
            raise ValueError(f"log base must be finite and > 1, got {self.base}")


_DEFAULT = LogConfig()


def _log_b(x, base):
    """Elementwise log in the given base; base 2 avoids a base-change rounding."""
    if base == 2.0:
        return np.log2(x)
    return np.log(x) / math.log(base)


def _as_float_array(x, name):
    arr = np.array(x, dtype=float)
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def check_distribution(p):
    """Validate a probability vector and return it as a float array.

    Entries in ``[-1e-15, 0)`` are clamped to zero (rounding noise); anything
    more negative, any entry above ``1 + 1e-12``, or a total differing from 1
    by more than ``1e-12`` raises ``ValueError``.  Accepted inputs are
    returned as-is, never renormalized; use :func:`normalize` for that.
    """
    arr = _as_float_array(p, "distribution")
    if arr.ndim != 1:
        raise ValueError(f"distribution must be 1-D, got shape {arr.shape}")
    if np.any(arr < NEG_CLAMP):
        raise ValueError(f"distribution has negative entries: min {arr.min()}")
    arr[arr < 0.0] = 0.0
    if np.any(arr > 1.0 + SUM_TOL):
        raise ValueError(f"distribution has entries above 1: max {arr.max()}")
    total = math.fsum(arr)
    if abs(total - 1.0) > SUM_TOL:
        raise ValueError(f"distribution sums to {total!r}, not 1")
    return arr


def normalize(p):
    """Explicitly rescale nonnegative weights to sum to 1."""
    arr = _as_float_array(p, "weights")
    if np.any(arr < 0.0):
        raise ValueError("weights must be nonnegative")
    total = arr.sum()
    if total <= 0.0:
        raise ValueError("weights sum to zero")
    return arr / total


def check_joint(cells):
    """Validate an n-by-m joint probability table and return it as an array."""
    arr = _as_float_array(cells, "joint distribution")
    if arr.ndim != 2:
        raise ValueError(f"joint distribution must be 2-D, got shape {arr.shape}")
    if np.any(arr < NEG_CLAMP):
        raise ValueError("joint distribution has negative cells")
    arr[arr < 0.0] = 0.0
    total = math.fsum(arr.ravel())
    if abs(total - 1.0) > SUM_TOL:
        raise ValueError(f"joint distribution sums to {total!r}, not 1")
    return arr


def log_star(x, cfg: LogConfig = None):
    """Starred logarithm: ``log_b(x)`` for ``x > 0``, ``w`` at ``x = 0``.

    Accepts a scalar or an array; negative input raises ``ValueError``.
    """
    cfg = cfg or _DEFAULT
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("log_star is undefined for negative values")
    pos = arr > 0.0
    out = np.where(pos, _log_b(np.where(pos, arr, 1.0), cfg.base), cfg.star_value)
    return float(out) if arr.ndim == 0 else out


def xlogx_star(x, cfg: LogConfig = None):
    """Continuous extension of ``x * log_b(x)``: exactly 0 at ``x = 0``.

    Independent of ``cfg.star_value`` because the weight at zero is zero.
    Accepts a scalar or an array; negative input raises ``ValueError``.
    """
    cfg = cfg or _DEFAULT
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("xlogx_star is undefined for negative values")
    pos = arr > 0.0
    out = np.where(pos, arr * _log_b(np.where(pos, arr, 1.0), cfg.base), 0.0)
    return float(out) if arr.ndim == 0 else out


def entropy(p, cfg: LogConfig = None):
    """Entropy ``H(p) = -sum_i p_i log_b p_i`` of a discrete distribution.

    Terms are accumulated with exactly-rounded summation (``math.fsum``), so
    the result depends only on the multiset of probabilities: permuting the
    vector or appending zero-probability outcomes cannot change it.
    """
    cfg = cfg or _DEFAULT
    arr = check_distribution(p)
    return -math.fsum(xlogx_star(arr, cfg)) + 0.0


def joint_entropy(joint, cfg: LogConfig = None):
    """Entropy of a joint table: the entropy of the flattened cell vector."""
    cfg = cfg or _DEFAULT
    cells = check_joint(joint)
    return -math.fsum(xlogx_star(cells.ravel(), cfg)) + 0.0


def conditional_entropy(p, q, cfg: LogConfig = None):
    """Conditional entropy H(Y|X) of a channel's output given its input.

    Args:
        p: input distribution, length n.
        q: row-stochastic n-by-m transition matrix (rows are the conditional
            output distributions).
        cfg: logarithm convention.

    Returns:
        ``sum_i p_i * H(row_i)``; rows with ``p_i = 0`` contribute zero.
    """
    from .channel import check_channel  # local import: channel builds on this module

    cfg = cfg or _DEFAULT
    p = check_distribution(p)
    q = check_channel(q)
    if p.shape[0] != q.shape[0]:
        raise ValueError(f"input length {p.shape[0]} != channel rows {q.shape[0]}")
    row_entropies = [-math.fsum(xlogx_star(row, cfg)) for row in q]
    return math.fsum(p_i * h_i for p_i, h_i in zip(p, row_entropies)) + 0.0


def mutual_information(joint, cfg: LogConfig = None):
    """Mutual information I(X,Y) = H(X) + H(Y) - H(X,Y) of a joint table.

    Nonnegative, and zero exactly when the table factorizes into the product
    of its marginals.
    """
    cfg = cfg or _DEFAULT
    cells = check_joint(joint)
    h_joint = -math.fsum(xlogx_star(cells.ravel(), cfg))
    h_x = -math.fsum(xlogx_star(cells.sum(axis=1), cfg))
    h_y = -math.fsum(xlogx_star(cells.sum(axis=0), cfg))
    return h_x + h_y - h_joint + 0.0

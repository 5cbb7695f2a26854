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


def _log_pos(x, base):
    """``log_b(x)`` where ``x > 0`` and exactly 0 elsewhere, without warnings.

    The masked log behind the convention ``0 * log 0 = 0``: every entry that
    is not positive gets the value 0, so a zero weight times it is 0.
    """
    pos = x > 0.0
    return np.where(pos, _log_b(np.where(pos, x, 1.0), base), 0.0)


def _as_float_array(x, name):
    arr = np.array(x, dtype=float)
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _check_cells(x, name, ndim, per_row=False):
    """The one validity rule behind every probability table in the package.

    ``x`` must be a non-empty, finite, ``ndim``-dimensional array.  Entries in
    ``[NEG_CLAMP, 0)`` are rounding noise and are clamped to zero; anything
    more negative, any entry above ``1 + SUM_TOL``, or a total (of each row
    when ``per_row``) off 1 by more than ``SUM_TOL`` raises ``ValueError``.
    Accepted inputs are returned as a fresh float array, never renormalized.
    """
    arr = _as_float_array(x, name)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-D, got shape {arr.shape}")
    if np.any(arr < NEG_CLAMP):
        raise ValueError(f"{name} has negative entries: min {arr.min()}")
    arr[arr < 0.0] = 0.0
    if np.any(arr > 1.0 + SUM_TOL):
        raise ValueError(f"{name} has entries above 1: max {arr.max()}")
    # fsum over Python floats: the same exact sums, without numpy scalars.
    for i, cells in enumerate(arr.tolist() if per_row else [arr.ravel().tolist()]):
        total = math.fsum(cells)
        if abs(total - 1.0) > SUM_TOL:
            where = f" row {i}" if per_row else ""
            raise ValueError(f"{name}{where} sums to {total!r}, not 1")
    return arr


def check_distribution(p):
    """Validate a probability vector and return it as a float array.

    Entries in ``[-1e-15, 0)`` are clamped to zero (rounding noise); anything
    more negative, any entry above ``1 + 1e-12``, or a total differing from 1
    by more than ``1e-12`` raises ``ValueError``.  Accepted inputs are
    returned as-is, never renormalized; use :func:`normalize` for that.
    """
    return _check_cells(p, "distribution", 1)


def check_joint(cells):
    """Validate an n-by-m joint probability table and return it as an array.

    Same rule as :func:`check_distribution`, applied to all cells together.
    """
    return _check_cells(cells, "joint distribution", 2)


def check_channel(q):
    """Validate an n-by-m transition matrix and return it as a float array.

    Every row must pass :func:`check_distribution`: entries in [0, 1] (tiny
    negative rounding noise is clamped) and a sum within ``1e-12`` of 1.
    """
    return _check_cells(q, "transition matrix", 2, per_row=True)


def _check_pair(p, q):
    """Validate an input distribution and a channel with one row per input."""
    p = check_distribution(p)
    q = check_channel(q)
    if p.shape[0] != q.shape[0]:
        raise ValueError(f"input length {p.shape[0]} != channel rows {q.shape[0]}")
    return p, q


def normalize(p):
    """Explicitly rescale nonnegative weights to sum to 1."""
    arr = _as_float_array(p, "weights")
    if np.any(arr < 0.0):
        raise ValueError("weights must be nonnegative")
    total = arr.sum()
    if total <= 0.0:
        raise ValueError("weights sum to zero")
    return arr / total


def log_star(x, cfg: LogConfig = None):
    """Starred logarithm: ``log_b(x)`` for ``x > 0``, ``w`` at ``x = 0``.

    Accepts a scalar or an array; negative input raises ``ValueError``.
    """
    cfg = cfg or _DEFAULT
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("log_star is undefined for negative values")
    out = np.where(arr > 0.0, _log_pos(arr, cfg.base), cfg.star_value)
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
    out = arr * _log_pos(arr, cfg.base) + 0.0  # + 0.0 turns -0.0 into 0.0
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
    cfg = cfg or _DEFAULT
    p, q = _check_pair(p, q)
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

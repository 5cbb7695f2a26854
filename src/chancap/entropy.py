"""Shannon entropy, joint/conditional entropy and mutual information for
finite discrete distributions.

All quantities are measured in units fixed by a logarithm base ``b > 1``
(``b = 2`` gives bits).  Zero probabilities are handled through the starred
logarithm ``log*``, which assigns an arbitrary finite value ``w`` to
``log*(0)`` so that ``x * log*(x)`` is continuous (and exactly zero) at
``x = 0``.  No computed quantity may depend on ``w``.
"""

import math
import numbers
import reprlib
from dataclasses import dataclass

import numpy as np

#: Absolute tolerance on probability sums.
SUM_TOL = 1e-12

#: Entries in [NEG_CLAMP, 0) are treated as rounding noise and clamped to 0.
NEG_CLAMP = -1e-15


def _is_real(x):
    """Whether ``x`` is a ``numbers.Real`` other than a bool: a Python or numpy
    int or float, or a Fraction; never a str, a complex or a numpy array."""
    return type(x) is float or isinstance(x, numbers.Real) and not isinstance(x, bool)


def _as_float(x):
    """``float(x)``, but an int too large for a float reads as the infinity of
    its sign, so a finiteness check rejects it, as ``_real_array`` does."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


@dataclass(frozen=True)
class LogConfig:
    """Logarithm convention: base ``b > 1`` and the value assigned to log*(0).

    ``base=2`` measures information in bits.  ``star_value`` is the constant
    ``w`` returned by :func:`log_star` at zero; every formula in this package
    multiplies it by a zero weight, so results never depend on it.  Both are
    finite real numbers, never a bool or a str; anything else raises
    ValueError naming the field.
    """

    base: float = 2.0
    star_value: float = 0.0

    def __post_init__(self):
        if not (_is_real(self.base) and math.isfinite(_as_float(self.base)) and self.base > 1.0):
            raise ValueError(f"log base must be finite and > 1, got {self.base!r}")
        if not (_is_real(self.star_value) and math.isfinite(_as_float(self.star_value))):
            raise ValueError(f"star_value must be a finite real number, got {self.star_value!r}")


_DEFAULT = LogConfig()


def _config(value, default):
    """A config argument: ``default`` for None, ``value`` when it is an
    instance of ``default``'s class; anything else raises ValueError."""
    if value is None:
        return default
    if isinstance(value, type(default)):
        return value
    raise ValueError(f"expected {type(default).__name__} or None, got {value!r}")


def _log_b(x, base):
    """Elementwise log in the given base; base 2 avoids a base-change rounding."""
    if base == 2.0:
        return np.log2(x)
    return np.log(x) / math.log(base)


def _log_pos(x, base):
    """``log_b(x)`` where ``x > 0`` and exactly +0.0 elsewhere, without warnings.

    The masked log behind the convention ``0 * log 0 = 0``: every entry that
    is not positive (zero, -0.0, negative or NaN) gets the value 0, so a zero
    weight times it is 0.  One masked ufunc writes the positive entries into
    a zeroed array; the log never sees the others, so it raises no warning.
    Outside base 2 the division by ``ln b`` leaves the zeros at +0.0 and
    rounds each log as ``_log_b`` does.  ``x`` is a float array of any shape.
    """
    if base == 2.0:
        return np.log2(x, out=np.zeros(x.shape), where=x > 0.0)
    out = np.log(x, out=np.zeros(x.shape), where=x > 0.0)
    out /= math.log(base)
    return out


#: Unit roundoff of float64: round to nearest errs by at most u relative.
_U = 2.0**-53


#: numpy's one float64 dtype, which every float64 array it builds shares.
_FLOAT = np.dtype(float)


def _real_array(x, name, copy=None):
    """``x`` as a float64 array; ``copy`` is ``np.array``'s (True always copies).

    numpy reads ``x`` once, and the kind of what it read decides.  A float64
    array is returned as read; bools, ints and other floats are converted.
    An object array, such as Fractions or ints beyond int64, is read entry
    by entry with ``float``.  A str or bytes, even among objects, a complex,
    a date, a dict or an arbitrary object raises ValueError naming ``name``,
    as does an int beyond the float range, which reads as non-finite.
    """
    arr = np.array(x, copy=copy)
    if arr.dtype is _FLOAT:
        return arr
    kind = arr.dtype.kind
    if kind not in "biufO" or kind == "O" and any(isinstance(v, (str, bytes)) for v in arr.flat):
        raise ValueError(f"{name} must hold real numbers, got {reprlib.repr(x)}")
    try:
        return arr.astype(float)
    except TypeError as exc:
        raise ValueError(f"{name} must hold real numbers: {exc}") from None
    except OverflowError:
        raise ValueError(f"{name} contains non-finite entries") from None


def _as_float_array(x, name, ndim=None):
    """``x`` as a fresh float array, with its smallest and largest entry.

    ``x`` must be non-empty, finite and, unless ``ndim`` is None,
    ``ndim``-dimensional; anything else raises ValueError naming ``name``.
    NaN propagates through ``min`` and ``max``, so their finiteness is the
    finiteness of every entry.
    """
    arr = _real_array(x, name, copy=True)
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    lo, hi = arr.min(), arr.max()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{name} contains non-finite entries")
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-D, got shape {arr.shape}")
    return arr, lo, hi


def _check_cells(x, name, ndim, per_row=False):
    """The one validity rule behind every probability table in the package.

    ``x`` must be a non-empty, finite, ``ndim``-dimensional array.  Entries in
    ``[NEG_CLAMP, 0)`` are rounding noise and are clamped to zero; anything
    more negative, any entry above ``1 + SUM_TOL``, or a total (of each row
    when ``per_row``) off 1 by more than ``SUM_TOL`` raises ``ValueError``.
    Accepted inputs are returned as a fresh float array, never renormalized.

    The verdict on a total is that of its exact sum ``s``: ``math.fsum``
    rounds it once to ``fl(s)``, and the total passes when
    ``|fl(s) - 1| <= SUM_TOL``.  numpy's sum ``ŝ`` settles most totals
    without ``fsum``.  Summed in any order, k terms ``x_i`` give
    ``|ŝ - s| <= γ·A``, with ``A = Σ|x_i|``, ``γ = (k-1)u/(1-(k-1)u)`` and
    ``u = 2**-53`` (Higham, *Accuracy and Stability of Numerical
    Algorithms*, §4.2).  numpy's ``Â`` of the ``|x_i|`` obeys the same
    bound, so ``A <= Â/(1-γ)``.  Near 1, ``fl(s)`` lies within ``u`` of ``s``
    and ``fl(s) - 1`` is exact (Sterbenz), so for any ``M >= max(Â, 1)``

        |fl(s) - 1| <= |ŝ - 1| + γ/(1-γ)·Â + u <= |ŝ - 1| + (k + 1/2)·u·M,

    because ``γ/(1-γ) <= (k - 1/2)·u`` while ``k(k-1) <= 2**50``, which holds
    wherever the margin leaves room (``(k+1)u < SUM_TOL`` needs k < 9007).
    A total with ``|ŝ - 1| <= SUM_TOL - (k+1)·u·M`` therefore passes the
    exact test too: ``ŝ - 1`` is exact near 1, and the spare ``u·M/2``
    dwarfs the rounding of the threshold (about ``u·SUM_TOL``).  Here every
    entry is nonnegative, so ``Â = ŝ``, and M is the largest of 1 and the
    row sums.  Every other total goes to ``fsum`` in row order, and only
    ``fsum`` rejects, so verdict and message are those of summing every
    total exactly.
    """
    arr, lo, hi = _as_float_array(x, name, ndim)
    if lo < NEG_CLAMP:
        raise ValueError(f"{name} has negative entries: min {lo}")
    if lo < 0.0:
        arr[arr < 0.0] = 0.0
    if hi > 1.0 + SUM_TOL:
        raise ValueError(f"{name} has entries above 1: max {hi}")
    rows = arr if per_row else arr.reshape(1, -1)
    sums = rows.sum(axis=1).tolist()
    settled = SUM_TOL - (rows.shape[1] + 1) * _U * max(1.0, *sums)
    for i, total in enumerate(sums):
        if abs(total - 1.0) <= settled:
            continue
        # fsum over Python floats: the same exact sum, without numpy scalars.
        total = math.fsum(rows[i].tolist())
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
    arr, lo, hi = _as_float_array(p, "weights")
    if lo < 0.0:
        raise ValueError("weights must be nonnegative")
    with np.errstate(over="ignore"):
        total = arr.sum()
    if not math.isfinite(total):  # finite weights whose sum overflows
        arr = arr / hi
        total = arr.sum()
    if total <= 0.0:
        raise ValueError("weights sum to zero")
    return arr / total


def _nonnegative(x, name):
    """``x`` as a float array for the starred function ``name``, which is
    undefined for a negative or NaN entry: those raise ValueError."""
    arr = _real_array(x, name)
    if not np.all(arr >= 0.0):
        raise ValueError(f"{name} is undefined for negative or NaN values")
    return arr


def log_star(x, cfg: LogConfig = None):
    """Starred logarithm: ``log_b(x)`` for ``x > 0``, ``w`` at ``x = 0``.

    Accepts a scalar or an array; negative or NaN input raises ``ValueError``.
    """
    cfg = _config(cfg, _DEFAULT)
    arr = _nonnegative(x, "log_star")
    out = np.where(arr > 0.0, _log_pos(arr, cfg.base), cfg.star_value)
    return float(out) if arr.ndim == 0 else out


def xlogx_star(x, cfg: LogConfig = None):
    """Continuous extension of ``x * log_b(x)``: exactly 0 at ``x = 0``.

    Independent of ``cfg.star_value`` because the weight at zero is zero.
    Accepts a scalar or an array; negative or NaN input raises ``ValueError``.
    """
    cfg = _config(cfg, _DEFAULT)
    arr = _nonnegative(x, "xlogx_star")
    out = arr * _log_pos(arr, cfg.base) + 0.0  # + 0.0 turns -0.0 into 0.0
    return float(out) if arr.ndim == 0 else out


def entropy(p, cfg: LogConfig = None):
    """Entropy ``H(p) = -sum_i p_i log_b p_i`` of a discrete distribution.

    Terms are accumulated with exactly-rounded summation (``math.fsum``), so
    the result depends only on the multiset of probabilities: permuting the
    vector or appending zero-probability outcomes cannot change it.
    """
    arr = check_distribution(p)
    return -math.fsum(xlogx_star(arr, cfg)) + 0.0


def joint_entropy(joint, cfg: LogConfig = None):
    """Entropy of a joint table: the entropy of the flattened cell vector."""
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
    p, q = _check_pair(p, q)
    row_entropies = [-math.fsum(xlogx_star(row, cfg)) for row in q]
    return math.fsum(p_i * h_i for p_i, h_i in zip(p, row_entropies)) + 0.0


def mutual_information(joint, cfg: LogConfig = None):
    """Mutual information I(X,Y) = H(X) + H(Y) - H(X,Y) of a joint table.

    Nonnegative, and zero exactly when the table factorizes into the product
    of its marginals.
    """
    cells = check_joint(joint)
    h_joint = -math.fsum(xlogx_star(cells.ravel(), cfg))
    h_x = -math.fsum(xlogx_star(cells.sum(axis=1), cfg))
    h_y = -math.fsum(xlogx_star(cells.sum(axis=0), cfg))
    return h_x + h_y - h_joint + 0.0

"""Closed-form capacity of the general binary channel.

The channel is Q = ((1-a, a), (1-c, c)): ``a`` and ``c`` are the
probabilities that inputs 1 and 2 produce output 2.  Whenever a != c the
matrix is invertible and the auxiliary vector, capacity and both optimal
distributions have explicit algebraic forms.  Every logarithm below appears
with its own argument as a factor of the coefficient, so the x log x
convention (zero at zero) keeps the formulas valid on the boundary of the
parameter square, including the Z-channel a = 0 and the noiseless a = 0,
c = 1 corner.
"""

import math

import numpy as np

from .entropy import LogConfig, _DEFAULT

#: |c - a| at or below this is treated as a degenerate (zero capacity) channel.
DEGENERATE_TOL = 1e-12


class DegenerateChannelError(ValueError):
    """Both rows coincide, so the closed form's 1/(c - a) factor blows up."""


def _check_binary(a, c):
    a = float(a)
    c = float(c)
    for name, value in (("a", a), ("c", c)):
        if not math.isfinite(value) or not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return a, c


def _check_nondegenerate(a, c):
    a, c = _check_binary(a, c)
    if abs(c - a) <= DEGENERATE_TOL:
        raise DegenerateChannelError(f"rows coincide: a={a!r}, c={c!r}")
    return a, c


def _wlog2(w, x):
    # Weighted log with the convention w*log2(x) = 0 when w = 0; every call
    # site has x as a factor of w, so x = 0 never reaches log2.
    if w == 0.0:
        return 0.0
    return w * math.log2(x)


def binary_aux(a, c):
    """Auxiliary pair (x1, x2) in bits for the binary channel, a != c."""
    return _aux(*_check_nondegenerate(a, c))


def _aux(a, c):
    # binary_aux on checked, nondegenerate floats.
    ap = 1.0 - a
    cp = 1.0 - c
    d = c - a
    x1 = (_wlog2(c * ap, ap) + _wlog2(a * c, a) - _wlog2(a * cp, cp) - _wlog2(a * c, c)) / d
    x2 = (_wlog2(ap * cp, cp) + _wlog2(ap * c, c) - _wlog2(ap * cp, ap) - _wlog2(a * cp, a)) / d
    return x1, x2


def _shifted_weights(x1, x2):
    # 2**x1, 2**x2 up to a common positive factor; safe for huge |x|.
    m = max(x1, x2)
    return 2.0 ** (x1 - m), 2.0 ** (x2 - m)


def binary_capacity(a, c, cfg: LogConfig = None):
    """Capacity of ((1-a, a), (1-c, c)) in units of log base ``cfg.base``.

    Degenerate channels (identical rows up to DEGENERATE_TOL) carry no
    information and return exactly 0.0.
    """
    cfg = _DEFAULT if cfg is None else cfg
    a, c = _check_binary(a, c)
    if abs(c - a) <= DEGENERATE_TOL:
        return 0.0
    x1, x2 = _aux(a, c)
    m = max(x1, x2)
    bits = m + math.log2(2.0 ** (x1 - m) + 2.0 ** (x2 - m))
    if bits < 0.0:  # roundoff below the true value 0 at near-degenerate corners
        bits = 0.0
    if cfg.base == 2.0:
        return bits
    return bits / math.log2(cfg.base)


def binary_optimal_output(a, c, cfg: LogConfig = None):
    """Capacity-achieving output distribution (r1, r2).

    ``cfg`` only fixes units elsewhere; the maximizing distribution itself
    does not depend on the log base, so it is accepted and ignored.
    """
    a, c = _check_nondegenerate(a, c)
    w1, w2 = _shifted_weights(*_aux(a, c))
    s = w1 + w2
    return np.array([w1 / s, w2 / s])


def binary_optimal_input(a, c, cfg: LogConfig = None):
    """Capacity-achieving input distribution (p1, p2).

    Base independent (``cfg`` accepted for symmetry with binary_capacity).
    For 0 < a < c < 1 both entries provably lie in [1/e, 1 - 1/e], so the
    closed form is always feasible there.
    """
    a, c = _check_nondegenerate(a, c)
    w1, w2 = _shifted_weights(*_aux(a, c))
    s = (c - a) * (w1 + w2)
    p1 = (c * w1 - (1.0 - c) * w2) / s
    p2 = (-a * w1 + (1.0 - a) * w2) / s
    return np.array([p1, p2])

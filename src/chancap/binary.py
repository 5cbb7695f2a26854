"""Closed-form capacity of the general binary channel.

The channel is Q = ((1-a, a), (1-c, c)): ``a`` and ``c`` are the
probabilities that inputs 1 and 2 produce output 2.  Its capacity is one
expression in a and c: with natural logs and u = c - a, the optimal output
r2 has log-odds logit(a) + KL(c || a) / u, the optimal input is
p2 = (r2 - a) / u, and C = KL(a || r2), on the whole closed square (a == c
gives C = 0 at p = (1/2, 1/2), the limit).  ``_closed_form`` evaluates it
with no cancelling difference, writing each divergence as
KL(q + d || q) = d (chi(d/q) - chi(-d/(1-q))), two terms of one sign.
"""

import math

import numpy as np

from .entropy import LogConfig, _DEFAULT, _as_float, _config, _is_real

#: ``binary_aux`` raises for |c - a| at or below this; nothing else uses it.
DEGENERATE_TOL = 1e-12


class DegenerateChannelError(ValueError):
    """Both rows coincide or nearly so: Q is singular, and Q x = h has no unique solution."""


def _check_binary(a, c):
    """(a, c) as floats; each must be a real number, not a bool, in [0, 1]."""
    for name, value in (("a", a), ("c", c)):
        if not _is_real(value):
            raise ValueError(f"{name} must be a real number, got {value!r}")
        if not 0.0 <= _as_float(value) <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {_as_float(value)!r}")
    return _as_float(a), _as_float(c)


def _channel_ac(q):
    """(a, c) of a checked 2x2 channel, clamped into [0, 1].

    ``check_channel`` admits entries up to 1 + SUM_TOL and leaves none
    negative, so only the top needs the clamp; the closed form is defined
    on the closed square alone.
    """
    (_, a), (_, c) = q.tolist()
    return min(a, 1.0), min(c, 1.0)


def binary_aux(a, c):
    """Muroga's auxiliary pair (x1, x2) in bits: the solution of Q x = h, h_i = sum_j Q_ij log2 Q_ij.

    Muroga's r_j = 2^(x_j - C) gives x_j = C + log r_j, taken from the closed
    form in nats and then changed to bits.  The larger output mass's log is
    log1p of minus the smaller, which keeps it accurate where that mass
    nears 1.  A noiseless row, a or c in {0, 1}, reads x_j = h_i = 0 exactly.
    Raises DegenerateChannelError where Q is singular or nearly so.
    """
    a, c = _check_binary(a, c)
    if abs(c - a) <= DEGENERATE_TOL:
        raise DegenerateChannelError(f"rows coincide: a={a!r}, c={c!r}")
    cap, _, (r1, r2) = _closed_form(a, c)
    x = [
        (cap + (math.log(r) if r <= other else math.log1p(-other))) / math.log(2.0)
        for r, other in ((r1, r2), (r2, r1))
    ]
    for v in (a, c):
        if v == 0.0 or v == 1.0:  # the row is e_1 (v = 0) or e_2 (v = 1): it reads x_j = 0
            x[int(v)] = 0.0
    return tuple(x)


def _rate(t):
    """chi(t) = phi(t) / t, where phi(t) = (1 + t) log1p(t) - t and t >= -1.

    Near 0 the direct form cancels; there log1p(t) = 2 atanh(s), s = t / (2 + t),
    gives chi = s + s^2 (1 + s) B(s^2) with B(z) = sum_{j >= 1} z^(j-1) / (2j + 1).
    """
    if -1.0 / 3.0 <= t <= 0.5:  # |s| <= 1/5: the terms after z^10 / 23 are below 1e-18
        s = t / (2.0 + t)
        z = s * s
        b = 1 / 3 + z * (1 / 5 + z * (1 / 7 + z * (1 / 9 + z * (1 / 11 + z * (1 / 13 + z * (
            1 / 15 + z * (1 / 17 + z * (1 / 19 + z * (1 / 21 + z / 23)))))))))
        return s + z * (1.0 + s) * b
    if t == -1.0:  # the limit; log1p(-1) is undefined
        return -1.0
    return math.log1p(t) * (1.0 + 1.0 / t) - 1.0


def _closed_form(a, c):
    """(C in nats, (p1, p2), (r1, r2)) for checked a, c anywhere in [0, 1]."""
    if min(c, 1.0 - c) > min(a, 1.0 - a):  # anchor at the more interior row
        cap, (p1, p2), r = _closed_form(c, a)
        return cap, (p2, p1), r
    if a == c:
        return 0.0, (0.5, 0.5), (1.0 - a, a)
    if a == 0.0 or a == 1.0:  # then c = 1 - a: a noiseless corner
        return math.log(2.0), (0.5, 0.5), (0.5, 0.5)
    # Swapping the outputs maps (a, 1 - a, u) to (1 - a, a, -u) and keeps p,
    # so take u > 0: x is the anchor's mass on the output that c favours.
    swapped = c < a
    x, xb, u = (1.0 - a, a, a - c) if swapped else (a, 1.0 - a, c - a)
    t = u / x  # inf only for a subnormal x, where chi(t) = log t - 1
    rate = (_rate(t) if t < math.inf else math.log(u) - math.log(x) - 1.0) - _rate(-u / xb)
    m = -math.expm1(-rate)  # rate = KL(c || a) / u; with E = e^rate - 1, m = E / (1 + E)
    # The normalizer 1 + xE = x (1 + rho) in logs: for a subnormal x, e^rate overflows
    # and e^-rate is subnormal.
    log_x = math.log(x)
    rho = math.exp(math.log(xb) - log_x - rate)
    r_x = 1.0 / (1.0 + rho)
    p2 = xb / u * m / (1.0 + rho)
    # C = KL(x || r_x), where r_x - x = u p2 and the ratio in the second term is xE.
    cap = u * p2 * (_rate(m * math.exp(log_x + rate)) - _rate(-xb * m))
    return cap, (1.0 - p2, p2), ((r_x, rho * r_x) if swapped else (rho * r_x, r_x))


def binary_capacity(a, c, cfg: LogConfig = None):
    """Capacity of ((1-a, a), (1-c, c)) in units of log base ``cfg.base``; 0.0 if a == c."""
    cfg = _config(cfg, _DEFAULT)
    return _closed_form(*_check_binary(a, c))[0] / math.log(cfg.base)


def binary_optimal_output(a, c, cfg: LogConfig = None):
    """Capacity-achieving output distribution (r1, r2); (1 - a, a) when a == c.

    ``cfg`` only fixes units elsewhere; the maximizing distribution itself
    does not depend on the log base, so it is checked like any config
    argument and otherwise ignored.
    """
    _config(cfg, _DEFAULT)
    return np.array(_closed_form(*_check_binary(a, c))[2])


def binary_optimal_input(a, c, cfg: LogConfig = None):
    """Capacity-achieving input distribution (p1, p2); (1/2, 1/2) when a == c.

    Base independent (``cfg`` is checked, for symmetry with binary_capacity,
    and otherwise ignored).  For 0 < a, c < 1 both entries provably lie in
    [1/e, 1 - 1/e], and the computed ones do too, to rounding, for every
    |c - a| > 0: nothing cancelling is divided by c - a.
    """
    _config(cfg, _DEFAULT)
    return np.array(_closed_form(*_check_binary(a, c))[1])

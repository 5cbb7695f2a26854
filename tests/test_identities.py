"""Identities that every channel's capacity obeys, checked on seeded draws,
and named reproducers of the certificate's known defects.

The identities need no reference value: each compares chancap with itself
on channels whose capacities are related by theory (Cover and Thomas,
*Elements of Information Theory*, 2nd ed.: additivity over independent
parallel channels, and the data-processing inequality, Thm 2.8.1).  Each
reported capacity is certified within the tolerance ``TOL``, so each
identity holds to a small multiple of it.

The reproducers are strict xfails: they fail today, and the change that
mends a defect must delete the marker, since a silent fix then fails the
suite.  Both name ROADMAP item 2, a certificate that survives rounding.
"""

import contextlib
import io
import json

import numpy as np
import pytest

from chancap import (
    OracleConfig,
    binary_channel,
    capacity,
    capacity_bounds,
    relabel_inputs,
    relabel_outputs,
)
from chancap.cli import run

TOL = OracleConfig().tolerance


def _channels(rng, count, alpha=0.7, sizes=(2, 3, 4)):
    """``count`` channels of 2 to 4 rows and columns, rows Dirichlet(alpha)."""
    return [rng.dirichlet(np.full(rng.choice(sizes), alpha), size=rng.choice(sizes)) for _ in range(count)]


def _capacity(q):
    result, converged = capacity(q)
    assert converged
    return result.capacity


def test_capacity_adds_over_parallel_channels():
    """C(A x B) = C(A) + C(B): using two channels side by side with
    independent inputs gives nothing beyond their capacities.  The worst
    error seen on these draws is 8.9e-16."""
    rng = np.random.default_rng(42)
    for _ in range(300):
        a, b = _channels(rng, 2)
        assert abs(_capacity(np.kron(a, b)) - _capacity(a) - _capacity(b)) <= 2 * TOL


def test_capacity_ignores_the_names_of_symbols():
    """Relabelling the inputs or the outputs leaves the capacity as it is."""
    rng = np.random.default_rng(43)
    for q in _channels(rng, 150):
        n, m = q.shape
        c = _capacity(q)
        _, by_inputs = relabel_inputs(np.full(n, 1.0 / n), q, rng.permutation(n))
        assert abs(_capacity(by_inputs) - c) <= TOL
        assert abs(_capacity(relabel_outputs(q, rng.permutation(m))) - c) <= TOL


def test_processing_the_output_cannot_raise_capacity():
    """C(QR) <= min(C(Q), C(R)): a second channel R after Q, or one before
    R, carries no more than either alone (data processing)."""
    rng = np.random.default_rng(44)
    for q in _channels(rng, 150):
        r = rng.dirichlet(np.full(rng.integers(2, 5), 0.7), size=q.shape[1])
        assert _capacity(q @ r) <= min(_capacity(q), _capacity(r)) + TOL


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the bracket has no rounding allowance")
def test_tiny_capacity_lies_in_its_bracket():
    """At (a, c) = (1, 1 - 2**-53) the capacity is 5.89e-17 bits.  The
    report's bracket, the certificate of its input, must contain it; today
    the whole bracket lies below it.  The reference is Muroga's formula at
    50 digits: Q = ((0, 1), (e, 1 - e)) gives x2 = 0 and
    x1 = log2 e + (1 - e)/e log2(1 - e), and C = log2(1 + 2**x1)."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        e = mp.mpf(2) ** -53
        x1 = mp.log(e, 2) + (1 - e) / e * mp.log(1 - e, 2)
        truth = mp.log(1 + mp.power(2, x1), 2)
    q = binary_channel(1.0, 1.0 - 2.0**-53)
    result, _ = capacity(q)
    lower, upper = capacity_bounds(result.optimal_input, q)
    assert lower <= truth <= upper


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: a tolerance below rounding is reported as met")
def test_tolerance_below_rounding_is_not_reported_as_met(tmp_path):
    """``--method blahut-arimoto --tol 1e-300`` cannot be met in floating
    point, yet on these 6x6 channels (rows Dirichlet(0.7), drawn in turn
    from ``default_rng(0)``; draws 2, 6 and 17, each settled within 8
    sweeps) the command exits 0 with a gap of 0 or below."""
    rng = np.random.default_rng(0)
    draws = [rng.dirichlet(np.full(6, 0.7), size=6) for _ in range(18)]
    for k in (2, 6, 17):
        path = tmp_path / f"q{k}.json"
        path.write_text(json.dumps({"matrix": draws[k].tolist()}))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run(["--matrix", str(path), "--method", "blahut-arimoto", "--tol", "1e-300"])
        assert not (code == 0 and json.loads(out.getvalue())["diagnostics"]["gap"] <= 0.0), k

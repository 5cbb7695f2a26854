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
suite.  Each names its ROADMAP item: 2, a certificate that survives
rounding; 3, exact channel reduction; 4, near-duplicate rows that the
optimum needs both of.
"""

import contextlib
import io
import json

import numpy as np
import pytest

from chancap import (
    OracleConfig,
    binary_channel,
    blahut_arimoto,
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


#: The sweep cap of the stall reproducers.  The channels that stop at it
#: are the ones that stop at 2000 sweeps; at 5000, 43 of item 3's 46 and
#: all 11 of item 4's still stop.
STALL_SWEEPS = 1500

#: Item 3's (n, m, s) that stop at STALL_SWEEPS, of its 300.
ITEM3_STALLS = [
    *((4, 5, s) for s in (6, 31, 32, 34, 41, 42, 45, 49, 87, 90, 99, 100, 115, 131, 133, 137, 138, 141)),
    *((5, 6, s) for s in (6, 26, 30, 38, 44, 48, 49, 52, 56, 58, 67, 78, 81, 82, 88, 94, 99, 103, 104, 106,
                          108, 114, 115, 118, 124, 130, 134, 136)),
]

#: Item 4's k that stop at STALL_SWEEPS, of its 3000.
ITEM4_STALLS = [590, 742, 891, 918, 1608, 2216, 2240, 2324, 2727, 2872, 2950]


def _settles(q):
    return blahut_arimoto(q, oracle=OracleConfig(max_iterations=STALL_SWEEPS)).converged


@pytest.fixture(scope="module")
def item4_channels():
    """Item 4's fuzz channels by k, of those in ITEM4_STALLS.  Each draw
    depends on every draw before it, so the loop replays them all in order."""
    rng = np.random.default_rng(2026)
    channels = {}
    for k in range(max(ITEM4_STALLS) + 1):
        n, m = rng.integers(2, 9, size=2)
        q = rng.dirichlet(np.full(m, rng.choice([0.2, 1.0, 5.0])), size=n)
        q[rng.random((n, m)) < 0.15] = 0.0
        q[q.sum(1) == 0, 0] = 1.0
        q /= q.sum(1, keepdims=True)
        for _ in range(rng.integers(0, 3)):
            i, j = rng.integers(0, n, size=2)
            e = rng.choice([0.0, 0.0, 1e-12, 1e-8, 1e-5])
            q[i] = (1 - e) * q[j] + e * q[i]
        if k in ITEM4_STALLS:
            channels[k] = q
    return channels


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: an exact and a near duplicate row stall the polish")
@pytest.mark.parametrize("n, m, s", ITEM3_STALLS)
def test_duplicate_rows_settle(n, m, s):
    """Row 1 equals row 0 and row 2 lies 1e-8 from it.  The exact duplicate
    makes the Newton Jacobian singular, and the polish stalls."""
    rng = np.random.default_rng([n, m, s])
    q = rng.dirichlet(np.ones(m), size=n)
    q[1] = q[0]
    q[2] = (1 - 1e-8) * q[0] + 1e-8 * q[2]
    assert _settles(q)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: the optimum needs both of two near-duplicate rows")
@pytest.mark.parametrize("k", ITEM4_STALLS)
def test_near_duplicate_rows_settle(item4_channels, k):
    """Two rows that differ by little, both of which carry optimal mass:
    the polish keeps dropping one of them, and Blahut-Arimoto crawls."""
    assert _settles(item4_channels[k])

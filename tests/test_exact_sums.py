"""Row sums at numpy speed, verdicts of the exact sum.

``_check_cells`` and ``ingest_matrix`` let numpy's sum settle every total
that its rounding bound can decide and leave the rest to ``math.fsum``.  The
references below sum every total with ``math.fsum``, as both functions did
before; the properties require the same returned bytes, or the same
message, and the same warnings, on tables planted around every edge of the
rule.
"""

import contextlib
import io
import math
import sys

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chancap import SUM_TOL, check_channel, check_distribution, check_joint
from chancap.cli import INGEST_ROW_SUM_TOL, ingest_matrix
from chancap.entropy import NEG_CLAMP

#: Spacing of the floats just above 1.
ULP = 2.0**-52

#: Entries on and just past each edge of the entry rule, and non-finite ones.
SPECIAL_ENTRIES = [
    NEG_CLAMP,
    float(np.nextafter(NEG_CLAMP, -1.0)),
    float(np.nextafter(NEG_CLAMP, 0.0)),
    -5e-16,
    -0.0,
    0.0,
    1.0,
    1.0 + SUM_TOL,
    float(np.nextafter(1.0 + SUM_TOL, 2.0)),
    math.nan,
    math.inf,
    -math.inf,
]


def _reference_check_cells(x, name, ndim, per_row=False):
    """Reference: the validity rule with every total summed by ``math.fsum``."""
    arr = np.array(x, dtype=float)
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-D, got shape {arr.shape}")
    if np.any(arr < NEG_CLAMP):
        raise ValueError(f"{name} has negative entries: min {arr.min()}")
    arr[arr < 0.0] = 0.0
    if np.any(arr > 1.0 + SUM_TOL):
        raise ValueError(f"{name} has entries above 1: max {arr.max()}")
    for i, cells in enumerate(arr.tolist() if per_row else [arr.ravel().tolist()]):
        total = math.fsum(cells)
        if abs(total - 1.0) > SUM_TOL:
            where = f" row {i}" if per_row else ""
            raise ValueError(f"{name}{where} sums to {total!r}, not 1")
    return arr


def _reference_ingest_matrix(raw):
    """Reference: the ingest rule with every row summed by ``math.fsum``."""
    raw = np.array(raw, dtype=float)
    if not np.all(np.isfinite(raw)):
        raise ValueError("matrix contains non-finite entries")
    try:
        sums = np.array([math.fsum(row) for row in raw.tolist()])
    except OverflowError as exc:
        raise ValueError(f"row sums overflow: {exc}") from exc
    dev = float(np.abs(sums - 1.0).max())
    if dev > INGEST_ROW_SUM_TOL:
        raise ValueError(f"row sums deviate from 1 by {dev:g}, beyond {INGEST_ROW_SUM_TOL:g}")
    if dev > SUM_TOL:
        print(f"warning: row sums off by up to {dev:.3g}; renormalizing rows", file=sys.stderr)
        raw = raw / sums[:, np.newaxis]
    return _reference_check_cells(raw, "transition matrix", 2, per_row=True)


#: kind -> (validator, reference, one total per row)
VALIDATORS = {
    "distribution": (check_distribution, lambda x: _reference_check_cells(x, "distribution", 1), False),
    "channel": (
        check_channel,
        lambda x: _reference_check_cells(x, "transition matrix", 2, per_row=True),
        True,
    ),
    "joint": (check_joint, lambda x: _reference_check_cells(x, "joint distribution", 2), False),
}


def _outcome(fn, x):
    """What a caller sees: the returned bytes or the message, and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            out = fn(x)
        except ValueError as exc:
            seen = ("raises", str(exc))
        else:
            seen = ("returns", out.shape, out.dtype.str, out.tobytes())
    return seen + (err.getvalue(),)


def offsets(*edges):
    """Offsets of a planted total from 1: on each edge, a few ulps either
    side of it, anywhere up to twice the widest edge, or none."""
    widest = max(edges)
    return st.one_of(
        st.just(0.0),
        st.builds(
            lambda edge, sign, ulps: sign * edge + ulps * ULP,
            st.sampled_from(edges),
            st.sampled_from([-1.0, 1.0]),
            st.integers(-4, 4),
        ),
        st.floats(-2.0 * widest, 2.0 * widest),
    )


def _plant(cells, target):
    """Set the first cell so the exact sum of ``cells`` lands on ``target``,
    up to the rounding of that one cell; a total with a non-finite entry
    stays as it is."""
    if np.all(np.isfinite(cells)):
        cells[0] = 0.0
        cells[0] = target - math.fsum(cells)


def _cells(draw, shape):
    """Dirichlet rows, or rows of 2 to 7 cells whose tail numpy's sum
    drops or rounds up: cells just under or over half an ulp of a running
    total near 1, added one at a time, so numpy's sum is off the exact one
    by a few ulps either way."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return rng.dirichlet(np.full(shape[-1], draw(st.sampled_from([0.05, 1.0]))), size=shape[:-1])
    shape = shape[:-1] + (k := draw(st.integers(2, 7)),)
    tail = draw(st.integers(1, k - 1))
    cells = rng.dirichlet(np.ones(k - tail), size=shape[:-1])
    tiny = draw(st.sampled_from([4e-17, 5.6e-17, 1e-16, 1.2e-16]))
    return np.concatenate([cells, np.full(shape[:-1] + (tail,), tiny)], axis=-1)


@st.composite
def shapes(draw, kind):
    """Row lengths mostly short, sometimes long enough (up to 2e4) that
    numpy's bound leaves every total to fsum."""
    k = draw(st.one_of(st.integers(1, 40), st.integers(1, 20_000)))
    if kind == "distribution":
        return (k,)
    return (min(draw(st.integers(1, 6)), max(1, 40_000 // k)), k)


@st.composite
def tables(draw):
    """(kind, table): cells with special entries planted and each total (of
    each row, or of the whole table) set near 1 ± SUM_TOL."""
    kind = draw(st.sampled_from(sorted(VALIDATORS)))
    cells = _cells(draw, draw(shapes(kind)))
    for _ in range(draw(st.integers(0, 3))):
        cells.flat[draw(st.integers(0, cells.size - 1))] = draw(st.sampled_from(SPECIAL_ENTRIES))
    per_row = VALIDATORS[kind][2]
    for totals in cells if per_row else [cells.reshape(-1)]:
        if draw(st.integers(0, 4)):  # now and then leave the total as it is
            _plant(totals, 1.0 + draw(offsets(SUM_TOL)))
    return kind, cells


@st.composite
def raw_matrices(draw):
    """Channel-file matrices: rows off 1 by up to about 2e-9, around both
    SUM_TOL and INGEST_ROW_SUM_TOL, with negative, huge, overflowing and
    non-finite entries planted."""
    raw = _cells(draw, draw(shapes("channel")))
    n, k = raw.shape
    for row in raw:
        _plant(row, 1.0 + draw(offsets(SUM_TOL, INGEST_ROW_SUM_TOL)))
    for _ in range(draw(st.integers(0, 2))):
        row = raw[draw(st.integers(0, n - 1))]
        extra = draw(st.sampled_from(["shift", "huge pair", "overflow", "special"]))
        if extra == "special":
            row[draw(st.integers(0, k - 1))] = draw(st.sampled_from(SPECIAL_ENTRIES))
        elif k >= 2:
            i, j = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
            if extra == "shift":  # move mass from one cell to another, below 0 maybe
                d = draw(st.sampled_from([1e-16, 5e-16, 2e-15, 1e-9, 0.3]))
                row[i] += d
                row[j] -= d
            else:
                big = 1e300 if extra == "huge pair" else 1.5e308
                row[i], row[j] = big, -big if extra == "huge pair" else big
    return raw


#: Rows whose numpy sum lies within SUM_TOL of 1 and whose exact sum does
#: not: numpy's running total drops the five 1e-16 cells above 1 and rounds
#: each 5.6e-17 cell up to a whole ulp below it.
ABOVE = [0.5, 0.5000000000009995] + [1e-16] * 5
BELOW = [0.5, 0.4999999999989995] + [5.6e-17] * 5


@settings(max_examples=400, deadline=None)
@given(tables())
@example(("distribution", np.array(ABOVE)))
@example(("distribution", np.array(BELOW)))
@example(("channel", np.array([BELOW, [0.5] * 2 + [0.0] * 5, ABOVE])))
def test_validators_match_exact_sums(table):
    kind, cells = table
    validator, reference, _ = VALIDATORS[kind]
    assert _outcome(validator, cells) == _outcome(reference, cells)


@settings(max_examples=400, deadline=None)
@given(raw_matrices())
@example(np.array([ABOVE, BELOW]))
def test_ingest_matches_exact_sums(raw):
    assert _outcome(ingest_matrix, raw) == _outcome(_reference_ingest_matrix, raw)

"""Entropy core: log* convention, entropy forms, and their axioms."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chancap import (
    SUM_TOL,
    LogConfig,
    check_channel,
    check_distribution,
    check_joint,
    conditional_entropy,
    entropy,
    joint_entropy,
    log_star,
    mutual_information,
    normalize,
    xlogx_star,
)
from chancap.entropy import NEG_CLAMP

W_VALUES = [0.0, -50.0, 7.0]

#: Entries on and just past each edge of the validity rule.
EDGE_ENTRIES = [
    NEG_CLAMP,
    float(np.nextafter(NEG_CLAMP, -1.0)),
    -5e-16,
    0.0,
    1.0,
    1.0 + SUM_TOL,
    float(np.nextafter(1.0 + SUM_TOL, 2.0)),
]


@st.composite
def near_boundary_tables(draw):
    """Small tables normalized per row or in total, with edge entries planted
    and the last cell (of each row, or of the table) set so the sum is off 1
    by up to 2e-12."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    weights = draw(st.lists(st.integers(1, 9), min_size=n * m, max_size=n * m))
    cells = np.array(weights, dtype=float).reshape(n, m)
    per_row = draw(st.booleans())
    cells /= cells.sum(axis=1, keepdims=True) if per_row else cells.sum()
    for _ in range(draw(st.integers(0, 3))):
        cells[draw(st.integers(0, n - 1)), draw(st.integers(0, m - 1))] = draw(
            st.sampled_from(EDGE_ENTRIES)
        )
    off = st.floats(-2e-12, 2e-12)
    if per_row:
        for row in cells:
            row[-1] = 1.0 - math.fsum(row[:-1]) + draw(off)
    else:
        cells[-1, -1] = 0.0
        cells[-1, -1] = 1.0 - math.fsum(cells.ravel()) + draw(off)
    return cells


def _outcome(check, x):
    """The validated array, or None when ``check`` rejects ``x``."""
    try:
        return check(x)
    except ValueError:
        return None


class TestLogStar:
    def test_positive_matches_log2(self):
        assert log_star(8.0) == 3.0
        assert log_star(0.25) == -2.0

    def test_zero_returns_star_value(self):
        for w in W_VALUES:
            assert log_star(0.0, LogConfig(star_value=w)) == w

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            log_star(-0.1)

    def test_array_input(self):
        out = log_star(np.array([1.0, 2.0, 0.0]), LogConfig(star_value=-50.0))
        np.testing.assert_array_equal(out, [0.0, 1.0, -50.0])

    def test_other_base(self):
        assert log_star(100.0, LogConfig(base=10.0)) == pytest.approx(2.0, abs=1e-14)


class TestXlogxStar:
    def test_zero_is_exactly_zero(self):
        """0 * log*(0) = 0 regardless of the arbitrary value of log*(0)."""
        for w in W_VALUES:
            assert xlogx_star(0.0, LogConfig(star_value=w)) == 0.0

    def test_positive(self):
        assert xlogx_star(0.5) == -0.5

    def test_array_mixes_zero_and_positive(self):
        out = xlogx_star(np.array([0.0, 0.5, 1.0]))
        np.testing.assert_array_equal(out, [0.0, -0.5, 0.0])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            xlogx_star(np.array([0.2, -0.2]))

    @given(st.floats(min_value=1e-300, max_value=1.0))
    @example(0.8223285658643598)
    def test_matches_plain_xlogx(self, x):
        """Agrees with ``ref = x * math.log2(x)`` to within 4 ulp(ref).

        The two sides differ only in which log2 they call: numpy's or libm's.
        Both are faithfully rounded (error under 1 ulp), so the two log2 values
        are equal or adjacent floats, and multiplying their gap by x moves the
        exact product by at most 2**-52 * |x log2 x|, under 2 ulp(ref).
        Rounding ``ref`` adds half an ulp(ref); rounding the other product adds
        half an ulp of its own binade, at most 1 ulp(ref).  The sum stays under
        4 ulp(ref).  Bit equality does not hold: at the example point a
        200-bit reference shows numpy's log2 correctly rounded and libm's one
        ulp off.
        """
        ref = x * math.log2(x)
        assert abs(xlogx_star(x) - ref) <= 4 * math.ulp(ref)


class TestCheckDistribution:
    def test_accepts_valid(self):
        p = check_distribution([0.25, 0.75])
        np.testing.assert_array_equal(p, [0.25, 0.75])

    def test_clamps_tiny_negative(self):
        p = check_distribution([1.0 + 5e-16, -5e-16])
        assert p[1] == 0.0

    def test_rejects_real_negative(self):
        with pytest.raises(ValueError):
            check_distribution([1.1, -0.1])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            check_distribution([0.5, 0.4])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            check_distribution([np.nan, 1.0])

    def test_rejects_empty_and_2d(self):
        with pytest.raises(ValueError):
            check_distribution([])
        with pytest.raises(ValueError):
            check_distribution([[0.5, 0.5]])

    def test_normalize(self):
        np.testing.assert_allclose(normalize([2.0, 6.0]), [0.25, 0.75], atol=0)
        with pytest.raises(ValueError):
            normalize([0.0, 0.0])


class TestEntropy:
    def test_uniform_is_log_n(self):
        for n in range(1, 9):
            assert entropy(np.full(n, 1.0 / n)) == pytest.approx(math.log2(n), abs=1e-12)

    def test_fair_coin_is_one_bit(self):
        assert entropy([0.5, 0.5]) == 1.0

    def test_point_mass_is_zero(self):
        assert entropy([1.0, 0.0, 0.0]) == 0.0

    def test_star_value_never_leaks(self):
        """Distributions with zeros give identical entropy for every w."""
        p = [0.5, 0.25, 0.25, 0.0, 0.0]
        values = {entropy(p, LogConfig(star_value=w)) for w in W_VALUES}
        assert len(values) == 1

    def test_permutation_invariance_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = rng.dirichlet(np.ones(6))
            q = rng.permutation(p)
            assert entropy(p) == entropy(q)

    def test_zero_padding_invariance_exact(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            p = rng.dirichlet(np.ones(5))
            padded = np.concatenate([p, np.zeros(3)])
            assert entropy(p) == entropy(padded)

    def test_base_conversion(self):
        p = [0.3, 0.7]
        bits = entropy(p)
        nats = entropy(p, LogConfig(base=math.e))
        assert nats == pytest.approx(bits * math.log(2.0), abs=1e-12)

    def test_grouping_identity(self):
        """H(p) = H(group totals) + sum_g w_g H(p restricted to group g)."""
        rng = np.random.default_rng(9)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            p = rng.dirichlet(np.ones(n))
            labels = rng.integers(0, 3, size=n)
            totals, parts = [], []
            for g in range(3):
                block = p[labels == g]
                w = block.sum()
                if w > 0:
                    totals.append(w)
                    parts.append(w * entropy(block / w))
            lhs = entropy(p)
            rhs = entropy(np.array(totals) / sum(totals)) + sum(parts)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    @settings(max_examples=200)
    @given(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=10))
    def test_bounds(self, weights):
        p = normalize(np.array(weights))
        h = entropy(p)
        assert -1e-12 <= h <= math.log2(len(weights)) + 1e-12


class TestJointForms:
    def test_check_joint(self):
        with pytest.raises(ValueError):
            check_joint([0.5, 0.5])
        with pytest.raises(ValueError):
            check_joint([[0.6, 0.5]])

    def test_joint_entropy_worked_value(self):
        # computed independently from the flattened definition
        joint = [[0.3, 0.2], [0.1, 0.4]]
        assert joint_entropy(joint) == pytest.approx(1.8464393446710154, abs=1e-14)

    def test_joint_entropy_equals_flat_entropy(self):
        rng = np.random.default_rng(10)
        cells = rng.dirichlet(np.ones(12)).reshape(3, 4)
        assert joint_entropy(cells) == entropy(cells.ravel())

    def test_conditional_entropy_worked_value(self):
        h = conditional_entropy([0.5, 0.5], [[0.9, 0.1], [0.5, 0.5]])
        assert h == pytest.approx(0.73449779679464067, abs=1e-14)

    def test_conditional_entropy_zero_weight_row_ignored(self):
        """Rows with p_i = 0 contribute nothing, whatever their entropy."""
        h = conditional_entropy([1.0, 0.0], [[0.9, 0.1], [0.5, 0.5]])
        assert h == pytest.approx(entropy([0.9, 0.1]), abs=0)

    def test_mutual_information_worked_value(self):
        # cross-checked against sum p(x,y) log2(p(x,y)/(p(x)p(y)))
        i = mutual_information([[0.3, 0.2], [0.1, 0.4]])
        assert i == pytest.approx(0.12451124978365313, abs=1e-12)

    def test_mutual_information_independent_is_zero(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            px = rng.dirichlet(np.ones(3))
            py = rng.dirichlet(np.ones(4))
            assert mutual_information(np.outer(px, py)) == pytest.approx(0.0, abs=1e-12)

    def test_subadditivity(self):
        """H(X,Y) never exceeds H(X) + H(Y)."""
        rng = np.random.default_rng(12)
        for _ in range(100):
            cells = rng.dirichlet(np.ones(12)).reshape(3, 4)
            hx = entropy(cells.sum(axis=1))
            hy = entropy(cells.sum(axis=0))
            assert joint_entropy(cells) <= hx + hy + 1e-12

    def test_chain_rule(self):
        """H(X) + H(Y|X) = H(X,Y) when the joint comes from (p, Q)."""
        rng = np.random.default_rng(13)
        p = rng.dirichlet(np.ones(3))
        q = rng.dirichlet(np.ones(4), size=3)
        joint = p[:, None] * q
        assert entropy(p) + conditional_entropy(p, q) == pytest.approx(
            joint_entropy(joint), abs=1e-12
        )


class TestOneValidityRule:
    @settings(max_examples=300)
    @given(near_boundary_tables())
    def test_channel_and_joint_apply_the_distribution_rule(self, cells):
        """check_channel is check_distribution on every row; check_joint is
        check_distribution on the flattened table.  Same verdict, same values."""
        rows = [_outcome(check_distribution, row) for row in cells]
        channel = _outcome(check_channel, cells)
        if any(r is None for r in rows):
            assert channel is None
        else:
            np.testing.assert_array_equal(channel, np.vstack(rows))
        flat = _outcome(check_distribution, cells.ravel())
        joint = _outcome(check_joint, cells)
        if flat is None:
            assert joint is None
        else:
            np.testing.assert_array_equal(joint, flat.reshape(cells.shape))


class TestLogConfig:
    def test_base_must_exceed_one(self):
        for bad in (1.0, 0.5, -2.0):
            with pytest.raises(ValueError):
                LogConfig(base=bad)

    def test_frozen(self):
        cfg = LogConfig()
        with pytest.raises(Exception):
            cfg.base = 3.0

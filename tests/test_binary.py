"""Closed-form binary channel: worked values, symmetries, feasibility bound."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chancap import (
    DegenerateChannelError,
    LogConfig,
    binary_aux,
    binary_capacity,
    binary_channel,
    binary_optimal_input,
    binary_optimal_output,
    capacity_bounds,
    channel_mutual_information,
    muroga_capacity,
    output_distribution,
)

H2_01 = -(0.1 * math.log2(0.1) + 0.9 * math.log2(0.9))


class TestBinaryAux:
    def test_noiseless(self):
        assert binary_aux(0.0, 1.0) == (0.0, 0.0)

    def test_z_channel(self):
        assert binary_aux(0.0, 0.5) == (0.0, -2.0)

    def test_symmetric_channel(self):
        x1, x2 = binary_aux(0.1, 0.9)
        assert x1 == pytest.approx(-H2_01, abs=1e-14)
        assert x2 == pytest.approx(-H2_01, abs=1e-14)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateChannelError):
            binary_aux(0.3, 0.3)
        with pytest.raises(DegenerateChannelError):
            binary_aux(0.3, 0.3 + 5e-13)

    def test_parameters_outside_unit_interval(self):
        with pytest.raises(ValueError):
            binary_aux(-0.2, 0.5)
        with pytest.raises(ValueError):
            binary_aux(0.2, 1.2)

    @pytest.mark.parametrize("fn", [binary_aux, binary_capacity, binary_optimal_input, binary_optimal_output])
    @pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
    def test_int_beyond_float_range(self, fn, sign):
        """An int too large for a float is outside [0, 1], not an OverflowError."""
        with pytest.raises(ValueError, match=r"a must lie in \[0, 1\]"):
            fn(sign * 10**400, 0.5)
        with pytest.raises(ValueError, match=r"c must lie in \[0, 1\]"):
            fn(0.5, sign * 10**400)

    @pytest.mark.parametrize("fn", [binary_aux, binary_capacity, binary_channel, binary_optimal_input])
    def test_a_and_c_are_real_numbers(self, fn):
        """A str, a bool or None is no probability, though float() reads the
        first two; a real number keeps its message, with its float value."""
        for bad in ("0.3", True, None):
            with pytest.raises(ValueError, match=f"a must be a real number, got {bad!r}"):
                fn(bad, 0.5)
            with pytest.raises(ValueError, match=f"c must be a real number, got {bad!r}"):
                fn(0.5, bad)
        with pytest.raises(ValueError, match=r"^a must lie in \[0, 1\], got 2\.0$"):
            fn(2, 0.5)
        with pytest.raises(ValueError, match=r"^c must lie in \[0, 1\], got nan$"):
            fn(0.5, np.float64("nan"))

    def test_agrees_with_a_60_digit_solve(self):
        # Reference: Q x = h solved by Cramer's rule in 60-digit arithmetic on
        # the float a and c.  Each x_j = C + log2 r_j is measured against the
        # terms it sums, C + |log2 r_j|, which bounds the error for every
        # channel, including those where x_j nears 0.  The closed form's C
        # and r each carry a few ulps, so the bound is 4e-15, about twice the
        # largest error seen over 66 000 such channels.
        mp = pytest.importorskip("mpmath")

        def xlog2x(v):
            return v * mp.log(v, 2) if v > 0 else mp.mpf(0)

        rng = np.random.default_rng(20)
        channels = [(0.3, 0.3 + 1e-9)]
        while len(channels) < 400:
            a = rng.random()
            c = a + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-11.0, 0.0)
            if 0.0 <= c <= 1.0:
                channels.append((float(a), float(c)))
        for a, c in channels:
            with mp.workdps(60):
                ma, mc = mp.mpf(a), mp.mpf(c)
                h1, h2 = xlog2x(1 - ma) + xlog2x(ma), xlog2x(1 - mc) + xlog2x(mc)
                ref = ((mc * h1 - ma * h2) / (mc - ma), ((1 - ma) * h2 - (1 - mc) * h1) / (mc - ma))
                cap = mp.log(2 ** ref[0] + 2 ** ref[1], 2)
                for x, x_ref in zip(binary_aux(a, c), ref):
                    assert abs(x - x_ref) <= 4e-15 * (cap + abs(x_ref - cap)), (a, c)


class TestBinaryCapacity:
    def test_degenerate_line_is_exactly_zero(self):
        for a in np.linspace(0.0, 1.0, 11):
            assert binary_capacity(float(a), float(a)) == 0.0

    def test_noiseless_is_one_bit(self):
        assert binary_capacity(0.0, 1.0) == 1.0
        assert binary_capacity(1.0, 0.0) == 1.0

    def test_z_channel(self):
        assert binary_capacity(0.0, 0.5) == pytest.approx(math.log2(1.25), abs=1e-12)

    def test_symmetric_channel(self):
        assert binary_capacity(0.1, 0.9) == pytest.approx(1.0 - H2_01, abs=1e-12)

    def test_row_swap_symmetry(self):
        rng = np.random.default_rng(51)
        for _ in range(300):
            a, c = rng.random(2)
            assert binary_capacity(a, c) == pytest.approx(binary_capacity(c, a), abs=1e-12)

    def test_column_swap_symmetry(self):
        rng = np.random.default_rng(52)
        for _ in range(300):
            a, c = rng.random(2)
            assert binary_capacity(a, c) == pytest.approx(
                binary_capacity(1.0 - a, 1.0 - c), abs=1e-12
            )

    def test_range_on_grid(self):
        """0 <= C <= 1 bit everywhere on the closed parameter square."""
        for a in np.linspace(0.0, 1.0, 201):
            for c in np.linspace(0.0, 1.0, 201):
                cap = binary_capacity(float(a), float(c))
                assert 0.0 <= cap <= 1.0 + 1e-12

    def test_agrees_with_square_solver(self):
        rng = np.random.default_rng(53)
        checked = 0
        while checked < 10000:
            a, c = rng.random(2)
            if abs(c - a) <= 1e-3:
                continue
            sol = muroga_capacity(binary_channel(a, c))
            assert abs(binary_capacity(a, c) - sol.capacity) <= 1e-10
            checked += 1

    def test_base_conversion(self):
        bits = binary_capacity(0.0, 0.5)
        nats = binary_capacity(0.0, 0.5, LogConfig(base=math.e))
        assert nats == pytest.approx(bits * math.log(2.0), abs=1e-14)

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_total_on_unit_square(self, a, c):
        cap = binary_capacity(a, c)
        assert 0.0 <= cap <= 1.0 + 1e-12


class TestBinaryOptimalInput:
    def test_noiseless(self):
        np.testing.assert_allclose(binary_optimal_input(0.0, 1.0), [0.5, 0.5], atol=1e-15)

    def test_z_channel(self):
        np.testing.assert_allclose(binary_optimal_input(0.0, 0.5), [0.6, 0.4], atol=1e-14)

    def test_symmetric_channel(self):
        np.testing.assert_allclose(binary_optimal_input(0.1, 0.9), [0.5, 0.5], atol=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(54)
        for _ in range(1000):
            a, c = rng.random(2)
            if abs(c - a) <= 1e-6:
                continue
            p = binary_optimal_input(a, c)
            assert abs(math.fsum(p) - 1.0) <= 1e-12

    def test_interior_feasibility_bound(self):
        """For 0 < a < c < 1 both weights stay inside [1/e, 1 - 1/e]."""
        rng = np.random.default_rng(55)
        lo = 1.0 / math.e - 1e-9
        hi = 1.0 - 1.0 / math.e + 1e-9
        for _ in range(2000):
            a, c = np.sort(rng.random(2))
            if not 0.0 < a < c < 1.0:
                continue
            p = binary_optimal_input(float(a), float(c))
            assert lo <= p[0] <= hi
            assert lo <= p[1] <= hi

    def test_boundary_weights_nonnegative(self):
        for a, c in [(0.0, 0.5), (0.0, 1.0), (0.5, 1.0), (0.0, 0.001), (0.999, 1.0)]:
            p = binary_optimal_input(a, c)
            assert p.min() >= -1e-12

    def test_degenerate_line(self):
        for a in (0.0, 0.3, 1.0):
            assert binary_optimal_input(a, a).tolist() == [0.5, 0.5]


class TestBinaryOptimalOutput:
    def test_z_channel(self):
        np.testing.assert_allclose(binary_optimal_output(0.0, 0.5), [0.8, 0.2], atol=1e-14)

    def test_symmetric_channel(self):
        np.testing.assert_allclose(binary_optimal_output(0.1, 0.9), [0.5, 0.5], atol=1e-12)

    def test_positive_and_normalized(self):
        rng = np.random.default_rng(56)
        for _ in range(1000):
            a, c = rng.random(2)
            if abs(c - a) <= 1e-6:
                continue
            r = binary_optimal_output(a, c)
            assert np.all(r > 0)
            assert abs(math.fsum(r) - 1.0) <= 1e-12

    def test_consistent_with_optimal_input(self):
        """r equals p pushed through the channel."""
        rng = np.random.default_rng(57)
        for _ in range(500):
            a, c = rng.random(2)
            if abs(c - a) <= 1e-3:
                continue
            p = binary_optimal_input(a, c)
            r = binary_optimal_output(a, c)
            np.testing.assert_allclose(
                r, output_distribution(np.clip(p, 0.0, 1.0), binary_channel(a, c)), atol=1e-10
            )

    def test_degenerate_line(self):
        for a in (0.0, 0.3, 1.0):
            assert binary_optimal_output(a, a).tolist() == [1.0 - a, a]


class TestConsistency:
    def test_capacity_is_mutual_information_at_optimum(self):
        rng = np.random.default_rng(58)
        for _ in range(500):
            a, c = rng.random(2)
            if abs(c - a) <= 1e-3:
                continue
            p = np.clip(binary_optimal_input(a, c), 0.0, 1.0)
            i = channel_mutual_information(p / p.sum(), binary_channel(a, c))
            assert binary_capacity(a, c) == pytest.approx(i, abs=1e-10)

    def test_capacity_is_maximal_over_sweep(self):
        """No swept input beats the closed-form capacity."""
        sweep = np.linspace(0.0, 1.0, 1001)
        for a, c in [(0.0, 0.5), (0.1, 0.9), (0.2, 0.25), (0.7, 0.1)]:
            cap = binary_capacity(a, c)
            q = binary_channel(a, c)
            for p1 in sweep:
                i = channel_mutual_information([float(p1), float(1.0 - p1)], q)
                assert cap >= i - 1e-9


@st.composite
def whole_square(draw):
    """(a, c) anywhere on the closed square, |c - a| log-uniform in [1e-15, 1] before clipping."""
    a = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    d = 10.0 ** draw(st.floats(-15.0, 0.0))
    c = min(max(a + d if draw(st.booleans()) else a - d, 0.0), 1.0)
    return (c, a) if draw(st.booleans()) else (a, c)


class TestWholeSquare:
    """One evaluation on the closed square: feasible, certified, no degenerate cut-off."""

    TOL = 1e-9

    @settings(max_examples=200, deadline=None)
    @given(whole_square())
    @example((5e-324, 1.0))
    @example((1.0, 2.2250738585e-313))
    @example((0.0, 1e-300))
    @example((1.0, 1.0 - 2.0**-53))
    @example((0.3, 0.3 + 1e-9))
    @example((0.0, 0.0))
    @example((0.0, 1.0))
    @example((1.0, 0.0))
    @example((1.0, 1.0))
    def test_feasible_and_certified(self, ac):
        a, c = ac
        p = binary_optimal_input(a, c)
        for dist in (p, binary_optimal_output(a, c)):
            assert dist.min() >= 0.0 and abs(math.fsum(dist) - 1.0) <= 1e-15, dist
        if 0.0 < a < 1.0 and 0.0 < c < 1.0:
            # The provable range, to a few ulps of rounding.
            assert 1.0 / math.e - 4e-16 <= p.min() <= p.max() <= 1.0 - 1.0 / math.e + 4e-16, p
        lower, upper = capacity_bounds(p, binary_channel(a, c))
        assert upper - lower <= self.TOL
        assert lower - self.TOL <= binary_capacity(a, c) <= upper + self.TOL

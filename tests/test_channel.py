"""Channel matrices, induced distributions, and the mutual-information gradient."""

import math

import numpy as np
import pytest

from chancap import (
    LogConfig,
    binary_channel,
    capacity_bounds,
    channel_mutual_information,
    check_channel,
    conditional_entropy,
    joint_distribution,
    mi_gradient,
    mutual_information,
    output_distribution,
    relabel_inputs,
    relabel_outputs,
)


class TestCheckChannel:
    def test_accepts_valid(self):
        q = check_channel([[0.5, 0.5], [0.2, 0.8]])
        assert q.shape == (2, 2)

    def test_rejects_bad_row_sum(self):
        with pytest.raises(ValueError):
            check_channel([[0.5, 0.6], [0.2, 0.8]])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_channel([[1.2, -0.2], [0.5, 0.5]])

    def test_clamps_tiny_negative(self):
        q = check_channel([[1.0 + 5e-16, -5e-16], [0.5, 0.5]])
        assert q[0, 1] == 0.0

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            check_channel([0.5, 0.5])

    def test_non_square_allowed(self):
        q = check_channel([[0.2, 0.3, 0.5]])
        assert q.shape == (1, 3)


class TestBinaryChannel:
    def test_layout(self):
        np.testing.assert_array_equal(binary_channel(0.0, 0.5), [[1.0, 0.0], [0.5, 0.5]])

    def test_rejects_outside_unit_interval(self):
        with pytest.raises(ValueError):
            binary_channel(-0.1, 0.5)
        with pytest.raises(ValueError):
            binary_channel(0.1, 1.5)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                binary_channel(bad, 0.5)
            with pytest.raises(ValueError):
                binary_channel(0.5, bad)


class TestInducedDistributions:
    def test_output_distribution(self):
        r = output_distribution([0.6, 0.4], binary_channel(0.0, 0.5))
        np.testing.assert_allclose(r, [0.8, 0.2], atol=1e-15)

    def test_joint_distribution_cells(self):
        j = joint_distribution([0.5, 0.5], [[0.9, 0.1], [0.5, 0.5]])
        np.testing.assert_allclose(j, [[0.45, 0.05], [0.25, 0.25]], atol=1e-15)

    def test_joint_marginals(self):
        rng = np.random.default_rng(21)
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(3), size=4)
        j = joint_distribution(p, q)
        np.testing.assert_allclose(j.sum(axis=1), p, atol=1e-15)
        np.testing.assert_allclose(j.sum(axis=0), output_distribution(p, q), atol=1e-15)

    @pytest.mark.parametrize(
        "fn",
        [
            output_distribution,
            joint_distribution,
            channel_mutual_information,
            mi_gradient,
            conditional_entropy,
            capacity_bounds,
        ],
        ids=lambda fn: fn.__name__,
    )
    def test_length_mismatch(self, fn):
        """Every (input, channel) function rejects an input of the wrong length."""
        with pytest.raises(ValueError, match="input length"):
            fn([0.5, 0.25, 0.25], binary_channel(0.0, 0.5))


class TestChannelMutualInformation:
    def test_bsc_uniform(self):
        """Uniform input through the symmetric channel gives 1 - H2(0.1)."""
        i = channel_mutual_information([0.5, 0.5], binary_channel(0.1, 0.9))
        h2 = -(0.1 * math.log2(0.1) + 0.9 * math.log2(0.9))
        assert i == pytest.approx(1.0 - h2, abs=1e-12)

    def test_z_channel_at_optimum(self):
        i = channel_mutual_information([0.6, 0.4], binary_channel(0.0, 0.5))
        assert i == pytest.approx(math.log2(1.25), abs=1e-12)

    def test_matches_joint_definition(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            n, m = rng.integers(2, 6, size=2)
            p = rng.dirichlet(np.ones(n))
            q = rng.dirichlet(np.ones(m), size=n)
            via_joint = mutual_information(joint_distribution(p, q))
            assert channel_mutual_information(p, q) == pytest.approx(via_joint, abs=1e-12)

    def test_useless_channel_gives_zero(self):
        i = channel_mutual_information([0.3, 0.7], [[0.5, 0.5], [0.5, 0.5]])
        assert abs(i) <= 1e-15

    def test_base_conversion(self):
        p = [0.25, 0.75]
        q = binary_channel(0.2, 0.7)
        bits = channel_mutual_information(p, q)
        nats = channel_mutual_information(p, q, LogConfig(base=math.e))
        assert nats == pytest.approx(bits * math.log(2.0), abs=1e-12)


def _fd_gradient(p, q, cfg=None, step=1e-5):
    """Central differences of I along the simplex directions e_k - e_n."""
    p = np.asarray(p, dtype=float)
    n = len(p)
    out = np.empty(n - 1)
    for k in range(n - 1):
        d = np.zeros(n)
        d[k], d[-1] = 1.0, -1.0
        hi = channel_mutual_information(p + step * d, q, cfg)
        lo = channel_mutual_information(p - step * d, q, cfg)
        out[k] = (hi - lo) / (2.0 * step)
    return out


class TestMiGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n, m = rng.integers(2, 6, size=2)
            p = 0.9 * rng.dirichlet(np.ones(n)) + 0.1 / n  # keep interior
            q = rng.dirichlet(np.ones(m), size=n)
            g = mi_gradient(p, q)
            fd = _fd_gradient(p, q)
            np.testing.assert_allclose(g[:-1] - g[-1], fd, atol=1e-6)

    def test_equal_components_at_optimum(self):
        """At the capacity-achieving interior input, all components equal C - 1/ln 2."""
        g = mi_gradient([0.6, 0.4], binary_channel(0.0, 0.5))
        expected = math.log2(1.25) - 1.0 / math.log(2.0)
        np.testing.assert_allclose(g, expected, atol=1e-12)

    def test_rejects_boundary_input(self):
        with pytest.raises(ValueError):
            mi_gradient([1.0, 0.0], binary_channel(0.0, 0.5))

    def test_base_e(self):
        g2 = mi_gradient([0.5, 0.5], binary_channel(0.1, 0.8))
        ge = mi_gradient([0.5, 0.5], binary_channel(0.1, 0.8), LogConfig(base=math.e))
        # simplex-tangent parts scale with ln 2; the -1/ln b offset does not
        np.testing.assert_allclose(
            (g2[0] - g2[1]) * math.log(2.0), ge[0] - ge[1], atol=1e-12
        )


class TestRelabeling:
    def test_input_relabeling(self):
        q = np.array([[0.2, 0.8], [0.7, 0.3], [0.5, 0.5]])
        p = np.array([0.2, 0.3, 0.5])
        perm = [2, 0, 1]
        p2, q2 = relabel_inputs(p, q, perm)
        i1 = channel_mutual_information(p, q)
        i2 = channel_mutual_information(p2, q2)
        assert i1 == pytest.approx(i2, abs=1e-15)

    def test_output_relabeling(self):
        q = np.array([[0.2, 0.3, 0.5], [0.6, 0.1, 0.3]])
        q2 = relabel_outputs(q, [1, 2, 0])
        p = [0.4, 0.6]
        assert channel_mutual_information(p, q) == pytest.approx(
            channel_mutual_information(p, q2), abs=1e-15
        )

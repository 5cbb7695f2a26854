"""Dense LU kernel: solve, inverse, determinant on small matrices."""

import numpy as np
import pytest

from chancap import SingularMatrixError, binary_channel, determinant, inverse, solve

# LAPACK factors this without error, but its reciprocal condition number is
# below RCOND_TOL, so solve and inverse must still call it singular.
ILL_CONDITIONED = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])


class TestSolve:
    def test_identity(self):
        v = np.array([3.0, -1.0, 2.0])
        np.testing.assert_array_equal(solve(np.eye(3), v), v)

    def test_z_channel_system(self):
        """The triangular system behind the Z-channel auxiliary vector."""
        x = solve(np.array([[1.0, 0.0], [0.5, 0.5]]), np.array([0.0, -1.0]))
        np.testing.assert_allclose(x, [0.0, -2.0], atol=1e-15)

    def test_random_round_trip(self):
        rng = np.random.default_rng(31)
        for n in (2, 3, 5, 8, 16):
            a = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
            x_true = rng.standard_normal(n)
            rhs = a @ x_true
            x = solve(a, rhs)
            resid = np.abs(a @ x - rhs).max()
            assert resid <= 1e-10 * max(1.0, np.abs(rhs).max())
            np.testing.assert_allclose(x, x_true, atol=1e-9)

    def test_pivoting_handles_zero_leading_entry(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(solve(a, np.array([2.0, 5.0])), [5.0, 2.0], atol=0)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            solve(np.array([[0.5, 0.5], [0.5, 0.5]]), np.array([1.0, 1.0]))
        with pytest.raises(SingularMatrixError):
            solve(ILL_CONDITIONED, np.array([1.0, 1.0]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            solve(np.eye(2), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            solve(np.ones((2, 3)), np.array([1.0, 2.0]))


class TestInverse:
    def test_identity(self):
        np.testing.assert_array_equal(inverse(np.eye(4)), np.eye(4))

    def test_z_channel_matrix(self):
        f = inverse(binary_channel(0.0, 0.5))
        np.testing.assert_allclose(f, [[1.0, 0.0], [-1.0, 2.0]], atol=1e-15)

    def test_random_inverse_residual(self):
        rng = np.random.default_rng(32)
        for n in (2, 4, 8, 16):
            a = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
            f = inverse(a)
            assert np.abs(a @ f - np.eye(n)).max() <= 1e-10

    def test_stochastic_inverse_row_sums_are_one(self):
        """Row sums of the inverse of a row-stochastic matrix are 1."""
        rng = np.random.default_rng(33)
        for n in (2, 3, 4, 6):
            q = rng.dirichlet(np.ones(n), size=n) + 0.5 * np.eye(n)
            q /= q.sum(axis=1, keepdims=True)
            f = inverse(q)
            np.testing.assert_allclose(f.sum(axis=1), 1.0, atol=1e-10)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            inverse(np.array([[1.0, 2.0], [2.0, 4.0]]))
        with pytest.raises(SingularMatrixError):
            inverse(np.zeros((3, 3)))
        with pytest.raises(SingularMatrixError):
            inverse(ILL_CONDITIONED)

    def test_solve_consistency(self):
        rng = np.random.default_rng(34)
        a = rng.standard_normal((5, 5)) + 2.0 * np.eye(5)
        rhs = rng.standard_normal(5)
        np.testing.assert_allclose(inverse(a) @ rhs, solve(a, rhs), atol=1e-9)


class TestDeterminant:
    def test_identity(self):
        for n in (1, 2, 5):
            assert determinant(np.eye(n)) == 1.0

    def test_binary_channel_det_is_c_minus_a(self):
        assert determinant(binary_channel(0.2, 0.7)) == pytest.approx(0.5, abs=1e-14)
        rng = np.random.default_rng(35)
        for _ in range(200):
            a, c = rng.random(2)
            assert determinant(binary_channel(a, c)) == pytest.approx(c - a, abs=1e-14)

    def test_duplicated_row_is_zero(self):
        m = np.array([[0.3, 0.7, 0.0], [0.3, 0.7, 0.0], [0.1, 0.2, 0.7]])
        assert determinant(m) == pytest.approx(0.0, abs=1e-14)

    def test_never_raises_on_singular(self):
        assert determinant(np.zeros((2, 2))) == 0.0
        assert determinant(ILL_CONDITIONED) == pytest.approx(1e-15, rel=0.2)

    def test_row_swap_flips_sign(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert determinant(a) == -1.0

    def test_matches_cofactor_3x3(self):
        rng = np.random.default_rng(36)
        m = rng.standard_normal((3, 3))
        cof = (
            m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
            - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
            + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
        )
        assert determinant(m) == pytest.approx(cof, rel=1e-12)


class TestValidation:
    def test_non_square_rejected(self):
        for fn in (inverse, determinant):
            with pytest.raises(ValueError):
                fn(np.ones((2, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            determinant(np.array([[1.0, np.inf], [0.0, 1.0]]))

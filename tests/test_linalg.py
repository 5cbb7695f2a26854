"""The public ``solve`` and ``inverse``: LAPACK plus the one singularity rule
that the explicit formula's entry points apply too."""

import numpy as np
import pytest

from chancap import (
    SingularChannelError,
    SingularMatrixError,
    binary_channel,
    inverse,
    muroga_capacity,
    optimal_input,
    solve,
    solve_auxiliary,
)

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


class TestValidation:
    def test_non_square_rejected(self):
        for fn in (inverse, lambda a: solve(a, np.ones(2))):
            with pytest.raises(ValueError, match="square"):
                fn(np.ones((2, 3)))
            with pytest.raises(ValueError, match="square"):
                fn(np.ones(2))

    def test_non_finite_rejected(self):
        for bad in (np.inf, -np.inf, np.nan):
            a = np.array([[1.0, bad], [0.0, 1.0]])
            for fn in (inverse, lambda a: solve(a, np.ones(2))):
                with pytest.raises(ValueError, match="non-finite"):
                    fn(a)


def test_one_singular_error_from_every_entry_point():
    """A channel LAPACK factors, but with rcond_1 far below 1e-12."""
    assert SingularMatrixError is SingularChannelError
    q = np.array([[1.0, 0.0], [1.0 - 1e-15, 1e-15]])
    r = np.array([0.5, 0.5])
    calls = (
        lambda: solve_auxiliary(q),
        lambda: optimal_input(q, r),
        lambda: muroga_capacity(q),
        lambda: solve(q, r),
        lambda: inverse(q),
    )
    for call in calls:
        with pytest.raises(SingularChannelError) as info:
            call()
        assert str(info.value) == "reciprocal condition number 5e-16 below 1e-12"


def test_inverse_that_is_not_finite():
    """A channel whose computed inverse holds NaN is singular, and the error
    says so rather than calling NaN a condition number below 1e-12."""
    q = np.array(
        [[0.5, 0.5, 0.0, 0.0], [0.0, 0.5, 0.5, 0.0], [0.25, 0.5, 0.25, 4e-309], [0.25, 0.25, 0.25, 0.25]]
    )
    with pytest.raises(SingularChannelError) as info:
        inverse(q)
    assert str(info.value) == "inverse is not finite"

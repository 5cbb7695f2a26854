"""Dense linear algebra for small square systems: solve, inverse and
determinant as a thin layer over ``numpy.linalg`` (LAPACK).

``solve`` and ``inverse`` share one singularity rule, stated on
:func:`_solve_with_inverse`; ``determinant`` never raises on singular input.
"""

import numpy as np

#: A reciprocal 1-norm condition number not >= RCOND_TOL means singular.
RCOND_TOL = 1e-12


class SingularMatrixError(ValueError):
    """The matrix is singular or too ill-conditioned to trust a solve."""


def _check_square(a):
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix contains non-finite entries")
    return arr


def _solve_with_inverse(a, rhs):
    """Solve ``a @ x = rhs`` and invert ``a`` from one LAPACK factorization.

    ``a`` is a checked square float matrix and ``rhs`` a float vector of its
    order.  Returns ``(x, F)`` with ``F = a^{-1}``.  ``a`` is singular, and
    SingularMatrixError is raised, when LAPACK raises ``LinAlgError`` or when
    ``rcond = 1 / (||a||_1 * ||F||_1)`` is not >= ``RCOND_TOL``; the "not >="
    also rejects a NaN or overflowed ``F``.
    """
    n = a.shape[0]
    try:
        sol = np.linalg.solve(a, np.column_stack([rhs, np.eye(n)]))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from exc
    f = sol[:, 1:]
    with np.errstate(over="ignore"):
        rcond = 1.0 / (np.linalg.norm(a, 1) * np.linalg.norm(f, 1))
    if not rcond >= RCOND_TOL:
        raise SingularMatrixError(f"reciprocal condition number {rcond:g} below {RCOND_TOL:g}")
    return sol[:, 0], f


def solve(a, rhs):
    """Solve ``a @ x = rhs`` for a square matrix."""
    a = _check_square(a)
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (a.shape[0],):
        raise ValueError(f"rhs shape {rhs.shape} does not match matrix of order {a.shape[0]}")
    return _solve_with_inverse(a, rhs)[0]


def inverse(a):
    """Inverse of a square matrix; raises SingularMatrixError if singular."""
    a = _check_square(a)
    return _solve_with_inverse(a, np.zeros(a.shape[0]))[1]


def determinant(a):
    """Determinant of a square matrix; never raises on singular input."""
    return float(np.linalg.det(_check_square(a)))

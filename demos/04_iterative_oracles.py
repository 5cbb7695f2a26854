"""
Iterative capacity oracles and certified error bounds
=====================================================

Two slow-but-sure ways to compute capacity, used here to cross-check the
closed forms.  Blahut-Arimoto alternates between the input distribution and
the induced output, and at every step yields a bracket

    lower <= C <= upper

that shrinks to the answer; the result carries both ends (``capacity`` and
``upper``).  On a binary channel its first try is the paper's closed form
itself, so there its bracket is the closed form's certificate, not a second
opinion.  The independent cross-check is a grid search over the single free
parameter of a two-input channel: it returns the best of all its grid
points, found by narrowing in on the maximum of the concave mutual
information.
"""

import numpy as np

from chancap import (
    OracleConfig,
    binary_capacity,
    binary_channel,
    blahut_arimoto,
    grid_search_binary,
    muroga_capacity,
)

# Watch the bracket close on a 3x3 channel whose explicit solution lies
# outside the simplex (its optimal input leaves the middle symbol unused).
# Each sweep updates the input distribution; the bound pair comes for free
# from the same quantities, and the result keeps the last one.  At sweep 4
# the iterate hands its likely support to Muroga's system, whose certified
# answer closes the bracket.
q3_infeasible = np.array(
    [
        [0.8, 0.1, 0.1],
        [0.5, 0.25, 0.25],
        [0.1, 0.1, 0.8],
    ]
)
print("infeasible 3x3 bracket per iteration:")
for k in range(1, 6):
    res = blahut_arimoto(q3_infeasible, oracle=OracleConfig(max_iterations=k))
    lower, upper = res.capacity, res.upper
    print(f"  iter {k}:  lower={lower:.12f}  upper={upper:.12f}  gap={upper - lower:.3e}")

# On a binary channel the closed form is tried first, and its certificate
# settles the Z-channel at once.
q = binary_channel(0.0, 0.5)
res = blahut_arimoto(q)
print()
print("Z-channel         :", res.capacity, f"(settled at sweep {res.iterations} by the closed-form try)")
print("closed form       :", binary_capacity(0.0, 0.5))
print("certified upper   :", res.upper)

# Run to a tight tolerance and compare with the grid, the one method here
# that does not go through the closed form.
res = blahut_arimoto(q, oracle=OracleConfig(tolerance=1e-12))
grid = grid_search_binary(q, oracle=OracleConfig(grid_resolution=10**6))
print("blahut-arimoto    :", res.capacity, f"({res.iterations} iters)")
print("grid search       :", grid.capacity, f"(best p1 = {grid.p1})")

# The same cross-check across random binary channels, on a coarser grid of
# 10**5 points; its error is O(spacing**2).
rng = np.random.default_rng(3)
worst = 0.0
for _ in range(200):
    a, c = np.sort(rng.uniform(0.0, 1.0, 2))
    if c - a < 1e-3:
        continue
    closed = binary_capacity(a, c)
    gridded = grid_search_binary(binary_channel(a, c), oracle=OracleConfig(grid_resolution=10**5)).capacity
    worst = max(worst, closed - gridded)
print()
print("worst closed - grid over 200 random binary channels:", worst)

# Blahut-Arimoto is not limited to square matrices.  A 3-input, 2-output
# channel where one input is a useless blend of the other two:
q_wide = np.array(
    [
        [0.9, 0.1],
        [0.5, 0.5],
        [0.1, 0.9],
    ]
)
res = blahut_arimoto(q_wide)
print()
print("3x2 channel capacity:", res.capacity)
print("optimal input       :", res.input_dist, " (middle input starved)")

# And for square invertible channels it agrees with the explicit formula.
q3 = np.array(
    [
        [0.7, 0.2, 0.1],
        [0.1, 0.8, 0.1],
        [0.05, 0.15, 0.8],
    ]
)
print()
print("explicit formula:", muroga_capacity(q3).capacity)
print("blahut-arimoto  :", blahut_arimoto(q3, oracle=OracleConfig(tolerance=1e-12)).capacity)

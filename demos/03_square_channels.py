"""
Explicit capacity for square invertible channels
================================================

When the transition matrix Q is square and invertible the capacity drops out
of one linear solve.  Solve Q x = h for the auxiliary vector x (h collects
the row entropies), then

    C    = log2( sum_j 2**x_j )
    r_j  = 2**(x_j - C)          best output distribution
    p    = (Q^-1)^T r            candidate best input

The construction always yields a valid output distribution r, but p can go
negative.  When it does, the closed form overshoots the true capacity and an
iterative method must take over.
"""

import numpy as np

from chancap import (
    OracleConfig,
    blahut_arimoto,
    capacity_from_aux,
    channel_mutual_information,
    feasible_input,
    muroga_capacity,
    optimal_input,
    optimal_output,
    solve_auxiliary,
)

np.set_printoptions(precision=8, suppress=True)

# A noisy 3-symbol channel, step by step.
q = np.array(
    [
        [0.7, 0.2, 0.1],
        [0.1, 0.8, 0.1],
        [0.05, 0.15, 0.8],
    ]
)
x = solve_auxiliary(q)
cap = capacity_from_aux(x)
r = optimal_output(x, cap)
p = optimal_input(q, r)
print("aux vector x :", x)
print("capacity     :", cap)
print("output r     :", r, " sum =", r.sum())
print("input p      :", p, " sum =", p.sum())

# The one-call wrapper runs the same two LU solves and flags feasibility.
# Its x and C are the x and C above, and pulling its own r back gives its
# p byte for byte; r agrees with the steps above only to rounding, since
# the wrapper normalizes r by its sum rather than by b**C.
sol = muroga_capacity(q)
assert np.array_equal(sol.aux, x)
assert cap == sol.capacity
assert np.array_equal(optimal_input(q, sol.opt_output), sol.opt_input_raw)
print("feasible     :", sol.feasible)
print("I(p*; Q)     :", channel_mutual_information(sol.opt_input_raw, q))

# Sanity check against nearby inputs: nothing beats p*.
rng = np.random.default_rng(11)
worst = max(
    channel_mutual_information(d / d.sum(), q)
    for d in rng.dirichlet(np.ones(3), size=500)
)
print("best of 500 random inputs:", worst, "<=", sol.capacity)

# The identity channel is the easy special case: capacity log2(n) at the
# uniform input.
for n in (2, 4, 8):
    print(f"identity {n}x{n}: C = {muroga_capacity(np.eye(n)).capacity}  (log2 = {np.log2(n)})")

# Now a channel where the formula breaks down.  The middle row is an even
# blend of noise, and the resulting p has a negative component.
q_bad = np.array(
    [
        [0.8, 0.1, 0.1],
        [0.5, 0.25, 0.25],
        [0.1, 0.1, 0.8],
    ]
)
sol_bad = muroga_capacity(q_bad)
print()
print("infeasible example")
print("raw p        :", sol_bad.opt_input_raw)
print("feasible     :", sol_bad.feasible)
print("raw capacity :", sol_bad.capacity, " (an overestimate)")

# feasible_input clamps and renormalizes, giving a usable starting point but
# not the optimum.  The iterative oracle finds the true value, strictly
# below the raw closed-form number.
print("clamped p    :", feasible_input(sol_bad.opt_input_raw))
ba = blahut_arimoto(q_bad, oracle=OracleConfig(tolerance=1e-12))
print("true capacity:", ba.capacity, f" ({ba.iterations} iterations)")
print("true input   :", ba.input_dist)

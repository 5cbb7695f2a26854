"""
Binary channel capacity in closed form
======================================

A binary channel is fixed by two crossover numbers: a = P(output 1 | input 0)
and c = P(output 1 | input 1).  Its capacity has an explicit finite formula,
no iteration needed.  This script evaluates it at the classic named channels
and sweeps the whole parameter square.
"""

import numpy as np

from chancap import (
    binary_aux,
    binary_capacity,
    binary_channel,
    binary_optimal_input,
    binary_optimal_output,
    channel_mutual_information,
)

# The Z-channel: input 0 is transmitted perfectly, input 1 flips half the
# time.  Capacity is log2(5/4), attained at an asymmetric input (0.6, 0.4).
a, c = 0.0, 0.5
print("Z-channel matrix:")
print(binary_channel(a, c))
print("aux vector   :", binary_aux(a, c))
print("capacity     :", binary_capacity(a, c), " (log2 5/4 =", np.log2(1.25), ")")
print("best input   :", binary_optimal_input(a, c))
print("best output  :", binary_optimal_output(a, c))

# The closed form really is the maximum: mutual information at the reported
# input beats a fine sweep of alternatives.
q = binary_channel(a, c)
p_star = np.asarray(binary_optimal_input(a, c))
best_swept = max(
    channel_mutual_information([t, 1.0 - t], q) for t in np.linspace(0.0, 1.0, 2001)
)
print("I at p*      :", channel_mutual_information(p_star, q))
print("best of sweep:", best_swept)

# Binary symmetric channel with flip probability 0.1: the familiar
# 1 - H2(0.1), attained at the uniform input.
a, c = 0.1, 0.9
h2 = -(0.1 * np.log2(0.1) + 0.9 * np.log2(0.9))
print()
print("BSC(0.1) capacity:", binary_capacity(a, c), " (1 - H2 =", 1.0 - h2, ")")
print("BSC(0.1) input   :", binary_optimal_input(a, c))

# When both rows agree (a == c) the output ignores the input and the
# capacity is exactly zero.  Close to that line the formula stays exact: the
# best input tends to (1/2, 1/2) and the capacity to zero like (c - a)^2.
print()
print("degenerate a=c=0.3:", binary_capacity(0.3, 0.3))
a, c = 0.3, 0.3 + 1e-9
print("a=0.3, c=0.3+1e-9 capacity:", binary_capacity(a, c))
print("a=0.3, c=0.3+1e-9 input   :", binary_optimal_input(a, c).tolist())

# Sweep the unit square.  Capacity vanishes on the diagonal a == c and
# peaks at 1 bit in the noiseless corners.
print()
print("capacity over the (a, c) square:")
grid = np.linspace(0.0, 1.0, 6)
header = "  a\\c " + "".join(f"{cc:7.1f}" for cc in grid)
print(header)
for aa in grid:
    row = "".join(f"{binary_capacity(aa, cc):7.3f}" for cc in grid)
    print(f"{aa:5.1f} {row}")

# A curious consequence of the formula: for strictly noisy channels
# (0 < a < c < 1) the optimal input weight always lies in [1/e, 1 - 1/e].
rng = np.random.default_rng(7)
lo, hi = 1.0, 0.0
for _ in range(2000):
    aa, cc = np.sort(rng.uniform(0.0, 1.0, 2))
    p1, _ = binary_optimal_input(aa, cc)
    lo, hi = min(lo, p1), max(hi, p1)
print()
print(f"optimal p1 range over 2000 random channels: [{lo:.6f}, {hi:.6f}]")
print(f"1/e, 1 - 1/e                              : [{1/np.e:.6f}, {1 - 1/np.e:.6f}]")

"""
Martingales and their increments
================================

A martingale here is the full sequence of conditional expectations of a
final leaf function, one value per atom per level.  Its increments are
orthogonal in L2, which is the engine behind every exact identity in
this package.
"""

import numpy as np

from bmolab import (
    RandomVariable,
    build_dyadic,
    conditional_expectation,
    differences,
    martingale_from_final,
)

tree = build_dyadic(2)
X = RandomVariable(tree, [2.0, 0.0, -1.0, -1.0])

# conditional expectations average the leaf values over each atom
print("E[X | level 0]:", conditional_expectation(X, 0))
print("E[X | level 1]:", conditional_expectation(X, 1))

# the martingale stacks those averages level by level and validates the
# defining property on construction
f = martingale_from_final(X)
for n in range(f.depth + 1):
    print(f"f_{n} =", f.level(n))

# increments d_k = f_k - f_(k-1), with d_0 the starting value itself: an
# adapted process, since d_k lives on the level-k atoms
d = differences(f)
for k in range(d.depth + 1):
    print(f"d_{k} =", d.level(k))

# distinct increments are orthogonal: the cross terms vanish, so the
# squared L2 norm of the final value splits into a sum over levels
w = tree.leaf_masses
total = float(np.sum(f.leaf_view(2) ** 2 * w))
parts = [float(np.sum(d.leaf_view(k) ** 2 * w)) for k in range(d.depth + 1)]
print("\n||f_2||^2 =", total)
print("sum of ||d_k||^2 =", sum(parts), "=", parts)

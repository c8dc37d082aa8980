"""
Operators on martingales
========================

Four workhorses: the predictable transform, the coordinate lift into a
vector space with one axis per level, the square function, and the
running maximal function.
"""

import numpy as np

from bmolab import (
    PredictableSequence,
    RandomVariable,
    bmo_alpha_norm,
    build_dyadic,
    l2_lift,
    martingale_from_final,
    maximal,
    process_bmo_alpha_norm,
    running_maximal,
    square_function,
    transform,
)

tree = build_dyadic(2)
f = martingale_from_final(RandomVariable(tree, [2.0, 0.0, -1.0, -1.0]))
alpha = 0.25
nf = bmo_alpha_norm(f, alpha).value
print("||f|| =", nf)

# the transform multiplies increment k by a coefficient fixed one level
# earlier; its norm is bounded by the largest coefficient modulus, with
# equality when all moduli agree
v = PredictableSequence(tree, [[1.0], [-1.0], [1.0, 1.0]])
tf = transform(f, v)
print("sign-flipped transform norm:", bmo_alpha_norm(tf, alpha).value)

half = PredictableSequence(tree, [[0.5], [0.5], [0.5, 0.5]])
print("half-scale transform norm :", bmo_alpha_norm(transform(f, half), alpha).value)

# the lift sends f to a vector martingale carrying increment k in
# coordinate k; nothing cancels across coordinates, yet the norm is
# exactly preserved
U = l2_lift(f)
print("\nlift dimension:", U.dim)
print("lift norm:", bmo_alpha_norm(U, alpha).value)

# the modulus of the lift is the square function, whose oscillation
# norm never exceeds the martingale's (constant exactly 1)
S = square_function(f)
print("\nS levels:", [[round(float(x), 6) for x in S.level(n)] for n in range(3)])
print("lift modulus == S:", all(
    np.allclose(U.modulus_level(n), S.level(n)) for n in range(3)
))
print("||S|| =", process_bmo_alpha_norm(S, alpha), "<= ||f|| =", nf)

# the running maximal dominates the path and is monotone; its final
# value is the maximal function
M = running_maximal(f)
print("\nM levels:", [[float(x) for x in M.level(n)] for n in range(3)])
print("maximal values:", maximal(f).values)

"""
Level measures, tents, and the characterization identity
========================================================

A measure here assigns density to every (level, leaf) cell.  A stop
rule carves out the tent below its stop atoms, and the measure norm is
the largest tent mass relative to the stopped probability raised to
1 + 2 alpha.

Built from a martingale's squared increments, that norm is exactly the
square of the martingale's oscillation norm; increment orthogonality
makes the identity exact, not approximate.
"""

import numpy as np

from bmolab import (
    StoppingTime,
    bmo_alpha_norm,
    build_random,
    carleson_alpha_norm,
    from_martingale,
    random_martingale,
    random_measure,
)

tree = build_random(seed=12, depth=3, max_branch=3)
f = random_martingale(tree, seed=1)
mu = from_martingale(f)

# the tent below "stop on the first level-1 atom"
tau = StoppingTime(tree, [(1, 0)])
print("tent mass:", mu.tent_mass(tau))
print("stopped probability:", tau.prob_finite)

# fast path scans single nodes; the brute force enumerates every stop
# rule on this (small) tree and agrees
alpha = 0.4
fast = carleson_alpha_norm(mu, alpha, "node-fast")
brute = carleson_alpha_norm(mu, alpha, "stopping-bruteforce")
print(f"\nnode-fast           {fast.value!r} at {fast.witness['stops']}")
print(f"stopping-bruteforce {brute.value!r} at {brute.witness['stops']}")

# the characterization: sqrt of the measure norm equals the oscillation
# norm of the martingale the measure came from
for a in (0.0, 0.25, 0.5, 0.9):
    lhs = float(np.sqrt(carleson_alpha_norm(mu, a).value))
    rhs = bmo_alpha_norm(f, a).value
    print(f"alpha={a}:  sqrt(measure norm) = {lhs:.15f}  oscillation = {rhs:.15f}")

# an unrelated random measure has no reason to match anything, but its
# two modes still agree
other = random_measure(tree, seed=9)
print(
    "\nrandom measure, fast vs brute:",
    carleson_alpha_norm(other, alpha).value,
    carleson_alpha_norm(other, alpha, "stopping-bruteforce").value,
)

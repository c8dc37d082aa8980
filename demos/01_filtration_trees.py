"""
Filtration trees
================

A finite filtered probability space is a rooted tree of atoms: level n
holds the atoms of the n-th sigma-field, children partition their
parent's mass, and every leaf sits at the final level.
"""

import json

import numpy as np

from bmolab import AtomRef, FiltrationTree, build_dyadic, build_random

# the uniform binary space with three splits
tree = build_dyadic(3)
print("depth:", tree.depth)
print("leaves:", tree.num_leaves)
print("atoms per level:", [tree.atom_count(n) for n in range(tree.depth + 1)])
print("level-2 masses:", tree.masses(2))

# atoms are addressed as (level, index); per-level index arrays answer
# containment and ancestry: each leaf's level-n atom, each atom's parent
leaf = AtomRef(3, 5)
print("ancestor of leaf 5 at level 1:", AtomRef(1, int(tree.leaf_ancestors(1)[leaf.index])))
print("children of the root:", [AtomRef(1, int(i)) for i in np.flatnonzero(tree.parents(1) == 0)])

# a random tree is a pure function of (seed, depth, max_branch):
# rebuilding with the same arguments gives the identical object
rnd = build_random(seed=7, depth=3, max_branch=3)
print("\nrandom tree leaves:", rnd.num_leaves)
print("rebuild matches:", rnd == build_random(7, 3, 3))

# masses at every level sum to one exactly at the root and to within
# 1e-12 further down; the arrays are frozen
print("level sums:", [float(np.sum(rnd.masses(n))) for n in range(rnd.depth + 1)])

# trees serialize to a stable JSON document ("tree/v1") and round trip
# bit for bit
doc = rnd.to_json()
again = FiltrationTree.from_dict(json.loads(doc))
print("round trip bit-exact:", again.to_json() == doc)

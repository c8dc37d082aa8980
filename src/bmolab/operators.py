"""The operators acting on martingales: transform by a predictable
multiplier, the coordinate lift whose modulus is the square function, the
square function itself, and the running maximal function.

The lift deserves a word.  Sending the k-th increment of a scalar
martingale to the k-th coordinate vector times that increment produces a
vector martingale whose level-n modulus is exactly the truncated square
function S_n.  Increments land in orthogonal coordinates, so the lift
preserves the oscillation norm exactly, and the reverse triangle
inequality |S_N - S_{n-1}| <= |Uf_N - Uf_{n-1}| (moduli of lift values)
is what carries the norm bound for S with constant 1.
"""

from __future__ import annotations

import numpy as np

from .filtration import FiltrationTree
from .process import (
    AdaptedProcess,
    Martingale,
    PredictableSequence,
    RandomVariable,
    _modulus,
    _per_row,
    differences,
)

__all__ = [
    "transform",
    "l2_lift",
    "square_function",
    "running_maximal",
    "maximal",
]


def transform(f: Martingale, v: PredictableSequence) -> Martingale:
    """Sum of v_k times the k-th increment, accumulated level by level.

    Predictability means each multiplier is constant where the increment
    it scales averages to zero, so the result is again a martingale (the
    constructor re-checks that).
    """
    if f.tree != v.tree:
        raise ValueError("martingale and multiplier sequence live on different trees")
    return Martingale(f.tree, _transform_levels(f, v))


def _transform_levels(f: Martingale, v: PredictableSequence):
    """The transform's levels, yielded one at a time as `_lift_levels`
    yields the lift's, each made in place from the increment (as in
    `differences`).  An increment that overflows leaves its level
    non-finite, which the constructor refuses."""
    tree = f.tree
    level = _per_row(v.values_on_level(0), f.level(0)) * f.level(0)
    yield level
    for k in range(1, tree.depth + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            step = f.level(k) - f.level(k - 1)[tree.parents(k)]
            step *= _per_row(v.values_on_level(k), step)
            step += level[tree.parents(k)]
        level = step
        yield level


def l2_lift(f: Martingale) -> Martingale:
    """Scalar martingale to a (depth+1)-dimensional one, increment k in
    coordinate k; the modulus of the level-n value is S_n(f)."""
    if f.dim != 1:
        raise ValueError("the lift takes a scalar martingale")
    return Martingale(f.tree, _lift_levels(f.tree, differences(f)))


def _lift_levels(tree: FiltrationTree, d: AdaptedProcess):
    """The lift's levels, yielded one at a time, so that the constructor
    freezes each while at most two of them are alive here."""
    level = np.zeros((1, tree.depth + 1))
    level[:, 0] = d.level(0)
    yield level
    for n in range(1, tree.depth + 1):
        level = level[tree.parents(n)]  # a copy: fancy indexing
        level[:, n] = d.level(n)
        yield level


def square_function(f: Martingale) -> AdaptedProcess:
    """S_n(f) = sqrt(sum over k <= n of |d_k f|^2), an adapted process.

    Nondecreasing in n pointwise; the final slice has the same L^2 norm
    as the final value of f.
    """
    tree = f.tree
    d = differences(f)
    sq = d.modulus_level(0) ** 2
    levels = [np.sqrt(sq)]
    for n in range(1, tree.depth + 1):
        sq = sq[tree.parents(n)] + d.modulus_level(n) ** 2
        levels.append(np.sqrt(sq))
    return AdaptedProcess(tree, levels)


def running_maximal(g: AdaptedProcess) -> AdaptedProcess:
    """M_n = max over k <= n of |g_k|, as a scalar adapted process."""
    return AdaptedProcess(g.tree, _running_max(g.tree, map(_modulus, g.levels)))


def _running_max(tree: FiltrationTree, mods) -> list[np.ndarray]:
    """Running maxima of per-level moduli, levels ascending, atoms on the
    last axis; any leading axes hold independent processes."""
    levels = []
    for n, mod in enumerate(mods):
        levels.append(mod if n == 0 else np.maximum(levels[-1][..., tree.parents(n)], mod))
    return levels


def maximal(g: AdaptedProcess) -> RandomVariable:
    """The maximal function sup over n of |g_n|, as a leaf variable."""
    return running_maximal(g).final_value()

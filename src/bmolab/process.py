"""Random variables, adapted processes, and martingales on a filtration tree.

Values may be scalar or vectors in R^d (``dim`` = d); every formula that
takes a modulus uses the Euclidean norm, so the vector case needs no
special handling downstream.  A random variable assigns one value per
leaf; an adapted process assigns one value per atom of each level, which
makes adaptedness structural rather than something to check.

All integrals against P are exact finite sums of value times atom mass;
there is no quadrature anywhere in the package.
"""

from __future__ import annotations

import numpy as np

from .errors import _INT64_MAX, _int_arg
from .filtration import FiltrationTree, TreeDocument

__all__ = [
    "RandomVariable",
    "AdaptedProcess",
    "Martingale",
    "PredictableSequence",
    "conditional_expectation",
    "martingale_from_final",
    "differences",
    "random_martingale",
    "random_adapted_process",
    "MARTINGALE_TOL",
]

MARTINGALE_TOL = 1e-10


def _freeze(values: object) -> np.ndarray:
    try:
        a = np.array(values, dtype=float)
    except OverflowError:
        raise ValueError("values must be finite, got an integer too large for a float") from None
    a.flags.writeable = False
    return a


def _width(values: np.ndarray) -> int:
    """The width of each value: 1 for a scalar array, else its vector length."""
    return 1 if values.ndim == 1 else values.shape[1]


def _per_row(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``w``, one entry per row of ``x``, shaped to scale those rows."""
    return w if x.ndim == 1 else w[:, None]


def _modulus(values: np.ndarray) -> np.ndarray:
    """Pointwise Euclidean norm; identity shape for scalar arrays."""
    if values.ndim == 1:
        return np.abs(values)
    with np.errstate(over="ignore"):
        mod = np.sqrt(np.sum(values * values, axis=-1))
    big = np.isinf(mod)
    if big.any():
        # a square overflowed: redo those rows scaled by their largest
        # component, unless the row holds an inf component itself
        big[big] = np.isfinite(values[big]).all(axis=-1)
        rows = np.abs(values[big])
        scale = np.max(rows, axis=-1, keepdims=True)
        mod[big] = scale[:, 0] * np.sqrt(np.sum((rows / scale) ** 2, axis=-1))
    return mod


def _leaf_moduli(g: AdaptedProcess) -> np.ndarray:
    """The modulus of every level of ``g``, one per atom, spread onto the
    leaves: one row per level, filled a level at a time."""
    tree = g.tree
    mods = np.empty((g.depth + 1, tree.num_leaves))
    for n, level in enumerate(g.levels):
        mods[n] = tree.spread_to_leaves(_modulus(level), n)
    return mods


class RandomVariable(TreeDocument):
    """Function on the leaf atoms, scalar or R^d-valued."""

    SCHEMA = "rv/v1"
    FIELD = "leaves"

    def __init__(self, tree: FiltrationTree, values):
        values = _freeze(values)
        if values.ndim not in (1, 2):
            raise ValueError(f"values must be 1-D or 2-D, got shape {values.shape}")
        if values.ndim == 2 and values.shape[1] == 0:
            raise ValueError("vector values must have at least one component")
        if values.shape[0] != tree.num_leaves:
            raise ValueError(
                f"expected {tree.num_leaves} leaf values, got {values.shape[0]}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        self.tree = tree
        self.values = values
        self.dim = _width(values)

    def _payload(self) -> dict:
        return {"dim": self.dim, "leaves": self.values.tolist()}

    def __repr__(self) -> str:
        return f"RandomVariable(dim={self.dim}, leaves={self.values.shape[0]})"


class AdaptedProcess(TreeDocument):
    """Level-indexed values, one per atom of the corresponding sigma-field.

    ``level(n)`` has shape ``(atoms at n,)`` for scalar processes and
    ``(atoms at n, dim)`` otherwise.  ``leaf_view(n)`` spreads those values
    onto the leaves, which is the form every norm computation consumes.
    """

    SCHEMA = "process/v1"
    FIELD = "levels"

    def __init__(self, tree: FiltrationTree, levels):
        # A sequence is refused for its length before any level is read;
        # any other iterable is counted as its levels are read, one at a
        # time, so a caller can yield levels that are never all alive.
        count = tree.depth + 1
        if hasattr(levels, "__len__") and len(levels) != count:
            raise ValueError(f"expected {count} levels, got {len(levels)}")
        frozen = []
        for n, lvl in enumerate(levels):
            if n == count:
                raise ValueError(f"expected {count} levels, got more")
            a = _freeze(lvl)
            if a.ndim not in (1, 2):
                raise ValueError(f"level {n} must be 1-D or 2-D, got shape {a.shape}")
            if a.ndim == 2 and a.shape[1] == 0:
                raise ValueError(f"level {n}: vector values must have at least one component")
            if a.shape[0] != tree.atom_count(n):
                raise ValueError(
                    f"level {n}: expected {tree.atom_count(n)} values, got {a.shape[0]}"
                )
            if frozen and a.shape[1:] != frozen[0].shape[1:]:
                raise ValueError(f"level {n} has dim {_width(a)}, expected {_width(frozen[0])}")
            if not np.isfinite(a).all():
                raise ValueError(f"level {n} has non-finite values")
            frozen.append(a)
        if len(frozen) != count:
            raise ValueError(f"expected {count} levels, got {len(frozen)}")
        self.tree = tree
        self.levels = tuple(frozen)
        self.dim = _width(frozen[0])

    @property
    def depth(self) -> int:
        return self.tree.depth

    def level(self, n: int) -> np.ndarray:
        return self.levels[n]

    def leaf_view(self, n: int) -> np.ndarray:
        return self.tree.spread_to_leaves(self.levels[n], n)

    def final_value(self) -> RandomVariable:
        return RandomVariable(self.tree, self.levels[self.tree.depth])

    def modulus_level(self, n: int) -> np.ndarray:
        return _modulus(self.levels[n])

    def _payload(self) -> dict:
        return {"dim": self.dim, "levels": [lvl.tolist() for lvl in self.levels]}

    def __repr__(self) -> str:
        return f"{type(self).__name__}(depth={self.depth}, dim={self.dim})"


class Martingale(AdaptedProcess):
    """Adapted process whose level-n values average its level-(n+1) values.

    The defining property is checked at construction: for every internal
    atom, value * mass must equal the mass-weighted sum over its children,
    componentwise, within ``MARTINGALE_TOL`` times the scale of that sum,
    the sum of the children's |value| * mass floored at 1.  Below scale 1
    the check is absolute; above it, relative, so a valid martingale
    stays valid when scaled up.
    """

    def __init__(self, tree: FiltrationTree, levels):
        super().__init__(tree, levels)
        for n in range(tree.depth):
            child, parent = self.levels[n + 1], self.levels[n]
            weighted = child * _per_row(tree.masses(n + 1), child)
            gap = tree.child_sums(weighted, n)  # made the gap in place
            gap -= parent * _per_row(tree.masses(n), parent)
            np.abs(gap, out=gap)
            err = float(gap.max()) if gap.size else 0.0
            if err > MARTINGALE_TOL:
                # a scale of at most 1 leaves the error as it is, so only
                # an error past the bound needs the scale
                err = float(np.max(gap / np.maximum(tree.child_sums(np.abs(weighted), n), 1.0)))
            if err > MARTINGALE_TOL:
                raise ValueError(
                    f"martingale property fails between levels {n} and {n + 1} "
                    f"(max error {err:.3e})"
                )


def conditional_expectation(X: RandomVariable, n: int) -> np.ndarray:
    """Average of ``X`` over each level-``n`` atom (one value per atom)."""
    tree = X.tree
    sums = tree.atom_sums(X.values * _per_row(tree.leaf_masses, X.values), n)
    return sums / _per_row(tree.masses(n), sums)


def martingale_from_final(X: RandomVariable) -> Martingale:
    """The martingale whose level-n slice is the level-n average of ``X``."""
    tree = X.tree
    return Martingale(tree, [conditional_expectation(X, n) for n in range(tree.depth + 1)])


def differences(f: AdaptedProcess) -> AdaptedProcess:
    """One-step increments of ``f``, the k-th on level-k atoms.

    The zeroth increment is the starting value itself (the process before
    time zero is zero), so the increments telescope back to the process:
    summing lifted increments through level n reproduces the level-n values.
    """
    tree = f.tree
    levels = [f.level(0)]
    with np.errstate(over="ignore"):  # an overflow is refused as non-finite
        for k in range(1, tree.depth + 1):
            levels.append(f.level(k) - f.level(k - 1)[tree.parents(k)])
    return AdaptedProcess(tree, levels)


class PredictableSequence:
    """Scalar multipliers, the k-th constant on the level-(k-1) atoms.

    ``coeffs[0]`` is a single scalar (there is nothing earlier to measure
    against) and ``coeffs[k]`` has one entry per level-(k-1) atom.
    """

    def __init__(self, tree: FiltrationTree, coeffs):
        if len(coeffs) != tree.depth + 1:
            raise ValueError(f"expected {tree.depth + 1} coefficient arrays")
        frozen = [_freeze(np.atleast_1d(coeffs[0]))]
        if frozen[0].shape != (1,):
            raise ValueError("coeffs[0] must be a single scalar")
        for k in range(1, tree.depth + 1):
            a = _freeze(coeffs[k])
            if a.shape != (tree.atom_count(k - 1),):
                raise ValueError(
                    f"coeffs[{k}] must have one entry per level-{k - 1} atom"
                )
            frozen.append(a)
        for k, a in enumerate(frozen):
            if not np.all(np.isfinite(a)):
                raise ValueError(f"coeffs[{k}] has non-finite values")
        self.tree = tree
        self.coeffs = tuple(frozen)

    @property
    def bound(self) -> float:
        """sup_k of the sup-norm of the k-th multiplier."""
        return max(float(np.max(np.abs(c))) for c in self.coeffs)

    def values_on_level(self, k: int) -> np.ndarray:
        """The k-th multiplier spread onto level-k atoms."""
        if k == 0:
            return self.coeffs[0]
        return self.coeffs[k][self.tree.parents(k)]


def _normal_shape(count: int, dim: int) -> tuple:
    """The shape of ``count`` values of width ``dim``; scalar for dim 1."""
    dim = _int_arg(dim, "dim must be an integer", high=_INT64_MAX)
    if dim < 1:
        raise ValueError("vector values must have at least one component")
    return (count,) if dim == 1 else (count, dim)


def random_martingale(tree: FiltrationTree, seed: int, dim: int = 1) -> Martingale:
    """Martingale of a standard-normal leaf variable; pure in (seed, dim)."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(_normal_shape(tree.num_leaves, dim))
    return martingale_from_final(RandomVariable(tree, values))


def random_adapted_process(tree: FiltrationTree, seed: int, dim: int = 1) -> AdaptedProcess:
    """Adapted process with independent standard-normal atom values."""
    rng = np.random.default_rng(seed)
    shapes = [_normal_shape(tree.atom_count(n), dim) for n in range(tree.depth + 1)]
    return AdaptedProcess(tree, [rng.standard_normal(shape) for shape in shapes])

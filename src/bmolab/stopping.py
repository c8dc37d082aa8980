"""Stopping times on a filtration tree and their tents.

A stopping time is stored as its stop set: an antichain of tree atoms (no
atom contains another).  On the part of the space below a stop atom the
time equals that atom's level; everywhere else it is infinite.  This
representation makes {time <= n} a union of level-n atoms by construction
and keeps P(time < infinity) an exact sum of stop-atom masses.

The tent over a stopping time tau is the set of pairs (omega, k) with
k >= tau(omega) and tau(omega) finite: the cells where ``tau_values() <=
k``, the sentinel keeping the never-stopping part out.

Exhaustive enumeration of all stopping times of a tree is the oracle
behind every "supremum over stopping times" in the package.  The count
obeys T(leaf) = 2 and T(internal) = 1 + prod(children T), so it explodes
quickly.  `stopping_time_table` holds all of them as one small-int
array (a row of per-leaf tau values per stopping time), which the
oracles score in chunks of CHUNK_ROWS rows; it refuses trees over a cap
before building anything.
"""

from __future__ import annotations

import math
import os
from typing import Iterable, Iterator

import numpy as np

from .errors import SchemaError, SizeCapError, _int_arg, _real_arg
from .filtration import AtomRef, FiltrationTree, _atom_position
from .process import AdaptedProcess, RandomVariable

__all__ = [
    "StoppingTime",
    "first_passage",
    "count_stopping_times",
    "enumerate_stopping_times",
    "stopping_time_table",
    "prob_finite",
    "row_stops",
    "indicator_process",
    "stopped_before",
    "resolve_max_enum",
    "DEFAULT_MAX_ENUM",
]

DEFAULT_MAX_ENUM = 10**6
# Rows of a stopping-time table (or union masks) scored at once by the
# brute-force oracles; bounds their float temporaries.
CHUNK_ROWS = 1024
# Cells of a float block that `prob_finite` gathers at once, and leaf cells
# (draws x levels x leaves) per batch of the inequality's draws.
CHUNK_CELLS = 1 << 16
# The subset oracle tabulates the union sums of at most 2 ** UNION_TABLE_BITS
# masks of a level at once (about 1 MB); wider levels run in pieces.
UNION_TABLE_BITS = 16


def resolve_max_enum(max_enum: int | None) -> int:
    """Explicit argument, else the BMO_LAB_MAX_ENUM variable, else default;
    either must be a positive integer: the argument a Python or numpy
    integer (a bool, float or string is refused), the variable its text."""
    if max_enum is not None:
        return _int_arg(max_enum, "max_enum must be a positive integer", 1)
    value = os.environ.get("BMO_LAB_MAX_ENUM")
    if not value:
        return DEFAULT_MAX_ENUM
    try:
        cap = int(value)
        if cap <= 0:
            raise ValueError
    except ValueError:
        raise ValueError(f"BMO_LAB_MAX_ENUM must be a positive integer, got {value!r}") from None
    return cap


def _stop_ref(stop: object) -> AtomRef:
    try:
        level, index = stop
    except (TypeError, ValueError):
        raise ValueError(f"a stop must be a [level, index] pair, got {stop!r}") from None
    return AtomRef(_atom_position(level), _atom_position(index))


class StoppingTime:
    """Antichain of stop atoms; infinite off their union.

    ``tau_values()`` gives the per-leaf stopping level as integers, with
    ``depth + 1`` as the sentinel for "never stops".  The sentinel is
    deliberately one past the horizon: comparisons like ``tau <= k`` then
    need no special casing, and indexing a level table extended by one row
    of final values realizes "the value just before stopping" for the
    never-stopping region too.
    """

    def __init__(self, tree: FiltrationTree, stops: Iterable[AtomRef]):
        if not np.iterable(stops):
            raise ValueError(f"stops must be a list of [level, index] pairs, got {stops!r}")
        refs = sorted(set(map(_stop_ref, stops)))
        leaves = [tree.leaf_slice(r) for r in refs]  # a bad position raises here
        tau = np.full(tree.num_leaves, tree.depth + 1, dtype=np.int64)
        for r, s in zip(refs, leaves):
            # an earlier stop that overlaps this one sits no lower, so it
            # covers all of this one's leaves, the first among them
            if tau[s.start] <= tree.depth:
                raise ValueError("stop atoms must form an antichain (found overlap)")
            tau[s] = r.level
        tau.flags.writeable = False
        self.tree = tree
        self.stops: tuple[AtomRef, ...] = tuple(refs)
        self._tau = tau
        self.prob_finite = float(sum(tree.masses(r.level)[r.index] for r in refs))

    def tau_values(self) -> np.ndarray:
        return self._tau

    def finite_mask(self) -> np.ndarray:
        return self._tau <= self.tree.depth

    def is_never(self) -> bool:
        return not self.stops

    def to_dict(self) -> dict:
        return {"schema": "tau/v1", "stops": [[r.level, r.index] for r in self.stops]}

    @classmethod
    def from_dict(cls, tree: FiltrationTree, doc: dict) -> "StoppingTime":
        if not isinstance(doc, dict) or doc.get("schema") != "tau/v1":
            raise SchemaError("expected a tau/v1 document", "$")
        stops = doc.get("stops")
        if not isinstance(stops, list) or any(
            not isinstance(s, list) or len(s) != 2 or any(type(x) is not int for x in s)
            for s in stops
        ):
            raise SchemaError("'stops' must be a list of [level, index] integer pairs", "stops")
        try:
            return cls(tree, [AtomRef(l, i) for l, i in stops])
        except ValueError as exc:
            raise SchemaError(str(exc), "stops") from exc

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StoppingTime):
            return NotImplemented
        return self.stops == other.stops and self.tree == other.tree

    def __hash__(self) -> int:
        return hash(self.stops)

    def __repr__(self) -> str:
        if not self.stops:
            return "StoppingTime(never)"
        return f"StoppingTime(stops={[tuple(r) for r in self.stops]})"


def first_passage(g: AdaptedProcess, lam: float) -> StoppingTime:
    """First level at which the modulus of the process exceeds ``lam``.

    Exceeding is strict, so the stop set is exactly the set of minimal
    atoms where |g_n| > lam; a threshold at or above the running sup gives
    the never-stopping time.  A NaN threshold is refused.
    """
    lam = _real_arg(lam, "lam must be a number", lambda v: v == v)
    tree = g.tree
    row = np.full(tree.num_leaves, tree.depth + 1)
    # Compared on the atoms, then spread; levels descending, so each leaf
    # keeps the first level that exceeds.
    for n in reversed(range(tree.depth + 1)):
        row[tree.spread_to_leaves(g.modulus_level(n) > lam, n)] = n
    return StoppingTime(tree, row_stops(tree, row))


def count_stopping_times(tree: FiltrationTree) -> int:
    """Exact number of stopping times (the never-stopping one included)."""
    counts = [2] * tree.atom_count(tree.depth)
    for n in reversed(range(tree.depth)):
        counts = [1 + math.prod(counts[s]) for s in tree.child_slices(n)]
    return counts[0]


def stopping_time_table(tree: FiltrationTree, max_enum: int | None = None) -> np.ndarray:
    """Every stopping time of the tree as one row of per-leaf tau values.

    Row order is the enumeration order: at each atom the "stop here" row
    comes before every combination in which the decision is deferred to
    the children, and among deferred combinations the leftmost child's
    options vary slowest.  The last row is the never-stopping time
    (``depth + 1`` everywhere).  The table is built level by level from
    the leaves up; the cap is checked against the exact count before
    anything is allocated.
    """
    cap = resolve_max_enum(max_enum)
    total = count_stopping_times(tree)
    if total > cap:
        raise SizeCapError(
            f"tree has {total} stopping times, over the cap {cap}; "
            f"use a fast mode (atom-fast / node-fast) or raise BMO_LAB_MAX_ENUM"
        )
    depth = tree.depth
    # the never-stopping row holds depth + 1, so the type must hold it
    dtype = next(t for t in (np.int8, np.int16, np.int32) if depth < np.iinfo(t).max)
    tables = [np.array([[depth], [depth + 1]], dtype=dtype)] * tree.atom_count(depth)
    for n in reversed(range(depth)):
        parents = []
        for s in tree.child_slices(n):
            kids = tables[s]
            sizes = [len(t) for t in kids]
            combos = math.prod(sizes)
            width = sum(t.shape[1] for t in kids)
            out = np.empty((1 + combos, width), dtype=dtype)
            out[0] = n
            # Child j's options repeat over the combos of the children to its
            # right and tile over those to its left: leftmost slowest.
            left, col = 1, 0
            for t, size in zip(kids, sizes):
                right = combos // (left * size)
                block = out[1:].reshape(left, size, right, width)
                block[..., col : col + t.shape[1]] = t[None, :, None, :]
                left *= size
                col += t.shape[1]
            parents.append(out)
        tables = parents
    return tables[0]


def chunks(rows: int) -> Iterator[slice]:
    """Consecutive row slices of at most CHUNK_ROWS, covering ``range(rows)``."""
    for lo in range(0, rows, CHUNK_ROWS):
        yield slice(lo, min(lo + CHUNK_ROWS, rows))


def prob_finite(tree: FiltrationTree, taus: np.ndarray) -> np.ndarray:
    """P(tau finite) per table row.

    Each row's stop-atom masses, 0.0 where the row does not stop, are
    gathered in blocks of about CHUNK_CELLS cells, one block row per atom
    in (level, index) order, and added to the running total one atom at a
    time: the order ``StoppingTime.prob_finite`` sums them in, so both
    agree bitwise (a numpy sum along the atoms adds pairwise from 8 terms
    on).
    """
    levels = range(tree.depth + 1)
    masses = [tree.masses(n) for n in levels]
    level = np.repeat(levels, list(map(len, masses)))
    start = np.concatenate([tree.leaf_starts(n) for n in levels])
    mass = np.concatenate(masses)
    total = np.zeros(len(taus))
    width = max(1, CHUNK_CELLS // max(1, len(taus)))
    for lo in range(0, len(mass), width):
        cols = slice(lo, lo + width)
        for stopped in np.multiply(taus[:, start[cols]].T == level[cols, None], mass[cols, None]):
            total += stopped
    return total


def row_stops(tree: FiltrationTree, row: np.ndarray) -> list[AtomRef]:
    """The stop set of one table row, in (level, index) order."""
    return [
        AtomRef(n, int(i))
        for n in range(tree.depth + 1)
        for i in np.flatnonzero(row[tree.leaf_starts(n)] == n)
    ]


def enumerate_stopping_times(
    tree: FiltrationTree, max_enum: int | None = None
) -> Iterator[StoppingTime]:
    """Stream every stopping time of the tree in `stopping_time_table` order.

    The last stopping time yielded is the never-stopping one (empty stop
    set).
    """
    for row in stopping_time_table(tree, max_enum):
        yield StoppingTime(tree, row_stops(tree, row))


def indicator_process(tau: StoppingTime) -> AdaptedProcess:
    """The adapted 0/1 process that switches on where the time has stopped.

    Values are exactly 0.0 or 1.0 and nondecreasing in the level along
    every path; the running maximum is the indicator of {tau finite}.
    """
    return AdaptedProcess(tau.tree, _indicator_levels(tau.tree, tau.tau_values()))


def _indicator_levels(tree: FiltrationTree, taus: np.ndarray) -> list[np.ndarray]:
    """The levels of `indicator_process`, per-leaf tau values on the last
    axis of ``taus``; any leading axes hold independent stopping times."""
    return [
        np.where(taus[..., tree.leaf_starts(n)] <= n, 1.0, 0.0) for n in range(tree.depth + 1)
    ]


def _before_table(f: AdaptedProcess) -> np.ndarray:
    """Leaf values indexed by stopping level: row 0 is zero (the value
    before time zero), row k + 1 is ``f`` at level k, so row tau holds the
    value one step before stopping and the sentinel row the final value."""
    stack = np.stack([f.leaf_view(n) for n in range(f.tree.depth + 1)])
    return np.concatenate([np.zeros_like(stack[:1]), stack], axis=0)


def stopped_before(f: AdaptedProcess, tau: StoppingTime) -> RandomVariable:
    """The process value one step before stopping, pointwise.

    Where the time is 0 this is 0 (the pre-history value); where the time
    is infinite it is the final value, so subtracting from the final value
    vanishes off {tau finite}.
    """
    leaves = np.arange(f.tree.num_leaves)
    return RandomVariable(f.tree, _before_table(f)[tau.tau_values(), leaves])

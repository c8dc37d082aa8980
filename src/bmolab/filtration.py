"""Finite filtered probability spaces as rooted trees of atoms.

A finite filtration is stored as a rooted tree: the nodes at level ``n``
are the atoms of the ``n``-th sigma-field, the root is the whole space
(level 0, mass 1, so the initial sigma-field is trivial), and every leaf
sits at the final level ``depth``.  Children partition their parent, each
level partitions the space, and all masses are positive.  Atom order is
the left-to-right construction order and never changes, which makes every
argmax and report in the package deterministic.

Trees are immutable after construction (the flattened arrays are marked
read-only), so they can be shared freely between computations.
"""

from __future__ import annotations

import bisect
import json
import os
from typing import Iterator, NamedTuple

import numpy as np

from .errors import SchemaError, SizeCapError

__all__ = [
    "AtomRef",
    "FiltrationTree",
    "TreeDocument",
    "dump_json",
    "read_json",
    "write_text",
    "build_dyadic",
    "build_random",
    "omega_weight",
    "MASS_TOL",
    "MAX_DYADIC_DEPTH",
]

MASS_TOL = 1e-12
MAX_DYADIC_DEPTH = 20
MAX_RANDOM_ATOMS = 1_000_000


def dump_json(doc: object) -> str:
    """The document encoder: two-space indent, sorted keys, no final newline.

    Tree text, alone or inlined, comes from ``FiltrationTree`` in the same format.
    """
    return json.dumps(doc, indent=2, sort_keys=True)


def write_text(path: str | None, text: str) -> None:
    """Write ``text`` and a final newline to ``path``; print it when no path is given."""
    if not path:
        print(text)
        return
    with open(path, "w") as fh:
        fh.write(text + "\n")


def read_json(path: str) -> object:
    """Parse the JSON document at ``path``."""
    with open(path) as fh:
        return json.load(fh)


class AtomRef(NamedTuple):
    """Position of one atom: filtration level and left-to-right index."""

    level: int
    index: int


_MASS_RANGE = "mass must lie in (0, 1], got {!r}"


def _in_range(masses: np.ndarray) -> np.ndarray:
    return (masses > 0.0) & (masses <= 1.0)


def _atom_steps(parents, level: int, index: int) -> list[int]:
    """Child positions on the way from the root down to an atom.

    ``parents`` holds one nondecreasing parent-index sequence per level.
    Compared as lists, steps give the depth-first order of atoms.
    """
    steps = []
    for n in range(level, 0, -1):
        parent = int(parents[n][index])
        steps.append(index - bisect.bisect_left(parents[n], parent))
        index = parent
    steps.reverse()
    return steps


def _path(steps: list[int]) -> str:
    """The node path of an atom in a nested tree document."""
    return "root" + "".join(f"/children/{j}" for j in steps)


def _first_atom(parents, flagged: list[np.ndarray]) -> tuple[list[int], int, int]:
    """``(steps, level, index)`` of the depth-first first flagged atom.

    Within a level, left-to-right order is depth-first order, so only the
    first flagged index of each level is a candidate.
    """
    return min(
        (_atom_steps(parents, n, int(idx[0])), n, int(idx[0]))
        for n, idx in enumerate(flagged)
        if idx.size
    )


def _walk_error(message: str, parents: list[list[int]], level: int, parent: int) -> SchemaError:
    """A schema error at the node the walk is visiting.

    The node is not in ``parents`` yet; its earlier siblings are.
    """
    steps = []
    if level:
        steps = _atom_steps(parents, level - 1, parent)
        siblings = parents[level] if level < len(parents) else []
        steps.append(len(siblings) - bisect.bisect_left(siblings, parent))
    return SchemaError(message, _path(steps))


def _levels_of(root: object) -> tuple[list[list[float]], list[list[int]]]:
    """Per-level masses and parent indices of a nested node document.

    An explicit-stack depth-first walk, so no recursion limit applies; it
    raises at the first malformed node in depth-first order.
    """
    masses: list[list[float]] = []
    parents: list[list[int]] = []
    stack = [(root, 0, -1)]
    while stack:
        node, level, parent = stack.pop()
        if not isinstance(node, dict) or "mass" not in node:
            raise _walk_error(
                "atom must be an object with 'mass' and 'children'", parents, level, parent
            )
        mass = node["mass"]
        if not isinstance(mass, (int, float)) or isinstance(mass, bool):
            raise _walk_error(
                f"mass must be a number, got {type(mass).__name__}", parents, level, parent
            )
        mass = float(mass)
        if not 0.0 < mass <= 1.0:
            raise _walk_error(_MASS_RANGE.format(mass), parents, level, parent)
        children = node.get("children", [])
        if not isinstance(children, list):
            raise _walk_error("'children' must be a list", parents, level, parent)
        if level == len(masses):
            masses.append([])
            parents.append([])
        index = len(masses[level])
        masses[level].append(mass)
        parents[level].append(parent)
        if children:
            stack.extend([(child, level + 1, index) for child in reversed(children)])
    return masses, parents


class FiltrationTree:
    """Immutable rooted atom tree with per-level flattened views.

    Construct from a nested node document ``{"mass": m, "children": [...]}``
    (leaves carry ``"children": []``).  Validation rejects, with a path to
    the offending node: non-positive masses, children that do not sum to
    their parent within ``MASS_TOL``, levels that do not sum to 1, leaves
    off the final level, and a root mass different from 1.

    The document is read into per-level ``(masses, parent)`` arrays, the
    one representation every tree is built, validated and written from.
    """

    def __init__(self, root: dict, depth: int | None = None):
        self._set_levels(*_levels_of(root), depth)

    @classmethod
    def _from_levels(cls, masses: list, parents: list, depth: int | None = None) -> FiltrationTree:
        tree = cls.__new__(cls)
        tree._set_levels(masses, parents, depth)
        return tree

    def _set_levels(self, masses: list, parents: list, depth: int | None) -> None:
        """Validate the level arrays and build every derived view.

        ``masses[n]`` and ``parents[n]`` list the level-``n`` atoms left to
        right with ``parents[0] == [-1]``.  The atoms come from a depth-first
        walk, so the children of consecutive parents are consecutive and
        every ``parents[n]`` is nondecreasing.
        """
        self._depth = len(masses) - 1
        self._masses = [np.asarray(m, dtype=float) for m in masses]
        self._parent = [np.asarray(p, dtype=np.intp) for p in parents]

        # The dict walk has checked this node by node; the builders' arrays
        # are checked here.
        if not _in_range(np.concatenate(self._masses)).all():
            out_of_range = [np.flatnonzero(~_in_range(m)) for m in self._masses]
            steps, n, i = _first_atom(self._parent, out_of_range)
            raise SchemaError(_MASS_RANGE.format(float(self._masses[n][i])), _path(steps))
        if depth is not None and depth != self._depth:
            raise SchemaError(
                f"declared depth {depth} does not match tree depth {self._depth}", "root"
            )
        if self._masses[0][0] != 1.0:
            raise SchemaError(
                f"root mass must be exactly 1, got {float(self._masses[0][0])!r}", "root"
            )

        # Children of consecutive parents are consecutive (DFS order), so the
        # child block of each atom is a contiguous range in the next level.
        self._child_start: list[np.ndarray] = []
        self._child_stop: list[np.ndarray] = []
        for n in range(self._depth):
            idx = np.arange(self.atom_count(n))
            self._child_start.append(np.searchsorted(self._parent[n + 1], idx, side="left"))
            self._child_stop.append(np.searchsorted(self._parent[n + 1], idx, side="right"))
        if self._depth and not (
            np.concatenate(self._child_stop) > np.concatenate(self._child_start)
        ).all():
            childless = [
                np.flatnonzero(a == b) for a, b in zip(self._child_start, self._child_stop)
            ]
            steps, n, _ = _first_atom(self._parent, childless)
            raise SchemaError(
                f"leaf at level {n}, but all leaves must sit at level {self._depth}",
                _path(steps),
            )

        num_leaves = self.atom_count(self._depth)
        self._leaf_start: list[np.ndarray] = [np.empty(0, dtype=np.intp)] * (self._depth + 1)
        self._leaf_stop: list[np.ndarray] = [np.empty(0, dtype=np.intp)] * (self._depth + 1)
        self._leaf_start[self._depth] = np.arange(num_leaves, dtype=np.intp)
        self._leaf_stop[self._depth] = np.arange(1, num_leaves + 1, dtype=np.intp)
        for n in range(self._depth - 1, -1, -1):
            self._leaf_start[n] = self._leaf_start[n + 1][self._child_start[n]]
            self._leaf_stop[n] = self._leaf_stop[n + 1][self._child_stop[n] - 1]

        self._leaf_ancestor: list[np.ndarray] = []
        for n in range(self._depth + 1):
            counts = self._leaf_stop[n] - self._leaf_start[n]
            self._leaf_ancestor.append(np.repeat(np.arange(self.atom_count(n)), counts))

        for n in range(self._depth):
            child_sums = np.add.reduceat(self._masses[n + 1], self._child_start[n])
            bad = np.nonzero(np.abs(child_sums - self._masses[n]) > MASS_TOL)[0]
            if bad.size:
                i = int(bad[0])
                raise SchemaError(
                    f"children masses sum to {float(child_sums[i])!r} but the atom mass "
                    f"is {float(self._masses[n][i])!r}",
                    _path(_atom_steps(self._parent, n, i)),
                )
        for n in range(self._depth + 1):
            total = float(np.sum(self._masses[n]))
            if abs(total - 1.0) > MASS_TOL:
                raise SchemaError(f"atoms at level {n} have total mass {total!r}, expected 1", "root")

        for arrays in (
            self._masses,
            self._parent,
            self._child_start,
            self._child_stop,
            self._leaf_start,
            self._leaf_stop,
            self._leaf_ancestor,
        ):
            for a in arrays:
                a.flags.writeable = False

    # -- structure queries -------------------------------------------------

    @property
    def depth(self) -> int:
        return self._depth

    @property
    def num_leaves(self) -> int:
        return self.atom_count(self._depth)

    @property
    def num_atoms(self) -> int:
        return sum(len(m) for m in self._masses)

    def atom_count(self, n: int) -> int:
        self._check_level(n)
        return len(self._masses[n])

    def masses(self, n: int) -> np.ndarray:
        """Masses of the level-``n`` atoms, left-to-right."""
        self._check_level(n)
        return self._masses[n]

    @property
    def leaf_masses(self) -> np.ndarray:
        return self._masses[self._depth]

    def atoms_at_level(self, n: int) -> list[AtomRef]:
        return [AtomRef(n, i) for i in range(self.atom_count(n))]

    def parents(self, n: int) -> np.ndarray:
        """For each level-``n`` atom, the index of its level-``n-1`` parent."""
        if not 1 <= n <= self._depth:
            raise ValueError(f"level {n} has no parent level (depth {self._depth})")
        return self._parent[n]

    def mass_of(self, ref: AtomRef) -> float:
        self._check_ref(ref)
        return float(self._masses[ref.level][ref.index])

    def parent_of(self, ref: AtomRef) -> AtomRef | None:
        self._check_ref(ref)
        if ref.level == 0:
            return None
        return AtomRef(ref.level - 1, int(self._parent[ref.level][ref.index]))

    def children_of(self, ref: AtomRef) -> list[AtomRef]:
        self._check_ref(ref)
        if ref.level == self._depth:
            return []
        lo = int(self._child_start[ref.level][ref.index])
        hi = int(self._child_stop[ref.level][ref.index])
        return [AtomRef(ref.level + 1, i) for i in range(lo, hi)]

    def leaf_slice(self, ref: AtomRef) -> slice:
        """Contiguous range of leaf indices covered by the atom."""
        self._check_ref(ref)
        return slice(
            int(self._leaf_start[ref.level][ref.index]),
            int(self._leaf_stop[ref.level][ref.index]),
        )

    def leaf_starts(self, n: int) -> np.ndarray:
        self._check_level(n)
        return self._leaf_start[n]

    def leaf_ancestors(self, n: int) -> np.ndarray:
        """For each leaf, the index of the level-``n`` atom containing it."""
        self._check_level(n)
        return self._leaf_ancestor[n]

    def child_starts(self, n: int) -> np.ndarray:
        if not 0 <= n < self._depth:
            raise ValueError(f"level {n} has no children (depth {self._depth})")
        return self._child_start[n]

    def child_stops(self, n: int) -> np.ndarray:
        if not 0 <= n < self._depth:
            raise ValueError(f"level {n} has no children (depth {self._depth})")
        return self._child_stop[n]

    def atom_containing(self, leaf: AtomRef, n: int) -> AtomRef:
        """Ancestor at level ``n`` of a leaf atom."""
        if leaf.level != self._depth:
            raise ValueError(f"expected a leaf (level {self._depth}), got level {leaf.level}")
        self._check_ref(leaf)
        self._check_level(n)
        return AtomRef(n, int(self._leaf_ancestor[n][leaf.index]))

    def is_ancestor(self, a: AtomRef, b: AtomRef) -> bool:
        """True when atom ``a`` contains atom ``b`` (reflexively)."""
        self._check_ref(a)
        self._check_ref(b)
        if a.level > b.level:
            return False
        sa, sb = self.leaf_slice(a), self.leaf_slice(b)
        return sa.start <= sb.start and sb.stop <= sa.stop

    def iter_atoms(self) -> Iterator[AtomRef]:
        for n in range(self._depth + 1):
            for i in range(self.atom_count(n)):
                yield AtomRef(n, i)

    def _check_level(self, n: int) -> None:
        if not 0 <= n <= self._depth:
            raise ValueError(f"level {n} out of range [0, {self._depth}]")

    def _check_ref(self, ref: AtomRef) -> None:
        self._check_level(ref.level)
        if not 0 <= ref.index < len(self._masses[ref.level]):
            raise ValueError(f"atom index {ref.index} out of range at level {ref.level}")

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        nodes: list[dict] = []
        for n in range(self._depth, -1, -1):
            masses = self._masses[n].tolist()
            if n == self._depth:
                nodes = [{"mass": m, "children": []} for m in masses]
            else:
                starts = self._child_start[n].tolist()
                stops = self._child_stop[n].tolist()
                nodes = [
                    {"mass": m, "children": nodes[a:b]} for m, a, b in zip(masses, starts, stops)
                ]
        return {"schema": "tree/v1", "depth": self._depth, "root": nodes[0]}

    def to_json(self) -> str:
        return self._json_text()

    def _json_text(self, margin: str = "") -> str:
        """The text ``dump_json(self.to_dict())`` writes, with ``margin``
        added before every line but the first.

        Each atom has an opening piece (up to its children) and a closing
        piece (its mass, after them), made from per-level templates and
        ``float.__repr__``, which is what ``json`` writes for a float.  The
        pieces go to the atom's two positions in the depth-first tour and
        are joined once.
        """
        depth = self._depth
        sizes = [np.ones(self.num_leaves, dtype=np.intp)]  # atoms per subtree
        for n in range(depth - 1, -1, -1):
            sizes.append(1 + np.add.reduceat(sizes[-1], self._child_start[n]))
        sizes.reverse()
        # Slot 0 holds the text before the root, the last slot the text after.
        pieces = np.empty(2 * self.num_atoms + 2, dtype=object)
        pieces[0] = "{\n" + margin + '  "depth": ' + str(depth) + ",\n" + margin + '  "root": '
        pieces[-1] = ",\n" + margin + '  "schema": "tree/v1"\n' + margin + "}"
        opens = np.ones(1, dtype=np.intp)
        last = np.ones(1, dtype=bool)
        for n in range(depth + 1):
            if n:
                # An atom opens right after its parent opens and after the
                # two pieces of every atom in its earlier siblings' subtrees.
                parent = self._parent[n]
                before = np.cumsum(sizes[n]) - sizes[n]
                first = self._child_start[n - 1][parent]
                opens = opens[parent] + 1 + 2 * (before - before[first])
                last = np.arange(len(parent)) == self._child_stop[n - 1][parent] - 1
            keys = margin + " " * (4 * n + 4)
            brace = keys[:-2]
            if n == depth:
                pieces[opens] = "{\n" + keys + '"children": [],\n' + keys + '"mass": '
                before_mass = ""
            else:
                pieces[opens] = "{\n" + keys + '"children": [\n' + keys + "  "
                before_mass = "\n" + keys + "],\n" + keys + '"mass": '
            end = "\n" + brace + "}"
            end_sibling = end + ",\n" + brace
            pieces[opens + 2 * sizes[n] - 1] = [
                before_mass + r + (end if lst else end_sibling)
                for r, lst in zip(map(float.__repr__, self._masses[n].tolist()), last.tolist())
            ]
        return "".join(pieces.tolist())

    def save(self, path: str) -> None:
        write_text(path, self.to_json())

    @classmethod
    def from_dict(cls, doc: dict) -> "FiltrationTree":
        if not isinstance(doc, dict) or doc.get("schema") != "tree/v1":
            raise SchemaError("expected a tree/v1 document", "$")
        if "root" not in doc:
            raise SchemaError("missing 'root'", "$")
        depth = doc.get("depth")
        if depth is not None and not isinstance(depth, int):
            raise SchemaError("'depth' must be an integer", "$")
        return cls(doc["root"], depth)

    @classmethod
    def load(cls, path: str) -> "FiltrationTree":
        return cls.from_dict(read_json(path))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiltrationTree):
            return NotImplemented
        return self._depth == other._depth and all(
            a.shape == b.shape and bool(np.all(a == b))
            for a, b in zip(self._masses, other._masses)
        ) and all(bool(np.all(a == b)) for a, b in zip(self._parent, other._parent))

    def __hash__(self) -> int:  # identity hash; trees are mutable-free but large
        return id(self)

    def __repr__(self) -> str:
        return f"FiltrationTree(depth={self._depth}, leaves={self.num_leaves})"


def resolve_tree_field(value: object, base_dir: str | None = None) -> FiltrationTree:
    """Resolve an inline tree document or a path string to a tree."""
    if isinstance(value, dict):
        return FiltrationTree.from_dict(value)
    if isinstance(value, str):
        path = value if base_dir is None else os.path.join(base_dir, value)
        return FiltrationTree.load(path)
    raise SchemaError("'tree' must be an inline tree/v1 object or a path string", "tree")


class TreeDocument:
    """Values on a filtration tree, stored as a JSON document.

    The document holds ``schema`` (``SCHEMA``), the ``_payload()`` fields
    and ``tree``: an inline tree/v1 object or a path relative to the
    document.  ``cls(tree, doc[FIELD])`` validates the payload; its
    ``ValueError`` becomes a ``SchemaError`` at ``FIELD``.
    """

    SCHEMA: str
    FIELD: str
    tree: FiltrationTree

    def _payload(self) -> dict:
        raise NotImplementedError

    def to_dict(self, *, inline_tree: bool = True) -> dict:
        doc = {"schema": self.SCHEMA, **self._payload()}
        if inline_tree:
            doc["tree"] = self.tree.to_dict()
        return doc

    def to_json(self) -> str:
        # The tree text is written from its arrays, in place of a placeholder.
        text = dump_json({**self.to_dict(inline_tree=False), "tree": 0})
        head, tail = text.rsplit('"tree": 0', 1)
        return head + '"tree": ' + self.tree._json_text("  ") + tail

    def save(self, path: str) -> None:
        write_text(path, self.to_json())

    @classmethod
    def from_dict(cls, doc: dict, *, tree: FiltrationTree | None = None,
                  base_dir: str | None = None):
        if not isinstance(doc, dict) or doc.get("schema") != cls.SCHEMA:
            raise SchemaError(f"expected a {cls.SCHEMA} document", "$")
        if tree is None:
            if "tree" not in doc:
                raise SchemaError("missing 'tree'", "$")
            tree = resolve_tree_field(doc["tree"], base_dir)
        if not isinstance(doc.get(cls.FIELD), list):
            raise SchemaError(f"missing '{cls.FIELD}' list", "$")
        try:
            return cls(tree, doc[cls.FIELD])
        except ValueError as exc:
            raise SchemaError(str(exc), cls.FIELD) from exc

    @classmethod
    def load(cls, path: str):
        return cls.from_dict(read_json(path), base_dir=os.path.dirname(os.path.abspath(path)))


def build_dyadic(depth: int, *, max_depth: int = MAX_DYADIC_DEPTH) -> FiltrationTree:
    """Uniform binary tree: every level-``n`` atom has mass ``2**-n``."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if depth > max_depth:
        raise SizeCapError(f"dyadic depth {depth} exceeds the cap {max_depth}")

    masses = [np.full(1 << n, 0.5**n) for n in range(depth + 1)]
    parents = [np.full(1, -1, dtype=np.intp)]
    parents += [np.arange(1 << n, dtype=np.intp) >> 1 for n in range(1, depth + 1)]
    return FiltrationTree._from_levels(masses, parents, depth)


def build_random(
    seed: int, depth: int, max_branch: int, *, max_atoms: int = MAX_RANDOM_ATOMS
) -> FiltrationTree:
    """Random tree, a pure function of ``(seed, depth, max_branch)``.

    Each internal atom splits into 1..max_branch children whose masses are a
    Dirichlet partition of the parent mass; the last child takes the exact
    remainder so children always sum to their parent.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if max_branch < 1:
        raise ValueError("max_branch must be at least 1")
    rng = np.random.default_rng(seed)
    masses: list[list[float]] = []
    parents: list[list[int]] = []
    # Depth-first with an explicit stack: the atoms are visited, counted and
    # split in the same order as a recursive walk, so the RNG draws match.
    stack = [(1.0, 0, -1)]
    count = 0
    while stack:
        mass, level, parent = stack.pop()
        count += 1
        if count > max_atoms:
            raise SizeCapError(f"random tree exceeds the atom cap {max_atoms}")
        if level == len(masses):
            masses.append([])
            parents.append([])
        index = len(masses[level])
        masses[level].append(mass)
        parents[level].append(parent)
        if level == depth:
            continue
        branches = int(rng.integers(1, max_branch + 1))
        if branches == 1:
            parts = [mass]
        else:
            weights = rng.dirichlet(np.ones(branches))
            while float(weights.min()) < 1e-6:
                weights = rng.dirichlet(np.ones(branches))
            parts = [mass * float(w) for w in weights[:-1]]
            parts.append(mass - sum(parts))
        stack.extend([(p, level + 1, index) for p in reversed(parts)])

    return FiltrationTree._from_levels(masses, parents, depth)


def omega_weight(tree: FiltrationTree, n: int):
    """Leaf function whose value is the mass of the containing level-``n`` atom."""
    from .process import RandomVariable

    tree._check_level(n)
    values = tree.masses(n)[tree.leaf_ancestors(n)]
    return RandomVariable(tree, values)

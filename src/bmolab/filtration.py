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
import functools
import itertools
import json
import math
import operator
import os
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

import numpy as np

from .errors import _INT64_MAX, SchemaError, SizeCapError, _float, _int_arg

__all__ = [
    "AtomRef",
    "FiltrationTree",
    "TreeDocument",
    "dump_json",
    "read_json",
    "write_text",
    "build_dyadic",
    "build_random",
    "MASS_TOL",
    "MAX_DYADIC_DEPTH",
]

MASS_TOL = 1e-12
MAX_DYADIC_DEPTH = 20
MAX_RANDOM_ATOMS = 1_000_000
_WRITE_PIECE = 1 << 20  # characters per write in write_text


def _plain(x: object) -> object:
    if isinstance(x, (np.generic, np.ndarray)):
        return x.tolist()
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def dump_json(doc: object) -> str:
    """The document writer: ``json.dumps(doc, indent=2, sort_keys=True)``'s
    bytes, no final newline.  Numpy values are written as the Python values
    they hold, and a `FiltrationTree` as the tree/v1 text of its ``to_dict()``."""
    return _text(doc, "")


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x: float) -> str:
    text = float.__repr__(x)
    return _NON_FINITE.get(text, text)


def _text(value: object, indent: str) -> str:
    """``value`` at ``indent``, with the standard library's type tests in its order."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        sep = ",\n" + inner
        return f"[\n{inner}{sep.join(_texts(value, inner))}\n{indent}]"
    if isinstance(value, dict):
        return _dicts_text([value], indent)[0]
    if isinstance(value, FiltrationTree):
        return value._json_text(indent)
    return _text(_plain(value), indent)


def _key_text(key: object) -> str:
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if key is None or isinstance(key, (int, float)):
        return '"' + _text(key, "") + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _texts(values: list, indent: str) -> list[str]:
    """`_text` of each of ``values``: all floats, ints or strs in one ``map``,
    else each run of dicts with the same str keys through one template."""
    kinds = set(map(type, values))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind is float:
        distinct = dict.fromkeys(values)
        if not math.isfinite(sum(distinct)):  # a NaN or an infinity, or an overflowing sum
            return list(map(_float_text, values))
        # Where values repeat (a measure's density level, a case's p and
        # alpha), each distinct one is written once: not where most are
        # distinct, nor where 0.0 and -0.0, one key with two texts, may be.
        if 0.0 in distinct or 2 * len(distinct) > len(values):
            return list(map(float.__repr__, values))
        return list(map(dict(zip(distinct, map(float.__repr__, distinct))).__getitem__, values))
    if kind is int:
        return list(map(int.__repr__, values))
    if kind is str:
        return list(map(encode_basestring_ascii, values))
    texts = []
    for keys, run in itertools.groupby(values, lambda v: tuple(v) if isinstance(v, dict) else None):
        if keys and all(isinstance(k, str) for k in keys):
            texts += _dicts_text(list(run), indent)
        else:
            texts += [_text(v, indent) for v in run]
    return texts


def _dicts_text(run: list, indent: str) -> list[str]:
    """The text of each dict of ``run``, all with the keys of the first, from
    one line template filled a key's column of values at a time."""
    keys = [k for k, _ in sorted(run[0].items())]
    if not keys:
        return ["{}"] * len(run)
    inner = indent + "  "
    heads = ("\n" + inner + _key_text(k) + ": " for k in keys)
    template = "{{" + ",".join(h.replace("{", "{{").replace("}", "}}") + "{}" for h in heads)
    template += "\n" + indent + "}}"
    return list(map(template.format, *(_texts([d[k] for d in run], inner) for k in keys)))


def write_text(path: str | None, text: str) -> None:
    """Write ``text`` and a final newline to ``path``; print it when no path is given.

    The file gets ``_WRITE_PIECE`` characters at a time, so no whole copy of
    the text, joined to the newline or encoded, is ever held."""
    if not path:
        print(text)
        return
    with open(path, "w") as fh:
        for i in range(0, len(text), _WRITE_PIECE):
            fh.write(text[i : i + _WRITE_PIECE])
        fh.write("\n")


def read_json(path: str) -> object:
    """Parse the JSON document at ``path``."""
    with open(path) as fh:
        return json.load(fh)


class AtomRef(NamedTuple):
    """Position of one atom: filtration level and left-to-right index."""

    level: int
    index: int


def _atom_position(x: object) -> int:
    """An atom level or index as an int: Python and numpy integers only."""
    return _int_arg(x, "atom levels and indices must be integers")


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


def _node_error(node: object) -> str:
    """Why a tree document node is refused."""
    if not isinstance(node, dict) or "mass" not in node:
        return "atom must be an object with 'mass' and 'children'"
    mass = node["mass"]
    if not isinstance(mass, (int, float)) or isinstance(mass, bool):
        return f"mass must be a number, got {type(mass).__name__}"
    if not 0.0 < mass <= 1.0:
        return _MASS_RANGE.format(_float(mass))
    return "'children' must be a list"


def _read_levels(root: object) -> tuple[list[list[float]], list[np.ndarray]]:
    """Per-level masses and parent indices of a tree document, read level by
    level.  Refused nodes are not descended into; the first of them in
    depth-first order raises, naming its path."""
    masses, parents, refused, nodes = [], [np.full(1, -1, dtype=np.intp)], [], [root]
    while nodes:
        level, kids, bad = [], [], {}  # bad: index -> refused node
        for node in nodes:
            mass = node.get("mass") if isinstance(node, dict) else None
            number = type(mass) is float or type(mass) is not bool and isinstance(mass, (int, float))
            children = node.get("children", []) if number and 0.0 < mass <= 1.0 else None
            if isinstance(children, list):
                level.append(mass)
                kids.append(children)
            else:
                bad[len(kids)] = node
                kids.append([])
        masses.append(level)
        refused.append(bad)
        nodes = list(itertools.chain.from_iterable(kids))
        if nodes:
            parents.append(np.repeat(np.arange(len(kids)), list(map(len, kids))))
    if any(refused):
        steps, n, i = _first_atom(parents, [np.fromiter(bad, np.intp) for bad in refused])
        raise SchemaError(_node_error(refused[n][i]), _path(steps))
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

    def __init__(self, root: dict):
        self._set_levels(*_read_levels(root))

    @classmethod
    def _from_levels(cls, masses: list, parents: list) -> FiltrationTree:
        tree = cls.__new__(cls)
        tree._set_levels(masses, parents)
        return tree

    def _set_levels(self, masses: list, parents: list) -> None:
        """Validate the level arrays and build every derived view.

        ``masses[n]`` and ``parents[n]`` list the level-``n`` atoms left to
        right with ``parents[0] == [-1]``.  The atoms come from a depth-first
        walk, so the children of consecutive parents are consecutive and
        every ``parents[n]`` is nondecreasing.
        """
        self._depth = len(masses) - 1
        self._masses = [np.asarray(m, dtype=float) for m in masses]
        self._parent = [np.asarray(p, dtype=np.intp) for p in parents]

        # The document reader has checked this node by node; the builders'
        # arrays are checked here.
        if not _in_range(np.concatenate(self._masses)).all():
            out_of_range = [np.flatnonzero(~_in_range(m)) for m in self._masses]
            steps, n, i = _first_atom(self._parent, out_of_range)
            raise SchemaError(_MASS_RANGE.format(float(self._masses[n][i])), _path(steps))
        if self._masses[0][0] != 1.0:
            raise SchemaError(
                f"root mass must be exactly 1, got {float(self._masses[0][0])!r}", "root"
            )

        # Children of consecutive parents are consecutive (DFS order), so the
        # children of atom i form the run b[i]:b[i + 1] of the next level,
        # and so do its leaves; a level's runs are kept as one bounds array b.
        self._child_bounds = [
            np.searchsorted(self._parent[n + 1], np.arange(self.atom_count(n) + 1))
            for n in range(self._depth)
        ]
        sizes = [np.diff(b) for b in self._child_bounds]
        if self._depth and not np.concatenate(sizes).all():
            steps, n, _ = _first_atom(self._parent, [np.flatnonzero(s == 0) for s in sizes])
            raise SchemaError(
                f"leaf at level {n}, but all leaves must sit at level {self._depth}",
                _path(steps),
            )

        self._leaf_bounds = [np.arange(self.num_leaves + 1)]
        for b in reversed(self._child_bounds):
            self._leaf_bounds.append(self._leaf_bounds[-1][b])
        self._leaf_bounds.reverse()
        self._leaf_ancestor = [None] * (self._depth + 1)  # built by leaf_ancestors
        self._leaf_count = [None] * (self._depth + 1)  # built by spread_to_leaves

        for n in range(self._depth):
            sums = self.child_sums(self._masses[n + 1], n)
            bad = np.nonzero(np.abs(sums - self._masses[n]) > MASS_TOL)[0]
            if bad.size:
                i = int(bad[0])
                raise SchemaError(
                    f"children masses sum to {float(sums[i])!r} but the atom mass "
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
            self._child_bounds,
            self._leaf_bounds,
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

    def parents(self, n: int) -> np.ndarray:
        """For each level-``n`` atom, the index of its level-``n-1`` parent."""
        if not 1 <= n <= self._depth:
            raise ValueError(f"level {n} has no parent level (depth {self._depth})")
        return self._parent[n]

    def leaf_slice(self, ref: AtomRef) -> slice:
        """Contiguous range of leaf indices covered by the atom."""
        self._check_ref(ref)
        b = self._leaf_bounds[ref.level]
        return slice(int(b[ref.index]), int(b[ref.index + 1]))

    def leaf_starts(self, n: int) -> np.ndarray:
        self._check_level(n)
        return self._leaf_bounds[n][:-1]

    def leaf_ancestors(self, n: int) -> np.ndarray:
        """For each leaf, the index of the level-``n`` atom containing it.

        Built on the first call for ``n`` and kept, read-only: a tree that
        is only built, written or summed never holds the table."""
        self._check_level(n)
        ancestors = self._leaf_ancestor[n]
        if ancestors is None:
            ancestors = self.spread_to_leaves(np.arange(len(self._masses[n])), n)
            ancestors.flags.writeable = False
            self._leaf_ancestor[n] = ancestors
        return ancestors

    def spread_to_leaves(self, rows: np.ndarray, n: int) -> np.ndarray:
        """Each level-``n`` atom's row of ``rows`` (an array, atoms on axis 0:
        one value, or one vector, per atom) repeated once per leaf of the
        atom.  Bit for bit ``rows[self.leaf_ancestors(n)]``, without that
        table: the level's leaf counts are built on the first call for
        ``n`` and kept.  They stay writeable, since ``repeat`` copies
        read-only counts on every call, and are never handed out."""
        self._check_level(n)
        counts = self._leaf_count[n]
        if counts is None:
            counts = self._leaf_count[n] = np.diff(self._leaf_bounds[n])
        return self._rows(rows, n).repeat(counts, 0)

    # Each atom's leaves, and each atom's children, form one contiguous run
    # (atoms are stored in depth-first order), so a sum over them is one
    # reduceat over the run starts; other modules sum through these methods.

    def atom_sums(self, leaf_rows: np.ndarray, n: int) -> np.ndarray:
        """Per level-``n`` atom, the sum of ``leaf_rows`` (one row per leaf,
        leaves on axis 0) over the atom's leaves."""
        self._check_level(n)
        return np.add.reduceat(self._rows(leaf_rows, self._depth), self._leaf_bounds[n][:-1], axis=0)

    def child_sums(self, rows: np.ndarray, n: int) -> np.ndarray:
        """Per level-``n`` atom, the sum of ``rows`` (one row per level-``n + 1``
        atom, atoms on axis 0) over the atom's children."""
        self._check_parent_level(n)
        return np.add.reduceat(self._rows(rows, n + 1), self._child_bounds[n][:-1], axis=0)

    def child_slices(self, n: int) -> list[slice]:
        """Per level-``n`` atom, the slice of level ``n + 1`` holding its children."""
        self._check_parent_level(n)
        b = self._child_bounds[n].tolist()
        return list(map(slice, b[:-1], b[1:]))

    def _rows(self, rows: np.ndarray, n: int) -> np.ndarray:
        count = len(self._masses[n])
        if len(rows) != count:
            raise ValueError(f"expected {count} rows for level {n}, got {len(rows)}")
        return rows

    def _check_parent_level(self, n: int) -> None:
        if not 0 <= n < self._depth:
            raise ValueError(f"level {n} has no children (depth {self._depth})")

    def _check_level(self, n: int) -> None:
        if not 0 <= n <= self._depth:
            raise ValueError(f"level {n} out of range [0, {self._depth}]")

    def _check_ref(self, ref: AtomRef) -> None:
        self._check_level(ref.level)
        if not 0 <= ref.index < len(self._masses[ref.level]):
            raise ValueError(f"atom index {ref.index} out of range at level {ref.level}")

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        nodes = [{"mass": m, "children": []} for m in self.leaf_masses.tolist()]
        for n in range(self._depth - 1, -1, -1):
            masses, b = self._masses[n].tolist(), self._child_bounds[n].tolist()
            nodes = [{"mass": m, "children": nodes[i:j]} for m, i, j in zip(masses, b, b[1:])]
        return {"schema": "tree/v1", "depth": self._depth, "root": nodes[0]}

    def to_json(self) -> str:
        """The text ``dump_json(self.to_dict())`` writes."""
        return self._json_text("")

    def _json_text(self, indent: str) -> str:
        """The text of ``self.to_dict()`` on a line indented by ``indent``.

        Each atom has an opening piece (up to its children) and a closing
        piece (its mass, after them), made from per-level templates and
        ``float.__repr__``, which is what ``json`` writes for a float.  The
        pieces go to the atom's two positions in the depth-first tour and
        are joined once.
        """
        depth = self._depth
        sizes = [np.ones(self.num_leaves, dtype=np.intp)]  # atoms per subtree
        for n in range(depth - 1, -1, -1):
            sizes.append(1 + self.child_sums(sizes[-1], n))
        sizes.reverse()
        # Slot 0 holds the text before the root, the last slot the text after.
        pieces = np.empty(2 * self.num_atoms + 2, dtype=object)
        pieces[0] = "{\n" + indent + '  "depth": ' + str(depth) + ",\n" + indent + '  "root": '
        pieces[-1] = ",\n" + indent + '  "schema": "tree/v1"\n' + indent + "}"
        opens = np.ones(1, dtype=np.intp)
        last = np.ones(1, dtype=bool)
        for n in range(depth + 1):
            if n:
                # An atom opens right after its parent opens and after the
                # two pieces of every atom in its earlier siblings' subtrees.
                parent = self._parent[n]
                before = np.cumsum(sizes[n]) - sizes[n]
                first = self._child_bounds[n - 1][parent]
                opens = opens[parent] + 1 + 2 * (before - before[first])
                last = np.append(parent[1:] != parent[:-1], True)
            keys = indent + " " * (4 * n + 4)
            brace = keys[:-2]
            if n == depth:
                pieces[opens] = "{\n" + keys + '"children": [],\n' + keys + '"mass": '
                before_mass = ""
            else:
                pieces[opens] = "{\n" + keys + '"children": [\n' + keys + "  "
                before_mass = "\n" + keys + "],\n" + keys + '"mass": '
            end = "\n" + brace + "}"
            end_sibling = end + ",\n" + brace
            masses = self._masses[n]
            if (masses == masses[0]).all():
                # One mass, as on every dyadic level: every closing slot holds
                # one of two shared pieces, the last sibling's or another's.
                close = before_mass + float.__repr__(float(masses[0]))
                shared = np.array([close + end_sibling, close + end], dtype=object)
                closes = shared[last.view(np.int8)]
            else:
                closes = [
                    before_mass + r + (end if lst else end_sibling)
                    for r, lst in zip(map(float.__repr__, masses.tolist()), last.tolist())
                ]
            pieces[opens + 2 * sizes[n] - 1] = closes
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
        if depth is not None and (isinstance(depth, bool) or not isinstance(depth, int)):
            raise SchemaError("'depth' must be an integer", "$")
        masses, parents = _read_levels(doc["root"])
        if depth is not None and depth != len(masses) - 1:
            raise SchemaError(
                f"declared depth {depth} does not match tree depth {len(masses) - 1}", "root"
            )
        return cls._from_levels(masses, parents)

    @classmethod
    def load(cls, path: str) -> "FiltrationTree":
        return cls.from_dict(read_json(path))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiltrationTree):
            return NotImplemented
        return self is other or self._depth == other._depth and all(
            a.shape == b.shape and bool(np.all(a == b))
            for a, b in zip(self._masses, other._masses)
        ) and all(bool(np.all(a == b)) for a, b in zip(self._parent, other._parent))

    def __hash__(self) -> int:
        # only what __eq__ compares: equal trees have the same level sizes
        return hash((self._depth, tuple(map(len, self._masses))))

    def __repr__(self) -> str:
        return f"FiltrationTree(depth={self._depth}, leaves={self.num_leaves})"


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

    def to_dict(self) -> dict:
        return {"schema": self.SCHEMA, **self._payload(), "tree": self.tree.to_dict()}

    def to_json(self) -> str:
        return dump_json({"schema": self.SCHEMA, **self._payload(), "tree": self.tree})

    def save(self, path: str) -> None:
        write_text(path, self.to_json())

    @classmethod
    def from_dict(cls, doc: dict, *, base_dir: str | None = None):
        if not isinstance(doc, dict) or doc.get("schema") != cls.SCHEMA:
            raise SchemaError(f"expected a {cls.SCHEMA} document", "$")
        if "tree" not in doc:
            raise SchemaError("missing 'tree'", "$")
        value = doc["tree"]
        if isinstance(value, dict):
            tree = FiltrationTree.from_dict(value)
        elif isinstance(value, str):
            tree = FiltrationTree.load(value if base_dir is None else os.path.join(base_dir, value))
        else:
            raise SchemaError("'tree' must be an inline tree/v1 object or a path string", "tree")
        if not isinstance(doc.get(cls.FIELD), list):
            raise SchemaError(f"missing '{cls.FIELD}' list", "$")
        try:
            obj = cls(tree, doc[cls.FIELD])
        except ValueError as exc:
            raise SchemaError(str(exc), cls.FIELD) from exc
        dim = getattr(obj, "dim", None)  # rv/v1 and process/v1 state their values' width
        if dim is not None and (type(doc.get("dim")) is not int or doc["dim"] != dim):
            raise SchemaError(f"expected the integer {dim}, the width of the values", "dim")
        return obj

    @classmethod
    def load(cls, path: str):
        return cls.from_dict(read_json(path), base_dir=os.path.dirname(os.path.abspath(path)))


def build_dyadic(depth: int) -> FiltrationTree:
    """Uniform binary tree: every level-``n`` atom has mass ``2**-n``."""
    depth = _int_arg(depth, "depth must be a nonnegative integer", 0)
    if depth > MAX_DYADIC_DEPTH:
        raise SizeCapError(f"dyadic depth {depth} exceeds the cap {MAX_DYADIC_DEPTH}")

    masses = [np.full(1 << n, 0.5**n) for n in range(depth + 1)]
    parents = [np.full(1, -1, dtype=np.intp)]
    parents += [np.arange(1 << n, dtype=np.intp) >> 1 for n in range(1, depth + 1)]
    return FiltrationTree._from_levels(masses, parents)


def _left_sum(values: list[float]) -> float:
    """Sum left to right, as numpy does; ``sum`` compensates from Python 3.12 on."""
    return functools.reduce(operator.add, values, 0.0)


def _flat_dirichlet(rng: np.random.Generator, k: int) -> list[float]:
    """``rng.dirichlet(np.ones(k))``, drawn again while a weight is below 1e-6:
    numpy's own draws and floats, ``k`` exponentials over their sum."""
    while True:
        draws = rng.standard_exponential(k).tolist()
        scale = 1.0 / _left_sum(draws)
        weights = [x * scale for x in draws]
        if min(weights) >= 1e-6:
            return weights


def build_random(
    seed: int, depth: int, max_branch: int, *, max_atoms: int = MAX_RANDOM_ATOMS
) -> FiltrationTree:
    """Random tree, a pure function of ``(seed, depth, max_branch)``.

    Each internal atom splits into 1..max_branch children whose masses are a
    Dirichlet partition of the parent mass; the last child takes the exact
    remainder so children always sum to their parent.
    """
    depth = _int_arg(depth, "depth must be a nonnegative integer", 0)
    max_branch = _int_arg(max_branch, "max_branch must be a positive integer", 1, _INT64_MAX)
    max_atoms = _int_arg(max_atoms, "max_atoms must be a positive integer", 1)
    if depth + 1 > max_atoms:  # a tree of depth d has at least d + 1 atoms
        raise SizeCapError(f"random tree exceeds the atom cap {max_atoms}")
    rng = np.random.default_rng(seed)
    masses: list[list[float]] = []
    parents: list[list[int]] = []
    # Atoms are counted and split in depth-first order, so the RNG draws match;
    # the explicit stack keeps any depth clear of the recursion limit.
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
            parts = [mass * w for w in _flat_dirichlet(rng, branches)[:-1]]
            parts.append(mass - _left_sum(parts))
        stack.extend([(part, level + 1, index) for part in reversed(parts)])
    return FiltrationTree._from_levels(masses, parents)

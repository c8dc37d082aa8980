"""Trees built and written from their level arrays: the builders against
the recursive reference builders, bit for bit, and the tree/v1 text
against the standard library's ``json.dumps``, byte for byte."""

import ast
import hashlib
import importlib
import json
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import bmolab
from bmolab import (
    FiltrationTree,
    RandomVariable,
    SchemaError,
    SizeCapError,
    build_dyadic,
    build_random,
    random_adapted_process,
    random_martingale,
    random_measure,
)
from bmolab.filtration import dump_json, write_text
from bmolab.process import _leaf_moduli, _modulus

import oracles


def _assert_same_levels(tree, root):
    ref = oracles.levels(root)
    assert tree.depth == len(ref) - 1
    for n, level in enumerate(ref):
        masses = np.array([m for m, _ in level], dtype=float)
        assert tree.masses(n).tobytes() == masses.tobytes()
        if n:
            assert np.array_equal(tree.parents(n), [p for _, p in level])


# == builders ================================================================


@pytest.mark.parametrize("depth", range(9))
def test_build_dyadic_matches_the_recursive_builder(depth):
    _assert_same_levels(build_dyadic(depth), oracles.build_dyadic(depth))


@pytest.mark.parametrize(
    "depth, max_branch", [(0, 3), (1, 2), (3, 3), (4, 4), (6, 2), (2, 9), (40, 1)]
)
@pytest.mark.parametrize("seed", range(12))
def test_build_random_matches_the_recursive_builder(seed, depth, max_branch):
    _assert_same_levels(build_random(seed, depth, max_branch),
                        oracles.build_random(seed, depth, max_branch))


@pytest.mark.parametrize("seed", range(8))
def test_build_random_atom_cap_boundary_matches(seed):
    atoms = build_random(seed, 5, 3).num_atoms
    assert atoms == sum(map(len, oracles.levels(oracles.build_random(seed, 5, 3))))
    build_random(seed, 5, 3, max_atoms=atoms)
    oracles.build_random(seed, 5, 3, max_atoms=atoms)
    with pytest.raises(SizeCapError):
        build_random(seed, 5, 3, max_atoms=atoms - 1)
    with pytest.raises(oracles.SizeCapError):
        oracles.build_random(seed, 5, 3, max_atoms=atoms - 1)


def _numpy_split(rng, k, redraws):
    weights = rng.dirichlet(np.ones(k))
    while float(weights.min()) < 1e-6:
        redraws.append(k)
        weights = rng.dirichlet(np.ones(k))
    return weights.tolist()


def test_flat_dirichlet_is_numpy_dirichlet_bitwise():
    """Exponentials over their left-to-right sum are numpy's flat Dirichlet,
    float for float and redraw for redraw, with ``integers`` drawn in
    between as the builder draws.  Two splits draw a weight below 1e-6 and
    are drawn again: a nine-way split among the first 1,000 seeds and a
    six-way split at seed 3822."""
    seen, redraws = set(), []
    for seed in [*range(1000), 3822]:
        ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(12):
            k = int(ours.integers(1, 13))
            assert int(reference.integers(1, 13)) == k
            if k > 1:
                seen.add(k)
                weights = bmolab.filtration._flat_dirichlet(ours, k)
                expected = _numpy_split(reference, k, redraws)
                assert np.array(weights).tobytes() == np.array(expected).tobytes()
    assert seen == set(range(2, 13))
    assert redraws == [9, 6]


def test_deep_chain_needs_no_recursion():
    tree = build_random(0, 1000, 1)
    assert tree.num_atoms == 1001
    text = tree.to_json()
    assert text.count('"mass": 1.0\n') == 1001
    again = FiltrationTree.from_dict(tree.to_dict())
    assert again == tree
    assert again.to_json() == text


# == the tree/v1 text ========================================================


@pytest.mark.parametrize("depth", range(9))
def test_dyadic_text_matches_stdlib(depth):
    assert build_dyadic(depth).to_json() == oracles.tree_json(oracles.build_dyadic(depth))


@pytest.mark.parametrize(
    "seed, depth, max_branch",
    [(s, 4, 3) for s in range(6)]
    + [(s, d, 1) for s, d in [(0, 0), (1, 1), (2, 7), (3, 150)]]  # chains
    + [(s, 2, 12) for s in range(3)] + [(7, 1, 40)],  # wide fans
)
def test_random_text_matches_stdlib(seed, depth, max_branch):
    root = oracles.build_random(seed, depth, max_branch)
    tree = build_random(seed, depth, max_branch)
    assert tree.to_json() == oracles.tree_json(root)
    assert tree.to_dict() == oracles.tree_doc(root)


def test_extreme_mass_reprs_match_stdlib():
    third = 1.0 / 3.0
    root = {"mass": 1.0, "children": [
        {"mass": 1e-300, "children": [{"mass": 1e-300, "children": []}]},
        {"mass": 5e-324, "children": [{"mass": 5e-324, "children": []}]},
        {"mass": third, "children": [{"mass": third, "children": []}]},
        {"mass": 1.0 - third, "children": [
            {"mass": 0.1, "children": []},
            {"mass": 1.0 - third - 0.1, "children": []},
        ]},
    ]}
    tree = FiltrationTree(root)
    text = tree.to_json()
    assert text == oracles.tree_json(root)
    assert "1e-300" in text and "5e-324" in text and "0.3333333333333333" in text
    assert FiltrationTree.from_dict(json.loads(text)).to_json() == text


# A level whose atoms share one mass gets its closing pieces from two shared
# strings; levels of distinct masses get one piece per atom.
ONE_MASS_LEVELS = {
    "chain": build_random(3, 40, 1),
    "fan of halves under a split": FiltrationTree({"mass": 1.0, "children": [
        {"mass": 0.5, "children": [{"mass": 0.25, "children": []}, {"mass": 0.25, "children": []}]},
        {"mass": 0.5, "children": [{"mass": 0.1, "children": []}, {"mass": 0.4, "children": []}]},
    ]}),
    "chain then fans": FiltrationTree({"mass": 1.0, "children": [{"mass": 1.0, "children": [
        {"mass": 0.5, "children": [{"mass": 0.5, "children": []}]},
        {"mass": 0.5, "children": [{"mass": 0.2, "children": []}, {"mass": 0.3, "children": []}]},
    ]}]}),
    # random trees holding both kinds of level below the root
    **{f"random {s}, {b}": build_random(s, 5, b) for s, b in
       [(1, 2), (11, 2), (24, 2), (34, 2), (14, 3), (30, 3), (34, 3)]},
}


@pytest.mark.parametrize("name", sorted(ONE_MASS_LEVELS))
def test_one_mass_levels_keep_their_text(name):
    tree = ONE_MASS_LEVELS[name]
    one_mass = {len(set(tree.masses(n).tolist())) == 1 for n in range(1, tree.depth + 1)}
    assert one_mass == ({True} if name == "chain" else {True, False})
    assert tree.to_json() == json.dumps(tree.to_dict(), indent=2, sort_keys=True)


def test_writing_a_dyadic_tree_holds_little_beside_its_text():
    """Every closing slot of a one-mass level shares one of two strings, so
    writing dyadic 14 (9.5 MB of text) peaks within 1.25 times the text."""
    tree = build_dyadic(14)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        text = tree.to_json()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * len(text)


@pytest.mark.parametrize("extra", [-1, 0, 1, (1 << 20) + 7])
def test_write_text_bytes_past_one_piece(tmp_path, extra):
    piece = 1 << 20  # write_text writes 1 MiB pieces
    text = build_dyadic(12).to_json()  # 2.1 MB of tree text, repeated and cut
    text = (text * (1 + (2 * piece + extra) // len(text)))[: 2 * piece + extra]
    path = tmp_path / "doc.json"
    write_text(str(path), text)
    assert path.read_bytes() == (text + "\n").encode()


# Split fractions with long and extreme reprs; the last child takes the rest.
FRACTIONS = (1e-300, 1e-17, 1e-6, 0.1, 1.0 / 3.0, 0.5, 2.0 / 3.0)


@st.composite
def roots(draw):
    depth = draw(st.integers(0, 4))

    def node(level, mass):
        if level == depth:
            return {"mass": mass, "children": []}
        parts, rest = [], mass
        for _ in range(draw(st.integers(1, 3)) - 1):
            part = rest * draw(st.sampled_from(FRACTIONS))
            assume(part > 0.0)
            parts.append(part)
            rest -= part
        parts.append(rest)
        return {"mass": mass, "children": [node(level + 1, p) for p in parts]}

    return node(0, 1.0)


@settings(max_examples=60, deadline=None)
@given(roots())
def test_drawn_tree_text_matches_stdlib(root):
    tree = FiltrationTree(root)
    text = tree.to_json()
    assert text == oracles.tree_json(root)
    assert tree.to_dict() == oracles.tree_doc(root)
    assert FiltrationTree.from_dict(json.loads(text)) == tree


def _rv(tree):
    return RandomVariable(tree, np.random.default_rng(11).standard_normal(tree.num_leaves))


DOCUMENTS = {
    "rv": _rv,
    "process-dim1": lambda tree: random_martingale(tree, 12, 1),
    "process-dim3": lambda tree: random_adapted_process(tree, 13, 3),
    "measure": lambda tree: random_measure(tree, 15),
}
TREES = {
    "dyadic-3": (lambda: build_dyadic(3), lambda: oracles.build_dyadic(3)),
    "random-3": (lambda: build_random(5, 3, 3), lambda: oracles.build_random(5, 3, 3)),
    "chain-9": (lambda: build_random(9, 9, 1), lambda: oracles.build_random(9, 9, 1)),
    "fan-2": (lambda: build_random(4, 2, 8), lambda: oracles.build_random(4, 2, 8)),
}


@pytest.mark.parametrize("kind", sorted(DOCUMENTS))
@pytest.mark.parametrize("shape", sorted(TREES))
def test_inline_tree_documents_match_stdlib(kind, shape):
    build, reference = TREES[shape]
    obj = DOCUMENTS[kind](build())
    doc = {**obj.to_dict(), "tree": oracles.tree_doc(reference())}
    assert obj.to_json() == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("shape", sorted(TREES))
def test_a_tree_nested_anywhere_is_written_in_place(shape):
    build, reference = TREES[shape]
    tree, doc = build(), oracles.tree_doc(reference())
    value = {"b": [1.5, {"t": tree, "u": [tree, build_dyadic(0)]}], "a": tree}
    want = {"b": [1.5, {"t": doc, "u": [doc, build_dyadic(0).to_dict()]}], "a": doc}
    assert dump_json(value) == json.dumps(want, indent=2, sort_keys=True)


def test_tree_bytes_are_pinned():
    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    assert sha(build_dyadic(12).to_json()) == "09f2a4b0bd103a27"
    assert sha(build_random(3, 12, 3).to_json()) == "4cc15c6de12e71ce"


@pytest.mark.parametrize(
    "seed, prefix",
    [(0, "bf915fa528720efe"), (1, "3b569677e246a39d"), (2, "97eb99e5cb24dfec"),
     (3, "ebe2c615e3a52661")],
)
def test_random_tree_bytes_do_not_depend_on_the_python_version(seed, prefix):
    """Trees with up to six children per split, pinned under Python 3.11.
    From Python 3.12 on, ``sum`` of floats compensates, which would move the
    last child's remainder in 5 to 14 splits of each of these trees; the
    builder sums left to right on every interpreter."""
    text = build_random(seed, 4, 6).to_json()
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == prefix


# == schema errors: the first bad node in depth-first order ==================


def _leaf(mass):
    return {"mass": mass, "children": []}


def _node(mass, *children):
    return {"mass": mass, "children": list(children)}


MALFORMED = {
    # A deep bad mass on the left comes before a shallow bad type on the right.
    "deep-left-first": (
        _node(1.0, _node(0.5, _leaf(-1), _leaf(0.5)), {"mass": "x"}),
        "mass must lie in (0, 1], got -1.0", "root/children/0/children/0",
    ),
    "not-an-object": (
        _node(1.0, _node(0.5, _leaf(0.5)), _node(0.5, _leaf(0.25), 7)),
        "atom must be an object with 'mass' and 'children'", "root/children/1/children/1",
    ),
    "children-not-a-list": (
        _node(1.0, _leaf(0.5), {"mass": 0.5, "children": {}}),
        "'children' must be a list", "root/children/1",
    ),
    "mass-not-a-number": (
        _node(1.0, _node(1.0, _leaf(0.5), _leaf(True))),
        "mass must be a number, got bool", "root/children/0/children/1",
    ),
    # The deeper early leaf comes first in depth-first order, not the
    # shallower leaf on the right.
    "early-leaf": (
        _node(1.0, _node(0.5, _leaf(0.25), _node(0.25, _leaf(0.25))), _leaf(0.5)),
        "leaf at level 2, but all leaves must sit at level 3", "root/children/0/children/0",
    ),
    # A refused node's children are never read, however malformed.
    "refused-parent-first": (
        _node(1.0, _leaf(0.25), {"mass": "x", "children": [7]}, _node(0.5, None)),
        "mass must be a number, got str", "root/children/1",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_tree_error_message_and_path(case):
    root, message, path = MALFORMED[case]
    with pytest.raises(SchemaError) as info:
        FiltrationTree(root)
    assert str(info.value) == f"{path}: {message}"
    assert info.value.path == path


class _Node(dict):
    pass


def _convert(node, mapping=dict, number=float):
    return mapping(mass=number(node["mass"]),
                   children=[_convert(c, mapping, number) for c in node["children"]])


READABLE = {
    "dict-subclass": lambda root: _convert(root, mapping=_Node),
    "numpy-float64": lambda root: _convert(root, number=np.float64),
    "int-root-mass": lambda root: {**root, "mass": 1},
}


@pytest.mark.parametrize("case", sorted(READABLE))
def test_reader_accepts_what_it_accepted(case):
    tree = build_random(5, 4, 3)
    again = FiltrationTree(READABLE[case](tree.to_dict()["root"]))
    assert again == tree
    assert again.to_json() == tree.to_json()


@pytest.mark.parametrize("path", ["root", "root/children/1", "root/children/0/children/0"])
@pytest.mark.parametrize("flag", [True, False])
def test_a_bool_mass_is_refused_as_before(path, flag):
    root = _node(1.0, _node(0.5, _leaf(0.5)), _node(0.5, _leaf(0.5)))
    node = root
    for j in path.split("/children/")[1:]:
        node = node["children"][int(j)]
    node["mass"] = flag
    with pytest.raises(SchemaError) as info:
        FiltrationTree(root)
    assert str(info.value) == f"{path}: mass must be a number, got bool"


def _chain(levels, leaf):
    node = leaf
    for _ in range(levels):
        node = {"mass": 1.0, "children": [node]}
    return node


def test_a_5000_level_chain_reads_without_recursion():
    assert FiltrationTree(_chain(5000, _leaf(1.0))) == build_random(0, 5000, 1)
    with pytest.raises(SchemaError) as info:
        FiltrationTree(_chain(5000, {"mass": "x", "children": []}))
    assert info.value.path == "root" + "/children/0" * 5000
    assert str(info.value).endswith(": mass must be a number, got str")


NUMERIC_FAULTS = {
    "zero-mass-deep-left": _node(1.0, _node(0.5, _leaf(0.5), _leaf(0.0)), _leaf(0.5)),
    "nan-mass": _node(1.0, _leaf(0.5), _node(0.5, _leaf(float("nan")))),
    "root-mass": _leaf(0.999999999999),
    "early-leaf": MALFORMED["early-leaf"][0],
    "child-sum": _node(1.0, _node(0.5, _leaf(0.5)), _node(0.5, _leaf(0.2), _leaf(0.2))),
    "level-total": _node(1.0, *[_node(0.5, _leaf(0.25 + 4.5e-13), _leaf(0.25 + 4.5e-13))] * 2),
}


@pytest.mark.parametrize("case", sorted(NUMERIC_FAULTS))
def test_array_path_reports_what_the_dict_path_reports(case):
    root = NUMERIC_FAULTS[case]
    ref = oracles.levels(root)
    masses = [[m for m, _ in level] for level in ref]
    parents = [[p for _, p in level] for level in ref]
    with pytest.raises(SchemaError) as from_dict:
        FiltrationTree(root)
    with pytest.raises(SchemaError) as from_levels:
        FiltrationTree._from_levels(masses, parents)
    assert str(from_levels.value) == str(from_dict.value)
    assert from_levels.value.path == from_dict.value.path


def _fuzzed_tree(rng):
    """A random tree document with one to three faults planted at random
    nodes: wrong types, missing keys, masses out of range or off their
    parent's sum, an early leaf, or an int too large for a float."""

    def grow(mass, level, depth):
        if level == depth:
            return _leaf(mass)
        k = rng.randint(1, 3)
        return _node(mass, *[grow(mass / k, level + 1, depth) for _ in range(k)])

    root = grow(1.0, 0, rng.randint(0, 4))
    holders = [(None, None)]
    stack = [root]
    while stack:
        node = stack.pop()
        for j, child in enumerate(node["children"]):
            holders.append((node["children"], j))
            stack.append(child)
    faults = [
        lambda n: 7, lambda n: None, lambda n: [], lambda n: {"children": []},
        lambda n: {**n, "mass": True}, lambda n: {**n, "mass": "0.5"},
        lambda n: {**n, "mass": -n["mass"]}, lambda n: {**n, "mass": 0},
        lambda n: {**n, "mass": 1.5}, lambda n: {**n, "mass": float("nan")},
        lambda n: {**n, "mass": 10**400}, lambda n: {**n, "mass": n["mass"] * (1 + 1e-9)},
        lambda n: {**n, "children": {}}, lambda n: {**n, "children": 3},
        lambda n: {"mass": n["mass"]}, lambda n: {**n, "children": n["children"] + [_leaf(0.1)]},
    ]
    for siblings, j in rng.sample(holders, min(len(holders), rng.randint(1, 3))):
        fault = rng.choice(faults)
        if siblings is None:
            root = fault(root)
        else:
            siblings[j] = fault(siblings[j])
    return root


def test_fuzzed_tree_errors_are_pinned():
    """The exception, message and node path of 4,000 seeded malformed
    documents, pinned as one sha256 prefix measured before the walk
    raised at `_atom_steps` paths.  It moved once, on exactly the 268
    documents whose first fault was a mass too large for a float: those
    raised `OverflowError`, and now raise `SchemaError` at the node."""
    rng = random.Random(20141404)
    lines = []
    for _ in range(4000):
        try:
            FiltrationTree(_fuzzed_tree(rng))
            lines.append("ok")
        except Exception as exc:  # noqa: BLE001 - the pin covers every type
            lines.append(f"{type(exc).__name__}: {exc} @ {getattr(exc, 'path', '')}")
    text = "\n".join(lines)
    assert "OverflowError" not in text
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "c3a60f91f901ab9e"


# == level sums: the tree keeps its layout to itself =========================


def test_only_the_tree_calls_reduceat():
    """Each atom's leaves, and its children, form one contiguous run; only
    filtration.py may sum over those runs with ``reduceat``."""
    package = Path(bmolab.__file__).parent
    calls = [
        f"{path.relative_to(package)}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "reduceat"
    ]
    assert calls
    assert [c for c in calls if not c.startswith("filtration.py:")] == []


def test_only_the_writer_writes_json_text():
    """``dump_json`` is the one JSON text writer: only filtration.py
    imports from ``json.encoder``, and no module calls ``json.dumps`` or
    ``json.dump``."""
    package = Path(bmolab.__file__).parent
    encoder, writes = [], []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            site = f"{path.relative_to(package)}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("json"):
                names = {alias.name for alias in node.names}
                if node.module.startswith("json.encoder") or "encoder" in names:
                    encoder.append(site)
                if names & {"dumps", "dump"}:
                    writes.append(site)
            if isinstance(node, ast.Import) and any(
                alias.name.startswith("json.encoder") for alias in node.names
            ):
                encoder.append(site)
            if (
                isinstance(node, ast.Attribute)
                and node.attr in ("dumps", "dump")
                and isinstance(node.value, ast.Name)
                and node.value.id == "json"
            ):
                writes.append(site)
    assert encoder and all(site.startswith("filtration.py:") for site in encoder)
    assert writes == []


def _pops_in_while_loops(node, func=None, in_while=False):
    """The innermost function around each ``.pop()`` call inside a
    ``while`` loop, once per call."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _pops_in_while_loops(child, child.name, False)
            continue
        if (
            in_while
            and isinstance(child, ast.Call)
            and isinstance(child.func, ast.Attribute)
            and child.func.attr == "pop"
        ):
            yield func
        yield from _pops_in_while_loops(child, func, in_while or isinstance(child, ast.While))


def test_only_the_walk_pops_a_stack():
    """Trees are read level by level and drawn by one depth-first walk; no
    other function keeps its own explicit stack."""
    package = Path(bmolab.__file__).parent
    sites = [
        f"{path.relative_to(package)}:{func}"
        for path in sorted(package.rglob("*.py"))
        for func in _pops_in_while_loops(ast.parse(path.read_text()))
    ]
    assert sites == ["filtration.py:build_random"]


def test_only_the_tree_reads_its_private_attributes():
    """No module outside filtration.py reads a ``_``-prefixed attribute of
    a tree, so the tree's layout can change behind its methods."""
    package = Path(bmolab.__file__).parent
    private = {
        name for name in dir(build_dyadic(2)) if name.startswith("_") and not name.endswith("__")
    }
    assert {"_parent", "_child_bounds", "_leaf_bounds", "_check_level"} <= private
    reads = [
        f"{path.relative_to(package)}:{node.lineno}:{node.attr}"
        for path in sorted(package.rglob("*.py"))
        if path.name != "filtration.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in private
    ]
    assert reads == []


def test_no_function_imports():
    """Every module imports at its top, so its dependencies show there."""
    package = Path(bmolab.__file__).parent
    sites = [
        f"{path.relative_to(package)}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for func in ast.walk(ast.parse(path.read_text()))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert sites == []


def test_no_tree_is_compared_by_identity():
    """Trees compare with ``==``, which is cheap for the same object, so no
    module writes its own ``.tree is`` shortcut."""
    package = Path(bmolab.__file__).parent
    sites = [
        f"{path.relative_to(package)}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Compare)
        and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
        and any(
            isinstance(side, ast.Attribute) and side.attr == "tree"
            for side in (node.left, *node.comparators)
        )
    ]
    assert sites == []


def test_every_exported_name_resolves():
    modules = [bmolab, *(
        importlib.import_module(f"bmolab.{path.stem}")
        for path in sorted(Path(bmolab.__file__).parent.glob("*.py"))
        if path.stem != "__init__"
    )]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", [])
        if not hasattr(module, name)
    ]
    assert "bmolab.process" in {module.__name__ for module in modules}
    assert missing == []


@st.composite
def wide_roots(draw):
    """Trees whose root has 8 to 12 children, where numpy's add switches to
    pairwise summation, and whose deeper atoms have 1 to 10."""
    depth = draw(st.integers(1, 3))

    def node(level, mass):
        if level == depth:
            return {"mass": mass, "children": []}
        k = draw(st.integers(8, 12) if level == 0 else st.integers(1, 10))
        return {"mass": mass, "children": [node(level + 1, mass / k) for _ in range(k)]}

    return node(0, 1.0)


@settings(max_examples=40, deadline=None)
@given(wide_roots(), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_level_sums_match_a_loop(root, dim, seed):
    tree = FiltrationTree(root)
    layers, parents = oracles.atom_layers(root), oracles.levels(root)
    rng = np.random.default_rng(seed)

    def shape(n):
        return (tree.atom_count(n),) if dim == 1 else (tree.atom_count(n), dim)

    leaf_rows = rng.standard_normal(shape(tree.depth))
    for n in range(tree.depth + 1):
        want = np.zeros(shape(n))
        for i, (start, stop, _) in enumerate(layers[n]):
            for j in range(start, stop):
                want[i] += leaf_rows[j]
        got = tree.atom_sums(leaf_rows, n)
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=0, atol=1e-12)
    for n in range(tree.depth):
        rows = rng.standard_normal(shape(n + 1))
        want = np.zeros(shape(n))
        for j, (_, parent) in enumerate(parents[n + 1]):
            want[parent] += rows[j]
        got = tree.child_sums(rows, n)
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_level_sums_refuse_wrong_rows_and_levels():
    tree = build_dyadic(2)
    with pytest.raises(ValueError, match="expected 4 rows"):
        tree.atom_sums(np.ones(3), 1)
    with pytest.raises(ValueError, match="expected 2 rows"):
        tree.child_sums(np.ones(4), 0)
    with pytest.raises(ValueError, match="no children"):
        tree.child_sums(np.ones(4), 2)
    with pytest.raises(ValueError, match="no children"):
        tree.child_slices(-1)
    assert tree.child_slices(1) == [slice(0, 2), slice(2, 4)]


@st.composite
def spread_trees(draw):
    """A chain, a tree with a wide root, or a random tree of up to 3**4 leaves."""
    kind = draw(st.sampled_from(["chain", "wide", "random"]))
    if kind == "wide":
        return FiltrationTree(draw(wide_roots()))
    seed, depth = draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 4))
    return build_random(seed, depth, 1 if kind == "chain" else 3)


@settings(max_examples=60, deadline=None)
@given(spread_trees(), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_spreading_by_leaf_counts_is_the_ancestor_gather(tree, dim, seed):
    """Every level's values, scalar or vector, bool or float, repeated over
    the leaf counts: the bits, shape and type of the leaf-ancestor gather,
    and what leaf_view and the leaf moduli give."""
    g = random_adapted_process(tree, seed, dim)
    for n in range(tree.depth + 1):
        ancestors = tree.leaf_ancestors(n)
        for rows in (g.level(n), g.level(n) > 0.0, np.arange(tree.atom_count(n))):
            got, want = tree.spread_to_leaves(rows, n), rows[ancestors]
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
        assert g.leaf_view(n).tobytes() == g.level(n)[ancestors].tobytes()
    gathered = np.stack([_modulus(g.level(n))[tree.leaf_ancestors(n)] for n in range(tree.depth + 1)])
    assert _leaf_moduli(g).tobytes() == gathered.tobytes()


def test_spreading_refuses_wrong_rows_and_levels():
    tree = build_dyadic(2)
    # one atom, so numpy would repeat each of two rows over the four leaves
    with pytest.raises(ValueError, match="expected 1 rows for level 0, got 2"):
        tree.spread_to_leaves(np.ones(2), 0)
    with pytest.raises(ValueError, match="expected 2 rows for level 1, got 4"):
        tree.spread_to_leaves(np.ones(4), 1)
    with pytest.raises(ValueError, match="out of range"):
        tree.spread_to_leaves(np.ones(4), 3)
    assert tree.spread_to_leaves(np.array([[1.0, 2.0], [3.0, 4.0]]), 1).tolist() == [
        [1.0, 2.0], [1.0, 2.0], [3.0, 4.0], [3.0, 4.0]]

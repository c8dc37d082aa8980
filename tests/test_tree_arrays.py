"""Trees built and written from their level arrays: the builders against
the recursive reference builders, bit for bit, and the tree/v1 text
against the standard library's ``json.dumps``, byte for byte."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

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
    doc = {**obj.to_dict(inline_tree=False), "tree": oracles.tree_doc(reference())}
    assert obj.to_json() == json.dumps(doc, indent=2, sort_keys=True)


def test_tree_bytes_are_pinned():
    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    assert sha(build_dyadic(12).to_json()) == "09f2a4b0bd103a27"
    assert sha(build_random(3, 12, 3).to_json()) == "4cc15c6de12e71ce"


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
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_tree_error_message_and_path(case):
    root, message, path = MALFORMED[case]
    with pytest.raises(SchemaError) as info:
        FiltrationTree(root)
    assert str(info.value) == f"{path}: {message}"
    assert info.value.path == path


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

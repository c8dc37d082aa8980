import json
import tracemalloc

import numpy as np
import pytest

from bmolab import (
    AtomRef,
    FiltrationTree,
    RandomVariable,
    SchemaError,
    SizeCapError,
    build_dyadic,
    build_random,
)
from bmolab.filtration import MAX_DYADIC_DEPTH

import oracles


# == construction and validation =============================================


def test_dyadic_shape():
    tree = build_dyadic(3)
    assert tree.depth == 3
    assert tree.num_leaves == 8
    assert tree.num_atoms == 15
    assert [tree.atom_count(n) for n in range(4)] == [1, 2, 4, 8]


def test_dyadic_masses_exact():
    tree = build_dyadic(4)
    for n in range(5):
        assert np.all(tree.masses(n) == 2.0**-n)
        assert float(np.sum(tree.masses(n))) == 1.0


def test_root_mass_must_be_exactly_one():
    with pytest.raises(SchemaError) as err:
        FiltrationTree({"mass": 0.999999999999, "children": []})
    assert err.value.path == "root"


def test_children_must_partition_parent():
    doc = {
        "mass": 1.0,
        "children": [
            {"mass": 0.6, "children": []},
            {"mass": 0.3, "children": []},
        ],
    }
    with pytest.raises(SchemaError) as err:
        FiltrationTree(doc)
    assert err.value.path == "root"
    assert "sum to" in str(err.value)


def test_error_path_points_at_the_bad_node():
    doc = {
        "mass": 1.0,
        "children": [
            {"mass": 0.5, "children": [{"mass": 0.5, "children": []}]},
            {
                "mass": 0.5,
                "children": [
                    {"mass": 0.2, "children": []},
                    {"mass": 0.2, "children": []},
                ],
            },
        ],
    }
    with pytest.raises(SchemaError) as err:
        FiltrationTree(doc)
    assert err.value.path == "root/children/1"


def test_leaves_must_sit_at_final_depth():
    doc = {
        "mass": 1.0,
        "children": [
            {"mass": 0.5, "children": []},
            {
                "mass": 0.5,
                "children": [
                    {"mass": 0.25, "children": []},
                    {"mass": 0.25, "children": []},
                ],
            },
        ],
    }
    with pytest.raises(SchemaError) as err:
        FiltrationTree(doc)
    assert "leaf at level" in str(err.value)


def test_mass_range_validated():
    with pytest.raises(SchemaError):
        FiltrationTree({"mass": 0.0, "children": []})
    with pytest.raises(SchemaError):
        FiltrationTree({"mass": "1", "children": []})


def test_declared_depth_checked():
    doc = build_dyadic(2).to_dict()
    doc["depth"] = 3
    with pytest.raises(SchemaError):
        FiltrationTree.from_dict(doc)
    # a JSON boolean is not an integer, though Python's bool is an int
    for depth in (True, False, 1.0):
        with pytest.raises(SchemaError, match="'depth' must be an integer") as err:
            FiltrationTree.from_dict({**build_dyadic(1).to_dict(), "depth": depth})
        assert err.value.path == "$"
    # the mismatch comes after a malformed node, before the tree's invariants
    for edit, message, path in [
        (lambda root: root["children"][1]["children"][0].update(mass="x"),
         "mass must be a number", "root/children/1/children/0"),
        (lambda root: root.update(mass=0.5), "declared depth 3", "root"),
        (lambda root: root["children"][0]["children"].clear(), "declared depth 3", "root"),
        (lambda root: root["children"][1]["children"][0].update(mass=0.3),
         "declared depth 3", "root"),
    ]:
        doc = build_dyadic(2).to_dict()
        doc["depth"] = 3
        edit(doc["root"])
        with pytest.raises(SchemaError, match=message) as err:
            FiltrationTree.from_dict(doc)
        assert err.value.path == path


def test_single_atom_space():
    tree = build_dyadic(0)
    assert tree.depth == 0
    assert tree.num_leaves == 1
    assert tree.masses(0)[0] == 1.0


# == navigation ==============================================================


def test_leaf_slices_partition_leaves():
    tree = build_random(7, 3, 3)
    for n in range(tree.depth + 1):
        starts = tree.leaf_starts(n)
        stops = np.append(starts[1:], tree.num_leaves)
        assert starts[0] == 0
        assert np.all(starts < stops)
        slices = [tree.leaf_slice(AtomRef(n, i)) for i in range(tree.atom_count(n))]
        assert slices == list(map(slice, starts.tolist(), stops.tolist()))


def test_parent_child_roundtrip():
    tree = build_random(11, 3, 3)
    with pytest.raises(ValueError):
        tree.parents(0)
    for n in range(1, tree.depth + 1):
        kids = tree.child_slices(n - 1)
        for i, parent in enumerate(tree.parents(n).tolist()):
            assert i in range(kids[parent].start, kids[parent].stop)


def test_children_masses_sum_to_parent():
    tree = build_random(13, 4, 3)
    for n in range(tree.depth):
        for i, kids in enumerate(tree.child_slices(n)):
            assert kids.stop > kids.start
            total = sum(tree.masses(n + 1)[kids].tolist())
            assert abs(total - tree.masses(n)[i]) <= 1e-12


def test_leaf_ancestors_and_leaf_slices_nest():
    tree = build_dyadic(3)
    leaf = 5
    assert [int(tree.leaf_ancestors(n)[leaf]) for n in range(4)] == [0, 1, 2, 5]
    # an atom contains another exactly when its leaf slice covers the other's
    assert tree.leaf_slice(AtomRef(1, 1)) == slice(4, 8)
    assert tree.leaf_slice(AtomRef(1, 0)) == slice(0, 4)
    assert tree.leaf_slice(AtomRef(3, leaf)) == slice(5, 6)


def test_leaf_ancestors_matches_slices():
    tree = build_random(17, 3, 3)
    for n in range(tree.depth + 1):
        anc = tree.leaf_ancestors(n)
        for i in range(tree.atom_count(n)):
            assert np.all(anc[tree.leaf_slice(AtomRef(n, i))] == i)


@pytest.mark.parametrize("tree", [build_dyadic(3), build_random(17, 3, 3), build_random(2, 6, 1)],
                         ids=["dyadic", "random", "chain"])
def test_leaf_ancestors_are_built_once_and_read_only(tree):
    for n in range(tree.depth + 1):
        anc = tree.leaf_ancestors(n)
        bounds = np.append(tree.leaf_starts(n), tree.num_leaves)
        assert np.array_equal(anc, np.repeat(np.arange(tree.atom_count(n)), np.diff(bounds)))
        assert tree.leaf_ancestors(n) is anc
        assert not anc.flags.writeable
        with pytest.raises(ValueError):
            anc[0] = 1


def test_a_fresh_tree_holds_no_leaf_ancestor_table():
    """The (depth + 1) x leaves table is built per level on first use, so a
    tree that is only built holds less than the table would take."""
    tracemalloc.start()
    try:
        tree = build_dyadic(14)
        held = tracemalloc.get_traced_memory()[0]
        tree.leaf_ancestors(14)
        one_level = tracemalloc.get_traced_memory()[0] - held
    finally:
        tracemalloc.stop()
    table = (tree.depth + 1) * tree.num_leaves * np.dtype(np.intp).itemsize
    assert held < table
    assert one_level >= tree.num_leaves * np.dtype(np.intp).itemsize


def test_atoms_are_stored_in_depth_first_order():
    # the layout the level sums rely on: each level's parent indices never
    # decrease, so every atom's children are one run of the next level
    tree = build_random(19, 4, 4)
    for n in range(tree.depth):
        parents = tree.parents(n + 1)
        assert np.all(np.diff(parents) >= 0)
        kids = tree.child_slices(n)
        assert [s.start for s in kids[1:]] == [s.stop for s in kids[:-1]]
        assert (kids[0].start, kids[-1].stop) == (0, tree.atom_count(n + 1))
        for i, s in enumerate(kids):
            assert np.all(parents[s] == i)


def test_equal_trees_hash_alike():
    for build in (lambda: build_dyadic(3), lambda: build_random(7, 3, 3)):
        a = build()
        same = [build(), FiltrationTree.from_dict(json.loads(a.to_json())),
                FiltrationTree(a.to_dict()["root"])]
        assert all(t == a for t in same)
        assert len({a, *same}) == 1
    assert len({build_dyadic(2), build_dyadic(3), build_random(7, 3, 3)}) == 3


def test_arrays_are_read_only():
    tree = build_dyadic(2)
    with pytest.raises(ValueError):
        tree.leaf_masses[0] = 2.0
    with pytest.raises(ValueError):
        tree.masses(1)[0] = 2.0


def test_level_bounds_checked():
    tree = build_dyadic(2)
    with pytest.raises(ValueError):
        tree.masses(3)
    with pytest.raises(ValueError):
        tree.leaf_slice(AtomRef(1, 5))


# == builders ================================================================


def test_dyadic_depth_cap():
    with pytest.raises(SizeCapError):
        build_dyadic(MAX_DYADIC_DEPTH + 1)


def test_random_tree_is_a_pure_function_of_its_arguments():
    a = build_random(42, 3, 3)
    b = build_random(42, 3, 3)
    assert a == b
    assert a.to_json() == b.to_json()
    c = build_random(43, 3, 3)
    assert a != c


def test_random_tree_respects_branch_limit():
    tree = build_random(5, 4, 3)
    for n in range(tree.depth):
        assert {s.stop - s.start for s in tree.child_slices(n)} <= {1, 2, 3}


def test_random_atom_cap():
    with pytest.raises(SizeCapError):
        build_random(0, 10, 3, max_atoms=50)


@pytest.mark.parametrize("depth, max_atoms", [(50, 50), (10**400, 1_000_000), (10**6, 200_000)],
                         ids=["50", "1e400", "1e6"])
def test_a_depth_past_the_atom_cap_is_refused_before_any_draw(monkeypatch, depth, max_atoms):
    """A tree of depth d has at least d + 1 atoms."""
    made = []
    monkeypatch.setattr(np.random, "default_rng", lambda *a: made.append(a))
    with pytest.raises(SizeCapError, match=f"^random tree exceeds the atom cap {max_atoms}$"):
        build_random(0, depth, 2, max_atoms=max_atoms)
    assert made == []


def test_a_chain_that_fills_the_atom_cap_is_built():
    assert build_random(0, 49, 1, max_atoms=50).num_atoms == 50


# == leaf masses agree with the reference walk ===============================


def test_leaf_masses_match_oracle():
    tree = build_random(23, 4, 3)
    doc = tree.to_dict()["root"]
    assert np.allclose(tree.leaf_masses, oracles.leaf_masses(doc), rtol=0, atol=0)
    layers = oracles.atom_layers(doc)
    for n in range(tree.depth + 1):
        refs = [AtomRef(n, i) for i in range(tree.atom_count(n))]
        got = [
            (tree.leaf_slice(r).start, tree.leaf_slice(r).stop, tree.masses(n)[r.index])
            for r in refs
        ]
        assert got == [(s, e, m) for s, e, m in layers[n]]


# == serialization ===========================================================


def test_round_trip_is_bit_exact():
    tree = build_random(29, 4, 3)
    doc = json.loads(tree.to_json())
    assert doc["schema"] == "tree/v1"
    again = FiltrationTree.from_dict(doc)
    assert again == tree
    assert again.to_json() == tree.to_json()


def test_save_and_load(tmp_path):
    tree = build_random(31, 3, 2)
    path = tmp_path / "tree.json"
    tree.save(str(path))
    assert FiltrationTree.load(str(path)) == tree


def test_resolve_tree_field(tmp_path):
    """A document's ``tree`` is a path string or an inline tree/v1 object."""
    tree = build_dyadic(2)
    path = tmp_path / "t.json"
    tree.save(str(path))
    doc = RandomVariable(tree, np.arange(4.0)).to_dict()
    assert RandomVariable.from_dict({**doc, "tree": str(path)}).tree == tree
    assert RandomVariable.from_dict({**doc, "tree": json.loads(tree.to_json())}).tree == tree
    with pytest.raises(SchemaError) as err:
        RandomVariable.from_dict({**doc, "tree": 42})
    assert err.value.path == "tree"


def test_json_rejects_wrong_schema():
    with pytest.raises(SchemaError):
        FiltrationTree.from_dict({"schema": "nope/v1", "root": {}})

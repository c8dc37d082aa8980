"""The tree-backed document formats (rv/v1, process/v1, measure/v1): schema
errors and where they point, tree paths relative to the document, and
the encoded bytes pinned at fixed seeds."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from bmolab import (
    CarlesonMeasure,
    Martingale,
    RandomVariable,
    SchemaError,
    build_dyadic,
    build_random,
    carleson_inequality_check,
    random_adapted_process,
    random_martingale,
    random_measure,
)


def _rv(tree):
    return RandomVariable(tree, np.random.default_rng(11).standard_normal(tree.num_leaves))


DOCUMENTS = {
    "rv": (RandomVariable, _rv, "leaves"),
    "martingale": (Martingale, lambda tree: random_martingale(tree, 12, 1), "levels"),
    "measure": (CarlesonMeasure, lambda tree: random_measure(tree, 15), "densities"),
}


def _wrong_schema(doc, field):
    doc["schema"] = "tree/v1"


def _not_an_object(doc, field):
    doc.clear()
    return [doc]


def _missing_tree(doc, field):
    del doc["tree"]


def _missing_field(doc, field):
    del doc[field]


def _wrong_length(doc, field):
    doc[field] = doc[field][:-1]


def _not_a_martingale(doc, field):
    doc[field][0] = [doc[field][0][0] + 1.0]


def _huge_integer(doc, field):
    row = doc[field]
    while isinstance(row[0], list):
        row = row[0]
    row[0] = 10**400  # an integer too large for a float


BROKEN = {
    "wrong-schema": (_wrong_schema, "$"),
    "not-an-object": (_not_an_object, "$"),
    "missing-tree": (_missing_tree, "$"),
    "missing-field": (_missing_field, "$"),
    "wrong-length": (_wrong_length, None),  # None: the field's own name
    "not-a-martingale": (_not_a_martingale, "levels"),
    "huge-integer": (_huge_integer, None),
}

CASES = [
    (kind, breakage)
    for kind in sorted(DOCUMENTS)
    for breakage in sorted(BROKEN)
    if breakage != "not-a-martingale" or kind == "martingale"
]


@pytest.mark.parametrize("kind, breakage", CASES)
def test_from_dict_error_paths(kind, breakage):
    cls, make, field = DOCUMENTS[kind]
    doc = make(build_dyadic(2)).to_dict()
    breaker, path = BROKEN[breakage]
    doc = breaker(doc, field) or doc
    with pytest.raises(SchemaError) as info:
        cls.from_dict(doc)
    assert type(info.value) is SchemaError
    assert info.value.path == (path or field)


@pytest.mark.parametrize("kind", ["rv", "martingale"])
@pytest.mark.parametrize("dim", [3, "1", 1.0, True, None, 10**400, "missing"])
def test_dim_must_be_the_width_of_the_values(kind, dim):
    cls, make, _ = DOCUMENTS[kind]
    doc = make(build_dyadic(2)).to_dict()
    if dim == "missing":
        del doc["dim"]
    else:
        doc["dim"] = dim
    with pytest.raises(SchemaError, match="the width of the values") as info:
        cls.from_dict(doc)
    assert info.value.path == "dim"


def test_vector_dim_is_checked_and_kept():
    f = random_adapted_process(build_dyadic(2), 13, 3)
    text = f.to_json()
    assert type(f).from_dict(json.loads(text)).to_json() == text
    doc = f.to_dict()
    doc["dim"] = 1
    with pytest.raises(SchemaError, match="expected the integer 3"):
        type(f).from_dict(doc)


@pytest.mark.parametrize("kind", ["rv", "martingale"])
def test_zero_width_document_is_refused(kind):
    cls, make, field = DOCUMENTS[kind]
    doc = make(build_dyadic(2)).to_dict()
    doc["dim"] = 0
    if kind == "rv":
        doc[field] = [[] for _ in doc[field]]
    else:
        doc[field] = [[[] for _ in level] for level in doc[field]]
    with pytest.raises(SchemaError, match="at least one component") as info:
        cls.from_dict(doc)
    assert info.value.path == field


@pytest.mark.parametrize("kind", ["martingale", "measure"])
def test_load_resolves_tree_path_against_document_dir(kind, tmp_path, monkeypatch):
    cls, make, _ = DOCUMENTS[kind]
    tree = build_random(5, 3, 3)
    obj = make(tree)
    sub = tmp_path / "docs"
    sub.mkdir()
    tree.save(str(sub / "tree.json"))
    doc = obj.to_dict()
    doc["tree"] = "tree.json"
    (sub / "doc.json").write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)  # the tree path must not resolve against the cwd
    again = cls.load("docs/doc.json")
    assert again.tree == tree
    assert again.to_json() == obj.to_json()


def test_rv_save_and_load(tmp_path):
    X = _rv(build_random(5, 3, 3))
    path = tmp_path / "x.json"
    X.save(str(path))
    assert path.read_text() == X.to_json() + "\n"
    assert RandomVariable.load(str(path)).to_json() == X.to_json()


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_document_bytes_are_pinned():
    tree = build_random(5, 3, 3)
    assert _sha(tree.to_json()) == "21f2b72e3353321f"
    assert _sha(_rv(tree).to_json()) == "41ca59b17a7a5e77"
    assert _sha(random_martingale(tree, 12, 1).to_json()) == "c264460a29210c5d"
    assert _sha(random_martingale(tree, 13, 3).to_json()) == "b46227e7c84dd3c2"
    assert _sha(random_measure(tree, 15).to_json()) == "2b0a070813d4a8a8"


def test_inequality_result_is_a_frozen_dataclass():
    tree = build_random(5, 3, 3)
    res = carleson_inequality_check(
        random_adapted_process(tree, 3, 1), random_measure(tree, 4), 2.0, 0.25
    )
    names = [
        "lhs", "lhs_layer_cake", "rhs", "holds", "p", "alpha", "constant",
        "carleson_norm", "maximal_strong_norm", "maximal_tail_term", "maximal_weak_norm",
    ]
    assert [f.name for f in dataclasses.fields(res)] == names
    d = dataclasses.asdict(res)
    assert list(d) == names
    assert d["carleson_norm"] == dataclasses.asdict(res.carleson_norm)
    with pytest.raises(dataclasses.FrozenInstanceError):
        res.lhs = 0.0

"""What the big-array paths hold, measured with tracemalloc on dyadic trees
of 4,096-16,384 leaves: a table is one float per (level, leaf) cell, and
no path builds one that its caller does not keep."""

import tracemalloc

import numpy as np
import pytest

from bmolab import (
    FiltrationTree,
    PredictableSequence,
    bmo_alpha_norm,
    build_dyadic,
    carleson_alpha_norm,
    first_passage,
    from_martingale,
    l2_lift,
    random_martingale,
    transform,
)


def _traced(call):
    """``call()``'s result, the bytes it left allocated and its peak, both
    over what was allocated before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = call()
        now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, now - before, peak - before


def _table(tree) -> int:
    return (tree.depth + 1) * tree.num_leaves * np.dtype(float).itemsize


def test_a_measure_holds_one_table():
    """``from_martingale`` keeps its densities and the tree's leaf counts,
    not a weighted copy or a leaf-ancestor table beside them."""
    tree = build_dyadic(14)
    f = random_martingale(tree, 1)
    mu, added, _ = _traced(lambda: from_martingale(f))
    assert mu.densities.nbytes == _table(tree)
    assert added < 1.25 * _table(tree)


def test_the_lift_peaks_at_its_output_and_one_levels_check():
    """The lift's levels are frozen as they are made, so the peak is the
    output plus the martingale check's arrays on its widest level: the
    weighted level and its child sums, twice that level's size."""
    tree = build_dyadic(14)
    f = random_martingale(tree, 1)
    lift, added, peak = _traced(lambda: l2_lift(f))
    output = sum(level.nbytes for level in lift.levels)
    widest = lift.levels[-1].nbytes
    assert added >= output
    assert peak <= output + 2.25 * widest


def test_the_transform_peaks_at_its_output_and_one_levels_check():
    """The transform's levels are made in place and frozen as they are
    made, so, as for the lift, the peak is the output plus the martingale
    check's arrays on its widest level: the weighted level, its child sums
    and the weighted parents, about 2.25 times that level's size."""
    tree = build_dyadic(14)
    f = random_martingale(tree, 1)
    ones = [np.ones(tree.atom_count(k - 1)) for k in range(1, tree.depth + 1)]
    v = PredictableSequence(tree, [1.0, *ones])
    tf, added, peak = _traced(lambda: transform(f, v))
    output = sum(level.nbytes for level in tf.levels)
    assert added >= output
    assert peak <= output + 2.5 * tf.levels[-1].nbytes


@pytest.mark.parametrize("depth", [12, 14])
def test_first_passage_compares_on_atoms(depth):
    """Per level, the comparison is made on the atoms and only its boolean
    is spread onto the leaves, so the peak is a few leaf rows (the first
    call also builds the tree's leaf counts, which it keeps)."""
    tree = build_dyadic(depth)
    f = random_martingale(tree, 1)
    lam = 0.75 * float(np.max(np.abs(f.level(depth))))
    first = first_passage(f, lam)
    tau, _, peak = _traced(lambda: first_passage(f, lam))
    assert tau == first and not tau.is_never()
    assert peak < _table(tree) / 4


def test_the_fast_scans_build_no_leaf_ancestor_table(monkeypatch):
    def refuse(self, n):
        raise AssertionError(f"leaf_ancestors({n}) called")

    monkeypatch.setattr(FiltrationTree, "leaf_ancestors", refuse)
    tree = build_dyadic(12)
    f = random_martingale(tree, 1, 2)
    assert bmo_alpha_norm(f, 0.25, "atom-fast").value > 0
    assert carleson_alpha_norm(from_martingale(f), 0.25, "node-fast").value > 0
    assert not first_passage(f, 0.5 * float(np.max(np.abs(f.level(12))))).is_never()


def test_the_measure_scan_keeps_one_running_row():
    """`node-fast` computes the weighted densities and then sums their
    suffixes over levels in one running row, so the peak is that table
    plus a few leaf rows (the row, the per-node tents and scores), not a
    second table of suffix sums."""
    tree = build_dyadic(14)
    mu = from_martingale(random_martingale(tree, 1))
    first = carleson_alpha_norm(mu, 0.25, "node-fast")
    again, _, peak = _traced(lambda: carleson_alpha_norm(mu, 0.25, "node-fast"))
    assert again == first
    assert peak <= _table(tree) + 12 * tree.num_leaves * np.dtype(float).itemsize

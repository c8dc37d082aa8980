import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bmolab import (
    AdaptedProcess,
    AtomRef,
    FiltrationTree,
    SchemaError,
    SizeCapError,
    StoppingTime,
    build_dyadic,
    build_random,
    count_stopping_times,
    enumerate_stopping_times,
    first_passage,
    indicator_process,
    random_martingale,
    stopped_before,
)

from bmolab.process import _leaf_moduli
from bmolab.stopping import resolve_max_enum

import oracles


# == construction ============================================================


def test_stops_are_sorted_and_deduped():
    tree = build_dyadic(2)
    tau = StoppingTime(tree, [(2, 3), (1, 0), (2, 3)])
    assert tau.stops == (AtomRef(1, 0), AtomRef(2, 3))


def test_overlapping_stops_rejected():
    tree = build_dyadic(2)
    with pytest.raises(ValueError, match="antichain"):
        StoppingTime(tree, [(1, 0), (2, 0)])


def test_tau_values_and_sentinel():
    tree = build_dyadic(2)
    tau = StoppingTime(tree, [(1, 0), (2, 2)])
    assert np.array_equal(tau.tau_values(), [1, 1, 2, 3])
    assert tau.tau_values()[3] == tree.depth + 1  # the never-stopping sentinel
    assert np.array_equal(tau.finite_mask(), [True, True, True, False])
    assert tau.prob_finite == 0.75


def test_never_stopping_time():
    tree = build_dyadic(2)
    tau = StoppingTime(tree, [])
    assert tau.is_never()
    assert tau.prob_finite == 0.0
    assert np.all(tau.tau_values() == 3)


@pytest.mark.parametrize("stop", [(1.5, 0), (True, 0), (1, 0.0), (1, np.bool_(False))])
def test_stop_positions_must_be_integers(stop):
    tree = build_dyadic(2)
    with pytest.raises(ValueError, match="^atom levels and indices must be integers, got "):
        StoppingTime(tree, [stop])
    assert StoppingTime(tree, [(np.int8(1), np.uint64(0))]).stops == (AtomRef(1, 0),)


def test_tent_mask_and_membership():
    tree = build_dyadic(2)
    tau = StoppingTime(tree, [(1, 0)])
    mask = tau.tau_values()[None, :] <= np.arange(tree.depth + 1)[:, None]
    assert mask.shape == (3, 4)
    assert np.array_equal(mask[0], [False, False, False, False])
    assert np.array_equal(mask[1], [True, True, False, False])
    assert np.array_equal(mask[2], [True, True, False, False])
    # leaf 0 is in the tent from level 1 on; leaf 2 never is
    assert np.array_equal(tau.tau_values(), [1, 1, 3, 3])


def test_tent_covers_the_atoms_below_its_stops():
    tree = build_dyadic(2)
    tau = StoppingTime(tree, [(1, 0)])
    mask = tau.tau_values()[None, :] <= np.arange(tree.depth + 1)[:, None]
    got = [
        (k, sorted(set(tree.leaf_ancestors(k)[mask[k]].tolist()))) for k in range(tree.depth + 1)
    ]
    assert got == [(0, []), (1, [0]), (2, [0, 1])]


# == counting and enumeration ================================================


def test_counts_on_dyadic_trees():
    assert count_stopping_times(build_dyadic(0)) == 2
    assert count_stopping_times(build_dyadic(1)) == 5
    assert count_stopping_times(build_dyadic(2)) == 26
    assert count_stopping_times(build_dyadic(3)) == 677


def test_count_matches_enumeration_and_oracle():
    tree = build_random(19, 3, 2)
    taus = list(enumerate_stopping_times(tree))
    assert len(taus) == count_stopping_times(tree)
    assert len(set(taus)) == len(taus)
    doc = tree.to_dict()["root"]
    oracle_set = {frozenset(ac) for ac in oracles.antichains(doc)}
    got_set = {frozenset((r.level, r.index) for r in t.stops) for t in taus}
    assert got_set == oracle_set


def test_enumeration_order_depth1():
    # stop-here first, then deferred combos, leftmost child slowest,
    # never-stopping last
    tree = build_dyadic(1)
    got = [t.stops for t in enumerate_stopping_times(tree)]
    assert got == [
        (AtomRef(0, 0),),
        (AtomRef(1, 0), AtomRef(1, 1)),
        (AtomRef(1, 0),),
        (AtomRef(1, 1),),
        (),
    ]


def test_enumeration_cap():
    tree = build_dyadic(3)
    with pytest.raises(SizeCapError, match="fast mode"):
        list(enumerate_stopping_times(tree, max_enum=100))
    assert len(list(enumerate_stopping_times(tree, max_enum=677))) == 677


def test_enumeration_cap_env_var(monkeypatch):
    tree = build_dyadic(2)
    monkeypatch.setenv("BMO_LAB_MAX_ENUM", "10")
    with pytest.raises(SizeCapError):
        list(enumerate_stopping_times(tree))
    # an explicit argument wins over the environment
    assert len(list(enumerate_stopping_times(tree, max_enum=26))) == 26


@pytest.mark.parametrize("value", ["lots", "1e6", "0", "-5"])
def test_bad_max_enum_env_var_names_itself(monkeypatch, value):
    monkeypatch.setenv("BMO_LAB_MAX_ENUM", value)
    with pytest.raises(ValueError, match=f"BMO_LAB_MAX_ENUM.*{value!r}"):
        resolve_max_enum(None)
    # an explicit argument never reads the variable
    assert resolve_max_enum(26) == 26


# == first passage ===========================================================


def test_first_passage_levels(depth2_example):
    _, f = depth2_example
    assert first_passage(f, 0.5).stops == (AtomRef(1, 0), AtomRef(1, 1))
    assert first_passage(f, 1.5).stops == (AtomRef(2, 0),)
    assert first_passage(f, 2.0).is_never()
    assert first_passage(f, math.inf).is_never()
    assert first_passage(f, -math.inf).stops == (AtomRef(0, 0),)
    with pytest.raises(ValueError, match="lam must be a number"):
        first_passage(f, math.nan)


def test_first_passage_is_strict(depth2_example):
    # |f_1| = 1 on both halves; crossing must be strict, so the threshold
    # 1.0 is only beaten by |f_2| = 2 on the first leaf
    _, f = depth2_example
    assert first_passage(f, 1.0).stops == (AtomRef(2, 0),)


def test_first_passage_uses_vector_modulus():
    tree = build_dyadic(1)
    from bmolab import Martingale

    f = Martingale(tree, [[[0.0, 0.0]], [[3.0, 4.0], [-3.0, -4.0]]])
    assert first_passage(f, 4.9).stops == (AtomRef(1, 0), AtomRef(1, 1))
    assert first_passage(f, 5.0).is_never()


def test_first_passage_matches_per_leaf_scan():
    tree = build_random(25, 3, 3)
    f = random_martingale(tree, 14, 1)
    lam = 0.5 * float(np.max(np.abs(f.leaf_view(tree.depth))))
    tau = first_passage(f, lam)
    t = tau.tau_values()
    for leaf in range(tree.num_leaves):
        path = [abs(float(f.leaf_view(n)[leaf])) for n in range(tree.depth + 1)]
        want = next((n for n, v in enumerate(path) if v > lam), tree.depth + 1)
        assert t[leaf] == want


@st.composite
def fanned_processes(draw):
    """An adapted process of dim 1 to 3 on a tree of depth 1 to 3 whose
    root has 8 to 12 children and whose deeper atoms have 1 to 9, with
    uneven masses; values are small integers, so moduli tie across atoms
    and levels."""
    depth = draw(st.integers(1, 3))
    dim = draw(st.integers(1, 3))

    def node(level, mass):
        if level == depth:
            return {"mass": mass, "children": []}
        weights = draw(st.lists(st.integers(1, 4), min_size=8 if level == 0 else 1,
                                max_size=12 if level == 0 else 9))
        total = sum(weights)
        return {"mass": mass,
                "children": [node(level + 1, mass * w / total) for w in weights]}

    tree = FiltrationTree(node(0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = [
        rng.integers(-2, 3, (tree.atom_count(n),) if dim == 1 else (tree.atom_count(n), dim))
        for n in range(depth + 1)
    ]
    return AdaptedProcess(tree, levels)


@settings(max_examples=60, deadline=None)
@given(fanned_processes())
def test_first_passage_matches_the_pair_based_reference(g):
    """The stop set read off the tau row equals the one built from every
    hit leaf's (level, ancestor) pair, at a threshold below every modulus
    and at each distinct modulus (a tie there does not stop: exceeding is
    strict)."""
    for lam in [-1.0, *np.unique(_leaf_moduli(g)).tolist()]:
        got, want = first_passage(g, lam), oracles.first_passage(g, lam)
        assert got.stops == want.stops
        assert np.array_equal(got.tau_values(), want.tau_values())
        assert got.prob_finite == want.prob_finite


# == derived processes =======================================================


def test_indicator_process_values(depth2_example):
    tree, _ = depth2_example
    tau = StoppingTime(tree, [(1, 0)])
    ind = indicator_process(tau)
    assert np.array_equal(ind.level(0), [0.0])
    assert np.array_equal(ind.level(1), [1.0, 0.0])
    assert np.array_equal(ind.level(2), [1.0, 1.0, 0.0, 0.0])


def test_indicator_values_are_exact_and_monotone():
    tree = build_dyadic(2)
    for tau in enumerate_stopping_times(tree):
        ind = indicator_process(tau)
        prev = np.zeros(tree.num_leaves)
        for n in range(tree.depth + 1):
            lv = ind.leaf_view(n)
            assert set(np.unique(lv)) <= {0.0, 1.0}
            assert np.all(lv >= prev)
            prev = lv


def test_stopped_before_values(depth2_example):
    tree, f = depth2_example
    tau = StoppingTime(tree, [(1, 0)])
    assert np.array_equal(stopped_before(f, tau).values, [0.0, 0.0, -1.0, -1.0])
    root = StoppingTime(tree, [(0, 0)])
    assert np.array_equal(stopped_before(f, root).values, [0.0, 0.0, 0.0, 0.0])
    never = StoppingTime(tree, [])
    assert np.array_equal(stopped_before(f, never).values, f.level(2))


def test_stopped_before_mixed_levels(depth2_example):
    tree, f = depth2_example
    tau = StoppingTime(tree, [(1, 0), (2, 2)])
    # leaves 0,1 stop at 1 (value f_0), leaf 2 stops at 2 (value f_1),
    # leaf 3 never stops (value f_2)
    assert np.array_equal(stopped_before(f, tau).values, [0.0, 0.0, -1.0, -1.0])


@pytest.mark.parametrize("seed", [6, 2])  # 4 leaves like the process's tree, then 5
def test_stopped_before_refuses_a_time_on_another_tree(depth2_example, seed):
    _, f = depth2_example
    other = build_random(seed, 2, 3)
    assert other != f.tree and other.num_leaves in (4, 5)
    with pytest.raises(ValueError, match="^process and stopping time live on different trees$"):
        stopped_before(f, StoppingTime(other, [(1, 0)]))


# == serialization ===========================================================


def test_tau_round_trip():
    tree = build_dyadic(2)
    tau = StoppingTime(tree, [(1, 0), (2, 2)])
    doc = tau.to_dict()
    assert doc == {"schema": "tau/v1", "stops": [[1, 0], [2, 2]]}
    assert StoppingTime.from_dict(tree, doc) == tau


def test_tau_schema_errors():
    tree = build_dyadic(2)
    with pytest.raises(SchemaError):
        StoppingTime.from_dict(tree, {"schema": "tau/v1", "stops": [[1]]})
    with pytest.raises(SchemaError):
        StoppingTime.from_dict(tree, {"schema": "tau/v2", "stops": []})
    with pytest.raises(SchemaError):
        StoppingTime.from_dict(tree, {"schema": "tau/v1", "stops": [[1, 0], [2, 0]]})


@pytest.mark.parametrize(
    "stop", [[1.5, 0], [True, 0], ["1", "0"], [1, 0.0], [1, False], [1, None]]
)
def test_tau_stops_must_be_integers(stop):
    tree = build_dyadic(2)
    with pytest.raises(SchemaError) as exc:
        StoppingTime.from_dict(tree, {"schema": "tau/v1", "stops": [[2, 3], stop]})
    assert exc.value.path == "stops"


@pytest.mark.parametrize("value", [0, -3, 2.5, 26.0, True, "10"])
def test_non_positive_max_enum_is_refused(monkeypatch, value):
    # the same rule as for the variable, which an explicit value overrides;
    # the value itself must be an integer, not one that int() reads as one
    monkeypatch.setenv("BMO_LAB_MAX_ENUM", "10")
    with pytest.raises(ValueError, match=f"^max_enum must be a positive integer, got {re.escape(repr(value))}$"):
        resolve_max_enum(value)
    with pytest.raises(ValueError, match="max_enum"):
        list(enumerate_stopping_times(build_dyadic(1), max_enum=value))

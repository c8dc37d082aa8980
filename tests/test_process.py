import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from bmolab import (
    AdaptedProcess,
    Martingale,
    PredictableSequence,
    RandomVariable,
    build_dyadic,
    build_random,
    conditional_expectation,
    differences,
    martingale_from_final,
    random_adapted_process,
    random_martingale,
)

from bmolab.process import MARTINGALE_TOL, _leaf_moduli, _modulus

import oracles


# == random variables ========================================================


def test_rv_shape_and_finiteness_validated():
    tree = build_dyadic(1)
    with pytest.raises(ValueError):
        RandomVariable(tree, [1.0])
    with pytest.raises(ValueError):
        RandomVariable(tree, [1.0, float("nan")])
    with pytest.raises(ValueError):
        RandomVariable(tree, [[[1.0]], [[2.0]]])


def test_rv_values_frozen():
    tree = build_dyadic(1)
    X = RandomVariable(tree, [1.0, -1.0])
    with pytest.raises(ValueError):
        X.values[0] = 5.0


def test_rv_modulus_euclidean():
    tree = build_dyadic(1)
    Y = RandomVariable(tree, [[3.0, 4.0], [0.0, 0.0]])
    assert np.array_equal(_modulus(Y.values), [5.0, 0.0])


@pytest.mark.parametrize("dim", [1, 3])
def test_leaf_moduli_take_one_modulus_per_atom(dim):
    """One modulus per atom, then spread onto the leaves: the bits of every
    leaf row's own modulus, overflow redo included."""
    tree = build_random(4, 5, 3)
    g = random_adapted_process(tree, 9, dim)
    huge = AdaptedProcess(tree, [level * 1e300 for level in g.levels])
    for h in (g, huge):
        spread_first = np.stack([_modulus(h.leaf_view(n)) for n in range(tree.depth + 1)])
        assert _leaf_moduli(h).tobytes() == spread_first.tobytes()
    assert np.isfinite(_leaf_moduli(huge)).all()  # every square overflowed at dim 3


def test_zero_width_values_are_refused():
    tree = build_dyadic(1)
    with pytest.raises(ValueError, match="^vector values must have at least one component$"):
        RandomVariable(tree, np.zeros((2, 0)))
    with pytest.raises(ValueError, match="^level 0: vector values must have at least one"):
        AdaptedProcess(tree, [np.zeros((1, 0)), np.zeros((2, 0))])
    with pytest.raises(ValueError, match="at least one component"):
        Martingale(tree, [np.zeros((1, 0)), np.zeros((2, 0))])
    with pytest.raises(ValueError, match="at least one component"):
        random_martingale(tree, 3, 0)
    with pytest.raises(ValueError, match="at least one component"):
        random_adapted_process(tree, 3, 0)


def test_negative_widths_are_refused_as_zero_width():
    tree = build_dyadic(1)
    for make in (random_martingale, random_adapted_process):
        with pytest.raises(ValueError, match="^vector values must have at least one component$"):
            make(tree, 3, -1)


# == conditional expectation =================================================


def test_conditional_expectation_depth2(depth2_example):
    tree, _ = depth2_example
    X = RandomVariable(tree, [2.0, 0.0, -1.0, -1.0])
    assert np.array_equal(conditional_expectation(X, 0), [0.0])
    assert np.array_equal(conditional_expectation(X, 1), [1.0, -1.0])
    assert np.array_equal(conditional_expectation(X, 2), [2.0, 0.0, -1.0, -1.0])


def test_conditional_expectation_matches_oracle():
    tree = build_random(3, 3, 3)
    rng = np.random.default_rng(0)
    X = RandomVariable(tree, rng.normal(size=tree.num_leaves))
    doc = tree.to_dict()["root"]
    want = oracles.cond_exp_levels(doc, X.values.tolist())
    for n in range(tree.depth + 1):
        got = conditional_expectation(X, n)
        assert np.allclose(got, [v[0] for v in want[n]], rtol=0, atol=1e-12)


def test_tower_property():
    tree = build_random(5, 4, 3)
    rng = np.random.default_rng(1)
    X = RandomVariable(tree, rng.normal(size=(tree.num_leaves, 2)))
    f = martingale_from_final(X)
    for n in range(tree.depth):
        # averaging level n+1 over level-n atoms reproduces level n
        w = tree.masses(n + 1)
        vals = f.level(n + 1) * w[:, None]
        sums = np.zeros_like(f.level(n))
        np.add.at(sums, tree.parents(n + 1), vals)
        assert np.allclose(sums / tree.masses(n)[:, None], f.level(n), atol=1e-12)


# == adapted processes and martingales =======================================


def test_adapted_process_shape_checks():
    tree = build_dyadic(1)
    with pytest.raises(ValueError):
        AdaptedProcess(tree, [[0.0]])
    with pytest.raises(ValueError):
        AdaptedProcess(tree, [[0.0], [1.0, 2.0, 3.0]])
    with pytest.raises(ValueError):
        AdaptedProcess(tree, [[0.0], [[1.0, 0.0], [2.0, 0.0]]])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 4), st.sampled_from([1, 3]), st.integers(1, 3),
       st.integers(0, 7))
def test_a_wrong_length_level_list_raises_the_length_error_first(seed, depth, branch, dim, count):
    """Levels that would each be refused too (one value too many, all NaN)
    are not read when the list has the wrong length."""
    assume(count != depth + 1)
    tree = build_random(seed, depth, branch)
    shape = [(tree.atom_count(min(n, depth)) + 1,) + ((dim,) if dim > 1 else ()) for n in range(count)]
    bad = [np.full(s, np.nan) for s in shape]
    for cls in (AdaptedProcess, Martingale):
        for levels in (bad, tuple(bad)):
            with pytest.raises(ValueError, match=f"^expected {depth + 1} levels, got {count}$"):
                cls(tree, levels)


@pytest.mark.parametrize("dim", [1, 2])
def test_levels_from_an_iterator_give_the_bits_of_the_list(dim):
    tree = build_random(5, 4, 3)
    f = random_martingale(tree, 3, dim)
    for cls in (AdaptedProcess, Martingale):
        got = cls(tree, iter(f.levels))
        assert [a.tobytes() for a in got.levels] == [a.tobytes() for a in f.levels]
        assert all(not a.flags.writeable for a in got.levels)
    with pytest.raises(ValueError, match="^expected 5 levels, got 4$"):
        AdaptedProcess(tree, iter(f.levels[:-1]))
    with pytest.raises(ValueError, match="^expected 5 levels, got more$"):
        AdaptedProcess(tree, iter([*f.levels, f.levels[-1]]))


def test_leaf_view_spreads_values():
    tree = build_dyadic(2)
    g = AdaptedProcess(tree, [[7.0], [1.0, 2.0], [1.0, 2.0, 3.0, 4.0]])
    assert np.array_equal(g.leaf_view(0), [7.0] * 4)
    assert np.array_equal(g.leaf_view(1), [1.0, 1.0, 2.0, 2.0])
    assert np.array_equal(g.final_value().values, [1.0, 2.0, 3.0, 4.0])


def test_martingale_property_enforced():
    tree = build_dyadic(1)
    Martingale(tree, [[0.0], [1.0, -1.0]])
    with pytest.raises(ValueError):
        Martingale(tree, [[0.0], [1.0, -0.5]])


def test_martingale_property_tolerance_is_tight():
    tree = build_dyadic(1)
    Martingale(tree, [[0.0], [1.0 + 1e-11, -1.0]])
    with pytest.raises(ValueError):
        Martingale(tree, [[0.0], [1.0 + 1e-9, -1.0]])


def test_martingale_from_final_reproduces_final(depth2_example):
    tree, f = depth2_example
    assert np.array_equal(f.level(0), [0.0])
    assert np.array_equal(f.level(1), [1.0, -1.0])
    assert np.array_equal(f.final_value().values, [2.0, 0.0, -1.0, -1.0])


# == increments ==============================================================


def test_differences_depth2(depth2_example):
    _, f = depth2_example
    d = differences(f)
    assert d.depth + 1 == 3
    assert np.array_equal(d.level(0), [0.0])
    assert np.array_equal(d.level(1), [1.0, -1.0])
    assert np.array_equal(d.level(2), [1.0, -1.0, 0.0, 0.0])


def test_differences_telescope():
    tree = build_random(9, 3, 3)
    f = random_martingale(tree, 2, 2)
    d = differences(f)
    acc = np.zeros_like(f.leaf_view(0))
    for k in range(tree.depth + 1):
        acc = acc + d.leaf_view(k)
        assert np.allclose(acc, f.leaf_view(k), atol=1e-12)


def test_increments_are_orthogonal():
    # distinct increments have zero inner product in L^2
    tree = build_random(15, 3, 3)
    f = random_martingale(tree, 4, 1)
    d = differences(f)
    w = tree.leaf_masses
    for j in range(tree.depth + 1):
        for k in range(j + 1, tree.depth + 1):
            inner = float(np.sum(d.leaf_view(j) * d.leaf_view(k) * w))
            assert abs(inner) <= 1e-12


def test_squared_norm_splits_over_increments():
    tree = build_random(21, 4, 2)
    f = random_martingale(tree, 5, 1)
    d = differences(f)
    w = tree.leaf_masses
    total = float(np.sum(f.leaf_view(tree.depth) ** 2 * w))
    parts = sum(float(np.sum(d.leaf_view(k) ** 2 * w)) for k in range(tree.depth + 1))
    assert abs(total - parts) <= 1e-12 * max(1.0, total)


def test_martingale_checks_against_the_package_tolerance():
    tree = build_dyadic(1)
    Martingale(tree, [[0.0], [MARTINGALE_TOL, MARTINGALE_TOL]])
    with pytest.raises(ValueError, match="martingale property fails"):
        Martingale(tree, [[0.0], [2 * MARTINGALE_TOL, 2 * MARTINGALE_TOL]])
    with pytest.raises(TypeError):
        Martingale(tree, [[0.0], [1.0, 1.0]], tol=1.0)


def test_martingale_check_is_relative_to_the_children_scale():
    tree = build_random(0, 3, 3)
    f = random_martingale(tree, 0, 1)
    for k in (10, 26, 28, 40, 300, 900):
        Martingale(tree, [level * 2.0**k for level in f.levels])
    levels = [level * 2.0**40 for level in f.levels]
    levels[-1] = levels[-1].copy()
    levels[-1][0] *= 1 + 1e-6
    with pytest.raises(ValueError, match="martingale property fails"):
        Martingale(tree, levels)


def test_differences_are_an_adapted_process_that_refuses_an_overflow():
    tree = build_dyadic(1)
    d = differences(AdaptedProcess(tree, [[1.0], [3.0, -1.0]]))
    assert isinstance(d, AdaptedProcess)
    assert d.level(1).tolist() == [2.0, -2.0]
    g = AdaptedProcess(tree, [[-1e308], [1.7e308, -1.7e308]])
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="^level 1 has non-finite values$"):
            differences(g)


def test_differences_refuses_an_overflow_without_a_warning():
    # the test run turns RuntimeWarnings into errors, so a warning raised
    # before the refusal fails here
    g = AdaptedProcess(build_dyadic(1), [[-1e308], [1.7e308, -1.7e308]])
    with pytest.raises(ValueError, match="^level 1 has non-finite values$"):
        differences(g)


# == predictable sequences ===================================================


def test_predictable_shapes_and_bound():
    tree = build_dyadic(2)
    v = PredictableSequence(tree, [[2.0], [-1.0], [0.5, -3.0]])
    assert v.bound == 3.0
    assert np.array_equal(v.values_on_level(0), [2.0])
    assert np.array_equal(v.values_on_level(1), [-1.0, -1.0])
    assert np.array_equal(v.values_on_level(2), [0.5, 0.5, -3.0, -3.0])


def test_predictable_shape_validated():
    tree = build_dyadic(2)
    with pytest.raises(ValueError):
        PredictableSequence(tree, [[1.0], [1.0, 2.0], [1.0]])
    for coeffs, k in [
        ([[math.nan], [1.0], [0.5, 0.25]], 0),
        ([[1.0], [math.nan], [0.5, 0.25]], 1),
        ([[1.0], [1.0], [0.5, -math.inf]], 2),
    ]:
        with pytest.raises(ValueError, match=rf"coeffs\[{k}\] has non-finite values"):
            PredictableSequence(tree, coeffs)


# == random generators =======================================================


def test_random_martingale_deterministic():
    tree = build_random(33, 3, 3)
    a = random_martingale(tree, 7, 1)
    b = random_martingale(tree, 7, 1)
    assert all(np.array_equal(x, y) for x, y in zip(a.levels, b.levels))
    c = random_martingale(tree, 8, 1)
    assert not all(np.array_equal(x, y) for x, y in zip(a.levels, c.levels))


def test_random_martingale_vector_dim():
    tree = build_dyadic(2)
    f = random_martingale(tree, 1, 3)
    assert f.dim == 3
    assert f.level(2).shape == (4, 3)


def test_random_adapted_process_not_necessarily_martingale():
    tree = build_dyadic(3)
    g = random_adapted_process(tree, 12, 1)
    assert isinstance(g, AdaptedProcess)
    assert not isinstance(g, Martingale)


# == serialization ===========================================================


def test_process_round_trip_bit_exact():
    tree = build_random(41, 3, 3)
    f = random_martingale(tree, 9, 2)
    doc = json.loads(f.to_json())
    assert doc["schema"] == "process/v1"
    again = Martingale.from_dict(doc)
    assert again.to_json() == f.to_json()
    assert all(np.array_equal(x, y) for x, y in zip(again.levels, f.levels))


def test_rv_round_trip_bit_exact():
    tree = build_random(43, 2, 3)
    rng = np.random.default_rng(3)
    X = RandomVariable(tree, rng.normal(size=tree.num_leaves))
    doc = json.loads(X.to_json())
    again = RandomVariable.from_dict(doc)
    assert np.array_equal(again.values, X.values)


def test_process_save_and_load(tmp_path):
    tree = build_dyadic(2)
    f = random_martingale(tree, 6, 1)
    path = tmp_path / "f.json"
    f.save(str(path))
    again = Martingale.load(str(path))
    assert all(np.array_equal(x, y) for x, y in zip(again.levels, f.levels))

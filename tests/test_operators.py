import numpy as np
import pytest

from bmolab import (
    Martingale,
    PredictableSequence,
    RandomVariable,
    bmo_alpha_norm,
    build_dyadic,
    build_random,
    differences,
    first_passage,
    indicator_process,
    l2_lift,
    lp_norm,
    martingale_from_final,
    maximal,
    process_bmo_alpha_norm,
    random_adapted_process,
    random_martingale,
    running_maximal,
    square_function,
    transform,
)


# == martingale transform ====================================================


def _level_constants(tree, scalars):
    """Coefficients taking ``scalars[k]`` on every level-(k-1) atom."""
    return [[scalars[0]]] + [
        np.full(tree.atom_count(k - 1), s) for k, s in enumerate(scalars[1:], 1)
    ]


def test_transform_identity_and_zero(depth2_example):
    tree, f = depth2_example
    one = PredictableSequence(tree, [[1.0], [1.0], [1.0, 1.0]])
    tf = transform(f, one)
    assert all(np.array_equal(a, b) for a, b in zip(tf.levels, f.levels))
    zero = PredictableSequence(tree, [[0.0], [0.0], [0.0, 0.0]])
    assert all(np.all(lvl == 0.0) for lvl in transform(f, zero).levels)


def test_transform_scales_each_increment(depth2_example):
    tree, f = depth2_example
    v = PredictableSequence(tree, [[2.0], [-1.0], [3.0, 3.0]])
    tf = transform(f, v)
    d, dt = differences(f), differences(tf)
    assert np.array_equal(dt.level(0), 2.0 * d.level(0))
    assert np.array_equal(dt.level(1), -1.0 * d.level(1))
    assert np.array_equal(dt.level(2), 3.0 * d.level(2))


def test_transform_result_is_a_martingale():
    tree = build_random(150, 3, 3)
    f = random_martingale(tree, 1, 1)
    rng = np.random.default_rng(2)
    coeffs = [rng.uniform(-2, 2, 1)]
    for k in range(1, tree.depth + 1):
        coeffs.append(rng.uniform(-2, 2, tree.atom_count(k - 1)))
    tf = transform(f, PredictableSequence(tree, coeffs))
    assert isinstance(tf, Martingale)


def test_transform_vector_values():
    tree = build_dyadic(1)
    f = Martingale(tree, [[[0.0, 0.0]], [[1.0, 2.0], [-1.0, -2.0]]])
    v = PredictableSequence(tree, [[1.0], [-2.0]])
    tf = transform(f, v)
    assert np.array_equal(tf.level(1), [[-2.0, -4.0], [2.0, 4.0]])


def test_transform_tree_mismatch():
    f = random_martingale(build_dyadic(2), 1, 1)
    v = PredictableSequence(build_dyadic(1), [[1.0], [1.0]])
    with pytest.raises(ValueError):
        transform(f, v)


def test_transform_norm_bound_and_unimodular_equality():
    tree = build_random(160, 3, 3)
    f = random_martingale(tree, 3, 1)
    for alpha in (0.0, 0.5):
        nf = bmo_alpha_norm(f, alpha).value
        signs = PredictableSequence(
            tree, _level_constants(tree, [(-1.0) ** k for k in range(tree.depth + 1)])
        )
        assert bmo_alpha_norm(transform(f, signs), alpha).value == pytest.approx(
            nf, rel=1e-12
        )
        half = PredictableSequence(tree, _level_constants(tree, [0.5] * (tree.depth + 1)))
        assert bmo_alpha_norm(transform(f, half), alpha).value <= 0.5 * nf + 1e-12


# == the coordinate lift =====================================================


def test_lift_shapes_and_coordinates(depth2_example):
    tree, f = depth2_example
    lift = l2_lift(f)
    assert lift.dim == 3
    d = differences(f)
    assert np.array_equal(lift.level(0)[:, 0], d.level(0))
    assert np.array_equal(lift.level(1)[:, 1], d.level(1))
    assert np.array_equal(lift.level(2)[:, 2], d.level(2))
    # coordinate k freezes once level k has passed
    assert np.array_equal(lift.leaf_view(2)[:, 1], d.leaf_view(1))


def test_lift_modulus_is_the_square_function(depth2_example):
    _, f = depth2_example
    lift = l2_lift(f)
    sf = square_function(f)
    for n in range(f.depth + 1):
        assert np.allclose(lift.modulus_level(n), sf.level(n), atol=1e-12)


def test_lift_is_a_martingale_and_isometry():
    tree = build_random(170, 4, 3)
    f = random_martingale(tree, 5, 1)
    lift = l2_lift(f)
    assert isinstance(lift, Martingale)
    for alpha in (0.0, 0.25, 1.0):
        assert bmo_alpha_norm(lift, alpha).value == pytest.approx(
            bmo_alpha_norm(f, alpha).value, rel=1e-12
        )


def test_lift_rejects_vector_input():
    tree = build_dyadic(1)
    f = Martingale(tree, [[[0.0, 0.0]], [[1.0, 0.0], [-1.0, 0.0]]])
    with pytest.raises(ValueError):
        l2_lift(f)


# == the square function =====================================================


def test_square_function_values(depth2_example):
    _, f = depth2_example
    sf = square_function(f)
    assert np.array_equal(sf.level(0), [0.0])
    assert np.array_equal(sf.level(1), [1.0, 1.0])
    assert np.allclose(sf.level(2), [np.sqrt(2.0), np.sqrt(2.0), 1.0, 1.0], atol=1e-15)


def test_square_function_monotone_and_pythagoras():
    tree = build_random(180, 3, 3)
    f = random_martingale(tree, 7, 1)
    sf = square_function(f)
    for n in range(1, tree.depth + 1):
        assert np.all(sf.leaf_view(n) >= sf.leaf_view(n - 1) - 1e-15)
    final = RandomVariable(tree, sf.leaf_view(tree.depth))
    assert lp_norm(final, 2.0) == pytest.approx(
        lp_norm(f.final_value(), 2.0), rel=1e-12
    )


def test_square_function_norm_bound_constant_one():
    for seed in range(10):
        tree = build_random(190 + seed, 3, 3)
        f = random_martingale(tree, seed, 1)
        for alpha in (0.0, 0.5, 1.0):
            ns = process_bmo_alpha_norm(square_function(f), alpha)
            nf = bmo_alpha_norm(f, alpha).value
            assert ns <= nf + 1e-9 * max(1.0, nf)


def test_square_increment_below_lift_increment():
    # |S_N - S_{n-1}| <= |U_N - U_{n-1}| pointwise, the reverse triangle
    # inequality in the lifted space
    tree = build_random(200, 3, 3)
    f = random_martingale(tree, 9, 1)
    sf, lift = square_function(f), l2_lift(f)
    final_s, final_u = sf.leaf_view(tree.depth), lift.leaf_view(tree.depth)
    for n in range(tree.depth + 1):
        prev_s = np.zeros_like(final_s) if n == 0 else sf.leaf_view(n - 1)
        prev_u = np.zeros_like(final_u) if n == 0 else lift.leaf_view(n - 1)
        lhs = np.abs(final_s - prev_s)
        rhs = np.sqrt(np.sum((final_u - prev_u) ** 2, axis=1))
        assert np.all(lhs <= rhs + 1e-12)


# == the maximal function ====================================================


def test_maximal_values(depth2_example):
    tree, f = depth2_example
    m = running_maximal(f)
    assert np.array_equal(m.level(0), [0.0])
    assert np.array_equal(m.level(1), [1.0, 1.0])
    assert np.array_equal(m.level(2), [2.0, 1.0, 1.0, 1.0])
    assert np.array_equal(maximal(f).values, [2.0, 1.0, 1.0, 1.0])


def test_maximal_dominates_and_is_monotone():
    tree = build_random(210, 4, 3)
    g = random_adapted_process(tree, 11, 2)
    m = running_maximal(g)
    for n in range(tree.depth + 1):
        mods = np.sqrt(np.sum(g.leaf_view(n) ** 2, axis=1))
        assert np.all(m.leaf_view(n) >= mods - 1e-15)
        if n > 0:
            assert np.all(m.leaf_view(n) >= m.leaf_view(n - 1))


def test_maximal_of_indicator_is_the_finite_set(depth2_example):
    tree, f = depth2_example
    for lam in (0.5, 1.0, 1.5, 2.0):
        tau = first_passage(f, lam)
        chi = np.where(tau.finite_mask(), 1.0, 0.0)
        assert np.array_equal(maximal(indicator_process(tau)).values, chi)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmolab import (
    RandomVariable,
    SizeCapError,
    bmo_alpha_norm,
    bmo_alpha_p_norm,
    bmo_ratio_at,
    build_dyadic,
    build_random,
    layer_cake,
    lp_norm,
    martingale_from_final,
    power_integral,
    process_bmo_alpha_norm,
    random_martingale,
    replay_bmo_witness,
    square_function,
    weak_lq_norm,
)
from bmolab.norms import BMO_MODES

import oracles


# == plain integrals =========================================================


def test_lp_norm_indicator():
    tree = build_dyadic(2)
    chi = RandomVariable(tree, [1.0, 1.0, 0.0, 0.0])
    assert lp_norm(chi, 1.0) == 0.5
    assert lp_norm(chi, 2.0) == pytest.approx(np.sqrt(0.5), rel=1e-15)
    # quasi-norm range is allowed
    assert lp_norm(chi, 0.5) == pytest.approx(0.25, rel=1e-15)


def test_lp_norm_vector():
    tree = build_dyadic(1)
    Y = RandomVariable(tree, [[3.0, 4.0], [0.0, 0.0]])
    assert lp_norm(Y, 2.0) == pytest.approx(np.sqrt(12.5), rel=1e-15)


def test_lp_norm_large_exponent_does_not_overflow():
    tree = build_dyadic(1)
    X = RandomVariable(tree, [3.0, -1.0])  # 3**5000 overflows a float
    assert lp_norm(X, 5000.0) == pytest.approx(3.0 * 0.5 ** (1 / 5000), rel=1e-14)
    Y = RandomVariable(tree, [1.0, 1e200])
    assert lp_norm(Y, 2.0) == pytest.approx(1e200 * np.sqrt(0.5), rel=1e-14)


def test_lp_rejects_nonpositive_p():
    tree = build_dyadic(1)
    X = RandomVariable(tree, [1.0, 2.0])
    with pytest.raises(ValueError):
        lp_norm(X, 0.0)


def test_weak_norm_indicator():
    tree = build_dyadic(2)
    chi = RandomVariable(tree, [1.0, 1.0, 0.0, 0.0])
    assert weak_lq_norm(chi, 1.0) == 0.5
    assert weak_lq_norm(chi, 2.0) == pytest.approx(np.sqrt(0.5), rel=1e-15)


def test_weak_norm_two_levels():
    tree = build_dyadic(2)
    X = RandomVariable(tree, [2.0, 0.0, -1.0, -1.0])
    # candidates: 1 * P(|X| >= 1) = 0.75 and 2 * P(|X| >= 2) = 0.5
    assert weak_lq_norm(X, 1.0) == 0.75


def test_weak_at_most_strong_random():
    tree = build_random(51, 3, 3)
    rng = np.random.default_rng(7)
    X = RandomVariable(tree, rng.normal(size=tree.num_leaves))
    for q in (0.5, 1.0, 2.0, 3.5):
        assert weak_lq_norm(X, q) <= lp_norm(X, q) + 1e-12


@given(
    vals=st.lists(st.floats(-10, 10, allow_nan=False), min_size=4, max_size=4),
    q=st.floats(0.3, 4.0),
)
@settings(max_examples=60, deadline=None)
def test_weak_at_most_strong_hypothesis(vals, q):
    tree = build_dyadic(2)
    X = RandomVariable(tree, vals)
    assert weak_lq_norm(X, q) <= lp_norm(X, q) * (1.0 + 1e-12) + 1e-12


def test_layer_cake_example():
    tree = build_dyadic(2)
    X = RandomVariable(tree, [2.0, 0.0, -1.0, -1.0])
    assert power_integral(X, 1.0) == 1.0
    assert power_integral(X, 2.0) == 1.5
    assert layer_cake(X, 1.0) == pytest.approx(1.0, rel=1e-14)
    assert layer_cake(X, 2.0) == pytest.approx(1.5, rel=1e-14)


def test_layer_cake_with_density():
    tree = build_dyadic(2)
    X = RandomVariable(tree, [2.0, 0.0, -1.0, -1.0])
    dens = [4.0, 1.0, 0.0, 2.0]
    direct = power_integral(X, 2.0, density=dens)
    assert direct == pytest.approx(4.0 * 0.25 * 4 + 2.0 * 0.25, rel=1e-14)
    assert layer_cake(X, 2.0, density=dens) == pytest.approx(direct, rel=1e-12)


@given(
    vals=st.lists(st.floats(-5, 5, allow_nan=False), min_size=8, max_size=8),
    dens=st.lists(st.floats(0, 3, allow_nan=False), min_size=8, max_size=8),
    p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
)
@settings(max_examples=60, deadline=None)
def test_layer_cake_equals_direct_sum_hypothesis(vals, dens, p):
    tree = build_dyadic(3)
    X = RandomVariable(tree, vals)
    a = layer_cake(X, p, density=dens)
    b = power_integral(X, p, density=dens)
    assert a == pytest.approx(b, rel=1e-10, abs=1e-12)


# == oscillation norm: closed forms ==========================================


def test_bmo_fair_coin(rademacher_pair):
    _, f = rademacher_pair
    for alpha in (0.0, 0.25, 0.5, 1.0):
        for mode in BMO_MODES:
            res = bmo_alpha_norm(f, alpha, mode)
            assert res.value == pytest.approx(2.0**alpha, rel=1e-12)
            assert res.mode == mode


def test_bmo_depth2_value_and_witness(depth2_example):
    _, f = depth2_example
    res = bmo_alpha_norm(f, 0.25)
    assert res.value == pytest.approx(2.0**0.75, rel=1e-12)
    assert res.witness == {"kind": "level-set", "level": 1, "atoms": [0]}


def test_bmo_zero_and_constant():
    tree = build_dyadic(2)
    zero = martingale_from_final(RandomVariable(tree, [0.0] * 4))
    assert bmo_alpha_norm(zero, 0.5).value == 0.0
    const = martingale_from_final(RandomVariable(tree, [3.0] * 4))
    # against the zero pre-history value the root term gives |c|
    assert bmo_alpha_norm(const, 0.5).value == pytest.approx(3.0, rel=1e-14)


def test_bmo_vector_values():
    tree = build_dyadic(1)
    f = martingale_from_final(RandomVariable(tree, [[1.0, 0.0], [-1.0, 0.0]]))
    assert bmo_alpha_norm(f, 0.5).value == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_alpha_range_validated(rademacher_pair):
    _, f = rademacher_pair
    with pytest.raises(ValueError):
        bmo_alpha_norm(f, -0.1)
    with pytest.raises(ValueError):
        bmo_alpha_norm(f, 1.1)
    with pytest.raises(ValueError):
        bmo_alpha_norm(f, 0.5, "no-such-mode")


# == mode agreement ==========================================================


def test_all_modes_agree_with_oracle():
    for seed in range(5):
        tree = build_random(60 + seed, 2, 3)
        f = random_martingale(tree, seed, 1)
        doc = tree.to_dict()["root"]
        want = oracles.bmo_sup(doc, f.leaf_view(tree.depth).tolist(), 0.25, subsets=True)
        for mode in BMO_MODES:
            got = bmo_alpha_norm(f, 0.25, mode).value
            assert got == pytest.approx(want, rel=1e-10)


def test_modes_agree_for_vectors():
    tree = build_random(71, 2, 2)
    f = random_martingale(tree, 3, 2)
    doc = tree.to_dict()["root"]
    want = oracles.bmo_sup(doc, f.leaf_view(tree.depth).tolist(), 0.5, subsets=True)
    vals = [bmo_alpha_norm(f, 0.5, m).value for m in BMO_MODES]
    for v in vals:
        assert v == pytest.approx(want, rel=1e-10)


def test_omega_form_matches_atom_fast_tightly():
    for seed in range(8):
        tree = build_random(80 + seed, 4, 3)
        f = random_martingale(tree, seed, 1)
        for alpha in (0.0, 0.3, 0.7, 1.0):
            a = bmo_alpha_norm(f, alpha, "atom-fast").value
            o = bmo_alpha_norm(f, alpha, "omega-form").value
            assert abs(a - o) <= 1e-12 * max(a, o, 1e-300)


def test_norm_nondecreasing_in_alpha():
    tree = build_random(90, 3, 3)
    f = random_martingale(tree, 5, 1)
    vals = [bmo_alpha_norm(f, a).value for a in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert all(x <= y + 1e-12 for x, y in zip(vals, vals[1:]))


def test_subset_bruteforce_cap():
    tree = build_dyadic(5)
    f = random_martingale(tree, 1, 1)
    with pytest.raises(SizeCapError, match="atom-fast"):
        bmo_alpha_norm(f, 0.5, "subset-bruteforce", max_enum=1000)


def test_stopping_bruteforce_cap():
    tree = build_dyadic(3)
    f = random_martingale(tree, 1, 1)
    with pytest.raises(SizeCapError):
        bmo_alpha_norm(f, 0.5, "stopping-bruteforce", max_enum=100)


# == the exponent-p variant ==================================================


def test_p_variant_reduces_to_the_default(depth2_example):
    _, f = depth2_example
    for alpha in (0.0, 0.25, 0.5):
        assert bmo_alpha_p_norm(f, alpha, 2.0) == bmo_alpha_norm(f, alpha).value


def test_p_variant_nondecreasing_in_p():
    tree = build_random(95, 3, 3)
    f = random_martingale(tree, 8, 1)
    for alpha in (0.0, 0.5):
        vals = [bmo_alpha_p_norm(f, alpha, p) for p in (1.0, 1.5, 2.0, 3.0)]
        assert all(x <= y + 1e-12 for x, y in zip(vals, vals[1:]))


def test_p_variant_subset_mode_matches_oracle():
    tree = build_random(97, 2, 2)
    f = random_martingale(tree, 9, 1)
    doc = tree.to_dict()["root"]
    leaves = f.leaf_view(tree.depth).tolist()
    for p in (1.0, 3.0):
        want = oracles.bmo_sup(doc, leaves, 0.25, p=p, subsets=True)
        got = bmo_alpha_p_norm(f, 0.25, p, "subset-bruteforce")
        assert got == pytest.approx(want, rel=1e-10)
        # the atom scan never exceeds the union supremum
        assert bmo_alpha_p_norm(f, 0.25, p) <= got + 1e-12


def test_p_variant_rejects_bad_arguments(rademacher_pair):
    _, f = rademacher_pair
    with pytest.raises(ValueError):
        bmo_alpha_p_norm(f, 0.5, 0.5)
    with pytest.raises(ValueError):
        bmo_alpha_p_norm(f, 0.5, 2.0, "stopping-bruteforce")


# == general adapted processes ===============================================


def test_process_norm_agrees_on_martingales():
    tree = build_random(101, 3, 3)
    f = random_martingale(tree, 11, 1)
    for alpha in (0.0, 0.5, 1.0):
        assert process_bmo_alpha_norm(f, alpha) == bmo_alpha_norm(f, alpha).value


def test_process_norm_of_square_function(rademacher_pair):
    # S is 0 at the root and 1 after the split, so its oscillation norm
    # matches the martingale's
    _, f = rademacher_pair
    s = square_function(f)
    for alpha in (0.0, 0.5):
        assert process_bmo_alpha_norm(s, alpha) == pytest.approx(
            2.0**alpha, rel=1e-12
        )


def test_process_norm_conditional_variant_matches_on_martingales():
    tree = build_random(103, 3, 2)
    f = random_martingale(tree, 13, 1)
    a = process_bmo_alpha_norm(f, 0.25, previous="own")
    b = process_bmo_alpha_norm(f, 0.25, previous="conditional")
    assert a == pytest.approx(b, rel=1e-12)
    with pytest.raises(ValueError):
        process_bmo_alpha_norm(f, 0.25, previous="nope")


# == witnesses ===============================================================


def test_ratio_at_reproduces_the_witness(depth2_example):
    _, f = depth2_example
    res = bmo_alpha_norm(f, 0.25)
    w = res.witness
    assert bmo_ratio_at(f, 0.25, w["level"], w["atoms"]) == pytest.approx(
        res.value, abs=1e-14
    )


def test_replay_every_mode(depth2_example):
    _, f = depth2_example
    for mode in BMO_MODES:
        res = bmo_alpha_norm(f, 0.25, mode)
        replayed = replay_bmo_witness(f, 0.25, res.witness)
        assert abs(replayed - res.value) <= 1e-12


def test_replay_rejects_unknown_kind(rademacher_pair):
    _, f = rademacher_pair
    with pytest.raises(ValueError):
        replay_bmo_witness(f, 0.5, {"kind": "mystery"})
    with pytest.raises(ValueError):
        replay_bmo_witness(f, 0.5, {"kind": "stopping-time", "stops": [[0, 0]]}, p=3.0)


def test_norm_result_as_dict(rademacher_pair):
    _, f = rademacher_pair
    d = bmo_alpha_norm(f, 0.5).as_dict()
    assert set(d) == {"value", "witness", "mode"}
    assert d["mode"] == "atom-fast"

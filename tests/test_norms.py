import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmolab import (
    RandomVariable,
    SizeCapError,
    bmo_alpha_norm,
    bmo_ratio_at,
    build_dyadic,
    build_random,
    lp_norm,
    martingale_from_final,
    process_bmo_alpha_norm,
    random_martingale,
    replay_bmo_witness,
    square_function,
    weak_lq_norm,
)
from bmolab.norms import BMO_MODES, _layer_cake_rows, _tails
from bmolab.process import _modulus

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


def test_vector_modulus_does_not_overflow():
    # the squared second component overflows; the modulus is 1e300
    X = RandomVariable(build_dyadic(1), [[3.0, 0.0], [0.0, 1e300]])
    assert lp_norm(X, 2.0) == 7.071067811865476e299
    assert weak_lq_norm(X, 2.0) == 7.071067811865476e299
    # rows that do not overflow keep their bits
    Y = RandomVariable(build_dyadic(1), [[3.0, 4.0], [1e300, 1e300]])
    assert _modulus(Y.values)[0] == 5.0
    assert _modulus(Y.values)[1] == pytest.approx(1e300 * np.sqrt(2.0), rel=1e-15)
    # a residual can hold an inf component; its modulus stays inf, not NaN
    assert _modulus(np.array([[np.inf, 1.0], [1e300, 0.0]])).tolist() == [np.inf, 1e300]


def test_lp_rejects_nonpositive_p():
    tree = build_dyadic(1)
    X = RandomVariable(tree, [1.0, 2.0])
    with pytest.raises(ValueError):
        lp_norm(X, 0.0)


def test_lp_norm_at_infinity_is_the_max_modulus():
    tree = build_dyadic(2)
    X = RandomVariable(tree, [0.5, 0.1, -0.2, 0.3])
    assert lp_norm(X, math.inf) == 0.5 == weak_lq_norm(X, math.inf)
    assert lp_norm(RandomVariable(tree, np.zeros(4)), math.inf) == 0.0
    Y = RandomVariable(build_dyadic(1), [[3.0, 4.0], [0.0, -1.0]])
    assert lp_norm(Y, math.inf) == 5.0


@pytest.mark.parametrize("integral", [lp_norm, weak_lq_norm])
def test_plain_integrals_refuse_a_nan_exponent(integral):
    X = RandomVariable(build_dyadic(1), [1.0, 2.0])
    with pytest.raises(ValueError, match=r"^[pq] must be positive, got nan$"):
        integral(X, math.nan)


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


def _layer_cake(mod, weights, p):
    """The layer cake of one row of moduli, as the inequality's left side
    takes it (`_layer_cake_rows`)."""
    return _layer_cake_rows(_tails(mod[None], weights), p)[0]


def test_layer_cake_example():
    tree = build_dyadic(2)
    mod = _modulus(RandomVariable(tree, [2.0, 0.0, -1.0, -1.0]).values)
    for p, direct in ((1.0, 1.0), (2.0, 1.5)):
        assert float(np.sum(mod**p * tree.leaf_masses)) == direct
        assert _layer_cake(mod, tree.leaf_masses, p) == pytest.approx(direct, rel=1e-14)
        assert oracles._layer_cake_arrays(mod, tree.leaf_masses, p) == pytest.approx(direct, rel=1e-14)


def test_layer_cake_with_density():
    tree = build_dyadic(2)
    X = RandomVariable(tree, [2.0, 0.0, -1.0, -1.0])
    dens = np.array([4.0, 1.0, 0.0, 2.0])
    weights = dens * tree.leaf_masses
    direct = float(np.sum(_modulus(X.values) ** 2.0 * weights))
    assert direct == pytest.approx(4.0 * 0.25 * 4 + 2.0 * 0.25, rel=1e-14)
    layered = _layer_cake(_modulus(X.values), weights, 2.0)
    assert layered == pytest.approx(direct, rel=1e-12)


@given(
    vals=st.lists(st.floats(-5, 5, allow_nan=False), min_size=8, max_size=8),
    dens=st.lists(st.floats(0, 3, allow_nan=False), min_size=8, max_size=8),
    p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
)
@settings(max_examples=60, deadline=None)
def test_layer_cake_equals_direct_sum_hypothesis(vals, dens, p):
    tree = build_dyadic(3)
    mod = _modulus(RandomVariable(tree, vals).values)
    weights = np.array(dens) * tree.leaf_masses
    a = _layer_cake(mod, weights, p)
    b = float(np.sum(mod**p * weights))
    assert a == pytest.approx(b, rel=1e-10, abs=1e-12)
    assert oracles._layer_cake_arrays(mod, weights, p) == pytest.approx(b, rel=1e-10, abs=1e-12)


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
        assert bmo_alpha_norm(f, alpha, p=2.0) == bmo_alpha_norm(f, alpha)


def test_p_variant_nondecreasing_in_p():
    tree = build_random(95, 3, 3)
    f = random_martingale(tree, 8, 1)
    for mode in BMO_MODES:
        for alpha in (0.0, 0.5):
            vals = [bmo_alpha_norm(f, alpha, mode, p=p).value for p in (1.0, 1.5, 2.0, 3.0)]
            assert all(x <= y + 1e-12 for x, y in zip(vals, vals[1:]))


def test_p_variant_subset_mode_matches_oracle():
    tree = build_random(97, 2, 2)
    f = random_martingale(tree, 9, 1)
    doc = tree.to_dict()["root"]
    leaves = f.leaf_view(tree.depth).tolist()
    for p in (1.0, 3.0):
        want = oracles.bmo_sup(doc, leaves, 0.25, p=p, subsets=True)
        got = bmo_alpha_norm(f, 0.25, "subset-bruteforce", p=p).value
        assert got == pytest.approx(want, rel=1e-10)
        # the atom scan never exceeds the union supremum
        assert bmo_alpha_norm(f, 0.25, p=p).value <= got + 1e-12


def test_p_variant_rejects_bad_arguments(rademacher_pair):
    _, f = rademacher_pair
    for p in (0.5, True):
        with pytest.raises(ValueError, match=f"^p must be finite and at least 1, got {p}$"):
            bmo_alpha_norm(f, 0.5, p=p)


@pytest.mark.parametrize("p", [float("nan"), float("inf"), 1e400])
def test_p_variant_refuses_a_non_finite_p(rademacher_pair, p):
    _, f = rademacher_pair
    with pytest.raises(ValueError, match=r"^p must be finite and at least 1, got (nan|inf)$"):
        bmo_alpha_norm(f, 0.25, p=p)


# Suite-size trees within both brute-force caps: at most 730 stopping
# times and 511 unions on a level.
@given(
    seed=st.integers(0, 2**32),
    shape=st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]),
    dim=st.integers(1, 3),
    alpha=st.sampled_from([0.0, 0.25, 0.9]),
    p=st.sampled_from([1.0, 1.5, 3.0, 7.0]),
)
@settings(max_examples=60, deadline=None)
def test_every_mode_at_every_p_matches_the_oracle_and_replays(seed, shape, dim, alpha, p):
    branch, depth = shape
    tree = build_random(seed, depth, branch)
    f = random_martingale(tree, seed, dim)
    leaves = f.leaf_view(tree.depth).tolist()
    want = oracles.bmo_sup(tree.to_dict()["root"], leaves, alpha, p=p, subsets=True)
    union_sup = bmo_alpha_norm(f, alpha, "subset-bruteforce", p=p).value
    for mode in BMO_MODES:
        res = bmo_alpha_norm(f, alpha, mode, p=p)
        assert res.witness["p"] == p
        replayed = replay_bmo_witness(f, alpha, res.witness)
        if mode.endswith("bruteforce"):
            assert res.value == pytest.approx(want, rel=1e-10)
            assert replayed == res.value
        else:
            assert res.value == pytest.approx(union_sup, rel=1e-12)
            assert replayed == pytest.approx(res.value, rel=1e-12)


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


# == witnesses ===============================================================


def test_ratio_at_reproduces_the_witness(depth2_example):
    _, f = depth2_example
    res = bmo_alpha_norm(f, 0.25)
    w = res.witness
    assert bmo_ratio_at(f, 0.25, w["level"], w["atoms"]) == pytest.approx(
        res.value, abs=1e-14
    )


def test_ratio_at_scores_a_set_of_atoms():
    f = random_martingale(build_dyadic(2), 1)
    once = bmo_ratio_at(f, 0.25, 1, [0])
    assert bmo_ratio_at(f, 0.25, 1, [0, 0]) == once
    assert bmo_ratio_at(f, 0.25, 1, [1, 0, 1]) == bmo_ratio_at(f, 0.25, 1, [0, 1])
    for atom in (-1, 2, 3):
        with pytest.raises(ValueError, match=f"atom index {atom} out of range at level 1"):
            bmo_ratio_at(f, 0.25, 1, [0, atom])
    assert bmo_ratio_at(f, 0.25, np.int64(1), [np.int32(0)]) == once
    for level in (-1, 3):
        with pytest.raises(ValueError, match=rf"^level {level} out of range \[0, 2\]$"):
            bmo_ratio_at(f, 0.25, level, [0])


@pytest.mark.parametrize("level, atoms, bad", [
    (1, [0.9], "0.9"), (1.0, [0], "1.0"), (True, [0], "True"), (1, [0, False], "False"),
])
def test_ratio_at_takes_integer_positions_only(level, atoms, bad):
    f = random_martingale(build_dyadic(2), 1)
    with pytest.raises(ValueError, match=f"must be integers, got {bad}$"):
        bmo_ratio_at(f, 0.25, level, atoms)
    with pytest.raises(ValueError, match=f"must be integers, got {bad}$"):
        replay_bmo_witness(f, 0.25, {"kind": "level-set", "level": level, "atoms": atoms})
    with pytest.raises(ValueError, match="must be integers, got 1.5$"):
        replay_bmo_witness(f, 0.25, {"kind": "stopping-time", "stops": [[1.5, 0]]})


def test_replay_every_mode(depth2_example):
    _, f = depth2_example
    for mode in BMO_MODES:
        res = bmo_alpha_norm(f, 0.25, mode)
        replayed = replay_bmo_witness(f, 0.25, res.witness)
        assert abs(replayed - res.value) <= 1e-12
        # a p = 2 witness names no p, and replays at 2
        assert "p" not in res.witness
        assert replay_bmo_witness(f, 0.25, {**res.witness, "p": 2.0}) == replayed


def test_replay_rejects_unknown_kind(rademacher_pair):
    _, f = rademacher_pair
    with pytest.raises(ValueError):
        replay_bmo_witness(f, 0.5, {"kind": "mystery"})


@pytest.mark.parametrize("witness, message", [
    ({}, "the witness has no 'kind'"),
    ([], "a witness must be a dict, got list"),
    (None, "a witness must be a dict, got NoneType"),
    ({"kind": "level-set"}, "the witness has no 'level'"),
    ({"kind": "level-set", "level": 1}, "the witness has no 'atoms'"),
    ({"kind": "level-set", "level": 1, "atoms": None}, "atoms must be a list of atom indices, got None"),
    ({"kind": "stopping-time"}, "the witness has no 'stops'"),
    ({"kind": "stopping-time", "stops": None}, r"stops must be a list of \[level, index\] pairs, got None"),
    ({"kind": "stopping-time", "stops": [[1]]}, r"a stop must be a \[level, index\] pair, got \[1\]"),
    ({"kind": "stopping-time", "stops": [5]}, r"a stop must be a \[level, index\] pair, got 5"),
    *[({"kind": kind, "level": 0, "atoms": [0], "stops": [[0, 0]], "p": p},
       f"p must be finite and at least 1, got {shown}")
      for kind in ("level-set", "stopping-time")
      for p, shown in [(True, "True"), ("3", "'3'"), (None, "None"), (math.nan, "nan"),
                       (math.inf, "inf"), (-math.inf, "-inf"), (0.5, "0.5")]],
])
def test_replay_names_what_a_malformed_witness_lacks(witness, message):
    f = random_martingale(build_dyadic(2), 1)
    with pytest.raises(ValueError, match=f"^{message}$"):
        replay_bmo_witness(f, 0.25, witness)


def test_norm_result_as_dict(rademacher_pair):
    _, f = rademacher_pair
    d = dataclasses.asdict(bmo_alpha_norm(f, 0.5))
    assert set(d) == {"value", "witness", "mode"}
    assert d["mode"] == "atom-fast"

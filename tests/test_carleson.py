import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmolab import (
    CarlesonMeasure,
    RandomVariable,
    SizeCapError,
    StoppingTime,
    bmo_alpha_norm,
    build_dyadic,
    build_random,
    carleson_alpha_norm,
    carleson_inequality_check,
    carleson_inequality_grid,
    carleson_ratio_at,
    converse_extraction,
    from_martingale,
    indicator_process,
    lp_norm,
    martingale_from_final,
    maximal,
    random_adapted_process,
    random_martingale,
    random_measure,
    stop_on_atoms,
    weak_lq_norm,
)
from bmolab.carleson import CARLESON_MODES
from bmolab.norms import _layer_cake_arrays
from bmolab.process import _modulus

import oracles


# == the measure object ======================================================


def test_measure_validation():
    tree = build_dyadic(1)
    CarlesonMeasure(tree, [[0.0, 0.0], [1.0, 2.0]])
    with pytest.raises(ValueError):
        CarlesonMeasure(tree, [[0.0, 0.0]])
    with pytest.raises(ValueError):
        CarlesonMeasure(tree, [[0.0, 0.0], [-1.0, 2.0]])
    with pytest.raises(ValueError):
        CarlesonMeasure(tree, [[0.0, 0.0], [float("inf"), 2.0]])


def test_total_mass():
    tree = build_dyadic(1)
    mu = CarlesonMeasure(tree, [[1.0, 1.0], [4.0, 0.0]])
    assert mu.total_mass() == 1.0 + 2.0


def test_from_martingale_rows(depth2_example):
    _, f = depth2_example
    mu = from_martingale(f)
    assert np.array_equal(mu.density(0), [0.0, 0.0, 0.0, 0.0])
    assert np.array_equal(mu.density(1), [1.0, 1.0, 1.0, 1.0])
    assert np.array_equal(mu.density(2), [1.0, 1.0, 0.0, 0.0])


def test_tent_mass(depth2_example):
    tree, f = depth2_example
    mu = from_martingale(f)
    assert mu.tent_mass(stop_on_atoms(tree, 0, [0])) == pytest.approx(1.5, abs=1e-15)
    assert mu.tent_mass(stop_on_atoms(tree, 1, [0])) == pytest.approx(1.0, abs=1e-15)
    assert mu.tent_mass(StoppingTime(tree, [])) == 0.0
    assert mu.tent_mass(stop_on_atoms(tree, 2, [2, 3])) == 0.0


def test_tent_mass_matches_oracle():
    tree = build_random(105, 3, 2)
    mu = random_measure(tree, 4)
    doc = tree.to_dict()["root"]
    dens = [mu.density(k).tolist() for k in range(tree.depth + 1)]
    for stops in ([(0, 0)], [(1, 0)], [(tree.depth, 0)]):
        tau = StoppingTime(tree, stops)
        want = oracles.tent_mass(doc, dens, stops)
        assert mu.tent_mass(tau) == pytest.approx(want, rel=1e-12)


def test_random_measure_deterministic():
    tree = build_dyadic(2)
    a = random_measure(tree, 5)
    b = random_measure(tree, 5)
    assert np.array_equal(a.densities, b.densities)
    assert not np.array_equal(a.densities, random_measure(tree, 6).densities)


# == the measure norm ========================================================


def test_norm_fair_coin_increments(rademacher_pair):
    _, f = rademacher_pair
    mu = from_martingale(f)
    res0 = carleson_alpha_norm(mu, 0.0)
    assert res0.value == pytest.approx(1.0, rel=1e-14)
    assert res0.witness == {"kind": "stopping-time", "stops": [[0, 0]]}
    res = carleson_alpha_norm(mu, 0.5)
    assert res.value == pytest.approx(2.0, rel=1e-14)
    assert res.witness == {"kind": "stopping-time", "stops": [[1, 0]]}


def test_norm_squares_the_oscillation_norm(depth2_example):
    _, f = depth2_example
    mu = from_martingale(f)
    for alpha in (0.0, 0.25, 0.5, 0.9):
        car = carleson_alpha_norm(mu, alpha).value
        osc = bmo_alpha_norm(f, alpha).value
        assert np.sqrt(car) == pytest.approx(osc, rel=1e-12)


def test_norm_modes_agree_with_oracle():
    for seed in range(4):
        tree = build_random(110 + seed, 2, 2)
        mu = random_measure(tree, seed)
        doc = tree.to_dict()["root"]
        dens = [mu.density(k).tolist() for k in range(tree.depth + 1)]
        for alpha in (0.0, 0.3):
            want = oracles.carleson_sup(doc, dens, alpha)
            fast = carleson_alpha_norm(mu, alpha, "node-fast").value
            brute = carleson_alpha_norm(mu, alpha, "stopping-bruteforce").value
            assert brute == pytest.approx(want, rel=1e-10)
            assert fast == pytest.approx(want, rel=1e-10)


def test_norm_witness_replays(depth2_example):
    _, f = depth2_example
    mu = from_martingale(f)
    for mode in CARLESON_MODES:
        res = carleson_alpha_norm(mu, 0.25, mode)
        again = carleson_ratio_at(mu, 0.25, res.witness["stops"])
        assert again == pytest.approx(res.value, abs=1e-14)


def test_norm_alpha_range():
    tree = build_dyadic(1)
    mu = random_measure(tree, 1)
    with pytest.raises(ValueError):
        carleson_alpha_norm(mu, 1.0)
    with pytest.raises(ValueError):
        carleson_alpha_norm(mu, -0.1)
    with pytest.raises(ValueError):
        carleson_alpha_norm(mu, 0.5, "no-such-mode")


def test_ratio_at_rejects_never():
    tree = build_dyadic(1)
    mu = random_measure(tree, 2)
    with pytest.raises(ValueError):
        carleson_ratio_at(mu, 0.5, [])


def test_bruteforce_cap_propagates():
    tree = build_dyadic(3)
    mu = random_measure(tree, 3)
    with pytest.raises(SizeCapError):
        carleson_alpha_norm(mu, 0.5, "stopping-bruteforce", max_enum=10)


# == the inequality ==========================================================


def test_inequality_zero_measure():
    tree = build_dyadic(2)
    g = random_adapted_process(tree, 1, 1)
    mu = CarlesonMeasure(tree, np.zeros((3, 4)))
    res = carleson_inequality_check(g, mu, 2.0, 0.25)
    assert res.lhs == 0.0
    assert res.holds


def test_inequality_indicator_process():
    tree = build_dyadic(2)
    tau = stop_on_atoms(tree, 0, [0])
    g = indicator_process(tau)
    mu = random_measure(tree, 7)
    res = carleson_inequality_check(g, mu, 2.0, 0.25)
    assert res.lhs == pytest.approx(mu.total_mass(), rel=1e-12)
    assert res.maximal_strong_norm == pytest.approx(1.0, rel=1e-14)
    assert res.holds


def test_inequality_random_instances_hold():
    tree = build_dyadic(3)
    for seed in range(10):
        g = random_adapted_process(tree, seed, 1)
        mu = random_measure(tree, 1000 + seed)
        for p in (1.5, 2.0, 3.0):
            for alpha in (0.1, 0.45):
                res = carleson_inequality_check(g, mu, p, alpha)
                assert res.holds
                assert res.lhs == pytest.approx(res.lhs_layer_cake, rel=1e-10)


def test_inequality_result_fields():
    tree = build_dyadic(2)
    g = random_adapted_process(tree, 3, 1)
    mu = random_measure(tree, 4)
    res = carleson_inequality_check(g, mu, 2.0, 0.25)
    d = res.as_dict()
    for key in (
        "lhs",
        "lhs_layer_cake",
        "rhs",
        "holds",
        "p",
        "alpha",
        "constant",
        "carleson_norm",
        "maximal_strong_norm",
        "maximal_tail_term",
        "maximal_weak_norm",
    ):
        assert key in d
    assert res.constant == 2.0


def test_inequality_validation():
    tree = build_dyadic(2)
    g = random_adapted_process(tree, 5, 1)
    mu = random_measure(tree, 6)
    with pytest.raises(ValueError):
        carleson_inequality_check(g, mu, 1.0, 0.25)
    with pytest.raises(ValueError):
        carleson_inequality_check(g, mu, 2.0, 0.0)
    other = random_measure(build_dyadic(1), 6)
    with pytest.raises(ValueError):
        carleson_inequality_check(g, other, 2.0, 0.25)


def test_weak_norm_is_a_diagnostic_not_a_bound():
    # the report exposes the weak norm of the maximal function alongside
    # the strong one used on the right side; weak never exceeds strong
    tree = build_dyadic(2)
    g = random_adapted_process(tree, 8, 1)
    mu = random_measure(tree, 9)
    res = carleson_inequality_check(g, mu, 2.0, 0.3)
    assert res.maximal_weak_norm <= res.maximal_strong_norm + 1e-12


# == the inequality grid =====================================================


GRID_PS = (1.5, 2.0, 3.0)
GRID_ALPHAS = (0.1, 0.25, 0.45, 0.9)


def _inequality_reference(g, mu, p, alpha, slack=1e-9):
    """The inequality for one (p, alpha), every factor recomputed from the
    public pieces with nothing shared between calls: the float operations
    the grid must reproduce bit for bit."""
    mods = np.stack([_modulus(g.leaf_view(k)) for k in range(g.tree.depth + 1)])
    lhs = 0.0
    for k in range(g.tree.depth + 1):
        lhs += float(np.sum(_modulus(g.leaf_view(k)) ** p * mu.weighted[k]))
    norm = carleson_alpha_norm(mu, alpha, "node-fast")
    mg = maximal(g)
    strong = lp_norm(mg, 1.0 / (2.0 * alpha))
    tail = lp_norm(mg, p - 1.0) ** (p - 1.0)
    constant = p / (p - 1.0)
    rhs = constant * norm.value * strong * tail
    return {
        "lhs": lhs,
        "lhs_layer_cake": _layer_cake_arrays(mods.ravel(), mu.weighted.ravel(), p),
        "rhs": rhs,
        "holds": bool(lhs <= rhs + slack),
        "p": float(p),
        "alpha": float(alpha),
        "constant": constant,
        "carleson_norm": norm.as_dict(),
        "maximal_strong_norm": strong,
        "maximal_tail_term": tail,
        "maximal_weak_norm": weak_lq_norm(mg, 1.0 / (2.0 * alpha)),
    }


def _assert_same_fields(got: dict, want: dict):
    """`==` on every field, witness included; NaN matches only NaN."""
    assert list(got) == list(want)
    for key in want:
        a, b = got[key], want[key]
        if isinstance(b, float) and math.isnan(b):
            assert isinstance(a, float) and math.isnan(a), key
        else:
            assert a == b, key


def _assert_grid_matches(g, mu, ps, alphas):
    grid = carleson_inequality_grid(g, mu, ps, alphas)
    assert [len(row) for row in grid] == [len(alphas)] * len(ps)
    for i, p in enumerate(ps):
        for j, alpha in enumerate(alphas):
            got = grid[i][j].as_dict()
            _assert_same_fields(got, carleson_inequality_check(g, mu, p, alpha).as_dict())
            _assert_same_fields(got, _inequality_reference(g, mu, p, alpha))


@pytest.mark.parametrize(
    "tree",
    [build_dyadic(2), build_dyadic(3), build_random(5, 3, 3), build_random(17, 4, 3)],
    ids=["dyadic2", "dyadic3", "random5", "random17"],
)
@pytest.mark.parametrize("dim", [1, 3])
def test_inequality_grid_matches_single_checks(tree, dim):
    for seed in range(3):
        g = random_adapted_process(tree, 40 + seed, dim)
        mu = random_measure(tree, 80 + seed)
        _assert_grid_matches(g, mu, GRID_PS, GRID_ALPHAS)


@given(
    seed=st.integers(0, 2**32 - 1),
    depth=st.integers(1, 3),
    dim=st.sampled_from([1, 2]),
    ps=st.lists(st.floats(1.0, 4.0, exclude_min=True), min_size=1, max_size=3),
    alphas=st.lists(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), min_size=1, max_size=3
    ),
)
@settings(max_examples=40, deadline=None)
def test_inequality_grid_matches_single_checks_hypothesis(seed, depth, dim, ps, alphas):
    tree = build_random(seed, depth, 3)
    g = random_adapted_process(tree, seed + 1, dim)
    mu = random_measure(tree, seed + 2)
    _assert_grid_matches(g, mu, ps, alphas)


def test_inequality_strong_norm_is_finite_at_small_alpha():
    # 1/(2 alpha) = 5000: each |Mg|**5000 overflows, the norm does not.
    tree = build_dyadic(2)
    g = random_adapted_process(tree, 3, 1)
    res = carleson_inequality_check(g, random_measure(tree, 4), 2.0, 1e-4)
    top = float(np.max(_modulus(maximal(g).values)))
    assert 0.99 * top < res.maximal_strong_norm <= top
    assert math.isfinite(res.rhs)


@pytest.mark.parametrize(
    "p, alpha, other_tree",
    [(1.0, 0.25, False), (0.5, 0.25, False), (2.0, 0.0, False), (2.0, 1.0, False),
     (2.0, 1.5, False), (2.0, 0.25, True)],
)
def test_inequality_grid_rejects_what_the_check_rejects(p, alpha, other_tree):
    tree = build_dyadic(2)
    g = random_adapted_process(tree, 5, 1)
    mu = random_measure(build_dyadic(1) if other_tree else tree, 6)
    with pytest.raises(ValueError) as single:
        carleson_inequality_check(g, mu, p, alpha)
    with pytest.raises(ValueError, match=f"^{re.escape(str(single.value))}$"):
        carleson_inequality_grid(g, mu, (2.0, p), (0.25, alpha))


def test_inequality_grid_validates_every_p_then_every_alpha_then_the_tree():
    tree = build_dyadic(2)
    g = random_adapted_process(tree, 5, 1)
    other = random_measure(build_dyadic(1), 6)
    with pytest.raises(ValueError, match="p must exceed 1, got 1.0"):
        carleson_inequality_grid(g, other, (2.0, 1.0), (0.0,))
    with pytest.raises(ValueError, match="alpha must lie in"):
        carleson_inequality_grid(g, other, (2.0,), (0.25, 1.0))


# == the converse extraction =================================================


def test_converse_accepts_the_norm_and_rejects_less():
    tree = build_dyadic(1)
    mu = random_measure(tree, 11)
    norm = carleson_alpha_norm(mu, 0.25).value
    conv = converse_extraction(mu, 0.25, norm, 2.0)
    assert conv["norm_bound_satisfied"]
    assert conv["identity_exact"]
    assert conv["maximal_identity"]
    assert conv["first_violation"] is None
    assert conv["stopping_times_checked"] == 4
    assert conv["max_ratio"] == pytest.approx(norm, rel=1e-12)

    reduced = converse_extraction(mu, 0.25, conv["max_ratio"] - 1e-6, 2.0)
    assert not reduced["norm_bound_satisfied"]
    assert reduced["first_violation"] is not None
    assert "stops" in reduced["first_violation"]


def test_converse_left_side_is_bitwise_tent_mass():
    for seed in range(6):
        tree = build_dyadic(2) if seed % 2 == 0 else build_random(130 + seed, 2, 2)
        mu = random_measure(tree, seed)
        conv = converse_extraction(mu, 0.4, carleson_alpha_norm(mu, 0.4).value, 1.5)
        assert conv["identity_exact"]
        assert conv["maximal_identity"]


def test_converse_validation():
    tree = build_dyadic(1)
    mu = random_measure(tree, 13)
    with pytest.raises(ValueError):
        converse_extraction(mu, 0.25, 1.0, 1.0)
    with pytest.raises(ValueError):
        converse_extraction(mu, 1.0, 1.0, 2.0)


def test_converse_cap_propagates():
    tree = build_dyadic(3)
    mu = random_measure(tree, 14)
    with pytest.raises(SizeCapError):
        converse_extraction(mu, 0.25, 1.0, 2.0, max_enum=10)


# == serialization ===========================================================


def test_measure_round_trip_bit_exact():
    tree = build_random(140, 3, 3)
    mu = random_measure(tree, 15)
    doc = json.loads(mu.to_json())
    assert doc["schema"] == "measure/v1"
    again = CarlesonMeasure.from_dict(doc)
    assert again.tree == tree
    assert np.array_equal(again.densities, mu.densities)
    assert again.to_json() == mu.to_json()


def test_measure_save_and_load(tmp_path):
    tree = build_dyadic(2)
    mu = random_measure(tree, 16)
    path = tmp_path / "mu.json"
    mu.save(str(path))
    again = CarlesonMeasure.load(str(path))
    assert np.array_equal(again.densities, mu.densities)

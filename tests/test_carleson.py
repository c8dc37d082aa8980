import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmolab import (
    AdaptedProcess,
    CarlesonMeasure,
    FiltrationTree,
    Martingale,
    RandomVariable,
    SizeCapError,
    StoppingTime,
    bmo_alpha_norm,
    bmo_alpha_norms,
    bmo_ratio_at,
    build_dyadic,
    build_random,
    campaign,
    carleson_alpha_norm,
    carleson_alpha_norms,
    carleson_inequality_check,
    carleson_inequality_grid,
    carleson_ratio_at,
    check_carleson_inequality,
    converse_extraction,
    from_martingale,
    indicator_process,
    lp_norm,
    martingale_from_final,
    maximal,
    process_bmo_alpha_norm,
    random_adapted_process,
    random_martingale,
    random_measure,
    replay_bmo_witness,
    weak_lq_norm,
)
from bmolab import carleson, operators, stopping
from bmolab.carleson import CARLESON_MODES
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


def test_from_martingale_rows(depth2_example):
    _, f = depth2_example
    mu = from_martingale(f)
    assert np.array_equal(mu.densities[0], [0.0, 0.0, 0.0, 0.0])
    assert np.array_equal(mu.densities[1], [1.0, 1.0, 1.0, 1.0])
    assert np.array_equal(mu.densities[2], [1.0, 1.0, 0.0, 0.0])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(1, 6), (12, 2), (3, 4)]), st.integers(0, 2**32 - 1), st.integers(1, 3),
       st.data())
def test_weighted_densities_are_the_stored_product_bit_for_bit(shape, seed, dim, data):
    """``weighted`` is computed from the densities on each use, not stored,
    and each cell has the bits of density times leaf mass, the product
    the measure once stored (chains, wide fans and random trees)."""
    branch, most = shape
    tree = build_random(seed, data.draw(st.integers(0, most)), branch)
    masses = tree.leaf_masses.tolist()
    for mu in (from_martingale(random_martingale(tree, seed, dim)), random_measure(tree, seed)):
        want = np.array([[d * m for d, m in zip(row, masses)] for row in mu.densities.tolist()])
        assert mu.weighted.tobytes() == want.tobytes()
        assert mu.weighted.shape == mu.densities.shape
        assert "weighted" not in vars(mu)


def test_tent_mass(depth2_example):
    tree, f = depth2_example
    mu = from_martingale(f)
    assert mu.tent_mass(StoppingTime(tree, [(0, 0)])) == pytest.approx(1.5, abs=1e-15)
    assert mu.tent_mass(StoppingTime(tree, [(1, 0)])) == pytest.approx(1.0, abs=1e-15)
    assert mu.tent_mass(StoppingTime(tree, [])) == 0.0
    assert mu.tent_mass(StoppingTime(tree, [(2, 2), (2, 3)])) == 0.0


def test_tent_mass_matches_oracle():
    tree = build_random(105, 3, 2)
    mu = random_measure(tree, 4)
    doc = tree.to_dict()["root"]
    dens = [mu.densities[k].tolist() for k in range(tree.depth + 1)]
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
        dens = [mu.densities[k].tolist() for k in range(tree.depth + 1)]
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
    tau = StoppingTime(tree, [(0, 0)])
    g = indicator_process(tau)
    mu = random_measure(tree, 7)
    res = carleson_inequality_check(g, mu, 2.0, 0.25)
    assert res.lhs == pytest.approx(float(np.sum(mu.weighted)), rel=1e-12)
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


def test_layer_cake_is_inf_where_two_moduli_overflow_their_power():
    """|g|^3 overflows at 1e200 and at 2e200: the layer cake's step between
    them is inf - inf, which counts as inf, with no warning (an error in
    this test run); a finite draw batched beside it keeps its bits."""
    tree = build_dyadic(1)
    huge = AdaptedProcess(tree, [[1e200], [1e200, -2e200]])
    mu = random_measure(tree, 1)
    res = carleson_inequality_check(huge, mu, 3.0, 0.25)
    assert res.lhs == res.lhs_layer_cake == math.inf
    g = random_adapted_process(tree, 2, 1)
    mods = np.stack([carleson._leaf_moduli(h) for h in (huge, g)], axis=1)
    weighted = np.stack([mu.weighted] * 2, axis=1)
    [[first]], [[second]] = carleson._inequality_grids(tree, mods, weighted, [3.0], [0.25], 1e-9)
    alone = carleson_inequality_check(g, mu, 3.0, 0.25).lhs_layer_cake
    assert (first.lhs_layer_cake, second.lhs_layer_cake) == (math.inf, alone)
    assert math.isfinite(alone)


def test_inequality_result_fields():
    tree = build_dyadic(2)
    g = random_adapted_process(tree, 3, 1)
    mu = random_measure(tree, 4)
    res = carleson_inequality_check(g, mu, 2.0, 0.25)
    d = dataclasses.asdict(res)
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
        "lhs_layer_cake": oracles._layer_cake_arrays(mods.ravel(), mu.weighted.ravel(), p),
        "rhs": rhs,
        "holds": bool(lhs <= rhs + slack),
        "p": float(p),
        "alpha": float(alpha),
        "constant": constant,
        "carleson_norm": dataclasses.asdict(norm),
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
            got = dataclasses.asdict(grid[i][j])
            want = dataclasses.asdict(carleson_inequality_check(g, mu, p, alpha))
            _assert_same_fields(got, want)
            _assert_same_fields(got, _inequality_reference(g, mu, p, alpha))
    for got_row, want_row in zip(grid, oracles.reference_inequality_grid(g, mu, ps, alphas)):
        for got, want in zip(got_row, want_row):
            _assert_same_fields(dataclasses.asdict(got), dataclasses.asdict(want))


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


# == the batch: many draws on one tree =======================================


def _same(a, b) -> bool:
    """Equal values of the same type, lists and dicts item by item; NaN
    matches NaN."""
    if type(a) is not type(b):
        return False
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    return a == b or (isinstance(a, float) and math.isnan(a) and math.isnan(b))


def _assert_batch_matches_the_reference(tree, draws, ps, alphas):
    """Every draw's grid out of one `_inequality_batches` call is the
    reference grid, field for field, and the results in one column share
    one measure-norm result."""
    checked = carleson._check_grid(ps, alphas, 1e-9)
    grids = list(carleson._inequality_batches(tree, draws, *checked))
    assert len(grids) == len(draws)
    for (g, mu), grid in zip(draws, grids):
        assert all(res.carleson_norm is top.carleson_norm for row in grid for res, top in zip(row, grid[0]))
        got, want = ([[dataclasses.asdict(res) for res in row] for row in rows]
                     for rows in (grid, oracles.reference_inequality_grid(g, mu, ps, alphas)))
        assert _same(got, want)


def _zero_process(tree, dim):
    shapes = [(tree.atom_count(n), dim) if dim > 1 else tree.atom_count(n)
              for n in range(tree.depth + 1)]
    return AdaptedProcess(tree, [np.zeros(shape) for shape in shapes])


BATCH_TREES = [build_dyadic(3), build_dyadic(4), build_random(5, 3, 3), build_random(17, 4, 3)]


@pytest.mark.parametrize("tree", BATCH_TREES, ids=["dyadic3", "dyadic4", "random5", "random17"])
@pytest.mark.parametrize("size", [1, 2, 37])
@pytest.mark.parametrize("chunk", ["default", "small"])
def test_every_draw_of_a_batch_is_the_per_draw_grid(monkeypatch, tree, size, chunk):
    """Each draw's row is the reference grid's, field for field, whatever
    the batch size and wherever the cell budget cuts the batch."""
    if chunk == "small":  # three draws per batch: 37 draws cross 12 boundaries
        monkeypatch.setattr(carleson, "CHUNK_CELLS", 3 * (tree.depth + 1) * tree.num_leaves + 1)
    draws = [
        (random_adapted_process(tree, 300 + t, 1 + t % 3), random_measure(tree, 600 + t))
        for t in range(size)
    ]
    if size > 2:
        draws[5] = (_zero_process(tree, 1), draws[5][1])
        draws[9] = (_zero_process(tree, 2), CarlesonMeasure(tree, np.zeros_like(draws[9][1].densities)))
    _assert_batch_matches_the_reference(tree, draws, (1.5, 2.0, 3.0), (0.1, 0.25, 0.5, 0.9))


def test_an_overflowing_tail_term_is_inf_without_a_warning():
    # No errstate: the test configuration turns any RuntimeWarning into an
    # error, and numpy warned of the left sides' overflowing powers here.
    tree = build_dyadic(1)
    g = AdaptedProcess(tree, [[1e200], [1e200, -1e200]])
    res = carleson_inequality_check(g, random_measure(tree, 1), 3.0, 0.25)
    assert res.maximal_strong_norm == 1e200
    assert res.maximal_tail_term == math.inf


def test_a_batch_keeps_an_overflowing_strong_norm_finite():
    # alpha 1e-4 is test_inequality_strong_norm_is_finite_at_small_alpha's
    # draw, beside draws whose powers do not overflow.
    tree = build_dyadic(2)
    draws = [(random_adapted_process(tree, 3 + t, 1), random_measure(tree, 4 + t)) for t in range(3)]
    _assert_batch_matches_the_reference(tree, draws, (2.0, 3.0), (1e-4, 0.25))


def test_a_batch_keeps_a_nan_node_score_per_draw():
    # A chain of 1e-300 atoms whose tent mass is 0: its node score is
    # 0 * inf = NaN in the draws built from the martingale, not the others.
    chain = {"mass": 1e-300, "children": [{"mass": 1e-300, "children": []}]}
    fan = {"mass": 1 - 1e-300, "children": [{"mass": 0.25, "children": []},
                                            {"mass": 0.75 - 1e-300, "children": []}]}
    for root in ({"mass": 1.0, "children": [chain, fan]},
                 {"mass": 1.0, "children": [fan, chain]}):
        tree = FiltrationTree(root)
        last = [0.0, 3.0, -1.0] if root["children"][0] is chain else [3.0, -1.0, 0.0]
        f = Martingale(tree, [[0.0], [0.0, 0.0], last])
        draws = [(f, from_martingale(f)), (random_adapted_process(tree, 1, 1), random_measure(tree, 2)),
                 (random_adapted_process(tree, 3, 2), from_martingale(f))]
        with np.errstate(over="ignore", invalid="ignore"):
            _assert_batch_matches_the_reference(tree, draws, (1.5, 2.0), (0.25, 0.9))


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


@pytest.mark.parametrize("p", [float("inf"), 1e400, float("nan")])
def test_a_non_finite_p_is_refused(p):
    tree = build_dyadic(2)
    g, mu = random_adapted_process(tree, 5, 1), random_measure(tree, 6)
    message = "^p must exceed 1, got nan$" if p != p else "^p must be finite, got inf$"
    with pytest.raises(ValueError, match=message):
        carleson_inequality_grid(g, mu, (2.0, p), (0.25,))
    with pytest.raises(ValueError, match=message):
        carleson_inequality_check(g, mu, p, 0.25)
    with pytest.raises(ValueError, match=message):
        converse_extraction(mu, 0.25, 1.0, p)


@pytest.mark.parametrize("bad", [True, "0.5", None], ids=["true", "string", "none"])
def test_a_bool_string_or_none_alpha_or_p_is_refused(bad):
    tree = build_dyadic(2)
    f = random_martingale(tree, 1, 1)
    g = random_adapted_process(tree, 2, 1)
    mu = random_measure(tree, 3)
    level_set = bmo_alpha_norm(f, 0.5).witness
    stops = bmo_alpha_norm(f, 0.5, "stopping-bruteforce").witness
    calls = [
        lambda: bmo_alpha_norm(f, bad),
        lambda: bmo_alpha_norms(f, [0.5, bad]),
        lambda: bmo_alpha_norm(f, 0.5, p=bad),
        lambda: bmo_ratio_at(f, bad, 0, [0]),
        lambda: replay_bmo_witness(f, bad, level_set),
        lambda: replay_bmo_witness(f, bad, stops),
        lambda: replay_bmo_witness(f, 0.5, {**level_set, "p": bad}),
        lambda: process_bmo_alpha_norm(g, bad),
        lambda: carleson_alpha_norm(mu, bad),
        lambda: carleson_alpha_norms(mu, [0.25, bad], "stopping-bruteforce"),
        lambda: carleson_ratio_at(mu, bad, [[0, 0]]),
        lambda: carleson_inequality_check(g, mu, 2.0, bad),
        lambda: carleson_inequality_check(g, mu, bad, 0.25),
        lambda: carleson_inequality_grid(g, mu, [2.0], [0.25, bad]),
        lambda: carleson_inequality_grid(g, mu, [2.0, bad], [0.25]),
        lambda: converse_extraction(mu, bad, 1.0, 2.0),
        lambda: converse_extraction(mu, 0.25, 1.0, bad),
        lambda: check_carleson_inequality(trials=1, converse_trials=1, alphas=[bad]),
        lambda: check_carleson_inequality(trials=1, converse_trials=1, ps=[bad]),
        lambda: campaign([0.25], [1], 1, ps=[2.0, bad]),
    ]
    shown = "|".join({re.escape(str(bad)), re.escape(repr(bad))})
    for call in calls:
        with pytest.raises(ValueError, match=f"^(alpha must lie in|p must).*, got ({shown})$"):
            call()


def test_an_integer_alpha_or_p_past_the_float_range_is_refused():
    # float(10**400) overflows; each check reads such an integer as inf
    tree = build_dyadic(1)
    f = random_martingale(tree, 1, 1)
    mu = from_martingale(f)
    level_set = bmo_alpha_norm(f, 0.5).witness
    big = 10**400
    calls = [
        lambda: bmo_alpha_norm(f, big),
        lambda: bmo_alpha_norm(f, 0.5, p=big),
        lambda: carleson_alpha_norm(mu, big),
        lambda: carleson_ratio_at(mu, big, [[0, 0]]),
        lambda: replay_bmo_witness(f, big, level_set),
        lambda: carleson_inequality_grid(f, mu, [big], [0.25]),
        lambda: carleson_inequality_grid(f, mu, [2.0], [big]),
        lambda: converse_extraction(mu, big, 1.0, 2.0),
        lambda: converse_extraction(mu, 0.25, 1.0, big),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="^(alpha must lie in|p must).*, got inf$"):
            call()
    # an infinite constant is a constant: it bounds every ratio
    conv = converse_extraction(mu, 0.25, big, 2.0)
    assert conv["c_p"] == math.inf and conv["norm_bound_satisfied"]


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


@pytest.mark.parametrize("module, name, public", [
    (carleson, "_left_side", lambda g, tau, mu: carleson_inequality_grid(g, mu, [2.0], [0.25])),
    (operators, "_running_max", lambda g, tau, mu: operators.running_maximal(g)),
    (stopping, "_indicator_levels", lambda g, tau, mu: indicator_process(tau)),
])
def test_converse_runs_the_public_primitives(monkeypatch, module, name, public):
    """The converse checks the inequality's own left side, running maximum
    and indicator levels, not copies of them."""
    real = getattr(module, name)
    assert getattr(carleson, name) is real
    calls = []

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, spy)
    monkeypatch.setattr(carleson, name, spy)
    tree = build_dyadic(2)
    mu = random_measure(tree, 3)
    public(random_adapted_process(tree, 4, 1), StoppingTime(tree, [(1, 0)]), mu)
    assert len(calls) == 1
    converse_extraction(mu, 0.25, 1.0, 2.0)
    assert len(calls) == 2


def test_converse_validation():
    tree = build_dyadic(1)
    mu = random_measure(tree, 13)
    with pytest.raises(ValueError):
        converse_extraction(mu, 0.25, 1.0, 1.0)
    with pytest.raises(ValueError):
        converse_extraction(mu, 1.0, 1.0, 2.0)


def test_converse_refuses_a_nan_constant():
    mu = random_measure(build_dyadic(2), 1)
    with pytest.raises(ValueError, match="^c_p must be a number, got nan$"):
        converse_extraction(mu, 0.25, math.nan, 2.0)
    assert converse_extraction(mu, 0.25, math.inf, 2.0)["norm_bound_satisfied"]
    assert not converse_extraction(mu, 0.25, -math.inf, 2.0)["norm_bound_satisfied"]


def test_ratio_at_takes_integer_stops_only():
    mu = random_measure(build_dyadic(2), 1)
    for stops, bad in (([[1.5, 0]], "1.5"), ([[1, True]], "True")):
        with pytest.raises(ValueError, match=f"must be integers, got {bad}$"):
            carleson_ratio_at(mu, 0.25, stops)


@pytest.mark.parametrize("stops, message", [
    (None, r"stops must be a list of \[level, index\] pairs, got None"),
    ([[1]], r"a stop must be a \[level, index\] pair, got \[1\]"),
    ([1], r"a stop must be a \[level, index\] pair, got 1"),
    ([[0, 0, 0]], r"a stop must be a \[level, index\] pair, got \[0, 0, 0\]"),
])
def test_ratio_at_names_a_malformed_stop(stops, message):
    mu = random_measure(build_dyadic(2), 1)
    with pytest.raises(ValueError, match=f"^{message}$"):
        carleson_ratio_at(mu, 0.25, stops)


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

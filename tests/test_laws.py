"""Laws the norms obey by their definitions, checked with no oracle.

Each law tests one mode alone, so it reaches trees past the enumeration
cap that no second computation can check:

- alpha-monotonicity: P(A) <= 1, so every candidate, and the supremum,
  is nondecreasing in alpha;
- homogeneity: scaling a martingale by c scales every oscillation-norm
  candidate by c, and scaling a measure's densities by c scales every
  measure-norm candidate by c.

Seeded probes with c = 2**k (random trees of depth 1-3 for all six
modes, depth 1-8 and up to 6,561 leaves for the fast modes; dims 1-3)
found:

- no value ever fell as alpha grew, so monotonicity is asserted exactly;
- the fast modes and both measure modes scaled bitwise, so their
  homogeneity is asserted bitwise, witness included;
- the two brute-force oscillation modes scaled bitwise in all but 13 of
  48,000 (tree, alpha) pairs, off by at most 2.37e-16 relative (one ulp).
  They take the square root as Python's ``x ** 0.5``, one candidate at a
  time, which is not always the correctly rounded root that numpy's
  array power gives, so ``(4**k x) ** 0.5`` can miss ``2**k x ** 0.5`` by
  an ulp.  They are gated at 4.5e-16 relative, about one ulp more than
  the worst seen.

Three more laws rearrange the tree or transform the martingale:

- one-child level: give every atom of one level a single child holding
  its children, and take the martingale of the same final values; the
  new candidates are dominated, so every oscillation norm is unchanged;
- sibling reversal: reverse every atom's children and the leaf values
  to match; the sums run in another order, so the norms move by
  rounding only;
- operator route: the increment measure of the transform by v is at
  most ``v.bound ** 2`` times that of f, cell by cell, which with the
  characterization gives the transform bound.

A seeded probe over 150 trees ``build_random(1000 + s, 1 + s % 4, 3)``,
dims 1 and 3, alphas 0, 0.25, 0.5 and 0.9, with every level made a
one-child level in turn, found:

- all 15,560 one-child pairs equal bit for bit, in every mode the caps
  allow, so that law is asserted bitwise;
- a worst reversal gap of 4.2e-16 relative for the oscillation modes
  and 8.0e-16 for both measure modes (on the increment measure; 2.8e-16
  on random densities), gated at 1e-15 and 2e-15;
- a worst operator-route excess of 1.4e-14 absolute (coefficients
  uniform on [-2, 2], values of order 1), gated at 1e-13.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bmolab import (
    CarlesonMeasure,
    FiltrationTree,
    Martingale,
    PredictableSequence,
    RandomVariable,
    bmo_alpha_norms,
    build_random,
    carleson_alpha_norms,
    from_martingale,
    martingale_from_final,
    random_martingale,
    random_measure,
    transform,
)
from bmolab.carleson import CARLESON_MODES
from bmolab.norms import BMO_MODES

FAST_BMO_MODES = ("atom-fast", "omega-form")
FAST_MEASURE_MODES = ("node-fast",)
# Relative gate on homogeneity per oscillation mode; 0 means bitwise.
SCALING_GATE = {"atom-fast": 0.0, "omega-form": 0.0,
                "subset-bruteforce": 4.5e-16, "stopping-bruteforce": 4.5e-16}
# Relative gates on sibling reversal, and the absolute gate on the
# operator route's cell excess.
REVERSAL_GATE_BMO = 1e-15
REVERSAL_GATE_MEASURE = 2e-15
OPERATOR_ROUTE_GATE = 1e-13

seeds = st.integers(0, 2**32 - 1)
bmo_alphas = st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6).map(sorted)
measure_alphas = st.lists(
    st.floats(0.0, 1.0, exclude_max=True), min_size=2, max_size=6
).map(sorted)


@st.composite
def trees_and_modes(draw):
    """``(tree, bmo_modes, measure_modes)``: a tree small enough for both
    brute-force oracles (at most 677 stopping times and 255 unions on a
    level) with every mode, or one up to 3**8 leaves with the fast modes."""
    seed = draw(seeds)
    if draw(st.booleans()):
        depth = draw(st.integers(1, 3))
        tree = build_random(seed, depth, 2 if depth == 3 else 3)
        return tree, BMO_MODES, CARLESON_MODES
    tree = build_random(seed, draw(st.integers(1, 8)), 3)
    return tree, FAST_BMO_MODES, FAST_MEASURE_MODES


def _nondecreasing(values):
    return all(a <= b for a, b in zip(values, values[1:]))


@given(trees_and_modes(), seeds, st.integers(1, 3), bmo_alphas, measure_alphas)
@settings(max_examples=40, deadline=None)
def test_every_mode_is_nondecreasing_in_alpha(case, seed, dim, alphas, measure_alphas):
    tree, bmo_modes, measure_modes = case
    f = random_martingale(tree, seed, dim)
    mu = random_measure(tree, seed)
    for mode in bmo_modes:
        values = [r.value for r in bmo_alpha_norms(f, alphas, mode)]
        assert _nondecreasing(values), (mode, alphas, values)
    for mode in measure_modes:
        values = [r.value for r in carleson_alpha_norms(mu, measure_alphas, mode)]
        assert _nondecreasing(values), (mode, measure_alphas, values)


@given(trees_and_modes(), seeds, st.integers(1, 3), st.integers(-300, 200), bmo_alphas)
@settings(max_examples=40, deadline=None)
def test_scaling_a_martingale_scales_every_oscillation_norm(case, seed, dim, k, alphas):
    tree, bmo_modes, _ = case
    c = math.ldexp(1.0, k)
    f = random_martingale(tree, seed, dim)
    scaled = Martingale(tree, [level * c for level in f.levels])
    for mode in bmo_modes:
        gate = SCALING_GATE[mode]
        for r, s in zip(bmo_alpha_norms(f, alphas, mode), bmo_alpha_norms(scaled, alphas, mode)):
            if not gate:
                assert s.value == c * r.value, (mode, k, r.value, s.value)
                assert s.witness == r.witness
            assert abs(s.value - c * r.value) <= gate * c * r.value, (mode, k, r.value, s.value)


@given(trees_and_modes(), seeds, st.integers(-40, 40), measure_alphas)
@settings(max_examples=40, deadline=None)
def test_scaling_a_measure_scales_both_measure_norms(case, seed, k, alphas):
    tree, _, measure_modes = case
    c = math.ldexp(1.0, k)
    mu = random_measure(tree, seed)
    scaled = CarlesonMeasure(tree, np.asarray(mu.densities) * c)
    for mode in measure_modes:
        for r, s in zip(
            carleson_alpha_norms(mu, alphas, mode), carleson_alpha_norms(scaled, alphas, mode)
        ):
            assert s.value == c * r.value, (mode, k, r.value, s.value)
            assert s.witness == r.witness


def _one_child_level(node, n, level=0):
    """The tree document with every level-``n`` atom given one child of its
    own mass that holds its children."""
    children = [_one_child_level(c, n, level + 1) for c in node["children"]]
    if level == n:
        children = [{"mass": node["mass"], "children": children}]
    return {"mass": node["mass"], "children": children}


def _reversed(node):
    """The tree document with every atom's children in reverse order."""
    return {"mass": node["mass"], "children": [_reversed(c) for c in reversed(node["children"])]}


def _rel(a, b):
    return abs(a - b) / abs(a) if a else abs(b)


@given(trees_and_modes(), seeds, st.integers(1, 3), st.integers(0, 8), bmo_alphas)
@settings(max_examples=40, deadline=None)
def test_a_one_child_level_leaves_every_oscillation_norm_unchanged(case, seed, dim, n, alphas):
    tree, bmo_modes, _ = case
    f = random_martingale(tree, seed, dim)
    padded = FiltrationTree(_one_child_level(tree.to_dict()["root"], n % (tree.depth + 1)))
    g = martingale_from_final(RandomVariable(padded, f.final_value().values))
    for mode in bmo_modes:
        for r, s in zip(bmo_alpha_norms(f, alphas, mode), bmo_alpha_norms(g, alphas, mode)):
            assert s.value == r.value, (mode, n, r.value, s.value)


@given(trees_and_modes(), seeds, st.integers(1, 3), bmo_alphas, measure_alphas)
@settings(max_examples=40, deadline=None)
def test_reversing_siblings_moves_every_norm_by_rounding_only(
    case, seed, dim, alphas, measure_alphas
):
    tree, bmo_modes, measure_modes = case
    mirror = FiltrationTree(_reversed(tree.to_dict()["root"]))
    f = random_martingale(tree, seed, dim)
    g = martingale_from_final(RandomVariable(mirror, f.final_value().values[::-1]))
    for mode in bmo_modes:
        for r, s in zip(bmo_alpha_norms(f, alphas, mode), bmo_alpha_norms(g, alphas, mode)):
            assert _rel(r.value, s.value) <= REVERSAL_GATE_BMO, (mode, r.value, s.value)
    mu = random_measure(tree, seed)
    pairs = [
        (from_martingale(f), from_martingale(g)),
        (mu, CarlesonMeasure(mirror, np.asarray(mu.densities)[:, ::-1])),
    ]
    for mode in measure_modes:
        for a, b in pairs:
            for r, s in zip(
                carleson_alpha_norms(a, measure_alphas, mode),
                carleson_alpha_norms(b, measure_alphas, mode),
            ):
                assert _rel(r.value, s.value) <= REVERSAL_GATE_MEASURE, (mode, r.value, s.value)


@given(trees_and_modes(), seeds, st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_a_transform_scales_the_increment_measure_by_at_most_the_bound_squared(case, seed, dim):
    tree = case[0]
    f = random_martingale(tree, seed, dim)
    rng = np.random.default_rng(seed)
    v = PredictableSequence(
        tree,
        [rng.uniform(-2.0, 2.0, 1)]
        + [rng.uniform(-2.0, 2.0, tree.atom_count(k - 1)) for k in range(1, tree.depth + 1)],
    )
    excess = from_martingale(transform(f, v)).densities - v.bound**2 * from_martingale(f).densities
    assert excess.max() <= OPERATOR_ROUTE_GATE, excess.max()

"""The stopping-time table and the chunked brute-force scorers.

The oracles score whole tables of stopping times (and whole chunks of
atom unions) at once.  Their contract is bitwise: same values, same
witnesses, same order as scoring one stopping time or one union at a
time.  The per-object scorers below are that one-at-a-time reference.
"""

import functools

import numpy as np
import pytest

from bmolab import (
    SizeCapError,
    StoppingTime,
    bmo_alpha_norm,
    build_dyadic,
    build_random,
    carleson_alpha_norm,
    carleson_inequality_check,
    converse_extraction,
    count_stopping_times,
    indicator_process,
    random_martingale,
    random_measure,
    stopped_before,
)
from bmolab import carleson, norms, stopping
from bmolab.carleson import _indicator_sides
from bmolab.norms import (
    _ArgMax,
    _bmo_blocks,
    _residual_integrals,
    _stopping_blocks,
    _union_sums,
    _union_table,
)
from bmolab.operators import maximal
from bmolab.process import _modulus

import oracles


# == per-object reference scorers ============================================


@functools.cache
def reference_taus(tree):
    return [StoppingTime(tree, stops) for stops in oracles.behaviors(tree.to_dict()["root"])]


def _stops(tau):
    return [[s.level, s.index] for s in tau.stops]


def _tent_mass(mu, tau):
    t = tau.tau_values()
    total = 0.0
    for k in range(mu.tree.depth + 1):
        total += float(np.sum(np.where(t <= k, mu.weighted[k], 0.0)))
    return total


def _lhs(g, mu, p):
    total = 0.0
    for k in range(g.tree.depth + 1):
        total += float(np.sum(_modulus(g.leaf_view(k)) ** p * mu.weighted[k]))
    return total


def _first_max(candidates):
    """(value, witness) of the first strict maximum, a NaN kept only first."""
    value, witness = -np.inf, None
    for v, w in candidates:
        if v > value or witness is None:
            value, witness = float(v), w
    return value, witness


@functools.cache
def bmo_stopping_candidates(f, alpha):
    """(ratio, witness) per stopping time, never-stopping excluded."""
    w = f.tree.leaf_masses
    final = f.level(f.depth)
    out = []
    for tau in reference_taus(f.tree)[:-1]:
        resid = final - stopped_before(f, tau).values
        integral = np.sum(_modulus(resid) ** 2 * w)
        val = integral**0.5 * tau.prob_finite ** (-0.5 - alpha)
        out.append((float(val), {"kind": "stopping-time", "stops": _stops(tau)}))
    return out


@functools.cache
def bmo_subset_candidates(f, alpha, p):
    """(ratio, witness) per level and nonempty union, masks ascending."""
    tree = f.tree
    out = []
    for n in range(tree.depth + 1):
        r = _residual_integrals(f, n, p)
        m = tree.masses(n)
        k = tree.atom_count(n)
        for mask in range(1, 1 << k):
            idx = [i for i in range(k) if mask >> i & 1]
            val = np.sum(r[idx]) ** (1.0 / p) * np.sum(m[idx]) ** (-1.0 / p - alpha)
            out.append((float(val), {"kind": "level-set", "level": n, "atoms": idx}))
    return out


@functools.cache
def carleson_candidates(mu, alpha):
    expo = -(1.0 + 2.0 * alpha)
    return [
        (_tent_mass(mu, tau) * tau.prob_finite**expo, {"kind": "stopping-time", "stops": _stops(tau)})
        for tau in reference_taus(mu.tree)[:-1]
    ]


@functools.cache
def ref_converse(mu, alpha, c_p, p):
    expo = -(1.0 + 2.0 * alpha)
    slack = 1e-12 * max(1.0, float(c_p))
    ratios, first_violation, violation_row = [], None, None
    identity_exact = maximal_identity = True
    for tau in reference_taus(mu.tree)[:-1]:
        ind = indicator_process(tau)
        tent = _tent_mass(mu, tau)
        identity_exact &= _lhs(ind, mu, p) == tent
        chi = np.where(tau.finite_mask(), 1.0, 0.0)
        maximal_identity &= bool(np.array_equal(maximal(ind).values, chi))
        ratio = tent * tau.prob_finite**expo
        ratios.append((ratio, {"kind": "stopping-time", "stops": _stops(tau)}))
        if ratio > c_p + slack and first_violation is None:
            first_violation = {"ratio": float(ratio), "stops": _stops(tau)}
            violation_row = len(ratios) - 1
    value, witness = _first_max(ratios)
    return {
        "max_ratio": value,
        "witness": witness,
        "first_violation": first_violation,
        "identity_exact": identity_exact,
        "maximal_identity": maximal_identity,
        "stopping_times_checked": len(ratios),
        "violation_row": violation_row,
    }


# == trees ===================================================================


def _wide_fans():
    """Seeded random trees with a level at least 8 atoms wide, small enough
    to enumerate one stopping time at a time."""
    trees = []
    for seed in range(200):
        tree = build_random(seed, 2, 9)
        wide = max(tree.atom_count(n) for n in range(tree.depth + 1)) >= 8
        if wide and count_stopping_times(tree) <= 1000:
            trees.append(tree)
        if len(trees) == 2:
            return trees
    raise AssertionError("no wide fan found")


WIDE = _wide_fans()
TREES = [build_dyadic(2), build_dyadic(3), build_random(16, 3, 3)] + WIDE
TREE_IDS = [f"tree{i}" for i in range(len(TREES))]


@functools.cache
def _martingale(tree, dim):
    return random_martingale(tree, 11, dim)


@functools.cache
def _measure(tree):
    return random_measure(tree, 4)


@pytest.fixture(params=[7, stopping.CHUNK_ROWS], ids=["chunk7", "chunk-default"])
def chunk_rows(request, monkeypatch):
    monkeypatch.setattr(stopping, "CHUNK_ROWS", request.param)
    return request.param


@pytest.fixture(params=[3, 5], ids=["table3", "table5"])
def union_table_bits(request, monkeypatch):
    """A union table of 2 ** 3 or 2 ** 5 masks, so that levels of the
    `WIDE` trees run in pieces, across a count of 8 atoms."""
    monkeypatch.setattr(stopping, "UNION_TABLE_BITS", request.param)
    return request.param


# == the table ===============================================================


@pytest.mark.parametrize("tree", [build_dyadic(d) for d in (0, 1, 2, 3)] + WIDE)
def test_table_rows_follow_the_recursive_order(tree):
    table = stopping.stopping_time_table(tree)
    assert table.dtype == np.int8 and table.flags.c_contiguous
    want = [tuple(sorted(s)) for s in oracles.behaviors(tree.to_dict()["root"])]
    got = [tuple(tuple(r) for r in stopping.row_stops(tree, row)) for row in table]
    assert got == want
    assert want[-1] == () and np.all(table[-1] == tree.depth + 1)
    for row, stops in zip(table, want):
        assert np.array_equal(row, StoppingTime(tree, stops).tau_values())


@pytest.mark.parametrize("tree", TREES, ids=TREE_IDS)
def test_prob_finite_matches_stop_set_sums_bitwise(tree):
    table = stopping.stopping_time_table(tree)
    want = [tau.prob_finite for tau in reference_taus(tree)]
    assert stopping.prob_finite(tree, table).tolist() == want


def test_enumerate_yields_the_table_rows():
    tree = WIDE[0]
    got = [tau.stops for tau in stopping.enumerate_stopping_times(tree)]
    assert got == [tau.stops for tau in reference_taus(tree)]


def test_table_cap_checked_before_building():
    with pytest.raises(SizeCapError):
        stopping.stopping_time_table(build_dyadic(5))  # 2.1e11 stopping times


def test_deep_chain_table_widens_its_dtype():
    tree = build_random(1, 200, 1)
    table = stopping.stopping_time_table(tree)
    assert table.dtype == np.int16
    assert table[:, 0].tolist() == list(range(201)) + [201]


def test_chain_past_the_int16_range_gets_int32():
    # the never-stopping row holds depth + 1 = 32768, one past int16
    tree = build_random(0, 32767, 1)
    table = stopping.stopping_time_table(tree)
    assert table.dtype == np.int32
    assert table[-2:].tolist() == [[32767], [32768]]


# == batched scoring equals per-object scoring, bit for bit ==================


@pytest.mark.parametrize("tree", TREES, ids=TREE_IDS)
@pytest.mark.parametrize("dim", [1, 3, 9])
def test_bmo_stopping_bitwise(tree, dim, chunk_rows):
    f = _martingale(tree, dim)
    for alpha in (0.0, 0.3, 1.0):
        res = bmo_alpha_norm(f, alpha, "stopping-bruteforce")
        assert (res.value, res.witness) == _first_max(bmo_stopping_candidates(f, alpha))


def _subset_bitwise(tree):
    for dim in (1, 3):
        f = _martingale(tree, dim)
        for alpha in (0.0, 0.45):
            res = bmo_alpha_norm(f, alpha, "subset-bruteforce")
            assert (res.value, res.witness) == _first_max(bmo_subset_candidates(f, alpha, 2.0))
        res = bmo_alpha_norm(f, 0.2, "subset-bruteforce", p=3.0)
        assert res.value == _first_max(bmo_subset_candidates(f, 0.2, 3.0))[0]


@pytest.mark.parametrize("tree", TREES, ids=TREE_IDS)
def test_bmo_subset_bitwise(tree, chunk_rows):
    _subset_bitwise(tree)


@pytest.mark.parametrize("tree", TREES, ids=TREE_IDS)
def test_bmo_subset_bitwise_in_pieces(tree, chunk_rows, union_table_bits):
    _subset_bitwise(tree)


@pytest.mark.parametrize("tree", TREES, ids=TREE_IDS)
def test_carleson_stopping_bitwise(tree, chunk_rows):
    mu = _measure(tree)
    for alpha in (0.0, 0.25, 0.9):
        res = carleson_alpha_norm(mu, alpha, "stopping-bruteforce")
        assert (res.value, res.witness) == _first_max(carleson_candidates(mu, alpha))


@pytest.mark.parametrize("tree", TREES, ids=TREE_IDS)
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_converse_every_field_bitwise(tree, p, chunk_rows):
    mu = _measure(tree)
    alpha = 0.25
    norm = carleson_alpha_norm(mu, alpha, "node-fast").value
    for c_p in (norm, 0.5 * norm):
        got = converse_extraction(mu, alpha, c_p, p)
        want = ref_converse(mu, alpha, c_p, p)
        fv = want["first_violation"]
        assert got["first_violation"] == fv
        assert got["norm_bound_satisfied"] == (fv is None)
        assert got["c_p"] == c_p
        for key in ("max_ratio", "witness", "identity_exact", "maximal_identity",
                    "stopping_times_checked"):
            assert got[key] == want[key], key
        assert got["identity_exact"] and got["maximal_identity"]


def test_first_violation_beyond_the_first_chunk(chunk_rows):
    tree = build_dyadic(3)
    mu = random_measure(tree, 8)
    alpha, p = 0.25, 2.0
    ratios = [r for r, _ in carleson_candidates(mu, alpha)]
    # a constant that the first 3 chunks of 7 rows respect but a later row beats
    c_p = max(ratios[:21])
    want = ref_converse(mu, alpha, c_p, p)
    assert want["first_violation"] is not None and want["violation_row"] >= 21
    got = converse_extraction(mu, alpha, c_p, p)
    assert got["first_violation"] == want["first_violation"]
    assert not got["norm_bound_satisfied"]


def test_each_oracle_computes_p_tau_finite_once_per_table(monkeypatch):
    """The oracles slice one P(tau finite) column per table, not one per
    chunk of CHUNK_ROWS rows (each row sums its own atoms, so the bits do
    not depend on the rows beside it)."""
    tree = build_random(3, 3, 3)
    rows = count_stopping_times(tree) - 1  # the never-stopping row is not scored
    assert rows > stopping.CHUNK_ROWS
    calls = []

    def counted(tree, taus):
        calls.append(len(taus))
        return stopping.prob_finite(tree, taus)

    monkeypatch.setattr(norms, "prob_finite", counted)
    monkeypatch.setattr(carleson, "prob_finite", counted)
    f, mu = _martingale(tree, 1), _measure(tree)
    scans = {
        "oscillation stopping-bruteforce": lambda: bmo_alpha_norm(f, 0.25, "stopping-bruteforce"),
        "measure stopping-bruteforce": lambda: carleson_alpha_norm(mu, 0.25, "stopping-bruteforce"),
        "converse_extraction": lambda: converse_extraction(mu, 0.25, 1.0, 2.0),
    }
    for name, call in scans.items():
        calls.clear()
        call()
        assert calls == [rows], name


# == every row's score, not only the winner's ================================
#
# A score that differs in the last bit for one losing row leaves the norm
# unchanged, so these compare the full per-row arrays.


def _values(candidates):
    return [v for v, _ in candidates]


def _scores(blocks, e):
    """Every candidate's score at exponent ``e``, blocks in scan order."""
    return [v for values_at, _ in blocks for v in values_at(e).tolist()]


@pytest.mark.parametrize("tree", TREES, ids=TREE_IDS)
def test_every_stopping_row_scores_bitwise(tree):
    table = stopping.stopping_time_table(tree)[:-1]
    for dim in (1, 9):
        f = _martingale(tree, dim)
        for alpha in (0.0, 0.3, 1.0):
            got = _scores(_bmo_blocks(f, 2.0, "stopping-bruteforce", stopping.DEFAULT_MAX_ENUM), -0.5 - alpha)
            assert got == _values(bmo_stopping_candidates(f, alpha))
    mu = _measure(tree)
    assert mu.tent_masses(table).tolist() == [_tent_mass(mu, tau) for tau in reference_taus(tree)[:-1]]
    for alpha in (0.0, 0.25, 0.9):
        blocks = _stopping_blocks(tree, None, lambda t: mu.tent_masses(t).tolist())
        got = _scores(blocks, -(1.0 + 2.0 * alpha))
        assert got == _values(carleson_candidates(mu, alpha))


@pytest.mark.parametrize("tree", TREES, ids=TREE_IDS)
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_every_indicator_row_bitwise(tree, p):
    table = stopping.stopping_time_table(tree)[:-1]
    mu = _measure(tree)
    lhs, running = _indicator_sides(table, mu, p)
    processes = [indicator_process(tau) for tau in reference_taus(tree)[:-1]]
    public = [carleson_inequality_check(g, mu, p, 0.25).lhs for g in processes]
    assert lhs.tolist() == public == [_lhs(g, mu, p) for g in processes]
    assert np.array_equal(running, [maximal(g).values for g in processes])


def _unions_bitwise(tree):
    f = _martingale(tree, 3)
    for p, alpha in ((2.0, 0.45), (3.0, 0.2)):
        want = _values(bmo_subset_candidates(f, alpha, p))
        blocks = _bmo_blocks(f, p, "subset-bruteforce", stopping.DEFAULT_MAX_ENUM)
        got = _scores(blocks, -1.0 / p - alpha)
        assert got == want


@pytest.mark.parametrize("tree", TREES, ids=TREE_IDS)
def test_every_union_scores_bitwise(tree):
    _unions_bitwise(tree)


@pytest.mark.parametrize("tree", TREES, ids=TREE_IDS)
def test_every_union_scores_bitwise_in_pieces(tree, union_table_bits):
    _unions_bitwise(tree)


# == the union table =========================================================


def _grouped_sums(x, masks):
    """np.sum of x over each mask's atoms: masks grouped by atom count, so
    each group sums a C-contiguous (unions, atoms) matrix."""
    bits = (masks[:, None] >> np.arange(len(x)) & 1).astype(bool)
    counts = bits.sum(axis=1)
    out = np.empty(len(masks))
    for c in np.unique(counts).tolist():
        rows = np.flatnonzero(counts == c)
        out[rows] = x[np.nonzero(bits[rows])[1].reshape(len(rows), c)].sum(axis=1)
    return out


def _atom_values(rng, k, extreme):
    """k values over many magnitudes with 0.0 and a subnormal, or (with
    ``extreme``) 1e300 and inf, among them."""
    x = rng.random(k) * 10.0 ** rng.integers(-12, 12, size=k)
    specials = (1e300, np.inf) if extreme else (0.0, 5e-324)
    for i, v in zip(rng.permutation(k), specials):
        x[i] = v
    return x


@pytest.mark.parametrize("bits", [stopping.UNION_TABLE_BITS, 3, 5])
def test_union_table_is_numpys_sum(bits):
    """Every mask's sums at widths 1 to 18 (11 in pieces of 2 ** 3 or 2 ** 5
    masks), bitwise the grouped numpy sums, through counts 8 and 16."""
    rng = np.random.default_rng(bits)
    for k in range(1, 19 if bits == stopping.UNION_TABLE_BITS else 12):
        r, m = _atom_values(rng, k, extreme=False), _atom_values(rng, k, extreme=True)
        table = _union_table(r, m, min(k, bits))
        got = [_union_sums(r, m, table, rows.start + 1, rows.stop + 1)
               for rows in stopping.chunks((1 << k) - 1)]
        masks = np.arange(1, 1 << k)
        for x, sums in zip((r, m), zip(*got)):
            want = _grouped_sums(x, masks)
            assert np.array_equal(np.concatenate(sums).view(np.int64), want.view(np.int64)), k
            for mask in rng.choice(masks, size=min(len(masks), 200), replace=False).tolist():
                idx = [i for i in range(k) if mask >> i & 1]
                assert want[mask - 1] == np.sum(x[idx])


def test_subset_on_a_17_atom_fan_is_the_reference():
    """A level one atom wider than the default table runs in two pieces."""
    tree = next(t for t in map(lambda s: build_random(s, 1, 17), range(500))
                if t.atom_count(1) == 17)
    f = random_martingale(tree, 26, 2)
    cap = 2**17  # the 2 ** 17 - 1 unions of the fan and the root
    for alpha, p in ((0.3, 2.0), (0.05, 1.5)):
        res = bmo_alpha_norm(f, alpha, "subset-bruteforce", max_enum=cap, p=p)
        want = oracles.reference_bmo_sup(f, alpha, p, "subset-bruteforce", cap)
        want_witness = want.witness if p == 2.0 else {**want.witness, "p": p}
        assert (res.value, res.witness) == (want.value, want_witness)
        assert res.witness["level"] == 1


# == the running argmax ======================================================


def _sequential(values):
    return _first_max(zip(values, range(len(values))))


def _batched(values, chunk):
    best = _ArgMax()
    arr = np.array(values, dtype=float)
    for lo in range(0, len(arr), chunk):
        part = arr[lo : lo + chunk]
        best.offer_all(part, lambda j, lo=lo: lo + j)
    return best.value, best.witness


@pytest.mark.parametrize(
    "values",
    [
        [np.nan, 1.0, 2.0],
        [1.0, np.nan, 2.0, np.nan],
        [2.0, 2.0, 1.0, 2.0],
        [1.0, 3.0, 3.0, np.nan, 3.0],
        [np.nan, np.nan],
        [-np.inf, -np.inf, 0.0],
        [-np.inf, np.nan, -np.inf],
        [0.5, np.inf, np.inf, np.nan],
    ],
)
@pytest.mark.parametrize("chunk", [1, 2, 3, 100])
def test_offer_all_matches_sequential_offers(values, chunk):
    got, want = _batched(values, chunk), _sequential(values)
    assert got[1] == want[1]
    assert np.array_equal([got[0]], [want[0]], equal_nan=True)


def test_offer_all_random_ties_and_nans():
    rng = np.random.default_rng(0)
    for _ in range(200):
        values = rng.integers(0, 4, size=int(rng.integers(1, 30))).astype(float)
        values[rng.random(values.size) < 0.2] = np.nan
        for chunk in (1, 4, 7):
            got, want = _batched(values, chunk), _sequential(values)
            assert got[1] == want[1]
            assert np.array_equal([got[0]], [want[0]], equal_nan=True)

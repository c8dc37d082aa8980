import csv
import hashlib
import inspect
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bmolab import (
    VerificationReport,
    bench,
    campaign,
    check_carleson_inequality,
    check_characterization,
    check_lemma_stopping_form,
    check_operators,
    replay_characterization_case,
)
from bmolab import verify
from bmolab.filtration import dump_json
from bmolab.verify import CSV_COLUMNS, SEED_SCHEME, SUITES


# == suites at reduced size ==================================================


def test_characterization_suite_small():
    rep = check_characterization(trials=6, seed=42)
    assert rep.suite == "characterization"
    assert rep.passed
    assert len(rep.cases) == 6 * 2 * 4
    assert rep.params["seed_scheme"] == SEED_SCHEME
    assert rep.wall_clock_s >= 0.0


def test_lemma_suite_small():
    rep = check_lemma_stopping_form(trials=4, seed=43)
    assert rep.suite == "lemma-stopping-form"
    assert rep.passed
    assert all(c["stopping_times"] <= 30 for c in rep.cases)


def test_inequality_suite_small():
    rep = check_carleson_inequality(trials=5, converse_trials=3, seed=44)
    assert rep.suite == "carleson-inequality"
    assert rep.passed
    kinds = {c["kind"] for c in rep.cases}
    assert kinds == {"inequality", "converse"}


def test_inequality_cases_record_p_and_alpha_as_the_floats_they_ran_at():
    """An integer p is read as a float, and every case, inequality and
    converse alike, records that float, as does `campaign` with ps."""
    rep = check_carleson_inequality(trials=2, ps=[2, 3.0], alphas=[0.25], converse_trials=2, seed=44)
    ran = campaign(alphas=[0.25], depths=[1], trials=2, ps=[2])
    for c in rep.cases + ran.cases:
        assert type(c["p"]) is float and type(c["alpha"]) is float, c
    assert {c["p"] for c in rep.cases} == {2.0, 3.0}


def test_operators_suite_small():
    rep = check_operators(trials=5, seed=45)
    assert rep.suite == "operators"
    assert rep.passed
    assert all("maximal_ratio" in c for c in rep.cases)


def test_suite_registry():
    assert set(SUITES) == {
        "characterization",
        "lemma",
        "carleson-inequality",
        "operators",
    }


# == determinism and replay ==================================================


def test_same_seed_reports_are_byte_identical():
    a = check_lemma_stopping_form(trials=3, seed=7)
    b = check_lemma_stopping_form(trials=3, seed=7)
    assert a.to_json(comparison=True) == b.to_json(comparison=True)
    c = check_lemma_stopping_form(trials=3, seed=8)
    assert a.to_json(comparison=True) != c.to_json(comparison=True)


def test_comparison_mode_drops_only_wall_clock():
    rep = check_operators(trials=2, seed=9)
    full = rep.to_dict()
    comp = rep.to_dict(comparison=True)
    assert "wall_clock_s" in full and "wall_clock_s" not in comp
    full.pop("wall_clock_s")
    assert full == comp


def test_report_json_round_trip(tmp_path):
    rep = check_characterization(trials=2, seed=10)
    path = tmp_path / "rep.json"
    rep.save(str(path))
    doc = json.loads(path.read_text())
    assert doc["schema"] == "report/v1"
    assert doc["suite"] == "characterization"
    assert doc["verdict"] == "pass"
    assert len(doc["cases"]) == len(rep.cases)


def test_replay_is_bit_exact():
    rep = check_characterization(trials=3, seed=11)
    for case in rep.cases[:5]:
        again = replay_characterization_case(case)
        assert again["rhs"] == case["rhs"]
        assert again["carleson_value"] == case["carleson_value"]


# == the case writer against the standard library ===========================


def _tolist(o):
    if isinstance(o, (np.generic, np.ndarray)):
        return o.tolist()
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_INTS = st.integers(-(2**70), 2**70)
_TEXT = st.text(st.characters(codec="utf-8"), max_size=6) | st.sampled_from(
    ['q"uote', "back\\slash", "tab\tnew\nline\x00", "\u00e9\u4e2d\U0001f600", "{}", "{0}"]
)
_SCALARS = (
    _FLOATS | st.just(-0.0) | st.none() | st.booleans() | _INTS | _TEXT
    | st.floats(width=64).map(np.float64) | st.floats(width=32).map(np.float32)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64) | st.booleans().map(np.bool_)
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: (
        st.lists(inner, max_size=3) | st.lists(inner, max_size=2).map(tuple)
        | st.dictionaries(_TEXT, inner, max_size=3)
        | st.dictionaries(st.integers(0, 9), inner, max_size=2)
    ),
    max_leaves=6,
)
_KEYS = st.sampled_from(["alpha", "p", "lhs", "witness", "kind", 'q"uote', "back\\slash",
                         "tab\t", "\u00e9", "{brace}", "a}{b", ""])


@st.composite
def _cases(draw):
    """Cases over a few key sets in a random order, so runs alternate; each
    key keeps one kind of value, a plain type or anything."""
    keysets = draw(st.lists(st.lists(_KEYS, max_size=5, unique=True), min_size=1, max_size=3))
    keys = sorted(set().union(*keysets))
    kinds = dict(zip(keys, draw(st.lists(st.sampled_from([_FLOATS, _INTS, _TEXT, _VALUES]),
                                         min_size=len(keys), max_size=len(keys)))))
    order = draw(st.lists(st.integers(0, len(keysets) - 1), max_size=12))
    return [{k: draw(kinds[k]) for k in keysets[i]} for i in order]


@given(cases=_cases(), params=st.dictionaries(_TEXT, _VALUES, max_size=3),
       verdict=_TEXT, wall=_FLOATS)
@settings(max_examples=300, deadline=None)
def test_report_text_is_the_standard_librarys(cases, params, verdict, wall):
    report = VerificationReport("suite \"x\"", params, cases, verdict, wall)
    for comparison in (False, True):
        doc = {"schema": "report/v1", "suite": report.suite, "params": params,
               "cases": cases, "verdict": verdict}
        if not comparison:
            doc["wall_clock_s"] = wall
        want = json.dumps(doc, indent=2, sort_keys=True, default=_tolist)
        assert report.to_json(comparison=comparison) == want


def test_report_text_of_cases_with_non_string_keys():
    cases = [{1: 2.5, 0: None}, {"a": {3: [], 2: {}}}, [1, {"b": -0.0}], "plain", {}]
    report = VerificationReport("s", {}, cases, "pass", 0.0)
    want = json.dumps(report.to_dict(), indent=2, sort_keys=True, default=_tolist)
    assert report.to_json() == want


# == the one writer against the standard library ============================


# Long lists of one type: floats that repeat (each distinct one written
# once), floats with zeros and non-finite values (written one by one),
# ints and strs; then lists that mix types, numpy items among them.
_REPEATS = st.sampled_from([0.1, 1.5, 1e300, -2.5e-10])
_SPECIALS = st.sampled_from([0.1, 0.0, -0.0, math.nan, math.inf, -math.inf])
_LONG_LISTS = (
    st.lists(_REPEATS, min_size=8, max_size=40)
    | st.lists(_REPEATS | st.sampled_from([0.0, -0.0]), min_size=8, max_size=40)
    | st.lists(_SPECIALS | _FLOATS, min_size=8, max_size=40)
    | st.lists(_INTS, min_size=8, max_size=20)
    | st.lists(_TEXT, min_size=8, max_size=20)
    | st.lists(_SCALARS, min_size=8, max_size=20)
    | st.lists(st.floats().map(np.float64) | st.integers(-(2**63), 2**63 - 1).map(np.int64),
               min_size=8, max_size=20)
)
# Runs of dicts whose keys compare equal but are written differently:
# 1, 1.0 and True are one key, as are 0.0 and -0.0.
_NUMBER_KEYS = st.lists(
    st.dictionaries(st.sampled_from([1, 1.0, True, 0.0, -0.0, 2.5]), _SCALARS, max_size=2),
    max_size=6,
)


@given(value=_VALUES | _LONG_LISTS | _NUMBER_KEYS
       | st.dictionaries(_TEXT, _LONG_LISTS | _NUMBER_KEYS, max_size=3))
@example(value=[{1: "a"}, {1.0: "b"}, {True: "c"}, {0.0: 1}, {-0.0: 2}, {False: 3}])
@example(value=[0.0, -0.0, 0.5, 0.5, 0.5, 0.5, 0.0, -0.0])
@settings(max_examples=300, deadline=None)
def test_the_writer_is_the_standard_librarys(value):
    assert dump_json(value) == json.dumps(value, indent=2, sort_keys=True, default=_tolist)


@pytest.mark.parametrize("value", [object(), {1: 1, "a": 2}, {(1, 2): 0}, [1.5, {"a": {1j}}]],
                         ids=["object", "mixed-keys", "tuple-key", "nested-set"])
def test_the_writer_refuses_what_the_standard_library_refuses(value):
    with pytest.raises(Exception) as want:
        json.dumps(value, indent=2, sort_keys=True, default=_tolist)
    with pytest.raises(type(want.value)):
        dump_json(value)


# == csv =====================================================================


def test_csv_shape(tmp_path):
    rep = check_lemma_stopping_form(trials=3, seed=12)
    path = tmp_path / "rep.csv"
    rep.write_csv(str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 1 + len(rep.cases)
    # numeric round trip through repr keeps full precision
    idx = rows[0].index("lhs")
    assert float(rows[1][idx]) == rep.cases[0]["lhs"]


# == campaign and bench ======================================================


def test_campaign_grid_shape():
    rep = campaign(alphas=(0.0, 0.5), depths=(1, 2), trials=3, seed=13)
    assert rep.suite == "campaign"
    assert rep.passed
    assert len(rep.cases) == 2 * 2 * 3
    depths = {c["depth"] for c in rep.cases}
    assert depths == {1, 2}


def test_campaign_with_ps_runs_the_inequality():
    rep = campaign(alphas=(0.25,), depths=(2,), trials=2, seed=14, ps=(1.5, 2.0))
    assert rep.passed
    assert len(rep.cases) == 1 * 1 * 2 * 2
    assert all(c["p"] in (1.5, 2.0) for c in rep.cases)


@pytest.mark.parametrize("ps", [[], (), np.array([])])
def test_campaign_with_empty_ps_runs_the_characterization(ps):
    rep = campaign(alphas=(0.0, 0.5), depths=(1, 2), trials=2, seed=13, ps=ps)
    assert rep.params["ps"] is None
    plain = campaign(alphas=(0.0, 0.5), depths=(1, 2), trials=2, seed=13)
    assert rep.to_json(comparison=True) == plain.to_json(comparison=True)


def _csv_text(rep, path):
    rep.write_csv(str(path))
    return path.read_text()


@pytest.mark.parametrize(
    "run, numpy_kwargs, plain_kwargs",
    [
        (
            check_characterization,
            dict(trials=np.int64(3), seed=np.int64(5), alphas=np.array([0.0, 0.5]),
                 dims=np.array([1, 3]), depth_range=np.array([1, 3])),
            dict(trials=3, seed=5, alphas=(0.0, 0.5), dims=(1, 3), depth_range=(1, 3)),
        ),
        (
            campaign,
            dict(alphas=np.array([0.0, 0.5]), depths=np.array([1, 2]), trials=np.int64(3),
                 seed=np.int64(5)),
            dict(alphas=(0.0, 0.5), depths=(1, 2), trials=3, seed=5),
        ),
        (
            campaign,
            dict(alphas=np.array([0.1, 0.45]), depths=np.array([2, 3]), trials=np.int64(2),
                 seed=np.int64(5), ps=np.array([1.5, 3.0])),
            dict(alphas=(0.1, 0.45), depths=(2, 3), trials=2, seed=5, ps=(1.5, 3.0)),
        ),
    ],
    ids=["characterization", "campaign", "campaign-ps"],
)
def test_numpy_arguments_write_the_same_bytes(tmp_path, run, numpy_kwargs, plain_kwargs):
    rep = run(**numpy_kwargs)
    plain = run(**plain_kwargs)
    assert rep.to_json(comparison=True) == plain.to_json(comparison=True)
    assert _csv_text(rep, tmp_path / "a.csv") == _csv_text(plain, tmp_path / "b.csv")


def test_bench_rows():
    rows = bench(depths=(1, 2), alpha=0.25, seed=15, repeats=1)
    assert len(rows) == 2 * 5
    for r in rows:
        assert set(r) == {"depth", "op", "mode", "seconds", "value"}
        assert r["seconds"] >= 0.0
    # fast and brute values agree per depth and operator
    by_key = {}
    for r in rows:
        by_key.setdefault((r["depth"], r["op"]), []).append(r["value"])
    for vals in by_key.values():
        assert max(vals) == pytest.approx(min(vals), rel=1e-10)


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the arguments were checked")


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"repeats": 0}, "repeats must be at least 1"),
        ({"depths": []}, "depths must not be empty"),
        ({"depths": range(0), "repeats": 0}, "depths must not be empty"),
    ],
)
def test_bench_refuses_empty_depths_and_zero_repeats(kwargs, message, monkeypatch):
    monkeypatch.setattr(verify, "build_dyadic", _no_work)
    with pytest.raises(ValueError, match=f"^{message}$"):
        bench(**kwargs)


# == the suite frame: arguments in, params out ================================


# Comparison-mode sha256 prefixes measured before the suites shared one frame;
# positional, range, numpy and non-default arguments all reach params.
FRAME_PINS = [
    (lambda: campaign([0.25, 0.5], [1, 2], 2, 3), "cf9b818bd8ee15e5"),
    (lambda: campaign((0.25,), (2,), 2, 1, ps=[1.5, 3.0]), "b8d1e84685d94921"),
    (lambda: campaign((0.25,), (2,), 2, 1, ps=np.array([])), "1ec20f48dd233e18"),
    (lambda: campaign((0.25,), range(1, 3), 2), "58acb0e8f9a7ff2b"),
    (lambda: check_characterization(3, (0.0, 0.5), 4, (1, 3), 2, range(1, 3)),
     "c20205269e046185"),
    (lambda: check_lemma_stopping_form(trials=3, max_count=20, tol=1e-11), "85a3a940724182e0"),
    # converse_max_count 30: a bound below 26, the stopping times of dyadic
    # depth 2 (every even converse trial's tree), is refused.
    (lambda: check_carleson_inequality(2, [1.5], [0.25], 9, 2, 2, 30, 1e-8, 1e-9),
     "4dd15a6f5e77b38b"),
    (lambda: check_operators(trials=2, depth_range=np.array([1, 2])), "052c445aa7c29e0a"),
]


@pytest.mark.parametrize("call, prefix", FRAME_PINS, ids=[p for _, p in FRAME_PINS])
def test_suite_frame_bytes_are_pinned(call, prefix):
    text = call().to_json(comparison=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == prefix


def test_suite_frame_records_every_argument():
    rep = campaign((0.25,), range(1, 3), np.int64(2), ps=np.array([1.5]))
    assert list(rep.params) == ["alphas", "depths", "trials", "seed", "ps", "max_branch",
                                "seed_scheme"]
    assert rep.params["depths"] == [1, 2]
    assert rep.params["ps"] == [1.5]
    assert rep.params["seed"] == 0 and rep.params["max_branch"] == 3
    rep = check_operators(1, seed=5)
    assert rep.params == {"trials": 1, "alphas": [0.0, 0.25, 0.5, 1.0], "seed": 5,
                          "depth_range": [1, 4], "max_branch": 3, "tol": 1e-9,
                          "seed_scheme": SEED_SCHEME}


def test_a_stopping_time_bound_that_no_tree_meets_is_refused():
    """The small-tree search falls back to dyadic depth 2 (26 stopping
    times); a bound below that names its argument instead of returning
    cases over it."""
    with pytest.raises(ValueError, match="^max_count 1 admits no tree: .*26 stopping times"):
        check_lemma_stopping_form(trials=2, max_count=1)
    with pytest.raises(ValueError, match="^converse_max_count 1 admits no tree: "):
        check_carleson_inequality(trials=1, converse_trials=2, converse_max_count=1)
    rep = check_lemma_stopping_form(trials=2, max_count=26)
    assert all(case["stopping_times"] <= 26 for case in rep.cases)


def test_a_converse_bound_below_dyadic_two_is_refused_before_any_trial(monkeypatch):
    """Every even converse trial runs on dyadic depth 2, so a bound below
    its 26 stopping times is refused before the inequality trials run."""
    monkeypatch.setattr(verify, "_inequality_grid", _no_work)
    with pytest.raises(ValueError, match="^converse_max_count 25 admits no tree: .*26 stopping times"):
        check_carleson_inequality(trials=1, converse_trials=1, converse_max_count=25)


def test_suite_frame_refuses_lists_before_counts(monkeypatch):
    monkeypatch.setattr(verify, "_trial_seeds", _no_work)
    with pytest.raises(ValueError, match="^alphas must not be empty$"):
        check_carleson_inequality(trials=0, converse_trials=0, alphas=())
    with pytest.raises(ValueError, match="^trials must be at least 1$"):
        check_carleson_inequality(trials=0, converse_trials=0)
    with pytest.raises(TypeError):
        check_operators(1, no_such_argument=2)


SIGNATURES = {
    "check_characterization": [
        ("trials", 200), ("alphas", (0.0, 0.25, 0.5, 0.9)), ("seed", 0),
        ("depth_range", (1, 5)), ("max_branch", 3), ("dims", (1, 3)), ("tol", 1e-9),
    ],
    "check_lemma_stopping_form": [
        ("trials", 100), ("alphas", (0.0, 0.25, 0.5)), ("seed", 1), ("max_count", 30),
        ("tol", 1e-10),
    ],
    "check_carleson_inequality": [
        ("trials", 500), ("ps", (1.5, 2.0, 3.0)), ("alphas", (0.1, 0.25, 0.45)),
        ("seed", 2), ("depth", 3), ("converse_trials", 20), ("converse_max_count", 26),
        ("slack", 1e-9), ("layer_tol", 1e-10),
    ],
    "check_operators": [
        ("trials", 100), ("alphas", (0.0, 0.25, 0.5, 1.0)), ("seed", 3),
        ("depth_range", (1, 4)), ("max_branch", 3), ("tol", 1e-9),
    ],
    "campaign": [
        ("alphas", inspect.Parameter.empty), ("depths", inspect.Parameter.empty),
        ("trials", inspect.Parameter.empty), ("seed", 0), ("ps", None), ("max_branch", 3),
    ],
}


@pytest.mark.parametrize("fn", [*SUITES.values(), campaign], ids=lambda fn: fn.__name__)
def test_suite_signatures_are_unchanged(fn):
    sig = inspect.signature(fn)
    assert [(p.name, p.default) for p in sig.parameters.values()] == SIGNATURES[fn.__name__]
    assert {p.kind for p in sig.parameters.values()} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}
    assert sig.return_annotation == "VerificationReport"
    assert fn.__doc__ and fn.__module__ == "bmolab.verify"


# == report object ===========================================================


def test_report_verdict_fails_when_any_case_fails():
    rep = VerificationReport(
        "toy",
        {},
        [{"verdict": "pass"}, {"verdict": "fail"}],
        "fail",
        0.0,
    )
    assert not rep.passed

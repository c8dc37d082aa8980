"""Both norms at a list of alphas, from one scan per object.

`bmo_alpha_norms` and `carleson_alpha_norms` compute every alpha of a
list at once, and the one-alpha functions are their one-element case.
Their contract is bitwise: every value and witness equals what the
per-alpha scans gave before batching, kept verbatim in ``oracles`` as the
reference (the package's own one-alpha functions run the batched code,
so they cannot be the reference).
"""

import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmolab import (
    FiltrationTree,
    Martingale,
    bmo_alpha_norm,
    bmo_alpha_norms,
    bmo_ratio_at,
    build_dyadic,
    build_random,
    campaign,
    carleson_alpha_norm,
    carleson_alpha_norms,
    carleson_ratio_at,
    check_carleson_inequality,
    check_characterization,
    check_lemma_stopping_form,
    check_operators,
    converse_extraction,
    from_martingale,
    martingale_from_final,
    process_bmo_alpha_norm,
    random_adapted_process,
    random_martingale,
    random_measure,
    replay_bmo_witness,
)
from bmolab import stopping, verify
from bmolab.cli import main
from bmolab.norms import _float_power
from bmolab.verify import _rel
from conftest import avx512_targets, run_process, run_python

import oracles

BMO_MODES = ("atom-fast", "omega-form", "subset-bruteforce", "stopping-bruteforce")
MEASURE_MODES = ("node-fast", "stopping-bruteforce")


# == bitwise against the per-alpha reference =================================

# Small enough for both brute-force oracles: at most 730 stopping times
# and 511 unions on a level.
SHAPES = [(2, depth) for depth in (1, 2, 3)] + [(3, depth) for depth in (1, 2)]


@st.composite
def trees(draw):
    if draw(st.booleans()):
        return build_dyadic(draw(st.integers(1, 3)))
    branch, depth = draw(st.sampled_from(SHAPES))
    return build_random(draw(st.integers(0, 2**32)), depth, branch)


def alpha_lists(edge):
    """Unsorted lists, repeats allowed, with the closed end's edge value."""
    value = st.one_of(
        st.sampled_from([0.0, 0.25, 0.5, edge]), st.floats(0.0, edge, allow_nan=False)
    )
    return st.lists(value, min_size=0, max_size=5)


@given(
    tree=trees(),
    dim=st.integers(1, 3),
    seed=st.integers(0, 2**32),
    bmo_alphas=alpha_lists(1.0),
    measure_alphas=alpha_lists(0.999),
    chunk=st.sampled_from([7, stopping.CHUNK_ROWS]),
)
@settings(max_examples=40, deadline=None)
def test_batched_norms_equal_the_per_alpha_reference(
    tree, dim, seed, bmo_alphas, measure_alphas, chunk
):
    f = random_martingale(tree, seed, dim)
    mu = from_martingale(f)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stopping, "CHUNK_ROWS", chunk)
        for mode in BMO_MODES:
            want = [oracles.reference_bmo_alpha_norm(f, a, mode) for a in bmo_alphas]
            assert bmo_alpha_norms(f, bmo_alphas, mode) == want
            assert [bmo_alpha_norm(f, a, mode) for a in bmo_alphas] == want
        for m in (mu, random_measure(tree, seed)):
            for mode in MEASURE_MODES:
                want = [oracles.reference_carleson_alpha_norm(m, a, mode) for a in measure_alphas]
                assert carleson_alpha_norms(m, measure_alphas, mode) == want
                assert [carleson_alpha_norm(m, a, mode) for a in measure_alphas] == want


@given(
    tree=trees(),
    dim=st.integers(1, 3),
    seed=st.integers(0, 2**32),
    alpha=st.floats(0.0, 1.0, allow_nan=False),
    p=st.sampled_from([1.0, 1.5, 3.0]),
)
@settings(max_examples=40, deadline=None)
def test_process_and_p_norms_equal_the_per_alpha_reference(tree, dim, seed, alpha, p):
    g = random_adapted_process(tree, seed, dim)
    assert process_bmo_alpha_norm(g, alpha) == oracles.reference_process_bmo_alpha_norm(g, alpha)
    f = random_martingale(tree, seed, dim)
    for mode in BMO_MODES:
        res = bmo_alpha_norm(f, alpha, mode, p=p)
        want = oracles.reference_bmo_alpha_p_norm(f, alpha, p, mode)
        assert (res.value, res.witness) == (want.value, {**want.witness, "p": p})


@given(
    tree=trees(),
    dim=st.integers(1, 3),
    seed=st.integers(0, 2**32),
    alpha=st.floats(0.0, 1.0, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_conditional_rule_is_the_norm_of_the_final_values_martingale(tree, dim, seed, alpha):
    """A process's norm against the conditional expectation of its final
    value is the martingale norm of that final value; its own-rule norm
    is the atom scan of `bmo_alpha_norm`, bitwise."""
    g = random_adapted_process(tree, seed, dim)
    f = martingale_from_final(g.final_value())
    assert bmo_alpha_norm(f, alpha).value == pytest.approx(
        oracles.reference_process_bmo_alpha_norm(g, alpha, "conditional"), rel=1e-12
    )
    assert process_bmo_alpha_norm(g, alpha) == bmo_alpha_norm(g, alpha).value


def test_batched_results_do_not_share_witnesses():
    f = random_martingale(build_dyadic(2), 5, 1)
    first, second = bmo_alpha_norms(f, [0.25, 0.25], "subset-bruteforce")
    assert first == second
    first.witness["atoms"].append(99)
    assert second.witness["atoms"] != first.witness["atoms"]


@pytest.mark.parametrize("mode", BMO_MODES)
def test_empty_bmo_alpha_list_gives_no_results(mode):
    assert bmo_alpha_norms(random_martingale(build_dyadic(1), 0), [], mode) == []


@pytest.mark.parametrize("mode", MEASURE_MODES)
def test_empty_measure_alpha_list_gives_no_results(mode):
    assert carleson_alpha_norms(random_measure(build_dyadic(1), 0), [], mode) == []


# == every alpha is checked before anything is scanned =======================


class _Untouchable:
    """Stands in for a process or measure that must not be read."""

    def __getattr__(self, name):
        raise AssertionError(f"scanned ({name}) before every alpha was checked")


@pytest.mark.parametrize("mode", BMO_MODES)
@pytest.mark.parametrize("bad", [1.5, -0.25, math.nan])
def test_bad_bmo_alpha_anywhere_raises_before_any_scan(mode, bad):
    message = re.escape(f"alpha must lie in [0, 1], got {bad}")
    for alphas in ([bad], [0.25, bad], [0.0, 0.5, bad, 1.0]):
        with pytest.raises(ValueError, match=message):
            bmo_alpha_norms(_Untouchable(), alphas, mode)


@pytest.mark.parametrize("mode", MEASURE_MODES)
@pytest.mark.parametrize("bad", [1.0, -0.25, math.nan])
def test_bad_measure_alpha_anywhere_raises_before_any_scan(mode, bad):
    message = re.escape(f"alpha must lie in [0, 1), got {bad}")
    for alphas in ([bad], [0.25, bad], [0.0, 0.5, bad, 0.999]):
        with pytest.raises(ValueError, match=message):
            carleson_alpha_norms(_Untouchable(), alphas, mode)


def test_unknown_mode_raises_before_any_scan():
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        bmo_alpha_norms(_Untouchable(), [0.25], "bogus")
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        carleson_alpha_norms(_Untouchable(), [0.25], "bogus")


# == an overflowing brute-force power is inf, as in the fast scans ===========


def _tiny_atom_martingale():
    """A valid tree whose level-1 atoms have masses 1e-300 and 1.0: their
    sum is 1 to float precision.  mass ** (-1/2 - alpha) overflows."""
    tree = FiltrationTree(
        {"mass": 1.0, "children": [{"mass": 1e-300, "children": []},
                                   {"mass": 1.0, "children": []}]}
    )
    return random_martingale(tree, 1)


def test_float_power_is_inf_where_it_overflows():
    assert _float_power(1e-300, -1.4) == math.inf
    assert _float_power(5e-324, -1.0) == math.inf
    for q, e in ((0.3, -1.4), (1.0, -2.999), (1e-300, -1.0)):
        assert _float_power(q, e) == q**e


def test_stopping_bruteforce_bmo_norm_is_inf_where_the_power_overflows():
    f = _tiny_atom_martingale()
    with np.errstate(over="ignore"):
        brute = bmo_alpha_norm(f, 0.9, "stopping-bruteforce")
        assert brute.value == math.inf
        assert brute.value == bmo_alpha_norm(f, 0.9, "atom-fast").value
        assert brute.value == bmo_alpha_norm(f, 0.9, "subset-bruteforce").value
        assert replay_bmo_witness(f, 0.9, brute.witness) == math.inf
        # every alpha of a batch, overflowing or not, as at that alpha alone
        alphas = [0.9, 0.0, 0.25]
        assert bmo_alpha_norms(f, alphas, "stopping-bruteforce") == [
            bmo_alpha_norm(f, a, "stopping-bruteforce") for a in alphas
        ]


def test_stopping_bruteforce_measure_norm_is_inf_where_the_power_overflows():
    mu = from_martingale(_tiny_atom_martingale())
    with np.errstate(over="ignore"):
        brute = carleson_alpha_norm(mu, 0.25, "stopping-bruteforce")
        assert brute.value == math.inf
        assert brute.value == carleson_alpha_norm(mu, 0.25, "node-fast").value
        assert carleson_ratio_at(mu, 0.25, brute.witness["stops"]) == math.inf


def test_converse_is_quiet_where_a_power_overflows():
    # No errstate: the test configuration turns any RuntimeWarning into an
    # error.  The 1e-300 stop atom's power overflows, so its ratio is inf.
    got = converse_extraction(from_martingale(_tiny_atom_martingale()), 0.25, 1.0, 2.0)
    assert got["max_ratio"] == math.inf
    assert got["identity_exact"] is True


def test_replays_overflow_without_a_warning():
    # No errstate: the test configuration turns any RuntimeWarning into an
    # error, and numpy's scalar power warned on the overflowing mass here.
    f = _tiny_atom_martingale()
    assert bmo_ratio_at(f, 0.9, 1, [0]) == math.inf
    level_set = {"kind": "level-set", "level": 1, "atoms": [0]}
    assert replay_bmo_witness(f, 0.9, level_set) == math.inf
    # A zero integral times the overflowing power is NaN, and quiet too.
    chain = _zero_residual_chain(True)
    assert math.isnan(bmo_ratio_at(chain, 0.9, 2, [0]))
    stops = {"kind": "stopping-time", "stops": [[2, 0]]}
    assert math.isnan(replay_bmo_witness(chain, 0.9, stops))


def test_carleson_norm_cli_survives_an_overflowing_power(tmp_path):
    path = tmp_path / "mu.json"
    from_martingale(_tiny_atom_martingale()).save(str(path))
    values = {}
    for mode in MEASURE_MODES:
        out = run_process("carleson-norm", str(path), "--alpha", "0.5", "--mode", mode)
        assert out.returncode == 0, out.stderr
        assert "Traceback" not in out.stderr
        values[mode] = json.loads(out.stdout)["value"]
    assert values["stopping-bruteforce"] == values["node-fast"] == math.inf


# == the brute force's power is libm pow on every CPU ========================

# The exponents the brute force raises to: mass powers -1/p - alpha and
# -(1 + 2 alpha), and the integral powers 1/p.
POWER_EXPONENTS = (-1.4, -0.75, 0.5, 1.0 / 3.0)
# 20,000 seeded positive floats over the whole float range, subnormals
# included, each exactly a uniform draw in [0.5, 1) times a power of two.
BASES = """
import numpy as np
rng = np.random.default_rng(18)
bases = np.ldexp(rng.uniform(0.5, 1.0, 20_000), rng.integers(-1070, 1020, 20_000))
"""


def _bases() -> np.ndarray:
    scope = {}
    exec(BASES, scope)
    return scope["bases"]


def _python_powers(bases: np.ndarray, e: float) -> np.ndarray:
    """``x ** e`` per base in Python floats, inf where Python raises an
    overflow."""
    out = []
    for x in bases.tolist():
        try:
            out.append(x**e)
        except OverflowError:
            out.append(math.inf)
    return np.array(out)


@pytest.mark.parametrize("e", POWER_EXPONENTS)
def test_float_power_is_pythons_power_bitwise(e):
    bases = _bases()
    want = _python_powers(bases, e)
    with np.errstate(over="ignore"):
        assert np.float_power(bases, e).tobytes() == want.tobytes()
    if e == -1.4:  # 2 ** -1071 to this power overflows
        assert np.isinf(want).sum() > 1000


def test_float_power_has_the_same_bits_without_avx512():
    targets = avx512_targets()
    if not targets:
        pytest.skip("numpy 2 dispatches to no AVX-512 kernel here, so none can be switched off")
    code = BASES + f"""
import hashlib
from numpy._core._multiarray_umath import __cpu_features__
print(any(__cpu_features__[t] for t in {targets!r}))
with np.errstate(over="ignore"):
    for e in {POWER_EXPONENTS!r}:
        print(hashlib.sha256(np.float_power(bases, e).tobytes()).hexdigest())
"""
    proc = run_python("-c", code, env={"NPY_DISABLE_CPU_FEATURES": " ".join(targets)})
    assert proc.returncode == 0, proc.stderr
    switched_on, *digests = proc.stdout.split()
    assert switched_on == "False"
    bases = _bases()
    assert digests == [
        hashlib.sha256(_python_powers(bases, e).tobytes()).hexdigest() for e in POWER_EXPONENTS
    ]


# == a NaN candidate never hides a level's maximum ===========================


def _zero_residual_chain(chain_first):
    """A valid tree with a chain A (1e-300) -> A' (1e-300) beside B
    (1 - 1e-300), whose two leaves hold 3 and -1.  A' has residual and
    tent mass exactly 0 and a mass whose power overflows, so its
    candidate is 0 * inf = NaN; ``chain_first=False`` puts the chain after
    B, so the NaN is not its level's first candidate."""
    chain = {"mass": 1e-300, "children": [{"mass": 1e-300, "children": []}]}
    fan = {"mass": 1 - 1e-300, "children": [{"mass": 0.25, "children": []},
                                            {"mass": 0.75 - 1e-300, "children": []}]}
    if chain_first:
        tree = FiltrationTree({"mass": 1.0, "children": [chain, fan]})
        return Martingale(tree, [[0.0], [0.0, 0.0], [0.0, 3.0, -1.0]])
    tree = FiltrationTree({"mass": 1.0, "children": [fan, chain]})
    return Martingale(tree, [[0.0], [0.0, 0.0], [3.0, -1.0, 0.0]])


@pytest.mark.parametrize("chain_first", [True, False], ids=["chain-first", "chain-last"])
@pytest.mark.parametrize("alpha", [0.25, 0.9])
def test_a_nan_candidate_never_hides_a_levels_maximum(chain_first, alpha):
    f = _zero_residual_chain(chain_first)
    mu = from_martingale(f)
    with np.errstate(over="ignore", invalid="ignore"):
        bmo = {mode: bmo_alpha_norm(f, alpha, mode) for mode in BMO_MODES}
        node = carleson_alpha_norm(mu, alpha, "node-fast")
        brute = carleson_alpha_norm(mu, alpha, "stopping-bruteforce")
    fast = bmo["atom-fast"].value
    assert bmo["atom-fast"].witness["level"] == 2
    assert _rel(bmo["omega-form"].value, fast) <= 1e-12
    for mode in ("subset-bruteforce", "stopping-bruteforce"):
        assert _rel(bmo[mode].value, fast) <= 1e-10
    assert node.value == brute.value
    assert _rel(math.sqrt(node.value), fast) <= 1e-9


@pytest.mark.parametrize("mode", ["subset-bruteforce", "stopping-bruteforce"])
def test_brute_force_powers_are_python_floats(mode):
    # No errstate: the test configuration turns any RuntimeWarning into an
    # error, and numpy's scalar powers warned on the overflowing mass here.
    value = bmo_alpha_norm(_zero_residual_chain(True), 0.9, mode).value
    assert math.isclose(value, 10.446606759553488, rel_tol=1e-12)


@pytest.mark.parametrize("chain_first", [True, False], ids=["chain-first", "chain-last"])
def test_fast_scans_are_quiet_where_a_power_overflows(chain_first):
    # No errstate: the overflowing power and the NaN candidate it makes are
    # intended, so the scans keep numpy from warning about them.
    f = _zero_residual_chain(chain_first)
    assert bmo_alpha_norm(f, 0.9, "atom-fast").value == 10.446606759553488
    assert _rel(bmo_alpha_norm(f, 0.9, "omega-form").value, 10.446606759553488) <= 1e-12
    assert carleson_alpha_norm(from_martingale(f), 0.9, "node-fast").value == 109.13159278874863


def test_fast_scans_print_no_warning_on_the_command_line(tmp_path):
    f = _zero_residual_chain(True)
    f.save(str(tmp_path / "f.json"))
    from_martingale(f).save(str(tmp_path / "mu.json"))
    for command, name, value in (
        ("norm", "f.json", 10.446606759553488),
        ("carleson-norm", "mu.json", 109.13159278874863),
    ):
        proc = run_process(command, str(tmp_path / name), "--alpha", "0.9")
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["value"] == value


# == empty argument lists are refused before any work ========================


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the arguments were checked")


EMPTY_CALLS = [
    ("alphas", check_characterization, {"alphas": ()}),
    ("dims", check_characterization, {"dims": ()}),
    ("alphas", check_lemma_stopping_form, {"alphas": ()}),
    ("ps", check_carleson_inequality, {"ps": ()}),
    ("alphas", check_carleson_inequality, {"alphas": ()}),
    ("alphas", check_operators, {"alphas": ()}),
    ("alphas", campaign, {"alphas": [], "depths": [1], "trials": 1}),
    ("depths", campaign, {"alphas": [0.25], "depths": [], "trials": 1}),
    ("depths", campaign, {"alphas": [0.25], "depths": [], "trials": 1, "ps": [2.0]}),
]


@pytest.mark.parametrize("name,fn,kwargs", EMPTY_CALLS)
def test_empty_argument_lists_are_refused_before_any_work(name, fn, kwargs, monkeypatch):
    monkeypatch.setattr(verify, "_trial_seeds", _no_work)
    with pytest.raises(ValueError, match=f"^{name} must not be empty$"):
        fn(**kwargs)


@pytest.mark.parametrize(
    "argv,name",
    [
        (["check", "carleson-inequality", "--ps", ","], "ps"),
        (["check", "carleson-inequality", "--alphas", ","], "alphas"),
        (["check", "characterization", "--alphas", ","], "alphas"),
        (["check", "lemma", "--alphas", ","], "alphas"),
        (["check", "operators", "--alphas", ","], "alphas"),
        (["campaign", "--alphas", ",", "--depths", "1"], "alphas"),
        (["campaign", "--alphas", "0.25", "--depths", ","], "depths"),
    ],
)
def test_cli_refuses_empty_lists_with_exit_2(argv, name, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {name} must not be empty\n"
    assert captured.out == ""


def test_cli_empty_ps_prints_one_error_line_and_no_traceback():
    out = run_process("check", "carleson-inequality", "--trials", "1", "--ps", ",")
    assert out.returncode == 2
    assert out.stderr == "error: ps must not be empty\n"


TRIAL_CALLS = [
    ("trials", check_characterization, {"trials": 0}),
    ("trials", check_lemma_stopping_form, {"trials": 0}),
    ("trials", check_carleson_inequality, {"trials": 0}),
    ("converse_trials", check_carleson_inequality, {"trials": 1, "converse_trials": 0}),
    ("trials", check_operators, {"trials": -1}),
    ("trials", campaign, {"alphas": [0.5], "depths": [1], "trials": 0}),
    ("trials", campaign, {"alphas": [0.5], "depths": [1], "trials": -3, "ps": [2.0]}),
]


@pytest.mark.parametrize("name,fn,kwargs", TRIAL_CALLS)
def test_trial_counts_below_one_are_refused_before_any_work(name, fn, kwargs, monkeypatch):
    monkeypatch.setattr(verify, "_trial_seeds", _no_work)
    with pytest.raises(ValueError, match=f"^{name} must be at least 1$"):
        fn(**kwargs)


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "operators", "--trials", "0"],
        ["check", "characterization", "--trials", "-2"],
        ["campaign", "--alphas", "0.5", "--depths", "1", "--trials", "0"],
    ],
)
def test_cli_refuses_trials_below_one_with_exit_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: trials must be at least 1\n"
    assert captured.out == ""

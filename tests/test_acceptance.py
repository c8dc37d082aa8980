"""Acceptance gate: one test per criterion, one verdict line each.

The expensive campaigns run once per module and are shared by the
criteria that inspect them.  Every assertion works off the recorded
cases, so a failure names the first offending case.
"""

import hashlib
import json
import time

import numpy as np
import pytest

from bmolab import (
    CarlesonMeasure,
    FiltrationTree,
    Martingale,
    RandomVariable,
    StoppingTime,
    build_random,
    check_carleson_inequality,
    check_characterization,
    check_lemma_stopping_form,
    check_operators,
    random_martingale,
    random_measure,
)
from conftest import avx512_targets, run_python


def _verdict(num: int, ok: bool, text: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {text}")
    assert ok, f"criterion {num}: {text}"


def _first_failure(cases):
    for c in cases:
        if c["verdict"] != "pass":
            return c
    return None


# == shared campaign runs ====================================================


@pytest.fixture(scope="module")
def characterization_run():
    t0 = time.perf_counter()
    rep = check_characterization()
    return rep, time.perf_counter() - t0


@pytest.fixture(scope="module")
def lemma_run():
    return check_lemma_stopping_form()


@pytest.fixture(scope="module")
def inequality_run():
    return check_carleson_inequality()


@pytest.fixture(scope="module")
def operators_run():
    return check_operators()


# == criterion 1: the characterization identity ==============================


def test_criterion_01_characterization_identity(characterization_run):
    rep, wall = characterization_run
    trials = {c["trial"] for c in rep.cases}
    dims = {c["dim"] for c in rep.cases}
    alphas = {c["alpha"] for c in rep.cases}
    ok = (
        rep.passed
        and len(trials) == 200
        and dims == {1, 3}
        and alphas == {0.0, 0.25, 0.5, 0.9}
        and all(c["depth"] <= 5 and c["max_branch"] <= 3 for c in rep.cases)
        and all(c["residual"] <= 1e-9 for c in rep.cases)
        and wall < 30.0
    )
    _verdict(
        1,
        ok,
        f"sqrt(measure norm) == oscillation norm on {len(rep.cases)} cases "
        f"(200 trees, dims 1 and 3, rel tol 1e-9) in {wall:.2f}s"
        + (f"; first failure {_first_failure(rep.cases)}" if not rep.passed else ""),
    )


# == criterion 2: the stopping-time form =====================================


def test_criterion_02_stopping_time_form(lemma_run):
    rep = lemma_run
    trials = {c["trial"] for c in rep.cases}
    ok = (
        rep.passed
        and len(trials) == 100
        and all(c["stopping_times"] <= 30 for c in rep.cases)
        and all(c["residual"] <= 1e-10 for c in rep.cases)
    )
    _verdict(
        2,
        ok,
        f"stopping-time supremum == union supremum on {len(trials)} small trees "
        f"(tol 1e-10, <= 30 stopping times each)"
        + (f"; first failure {_first_failure(rep.cases)}" if not rep.passed else ""),
    )


# == criterion 3: the two single-atom scan forms =============================


def test_criterion_03_scan_forms_agree(characterization_run, lemma_run):
    rep1, _ = characterization_run
    rep2 = lemma_run
    cases = list(rep1.cases) + list(rep2.cases)
    worst = max(c["omega_residual"] for c in cases)
    ok = worst <= 1e-12
    _verdict(
        3,
        ok,
        f"atom scan == weight-function scan on every instance of criteria 1-2 "
        f"({len(cases)} cases, worst rel gap {worst:.3e}, tol 1e-12)",
    )


# == criterion 4: fast modes equal brute force ===============================


def test_criterion_04_fast_equals_bruteforce(lemma_run):
    rep = lemma_run
    trials = {c["trial"] for c in rep.cases}
    worst_bmo = max(c["fast_residual"] for c in rep.cases)
    worst_car = max(c["carleson_residual"] for c in rep.cases)
    ok = len(trials) >= 100 and worst_bmo <= 1e-10 and worst_car <= 1e-10
    _verdict(
        4,
        ok,
        f"atom-fast == subset brute force (worst {worst_bmo:.3e}) and "
        f"node-fast == stopping brute force (worst {worst_car:.3e}) on "
        f"{len(trials)} instances each, tol 1e-10",
    )


# == criterion 5: the inequality holds on a random campaign ==================


def test_criterion_05_inequality_campaign(inequality_run):
    rep = inequality_run
    cases = [c for c in rep.cases if c["kind"] == "inequality"]
    trials = {c["trial"] for c in cases}
    ps = {c["p"] for c in cases}
    alphas = {c["alpha"] for c in cases}
    violations = [c for c in cases if c["verdict"] != "pass"]
    worst_layer = max(c["residual"] for c in cases)
    ok = (
        len(trials) == 500
        and ps == {1.5, 2.0, 3.0}
        and alphas == {0.1, 0.25, 0.45}
        and not violations
        and worst_layer <= 1e-10
    )
    _verdict(
        5,
        ok,
        f"inequality held with slack 1e-9 on {len(cases)} draws "
        f"(500 trials x 9 grid cells, depth-3 dyadic); layer-cake vs direct "
        f"worst gap {worst_layer:.3e} (tol 1e-10); {len(violations)} violations",
    )


# == criterion 6: the converse extraction ====================================


def test_criterion_06_converse_extraction(inequality_run):
    rep = inequality_run
    cases = [c for c in rep.cases if c["kind"] == "converse"]
    ok = (
        len(cases) >= 20
        and all(c["verdict"] == "pass" for c in cases)
        and all(c["identity_exact"] for c in cases)
        and all(c["maximal_identity"] for c in cases)
        and all(c["reduced_violated"] for c in cases)
        and all(1 <= c["stopping_times_checked"] <= 25 for c in cases)
        and all(c["residual"] <= 1e-10 for c in cases)
    )
    _verdict(
        6,
        ok,
        f"converse on {len(cases)} enumerable trees: left side == tent mass "
        f"bitwise, maximal of the indicator == the finite-set indicator, bound "
        f"tight at the norm and violated after a 1e-6 shave",
    )


# == criterion 7: operator bounds ============================================


def test_criterion_07_operator_bounds(operators_run):
    rep = operators_run
    trials = {c["trial"] for c in rep.cases}
    ok = (
        rep.passed
        and len(trials) == 100
        and all(
            c["transform_norm"] <= c["transform_bound"] + 1e-9 * max(1.0, c["transform_bound"])
            for c in rep.cases
        )
        and all(
            c["transform_equality_residual"]
            <= 1e-9 * max(1.0, c["unimodular_constant"] * c["rhs"])
            for c in rep.cases
        )
        and all(c["lift_residual"] <= 1e-9 * max(1.0, c["rhs"]) for c in rep.cases)
        and all(
            c["square_norm"] <= c["rhs"] + 1e-9 * max(1.0, c["rhs"]) for c in rep.cases
        )
        and all(c["triangle_ok"] for c in rep.cases)
    )
    _verdict(
        7,
        ok,
        f"transform bound (equality for constant-modulus coefficients), lift "
        f"isometry, and square-function bound with constant 1 on "
        f"{len(trials)} instances (tol 1e-9)"
        + (f"; first failure {_first_failure(rep.cases)}" if not rep.passed else ""),
    )


# == criterion 8: maximal-function laws ======================================


def test_criterion_08_maximal_laws(operators_run):
    rep = operators_run
    ratios = [c["maximal_ratio"] for c in rep.cases]
    ok = (
        all(c["maximal_pointwise_ok"] for c in rep.cases)
        and all(c["maximal_indicator_ok"] for c in rep.cases)
        and all(np.isfinite(r) for r in ratios)
    )
    _verdict(
        8,
        ok,
        f"maximal function dominates, is monotone, and maps stop indicators to "
        f"set indicators on all instances; oscillation-norm ratio recorded as "
        f"data only (max observed {max(ratios):.6f})",
    )


# == criterion 9: determinism and serialization ==============================


def test_criterion_09_determinism_and_round_trips(tmp_path):
    a = check_lemma_stopping_form(trials=5, seed=123)
    b = check_lemma_stopping_form(trials=5, seed=123)
    byte_equal = a.to_json(comparison=True) == b.to_json(comparison=True)

    tree = build_random(2024, 4, 3)
    f = random_martingale(tree, 17, 3)
    mu = random_measure(tree, 18)
    tau = StoppingTime(tree, [(1, 0)])

    tree_rt = FiltrationTree.from_dict(json.loads(tree.to_json()))
    f_rt = Martingale.from_dict(json.loads(f.to_json()))
    mu_rt = CarlesonMeasure.from_dict(json.loads(mu.to_json()))
    tau_rt = StoppingTime.from_dict(tree, json.loads(json.dumps(tau.to_dict())))

    round_trips = (
        tree_rt == tree
        and tree_rt.to_json() == tree.to_json()
        and all(np.array_equal(x, y) for x, y in zip(f_rt.levels, f.levels))
        and f_rt.to_json() == f.to_json()
        and np.array_equal(mu_rt.densities, mu.densities)
        and mu_rt.to_json() == mu.to_json()
        and tau_rt == tau
    )

    path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
    a.save(str(path_a), comparison=True)
    b.save(str(path_b), comparison=True)
    file_equal = path_a.read_bytes() == path_b.read_bytes()

    ok = byte_equal and round_trips and file_equal
    _verdict(
        9,
        ok,
        "same-seed comparison reports byte-identical; tree, process, measure, "
        "and stop-set documents round trip bit-exact",
    )


# == comparison-mode bytes ===================================================


def test_comparison_reports_keep_their_bytes(
    characterization_run, lemma_run, inequality_run, operators_run
):
    """sha256 prefixes of the four comparison-mode reports at default
    arguments.  Any change to a computed number, a witness or the
    enumeration order shows up here."""
    reports = (characterization_run[0], lemma_run, inequality_run, operators_run)
    got = {
        r.suite: hashlib.sha256(r.to_json(comparison=True).encode()).hexdigest()[:16]
        for r in reports
    }
    assert got == {
        "characterization": "7661c5f2d30d14bb",
        "lemma-stopping-form": "c8a935a82b29be0b",
        "carleson-inequality": "70601887d487fa1e",
        "operators": "bccf0fc2031001de",
    }


def test_comparison_reports_keep_their_bytes_without_avx512():
    """The same four reports in a child process that takes numpy's
    dispatch path for a CPU without AVX-512.  There numpy's array power
    is libm ``pow``, which moves some fast-path values by a few ulps, so
    these prefixes are not the native ones above."""
    targets = avx512_targets()
    if not targets:
        pytest.skip("numpy 2 dispatches to no AVX-512 kernel here, so none can be switched off")
    code = f"""
import hashlib
from numpy._core._multiarray_umath import __cpu_features__
import bmolab
print(any(__cpu_features__[t] for t in {targets!r}))
for suite in (bmolab.check_characterization, bmolab.check_lemma_stopping_form,
              bmolab.check_carleson_inequality, bmolab.check_operators):
    r = suite()
    print(r.suite, hashlib.sha256(r.to_json(comparison=True).encode()).hexdigest()[:16])
"""
    proc = run_python("-c", code, env={"NPY_DISABLE_CPU_FEATURES": " ".join(targets)})
    assert proc.returncode == 0, proc.stderr
    switched_on, *lines = proc.stdout.splitlines()
    assert switched_on == "False"
    assert dict(line.split() for line in lines) == {
        "characterization": "70a66d89b37c2776",
        "lemma-stopping-form": "718b6dc2dca20ace",
        "carleson-inequality": "14d6c2792a42dbd8",
        "operators": "64b8a7aa767c93f7",
    }


def test_default_suites_keep_their_csv_bytes(
    tmp_path, characterization_run, lemma_run, inequality_run, operators_run
):
    """sha256 prefixes of the four suites' CSV files at default arguments."""
    reports = (characterization_run[0], lemma_run, inequality_run, operators_run)
    got = {}
    for r in reports:
        path = tmp_path / f"{r.suite}.csv"
        r.write_csv(str(path))
        got[r.suite] = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
    assert got == {
        "characterization": "8a165436ab7267c3",
        "lemma-stopping-form": "057a3066377b2df3",
        "carleson-inequality": "3b0017665ebd2af9",
        "operators": "7d8b4f9856a54333",
    }

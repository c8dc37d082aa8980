import hashlib
import json

import numpy as np
import pytest

from bmolab import (
    CarlesonMeasure,
    FiltrationTree,
    Martingale,
    bmo_alpha_norm,
    build_dyadic,
    build_random,
    carleson_alpha_norm,
    from_martingale,
    random_martingale,
    replay_bmo_witness,
)
import bmolab
from bmolab.cli import main
from bmolab.norms import BMO_MODES
from conftest import run_process


def run(*argv):
    return main(list(argv))


# == generators ==============================================================


def test_gen_tree_dyadic(tmp_path, capsys):
    out = tmp_path / "t.json"
    assert run("gen-tree", "--depth", "2", "--out", str(out)) == 0
    assert FiltrationTree.load(str(out)) == build_dyadic(2)
    assert run("gen-tree", "--depth", "1") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "tree/v1"


def test_gen_tree_random(tmp_path):
    out = tmp_path / "t.json"
    assert run(
        "gen-tree", "--depth", "3", "--random", "--seed", "5", "--max-branch", "3",
        "--out", str(out),
    ) == 0
    assert FiltrationTree.load(str(out)) == build_random(5, 3, 3)


def test_gen_martingale(tmp_path):
    tpath = tmp_path / "t.json"
    build_dyadic(2).save(str(tpath))
    fpath = tmp_path / "f.json"
    assert run(
        "gen-martingale", "--tree", str(tpath), "--seed", "7", "--out", str(fpath)
    ) == 0
    f = Martingale.load(str(fpath))
    want = random_martingale(build_dyadic(2), 7, 1)
    assert all(np.array_equal(a, b) for a, b in zip(f.levels, want.levels))


def test_gen_martingale_refuses_zero_width_values(tmp_path, capsys):
    tpath = tmp_path / "t.json"
    build_dyadic(2).save(str(tpath))
    fpath = tmp_path / "f.json"
    assert run("gen-martingale", "--tree", str(tpath), "--dim", "0", "--out", str(fpath)) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: vector values must have at least one component\n"
    assert captured.out == ""
    assert not fpath.exists()


def test_gen_martingale_negative_dim_names_its_flag(tmp_path):
    tpath = tmp_path / "t.json"
    build_dyadic(1).save(str(tpath))
    proc = run_process("gen-martingale", "--tree", str(tpath), "--dim", "-1")
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1].endswith(
        ": error: argument --dim: expected a non-negative integer, got -1"
    )
    assert proc.stdout == ""


# == norms ===================================================================


def test_norm_command(tmp_path, capsys):
    fpath = tmp_path / "f.json"
    f = random_martingale(build_dyadic(2), 3, 1)
    f.save(str(fpath))
    assert run("norm", str(fpath), "--alpha", "0.5") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == bmo_alpha_norm(f, 0.5).value
    assert doc["mode"] == "atom-fast"
    assert doc["witness"]["kind"] == "level-set"


def test_norm_command_p_variant(tmp_path, capsys):
    f = random_martingale(build_dyadic(2), 3, 1)
    fpath = tmp_path / "f.json"
    f.save(str(fpath))
    for mode in BMO_MODES:
        for p in ("1", "1.5", "3"):
            assert run("norm", str(fpath), "--alpha", "0.5", "--p", p, "--mode", mode) == 0
            doc = json.loads(capsys.readouterr().out)
            assert set(doc) == {"mode", "value", "witness"} and doc["mode"] == mode
            assert doc["witness"]["p"] == float(p)
            replayed = replay_bmo_witness(f, 0.5, doc["witness"])
            if mode.endswith("bruteforce"):
                assert replayed == doc["value"]
            else:
                assert replayed == pytest.approx(doc["value"], rel=1e-12)


@pytest.mark.parametrize("p", ["nan", "inf", "1e400"])
def test_norm_command_refuses_a_non_finite_p(tmp_path, p):
    fpath = tmp_path / "f.json"
    random_martingale(build_dyadic(2), 3, 1).save(str(fpath))
    proc = run_process("norm", str(fpath), "--alpha", "0.25", "--p", p)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: p must be finite")
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stdout == ""


@pytest.mark.parametrize("argv", [
    ["check", "carleson-inequality", "--ps", "inf", "--trials", "1"],
    ["check", "carleson-inequality", "--ps", "2,1e400", "--trials", "1"],
    ["campaign", "--alphas", "0.25", "--depths", "1", "--trials", "1", "--ps", "inf"],
])
def test_suites_refuse_a_non_finite_p(argv):
    proc = run_process(*argv)
    assert proc.returncode == 2
    assert proc.stderr == "error: p must be finite, got inf\n"
    assert proc.stdout == ""


def test_carleson_norm_command(tmp_path, capsys):
    f = random_martingale(build_dyadic(2), 4, 1)
    mpath = tmp_path / "mu.json"
    from_martingale(f).save(str(mpath))
    assert run("carleson-norm", str(mpath), "--alpha", "0.25") == 0
    doc = json.loads(capsys.readouterr().out)
    mu = CarlesonMeasure.load(str(mpath))
    assert doc["value"] == carleson_alpha_norm(mu, 0.25).value
    assert doc["witness"]["kind"] == "stopping-time"


# == check and campaign ======================================================


def test_check_writes_report_and_csv(tmp_path, capsys):
    rep = tmp_path / "rep.json"
    csvp = tmp_path / "rep.csv"
    code = run(
        "check", "lemma", "--trials", "2", "--out", str(rep), "--csv", str(csvp)
    )
    assert code == 0
    assert "lemma-stopping-form: pass" in capsys.readouterr().out
    doc = json.loads(rep.read_text())
    assert doc["verdict"] == "pass"
    header = csvp.read_text().splitlines()[0]
    assert header == "suite,alpha,p,depth,seed,lhs,rhs,residual,verdict"


def test_check_comparison_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run(
            "check", "operators", "--trials", "2", "--seed", "21",
            "--out", str(path), "--comparison",
        ) == 0
    assert a.read_bytes() == b.read_bytes()


def test_check_rejects_unsupported_option(capsys):
    # the operators suite takes no p grid
    code = run("check", "operators", "--trials", "1", "--ps", "2.0")
    assert code == 2
    assert "--ps" in capsys.readouterr().err


def test_check_rejects_unknown_suite():
    assert run("check", "not-a-suite") == 2


def test_campaign_stdout_csv(capsys):
    code = run("campaign", "--alphas", "0.0,0.5", "--depths", "1,2", "--trials", "2")
    assert code == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert lines[0] == "suite,alpha,p,depth,seed,lhs,rhs,residual,verdict"
    assert len(lines) == 1 + 2 * 2 * 2
    assert "campaign: pass" in captured.err


def test_campaign_csv_file(tmp_path):
    csvp = tmp_path / "c.csv"
    code = run(
        "campaign", "--alphas", "0.25", "--depths", "2", "--trials", "2",
        "--ps", "1.5,2.0", "--csv", str(csvp),
    )
    assert code == 0
    lines = csvp.read_text().splitlines()
    assert len(lines) == 1 + 1 * 1 * 2 * 2


@pytest.mark.parametrize("ps", [[], ["--ps", "1.5,2.0"]])
def test_campaign_stdout_matches_csv_file(tmp_path, capsys, ps):
    args = ["campaign", "--alphas", "0.25,0.5", "--depths", "1,2", "--trials", "2", *ps]
    assert run(*args) == 0
    stdout = capsys.readouterr().out
    csvp = tmp_path / "c.csv"
    assert run(*args, "--csv", str(csvp)) == 0
    assert stdout.encode() == csvp.read_bytes()


def test_campaign_with_empty_ps_runs_the_characterization(capsys):
    args = ["campaign", "--alphas", "0.25,0.5", "--depths", "1,2", "--trials", "2"]
    assert run(*args) == 0
    plain = capsys.readouterr().out
    assert run(*args, "--ps", "") == 0
    assert capsys.readouterr().out == plain


def test_campaign_ps_csv_bytes_are_pinned(capsys):
    """sha256 prefix of the inequality campaign's stdout CSV."""
    args = ["--alphas", "0.1,0.45", "--depths", "2,3", "--trials", "3", "--ps", "1.5,3"]
    assert run("campaign", *args) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == "f83533f8b4172120"


def test_campaign_characterization_csv_bytes_are_pinned(capsys):
    """sha256 prefix of the characterization campaign's stdout CSV."""
    args = ["--alphas", "0.0,0.25,0.5", "--depths", "1,2,3", "--trials", "4"]
    assert run("campaign", *args) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == "3159954b2965195e"


# == bench ===================================================================


def test_bench_prints_a_table(capsys):
    assert run("bench", "--depths", "1", "--repeats", "1") == 0
    out = capsys.readouterr().out
    assert "atom-fast" in out
    assert "node-fast" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--repeats", "0"], "repeats must be at least 1"),
        (["--depths", ","], "depths must not be empty"),
        (["--depths", ",", "--repeats", "-1"], "depths must not be empty"),
    ],
)
def test_bench_refuses_zero_repeats_and_empty_depths(argv, message):
    proc = run_process("bench", *argv)
    assert proc.returncode == 2
    assert proc.stderr == f"error: {message}\n"
    assert proc.stdout == ""


# == error paths =============================================================


def test_malformed_tree_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "schema": "tree/v1",
        "root": {"mass": 1.0, "children": [
            {"mass": 0.6, "children": []},
            {"mass": 0.3, "children": []},
        ]},
    }))
    assert run("gen-martingale", "--tree", str(bad)) == 2
    err = capsys.readouterr().err
    assert "input error" in err
    assert "root" in err


def _huge_mass(path):
    doc = build_dyadic(1).to_dict()
    doc["root"]["children"][0]["mass"] = 10**400
    path.write_text(json.dumps(doc))
    return ("gen-martingale", "--tree", str(path)), "root/children/0: mass must lie in (0, 1]"


def _huge_level_value(path):
    doc = random_martingale(build_dyadic(1), 1).to_dict()
    doc["levels"][1][0] = 10**400
    path.write_text(json.dumps(doc))
    return ("norm", str(path), "--alpha", "0.25"), "levels: values must be finite"


@pytest.mark.parametrize("write", [_huge_mass, _huge_level_value])
def test_integer_too_large_for_a_float_exits_2(tmp_path, write):
    argv, message = write(tmp_path / "doc.json")
    proc = run_process(*argv)
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith(f"input error: {message}")
    assert proc.stdout == ""


@pytest.mark.parametrize("argv, rule", [
    (["gen-tree", "--depth", "2", "--random", "--max-branch"], "max_branch must be a positive integer"),
    (["gen-martingale", "--tree", "{tree}", "--dim"], "dim must be an integer"),
    (["check", "operators", "--trials"], "trials must be an integer"),
], ids=["max-branch", "dim", "trials"])
def test_an_integer_past_numpys_range_exits_2_naming_its_rule(tmp_path, capsys, argv, rule):
    tree = tmp_path / "t.json"
    build_dyadic(1).save(str(tree))
    high = 2**62 - 1 if rule.startswith("trials") else 2**63 - 1
    argv = [a.format(tree=tree) for a in argv]
    for big in (high + 1, 10**400):
        assert run(*argv, str(big)) == 2
        out = capsys.readouterr()
        assert out.err == f"error: {rule} of at most {high}, got {big}\n"
        assert out.out == ""


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("norm", str(bad), "--alpha", "0.5") == 2
    assert "malformed JSON" in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path, capsys):
    assert run("norm", str(tmp_path / "absent.json"), "--alpha", "0.5") == 2
    assert "input error" in capsys.readouterr().err


def test_size_cap_exits_2(tmp_path, capsys):
    fpath = tmp_path / "f.json"
    random_martingale(build_dyadic(3), 1, 1).save(str(fpath))
    code = run(
        "norm", str(fpath), "--alpha", "0.5", "--mode", "stopping-bruteforce",
        "--max-enum", "100",
    )
    assert code == 2
    assert "size cap" in capsys.readouterr().err


def test_bad_max_enum_env_var_exits_2(tmp_path, capsys, monkeypatch):
    fpath = tmp_path / "f.json"
    random_martingale(build_dyadic(2), 1, 1).save(str(fpath))
    monkeypatch.setenv("BMO_LAB_MAX_ENUM", "ten")
    code = run("norm", str(fpath), "--alpha", "0.5", "--mode", "stopping-bruteforce")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "BMO_LAB_MAX_ENUM" in err and "'ten'" in err


@pytest.mark.parametrize("command", ["norm", "carleson-norm"])
@pytest.mark.parametrize("cap", ["0", "-3"])
def test_non_positive_max_enum_exits_2(tmp_path, command, cap):
    path = str(tmp_path / "doc.json")
    f = random_martingale(build_dyadic(2), 1, 1)
    (f if command == "norm" else from_martingale(f)).save(path)
    proc = run_process(command, path, "--alpha", "0.5", "--mode", "stopping-bruteforce",
                       "--max-enum", cap)
    assert proc.returncode == 2
    assert proc.stderr == f"error: max_enum must be a positive integer, got {cap}\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("command, mode", [
    ("norm", "atom-fast"), ("norm", "omega-form"), ("carleson-norm", "node-fast"),
])
@pytest.mark.parametrize("cap", ["0", "-1", "abc"])
def test_fast_modes_refuse_a_bad_cap(tmp_path, monkeypatch, command, mode, cap):
    path = str(tmp_path / "doc.json")
    f = random_martingale(build_dyadic(2), 1, 1)
    doc = f if command == "norm" else from_martingale(f)
    doc.save(path)
    norm = bmo_alpha_norm if command == "norm" else carleson_alpha_norm
    argv = [command, path, "--alpha", "0.5", "--mode", mode]
    if cap == "abc":
        monkeypatch.setenv("BMO_LAB_MAX_ENUM", cap)
        name, max_enum = "BMO_LAB_MAX_ENUM", None
    else:
        argv += ["--max-enum", cap]
        name, max_enum = "max_enum", int(cap)
    proc = run_process(*argv)
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {name} must be a positive integer")
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stdout == ""
    with pytest.raises(ValueError, match=f"^{name} must be a positive integer"):
        norm(doc, 0.5, mode, max_enum)


@pytest.mark.parametrize("argv, flag, message", [
    (["check", "operators", "--trials", "1", "--seed", "-1"], "--seed",
     "expected a non-negative integer, got -1"),
    (["gen-tree", "--depth", "2", "--random", "--seed", "-1"], "--seed",
     "expected a non-negative integer, got -1"),
    (["gen-martingale", "--tree", "t.json", "--seed", "-1"], "--seed",
     "expected a non-negative integer, got -1"),
    (["bench", "--seed", "-5"], "--seed", "expected a non-negative integer, got -5"),
    (["campaign", "--alphas", "0.5", "--depths", "1,-1", "--trials", "1"], "--depths",
     "expected a non-negative integer, got -1"),
    (["check", "operators", "--seed", "1.5"], "--seed", "invalid int value: '1.5'"),
])
def test_bad_seed_or_depth_names_its_flag(argv, flag, message):
    proc = run_process(*argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1].endswith(f": error: argument {flag}: {message}")
    assert proc.stdout == ""


def test_bad_alpha_exits_2(tmp_path, capsys):
    fpath = tmp_path / "f.json"
    random_martingale(build_dyadic(1), 1, 1).save(str(fpath))
    assert run("norm", str(fpath), "--alpha", "2.0") == 2
    assert "error" in capsys.readouterr().err


def test_usage_error_exits_2():
    assert run("gen-tree") == 2
    assert run("no-such-command") == 2


@pytest.mark.parametrize("argv", [
    ["check", "operators", "--trials", "1", "--out"],
    ["gen-tree", "--depth", "2", "--out"],
])
def test_output_path_that_is_a_directory_exits_2(tmp_path, argv):
    proc = run_process(*argv, str(tmp_path))
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("input error: ")


def _refuse_to_run(**kwargs):
    raise AssertionError("the suite ran before the output path was checked")


@pytest.mark.parametrize("flag", ["--out", "--csv"])
@pytest.mark.parametrize("bad", ["directory", "missing-parent"])
def test_check_rejects_bad_output_path_before_the_suite(tmp_path, capsys, monkeypatch, flag, bad):
    monkeypatch.setitem(bmolab.cli.SUITES, "carleson-inequality", _refuse_to_run)
    path = tmp_path if bad == "directory" else tmp_path / "no-such-dir" / "r"
    assert run("check", "carleson-inequality", flag, str(path)) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("input error: ")


@pytest.mark.parametrize("flag", ["--out", "--csv"])
@pytest.mark.parametrize("bad", ["directory", "missing-parent"])
def test_campaign_rejects_bad_output_path_before_the_grid(tmp_path, capsys, monkeypatch, flag, bad):
    monkeypatch.setattr(bmolab.cli, "campaign", _refuse_to_run)
    path = tmp_path if bad == "directory" else tmp_path / "no-such-dir" / "c"
    args = ["--alphas", "0.25", "--depths", "2", "--ps", "1.5", flag, str(path)]
    assert run("campaign", *args) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("input error: ")


def test_deep_random_tree_is_written():
    proc = run_process("gen-tree", "--depth", "600", "--random", "--max-branch", "1")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout == build_random(0, 600, 1).to_json() + "\n"
    assert proc.stdout.count('"mass": 1.0\n') == 601


def test_tree_too_deep_exits_2(tmp_path):
    # Writing has no depth limit, but json.load stops at about 490 levels.
    path = str(tmp_path / "deep.json")
    assert run("gen-tree", "--depth", "600", "--random", "--max-branch", "1", "--out", path) == 0
    proc = run_process("gen-martingale", "--tree", path)
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("input error: ")
    assert proc.stdout == ""

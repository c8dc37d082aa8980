import hashlib
import json
import os
import subprocess
import sys

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
)
import bmolab
from bmolab.cli import main


def run(*argv):
    return main(list(argv))


def run_process(*argv):
    """The command line as its own process, so stderr holds any traceback."""
    src = os.path.dirname(os.path.dirname(bmolab.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-m", "bmolab.cli", *argv], capture_output=True, text=True, env=env
    )


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
    fpath = tmp_path / "f.json"
    random_martingale(build_dyadic(2), 3, 1).save(str(fpath))
    assert run("norm", str(fpath), "--alpha", "0.5", "--p", "3") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["p"] == 3.0
    assert "witness" not in doc


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


def test_campaign_ps_csv_bytes_are_pinned(capsys):
    """sha256 prefix of the inequality campaign's stdout CSV."""
    args = ["--alphas", "0.1,0.45", "--depths", "2,3", "--trials", "3", "--ps", "1.5,3"]
    assert run("campaign", *args) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == "f83533f8b4172120"


# == bench ===================================================================


def test_bench_prints_a_table(capsys):
    assert run("bench", "--depths", "1", "--repeats", "1") == 0
    out = capsys.readouterr().out
    assert "atom-fast" in out
    assert "node-fast" in out


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

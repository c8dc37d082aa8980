"""Every script under demos/ runs to completion, with no RuntimeWarning,
against the package under test."""

from pathlib import Path

import pytest

from conftest import run_python

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = run_python(str(demo), cwd=ROOT)
    assert proc.returncode == 0, proc.stderr

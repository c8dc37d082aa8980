"""Every script under demos/ runs to completion, with no RuntimeWarning,
against the package under test, and demos 01-06 print the same bytes."""

import hashlib
from pathlib import Path

import pytest

from conftest import run_python

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 prefixes of each demo's stdout; demo 07 prints timings, so it has none.
STDOUT_SHA256 = {
    "01_filtration_trees.py": "d182744c2bd985d6",
    "02_martingales_and_increments.py": "8fbdb243700a0d0a",
    "03_oscillation_norm_four_ways.py": "959e5764ccc74332",
    "04_measures_and_tents.py": "ee3510f2047e1ca0",
    "05_inequality_and_converse.py": "49c30018afcb1213",
    "06_operators.py": "ef46e21d2d8456ff",
}


def test_demos_are_found():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = run_python(str(demo), cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    if demo.name in STDOUT_SHA256:
        assert hashlib.sha256(proc.stdout.encode()).hexdigest()[:16] == STDOUT_SHA256[demo.name]

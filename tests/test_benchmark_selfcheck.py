"""The benchmark's self-check passes against the package under test: its
tiny workloads run every entry point with the arguments the benchmark
passes, and every planted fault is counted."""

from pathlib import Path

from conftest import run_python

ROOT = Path(__file__).resolve().parent.parent


def test_the_benchmark_selfcheck_passes():
    proc = run_python(str(ROOT / "perfbench" / "selfcheck.py"), cwd=ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "selfcheck: ok"

import os
import subprocess
import sys

import pytest

import bmolab
from bmolab import RandomVariable, build_dyadic, martingale_from_final


def run_python(*argv, cwd=None, env=None):
    """``python argv...`` as its own process against the package under
    test, so stderr holds any traceback or warning.  As in the test run, a
    RuntimeWarning is an error there.  ``env`` adds environment variables."""
    env = {
        **os.environ,
        "PYTHONPATH": os.path.dirname(os.path.dirname(bmolab.__file__)),
        "PYTHONWARNINGS": "error::RuntimeWarning",
        **(env or {}),
    }
    return subprocess.run(
        [sys.executable, *argv], cwd=cwd, capture_output=True, text=True, env=env
    )


# numpy's AVX-512 dispatch targets; its array power ``**`` takes their
# kernel where the CPU has one, and libm pow elsewhere.
AVX512_TARGETS = ("X86_V4", "AVX512_ICL", "AVX512_SPR")


def avx512_targets() -> list:
    """The AVX-512 targets numpy dispatches to on this CPU, none where
    numpy keeps its dispatch tables elsewhere (numpy 1.x).  Listed in
    ``NPY_DISABLE_CPU_FEATURES``, they make a child process take the
    dispatch path of a CPU without AVX-512."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        return []
    return [t for t in AVX512_TARGETS if t in __cpu_dispatch__ and __cpu_features__.get(t)]


def run_process(*argv):
    """The command line as its own process (see `run_python`)."""
    return run_python("-m", "bmolab.cli", *argv)


@pytest.fixture
def rademacher_pair():
    """Fair coin: one split, final values +1 and -1."""
    tree = build_dyadic(1)
    f = martingale_from_final(RandomVariable(tree, [1.0, -1.0]))
    return tree, f


@pytest.fixture
def depth2_example():
    """Two dyadic splits, final values (2, 0, -1, -1)."""
    tree = build_dyadic(2)
    f = martingale_from_final(RandomVariable(tree, [2.0, 0.0, -1.0, -1.0]))
    return tree, f

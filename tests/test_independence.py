"""The brute-force oracles score their candidates without the fast scans'
scoring functions, so a fault in a fast scan cannot hide in the oracle
that checks it.  Each call's functions are recorded with `sys.setprofile`."""

import sys

import pytest

from bmolab import (
    bmo_alpha_norm,
    build_dyadic,
    build_random,
    carleson,
    carleson_alpha_norm,
    converse_extraction,
    from_martingale,
    norms,
    random_martingale,
)

# The functions that score the fast scans' candidates: the per-atom
# integrals of `atom-fast` and `omega-form`, and the node tents of
# `node-fast`.
FAST_SCORING = {norms._residual_integrals.__code__, carleson._node_norms.__code__}

TREES = {"dyadic-2": build_dyadic(2), "random-5": build_random(5, 3, 3)}


def _called(call) -> set:
    """The code objects of every Python function ``call()`` runs."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return seen


@pytest.mark.parametrize("name", TREES)
def test_the_stopping_time_oracles_call_no_fast_scoring(name):
    f = random_martingale(TREES[name], 1, 2)
    mu = from_martingale(f)
    oracles = {
        "oscillation stopping-bruteforce": lambda: bmo_alpha_norm(f, 0.25, "stopping-bruteforce"),
        "measure stopping-bruteforce": lambda: carleson_alpha_norm(mu, 0.25, "stopping-bruteforce"),
        "converse_extraction": lambda: converse_extraction(mu, 0.25, 1.0, 2.0),
    }
    for oracle, call in oracles.items():
        shared = {code.co_name for code in _called(call) & FAST_SCORING}
        assert not shared, f"{oracle} calls {sorted(shared)}"


def test_the_fast_scans_call_their_scoring():
    """The profile sees the scoring functions where they run, so their
    absence above is not a blind spot."""
    f = random_martingale(TREES["random-5"], 1, 2)
    assert norms._residual_integrals.__code__ in _called(lambda: bmo_alpha_norm(f, 0.25))
    mu = from_martingale(f)
    assert carleson._node_norms.__code__ in _called(lambda: carleson_alpha_norm(mu, 0.25))

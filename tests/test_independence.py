"""The brute-force oracles score their candidates without the fast scans'
scoring functions, so a fault in a fast scan cannot hide in the oracle
that checks it.  Each call's functions are recorded with `sys.setprofile`."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmolab import (
    StoppingTime,
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
# integrals of `atom-fast` and `omega-form`, the node tents of
# `node-fast`, and the single-atom scan all three share.
FAST_SCORING = {
    norms._residual_integrals.__code__,
    carleson._node_norms.__code__,
    norms._atom_sups.__code__,
}

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
    for call in (lambda: bmo_alpha_norm(f, 0.25, "omega-form"), lambda: carleson_alpha_norm(mu, 0.25)):
        assert norms._atom_sups.__code__ in _called(call)


# The largest relative gap measured between the two sides of the per-atom
# law below was 9.7e-15, over 28,863 atoms of 1,500 seeded chains, fans
# and random trees (dims 1-3); the bound leaves a factor of 10 above it.
ATOM_LAW_RTOL = 1e-13

TREE_SHAPES = st.one_of(
    st.tuples(st.integers(1, 6), st.just(1)),  # chains
    st.tuples(st.integers(1, 2), st.integers(8, 16)),  # wide fans
    st.tuples(st.integers(1, 5), st.integers(2, 4)),  # random trees
)


@given(seed=st.integers(0, 2**32 - 1), shape=TREE_SHAPES, dim=st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_the_characterization_holds_at_every_atom(seed, shape, dim):
    """For a level-n atom A, the integral over A of |f_N - f_(n-1)|^2 is
    the sum over k >= n of the integral over A of |d_k|^2: the atom
    scan's integral equals the tent mass of A's one-stop row under the
    increment measure.  The two sides share no scoring code, so every
    atom is checked, not only the one attaining the norm."""
    tree = build_random(seed, *shape)
    f = random_martingale(tree, seed ^ 1, dim)
    mu = from_martingale(f)
    for n in range(tree.depth + 1):
        integrals = norms._residual_integrals(f, n, 2.0)
        rows = [StoppingTime(tree, [(n, i)]).tau_values() for i in range(tree.atom_count(n))]
        tents = mu.tent_masses(np.stack(rows))
        gap = np.abs(integrals - tents)
        assert np.all(gap <= ATOM_LAW_RTOL * np.maximum(integrals, tents)), (n, gap.max())

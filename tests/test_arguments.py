"""Every numeric argument of the public entry points is read by one of the
two readers in `bmolab.errors`: a real argument is a Python or numpy real
number and an integer argument a Python or numpy integer, never a bool, a
string or None.  A refusal is a ValueError that starts with the argument's
rule, raised before any work; an integer past the float range reads as
inf of its sign; and a numpy scalar gives the bits of the equal Python
value."""

import dataclasses
import math
import time

import numpy as np
import pytest

from bmolab import (
    StoppingTime,
    bmo_alpha_norm,
    bmo_ratio_at,
    build_dyadic,
    build_random,
    carleson_alpha_norm,
    carleson_inequality_check,
    carleson_inequality_grid,
    carleson_ratio_at,
    check_carleson_inequality,
    check_operators,
    converse_extraction,
    first_passage,
    lp_norm,
    random_adapted_process,
    random_martingale,
    random_measure,
    weak_lq_norm,
)
from bmolab.filtration import dump_json
from bmolab.verify import VerificationReport, bench

TREE = build_dyadic(2)
F = random_martingale(TREE, 1)
G = random_adapted_process(TREE, 2)
MU = random_measure(TREE, 3)
X = F.final_value()

# entry point: (its call with the argument x, the argument's rule, a valid
# float that float32 holds exactly, a valid integer)
REAL = {
    "bmo_alpha_norm alpha": (lambda x: bmo_alpha_norm(F, x), "alpha must lie in [0, 1]", 0.25, 1),
    "carleson_alpha_norm alpha": (lambda x: carleson_alpha_norm(MU, x), "alpha must lie in [0, 1)", 0.25, 0),
    "bmo_alpha_norm p": (lambda x: bmo_alpha_norm(F, 0.25, p=x), "p must be finite and at least 1", 2.5, 3),
    "carleson_inequality_check p": (lambda x: carleson_inequality_check(G, MU, x, 0.25), "p must exceed 1", 1.5, 3),
    "lp_norm p": (lambda x: lp_norm(X, x), "p must be positive", 2.5, 3),
    "weak_lq_norm q": (lambda x: weak_lq_norm(X, x), "q must be positive", 1.5, 2),
    "converse_extraction c_p": (lambda x: converse_extraction(MU, 0.25, x, 2.0), "c_p must be a number", 1.5, 2),
    "converse_extraction p": (lambda x: converse_extraction(MU, 0.25, 1.0, x), "p must exceed 1", 1.5, 2),
    "carleson_ratio_at alpha": (lambda x: carleson_ratio_at(MU, x, [[1, 0]]), "alpha must lie in [0, 1)", 0.25, 0),
    "first_passage lam": (lambda x: first_passage(F, x), "lam must be a number", 0.5, 1),
    "carleson_inequality_check slack": (
        lambda x: carleson_inequality_check(G, MU, 2.0, 0.25, x), "slack must be a number", 0.5, 1),
}

# entry point: (its call with the argument x, the argument's rule, a valid integer)
INTEGER = {
    "StoppingTime level": (lambda x: StoppingTime(TREE, [[x, 0]]), "atom levels and indices must be integers", 1),
    "bmo_ratio_at atom": (lambda x: bmo_ratio_at(F, 0.25, 2, [x]), "atom levels and indices must be integers", 3),
    "bmo_alpha_norm max_enum": (
        lambda x: bmo_alpha_norm(F, 0.25, "stopping-bruteforce", x), "max_enum must be a positive integer", 26),
    "build_dyadic depth": (build_dyadic, "depth must be a nonnegative integer", 2),
    "build_random depth": (lambda x: build_random(0, x, 2), "depth must be a nonnegative integer", 3),
    "build_random max_branch": (lambda x: build_random(0, 2, x), "max_branch must be a positive integer", 3),
    "build_random max_atoms": (
        lambda x: build_random(0, 2, 2, max_atoms=x), "max_atoms must be a positive integer", 7),
    "random_martingale dim": (lambda x: random_martingale(TREE, 1, x), "dim must be an integer", 2),
    "random_adapted_process dim": (lambda x: random_adapted_process(TREE, 1, x), "dim must be an integer", 2),
    "check_operators trials": (lambda x: check_operators(trials=x), "trials must be an integer", 2),
    "check_carleson_inequality converse_trials": (
        lambda x: check_carleson_inequality(trials=1, converse_trials=x),
        "converse_trials must be an integer", 1),
    "bench repeats": (lambda x: bench((1,), repeats=x), "repeats must be an integer", 1),
}

REFUSED = [(name, bad) for name in REAL for bad in (True, "2", None)]
REFUSED += [(name, bad) for name in INTEGER for bad in (True, "2", None, 2.5)
            if (name, bad) != ("bmo_alpha_norm max_enum", None)]  # None asks for the default cap


def _refusal(call, x) -> tuple[str, float]:
    t0 = time.perf_counter()
    with pytest.raises(ValueError) as info:
        call(x)
    return str(info.value), time.perf_counter() - t0


@pytest.mark.parametrize("name, bad", REFUSED, ids=[f"{name}-{bad!r}" for name, bad in REFUSED])
def test_a_bool_string_none_or_fractional_size_is_refused_at_once(name, bad):
    call, rule = (REAL | INTEGER)[name][:2]
    message, seconds = _refusal(call, bad)
    assert message == f"{rule}, got {bad!r}"
    assert seconds < 0.1


def test_an_integer_past_the_float_range_reads_as_inf():
    big = 10**400
    for name in ("bmo_alpha_norm alpha", "carleson_alpha_norm alpha", "bmo_alpha_norm p"):
        call, rule = REAL[name][:2]
        assert _refusal(call, big)[0] == f"{rule}, got inf"
        assert _refusal(call, -big)[0] == f"{rule}, got -inf"
    for name in ("carleson_inequality_check p", "converse_extraction p"):
        assert _refusal(REAL[name][0], big)[0] == "p must be finite, got inf"
    assert lp_norm(X, big) == lp_norm(X, math.inf) == float(np.max(np.abs(X.values)))
    assert weak_lq_norm(X, big) == weak_lq_norm(X, math.inf) == lp_norm(X, math.inf)
    assert converse_extraction(MU, 0.25, big, 2.0)["c_p"] == math.inf
    assert first_passage(F, big).is_never()
    assert first_passage(F, -big) == first_passage(F, -math.inf)
    grid = carleson_inequality_grid(G, MU, [1.5, 3.0], [0.25, 0.45], big)
    assert all(res.holds for row in grid for res in row)
    # an integer argument is an integer at any size: a cap this large is no cap
    assert build_random(0, 3, 3, max_atoms=big) == build_random(0, 3, 3)
    assert bmo_alpha_norm(F, 0.25, "stopping-bruteforce", big) == bmo_alpha_norm(F, 0.25, "stopping-bruteforce")


# entry point: the largest integer numpy takes there (an int64 it draws or
# sizes an array with; the suites draw two 32-bit words per trial seed)
NUMPY_RANGE = {
    "build_random max_branch": 2**63 - 1,
    "random_martingale dim": 2**63 - 1,
    "random_adapted_process dim": 2**63 - 1,
    "check_operators trials": 2**62 - 1,
    "check_carleson_inequality converse_trials": 2**62 - 1,
}


@pytest.mark.parametrize("name", NUMPY_RANGE)
def test_an_integer_past_numpys_range_is_refused_with_its_rule(name):
    call, rule = INTEGER[name][:2]
    high = NUMPY_RANGE[name]
    for big in (high + 1, 10**400, np.uint64(2**64 - 1)):
        message, seconds = _refusal(call, big)
        assert message == f"{rule} of at most {high}, got {big!r}"
        assert seconds < 0.1


def test_an_integer_too_long_to_print_is_refused_by_its_sign_and_digits():
    # Python's int repr refuses more than 4,300 digits by default
    message, seconds = _refusal(INTEGER["build_random max_branch"][0], 10**5000)
    assert message == (
        f"max_branch must be a positive integer of at most {2**63 - 1}, "
        "got a positive integer of 5001 digits"
    )
    assert seconds < 0.1


def test_a_negative_integer_too_long_to_print_is_refused_by_its_sign_and_digits():
    message, seconds = _refusal(INTEGER["build_random depth"][0], -10**5000)
    assert message == "depth must be a nonnegative integer, got a negative integer of 5001 digits"
    assert seconds < 0.1


def test_a_nan_slack_is_refused():
    message, _ = _refusal(REAL["carleson_inequality_check slack"][0], math.nan)
    assert message == "slack must be a number, got nan"


def _text(result) -> str:
    if isinstance(result, VerificationReport):
        return result.to_json(comparison=True)
    if dataclasses.is_dataclass(result):
        return dump_json(dataclasses.asdict(result))
    if hasattr(result, "to_json"):
        return result.to_json()
    if hasattr(result, "to_dict"):
        return dump_json(result.to_dict())
    return dump_json(result)


SCALARS = [(name, kind) for name in REAL for kind in (np.float32, np.float64, np.int64)]
SCALARS += [(name, np.int64) for name in INTEGER if name != "bench repeats"]  # bench times itself


@pytest.mark.parametrize("name, kind", SCALARS, ids=[f"{name}-{kind.__name__}" for name, kind in SCALARS])
def test_a_numpy_scalar_gives_the_bits_of_the_equal_python_value(name, kind):
    if name in REAL:
        call, _, value, integer = REAL[name]
        value = integer if kind is np.int64 else value
    else:
        call, _, value = INTEGER[name]
    assert float(kind(value)) == value
    assert _text(call(kind(value))) == _text(call(value))

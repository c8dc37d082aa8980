"""Exception types shared across the package, and the readers of its
numeric arguments: every real argument is read by `_real_arg` and every
integer argument by `_int_arg`, so this module alone decides what counts
as a number (a bool, a string or None never does)."""

from __future__ import annotations

import math
import numbers
import sys

import numpy as np


class SizeCapError(RuntimeError):
    """An enumeration or construction would exceed its configured size cap."""


class SchemaError(ValueError):
    """A serialized document violates its schema or an invariant.

    ``path`` points at the offending node, e.g. ``root/children/1``.
    """

    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{path}: {message}")
        self.path = path


def _float(x: int | float) -> float:
    """``float(x)``, or inf of its sign for an integer beyond the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _shown(x: object) -> str:
    """``repr(x)``; an integer too long for Python's int repr (over
    ``sys.get_int_max_str_digits()`` digits) by its sign and digit count."""
    if isinstance(x, int) and x:
        n = abs(x)
        digits = int(n.bit_length() * math.log10(2)) + 1  # the count, or one over
        digits -= n < 10 ** (digits - 1)
        if 0 < getattr(sys, "get_int_max_str_digits", int)() < digits:
            return f"a {'negative' if x < 0 else 'positive'} integer of {digits} digits"
    return repr(x)


def _real_arg(x: object, rule: str, ok) -> float:
    """``x`` as a float, where it is a Python or numpy real number, not a
    bool, and its float (inf of its sign past the float range) passes
    ``ok``; else a ``ValueError`` with ``rule`` and the float or `_shown`."""
    if isinstance(x, numbers.Real) and not isinstance(x, bool):
        value = _float(x)
        if ok(value):
            return value
        raise ValueError(f"{rule}, got {value}")
    raise ValueError(f"{rule}, got {_shown(x)}")


# The largest integer numpy draws, or takes as an array dimension (int64).
_INT64_MAX = 2**63 - 1


def _int_arg(x: object, rule: str, low: int | None = None, high: int | None = None) -> int:
    """``x`` as an int, where it is a Python or numpy integer, not a bool,
    of at least ``low``; else a ``ValueError`` with ``rule`` and `_shown`.
    An integer above ``high``, past what numpy can take, is refused with
    ``rule`` and that bound."""
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool) and (low is None or x >= low):
        if high is None or x <= high:
            return int(x)
        raise ValueError(f"{rule} of at most {high}, got {_shown(x)}")
    raise ValueError(f"{rule}, got {_shown(x)}")

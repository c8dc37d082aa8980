"""Norm functionals: L^p, weak L^q, layer-cake integrals, and the scaled
oscillation norm of a martingale in its four equivalent computable forms.

The oscillation norm of f at fractional parameter alpha is

    sup over levels n and sets A in the n-th sigma-field of
        P(A)^(-1/2-alpha) * (integral over A of |f - f_{n-1}|^2 dP)^(1/2)

with f_{-1} = 0, so the n = 0 term compares against zero and the norm
dominates the plain L^2 norm.  On a finite tree the supremum over unions
of level-n atoms collapses to single atoms: writing c_i for the integral
over atom i and m_i for its mass, c_i <= M * m_i^(1+2a) with
M = max_i c_i / m_i^(1+2a) gives

    sum c_i <= M * sum m_i^(1+2a) <= M * (sum m_i)^(1+2a)

because t -> t^(1+2a) is superadditive for 1+2a >= 1.  The same argument
over a stop set's atoms collapses the stopping-time form.  All four modes
are kept: two brute-force oracles (`subset-bruteforce` over unions,
`stopping-bruteforce` over all stopping times) and two fast single-atom
scans (`atom-fast`, and `omega-form` which scales the atom mean instead
of the atom integral).

Argmax ties are broken toward the smallest level, then atom index, then
subset in enumeration order, so witnesses are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SizeCapError
from .filtration import FiltrationTree
from .process import (
    AdaptedProcess,
    RandomVariable,
    _modulus,
    conditional_expectation,
)
from .stopping import (
    _before_table,
    chunks,
    prob_finite,
    resolve_max_enum,
    row_stops,
    stopped_before,
    stopping_time_table,
)

__all__ = [
    "NormResult",
    "lp_norm",
    "weak_lq_norm",
    "layer_cake",
    "power_integral",
    "bmo_alpha_norm",
    "bmo_alpha_p_norm",
    "process_bmo_alpha_norm",
    "bmo_ratio_at",
    "replay_bmo_witness",
    "BMO_MODES",
]

BMO_MODES = ("atom-fast", "subset-bruteforce", "stopping-bruteforce", "omega-form")


@dataclass(frozen=True)
class NormResult:
    """A computed supremum together with where and how it was attained."""

    value: float
    witness: dict | None
    mode: str

    def as_dict(self) -> dict:
        return {"value": self.value, "witness": self.witness, "mode": self.mode}


# == plain norms =============================================================


def lp_norm(X: RandomVariable, p: float) -> float:
    """(integral of |X|^p dP)^(1/p); Euclidean modulus for vector values.

    Valid for every p > 0; below 1 this is the usual quasi-norm, which the
    inequality machinery needs for exponents like 1/(2 alpha) and p - 1.
    """
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    mod = _modulus(X.values)
    w = X.tree.leaf_masses
    with np.errstate(over="ignore"):
        total = np.sum(mod**p * w)
    if math.isinf(total) and np.all(np.isfinite(mod)):
        # mod**p overflowed for a finite norm: factor out max |X|, which
        # bounds the norm, and sum the powers of ratios in [0, 1] instead.
        scale = float(np.max(mod))
        return float(scale * np.sum((mod / scale) ** p * w) ** (1.0 / p))
    return float(total ** (1.0 / p))


def weak_lq_norm(X: RandomVariable, q: float) -> float:
    """sup over lam > 0 of lam * P(|X| > lam)^(1/q).

    Computed exactly: the supremum is attained as a left limit at a value
    v of |X|, where P(|X| > lam) jumps to P(|X| >= v), so it equals the
    max of v * P(|X| >= v)^(1/q) over distinct values v > 0.
    """
    if q <= 0:
        raise ValueError(f"q must be positive, got {q}")
    mod = _modulus(X.values)
    order = np.argsort(mod, kind="stable")
    v = mod[order]
    tail = np.cumsum(X.tree.leaf_masses[order][::-1])[::-1]
    vals, first = np.unique(v, return_index=True)
    pos = vals > 0
    if not np.any(pos):
        return 0.0
    return float(np.max(vals[pos] * tail[first][pos] ** (1.0 / q)))


def _layer_cake_arrays(mod: np.ndarray, weights: np.ndarray, p: float) -> float:
    order = np.argsort(mod, kind="stable")
    v = mod[order]
    tail = np.cumsum(weights[order][::-1])[::-1]
    vals, first = np.unique(v, return_index=True)
    pos = vals > 0
    if not np.any(pos):
        return 0.0
    vals = vals[pos]
    tails = tail[first][pos]
    prev = np.concatenate(([0.0], vals[:-1]))
    return float(np.sum((vals**p - prev**p) * tails))


def _density_weights(X: RandomVariable, density) -> np.ndarray:
    w = X.tree.leaf_masses
    if density is None:
        return w
    d = density.values if isinstance(density, RandomVariable) else np.asarray(density, dtype=float)
    if d.shape != w.shape:
        raise ValueError("density must assign one value per leaf")
    if np.any(d < 0):
        raise ValueError("density must be nonnegative")
    return d * w


def layer_cake(X: RandomVariable, p: float, density=None) -> float:
    """p * integral over lam of lam^(p-1) * mu(|X| > lam), evaluated in
    closed form between consecutive distinct values of |X|.

    mu is density * P (uniform density when none is given).  Equals the
    direct sum of |X|^p against mu for every p > 0; the pair is the
    standard cross-check used throughout the verification suites.
    """
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    return _layer_cake_arrays(_modulus(X.values), _density_weights(X, density), p)


def power_integral(X: RandomVariable, p: float, density=None) -> float:
    """Direct sum form of the same integral: sum of |X|^p * density * mass."""
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    return float(np.sum(_modulus(X.values) ** p * _density_weights(X, density)))


# == oscillation norm ========================================================


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return alpha


def _previous_leaf_values(g: AdaptedProcess, n: int, previous: str) -> np.ndarray:
    """g_{n-1} spread onto leaves; zero array for n = 0."""
    final = g.level(g.depth)
    if n == 0:
        return np.zeros_like(final)
    if previous == "own":
        return g.leaf_view(n - 1)
    if previous == "conditional":
        ce = conditional_expectation(RandomVariable(g.tree, final), n - 1)
        return ce[g.tree.leaf_ancestors(n - 1)]
    raise ValueError(f"unknown previous-value rule {previous!r}")


def _residual_integrals(
    g: AdaptedProcess, n: int, p: float, previous: str = "own"
) -> np.ndarray:
    """Per level-n atom: integral over the atom of |g_N - g_{n-1}|^p dP."""
    tree = g.tree
    resid = g.level(g.depth) - _previous_leaf_values(g, n, previous)
    integrand = _modulus(resid) ** p * tree.leaf_masses
    return np.add.reduceat(integrand, tree.leaf_starts(n))


class _ArgMax:
    """Running strict maximum in candidate order (first winner kept)."""

    def __init__(self) -> None:
        self.value = -np.inf
        self.witness: dict | None = None

    def offer(self, value: float, witness: dict) -> None:
        if value > self.value or self.witness is None:
            self.value = float(value)
            self.witness = witness

    def offer_all(self, values: np.ndarray, witness_of) -> None:
        """Offer ``values`` in order, as one ``offer`` each would; the
        witness is built only for the winner, as ``witness_of(position)``."""
        start = 0
        if self.witness is None:
            self.offer(values[0], witness_of(0))
            start = 1
        rest = values[start:]
        if rest.size:
            # argmax returns the first maximum; a NaN never wins after the
            # first candidate, so rank it below everything.
            i = int(np.argmax(np.where(np.isnan(rest), -np.inf, rest)))
            if rest[i] > self.value:
                self.offer(rest[i], witness_of(start + i))


def _mask_atoms(mask: int, k: int) -> list[int]:
    return [i for i in range(k) if mask >> i & 1]


def _union_ratios(
    r: np.ndarray, m: np.ndarray, masks: np.ndarray, e_int: float, e_mass: float
) -> np.ndarray:
    """(sum of r over the union) ** e_int * (sum of m over it) ** e_mass per mask.

    Masks are grouped by popcount so each group sums a compact
    C-contiguous (unions, atoms) matrix: every row then adds exactly the
    elements, in exactly the order, of ``np.sum(r[atoms])``.  Powers are
    taken one float64 scalar at a time, as the per-union formula does.
    """
    bits = (masks[:, None] & (1 << np.arange(len(r)))) != 0
    counts = bits.sum(axis=1)
    r_sum = np.empty(len(masks))
    m_sum = np.empty(len(masks))
    for c in np.flatnonzero(np.bincount(counts)).tolist():
        sel = np.flatnonzero(counts == c)
        atoms = np.nonzero(bits[sel])[1].reshape(len(sel), c)
        r_sum[sel] = r[atoms].sum(axis=1)
        m_sum[sel] = m[atoms].sum(axis=1)
    return np.array([a**e_int * b**e_mass for a, b in zip(r_sum, m_sum)])


def _stopping_ratios(
    f: AdaptedProcess, taus: np.ndarray, e_int: float, e_mass: float
) -> np.ndarray:
    """(integral of |f_N - f_(tau-1)|^2) ** e_int * P(tau finite) ** e_mass
    per table row.

    Each row's integral sums a C-contiguous (rows, leaves) array, the same
    additions in the same order as for one stopping time; the integral's
    power is a float64 scalar power and the probability's a Python float
    power, as in the one-stopping-time formula.
    """
    tree = f.tree
    final = f.level(f.depth)
    resid = final - _before_table(f)[taus, np.arange(tree.num_leaves)]
    mod = np.abs(resid) if final.ndim == 1 else np.sqrt(np.sum(resid * resid, axis=-1))
    integrals = np.sum(mod**2 * tree.leaf_masses, axis=1)
    probs = prob_finite(tree, taus).tolist()
    return np.array([i**e_int * q**e_mass for i, q in zip(integrals, probs)])


def _stops_witness(tree: FiltrationTree, row: np.ndarray) -> dict:
    return {"kind": "stopping-time", "stops": [[s.level, s.index] for s in row_stops(tree, row)]}


def _bmo_sup(
    f: AdaptedProcess,
    alpha: float,
    p: float,
    mode: str,
    max_enum: int | None,
    previous: str = "own",
) -> NormResult:
    tree = f.tree
    e_int = 1.0 / p
    e_mass = -1.0 / p - alpha
    best = _ArgMax()

    if mode in ("atom-fast", "omega-form"):
        for n in range(tree.depth + 1):
            r = _residual_integrals(f, n, p, previous)
            m = tree.masses(n)
            if mode == "atom-fast":
                vals = r**e_int * m**e_mass
            else:
                vals = m ** (-alpha) * (r / m) ** e_int
            i = int(np.argmax(vals))
            best.offer(float(vals[i]), {"kind": "level-set", "level": n, "atoms": [i]})

    elif mode == "subset-bruteforce":
        cap = resolve_max_enum(max_enum)
        total = sum(2 ** tree.atom_count(n) - 1 for n in range(tree.depth + 1))
        if total > cap:
            raise SizeCapError(
                f"subset brute force would scan {total} unions, over the cap {cap}; "
                f"use atom-fast or raise BMO_LAB_MAX_ENUM"
            )
        for n in range(tree.depth + 1):
            r = _residual_integrals(f, n, p, previous)
            m = tree.masses(n)
            k = tree.atom_count(n)
            for rows in chunks((1 << k) - 1):
                masks = np.arange(rows.start + 1, rows.stop + 1)
                vals = _union_ratios(r, m, masks, e_int, e_mass)
                best.offer_all(
                    vals,
                    lambda j: {"kind": "level-set", "level": n,
                               "atoms": _mask_atoms(int(masks[j]), k)},
                )

    elif mode == "stopping-bruteforce":
        if p != 2.0:
            raise ValueError("the stopping-time form is defined for the p = 2 norm only")
        taus = stopping_time_table(tree, max_enum)
        for rows in chunks(len(taus) - 1):  # the last row never stops
            t = taus[rows]
            vals = _stopping_ratios(f, t, e_int, e_mass)
            best.offer_all(vals, lambda j: _stops_witness(tree, t[j]))

    else:
        raise ValueError(f"unknown mode {mode!r}; choose one of {BMO_MODES}")

    return NormResult(best.value, best.witness, mode)


def bmo_alpha_norm(
    f: AdaptedProcess, alpha: float, mode: str = "atom-fast", max_enum: int | None = None
) -> NormResult:
    """The scaled oscillation norm of a martingale, any of the four modes.

    All modes return the same value (brute-force ones up to float noise);
    they differ in cost and in the witness family they search.  Vector
    values are handled through the Euclidean modulus.
    """
    return _bmo_sup(f, _check_alpha(alpha), 2.0, mode, max_enum)


def bmo_alpha_p_norm(
    f: AdaptedProcess,
    alpha: float,
    p: float,
    mode: str = "atom-fast",
    max_enum: int | None = None,
) -> float:
    """Exponent-p variant: sup of P(A)^(-1/p-alpha) (int_A |f-f_{n-1}|^p)^(1/p).

    The single-atom reduction is only proved for p = 2, so the default is
    the atom scan and the union supremum stays available as
    `subset-bruteforce` for experiments; the two are not asserted equal.
    Nondecreasing in p by the power-mean inequality.
    """
    if p < 1:
        raise ValueError(f"p must be at least 1, got {p}")
    if mode not in ("atom-fast", "subset-bruteforce"):
        raise ValueError("p-variant supports atom-fast and subset-bruteforce modes")
    return _bmo_sup(f, _check_alpha(alpha), float(p), mode, max_enum).value


def process_bmo_alpha_norm(
    g: AdaptedProcess, alpha: float, previous: str = "own"
) -> float:
    """Oscillation norm of a general adapted process.

    ``previous="own"`` subtracts the process's own value one level up
    (for a martingale that is the same thing as the conditional
    expectation, so this extends the martingale norm); ``"conditional"``
    subtracts the conditional expectation of the final value instead.
    The single-atom reduction applies verbatim, so this is an atom scan.
    """
    return _bmo_sup(g, _check_alpha(alpha), 2.0, "atom-fast", None, previous).value


def bmo_ratio_at(
    f: AdaptedProcess, alpha: float, level: int, atoms, p: float = 2.0
) -> float:
    """Re-evaluate the defining ratio at one union of same-level atoms."""
    alpha = _check_alpha(alpha)
    r = _residual_integrals(f, level, p)
    idx = sorted(int(i) for i in atoms)
    if not idx:
        raise ValueError("need at least one atom")
    return float(
        np.sum(r[idx]) ** (1.0 / p) * np.sum(f.tree.masses(level)[idx]) ** (-1.0 / p - alpha)
    )


def replay_bmo_witness(
    f: AdaptedProcess, alpha: float, witness: dict, p: float = 2.0
) -> float:
    """Recompute the ratio a NormResult witness claims to achieve."""
    if witness["kind"] == "level-set":
        return bmo_ratio_at(f, alpha, witness["level"], witness["atoms"], p)
    if witness["kind"] == "stopping-time":
        if p != 2.0:
            raise ValueError("stopping-time witnesses exist for p = 2 only")
        from .stopping import StoppingTime

        alpha = _check_alpha(alpha)
        tau = StoppingTime(f.tree, [tuple(s) for s in witness["stops"]])
        resid = f.level(f.depth) - stopped_before(f, tau).values
        integral = np.sum(_modulus(resid) ** 2 * f.tree.leaf_masses)
        return float(integral**0.5 * tau.prob_finite ** (-0.5 - alpha))
    raise ValueError(f"unknown witness kind {witness.get('kind')!r}")

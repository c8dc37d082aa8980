"""Norm functionals: L^p, weak L^q, layer-cake integrals, and the scaled
oscillation norm of a martingale in its four equivalent computable forms.

The oscillation norm of f at fractional parameter alpha and exponent p is

    sup over levels n and sets A in the n-th sigma-field of
        P(A)^(-1/p-alpha) * (integral over A of |f - f_{n-1}|^p dP)^(1/p)

with f_{-1} = 0 and finite p >= 1 (2 by default); the n = 0 term compares
against zero, so the norm dominates the plain L^p norm.  At every p the
supremum over unions of level-n atoms collapses to single atoms: writing
c_i for the integral over atom i of |f_N - f_(n-1)|^p and m_i for its
mass, c_i <= M * m_i^(1+pa) with M = max_i c_i / m_i^(1+pa) gives

    sum c_i <= M * sum m_i^(1+pa) <= M * (sum m_i)^(1+pa)

because t -> t^(1+pa) is superadditive for 1+pa >= 1.  The same argument
over a stop set's atoms collapses the stopping-time form.  All four modes
run at every p: two brute-force oracles (`subset-bruteforce` over unions,
`stopping-bruteforce` over all stopping times) and two fast single-atom
scans (`atom-fast`, and `omega-form` which scales the atom mean instead
of the atom integral).

Every mode picks its supremum by one rule, the first strict maximum in
candidate order: ties go to the smallest level, then atom index, then
subset or stopping time in enumeration order, so witnesses are
deterministic, and a NaN candidate never wins after the first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import stopping
from .errors import SizeCapError, _real_arg
from .filtration import FiltrationTree, _atom_position
from .process import AdaptedProcess, RandomVariable, _modulus
from .stopping import (
    StoppingTime,
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
    "bmo_alpha_norm",
    "bmo_alpha_norms",
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


# == plain norms =============================================================


def lp_norm(X: RandomVariable, p: float) -> float:
    """(integral of |X|^p dP)^(1/p); Euclidean modulus for vector values.

    Valid for every p > 0; below 1 this is the usual quasi-norm, which the
    inequality machinery needs for exponents like 1/(2 alpha) and p - 1.
    At p = inf it is max |X| (every atom has positive mass).
    """
    p = _real_arg(p, "p must be positive", lambda v: v > 0)
    return _lp_rows(_modulus(X.values)[None], X.tree.leaf_masses, p)[0]


def _lp_rows(mod: np.ndarray, weights: np.ndarray, p: float) -> list[float]:
    """The L^p norm of each row of leaf moduli, for p > 0.

    Each row sums its C-contiguous cells alone, and each total takes its
    1/p-th power as a numpy scalar (numpy's array power can round
    differently), so a row gives the same bits as a one-row call.
    """
    if p == math.inf:
        return np.max(mod, axis=-1).tolist()
    with np.errstate(over="ignore"):
        totals = np.sum(mod**p * weights, axis=-1)
    norms = [float(total ** (1.0 / p)) for total in totals]
    for i in np.flatnonzero(np.isinf(totals)).tolist():
        row = mod[i]
        if np.all(np.isfinite(row)):
            # row**p overflowed for a finite norm: factor out max |X|, which
            # bounds the norm, and sum the powers of ratios in [0, 1] instead.
            scale = float(np.max(row))
            norms[i] = float(scale * np.sum((row / scale) ** p * weights) ** (1.0 / p))
    return norms


def weak_lq_norm(X: RandomVariable, q: float) -> float:
    """sup over lam > 0 of lam * P(|X| > lam)^(1/q).

    Computed exactly: the supremum is attained as a left limit at a value
    v of |X|, where P(|X| > lam) jumps to P(|X| >= v), so it equals the
    max of v * P(|X| >= v)^(1/q) over distinct values v > 0.
    """
    q = _real_arg(q, "q must be positive", lambda v: v > 0)
    return _weak_rows(_tails(_modulus(X.values)[None], X.tree.leaf_masses), q)[0]


def _tails(mod: np.ndarray, weights) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row of ``mod``: the row sorted ascending, the weight of {mod >= v}
    at each sorted position, and a mask of the first position of each
    distinct positive value v.

    ``weights`` is one row for every row, or one row per row.  Each row
    sorts stably and sums its tail weights in its own order, as alone.
    """
    order = np.argsort(mod, axis=-1, kind="stable")
    vals = np.take_along_axis(mod, order, axis=-1)
    w = np.take_along_axis(np.broadcast_to(weights, mod.shape), order, axis=-1)
    tails = np.cumsum(w[:, ::-1], axis=-1)[:, ::-1]
    first = vals > 0
    first[:, 1:] &= vals[:, 1:] != vals[:, :-1]
    return vals, tails, first


def _weak_rows(tails: tuple, q: float) -> list[float]:
    """The weak L^q norm of each row from its `_tails`: the max of
    v * P(|X| >= v)^(1/q), or 0 for a row with no positive value."""
    vals, weights, first = tails
    scores = np.zeros(vals.shape)
    scores[first] = vals[first] * weights[first] ** (1.0 / q)
    return np.max(scores, axis=-1).tolist()


def _layer_cake_rows(tails: tuple, p: float) -> list[float]:
    """The layer-cake integral of each row from its `_tails`.

    Rows are grouped by their count of distinct positive values, so each
    group sums a compact C-contiguous (rows, values) matrix: every row
    adds exactly the terms, in exactly the order, of a one-row call.
    """
    vals, weights, first = tails
    counts = first.sum(axis=-1)
    sums = np.zeros(len(vals))
    for c in np.unique(counts[counts > 0]).tolist():
        sel = np.flatnonzero(counts == c)
        keep = first[sel]
        v = vals[sel][keep].reshape(len(sel), c)
        prev = np.concatenate((np.zeros((len(sel), 1)), v[:, :-1]), axis=1)
        with np.errstate(invalid="ignore"):
            steps = v**p - prev**p
        # Where both powers overflow, inf - inf is NaN; the step up to the
        # larger value is inf, as its power is (and as the direct sum is).
        steps[np.isnan(steps)] = np.inf
        sums[sel] = np.sum(steps * weights[sel][keep].reshape(len(sel), c), axis=1)
    return sums.tolist()


# == oscillation norm ========================================================


def _check_alpha(alpha: object) -> float:
    return _real_arg(alpha, "alpha must lie in [0, 1]", lambda v: 0.0 <= v <= 1.0)


def _check_p(p: object) -> float:
    return _real_arg(p, "p must be finite and at least 1", lambda v: 1.0 <= v < math.inf)


def _residual_integrals(g: AdaptedProcess, n: int, p: float) -> np.ndarray:
    """Per level-n atom: integral over the atom of |g_N - g_{n-1}|^p dP,
    with g_{-1} = 0."""
    tree = g.tree
    resid = g.level(g.depth)
    if n:
        resid = resid - g.leaf_view(n - 1)
    integrand = _modulus(resid) ** p * tree.leaf_masses
    return tree.atom_sums(integrand, n)


class _ArgMax:
    """Running first strict maximum in candidate order: the first candidate
    ever offered is taken, and after it only a strictly larger value wins,
    so ties go to the earliest candidate and a NaN never wins after the
    first."""

    def __init__(self) -> None:
        self.value = -np.inf
        self.witness: dict | None = None

    def offer_all(self, values: np.ndarray, witness_of) -> None:
        """Offer ``values`` in order; the witness is built only for a
        winner, as ``witness_of(position)``."""
        i = values.argmax()  # the first maximum, or the first NaN
        v = values.item(i)
        if v != v and (i or self.witness is not None):
            # a NaN is taken only as the very first candidate; otherwise
            # rank NaNs below everything (blocks with none skip this pass)
            i = np.where(np.isnan(values), -np.inf, values).argmax()
            v = values.item(i)
        if v > self.value or self.witness is None:
            self.value = v
            self.witness = witness_of(int(i))


def _argmaxes(blocks, exps: list, mode: str) -> list[NormResult]:
    """One `NormResult` per exponent: the argmax over every block's
    candidates.  A block is a pair ``(values_at, witness_of)``:
    ``values_at(e)`` scores its candidates at exponent ``e`` and
    ``witness_of(position)`` names one.  A mass power that overflows to
    inf, and the NaN of inf times a zero integral, are intended: numpy
    does not warn of them, and `_ArgMax` ranks them."""
    bests = [_ArgMax() for _ in exps]
    with np.errstate(over="ignore", invalid="ignore"):
        for values_at, witness_of in blocks:
            for e, best in zip(exps, bests):
                best.offer_all(values_at(e), witness_of)
    return [NormResult(best.value, best.witness, mode) for best in bests]


def _atom_sups(tree: FiltrationTree, numerators: np.ndarray, exps: list) -> list:
    """The single-atom scan of both fast norms: atom ``i`` of the tree's
    table scores ``numerators[i] * mass ** e``, each column a scan of its
    own.  Per exponent, each column's supremum and the ``(level, index)``
    attaining it, by `_ArgMax`'s rule: the first strict maximum in table
    order (level, then index), a NaN winning only as the first candidate."""
    with np.errstate(over="ignore", invalid="ignore"):  # as in `_argmaxes`
        # (exps, atoms, columns); each exponent takes its own power of the masses
        scores = numerators * np.stack([tree.atom_masses[:, None] ** e for e in exps])
    np.copyto(scores[:, 1:], -np.inf, where=np.isnan(scores[:, 1:]))
    best = scores.argmax(axis=1)  # the first maximum, or a first candidate's NaN
    values = scores[np.arange(len(exps))[:, None], best, np.arange(scores.shape[2])].tolist()
    level = tree.level_starts.searchsorted(best, "right") - 1
    index = best - tree.level_starts[level]
    return [(v, list(zip(*li))) for v, li in zip(values, zip(level.tolist(), index.tolist()))]


def _mask_atoms(mask: int, k: int) -> list[int]:
    return [i for i in range(k) if mask >> i & 1]


def _float_power(q: float, e: float) -> float:
    """q ** e in Python floats, inf where the power overflows: Python
    raises there, while numpy's power, which the fast scans take, gives inf."""
    try:
        return q**e
    except OverflowError:
        return math.inf


def _resum_eights(r, m, r_sums, m_sums, counts: np.ndarray, first: int) -> None:
    """Re-sum by numpy, CHUNK_ROWS rows at a time, the unions among the
    masks ``first, first + 1, ...`` whose atom count is a multiple of 8.
    Each count's rows gather a compact C-contiguous (unions, atoms)
    matrix, of r and of m apart, so each row sums as ``np.sum(r[atoms])``."""
    fix = np.flatnonzero(counts % 8 == 0)
    for rows in chunks(len(fix)):
        sel = fix[rows]
        bits = ((first + sel)[:, None] & (1 << np.arange(len(r)))) != 0
        per_row = counts[sel]
        for c in np.flatnonzero(np.bincount(per_row)).tolist():
            group = per_row == c
            atoms = np.nonzero(bits[group])[1].reshape(-1, c)
            r_sums[sel[group]] = r[atoms].sum(axis=1)
            m_sums[sel[group]] = m[atoms].sum(axis=1)


def _union_table(r: np.ndarray, m: np.ndarray, bits: int) -> tuple:
    """Per mask of the atoms below ``bits``: the sums of r and of m over
    its union (0.0 for the empty mask) and its atom count, all 2 ** bits
    masks in ``bits`` vector steps (Yates's sum over subsets)."""
    size = 1 << bits
    r_tab, m_tab, counts = np.zeros(size), np.zeros(size), np.zeros(size, np.int8)
    for j in range(bits):
        low, new = slice(0, 1 << j), slice(1 << j, 2 << j)
        np.add(r_tab[low], r[j], out=r_tab[new])
        np.add(m_tab[low], m[j], out=m_tab[new])
        np.add(counts[low], 1, out=counts[new])
        if j >= 7:  # the new masks hold 1 to j + 1 atoms
            _resum_eights(r, m, r_tab[new], m_tab[new], counts[new], 1 << j)
    return r_tab, m_tab, counts


def _union_sums(
    r: np.ndarray, m: np.ndarray, table: tuple, start: int, stop: int
) -> tuple[np.ndarray, np.ndarray]:
    """The sum of r and the sum of m over the union of each mask in
    ``range(start, stop)``, bitwise ``np.sum(r[atoms])`` and
    ``np.sum(m[atoms])``.

    numpy sums a C-contiguous row of fewer than 8 elements left to right.
    From 8 on it keeps 8 lanes, adds them pairwise and then the rest left
    to right.  So a union's sum is the sum without its highest atom plus
    that atom, except at 8, 16, ... atoms, where `_resum_eights` asks
    numpy itself (``test_union_table_is_numpys_sum`` holds this).  The
    `_union_table` covers the low atoms; the higher atoms of a mask are
    added to a copy of its slice in ascending order, by the same rule.
    """
    r_tab, m_tab, counts = table
    bits = len(counts).bit_length() - 1
    parts = []
    for hi in range(start >> bits, ((stop - 1) >> bits) + 1):
        base = hi << bits
        a, b = max(start - base, 0), min(stop - base, len(counts))
        r_sums, m_sums = r_tab[a:b], m_tab[a:b]
        if hi:
            r_sums, m_sums, c = r_sums.copy(), m_sums.copy(), counts[a:b].copy()
            high = 0
            for i in _mask_atoms(hi, hi.bit_length()):
                high |= 1 << i
                np.add(r_sums, r[bits + i], out=r_sums)
                np.add(m_sums, m[bits + i], out=m_sums)
                np.add(c, 1, out=c)
                _resum_eights(r, m, r_sums, m_sums, c, (high << bits) + a)
        parts.append((r_sums, m_sums))
    if len(parts) == 1:
        return parts[0]
    return tuple(map(np.concatenate, zip(*parts)))


def _stopping_integrals(
    tree: FiltrationTree, final: np.ndarray, before: np.ndarray, taus: np.ndarray, p: float
) -> np.ndarray:
    """Integral of |f_N - f_(tau-1)|^p per table row, from ``before =
    _before_table(f)``.

    Each row's integral sums a C-contiguous (rows, leaves) array, the same
    additions in the same order as for one stopping time.
    """
    resid = final - before[taus, np.arange(tree.num_leaves)]
    mod = np.abs(resid) if final.ndim == 1 else _modulus(resid)
    return np.sum(mod**p * tree.leaf_masses, axis=1)


def _stops_witness(tree: FiltrationTree, row: np.ndarray) -> dict:
    return {"kind": "stopping-time", "stops": [[s.level, s.index] for s in row_stops(tree, row)]}


def _stopping_blocks(tree: FiltrationTree, max_enum: int | None, numerators):
    """One block per chunk of the stopping-time table, the never-stopping
    last row left out: ``numerators(chunk)[j] * P(tau_j finite) ** e``,
    the power one `np.float_power` call per chunk (libm ``pow``, the bits
    of Python's ``**`` on every CPU, inf where it overflows).  P(tau
    finite) is computed once for the table: each row sums only its own
    atoms, so a chunk's slice has the bits of a call on the chunk."""
    taus = stopping_time_table(tree, max_enum)
    probs = prob_finite(tree, taus[:-1])
    for rows in chunks(len(taus) - 1):
        t, p = taus[rows], probs[rows]
        nums = numerators(t)
        yield (lambda e: nums * np.float_power(p, e)), (lambda j: _stops_witness(tree, t[j]))


def _check_mode(mode: str, modes: tuple) -> None:
    if mode not in modes:
        raise ValueError(f"unknown mode {mode!r}; choose one of {modes}")


def _bmo_blocks(f: AdaptedProcess, p: float, mode: str, max_enum: int):
    """The candidate blocks of one brute-force scan of ``f``, scored at a
    mass exponent: ``(integral) ** (1/p) * (mass) ** e`` per union or
    stopping time.  Whatever does not depend on the exponent is computed
    once per block.  Each power is one `np.float_power` call per chunk:
    libm ``pow``, whose bits do not depend on numpy's CPU dispatch (its
    ``**`` does), and inf where a power overflows.
    """
    tree = f.tree
    e_int = 1.0 / p
    if mode == "stopping-bruteforce":
        final, before = f.level(f.depth), _before_table(f)
        yield from _stopping_blocks(
            tree, max_enum,
            lambda t: np.float_power(_stopping_integrals(tree, final, before, t, p), e_int),
        )
        return
    total = sum(2 ** tree.atom_count(n) - 1 for n in range(tree.depth + 1))
    if total > max_enum:
        raise SizeCapError(
            f"subset brute force would scan {total} unions, over the cap {max_enum}; "
            f"use atom-fast or raise BMO_LAB_MAX_ENUM"
        )
    for n in range(tree.depth + 1):
        r, m = _residual_integrals(f, n, p), tree.masses(n)
        k = len(m)
        table = _union_table(r, m, min(k, stopping.UNION_TABLE_BITS))
        for rows in chunks((1 << k) - 1):
            first = rows.start + 1
            r_sum, m_sum = _union_sums(r, m, table, first, rows.stop + 1)
            r_pow = np.float_power(r_sum, e_int)
            yield (lambda e: r_pow * np.float_power(m_sum, e)), (
                lambda j: {"kind": "level-set", "level": n, "atoms": _mask_atoms(first + j, k)})


def _bmo_sups(
    f: AdaptedProcess, alphas: list[float], p: float, mode: str, max_enum: int | None
) -> list[NormResult]:
    """The norm at every (validated) alpha, one scan of ``f`` for all; each
    alpha takes its own powers and argmax, the same floats in the same
    order as a scan for it alone.  A witness names p unless it is 2."""
    _check_mode(mode, BMO_MODES)
    p, max_enum = _check_p(p), resolve_max_enum(max_enum)
    if not alphas:
        return []
    exps = [-alpha if mode == "omega-form" else -1.0 / p - alpha for alpha in alphas]
    if mode in ("subset-bruteforce", "stopping-bruteforce"):
        results = _argmaxes(_bmo_blocks(f, p, mode, max_enum), exps, mode)
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # as in `_argmaxes`
            scale = np.concatenate([_residual_integrals(f, n, p) for n in range(f.depth + 1)])
            if mode == "omega-form":  # scales the atom mean instead of the atom integral
                scale /= f.tree.atom_masses
            scale **= 1.0 / p
        results = [NormResult(v, {"kind": "level-set", "level": n, "atoms": [i]}, mode)
                   for (v,), ((n, i),) in _atom_sups(f.tree, scale[:, None], exps)]
    if p != 2.0:
        for res in results:
            res.witness["p"] = p
    return results


def bmo_alpha_norms(
    f: AdaptedProcess, alphas, mode: str = "atom-fast", max_enum: int | None = None
) -> list[NormResult]:
    """The scaled oscillation norm of a martingale at every alpha of a
    list, one `NormResult` per alpha in order, from one scan of ``f``.

    All modes return the same value (brute-force ones up to float noise);
    they differ in cost and in the witness family they search.  Vector
    values are handled through the Euclidean modulus.  Every alpha is
    validated before anything is scanned; each result is bitwise the one
    a scan at that alpha alone gives.
    """
    return _bmo_sups(f, list(map(_check_alpha, alphas)), 2.0, mode, max_enum)


def bmo_alpha_norm(
    f: AdaptedProcess, alpha: float, mode: str = "atom-fast", max_enum: int | None = None,
    p: float = 2.0,
) -> NormResult:
    """The norm at one alpha and exponent p.  Every mode runs at every
    finite p >= 1, the modes agree there as at p = 2, and the value is
    nondecreasing in p by the power-mean inequality."""
    return _bmo_sups(f, [_check_alpha(alpha)], p, mode, max_enum)[0]


def process_bmo_alpha_norm(g: AdaptedProcess, alpha: float) -> float:
    """Oscillation norm of a general adapted process: the atom scan, with
    the process's own value one level up as the previous value.

    For a martingale that value is the conditional expectation of the
    final value, so this extends the martingale norm.  To compare against
    the conditional expectation of a general process's final value
    instead, take ``bmo_alpha_norm(martingale_from_final(g.final_value()),
    alpha)``.
    """
    return _bmo_sups(g, [_check_alpha(alpha)], 2.0, "atom-fast", None)[0].value


def bmo_ratio_at(f: AdaptedProcess, alpha: float, level: int, atoms) -> float:
    """Re-evaluate the defining ratio at one union of same-level atoms;
    an atom listed twice counts once."""
    return _level_set_ratio(f, alpha, level, atoms, 2.0)


def _level_set_ratio(f: AdaptedProcess, alpha: float, level: int, atoms, p: float) -> float:
    alpha = _check_alpha(alpha)
    level = _atom_position(level)
    if not np.iterable(atoms):
        raise ValueError(f"atoms must be a list of atom indices, got {atoms!r}")
    idx = sorted({_atom_position(i) for i in atoms})
    if not idx:
        raise ValueError("need at least one atom")
    m = f.tree.masses(level)
    for i in (idx[0], idx[-1]):
        if not 0 <= i < len(m):
            raise ValueError(f"atom index {i} out of range at level {level}")
    r = _residual_integrals(f, level, p)
    return _ratio(np.sum(r[idx]), float(np.sum(m[idx])), alpha, p)


def _ratio(integral: np.float64, mass: float, alpha: float, p: float) -> float:
    """integral ** (1/p) * mass ** (-1/p - alpha) in Python floats, so a
    mass power that overflows gives inf (or NaN times a zero integral)
    without a numpy warning.  Where numpy's scalar power is finite,
    Python's gives the same bits."""
    return float(integral ** (1.0 / p)) * _float_power(mass, -1.0 / p - alpha)


def _witness_field(witness: object, key: str) -> object:
    if not isinstance(witness, dict):
        raise ValueError(f"a witness must be a dict, got {type(witness).__name__}")
    if key not in witness:
        raise ValueError(f"the witness has no {key!r}")
    return witness[key]


def replay_bmo_witness(f: AdaptedProcess, alpha: float, witness: dict) -> float:
    """Recompute the ratio a NormResult witness claims to achieve, at the
    witness's ``"p"`` (2 where it names none)."""
    kind = _witness_field(witness, "kind")
    p = _check_p(witness.get("p", 2.0))
    if kind == "level-set":
        level, atoms = _witness_field(witness, "level"), _witness_field(witness, "atoms")
        return _level_set_ratio(f, alpha, level, atoms, p)
    if kind == "stopping-time":
        alpha = _check_alpha(alpha)
        tau = StoppingTime(f.tree, _witness_field(witness, "stops"))
        resid = f.level(f.depth) - stopped_before(f, tau).values
        integral = np.sum(_modulus(resid) ** p * f.tree.leaf_masses)
        return _ratio(integral, tau.prob_finite, alpha, p)
    raise ValueError(f"unknown witness kind {kind!r}")

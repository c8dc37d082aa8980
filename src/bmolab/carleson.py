"""Fractional Carleson measures on (space) x (level axis) and the
inequality that characterizes them.

A measure here is a nonnegative density per level against P tensor
counting measure: mu(E) = sum over pairs (leaf, k) in E of
density[k, leaf] * mass[leaf].  Densities live on leaves, not level-k
atoms; nothing requires them to be adapted.

Its norm at parameter alpha in [0, 1) is the supremum over stopping
times of mu(tent) / P(tau finite)^(1+2 alpha).  The same superadditivity
argument as for the oscillation norm collapses the supremum to single
tree nodes (a stop set's tents are disjoint, so mu(tent) adds while the
denominator super-adds), giving the `node-fast` scan checked against the
`stopping-bruteforce` oracle.

The bound verified by `carleson_inequality_grid` (and its one-point form
`carleson_inequality_check`) for adapted g, exponents 1 < p and
0 < alpha < 1:

    integral of |g_k|^p dmu
        <= p/(p-1) * norm(mu) * ||Mg||_{L^{1/(2 alpha)}} * ||Mg||_{L^{p-1}}^{p-1}

where Mg is the maximal function.  Both left-hand sides (direct sum and
layer cake) are computed; the weak L^{1/(2 alpha)} norm of Mg, which a
sharper chain of the same argument passes through, is reported as a
diagnostic.  `converse_extraction` runs the reverse direction: indicator
processes of stopping times turn the left side into exact tent masses,
so any constant the inequality holds with must dominate the norm.

Many draws of (g, mu) on one tree are evaluated as one batch: their leaf
moduli and weighted densities are stacked with the draws on the middle
axis, (levels, draws, leaves), and every factor is computed for all
draws at once, each draw's bits as if alone.  `carleson_inequality_grid`
is the batch of one draw; the inequality suite and `campaign` with ps
run one batch per tree, in chunks of at most CHUNK_CELLS leaf cells.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import _real_arg
from .filtration import FiltrationTree, TreeDocument
from .norms import (
    NormResult,
    _ArgMax,
    _argmaxes,
    _atom_sups,
    _check_mode,
    _float_power,
    _layer_cake_rows,
    _lp_rows,
    _stopping_blocks,
    _stops_witness,
    _tails,
    _weak_rows,
)
from .operators import _running_max
from .process import AdaptedProcess, Martingale, _freeze, _leaf_moduli, differences
from .stopping import (CHUNK_CELLS, StoppingTime, _indicator_levels, chunks, prob_finite,
                       resolve_max_enum, stopping_time_table)

__all__ = [
    "CarlesonMeasure",
    "carleson_alpha_norm",
    "carleson_alpha_norms",
    "carleson_ratio_at",
    "from_martingale",
    "random_measure",
    "carleson_inequality_check",
    "carleson_inequality_grid",
    "converse_extraction",
    "CARLESON_MODES",
]

CARLESON_MODES = ("node-fast", "stopping-bruteforce")


class CarlesonMeasure(TreeDocument):
    """Nonnegative leaf densities, one row per level.

    Only ``densities`` is stored, as the document holds it; ``weighted``
    is computed from it on each use."""

    SCHEMA = "measure/v1"
    FIELD = "densities"

    def __init__(self, tree: FiltrationTree, densities):
        d = _freeze(densities)
        if d.shape != (tree.depth + 1, tree.num_leaves):
            raise ValueError(
                f"densities must have shape {(tree.depth + 1, tree.num_leaves)}, "
                f"got {d.shape}"
            )
        if not np.all(np.isfinite(d)):
            raise ValueError("densities must be finite")
        if np.any(d < 0):
            raise ValueError("densities must be nonnegative")
        self.tree = tree
        self.densities = d

    @property
    def weighted(self) -> np.ndarray:
        """mu of each (level, leaf) cell: the densities times the leaf masses."""
        return self.densities * self.tree.leaf_masses

    def tent_mass(self, tau: StoppingTime) -> float:
        """mu of the tent over tau.

        Level by level in ascending order, each level summed as one
        masked array: this is the exact float path the inequality's left
        side takes for an indicator process, so the converse identity
        holds bitwise, not just within tolerance.
        """
        return float(self.tent_masses(tau.tau_values()[None])[0])

    def tent_masses(self, taus: np.ndarray) -> np.ndarray:
        """`tent_mass` of every row of a stopping-time table, in one pass
        per level; each row sums its masked leaf cells exactly as
        `tent_mass` does for that stopping time alone."""
        total = np.zeros(len(taus))
        weighted = self.weighted
        for k in range(self.tree.depth + 1):
            total += np.sum(np.where(taus <= k, weighted[k], 0.0), axis=1)
        return total

    def _payload(self) -> dict:
        return {"densities": self.densities.tolist()}

    def __repr__(self) -> str:
        return f"CarlesonMeasure(levels={self.densities.shape[0]}, leaves={self.densities.shape[1]})"


def from_martingale(f: Martingale) -> CarlesonMeasure:
    """Density row k is the squared modulus of the k-th increment of f."""
    mods = _leaf_moduli(differences(f))
    return CarlesonMeasure(f.tree, np.square(mods, out=mods))  # bitwise mods ** 2


def random_measure(tree: FiltrationTree, seed: int) -> CarlesonMeasure:
    """Absolute standard-normal densities; pure in the seed."""
    rng = np.random.default_rng(seed)
    return CarlesonMeasure(
        tree, np.abs(rng.standard_normal((tree.depth + 1, tree.num_leaves)))
    )


def _check_alpha_carleson(alpha: object) -> float:
    return _real_arg(alpha, "alpha must lie in [0, 1)", lambda v: 0.0 <= v < 1.0)


def _check_p(p: object) -> float:
    p = _real_arg(p, "p must exceed 1", lambda v: v > 1.0)
    if p == np.inf:
        raise ValueError(f"p must be finite, got {p}")
    return p


def _node_norms(tree: FiltrationTree, weighted: np.ndarray, alphas: list) -> list:
    """`node-fast` at every alpha for the measures whose weighted densities
    are stacked as (levels, measures, leaves): per alpha, each measure's
    `NormResult`, by `_atom_sups` of the node tents at exponents -(1 + 2
    alpha).  A node's tent mass is the suffix sum of the weighted densities
    over levels, summed over its leaves.  The suffix sums are one running
    (leaves, measures) row, levels descending, started as a copy of the
    deepest level, not as zeros plus it, so a -0.0 density keeps its sign.
    """
    if not alphas:
        return []
    tents = np.empty((tree.num_atoms, weighted.shape[1]))
    row = weighted[-1].T.copy()
    for n in reversed(range(tree.depth + 1)):
        if n < tree.depth:
            row += weighted[n].T
        tents[tree.level_starts[n] : tree.level_starts[n + 1]] = tree.atom_sums(row, n)
    return [
        [NormResult(v, {"kind": "stopping-time", "stops": [list(node)]}, "node-fast")
         for v, node in zip(values, nodes)]
        for values, nodes in _atom_sups(tree, tents, [-(1.0 + 2.0 * alpha) for alpha in alphas])
    ]


def carleson_alpha_norms(
    mu: CarlesonMeasure, alphas, mode: str = "node-fast",
    max_enum: int | None = None,
) -> list[NormResult]:
    """sup over stopping times of mu(tent) / P(tau finite)^(1+2 alpha) at
    every alpha of a list, one `NormResult` per alpha in order.

    `node-fast` scans single tree nodes (each as a one-atom stop set);
    `stopping-bruteforce` enumerates every stopping time.  The witness is
    a stopping time either way.  Every alpha is validated before anything
    is scanned.  The tents (suffix sums, or tent masses and stopping
    probabilities) are computed once for all alphas; each alpha takes its
    own powers and argmax, so each result is bitwise the one a scan at
    that alpha alone gives.
    """
    alphas = list(map(_check_alpha_carleson, alphas))
    _check_mode(mode, CARLESON_MODES)
    max_enum = resolve_max_enum(max_enum)
    if not alphas:
        return []
    if mode == "node-fast":
        return [norms[0] for norms in _node_norms(mu.tree, mu.weighted[:, None], alphas)]
    blocks = _stopping_blocks(mu.tree, max_enum, mu.tent_masses)
    return _argmaxes(blocks, [-(1.0 + 2.0 * alpha) for alpha in alphas], mode)


def carleson_alpha_norm(
    mu: CarlesonMeasure, alpha: float, mode: str = "node-fast",
    max_enum: int | None = None,
) -> NormResult:
    """`carleson_alpha_norms` at one alpha."""
    return carleson_alpha_norms(mu, [alpha], mode, max_enum)[0]


def carleson_ratio_at(mu: CarlesonMeasure, alpha: float, stops) -> float:
    """Re-evaluate the defining ratio at one stop set."""
    alpha = _check_alpha_carleson(alpha)
    tau = StoppingTime(mu.tree, stops)
    if tau.is_never():
        raise ValueError("the never-stopping time has no ratio")
    return mu.tent_mass(tau) * _float_power(tau.prob_finite, -(1.0 + 2.0 * alpha))


def _left_side(leaf_mods, weighted: np.ndarray, p: float):
    """integral of |g_k|^p dmu from the per-level leaf moduli of g and the
    weighted densities of mu: levels first, leaves on the last axis, any
    axes between holding independent processes (and measures, or one
    measure for all).  One sum per level, levels ascending, each over
    C-contiguous rows, so every process adds the same floats in the same
    order as alone.

    Must stay in lockstep with CarlesonMeasure.tent_mass: see its docstring.
    """
    total = 0.0
    for k, mod in enumerate(leaf_mods):
        total += np.sum(np.ascontiguousarray(mod) ** p * weighted[k], axis=-1)
    return total


@dataclass(frozen=True)
class CarlesonInequalityResult:
    """Everything the inequality check computed, plus the verdict."""

    lhs: float
    lhs_layer_cake: float
    rhs: float
    holds: bool
    p: float
    alpha: float
    constant: float
    carleson_norm: NormResult
    maximal_strong_norm: float
    maximal_tail_term: float
    maximal_weak_norm: float


def _check_grid(ps, alphas, slack) -> tuple[list[float], list[float], float]:
    """Read every p, then every alpha, then the slack, each as a float."""
    ps = list(map(_check_p, ps))
    checked = []
    for alpha in alphas:
        alpha = _check_alpha_carleson(alpha)
        if alpha == 0.0:
            raise ValueError("alpha must be positive here (the exponent 1/(2 alpha))")
        checked.append(alpha)
    return ps, checked, _real_arg(slack, "slack must be a number", lambda v: v == v)


def _inequality_grids(
    tree: FiltrationTree, mods: np.ndarray, weighted: np.ndarray, ps, alphas: list, slack: float
) -> list[list[list[CarlesonInequalityResult]]]:
    """Both sides of the inequality for a batch of draws on ``tree``: the
    leaf moduli of each process and the weighted densities of each
    measure, stacked as (levels, draws, leaves).  Per draw, its grid:
    entry [i][j] is the check at ps[i] and alphas[j] (already checked),
    and the results in one column share their measure-norm result.

    Each factor is computed once for the arguments it depends on: the
    maximal function once, the measure norm and the norms of Mg at
    1/(2 alpha) once per alpha, both left sides and the tail term once
    per p.  Every draw adds and multiplies the same floats in the same
    order as a batch of one.
    """
    w = tree.leaf_masses
    mg = np.max(mods, axis=0)  # Mg: at each leaf, the largest modulus over the levels
    mg_tails = _tails(mg, w)
    per_alpha = []
    for alpha, norms in zip(alphas, _node_norms(tree, weighted, alphas)):
        q = 1.0 / (2.0 * alpha)
        values = [r.value for r in norms]
        per_alpha.append((alpha, values, norms, _lp_rows(mg, w, q), _weak_rows(mg_tails, q)))

    draws = mods.shape[1]
    cells = _tails(*(a.transpose(1, 0, 2).reshape(draws, -1) for a in (mods, weighted)))
    grids = [[] for _ in range(draws)]
    for p in ps:
        with np.errstate(over="ignore"):  # a power that overflows is inf
            lhs = _left_side(mods, weighted, p)
            lhs_layer = _layer_cake_rows(cells, p)
        tail_term = [_float_power(x, p - 1.0) for x in _lp_rows(mg, w, p - 1.0)]
        constant = p / (p - 1.0)
        rows = [[] for _ in range(draws)]
        for alpha, values, norms, strong, weak in per_alpha:
            # the Python floats' product, left to right, one draw per element
            with np.errstate(over="ignore", invalid="ignore"):
                rhs = constant * np.array(values) * np.array(strong) * np.array(tail_term)
            holds = (lhs <= rhs + slack).tolist()
            for t, row in enumerate(rows):
                row.append(CarlesonInequalityResult(
                    lhs.item(t), lhs_layer[t], rhs.item(t), holds[t], p, alpha, constant,
                    norms[t], strong[t], tail_term[t], weak[t],
                ))
        for grid, row in zip(grids, rows):
            grid.append(row)
    return grids


def _inequality_batches(tree: FiltrationTree, draws, ps, alphas: list, slack: float):
    """`_inequality_grids` over the (process, measure) pairs of ``draws``,
    all on ``tree``, as few batches of at most CHUNK_CELLS leaf cells as
    allowed: yields each pair's grid in order.  The arguments are checked
    by the caller."""
    size = max(1, CHUNK_CELLS // ((tree.depth + 1) * tree.num_leaves))
    draws = iter(draws)
    while batch := list(itertools.islice(draws, size)):
        mods = np.stack([_leaf_moduli(g) for g, _ in batch], axis=1)
        weighted = np.stack([mu.weighted for _, mu in batch], axis=1)
        yield from _inequality_grids(tree, mods, weighted, ps, alphas, slack)


def carleson_inequality_grid(
    g: AdaptedProcess, mu: CarlesonMeasure, ps, alphas, slack: float = 1e-9,
) -> list[list[CarlesonInequalityResult]]:
    """Evaluate both sides of the inequality for one process and measure at
    every (p, alpha): entry [i][j] is the check at ps[i] and alphas[j].

    This is a batch of one draw (see `_inequality_grids`): each factor
    is computed once for the arguments it depends on, and the results in
    one column share their measure-norm result.
    """
    ps, alphas, slack = _check_grid(ps, alphas, slack)
    if g.tree != mu.tree:
        raise ValueError("process and measure live on different trees")
    return next(_inequality_batches(g.tree, [(g, mu)], ps, alphas, slack))


def carleson_inequality_check(
    g: AdaptedProcess, mu: CarlesonMeasure, p: float, alpha: float,
    slack: float = 1e-9,
) -> CarlesonInequalityResult:
    """Evaluate both sides of the inequality for one process and measure."""
    return carleson_inequality_grid(g, mu, (p,), (alpha,), slack)[0][0]


def _indicator_sides(taus: np.ndarray, mu: CarlesonMeasure, p: float):
    """Per table row, the left side and final running maximum of its
    stopping time's indicator process (0/1 values: their own modulus)."""
    tree = mu.tree
    ind = _indicator_levels(tree, taus)
    lhs = _left_side((tree.spread_to_leaves(m.T, k).T for k, m in enumerate(ind)), mu.weighted, p)
    return lhs, _running_max(tree, ind)[-1]


def converse_extraction(
    mu: CarlesonMeasure, alpha: float, c_p: float, p: float,
    max_enum: int | None = None,
) -> dict:
    """Test whether the inequality's constant c_p dominates the measure norm.

    Runs every stopping time's indicator process through the inequality's
    own left side and running maximum, a chunk of stopping-time table rows
    at a time.  That left side must equal the tent mass bitwise (the
    indicator modulus is exactly 0 or 1, so the two computations perform
    identical float operations), and the running maximum of the indicator
    must equal the indicator of {tau finite} exactly; both facts are
    checked, not assumed.  The verdict compares every ratio
    mu(tent)/P^(1+2 alpha) against a non-NaN c_p with hairline slack.
    """
    p = _check_p(p)
    alpha = _check_alpha_carleson(alpha)
    c_p = _real_arg(c_p, "c_p must be a number", lambda v: v == v)
    expo = -(1.0 + 2.0 * alpha)
    slack = 1e-12 * max(1.0, c_p)

    tree = mu.tree
    taus = stopping_time_table(tree, max_enum)
    probs = prob_finite(tree, taus[:-1])  # the last row never stops
    best = _ArgMax()
    first_violation: dict | None = None
    identity_exact = maximal_identity = True
    for rows in chunks(len(taus) - 1):
        t = taus[rows]
        lhs, running = _indicator_sides(t, mu, p)
        tent = mu.tent_masses(t)
        identity_exact = identity_exact and np.array_equal(lhs, tent)
        chi = np.where(t <= tree.depth, 1.0, 0.0)
        maximal_identity = maximal_identity and np.array_equal(running, chi)
        with np.errstate(over="ignore", invalid="ignore"):  # as in `_argmaxes`
            ratios = tent * np.float_power(probs[rows], expo)
        best.offer_all(ratios, lambda j: _stops_witness(tree, t[j]))
        over = np.flatnonzero(ratios > c_p + slack)
        if first_violation is None and over.size:
            j = int(over[0])
            first_violation = {
                "ratio": float(ratios[j]),
                "stops": _stops_witness(tree, t[j])["stops"],
            }

    return {
        "norm_bound_satisfied": first_violation is None,
        "c_p": c_p,
        "max_ratio": best.value,
        "witness": best.witness,
        "first_violation": first_violation,
        "identity_exact": identity_exact,
        "maximal_identity": maximal_identity,
        "stopping_times_checked": len(taus) - 1,
    }

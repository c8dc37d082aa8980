"""Hand-rolled reference implementations for cross-checking the library.

Everything here works on plain nested dicts (the "root" object of a
tree/v1 document) and plain Python lists, using only math and itertools.
No numpy, no shared code with the package: different traversals,
different summation order, different enumeration.  Agreement within
1e-10 between these and the fast paths is therefore meaningful.

There are two exceptions.  The reference tree builders are the
recursive nested-dict builders the package used before it built trees
as level arrays, kept verbatim; ``build_random`` needs numpy's generator
to make the same draws.  The reference tree/v1 text is the standard
library's ``json.dumps`` of their output.  The reference per-alpha norm
scans, the reference first passage and the reference inequality grid at
the end are the package's code before it scanned all alphas at once,
before first passage read its stops off its tau row, and before the
inequality ran many draws as one batch, kept verbatim on the package's
tree and stopping primitives.
"""

import itertools
import json
import math

import numpy as np


# == values: scalars or vectors ==============================================


def _as_vec(v):
    if isinstance(v, (int, float)):
        return (float(v),)
    return tuple(float(x) for x in v)


def _mod(v):
    return math.sqrt(sum(x * x for x in _as_vec(v)))


def _dist2(a, b):
    return sum((x - y) ** 2 for x, y in zip(_as_vec(a), _as_vec(b)))


# == reference trees: recursive builders and the stdlib encoder =============


class SizeCapError(Exception):
    """The reference random builder's atom cap."""


def build_dyadic(depth):
    """Root node of the uniform binary tree of the given depth."""

    def node(level: int, mass: float) -> dict:
        if level == depth:
            return {"mass": mass, "children": []}
        half = mass / 2.0
        return {"mass": mass, "children": [node(level + 1, half), node(level + 1, half)]}

    return node(0, 1.0)


def build_random(seed, depth, max_branch, *, max_atoms=1_000_000):
    """Root node of the seeded random tree, drawn by a recursive walk."""
    rng = np.random.default_rng(seed)
    count = 0

    def node(level: int, mass: float) -> dict:
        nonlocal count
        count += 1
        if count > max_atoms:
            raise SizeCapError(f"random tree exceeds the atom cap {max_atoms}")
        if level == depth:
            return {"mass": mass, "children": []}
        branches = int(rng.integers(1, max_branch + 1))
        if branches == 1:
            parts = [mass]
        else:
            weights = rng.dirichlet(np.ones(branches))
            while float(weights.min()) < 1e-6:
                weights = rng.dirichlet(np.ones(branches))
            parts = [mass * float(w) for w in weights[:-1]]
            total = 0.0
            for part in parts:  # left to right: `sum` compensates from Python 3.12 on
                total += part
            parts.append(mass - total)
        return {"mass": mass, "children": [node(level + 1, p) for p in parts]}

    return node(0, 1.0)


def tree_doc(root):
    """The tree/v1 document of a root node."""
    return {"schema": "tree/v1", "depth": tree_depth(root), "root": root}


def tree_json(root):
    """tree/v1 text of a root node, as the standard library writes it."""
    return json.dumps(tree_doc(root), indent=2, sort_keys=True)


def levels(root):
    """Per level, the (mass, parent index) pairs left to right."""
    out = []

    def rec(node, level, parent):
        while len(out) <= level:
            out.append([])
        out[level].append((node["mass"], parent))
        index = len(out[level]) - 1
        for ch in node["children"]:
            rec(ch, level + 1, index)

    rec(root, 0, -1)
    return out


# == tree walks ==============================================================


def tree_depth(root):
    node, d = root, 0
    while node.get("children"):
        node = node["children"][0]
        d += 1
    return d


def leaf_masses(root):
    """Leaf masses in depth-first, leftmost-first order."""
    out = []

    def rec(node):
        kids = node.get("children") or []
        if not kids:
            out.append(float(node["mass"]))
        for ch in kids:
            rec(ch)

    rec(root)
    return out


def atom_layers(root):
    """Per level, the atoms as (leaf_start, leaf_stop, mass) triples."""
    layers = []
    counter = [0]

    def rec(node, level):
        while len(layers) <= level:
            layers.append([])
        start = counter[0]
        kids = node.get("children") or []
        if not kids:
            counter[0] += 1
        for ch in kids:
            rec(ch, level + 1)
        layers[level].append((start, counter[0], float(node["mass"])))
    rec(root, 0)
    # depth-first recursion appends parents after their subtrees; restore
    # left-to-right order within each level by the start index
    for layer in layers:
        layer.sort(key=lambda t: t[0])
    return layers


def cond_exp_levels(root, leaves):
    """Conditional expectations of the leaf values, one list per level."""
    lm = leaf_masses(root)
    lv = [_as_vec(v) for v in leaves]
    dim = len(lv[0])
    levels = []
    for layer in atom_layers(root):
        vals = []
        for start, stop, mass in layer:
            acc = [0.0] * dim
            for i in range(start, stop):
                for d in range(dim):
                    acc[d] += lv[i][d] * lm[i]
            vals.append(tuple(a / mass for a in acc))
        levels.append(vals)
    return levels


# == oscillation norm ========================================================


def bmo_sup(root, leaves, alpha, p=2.0, subsets=False):
    """sup over levels and atoms (or nonempty atom unions) of the ratio
    (integral over the set of |final - previous|^p) ^ (1/p) * mass ^ (-1/p - alpha).
    """
    depth = tree_depth(root)
    lm = leaf_masses(root)
    lv = [_as_vec(v) for v in leaves]
    layers = atom_layers(root)
    cond = cond_exp_levels(root, leaves)
    dim = len(lv[0])
    zero = (0.0,) * dim
    best = 0.0
    for n in range(depth + 1):
        if n == 0:
            prev_leaf = [zero] * len(lm)
        else:
            prev_leaf = [None] * len(lm)
            for j, (s, e, _) in enumerate(layers[n - 1]):
                for i in range(s, e):
                    prev_leaf[i] = cond[n - 1][j]
        atoms = layers[n]
        r = []
        for s, e, _ in atoms:
            acc = 0.0
            for i in range(s, e):
                acc += _dist2(lv[i], prev_leaf[i]) ** (p / 2.0) * lm[i]
            r.append(acc)
        if subsets:
            for k in range(1, len(atoms) + 1):
                for combo in itertools.combinations(range(len(atoms)), k):
                    mass = sum(atoms[j][2] for j in combo)
                    ri = sum(r[j] for j in combo)
                    best = max(best, ri ** (1.0 / p) * mass ** (-1.0 / p - alpha))
        else:
            for j, (_, _, mass) in enumerate(atoms):
                best = max(best, r[j] ** (1.0 / p) * mass ** (-1.0 / p - alpha))
    return best


# == stopping rules and measure norm =========================================


def _labelled(root):
    """Copy of the tree with each node's (level, index) position."""
    counts = {}

    def label(node, level):
        idx = counts.get(level, 0)
        counts[level] = idx + 1
        return {
            "level": level,
            "index": idx,
            "children": [label(c, level + 1) for c in (node.get("children") or [])],
        }

    return label(root, 0)


def antichains(root):
    """Every antichain of nodes, as lists of (level, index) pairs.

    Per node the rule either stops there or defers to all children;
    deferring at a leaf drops that branch (never stops on it).  The empty
    list (never stop anywhere) is included.
    """

    def rec(node):
        yield [(node["level"], node["index"])]
        if node["children"]:
            for combo in itertools.product(*[list(rec(c)) for c in node["children"]]):
                yield [ref for part in combo for ref in part]
        else:
            yield []

    yield from rec(_labelled(root))


def behaviors(root):
    """Stop sets in the package's enumeration order, one recursive
    generator step at a time: "stop here" before every deferred
    combination, the leftmost child's options varying slowest, the
    never-stopping (empty) set last.  Yields tuples of (level, index).
    """

    def rec(node):
        yield ((node["level"], node["index"]),)
        children = node["children"]
        if not children:
            yield ()
            return

        def combos(j):
            if j == len(children):
                yield ()
                return
            for head in rec(children[j]):
                for rest in combos(j + 1):
                    yield head + rest

        yield from combos(0)

    yield from rec(_labelled(root))


def tent_mass(root, densities, stops):
    """mu of the region under a stop set: sum over stopped leaves of
    density * leaf mass at every level from the stop down."""
    lm = leaf_masses(root)
    layers = atom_layers(root)
    tau = [None] * len(lm)
    for lvl, idx in stops:
        s, e, _ = layers[lvl][idx]
        for i in range(s, e):
            tau[i] = lvl
    total = 0.0
    for i, t in enumerate(tau):
        if t is None:
            continue
        for k in range(t, len(densities)):
            total += densities[k][i] * lm[i]
    return total


def carleson_sup(root, densities, alpha):
    """sup over nonempty antichains of tent mass / stop mass^(1 + 2 alpha)."""
    layers = atom_layers(root)
    best = 0.0
    for ac in antichains(root):
        if not ac:
            continue
        stop_mass = sum(layers[lvl][idx][2] for lvl, idx in ac)
        val = tent_mass(root, densities, ac) * stop_mass ** (-(1.0 + 2.0 * alpha))
        best = max(best, val)
    return best


# == plain integrals =========================================================


def lp(leaves, masses, p):
    return sum(_mod(v) ** p * m for v, m in zip(leaves, masses)) ** (1.0 / p)


def weak_lq(leaves, masses, q):
    mods = [_mod(v) for v in leaves]
    best = 0.0
    for lam in sorted(set(mods)):
        if lam <= 0.0:
            continue
        pm = sum(m for mo, m in zip(mods, masses) if mo >= lam)
        best = max(best, lam * pm ** (1.0 / q))
    return best


# == reference per-alpha scans: the package's norms before batching =========
#
# The oscillation norm and the measure norm as the package computed them,
# one alpha per call, kept verbatim.  The package now scans every alpha
# of a list at once, and its one-alpha functions run that batched code, so
# they cannot serve as the reference for it.  Unlike the rest of this
# module these reuse the package's tree and stopping-table primitives:
# the check they back is that batching changes no bit, not an independent
# derivation.

from bmolab.errors import SizeCapError as _PackageSizeCapError  # noqa: E402
from bmolab.norms import NormResult  # noqa: E402
from bmolab.process import RandomVariable, _modulus, conditional_expectation  # noqa: E402
from bmolab.stopping import (  # noqa: E402
    _before_table,
    chunks,
    prob_finite,
    resolve_max_enum,
    row_stops,
    stopping_time_table,
)


def _check_alpha(alpha):
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return alpha


def _previous_leaf_values(g, n, previous):
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


def _residual_integrals(g, n, p, previous="own"):
    """Per level-n atom: integral over the atom of |g_N - g_{n-1}|^p dP."""
    tree = g.tree
    resid = g.level(g.depth) - _previous_leaf_values(g, n, previous)
    integrand = _modulus(resid) ** p * tree.leaf_masses
    return np.add.reduceat(integrand, tree.leaf_starts(n))


class _ArgMax:
    """Running strict maximum in candidate order (first winner kept)."""

    def __init__(self):
        self.value = -np.inf
        self.witness = None

    def offer(self, value, witness):
        if value > self.value or self.witness is None:
            self.value = float(value)
            self.witness = witness

    def offer_all(self, values, witness_of):
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


def _mask_atoms(mask, k):
    return [i for i in range(k) if mask >> i & 1]


def _union_ratios(r, m, masks, e_int, e_mass):
    """(sum of r over the union) ** e_int * (sum of m over it) ** e_mass per mask."""
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


def _stopping_ratios(f, taus, p, e_int, e_mass):
    """(integral of |f_N - f_(tau-1)|^p) ** e_int * P(tau finite) ** e_mass
    per table row."""
    tree = f.tree
    final = f.level(f.depth)
    resid = final - _before_table(f)[taus, np.arange(tree.num_leaves)]
    mod = np.abs(resid) if final.ndim == 1 else np.sqrt(np.sum(resid * resid, axis=-1))
    integrals = np.sum(mod**p * tree.leaf_masses, axis=1)
    probs = prob_finite(tree, taus).tolist()
    return np.array([i**e_int * q**e_mass for i, q in zip(integrals, probs)])


def _stops_witness(tree, row):
    return {"kind": "stopping-time", "stops": [[s.level, s.index] for s in row_stops(tree, row)]}


def reference_bmo_sup(f, alpha, p, mode, max_enum, previous="own"):
    """The oscillation norm at one alpha, as the package's ``_bmo_sup``
    computed it before batching; ``alpha`` is already validated."""
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
            raise _PackageSizeCapError(
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
        taus = stopping_time_table(tree, max_enum)
        for rows in chunks(len(taus) - 1):  # the last row never stops
            t = taus[rows]
            vals = _stopping_ratios(f, t, p, e_int, e_mass)
            best.offer_all(vals, lambda j: _stops_witness(tree, t[j]))

    else:
        raise ValueError(f"unknown mode {mode!r}")

    return NormResult(best.value, best.witness, mode)


def reference_bmo_alpha_norm(f, alpha, mode="atom-fast", max_enum=None):
    return reference_bmo_sup(f, _check_alpha(alpha), 2.0, mode, max_enum)


def reference_bmo_alpha_p_norm(f, alpha, p, mode="atom-fast", max_enum=None):
    return reference_bmo_sup(f, _check_alpha(alpha), float(p), mode, max_enum)


def reference_process_bmo_alpha_norm(g, alpha, previous="own"):
    return reference_bmo_sup(g, _check_alpha(alpha), 2.0, "atom-fast", None, previous).value


def _tent_ratios(tree, tents, taus, expo):
    """tent * P(tau finite) ** expo per table row."""
    probs = prob_finite(tree, taus).tolist()
    return np.array([t * q**expo for t, q in zip(tents.tolist(), probs)])


def reference_carleson_alpha_norm(mu, alpha, mode="node-fast", max_enum=None):
    """The measure norm at one alpha, as the package's
    ``carleson_alpha_norm`` computed it before batching."""
    alpha = float(alpha)
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    tree = mu.tree
    expo = -(1.0 + 2.0 * alpha)
    best = _ArgMax()

    if mode == "node-fast":
        suffix = np.cumsum(mu.weighted[::-1], axis=0)[::-1]
        for n in range(tree.depth + 1):
            c = np.add.reduceat(suffix[n], tree.leaf_starts(n))
            vals = c * tree.masses(n) ** expo
            i = int(np.argmax(vals))
            best.offer(float(vals[i]), {"kind": "stopping-time", "stops": [[n, i]]})
    elif mode == "stopping-bruteforce":
        taus = stopping_time_table(tree, max_enum)
        for rows in chunks(len(taus) - 1):  # the last row never stops
            t = taus[rows]
            vals = _tent_ratios(tree, mu.tent_masses(t), t, expo)
            best.offer_all(vals, lambda j: _stops_witness(tree, t[j]))
    else:
        raise ValueError(f"unknown mode {mode!r}")

    return NormResult(best.value, best.witness, mode)


# == reference first passage: the package's pair-based form ==================
#
# ``first_passage`` as the package computed it before it read its stops
# off the tau row, kept verbatim: every hit leaf's (first level, ancestor
# at that level) pair, deduplicated by ``np.unique``.

from bmolab.filtration import AtomRef  # noqa: E402
from bmolab.process import _leaf_moduli  # noqa: E402
from bmolab.stopping import StoppingTime  # noqa: E402


def first_passage(g, lam):
    """First level at which the modulus of the process exceeds ``lam``.

    Exceeding is strict, so the stop set is exactly the set of minimal
    atoms where |g_n| > lam; a threshold at or above the running sup gives
    the never-stopping time.
    """
    tree = g.tree
    depth = tree.depth
    exceed = _leaf_moduli(g) > lam
    hit = exceed.any(axis=0)
    if not hit.any():
        return StoppingTime(tree, [])
    fp = np.argmax(exceed, axis=0)
    ancestors = np.stack([tree.leaf_ancestors(n) for n in range(depth + 1)])
    leaves = np.flatnonzero(hit)
    pairs = np.unique(
        np.stack([fp[leaves], ancestors[fp[leaves], leaves]], axis=1), axis=0
    )
    return StoppingTime(tree, [AtomRef(int(l), int(i)) for l, i in pairs])


# == reference inequality grid: the package's per-draw grid ==================
#
# ``carleson_inequality_grid`` as the package computed it one (g, mu) at a
# time, before it evaluated many draws on one tree as one batch, kept
# verbatim with the plain integrals, the node scan and the left side it
# ran; it validates its arguments and picks each norm's argmax with the
# package's own ``_check_*`` and ``_argmaxes``.

from bmolab.carleson import (  # noqa: E402
    CarlesonInequalityResult,
    _check_alpha_carleson,
    _check_p,
)
from bmolab.norms import _argmaxes  # noqa: E402
from bmolab.operators import maximal  # noqa: E402


def _lp_norm(X, p):
    if not p > 0:
        raise ValueError(f"p must be positive, got {p}")
    mod = _modulus(X.values)
    if p == math.inf:
        return float(np.max(mod))
    w = X.tree.leaf_masses
    with np.errstate(over="ignore"):
        total = np.sum(mod**p * w)
    if math.isinf(total) and np.all(np.isfinite(mod)):
        # mod**p overflowed for a finite norm: factor out max |X|, which
        # bounds the norm, and sum the powers of ratios in [0, 1] instead.
        scale = float(np.max(mod))
        return float(scale * np.sum((mod / scale) ** p * w) ** (1.0 / p))
    return float(total ** (1.0 / p))


def _weak_lq_norm(X, q):
    if not q > 0:
        raise ValueError(f"q must be positive, got {q}")
    vals, tails = _tails(_modulus(X.values), X.tree.leaf_masses)
    if not vals.size:
        return 0.0
    return float(np.max(vals * tails ** (1.0 / q)))


def _tails(mod, weights):
    order = np.argsort(mod, kind="stable")
    tail = np.cumsum(weights[order][::-1])[::-1]
    vals, first = np.unique(mod[order], return_index=True)
    pos = vals > 0
    return vals[pos], tail[first][pos]


def _layer_cake_arrays(mod, weights, p):
    vals, tails = _tails(mod, weights)
    if not vals.size:
        return 0.0
    prev = np.concatenate(([0.0], vals[:-1]))
    return float(np.sum((vals**p - prev**p) * tails))


def _node_blocks(mu):
    tree = mu.tree
    suffix = np.cumsum(mu.weighted[::-1], axis=0)[::-1]
    for n in range(tree.depth + 1):
        c = tree.atom_sums(suffix[n], n)
        m = tree.masses(n)
        yield (lambda e: c * m**e), (lambda i: {"kind": "stopping-time", "stops": [[n, i]]})


def _left_side(leaf_mods, mu, p):
    total = 0.0
    for k, mod in enumerate(leaf_mods):
        total += np.sum(np.ascontiguousarray(mod) ** p * mu.weighted[k], axis=-1)
    return total


def reference_inequality_grid(g, mu, ps, alphas, slack=1e-9):
    """``carleson_inequality_grid`` on one process and measure."""
    for p in ps:
        _check_p(p)
    checked = []
    for alpha in alphas:
        alpha = _check_alpha_carleson(alpha)
        if alpha == 0.0:
            raise ValueError("alpha must be positive here (the exponent 1/(2 alpha))")
        checked.append(alpha)
    if g.tree != mu.tree:
        raise ValueError("process and measure live on different trees")

    mods = _leaf_moduli(g)
    mg = maximal(g)
    per_alpha = []
    norms = _argmaxes(_node_blocks(mu), [-(1.0 + 2.0 * alpha) for alpha in checked], "node-fast")
    for alpha, norm in zip(checked, norms):
        q = 1.0 / (2.0 * alpha)
        per_alpha.append((alpha, norm, _lp_norm(mg, q), _weak_lq_norm(mg, q)))

    grid = []
    for p in ps:
        lhs = float(_left_side(mods, mu, p))
        lhs_layer = _layer_cake_arrays(mods.ravel(), mu.weighted.ravel(), p)
        tail_term = _lp_norm(mg, p - 1.0) ** (p - 1.0)
        constant = p / (p - 1.0)
        row = []
        for alpha, norm, strong, weak in per_alpha:
            rhs = constant * norm.value * strong * tail_term
            row.append(
                CarlesonInequalityResult(
                    lhs=lhs,
                    lhs_layer_cake=lhs_layer,
                    rhs=rhs,
                    holds=bool(lhs <= rhs + slack),
                    p=float(p),
                    alpha=alpha,
                    constant=constant,
                    carleson_norm=norm,
                    maximal_strong_norm=strong,
                    maximal_tail_term=tail_term,
                    maximal_weak_norm=weak,
                )
            )
        grid.append(row)
    return grid

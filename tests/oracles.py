"""Hand-rolled reference implementations for cross-checking the library.

Everything here works on plain nested dicts (the "root" object of a
tree/v1 document) and plain Python lists, using only math and itertools.
No numpy, no shared code with the package: different traversals,
different summation order, different enumeration.  Agreement within
1e-10 between these and the fast paths is therefore meaningful.
"""

import itertools
import math


# == values: scalars or vectors ==============================================


def _as_vec(v):
    if isinstance(v, (int, float)):
        return (float(v),)
    return tuple(float(x) for x in v)


def _mod(v):
    return math.sqrt(sum(x * x for x in _as_vec(v)))


def _dist2(a, b):
    return sum((x - y) ** 2 for x, y in zip(_as_vec(a), _as_vec(b)))


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

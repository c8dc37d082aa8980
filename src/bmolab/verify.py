"""Seeded verification suites: each bundles module operations into a
reportable check of one identity or bound, brute-force oracles against
fast paths.

Every suite is a pure function of its parameters.  Sub-seeds come from a
fixed splittable scheme (documented in each report's params), so any
per-case record can be replayed bit-for-bit from the fields it carries.
Reports serialize to a single JSON document; comparison mode drops the
wall-clock field, and two runs with the same arguments produce
byte-identical comparison-mode JSON.
"""

from __future__ import annotations

import csv
import functools
import inspect
import itertools
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .carleson import (
    CARLESON_MODES,
    _check_grid,
    _inequality_batches,
    carleson_alpha_norm,
    carleson_alpha_norms,
    converse_extraction,
    from_martingale,
    random_measure,
)
from .errors import _INT64_MAX, _int_arg
from .filtration import FiltrationTree, build_dyadic, build_random, dump_json, write_text
from .norms import BMO_MODES, _check_alpha, bmo_alpha_norm, bmo_alpha_norms, replay_bmo_witness
from .operators import l2_lift, maximal, running_maximal, square_function, transform
from .process import (
    PredictableSequence,
    _modulus,
    random_adapted_process,
    random_martingale,
)
from .stopping import _before_table, count_stopping_times, first_passage, indicator_process

__all__ = [
    "VerificationReport",
    "check_characterization",
    "check_lemma_stopping_form",
    "check_carleson_inequality",
    "check_operators",
    "campaign",
    "bench",
    "replay_characterization_case",
    "SUITES",
    "SEED_SCHEME",
    "CSV_COLUMNS",
]

SEED_SCHEME = (
    "trial seeds: SeedSequence(seed).generate_state(trials, uint64); "
    "per-trial streams: SeedSequence(trial_seed).generate_state(n, uint64)"
)

CSV_COLUMNS = ("suite", "alpha", "p", "depth", "seed", "lhs", "rhs", "residual", "verdict")


def _trial_seeds(seed: int, trials: int) -> list[int]:
    state = np.random.SeedSequence(seed).generate_state(trials, dtype=np.uint64)
    return [int(s) for s in state]


def _rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else 0.0


@dataclass
class VerificationReport:
    suite: str
    params: dict
    cases: list
    verdict: str
    wall_clock_s: float

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self, *, comparison: bool = False) -> dict:
        doc = {
            "schema": "report/v1",
            "suite": self.suite,
            "params": self.params,
            "cases": self.cases,
            "verdict": self.verdict,
        }
        if not comparison:
            doc["wall_clock_s"] = self.wall_clock_s
        return doc

    def to_json(self, *, comparison: bool = False) -> str:
        return dump_json(self.to_dict(comparison=comparison))

    def save(self, path: str, *, comparison: bool = False) -> None:
        write_text(path, self.to_json(comparison=comparison))

    def write_csv(self, path: str | None = None) -> None:
        """Write one row per case to ``path``, or to stdout when no path is given."""
        with open(path, "w", newline="") if path else nullcontext(sys.stdout) as fh:
            w = csv.writer(fh)  # writes None as an empty cell, anything else as str()
            w.writerow(CSV_COLUMNS)
            for case in self.cases:
                w.writerow([case.get(col, self.suite if col == "suite" else None)
                            for col in CSV_COLUMNS])


def _require(counts: dict, **lists) -> None:
    """Refuse an empty list argument, or a count below 1, before any work:
    a suite run over either would pass with no cases at all."""
    for name, values in lists.items():
        if len(values) == 0:
            raise ValueError(f"{name} must not be empty")
    for name, count in counts.items():
        # _trial_seeds draws each trial's seed as two 32-bit words
        if _int_arg(count, f"{name} must be an integer", high=_INT64_MAX // 2) < 1:
            raise ValueError(f"{name} must be at least 1")


def _param(value):
    """A params entry: an iterable as a list, an empty one as None."""
    return (list(value) or None) if hasattr(value, "__iter__") else value


def _suite(name: str, counts=("trials",), lists=("alphas",)):
    """Frame a suite body, a generator of case dicts, as a suite.

    The suite refuses empty ``lists`` and then ``counts`` below 1 before
    any work, runs the body, and reports every argument in ``params``
    (see `_param`) plus the seed scheme; the verdict passes when every
    case passes.  The suite keeps the body's name, docstring and
    signature."""

    def frame(body):
        sig = inspect.signature(body)

        @functools.wraps(body)
        def suite(*args, **kwargs) -> VerificationReport:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            arguments = bound.arguments
            _require({c: arguments[c] for c in counts}, **{k: arguments[k] for k in lists})
            t0 = time.perf_counter()
            cases = list(body(**arguments))
            params = {k: _param(v) for k, v in arguments.items()}
            params["seed_scheme"] = SEED_SCHEME
            verdict = "pass" if all(c["verdict"] == "pass" for c in cases) else "fail"
            return VerificationReport(name, params, cases, verdict, time.perf_counter() - t0)

        suite.__signature__ = sig.replace(return_annotation="VerificationReport")
        return suite

    return frame


# == suite: characterization =================================================


def _characterization(f, alphas):
    """Both sides of the identity for ``f``, per alpha: the oscillation
    norm (atom-fast), the measure norm of |increments|^2 (node-fast), the
    square root of the latter, and the relative gap between the two sides.
    Each side is one scan of its object for all alphas."""
    bmos = bmo_alpha_norms(f, alphas, "atom-fast")
    cars = carleson_alpha_norms(from_martingale(f), alphas, "node-fast")
    for alpha, bmo, car in zip(map(_check_alpha, alphas), bmos, cars):  # alphas as read
        lhs = float(np.sqrt(car.value))
        yield alpha, bmo, car, lhs, _rel(lhs, bmo.value)


@_suite("characterization", lists=("alphas", "dims"))
def check_characterization(
    trials: int = 200,
    alphas=(0.0, 0.25, 0.5, 0.9),
    seed: int = 0,
    depth_range=(1, 5),
    max_branch: int = 3,
    dims=(1, 3),
    tol: float = 1e-9,
):
    """Square root of the measure norm of |increments|^2 equals the
    oscillation norm of the martingale, over a random campaign.

    Fast paths on both sides; the increment measure realizes the exact
    orthogonality of increments, so the identity is exact at desk scale.
    The two single-atom scan forms are also compared here (1e-12), which
    keeps the definitional agreement covered on every instance.
    """
    for trial, ts in enumerate(_trial_seeds(seed, trials)):
        sub = _trial_seeds(ts, 2 + len(dims))
        pick = np.random.default_rng(sub[0])
        depth = int(pick.integers(depth_range[0], depth_range[1] + 1))
        tree = build_random(sub[1], depth, max_branch)
        for dim, mseed in zip(dims, sub[2:]):
            f = random_martingale(tree, mseed, dim)
            omegas = bmo_alpha_norms(f, alphas, "omega-form")
            for (alpha, bmo, car, lhs, residual), omega in zip(
                _characterization(f, alphas), omegas
            ):
                omega_residual = _rel(omega.value, bmo.value)
                ok = residual <= tol and omega_residual <= 1e-12
                yield {
                    "trial": trial,
                    "seed": ts,
                    "tree_seed": sub[1],
                    "depth": depth,
                    "max_branch": max_branch,
                    "dim": dim,
                    "mart_seed": mseed,
                    "alpha": alpha,
                    "p": None,
                    "lhs": lhs,
                    "rhs": bmo.value,
                    "carleson_value": car.value,
                    "omega_value": omega.value,
                    "residual": residual,
                    "omega_residual": omega_residual,
                    "witness": bmo.witness,
                    "verdict": "pass" if ok else "fail",
                }


def replay_characterization_case(case: dict) -> dict:
    """Recompute a characterization case from its recorded seeds.

    Returns the two norm values; they must match the record bit-for-bit.
    """
    tree = build_random(case["tree_seed"], case["depth"], case["max_branch"])
    f = random_martingale(tree, case["mart_seed"], case["dim"])
    _, bmo, car, _, _ = next(_characterization(f, [case["alpha"]]))
    return {"rhs": bmo.value, "carleson_value": car.value}


# == suite: stopping-time form of the norm ===================================


def _small_tree(
    search_seed: int, max_count: int, name: str
) -> tuple[FiltrationTree, int, int, int]:
    """A seeded random tree with at most ``max_count`` (the argument ``name``)
    stopping times, else dyadic depth 2 if it has no more: (tree, seed, depth, count)."""
    rng = np.random.default_rng(search_seed)
    for _ in range(64):
        tseed = int(rng.integers(0, 2**63))
        depth = int(rng.integers(1, 4))
        tree = build_random(tseed, depth, 2)
        if (count := count_stopping_times(tree)) <= max_count:
            return tree, tseed, depth, count
    tree = build_dyadic(2)
    if (count := count_stopping_times(tree)) > max_count:
        raise ValueError(f"{name} {max_count} admits no tree: 64 draws and dyadic depth 2 "
                         f"({count} stopping times) exceed it")
    return tree, -1, 2, count


@_suite("lemma-stopping-form")
def check_lemma_stopping_form(
    trials: int = 100,
    alphas=(0.0, 0.25, 0.5),
    seed: int = 1,
    max_count: int = 30,
    tol: float = 1e-10,
):
    """On trees small enough to enumerate, the stopping-time form of the
    oscillation norm equals the union brute force, and both fast scans
    match; the measure-norm fast path is checked against its own brute
    force on the same instances.  Witnesses are replayed to 1e-12."""
    for trial, ts in enumerate(_trial_seeds(seed, trials)):
        sub = _trial_seeds(ts, 3)
        tree, tseed, depth, n_tau = _small_tree(sub[0], max_count, "max_count")
        f = random_martingale(tree, sub[1], 1)
        mu = random_measure(tree, sub[2])
        bmo_norms = [bmo_alpha_norms(f, alphas, mode) for mode in
                 ("subset-bruteforce", "stopping-bruteforce", "atom-fast", "omega-form")]
        measure_alphas = [alpha for alpha in alphas if alpha < 1.0]
        measure_norms = iter(zip(
            carleson_alpha_norms(mu, measure_alphas, "node-fast"),
            carleson_alpha_norms(mu, measure_alphas, "stopping-bruteforce"),
        ))
        for alpha, subset, stopping, atom, omega in zip(map(_check_alpha, alphas), *bmo_norms):
            residual = _rel(stopping.value, subset.value)
            fast_residual = _rel(atom.value, subset.value)
            omega_residual = _rel(omega.value, atom.value)
            replay_residual = max(
                abs(replay_bmo_witness(f, alpha, r.witness) - r.value)
                for r in (subset, stopping, atom, omega)
            )
            if alpha < 1.0:
                car_fast, car_brute = next(measure_norms)
                car_residual = _rel(car_fast.value, car_brute.value)
            else:
                car_fast = car_brute = None
                car_residual = 0.0
            ok = (
                residual <= tol
                and fast_residual <= tol
                and omega_residual <= 1e-12
                and car_residual <= tol
                and replay_residual <= 1e-12 * max(1.0, subset.value)
            )
            yield {
                "trial": trial,
                "seed": ts,
                "tree_seed": tseed,
                "depth": depth,
                "stopping_times": n_tau,
                "alpha": alpha,
                "p": None,
                "lhs": stopping.value,
                "rhs": subset.value,
                "residual": residual,
                "fast_residual": fast_residual,
                "omega_residual": omega_residual,
                "replay_residual": replay_residual,
                "carleson_fast": None if car_fast is None else car_fast.value,
                "carleson_brute": None if car_brute is None else car_brute.value,
                "carleson_residual": car_residual,
                "witness_subset": subset.witness,
                "witness_stopping": stopping.witness,
                "verdict": "pass" if ok else "fail",
            }


# == suite: inequality and converse ==========================================


def _inequality_grid(tree, trial_seeds, ps, alphas, slack=1e-9):
    """The inequality grid on one random adapted process and measure per
    trial seed, all on ``tree`` and evaluated in batches: yields each
    seed's grid in order (`carleson._inequality_grids`).  Every p, every
    alpha and the slack are read first."""
    ps, alphas, slack = _check_grid(ps, alphas, slack)

    def draw(trial_seed):
        sub = _trial_seeds(trial_seed, 2)
        return random_adapted_process(tree, sub[0], 1), random_measure(tree, sub[1])

    return _inequality_batches(tree, map(draw, trial_seeds), ps, alphas, slack)


@_suite("carleson-inequality", counts=("trials", "converse_trials"), lists=("ps", "alphas"))
def check_carleson_inequality(
    trials: int = 500,
    ps=(1.5, 2.0, 3.0),
    alphas=(0.1, 0.25, 0.45),
    seed: int = 2,
    depth: int = 3,
    converse_trials: int = 20,
    converse_max_count: int = 26,
    slack: float = 1e-9,
    layer_tol: float = 1e-10,
):
    """Random adapted processes and measures against the inequality, plus
    the converse extraction on enumerable trees.

    The converse asserts three things per instance: the indicator's left
    side is the tent mass bitwise, the bound is satisfied at the measure
    norm, and shaving 1e-6 off the witness ratio flips the verdict."""
    dyadic_two = build_dyadic(2)  # every even converse trial's tree
    if (count := count_stopping_times(dyadic_two)) > converse_max_count:
        raise ValueError(f"converse_max_count {converse_max_count} admits no tree: the even "
                         f"trials run on dyadic depth 2 ({count} stopping times)")
    seeds = _trial_seeds(seed, trials)
    batches = _inequality_grid(build_dyadic(depth), seeds, ps, alphas, slack)
    for trial, (ts, grid) in enumerate(zip(seeds, batches)):
        for r in itertools.chain.from_iterable(grid):
            layer_residual = _rel(r.lhs, r.lhs_layer_cake)
            ok = r.holds and layer_residual <= layer_tol
            yield {
                "kind": "inequality",
                "trial": trial,
                "seed": ts,
                "depth": depth,
                "alpha": r.alpha,
                "p": r.p,
                "lhs": r.lhs,
                "rhs": r.rhs,
                "lhs_layer_cake": r.lhs_layer_cake,
                "residual": layer_residual,
                "carleson_norm": r.carleson_norm.value,
                "maximal_strong_norm": r.maximal_strong_norm,
                "maximal_weak_norm": r.maximal_weak_norm,
                "verdict": "pass" if ok else "fail",
            }
    grid = list(itertools.product(*_check_grid(ps, alphas, slack)[:2]))
    for j, ts in enumerate(_trial_seeds(seed + 1, converse_trials)):
        sub = _trial_seeds(ts, 2)
        if j % 2 == 0:
            ctree, tseed, cdepth = dyadic_two, -1, 2
        else:
            ctree, tseed, cdepth, _ = _small_tree(sub[0], converse_max_count, "converse_max_count")
        mu = random_measure(ctree, sub[1])
        p, alpha = grid[j % len(grid)]
        norm = carleson_alpha_norm(mu, alpha, "node-fast")
        conv = converse_extraction(mu, alpha, norm.value, p)
        reduced = converse_extraction(mu, alpha, conv["max_ratio"] - 1e-6, p)
        witness_residual = _rel(conv["max_ratio"], norm.value)
        ok = (
            conv["norm_bound_satisfied"]
            and conv["identity_exact"]
            and conv["maximal_identity"]
            and witness_residual <= 1e-10
            and not reduced["norm_bound_satisfied"]
        )
        yield {
            "kind": "converse",
            "trial": j,
            "seed": ts,
            "tree_seed": tseed,
            "depth": cdepth,
            "alpha": alpha,
            "p": p,
            "lhs": conv["max_ratio"],
            "rhs": norm.value,
            "residual": witness_residual,
            "stopping_times_checked": conv["stopping_times_checked"],
            "identity_exact": conv["identity_exact"],
            "maximal_identity": conv["maximal_identity"],
            "reduced_violated": not reduced["norm_bound_satisfied"],
            "witness": conv["witness"],
            "verdict": "pass" if ok else "fail",
        }


# == suite: operators ========================================================


def _predictable(tree: FiltrationTree, draw) -> PredictableSequence:
    """v_0 and then v_k on the level-(k-1) atoms, each from ``draw(size)`` in turn."""
    return PredictableSequence(
        tree, [draw(1)] + [draw(tree.atom_count(k - 1)) for k in range(1, tree.depth + 1)]
    )


@_suite("operators")
def check_operators(
    trials: int = 100,
    alphas=(0.0, 0.25, 0.5, 1.0),
    seed: int = 3,
    depth_range=(1, 4),
    max_branch: int = 3,
    tol: float = 1e-9,
):
    """Transform bound with equality in the constant-modulus case, lift
    isometry, square-function bound with constant 1 plus its pointwise
    reverse-triangle step, and the maximal function's pointwise laws.

    The oscillation-norm ratio of the maximal function is recorded per
    case but never asserted: no proof pins its constant down, so the
    empirical maximum is reported as data."""
    for trial, ts in enumerate(_trial_seeds(seed, trials)):
        sub = _trial_seeds(ts, 5)
        pick = np.random.default_rng(sub[0])
        depth = int(pick.integers(depth_range[0], depth_range[1] + 1))
        tree = build_random(sub[1], depth, max_branch)
        f = random_martingale(tree, sub[2], 1)
        rng = np.random.default_rng(sub[3])
        v = _predictable(tree, lambda n: rng.uniform(-2.0, 2.0, n))
        # random signs times one positive constant: |v_k| = c everywhere
        uni = np.random.default_rng(sub[3] ^ 1)
        c = float(uni.uniform(0.5, 2.0))
        v_uni = _predictable(tree, lambda n: c * np.where(uni.random(n) < 0.5, -1.0, 1.0))
        tf = transform(f, v)
        tf_uni = transform(f, v_uni)
        lift = l2_lift(f)
        sf = square_function(f)
        runmax = running_maximal(f)

        # Row n of a before table is the value one level up, 0 before level 0.
        s, u = _before_table(sf), _before_table(lift)
        triangle_ok = not np.any(np.abs(s[-1] - s) > _modulus(u[-1] - u) + 1e-12)
        m, x = _before_table(runmax), _before_table(f)
        maximal_ok = not (np.any(m < np.abs(x) - 1e-15) or np.any(m[1:] < m[:-1]))
        lam = float(np.random.default_rng(sub[4]).uniform(0.0, 1.2)) * float(
            np.max(runmax.level(depth))
        )
        tau = first_passage(f, lam)
        chi = np.where(tau.finite_mask(), 1.0, 0.0)
        indicator_ok = np.array_equal(maximal(indicator_process(tau)).values, chi)

        # One atom scan per process for all alphas; for the square function
        # and the running maximum it is the process norm's own scan.
        columns = zip(map(_check_alpha, alphas), *(
            [r.value for r in bmo_alpha_norms(g, alphas, "atom-fast")]
            for g in (f, tf, tf_uni, lift, sf, runmax)
        ))
        for alpha, nf, nt, nt_uni, nl, ns, nm in columns:
            bound = v.bound * nf
            transform_ok = nt <= bound + tol * max(1.0, bound)
            eq_residual = abs(nt_uni - c * nf)
            equality_ok = eq_residual <= tol * max(1.0, c * nf)
            lift_residual = abs(nl - nf)
            lift_ok = lift_residual <= tol * max(1.0, nf)
            square_ok = ns <= nf + tol * max(1.0, nf)
            maximal_ratio = nm / nf if nf > 0 else 0.0
            ok = (
                transform_ok
                and equality_ok
                and lift_ok
                and square_ok
                and triangle_ok
                and maximal_ok
                and indicator_ok
            )
            yield {
                "trial": trial,
                "seed": ts,
                "tree_seed": sub[1],
                "depth": depth,
                "alpha": alpha,
                "p": None,
                "lhs": ns,
                "rhs": nf,
                "residual": max(0.0, ns - nf),
                "transform_norm": nt,
                "transform_bound": bound,
                "transform_equality_residual": eq_residual,
                "unimodular_constant": c,
                "lift_residual": lift_residual,
                "square_norm": ns,
                "triangle_ok": triangle_ok,
                "maximal_pointwise_ok": maximal_ok,
                "maximal_indicator_ok": indicator_ok,
                "maximal_ratio": maximal_ratio,
                "verdict": "pass" if ok else "fail",
            }


# == campaign and bench ======================================================


@_suite("campaign", lists=("alphas", "depths"))
def campaign(alphas, depths, trials: int, seed: int = 0, ps=None, max_branch: int = 3):
    """Grid runner producing one case per (alpha[, p], depth, trial).

    Without ps: the characterization identity on a random martingale per
    cell.  With ps: the inequality on a random adapted process and
    measure per cell.
    """
    inequality = ps is not None and len(ps) > 0
    for depth in depths:
        seeds = _trial_seeds(seed + depth, trials)
        batches = _inequality_grid(build_dyadic(depth), seeds, ps, alphas) if inequality else None
        for trial, ts in enumerate(seeds):
            if inequality:
                cells = [
                    (r.alpha, r.p, r.lhs, r.rhs, max(0.0, r.lhs - r.rhs), r.holds)
                    for column in zip(*next(batches)) for r in column
                ]
            else:
                sub = _trial_seeds(ts, 2)
                f = random_martingale(build_random(sub[0], depth, max_branch), sub[1], 1)
                cells = [
                    (alpha, None, lhs, bmo.value, residual, residual <= 1e-9)
                    for alpha, bmo, _, lhs, residual in _characterization(f, alphas)
                ]
            for alpha, p, lhs, rhs, residual, ok in cells:
                yield {
                    "trial": trial,
                    "seed": ts,
                    "depth": depth,
                    "alpha": alpha,
                    "p": p,
                    "lhs": lhs,
                    "rhs": rhs,
                    "residual": residual,
                    "verdict": "pass" if ok else "fail",
                }


def bench(depths=(1, 2, 3), alpha: float = 0.25, seed: int = 0, repeats: int = 3) -> list:
    """Fast paths against brute force, minimum wall time over repeats."""
    _require({"repeats": repeats}, depths=depths)
    rows = []
    for depth in depths:
        tree = build_dyadic(depth)
        f = random_martingale(tree, seed + depth, 1)
        mu = from_martingale(f)
        jobs = [("bmo", bmo_alpha_norm, f, m) for m in BMO_MODES if m != "omega-form"]
        jobs += [("carleson", carleson_alpha_norm, mu, m) for m in CARLESON_MODES]
        for op, norm, obj, mode in jobs:
            seconds = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                value = norm(obj, alpha, mode).value
                seconds.append(time.perf_counter() - t0)
            rows.append(
                {"depth": depth, "op": op, "mode": mode, "seconds": min(seconds), "value": value}
            )
    return rows


SUITES = {
    "characterization": check_characterization,
    "lemma": check_lemma_stopping_form,
    "carleson-inequality": check_carleson_inequality,
    "operators": check_operators,
}

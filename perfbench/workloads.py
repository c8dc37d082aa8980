"""The three benchmark workloads.

Each workload is built from the package module and a seed (its set-up:
seeded input generation), then runs identical passes.  ``run_pass``
returns what the pass produced, with a small ``summary`` of phase timings
and sizes; ``check`` turns one pass's output into named pass/fail checks,
and ``metrics`` reduces the kept summaries to the workload's own
end-to-end figures.  Every call into the package goes through a module
attribute looked up at call time, so the tracer's wrappers see it.

``tiny=True`` shrinks every input so the self-check can run all three
workloads in seconds; the expected report hashes are only known at full
size, so tiny suites skip that check unless given hashes explicitly.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import statistics
import time

import numpy as np

# sha256 prefixes of to_json(comparison=True) at default arguments.
SUITE_HASHES = {
    "characterization": "7661c5f2d30d14bb",
    "lemma-stopping-form": "c8a935a82b29be0b",
    "carleson-inequality": "70601887d487fa1e",
    "operators": "bccf0fc2031001de",
}

# (metric suffix, verify function, keyword arguments of the tiny variant)
SUITES = (
    ("characterization", "check_characterization", {"trials": 3}),
    ("lemma", "check_lemma_stopping_form", {"trials": 3}),
    ("inequality", "check_carleson_inequality", {"trials": 3, "converse_trials": 2}),
    ("operators", "check_operators", {"trials": 3}),
)

ALPHAS = (0.1, 0.25, 0.45)
PS = (1.5, 2.0, 3.0)


def _rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else 0.0


def _med(values) -> float:
    return statistics.median(values)


class Suites:
    """The four verification suites at default arguments, then each
    report's comparison-mode JSON and CSV."""

    name = "suites"

    def __init__(self, bm, seed: int, tiny: bool = False):
        self.bm = bm
        self.kwargs = {key: (kw if tiny else {}) for key, _, kw in SUITES}
        self.expected = None if tiny else dict(SUITE_HASHES)
        self.replay_rng = np.random.default_rng(seed)
        self.replays = 2 if tiny else 8

    def run_pass(self, work: str) -> dict:
        phase = {}
        out = {"summary": phase, "reports": [], "texts": []}
        verify = self.bm.verify
        for key, fn, _ in SUITES:
            t0 = time.perf_counter()
            report = getattr(verify, fn)(**self.kwargs[key])
            phase[key] = time.perf_counter() - t0
            out["texts"].append(report.to_json(comparison=True))
            report.write_csv(os.path.join(work, f"{report.suite}.csv"))
            out["reports"].append(report)
        phase["cases"] = sum(len(r.cases) for r in out["reports"])
        return out

    def check(self, out: dict, work: str) -> list[tuple[str, bool]]:
        checks = []
        for report, text in zip(out["reports"], out["texts"]):
            digest = hashlib.sha256(text.encode()).hexdigest()[:16]
            if self.expected is not None:
                checks.append((f"hash {report.suite}", digest == self.expected[report.suite]))
            checks.append((f"verdict {report.suite}", report.verdict == "pass"))
            with open(os.path.join(work, f"{report.suite}.csv")) as fh:
                rows = sum(1 for _ in fh)
            checks.append((f"csv rows {report.suite}", rows == len(report.cases) + 1))
        cases = out["reports"][0].cases
        for i in self.replay_rng.choice(len(cases), size=self.replays, replace=False):
            case = cases[int(i)]
            again = self.bm.verify.replay_characterization_case(case)
            checks.append(
                (
                    f"replay characterization case {int(i)}",
                    again["rhs"] == case["rhs"]
                    and again["carleson_value"] == case["carleson_value"],
                )
            )
        return checks

    def metrics(self, summaries: list[dict], pass_s: list[float]) -> dict:
        m = {"cases_per_s": (_med(o["cases"] / s for o, s in zip(summaries, pass_s)), "1/s")}
        for key, _, _ in SUITES:
            m[f"suite.{key}_s"] = (_med(o[key] for o in summaries), "s")
        return m


class Oracle:
    """Brute-force oracles against the fast scans on enumerable trees."""

    name = "oracle"
    # Full size: four random trees with 2,000-2,200 stopping times each.
    # A narrow band keeps the work per pass nearly the same for every seed.
    FULL = {"trees": 4, "band": (2000, 2200), "dyadic": 3, "subset_dyadic": 4}
    TINY = {"trees": 1, "band": (20, 60), "dyadic": 2, "subset_dyadic": 2}
    MAX_WIDTH = 12  # atoms per level, so random-tree unions stay minor

    def __init__(self, bm, seed: int, tiny: bool = False):
        self.bm = bm
        cfg = self.TINY if tiny else self.FULL
        rng = np.random.default_rng(seed)
        lo, hi = cfg["band"]
        trees = []
        while len(trees) < cfg["trees"]:
            tseed = int(rng.integers(0, 2**63))
            depth = int(rng.integers(2, 5))
            tree = bm.build_random(tseed, depth, 3)
            if max(tree.atom_count(n) for n in range(depth + 1)) > self.MAX_WIDTH:
                continue
            if lo <= bm.count_stopping_times(tree) <= hi:
                trees.append(tree)
        trees.append(bm.build_dyadic(cfg["dyadic"]))
        self.instances = []
        for tree in trees:
            s = [int(x) for x in rng.integers(0, 2**63, size=2)]
            self.instances.append(
                {
                    "f": bm.random_martingale(tree, s[0]),
                    "mu": bm.random_measure(tree, s[1]),
                    "alpha": float(rng.choice(ALPHAS)),
                    "p": float(rng.choice(PS)),
                    "count": bm.count_stopping_times(tree),
                    "unions": self._unions(tree),
                }
            )
        tree = bm.build_dyadic(cfg["subset_dyadic"])
        self.subset_only = {
            "f": bm.random_martingale(tree, int(rng.integers(0, 2**63))),
            "alpha": float(rng.choice(ALPHAS)),
            "unions": self._unions(tree),
        }

    @staticmethod
    def _unions(tree) -> int:
        return sum(2 ** tree.atom_count(n) - 1 for n in range(tree.depth + 1))

    def run_pass(self, work: str) -> dict:
        norms, carleson = self.bm.norms, self.bm.carleson
        t_stop = t_subset = 0.0
        rows = []
        for inst in self.instances:
            f, mu, a = inst["f"], inst["mu"], inst["alpha"]
            t0 = time.perf_counter()
            bst = norms.bmo_alpha_norm(f, a, "stopping-bruteforce")
            cst = carleson.carleson_alpha_norm(mu, a, "stopping-bruteforce")
            t1 = time.perf_counter()
            bfast = norms.bmo_alpha_norm(f, a, "atom-fast")
            cfast = carleson.carleson_alpha_norm(mu, a, "node-fast")
            t2 = time.perf_counter()
            conv = carleson.converse_extraction(mu, a, cfast.value, inst["p"])
            t3 = time.perf_counter()
            sub = norms.bmo_alpha_norm(f, a, "subset-bruteforce")
            t4 = time.perf_counter()
            t_stop += (t1 - t0) + (t3 - t2)
            t_subset += t4 - t3
            rows.append({"bst": bst, "cst": cst, "bfast": bfast, "cfast": cfast,
                         "conv": conv, "sub": sub})
        so = self.subset_only
        t0 = time.perf_counter()
        sub = norms.bmo_alpha_norm(so["f"], so["alpha"], "subset-bruteforce")
        t_subset += time.perf_counter() - t0
        fast = norms.bmo_alpha_norm(so["f"], so["alpha"], "atom-fast")
        return {"rows": rows, "subset_only": (sub, fast),
                "summary": {"stopping": t_stop, "subset": t_subset}}

    def check(self, out: dict, work: str) -> list[tuple[str, bool]]:
        norms, carleson = self.bm.norms, self.bm.carleson
        checks = []
        for i, (inst, r) in enumerate(zip(self.instances, out["rows"])):
            f, mu, a = inst["f"], inst["mu"], inst["alpha"]
            bst, cst, bfast, cfast, conv, sub = (
                r["bst"], r["cst"], r["bfast"], r["cfast"], r["conv"], r["sub"]
            )
            checks += [
                (f"tree {i} bmo stopping vs atom-fast", _rel(bst.value, bfast.value) <= 1e-10),
                (f"tree {i} bmo subset vs atom-fast", _rel(sub.value, bfast.value) <= 1e-10),
                (f"tree {i} carleson stopping vs node-fast", _rel(cst.value, cfast.value) <= 1e-10),
                (f"tree {i} converse max vs node-fast", _rel(conv["max_ratio"], cfast.value) <= 1e-10),
                (f"tree {i} converse bound at the norm", conv["norm_bound_satisfied"]),
                (f"tree {i} converse identity_exact", conv["identity_exact"]),
                (f"tree {i} converse maximal_identity", conv["maximal_identity"]),
                (f"tree {i} converse checked every time", conv["stopping_times_checked"] == inst["count"] - 1),
            ]
            for label, res in (("bmo stopping", bst), ("bmo subset", sub)):
                replay = norms.replay_bmo_witness(f, a, res.witness)
                checks.append((f"tree {i} {label} witness replay",
                               abs(replay - res.value) <= 1e-12 * max(1.0, res.value)))
            for label, value, stops in (
                ("carleson stopping", cst.value, cst.witness["stops"]),
                ("converse", conv["max_ratio"], conv["witness"]["stops"]),
            ):
                replay = carleson.carleson_ratio_at(mu, a, stops)
                checks.append((f"tree {i} {label} witness replay", _rel(replay, value) <= 1e-12))
        sub, fast = out["subset_only"]
        checks.append(("subset dyadic vs atom-fast", _rel(sub.value, fast.value) <= 1e-10))
        return checks

    def metrics(self, summaries: list[dict], pass_s: list[float]) -> dict:
        scored = 3 * sum(inst["count"] for inst in self.instances)
        unions = sum(inst["unions"] for inst in self.instances) + self.subset_only["unions"]
        return {
            "stopping_times_per_s": (_med(scored / o["stopping"] for o in summaries), "1/s"),
            "unions_per_s": (_med(unions / o["subset"] for o in summaries), "1/s"),
        }


class Bigtree:
    """Few calls on large arrays: tree/v1 round trips, process generation,
    the fast scans and operators, and the CLI pipeline."""

    name = "bigtree"
    # Full size: build_dyadic(16) (65,536 leaves) and two seeded random
    # trees of 1,800-4,200 leaves, the pair out of twelve candidates whose
    # total is closest to 6,000.  A fixed candidate count keeps set-up cost,
    # and the total keeps the work per pass, nearly the same for every seed.
    # The CLI pipeline runs on the random trees only: at depth 16 it takes
    # about 20 s, most of it inlining the tree into every document.
    FULL = {"dyadic": 16, "random": 2, "depth": 12, "leaves": 3000, "candidates": 12}
    TINY = {"dyadic": 4, "random": 1, "depth": 4, "leaves": 20, "candidates": 3}
    MAX_BRANCH = 3

    def __init__(self, bm, seed: int, tiny: bool = False):
        self.bm = bm
        cfg = self.TINY if tiny else self.FULL
        rng = np.random.default_rng(seed)
        target = cfg["leaves"]
        eligible = []
        drawn = 0
        while drawn < cfg["candidates"] or len(eligible) < cfg["random"]:
            drawn += 1
            tseed = int(rng.integers(0, 2**63))
            try:
                # The atom cap abandons oversized candidates early.
                tree = bm.build_random(tseed, cfg["depth"], self.MAX_BRANCH,
                                       max_atoms=3 * target)
            except bm.SizeCapError:
                continue
            if 0.6 * target <= tree.num_leaves <= 1.4 * target:
                eligible.append((tree.num_leaves, tseed))
        best = min(
            itertools.combinations(eligible, cfg["random"]),
            key=lambda pick: abs(sum(n for n, _ in pick) - target * cfg["random"]),
        )
        specs = [("dyadic", cfg["dyadic"], None)] + [
            ("random", cfg["depth"], tseed) for _, tseed in best
        ]
        self.instances = []
        for kind, depth, tseed in specs:
            tree = self._build(kind, depth, tseed)
            coeffs = [rng.uniform(-2.0, 2.0, 1)] + [
                rng.uniform(-2.0, 2.0, tree.atom_count(k - 1)) for k in range(1, depth + 1)
            ]
            self.instances.append(
                {
                    "kind": kind,
                    "depth": depth,
                    "tree_seed": tseed,
                    "tree": tree,
                    "v": bm.PredictableSequence(tree, coeffs),
                    "mart_seed": int(rng.integers(0, 2**31)),
                    "proc_seed": int(rng.integers(0, 2**31)),
                    "alpha": float(rng.choice(ALPHAS)),
                    "lam": float(rng.uniform(0.2, 1.0)),
                }
            )
        self.byte_checked = False

    def _build(self, kind: str, depth: int, tseed):
        if kind == "dyadic":
            return self.bm.filtration.build_dyadic(depth)
        return self.bm.filtration.build_random(tseed, depth, self.MAX_BRANCH)

    def run_pass(self, work: str) -> dict:
        bm = self.bm
        t_rt = t_cli = 0.0
        leaves = 0
        rows = []
        for i, inst in enumerate(self.instances):
            t0 = time.perf_counter()
            tree = self._build(inst["kind"], inst["depth"], inst["tree_seed"])
            text = tree.to_json()
            back = bm.filtration.FiltrationTree.from_dict(json.loads(text))
            t_rt += time.perf_counter() - t0
            leaves += back.num_leaves
            a = inst["alpha"]
            f = bm.process.random_martingale(back, inst["mart_seed"])
            g = bm.process.random_adapted_process(back, inst["proc_seed"])
            mu = bm.carleson.from_martingale(f)
            atom = bm.norms.bmo_alpha_norm(f, a, "atom-fast")
            omega = bm.norms.bmo_alpha_norm(f, a, "omega-form")
            car = bm.carleson.carleson_alpha_norm(mu, a, "node-fast")
            bm.norms.process_bmo_alpha_norm(g, a)
            mg = bm.operators.maximal(g)
            strong = bm.norms.lp_norm(mg, 1.0 / (2.0 * a))
            weak = bm.norms.weak_lq_norm(mg, 1.0 / (2.0 * a))
            bm.operators.transform(f, inst["v"])  # its constructor checks the martingale property
            lift = bm.operators.l2_lift(f)
            sf = bm.operators.square_function(f)
            runmax = bm.operators.running_maximal(f)
            lam = inst["lam"] * float(np.max(runmax.level(back.depth)))
            tau = bm.stopping.first_passage(f, lam)
            row = {
                "tree": tree, "back": back, "text": text, "atom": atom, "omega": omega,
                "car": car, "strong": strong, "weak": weak, "f": f,
                "lift": lift, "sf": sf, "runmax": runmax, "lam": lam, "tau": tau,
            }
            if inst["kind"] == "random":
                t1 = time.perf_counter()
                row["cli"] = self._cli(inst, mu, os.path.join(work, f"cli-{i}"))
                t_cli += time.perf_counter() - t1 - row["cli"]["untimed_s"]
            rows.append(row)
        return {"rows": rows, "summary": {"roundtrip": t_rt, "cli": t_cli, "leaves": leaves}}

    def _cli(self, inst: dict, mu, prefix: str) -> dict:
        main = self.bm.cli.main
        paths = {k: f"{prefix}-{k}.json" for k in ("tree", "mart", "measure")}
        a = str(inst["alpha"])
        rcs = []

        def run(argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rcs.append(main(argv))
            return buf.getvalue()

        run(["gen-tree", "--depth", str(inst["depth"]), "--random", "--seed",
             str(inst["tree_seed"]), "--max-branch", str(self.MAX_BRANCH),
             "--out", paths["tree"]])
        run(["gen-martingale", "--tree", paths["tree"], "--seed", str(inst["mart_seed"]),
             "--out", paths["mart"]])
        norm_out = run(["norm", paths["mart"], "--alpha", a])
        # The CLI has no measure generator: write the document in-process,
        # outside the timed CLI share.
        t0 = time.perf_counter()
        mu.save(paths["measure"])
        untimed = time.perf_counter() - t0
        car_out = run(["carleson-norm", paths["measure"], "--alpha", a])
        return {"rcs": rcs, "norm": norm_out, "carleson": car_out,
                "tree_path": paths["tree"], "untimed_s": untimed}

    def check(self, out: dict, work: str) -> list[tuple[str, bool]]:
        checks = []
        for inst, r in zip(self.instances, out["rows"]):
            tag = f"{inst['kind']} {r['back'].num_leaves} leaves"
            checks.append((f"{tag} round trip equal tree", r["back"] == r["tree"]))
            if not self.byte_checked:
                # One byte comparison per run: a second to_json at depth 16
                # costs as much as the round trip itself.
                checks.append((f"{tag} round trip bytes", r["back"].to_json() == r["text"]))
            atom, omega = r["atom"].value, r["omega"].value
            d, w = inst["depth"], r["back"].leaf_masses
            f_final, s_final, m_final = r["f"].level(d), r["sf"].level(d), r["runmax"].level(d)
            lift_mod = np.sqrt(np.sum(r["lift"].level(d) ** 2, axis=1))
            checks += [
                (f"{tag} omega-form vs atom-fast", _rel(omega, atom) <= 1e-12),
                (f"{tag} characterization identity", _rel(math.sqrt(r["car"].value), atom) <= 1e-9),
                (f"{tag} square function final L2",
                 _rel(float(np.sum(s_final**2 * w)), float(np.sum(f_final**2 * w))) <= 1e-9),
                (f"{tag} lift modulus is the square function",
                 bool(np.allclose(lift_mod, s_final, rtol=1e-12, atol=0.0))),
                (f"{tag} running maximum dominates", bool(np.all(m_final >= np.abs(f_final)))),
                (f"{tag} first passage stops where the maximum exceeds",
                 bool(np.array_equal(r["tau"].finite_mask(), m_final > r["lam"]))),
                (f"{tag} weak norm below strong", r["weak"] <= r["strong"] * (1 + 1e-12)),
            ]
            cli = r.get("cli")
            if cli is not None:
                checks.append((f"{tag} cli exit codes", cli["rcs"] == [0, 0, 0, 0]))
                with open(cli["tree_path"]) as fh:
                    checks.append((f"{tag} cli tree bytes", fh.read() == r["text"] + "\n"))
                checks.append((f"{tag} cli norm bitwise",
                               json.loads(cli["norm"])["value"] == atom))
                checks.append((f"{tag} cli carleson-norm bitwise",
                               json.loads(cli["carleson"])["value"] == r["car"].value))
        self.byte_checked = True
        return checks

    def metrics(self, summaries: list[dict], pass_s: list[float]) -> dict:
        return {
            "roundtrip_leaves_per_s": (_med(o["leaves"] / o["roundtrip"] for o in summaries), "1/s"),
            "cli_s": (_med(o["cli"] for o in summaries), "s"),
        }


WORKLOADS = {w.name: w for w in (Suites, Oracle, Bigtree)}

"""Self-check of the benchmark at tiny size.

    python3 perfbench/selfcheck.py

Runs every workload on tiny inputs, untraced and traced, and checks that
each run emits exactly the metrics BENCHMARK.json declares, with their
units, and that every correctness check holds.  Then it plants a wrong
expected report hash (suites), a wrong brute-force residual (oracle) and
a one-ulp difference in an in-process norm (bigtree), and checks that
each is counted in ``failed`` and turns ``correct`` false rather than
being hidden.  Exits 0 when all of that holds, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import numpy as np

import run as bench
import workloads


class WrongHash(workloads.Suites):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.expected = {suite: "0" * 16 for suite in workloads.SUITE_HASHES}


class WrongResidual(workloads.Oracle):
    def run_pass(self, work):
        out = super().run_pass(work)
        row = out["rows"][0]
        row["bst"] = dataclasses.replace(row["bst"], value=row["bst"].value * (1 + 1e-9))
        return out


class OneUlpOff(workloads.Bigtree):
    def run_pass(self, work):
        out = super().run_pass(work)
        for row in out["rows"]:
            if "cli" in row:
                atom = row["atom"]
                row["atom"] = dataclasses.replace(atom, value=float(np.nextafter(atom.value, np.inf)))
        return out


# workload -> (faulty class, a label every failed check must contain)
FAULTS = {
    "suites": (WrongHash, "hash "),
    "oracle": (WrongResidual, "tree 0 bmo stopping"),
    "bigtree": (OneUlpOff, "cli norm bitwise"),
}


def declared() -> dict[str, dict[str, str]]:
    doc = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    return {
        key: {m["name"]: m["unit"] for m in doc[key]} for key in ("end_to_end", "per_layer")
    }


def main() -> int:
    want = declared()
    problems = []
    for name in bench.NAMES:
        for trace in (False, True):
            r = bench.run_workload(name, seed=7, seconds=0, trace=trace, tiny=True)
            doc = json.loads(bench.result_json(r))
            expect = want["per_layer" if trace else "end_to_end"]
            got = {k: v["unit"] for k, v in doc["metrics"].items()}
            tag = f"{name} trace={int(trace)}"
            if got != expect:
                problems.append(
                    f"{tag}: metrics differ from BENCHMARK.json: "
                    f"missing {sorted(set(expect) - set(got))}, "
                    f"extra {sorted(set(got) - set(expect))}, "
                    f"units {sorted(k for k in got if k in expect and got[k] != expect[k])}"
                )
            if not doc["correct"] or doc["failed"] or doc["attempted"] < 1:
                problems.append(f"{tag}: checks failed at tiny size: {r['failures'][:5]}")
            print(f"{tag}: {len(got)} metrics, {doc['attempted']} checks, {doc['failed']} failed")

        faulty, label = FAULTS[name]
        honest = workloads.WORKLOADS[name]
        workloads.WORKLOADS[name] = faulty
        try:
            r = bench.run_workload(name, seed=7, seconds=0, trace=False, tiny=True)
        finally:
            workloads.WORKLOADS[name] = honest
        doc = json.loads(bench.result_json(r))
        caught = doc["failed"] > 0 and not doc["correct"]
        if not caught or not all(label in f for f in r["failures"]):
            problems.append(f"{name}: planted fault not counted as expected: {r['failures'][:5]}")
        print(f"{name} with {faulty.__name__}: {doc['failed']} of {doc['attempted']} checks failed")

    for p in problems:
        print(f"PROBLEM: {p}")
    print("selfcheck: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""bmolab benchmark: one workload per process, end-to-end metrics with
tracing off, per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload suites --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from anywhere inside a checkout that holds ``src/bmolab``; the package
is imported from that source tree, never from an installed copy.  A run
sets up its inputs from ``--seed`` and then repeats one pass of the
workload until ``--seconds`` have elapsed; the first pass is a warm-up
and is checked but not timed.  Every pass's outputs are checked, and
``failed`` counts the checks that did not hold.

``--trace 0`` reports ``setup_s`` (median over fresh set-ups in child
processes: import plus seeded input generation), ``wall_s`` (median
seconds per pass) and ``peak_rss_mb`` (this process).  ``--trace 1``
spends half the time untraced and half with the layer wrappers of
``tracing.py`` installed, and reports per-layer self times, call counts
and counters as medians over the traced passes, plus the tracing
overhead.  The last line of standard output is the JSON result; the
lines before it list every metric with its unit and sample count.
``--workload all`` runs every workload, traced and untraced, each in its
own process.
"""

from __future__ import annotations

import os

# One process, no helper threads: the load generator is the program itself.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACES = ROOT / ".perfbench_out"

NAMES = ("suites", "oracle", "bigtree")
SETUP_PROBES = {"suites": 7, "oracle": 5, "bigtree": 3}
MIN_PASSES = 2  # timed passes after the warm-up, per phase
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, failed child)."""


def import_bmolab():
    if not (SRC / "bmolab" / "__init__.py").is_file():
        raise BenchError(f"no bmolab source tree under {SRC}")
    sys.path.insert(0, str(SRC))
    import bmolab
    import bmolab.cli  # not imported by the package root

    if Path(bmolab.__file__).resolve().parent != SRC / "bmolab":
        raise BenchError(f"imported bmolab from {bmolab.__file__}, not from {SRC}")
    return bmolab


def environment() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def tail_percentile(samples: list[float]):
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    q = int(100 * (1 - 10 / n))
    return q, statistics.quantiles(samples, n=100)[q - 1]


def _child(argv: list[str], timeout: float = CHILD_TIMEOUT_S) -> str:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *argv],
        capture_output=True, text=True, timeout=timeout, cwd=str(ROOT),
    )
    if proc.returncode != 0:
        raise BenchError(f"child {argv} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def probe_setup(name: str, seed: int) -> float:
    """Import plus seeded input generation, in a fresh interpreter."""
    t0 = time.perf_counter()
    bm = import_bmolab()
    from workloads import WORKLOADS

    WORKLOADS[name](bm, seed)
    return time.perf_counter() - t0


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Set up, run timed passes, check every pass; return the result."""
    t0 = time.perf_counter()
    bm = import_bmolab()
    from workloads import WORKLOADS

    setups: list[float] = []
    if not trace and not tiny:
        # Before this process builds its own inputs, so two large input
        # sets never sit in memory at once.
        for _ in range(SETUP_PROBES[name]):
            out = _child(["--workload", name, "--seed", str(seed), "--setup-probe"])
            setups.append(json.loads(out.strip().splitlines()[-1])["setup_s"])
        t0 = time.perf_counter()
    wl = WORKLOADS[name](bm, seed, tiny=tiny)
    if not setups:
        setups = [time.perf_counter() - t0]

    work = WORK / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tally = {"attempted": 0, "failed": 0, "failures": []}
    tracer = None
    next_pass = [0]

    def one_pass() -> tuple[float, dict]:
        next_pass[0] += 1
        if tracer is not None:
            tracer.pass_id = next_pass[0]
        t = time.perf_counter()
        out = wl.run_pass(str(work))
        dt = time.perf_counter() - t
        if tracer is not None:
            tracer.pass_id = None
            tracer.end_pass()
        for label, ok in wl.check(out, str(work)):
            tally["attempted"] += 1
            if not ok:
                tally["failed"] += 1
                tally["failures"].append(label)
        return dt, out["summary"]

    def timed_passes(budget: float) -> tuple[list[float], list[dict], list[int]]:
        start = time.perf_counter()
        walls, summaries, ids = [], [], []
        while len(walls) < MIN_PASSES or time.perf_counter() - start < budget:
            dt, summary = one_pass()
            walls.append(dt)
            summaries.append(summary)
            ids.append(next_pass[0])
        return walls, summaries, ids

    try:
        start = time.perf_counter()
        one_pass()  # warm-up: checked, not timed
        budget = seconds / 2 if trace else seconds
        walls, summaries, _ = timed_passes(budget - (time.perf_counter() - start))
        result = {
            "workload": name,
            "seed": seed,
            "trace": int(trace),
            "walls": walls,
            "setups": setups,
        }
        if trace:
            import tracing as tr

            tracer = tr.Tracer()
            tracer.install()
            try:
                twalls, _, ids = timed_passes(seconds / 2)
            finally:
                tracer.uninstall()
            per_pass = [tracer.pass_totals(i) for i in ids]
            for p, dt in zip(per_pass, twalls):
                p["trace.coverage"] = p.pop("trace.layer_s") / dt
            layer = tr.median_over_passes(per_pass)
            layer["trace.overhead_s"] = statistics.median(twalls) - statistics.median(walls)
            units = tr.per_layer_units()
            result["metrics"] = {k: (layer[k], units[k]) for k in units}
            result["traced_walls"] = twalls
            TRACES.mkdir(exist_ok=True)
            spans_path = TRACES / f"trace-{name}-seed{seed}.csv"
            tracer.write_csv(str(spans_path))
            result["spans_path"] = str(spans_path)
            result["spans"] = len(tracer.spans)
        else:
            result["metrics"] = {
                "setup_s": (statistics.median(setups), "s"),
                "wall_s": (statistics.median(walls), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            result["workload_metrics"] = wl.metrics(summaries, walls)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    result.update(tally)
    return result


def print_report(r: dict) -> None:
    a, f = r["attempted"], r["failed"]
    print(f"workload {r['workload']}  seed {r['seed']}  trace {r['trace']}")
    walls = r["walls"]
    tail = tail_percentile(walls)
    tail_text = (f"p{tail[0]} {tail[1]:.6g} s" if tail
                 else "no percentile has 10 samples beyond it")
    print(f"  passes timed: {len(walls)} untraced"
          + (f", {len(r['traced_walls'])} traced" if r["trace"] else "")
          + f"; {tail_text}")
    rows = [(k, v, u) for k, (v, u) in r["metrics"].items()]
    rows += [(k, v, u) for k, (v, u) in r.get("workload_metrics", {}).items()]
    rows.append(("failed_ratio", f / a if a else 0.0, "ratio"))
    n_of = {"setup_s": len(r["setups"]), "peak_rss_mb": 1, "failed_ratio": a}
    n_default = len(r["traced_walls"]) if r["trace"] else len(walls)
    for k, v, u in rows:
        print(f"  {k:<58} {v:>16.6g} {u:<6} n={n_of.get(k, n_default)}")
    if r["trace"]:
        print(f"  spans: {r['spans']} written to {r['spans_path']}")
    for label in r["failures"][:20]:
        print(f"  FAILED: {label}")


def result_json(r: dict) -> str:
    return json.dumps(
        {
            "correct": r["failed"] == 0,
            "attempted": r["attempted"],
            "failed": r["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in r["metrics"].items()},
        }
    )


def run_all(seed: int, seconds: float) -> int:
    env = environment()
    print("environment: " + "  ".join(f"{k} {v}" for k, v in env.items()))
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        for trace in (0, 1):
            lines = _child(["--workload", name, "--seed", str(seed),
                            "--seconds", str(seconds), "--trace", str(trace)],
                           timeout=8 * seconds + 300).splitlines()
            print("\n".join(l for l in lines[:-1] if not l.startswith("environment:")))
            doc = json.loads(lines[-1])
            total["correct"] = total["correct"] and doc["correct"]
            total["attempted"] += doc["attempted"]
            total["failed"] += doc["failed"]
            for k, v in doc["metrics"].items():
                total["metrics"][f"{name}.{k}"] = v
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": probe_setup(args.workload, args.seed)}))
            return 0
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        r = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print("environment: " + "  ".join(f"{k} {v}" for k, v in environment().items()))
    print_report(r)
    print(result_json(r))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

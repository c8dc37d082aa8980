"""Spans around the public functions of each bmolab module, installed from
outside the package.

The package imports with ``from .x import y``, so a function is reachable
under several names: ``bmolab.carleson.maximal`` and
``bmolab.operators.maximal`` are the same object.  ``Tracer.install``
replaces the function under every name bound in a ``bmolab`` module,
which also catches calls made inside the defining module, and
``Tracer.uninstall`` puts the originals back.

Each span records its name, start, end, parent span and pass id.  Spans
are kept in memory and written out by ``Tracer.write_csv``.  A span's
self time is its duration minus the time its child spans cover; spans
nest strictly because the benchmark runs on one thread.

Which end-to-end figure each layer metric should move, and where:

- filtration build_random: suite.characterization_s, suite.operators_s
  (suites), wall_s (bigtree); build_dyadic, to_dict, to_json, from_dict,
  atoms_built, json_bytes: roundtrip_leaves_per_s, cli_s, setup_s (bigtree).
- process: suite.characterization_s (suites), wall_s (bigtree).
- stopping enumerate_stopping_times, enumerated: stopping_times_per_s
  (oracle); count_stopping_times calls: suite.lemma_s; first_passage:
  suite.operators_s.
- norms atom-fast, omega-form: suite.characterization_s,
  suite.operators_s, wall_s (bigtree); stopping-bruteforce:
  stopping_times_per_s, suite.lemma_s; subset-bruteforce, unions_scanned:
  unions_per_s; lp_norm, weak_lq_norm: suite.inequality_s;
  replay_bmo_witness, process_bmo_alpha_norm: suite.lemma_s,
  suite.operators_s.
- carleson node-fast and its distinct_ratio, carleson_inequality_check:
  suite.inequality_s; stopping-bruteforce, converse_extraction:
  stopping_times_per_s; from_martingale, random_measure:
  suite.characterization_s.
- operators maximal and its distinct_ratio: suite.inequality_s; transform,
  l2_lift, square_function, running_maximal: suite.operators_s, wall_s
  (bigtree).
- verify self_s, report_to_json, write_csv: wall_s, cases_per_s (suites).
- cli.main per command: cli_s (bigtree).
"""

from __future__ import annotations

import csv
import functools
import inspect
import statistics
import sys
import time
from collections import defaultdict

# (module, function or Class.method, span name).  The four suites share
# the span "verify": its self time is suite bookkeeping not covered by a
# child span.
WRAPPED = (
    ("filtration", "build_random", "filtration.build_random"),
    ("filtration", "build_dyadic", "filtration.build_dyadic"),
    ("filtration", "FiltrationTree.to_dict", "filtration.to_dict"),
    ("filtration", "FiltrationTree.to_json", "filtration.to_json"),
    ("filtration", "FiltrationTree.from_dict", "filtration.from_dict"),
    ("process", "random_martingale", "process.random_martingale"),
    ("process", "random_adapted_process", "process.random_adapted_process"),
    ("process", "martingale_from_final", "process.martingale_from_final"),
    ("stopping", "enumerate_stopping_times", "stopping.enumerate_stopping_times"),
    ("stopping", "count_stopping_times", "stopping.count_stopping_times"),
    ("stopping", "first_passage", "stopping.first_passage"),
    ("norms", "bmo_alpha_norm", "norms.bmo_alpha_norm"),
    ("norms", "lp_norm", "norms.lp_norm"),
    ("norms", "weak_lq_norm", "norms.weak_lq_norm"),
    ("norms", "replay_bmo_witness", "norms.replay_bmo_witness"),
    ("norms", "process_bmo_alpha_norm", "norms.process_bmo_alpha_norm"),
    ("carleson", "carleson_alpha_norm", "carleson.carleson_alpha_norm"),
    ("carleson", "carleson_inequality_check", "carleson.carleson_inequality_check"),
    ("carleson", "converse_extraction", "carleson.converse_extraction"),
    ("carleson", "from_martingale", "carleson.from_martingale"),
    ("carleson", "random_measure", "carleson.random_measure"),
    ("operators", "maximal", "operators.maximal"),
    ("operators", "transform", "operators.transform"),
    ("operators", "l2_lift", "operators.l2_lift"),
    ("operators", "square_function", "operators.square_function"),
    ("operators", "running_maximal", "operators.running_maximal"),
    ("verify", "check_characterization", "verify"),
    ("verify", "check_lemma_stopping_form", "verify"),
    ("verify", "check_carleson_inequality", "verify"),
    ("verify", "check_operators", "verify"),
    ("verify", "VerificationReport.to_json", "verify.report_to_json"),
    ("verify", "VerificationReport.write_csv", "verify.write_csv"),
    ("cli", "main", "cli.main"),
)

# Span names split by an argument: the norm mode, the CLI subcommand.
SPLIT = {
    "norms.bmo_alpha_norm": ("atom-fast", "omega-form", "subset-bruteforce", "stopping-bruteforce"),
    "carleson.carleson_alpha_norm": ("node-fast", "stopping-bruteforce"),
    "cli.main": ("gen-tree", "gen-martingale", "norm", "carleson-norm"),
}
ENUM = "stopping.enumerate_stopping_times"
COUNTERS = (
    "filtration.atoms_built",
    "filtration.json_bytes",
    "stopping.enumerated",
    "norms.unions_scanned",
)
# Distinct arguments / calls: below 1 when the same work is requested twice.
DISTINCT = ("carleson.carleson_alpha_norm.node-fast", "operators.maximal")


def _span_names() -> list[str]:
    names = []
    for _, _, span in WRAPPED:
        for name in [f"{span}.{s}" for s in SPLIT[span]] if span in SPLIT else [span]:
            if name not in names:
                names.append(name)
    return names


SPAN_NAMES = _span_names()


def unit_of(metric: str) -> str:
    if metric.endswith(("self_s", ".s", "overhead_s")):
        return "s"
    if metric.endswith(("distinct_ratio", "coverage")):
        return "ratio"
    if metric.endswith("json_bytes"):
        return "bytes"
    return "count"


class Tracer:
    """In-memory span recorder with per-pass counters."""

    def __init__(self) -> None:
        # (span id, name, start, end, parent id, pass id, self seconds)
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span id, name, start, child seconds]
        self._next_id = 0
        self.pass_id: int | None = None
        self.counts: dict[tuple, float] = defaultdict(float)
        self._distinct: dict[tuple, set] = defaultdict(set)
        self._keep: list = []  # keeps arguments alive so their id() stays unique
        self._patches: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])

    def end(self) -> None:
        end = time.perf_counter()
        sid, name, start, child = self._stack.pop()
        dur = end - start
        parent = None
        if self._stack:
            self._stack[-1][3] += dur
            parent = self._stack[-1][0]
        self.spans.append((sid, name, start, end, parent, self.pass_id, dur - child))

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[(self.pass_id, name)] += amount

    def distinct(self, name: str, key: tuple, keep) -> None:
        self._distinct[(self.pass_id, name)].add(key)
        self._keep.append(keep)

    def end_pass(self) -> None:
        self._keep.clear()

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        import bmolab

        modules = [m for n, m in sys.modules.items() if n == "bmolab" or n.startswith("bmolab.")]
        for layer, qual, span in WRAPPED:
            home = getattr(bmolab, layer)
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    self._patch(cls, meth, classmethod(self._wrapper(span, raw.__func__)))
                else:
                    self._patch(cls, meth, self._wrapper(span, raw))
                continue
            orig = getattr(home, qual)
            wrapped = self._wrapper(span, orig)
            for mod in modules:
                if mod.__dict__.get(qual) is orig:
                    self._patch(mod, qual, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def _patch(self, owner, attr: str, wrapped) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def _wrapper(self, span: str, fn):
        if span == ENUM:
            return self._generator_wrapper(fn)
        after = _AFTER.get(span)
        if span == "cli.main":

            def namer(args, kwargs):
                return f"{span}.{(args[0] if args else kwargs['argv'])[0]}"
        elif span in SPLIT:
            default = inspect.signature(fn).parameters["mode"].default

            def namer(args, kwargs):
                return f"{span}.{args[2] if len(args) > 2 else kwargs.get('mode', default)}"
        else:

            def namer(args, kwargs):
                return span

        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = namer(args, kwargs)
            tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end()
            if after is not None:
                after(tracer, name, args, result)
            return result

        return traced

    def _generator_wrapper(self, fn):
        """Time the generator alone: one span per next(), none for the
        consumer's loop body, so enumeration is separated from scoring."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            tracer.count(ENUM + ".calls")

            def drain():
                while True:
                    tracer.begin(ENUM)
                    try:
                        tau = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer.end()
                    tracer.count("stopping.enumerated")
                    yield tau

            return drain()

        return traced

    # -- reporting -----------------------------------------------------------

    def pass_totals(self, pass_id: int) -> dict[str, float]:
        """Per-layer metrics of one pass, zero for layers it never entered.

        ``trace.layer_s`` is the sum of every span's self time: the part of
        the pass spent inside the package."""
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for _, name, start, end, _, pid, own in self.spans:
            if pid == pass_id:
                self_s[name] += own
                total_s[name] += end - start
                calls[name] += 1
        # Its spans are next() calls; count the enumerations started instead.
        calls[ENUM] = int(self.counts.get((pass_id, ENUM + ".calls"), 0))
        out = {}
        for name in SPAN_NAMES:
            if name.startswith("cli.main."):
                out[f"{name}.s"] = total_s[name]
            elif name.startswith("verify"):
                out[f"{name}.self_s"] = self_s[name]
            else:
                out[f"{name}.self_s"] = self_s[name]
                out[f"{name}.calls"] = calls[name]
        for name in COUNTERS:
            out[name] = self.counts.get((pass_id, name), 0)
        for name in DISTINCT:
            n = calls[name]
            out[f"{name}.distinct_ratio"] = len(self._distinct[(pass_id, name)]) / n if n else 0.0
        out["trace.layer_s"] = sum(self_s.values())
        return out

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("span", "name", "start", "end", "parent", "pass", "self_s"))
            w.writerows(self.spans)


def per_layer_units() -> dict[str, str]:
    """Name and unit of every per-layer metric a traced run reports."""
    names = [k for k in Tracer().pass_totals(0) if k != "trace.layer_s"]
    names += ["trace.overhead_s", "trace.coverage"]
    return {k: unit_of(k) for k in names}


def median_over_passes(per_pass: list[dict]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}


# -- counters taken from a call's arguments and result ----------------------


def _atoms_built(tracer, name, args, tree):
    tracer.count("filtration.atoms_built", tree.num_atoms)


def _json_bytes(tracer, name, args, text):
    tracer.count("filtration.json_bytes", len(text))


def _unions(tracer, name, args, result):
    if name.endswith(".subset-bruteforce"):
        tree = args[0].tree
        tracer.count(
            "norms.unions_scanned",
            sum(2 ** tree.atom_count(n) - 1 for n in range(tree.depth + 1)),
        )


def _carleson_distinct(tracer, name, args, result):
    if name.endswith(".node-fast"):
        tracer.distinct(name, (id(args[0]), float(args[1])), args[0])


def _maximal_distinct(tracer, name, args, result):
    tracer.distinct(name, (id(args[0]),), args[0])


_AFTER = {
    "filtration.build_random": _atoms_built,
    "filtration.build_dyadic": _atoms_built,
    "filtration.from_dict": _atoms_built,
    "filtration.to_json": _json_bytes,
    "norms.bmo_alpha_norm": _unions,
    "carleson.carleson_alpha_norm": _carleson_distinct,
    "operators.maximal": _maximal_distinct,
}

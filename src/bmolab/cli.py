"""Command-line front end.

Subcommands: gen-tree, gen-martingale, norm, carleson-norm, check,
campaign, bench.  Exit code 0 means success (and verdict pass for
check/campaign), 1 means a suite ran but its verdict failed, 2 means a
usage or input error (malformed documents report the offending node's
path; size-cap refusals suggest the fast modes).
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import inspect
import json
import os
import sys

from .carleson import CARLESON_MODES, CarlesonMeasure, carleson_alpha_norm
from .errors import SchemaError, SizeCapError
from .filtration import FiltrationTree, build_dyadic, build_random, dump_json, write_text
from .norms import BMO_MODES, bmo_alpha_norm
from .process import Martingale, random_martingale
from .verify import SUITES, bench, campaign

__all__ = ["main"]


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def _natural(text: str) -> int:
    """A seed, a depth or a width.  numpy refuses a negative one with a
    message that names no flag, so argparse refuses it here, naming the
    flag."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return value


def _ints(text: str) -> list[int]:
    return [_natural(x) for x in text.split(",") if x.strip()]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmolab",
        description="Exact norms, measures, and theorem checks on finite filtration trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-tree", help="generate a filtration tree document")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--random", action="store_true", help="random tree instead of dyadic")
    p.add_argument("--seed", type=_natural, default=0)
    p.add_argument("--max-branch", type=int, default=3)
    p.add_argument("--out", help="output path (stdout when omitted)")

    p = sub.add_parser("gen-martingale", help="generate a random martingale document")
    p.add_argument("--tree", required=True, help="path to a tree/v1 document")
    p.add_argument("--seed", type=_natural, default=0)
    p.add_argument("--dim", type=_natural, default=1)
    p.add_argument("--out")

    p = sub.add_parser("norm", help="oscillation norm of a serialized martingale")
    p.add_argument("input", help="path to a process/v1 document")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--mode", default="atom-fast", choices=BMO_MODES)
    p.add_argument("--p", type=float, default=2.0, help="exponent p >= 1 (default 2); the witness names any other")
    p.add_argument("--max-enum", type=int, default=None)
    p.add_argument("--out")

    p = sub.add_parser("carleson-norm", help="measure norm of a serialized measure")
    p.add_argument("input", help="path to a measure/v1 document")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--mode", default="node-fast", choices=CARLESON_MODES)
    p.add_argument("--max-enum", type=int, default=None)
    p.add_argument("--out")

    p = sub.add_parser("check", help="run a verification suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=_natural, default=None)
    p.add_argument("--alphas", type=_floats, default=None)
    p.add_argument("--ps", type=_floats, default=None)
    p.add_argument("--out", help="write the report JSON here")
    p.add_argument("--csv", help="write the per-case CSV here")
    p.add_argument(
        "--comparison",
        action="store_true",
        help="write the report without the wall-clock field (byte-stable)",
    )

    p = sub.add_parser("campaign", help="grid run over alpha (and p) and depth")
    p.add_argument("--alphas", type=_floats, required=True)
    p.add_argument("--depths", type=_ints, required=True)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=_natural, default=0)
    p.add_argument("--ps", type=_floats, default=None)
    p.add_argument("--csv", help="CSV output path (stdout when omitted)")
    p.add_argument("--out", help="also write the report JSON here")

    p = sub.add_parser("bench", help="time fast paths against brute force")
    p.add_argument("--depths", type=_ints, default=[1, 2, 3])
    p.add_argument("--alpha", type=float, default=0.25)
    p.add_argument("--seed", type=_natural, default=0)
    p.add_argument("--repeats", type=int, default=3)

    return parser


def _cmd_gen_tree(args) -> int:
    if args.random:
        tree = build_random(args.seed, args.depth, args.max_branch)
    else:
        tree = build_dyadic(args.depth)
    write_text(args.out, tree.to_json())
    return 0


def _cmd_gen_martingale(args) -> int:
    tree = FiltrationTree.load(args.tree)
    f = random_martingale(tree, args.seed, args.dim)
    write_text(args.out, f.to_json())
    return 0


def _cmd_norm(args) -> int:
    f = Martingale.load(args.input)
    result = bmo_alpha_norm(f, args.alpha, args.mode, args.max_enum, args.p)
    write_text(args.out, dump_json(dataclasses.asdict(result)))
    return 0


def _cmd_carleson_norm(args) -> int:
    mu = CarlesonMeasure.load(args.input)
    result = carleson_alpha_norm(mu, args.alpha, args.mode, args.max_enum)
    write_text(args.out, dump_json(dataclasses.asdict(result)))
    return 0


def _check_output_paths(*paths) -> None:
    """Refuse an output path that cannot be opened before any suite work:
    an existing directory, or a file in a directory that does not exist.
    Raises the OSError that opening the path at the end would raise."""
    for path in paths:
        if path is None:
            continue
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def _cmd_check(args) -> int:
    fn = SUITES[args.suite]
    sig = inspect.signature(fn)
    kwargs = {}
    for name in ("trials", "seed", "alphas", "ps"):
        value = getattr(args, name)
        if value is None:
            continue
        if name not in sig.parameters:
            print(f"error: suite {args.suite!r} takes no --{name}", file=sys.stderr)
            return 2
        kwargs[name] = value
    _check_output_paths(args.out, args.csv)
    report = fn(**kwargs)
    if args.out:
        report.save(args.out, comparison=args.comparison)
    if args.csv:
        report.write_csv(args.csv)
    print(
        f"{report.suite}: {report.verdict} "
        f"({len(report.cases)} cases, {report.wall_clock_s:.2f}s)"
    )
    return 0 if report.passed else 1


def _cmd_campaign(args) -> int:
    _check_output_paths(args.out, args.csv)
    report = campaign(args.alphas, args.depths, args.trials, args.seed, args.ps)
    if args.out:
        report.save(args.out)
    report.write_csv(args.csv)
    print(
        f"campaign: {report.verdict} ({len(report.cases)} cases)",
        file=sys.stderr,
    )
    return 0 if report.passed else 1


def _cmd_bench(args) -> int:
    rows = bench(args.depths, args.alpha, args.seed, args.repeats)
    print(f"{'depth':>5}  {'op':<8}  {'mode':<20}  {'seconds':>12}  value")
    for r in rows:
        print(
            f"{r['depth']:>5}  {r['op']:<8}  {r['mode']:<20}  {r['seconds']:>12.6f}  "
            f"{r['value']!r}"
        )
    return 0


_COMMANDS = {
    "gen-tree": _cmd_gen_tree,
    "gen-martingale": _cmd_gen_martingale,
    "norm": _cmd_norm,
    "carleson-norm": _cmd_carleson_norm,
    "check": _cmd_check,
    "campaign": _cmd_campaign,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (SchemaError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except SizeCapError as exc:
        print(f"size cap: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"input error: malformed JSON ({exc})", file=sys.stderr)
        return 2
    except RecursionError:
        # Raised by json.load: the parser nests two levels per tree level.
        print(
            "input error: tree too deep to read (JSON nesting allows about 490 tree levels)",
            file=sys.stderr,
        )
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

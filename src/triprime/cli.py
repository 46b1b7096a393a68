"""Command-line surface: group info, graph exports, distances, verification runs.

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
"""

import argparse
import json
import multiprocessing
import sys
from collections import Counter
from functools import partial

from . import exports
from .analysis import verify_theorem
from .graph import DEFAULT_K, build_graph, distance
from .groups import (
    OrderCapExceeded,
    catalog,
    is_solvable,
    load_group,
    standard_catalog,
)
from .perm import parse_cycles
from .primes import prime_factors

CLI_CAP = 20_000


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one `error:` line, like every other input error."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _resolve_group(args):
    if bool(args.catalog) == bool(args.file):
        raise UsageError("exactly one of --catalog or --file is required")
    if args.n is not None and not args.catalog:
        raise UsageError("--n is only valid with --catalog")
    if args.catalog:
        return catalog(args.catalog, args.n)
    return load_group(args.file)


def _emit(write, out, stream=None):
    """Return write(fh) on the file `out`, or else on `stream` (default stdout)."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            return write(fh)
    return write(stream or sys.stdout)


def cmd_info(args):
    group = _resolve_group(args)
    table = group.element_table(args.cap)
    info = {
        "name": group.name,
        "degree": group.degree,
        "order": len(table.elements),
        "primes": sorted(prime_factors(len(table.elements))),
        "solvable": is_solvable(table),
        "class_count": len(table.class_reps),
        "order_histogram": dict(sorted(Counter(table.order_of).items())),
    }
    _emit(lambda fh: fh.write(json.dumps(info, indent=2) + "\n"), args.out)
    return 0


def cmd_graph(args):
    if args.format not in exports.FORMATS:
        raise UsageError(f"unknown format {args.format!r}")
    group = _resolve_group(args)
    table = group.element_table(args.cap)
    graph = build_graph(table, k=args.k)
    _emit(lambda fh: exports.FORMATS[args.format](graph, fh), args.out)
    summary = json.dumps(exports.summary(graph), sort_keys=True) + "\n"
    _emit(lambda fh: fh.write(summary), args.out and args.out + ".summary.json", sys.stderr)
    return 0


def cmd_distance(args):
    group = _resolve_group(args)
    table = group.element_table(args.cap)
    i, j = (table.index_of.get(parse_cycles(getattr(args, label), group.degree)) for label in "xy")
    for label, index in (("x", i), ("y", j)):
        if index is None:
            raise UsageError(f"element {label} = {getattr(args, label)!r} is not in the group")
    graph = build_graph(table, k=args.k)
    if graph.isolated[i] or graph.isolated[j]:
        print("isolated")
        return 0
    d = distance(graph, i, j)
    print("unreachable" if d is None else d)
    return 0


def pool_map(fn, items, jobs):
    """Yield fn(item) for each item, in input order, from min(jobs, len(items))
    forked worker processes; in-process when that is at most one."""
    workers = min(jobs, len(items))
    if workers <= 1:
        yield from map(fn, items)
        return
    with multiprocessing.get_context("fork").Pool(workers) as pool:
        yield from pool.imap(fn, items)


def _verify_one(group, cap):
    """(report dict, ok) for one group; a group over the cap is reported, not failed."""
    try:
        report = verify_theorem(group, cap=cap)
    except OrderCapExceeded as exc:
        return {"group": group.name, "error": str(exc)}, True
    return report.to_dict(), report.ok


def cmd_verify(args):
    if args.catalog_all:
        if args.catalog or args.file or args.n is not None:
            raise UsageError("--catalog-all takes no --catalog, --file or --n")
        groups = standard_catalog()
    else:
        groups = [_resolve_group(args)]

    def write(fh):
        all_ok = True
        for record, ok in pool_map(partial(_verify_one, cap=args.cap), groups, args.jobs):
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            fh.flush()
            all_ok &= ok
        return all_ok

    return 0 if _emit(write, args.out) else 1


_OPTIONS = {
    "--catalog": dict(metavar="NAME", help="catalog group name"),
    "--n": dict(type=int, help="parameter for parametric catalog groups"),
    "--file": dict(metavar="PATH", help="group file (degree: / gen: lines)"),
    "--catalog-all": dict(action="store_true", help="verify the whole catalog"),
    "x": dict(help="first element in cycle notation"),
    "y": dict(help="second element in cycle notation"),
    "--k": dict(type=_positive_int, default=DEFAULT_K),
    "--format": dict(default="dot", help=" | ".join(exports.FORMATS)),
    "--cap": dict(type=_positive_int, default=CLI_CAP),
    "--jobs": dict(type=_positive_int, default=1),
    "--stable": dict(action="store_true",
                     help="report in catalog order (always the case; accepted for compatibility)"),
    "--out": dict(),
}

_SPEC = ("--catalog", "--n", "--file")

# (name, handler, help, the flags it takes in help order)
_COMMANDS = [
    ("info", cmd_info, "group summary: order, primes, solvability, classes",
     (*_SPEC, "--cap", "--out")),
    ("graph", cmd_graph, "export the graph",
     (*_SPEC, "--k", "--format", "--cap", "--out")),
    ("distance", cmd_distance, "distance between two elements, by cycle notation",
     (*_SPEC, "x", "y", "--k", "--cap")),
    ("verify", cmd_verify, "run the verification harness",
     (*_SPEC, "--catalog-all", "--cap", "--jobs", "--stable", "--out")),
]


def build_parser():
    parser = _Parser(
        prog="triprime",
        description="Graphs on finite groups with edges where two elements "
        "generate a subgroup whose order has at least k distinct prime divisors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, summary, flags in _COMMANDS:
        p = sub.add_parser(name, help=summary)
        for flag in flags:
            p.add_argument(flag, **_OPTIONS[flag])
        p.set_defaults(func=handler)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, ValueError, OSError, OrderCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

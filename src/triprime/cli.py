"""Command-line surface: group info, graph exports, distances, verification runs.

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
"""

import argparse
import json
import os
import pickle
import signal
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


def _natural(text):
    """int(text) for ASCII digits alone: int() also reads signs, '_', spaces, other digits."""
    if text.isascii() and text.isdigit():
        return int(text)
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")


def _positive_int(text):
    if text.isascii() and text.isdigit() and int(text):
        return int(text)
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


def _resolve_group(args):
    if bool(args.catalog) == bool(args.file):
        raise UsageError("exactly one of --catalog or --file is required")
    if args.n is not None and not args.catalog:
        raise UsageError("--n is only valid with --catalog")
    if args.catalog:
        return catalog(args.catalog, args.n)
    return load_group(args.file)


class _TextSink:
    """A binary handle on a text stream with no buffer. Every writer writes
    whole encoded strings, so each write is decoded as UTF-8 on its own."""

    def __init__(self, stream):
        self.stream = stream

    def write(self, data):
        return self.stream.write(bytes(data).decode())

    def flush(self):
        self.stream.flush()


def _emit(write, out, stream=None):
    """Return write(fh) on a binary handle: the file `out`, or else the text
    stream `stream` (default sys.stdout, read at the call): its buffer when
    it has one, and otherwise a _TextSink on it."""
    if out:
        with open(out, "wb") as fh:
            return write(fh)
    stream = stream or sys.stdout
    return write(stream.buffer if hasattr(stream, "buffer") else _TextSink(stream))


def cmd_info(args):
    group = _resolve_group(args)
    table = group.element_table(args.cap)
    info = {
        "name": group.name,
        "degree": group.degree,
        "order": len(table),
        "primes": sorted(prime_factors(len(table))),
        "solvable": is_solvable(table),
        "class_count": len(table.class_reps),
        "order_histogram": dict(sorted(Counter(table.order_of).items())),
    }
    _emit(lambda fh: fh.write((json.dumps(info, indent=2) + "\n").encode()), args.out)
    return 0


def cmd_graph(args):
    if args.format not in exports.FORMATS:
        raise UsageError(f"unknown format {args.format!r}")
    group = _resolve_group(args)
    table = group.element_table(args.cap)
    graph = build_graph(table, k=args.k)
    _emit(lambda fh: exports.FORMATS[args.format](graph, fh), args.out)
    summary = (json.dumps(exports.summary(graph), sort_keys=True) + "\n").encode()
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


def _attempt(fn, item):
    """(True, fn(item)), or (False, the exception it raised)."""
    try:
        return True, fn(item)
    except Exception as exc:
        return False, exc


def pool_map(fn, items, jobs, key=None):
    """Yield fn(item) for each item, in input order, from min(jobs, len(items))
    processes: this one and forked children; in-process when that is one.

    The items are dealt once, largest key(item) first (each weighs 1 without a
    key), to the share that weighs least so far, then has fewest items. Each
    share but the last goes to a forked child, which pickles each result to its
    own pipe; this process computes the last share, then reads every pipe to
    its end, so nothing is yielded before every share is done. An exception fn
    raised is raised at its item's position, as map(fn, items) raises it; so is
    ChildProcessError for an item whose child exited with no result. Every
    child is killed and reaped before the first yield, however the deal ends.
    """
    workers = min(jobs, len(items))
    if workers <= 1:
        yield from map(fn, items)
        return
    weights = [key(item) for item in items] if key else [1] * len(items)
    shares = [[] for _ in range(workers)]
    loads = [0] * workers
    for i in sorted(range(len(items)), key=lambda i: -weights[i]):
        least = min(range(workers), key=lambda s: (loads[s], len(shares[s])))
        shares[least].append(i)
        loads[least] += weights[i]
    children = []  # (child pid, its result pipe)
    results = {}  # index -> (ok, result or exception)
    try:
        for share in shares[:-1]:
            fd, out = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child: it leaves only through os._exit
                try:
                    os.close(fd)
                    with open(out, "wb") as fh:
                        for i in sorted(share):
                            pickle.dump((i, _attempt(fn, items[i])), fh)
                            fh.flush()
                finally:
                    os._exit(0)
            os.close(out)
            children.append((pid, fd))
        for i in sorted(shares[-1]):
            results[i] = _attempt(fn, items[i])
        for _, fd in children:
            with open(fd, "rb", closefd=False) as fh:
                while True:
                    try:
                        i, result = pickle.load(fh)
                    except (EOFError, pickle.UnpicklingError):  # the end, or a truncated last pickle
                        break
                    results[i] = result
    finally:
        for pid, fd in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(fd)
    for position in range(len(items)):
        if position not in results:
            raise ChildProcessError(f"a worker process exited with no result for item {position}")
        ok, value = results[position]
        if not ok:
            raise value
        yield value


def _verify_one(group, cap):
    """(report dict, ok) for one group; a group over the cap is reported, not failed."""
    try:
        report = verify_theorem(group, build_graph(group.element_table(cap)))
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
        all_ok, done = True, 0
        verify = partial(_verify_one, cap=args.cap)
        try:
            for record, ok in pool_map(verify, groups, args.jobs, key=lambda g: g.known_order or 0):
                fh.write((json.dumps(record, sort_keys=True) + "\n").encode())
                fh.flush()
                all_ok &= ok
                done += 1
        except ChildProcessError as exc:  # pool_map names the item by position; name the group
            raise ChildProcessError(f"a worker process exited with no result for {groups[done].name}") from exc
        return all_ok

    return 0 if _emit(write, args.out) else 1


_OPTIONS = {
    "--catalog": dict(metavar="NAME", help="catalog group name"),
    "--n": dict(type=_natural, help="parameter for parametric catalog groups"),
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


def run():
    """The console entry point: main(), then, once stdout and stderr are
    flushed, exit at once with its code, with no interpreter teardown. An
    uncaught exception still ends in a normal traceback."""
    code = main()
    try:
        sys.stdout.flush()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()

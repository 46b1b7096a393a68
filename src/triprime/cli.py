"""Command-line surface: group info, graph exports, distances, verification runs.

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
"""

import argparse
import json
import os
import pickle
import select
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


def _attempt(fn, item):
    """(True, fn(item)), or (False, the exception it raised)."""
    try:
        return True, fn(item)
    except Exception as exc:
        return False, exc


def _take(queue):
    """The next index on the queue pipe, or None once it is empty."""
    data = os.read(queue, 4)
    return int.from_bytes(data, "little") if data else None


def _serve(fn, items, i, queue, fd):
    """A child's work: item i, then the queue's items, each sent on fd as a
    length-prefixed pickle of (index, ok, result or exception)."""
    while i is not None:
        data = pickle.dumps((i, *_attempt(fn, items[i])))
        data = memoryview(len(data).to_bytes(8, "little") + data)
        while data:
            data = data[os.write(fd, data):]
        i = _take(queue)


def _receive(fd, children, results):
    """Read what is waiting on child pipe fd into results; on end of file,
    close the pipe and reap the child."""
    pid, buf = children[fd]
    chunk = os.read(fd, 1 << 16)
    if not chunk:
        os.close(fd)
        os.waitpid(pid, 0)
        del children[fd]
        return
    buf += chunk
    while len(buf) >= 8 and len(buf) >= 8 + (size := int.from_bytes(buf[:8], "little")):
        i, ok, value = pickle.loads(buf[8:8 + size])
        results[i] = ok, value
        del buf[:8 + size]


def pool_map(fn, items, jobs, key=None):
    """Yield fn(item) for each item, in input order, from min(jobs, len(items))
    processes: this one and forked children; in-process when that is one.

    Items are taken largest key(item) first (input order without a key):
    each child starts on one of the largest, and then every process takes
    the rest from a shared pipe of indices. A result is yielded as soon as
    every earlier one is in, and an exception fn raised is raised at its
    item's position, as map(fn, items) raises it; so is ChildProcessError
    for an item whose child exited with no result. Every child is reaped
    before the generator ends, however it ends.
    """
    workers = min(jobs, len(items))
    if workers <= 1:
        yield from map(fn, items)
        return
    order = list(range(len(items)))
    if key is not None:
        order.sort(key=lambda i: -key(items[i]))
    queue, feed = os.pipe()
    os.set_blocking(feed, False)  # the whole queue is written before the fork, or refused
    rest = b"".join(i.to_bytes(4, "little") for i in order[workers - 1:])
    fits = not rest or os.write(feed, rest) == len(rest)
    os.close(feed)
    children = {}  # result pipe -> (child pid, bytes not yet unpickled)
    results = {}  # index -> (ok, result or exception)
    try:
        if not fits:
            raise ValueError(f"{len(items)} items do not fit one queue pipe")
        for first in order[:workers - 1]:
            fd, out = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child: it leaves only through os._exit
                try:
                    os.close(fd)
                    _serve(fn, items, first, queue, out)
                finally:
                    os._exit(0)
            os.close(out)
            children[fd] = pid, bytearray()
        mine = _take(queue)
        for position in range(len(items)):
            while position not in results:
                timeout = None
                if mine is not None:
                    results[mine] = _attempt(fn, items[mine])
                    mine, timeout = _take(queue), 0
                elif not children:
                    raise ChildProcessError(f"a worker process exited with no result for item {position}")
                ready, _, _ = select.select(list(children), [], [], timeout)
                for fd in ready:
                    _receive(fd, children, results)
            ok, value = results.pop(position)
            if not ok:
                raise value
            yield value
        while children:
            _receive(next(iter(children)), children, results)
    finally:
        os.close(queue)
        for fd, (pid, _) in children.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(fd)


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
        verify = partial(_verify_one, cap=args.cap)
        for record, ok in pool_map(verify, groups, args.jobs, key=lambda g: g.known_order or 0):
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

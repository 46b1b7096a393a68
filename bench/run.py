"""The triprime benchmark: the real CLI in fresh processes, on three workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; the program is imported from ./src. The
workloads, and the layers each one loads or bypasses, are described in
bench/README.md.

--trace 0 is a closed loop with one client: the workload's CLI command is
invoked again only after the previous invocation has exited and its output
has been checked, for --seconds and at least two invocations. Before each
invocation, fresh interpreters time the set-up every command pays. The last
line printed is a JSON object with the end-to-end metrics.

--trace 1 makes one untraced invocation, one traced in-process run and one
counting pass (bench/trace.py), and reports the per-layer metrics derived
from the recorded spans.

Every other line of output, and the files under .bench_run/, are for people.
"""

import argparse
import hashlib
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
import xml.etree.ElementTree as ET
import xml.parsers.expat
from dataclasses import dataclass

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
BENCH = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(ROOT, ".bench_run")

CAP = 20_000          # the CLI's element cap, passed explicitly
MIN_INVOCATIONS = 2   # per run, however short --seconds is
SETUP_PER_INVOCATION = 2  # set-up measurements before each invocation
IMPORT_REPS = 5
INVOKE_TIMEOUT = 150  # seconds; an invocation that runs longer counts as failed
RUN_LIMIT = 170       # seconds; no child outlives this much of the benchmark's run
START = time.perf_counter()

SETUP_CODE = {
    # import triprime and build the element tables (enumeration + classes)
    "file": "import sys, triprime; triprime.load_group(sys.argv[1]).element_table({cap})",
    "catalog": "import triprime\nfor g in triprime.standard_catalog(): g.element_table({cap})",
}


@dataclass
class Workload:
    name: str
    catalog: tuple | None      # (name, n) relabelled by the seed; None: the whole catalog
    cli: list                  # CLI arguments after the group options
    pairs: int                 # sum of n(n-1)/2 over the groups decided
    checker: object            # output bytes -> facts
    expect: dict               # the facts every correct output shows
    exact_orders: int          # two_generated_order calls at the baseline
    reference_cli: list | None = None  # single-process command the traced run mirrors


def _digest_edges(pairs):
    h = hashlib.sha256()
    for i, j in pairs:
        h.update(b"%d %d\n" % (i, j))
    return h.hexdigest()


def check_graph_json(data):
    """The graph command's JSON export: counts and the edge set.

    Relabelling points maps element i of the catalog group to element i of
    the relabelled one, so the index pairs are the same for every seed.
    """
    doc = json.loads(data)
    edges = doc["edges"]
    return {
        "vertices": len(doc["vertices"]),
        "edges": len(edges),
        "isolated": doc["isolated_count"],
        "k": doc["k"],
        "edge_digest": _digest_edges(edges),
    }


def check_graphml(data):
    """The graph command's GraphML export.

    expat, the parser under xml.etree, checks that the whole document is
    well-formed; xml.etree reads the node elements, which precede the edges.
    The edge elements are compared by digest, because building 3 million
    elements with xml.etree takes longer than the invocation being checked.
    """
    expat = xml.parsers.expat.ParserCreate()
    expat.Parse(data, True)
    cut = data.index(b"<edge ")
    head = ET.XMLPullParser(events=("start",))
    head.feed(data[:cut])
    nodes = sum(1 for _, elem in head.read_events() if elem.tag.endswith("}node"))
    return {
        "vertices": nodes,
        "edges": data.count(b"<edge ", cut),
        "edge_section_sha256": hashlib.sha256(data[cut:]).hexdigest(),
    }


def check_verify_jsonl(data):
    """verify --stable output: one JSON report per catalog group, pinned bytes."""
    lines = data.decode("utf-8").splitlines()
    for line in lines:
        json.loads(line)
    return {"lines": len(lines), "sha256": hashlib.sha256(data).hexdigest()}


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "sl23-graph", ("sl23_example", None), ["graph", "--format", "json"],
            pairs=1512 * 1511 // 2,
            checker=check_graph_json,
            expect={"vertices": 1511, "edges": 925344, "isolated": 1, "k": 3,
                    "edge_digest": "8b9b5518fa54a3ecfead7f68ac5cb6efcfc82270c54df0a9391c19f8a56c1192"},
            exact_orders=16062,
        ),
        Workload(
            "a7-k2-graphml", ("alternating", 7), ["graph", "--k", "2", "--format", "graphml"],
            pairs=2520 * 2519 // 2,
            checker=check_graphml,
            expect={"vertices": 2520, "edges": 3162075, "edge_section_sha256":
                    "dc0e8b5f9c85131b94b19f2f66e4fd01748aa8762baff9ee325192520d47587e"},
            exact_orders=3319,
        ),
        Workload(
            "catalog-verify", None, ["verify", "--catalog-all", "--stable", "--jobs", "2"],
            # orders 2, 30, 105, 210, 30, 210, 24, 120, 60, 21, 42, 210, 420, 168, 24, 1512
            pairs=1327033,
            checker=check_verify_jsonl,
            # the serial --stable output: --jobs 2 must agree with it
            expect={"lines": 16, "sha256":
                    "d7cd81d43ca7b60f32ec9b36870715cf52617477fc2b9916ef977bfd4da957e6"},
            exact_orders=30550,
            reference_cli=["verify", "--catalog-all", "--stable", "--jobs", "1"],
        ),
    ]
}

COUNT_UNITS = ("count", "bytes")

# Counts that must repeat exactly between runs of the same code and seed.
EXACT_COUNTS = ["groups.exact_orders", "perm.mul_calls", "perm.inverse_calls",
                "graph.edges", "graph.bfs_passes", "exports.bytes"]


# -- inputs ----------------------------------------------------------------


def cycles_text(images):
    """1-based cycle notation of an image list, as group files take it."""
    seen = set()
    parts = []
    for i, j in enumerate(images):
        if i in seen or j == i:
            continue
        cycle = [i]
        seen.add(i)
        while j != i:
            cycle.append(j)
            seen.add(j)
            j = images[j]
        parts.append("(" + ",".join(str(p + 1) for p in cycle) + ")")
    return "".join(parts) or "()"


def relabelled_group_text(generators, degree, seed):
    """Group file for the generators with points renamed by a seeded shuffle.

    Seed 0 keeps the catalog labelling. Point i becomes sigma[i], so g becomes
    sigma^-1 g sigma.
    """
    sigma = list(range(degree))
    if seed:
        random.Random(seed).shuffle(sigma)
    lines = [f"# relabelled with seed {seed}", f"degree: {degree}"]
    for g in generators:
        images = [0] * degree
        for i in range(degree):
            images[sigma[i]] = sigma[g[i]]
        lines.append(f"gen: {cycles_text(images)}")
    return "\n".join(lines) + "\n"


def group_args(workload, seed):
    """CLI group options for the workload, writing the seeded group file."""
    if workload.catalog is None:
        return []
    from triprime.groups import catalog

    group = catalog(*workload.catalog)
    path = os.path.join(WORK, f"{workload.name}-seed{seed}.group")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(relabelled_group_text(group.generators, group.degree, seed))
    return ["--file", path]


# -- processes -------------------------------------------------------------


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Child:
    """A process started in its own session, so a timeout kills its whole tree."""

    def __init__(self, argv, timeout=INVOKE_TIMEOUT):
        self.timed_out = False
        self.start = time.perf_counter()
        timeout = min(timeout, max(1.0, START + RUN_LIMIT - self.start))
        self.proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                     stdout=subprocess.DEVNULL, start_new_session=True)
        self.timer = threading.Timer(timeout, self._kill)
        self.timer.start()

    def _kill(self):
        self.timed_out = True
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def reap(children):
    """Wait for every child; wall time runs from spawn to the child's exit.

    os.wait4 returns the rusage of the child and its waited-for descendants:
    CPU summed over the tree, ru_maxrss the largest process in it.
    """
    results = {}
    pending = {c.proc.pid: c for c in children}
    while pending:
        pid, status, ru = os.wait4(-1, 0)
        end = time.perf_counter()
        c = pending.pop(pid, None)
        if c is None:
            continue
        c.timer.cancel()
        c.proc.returncode = os.waitstatus_to_exitcode(status)
        results[pid] = {
            "rc": c.proc.returncode,
            "timed_out": c.timed_out,
            "wall_s": end - c.start,
            "cpu_s": ru.ru_utime + ru.ru_stime,
            "peak_rss_mb": ru.ru_maxrss / 1024,
        }
    return [results[c.proc.pid] for c in children]


def run(argv, timeout=INVOKE_TIMEOUT):
    return reap([Child(argv, timeout)])[0]


def cli_argv(args):
    return [sys.executable, "-m", "triprime.cli"] + args


# -- checks ----------------------------------------------------------------


def read_output(inv, out_path):
    """Bytes an invocation wrote, or None if it failed or wrote nothing."""
    if inv["rc"] != 0 or inv["timed_out"]:
        return None
    try:
        with open(out_path, "rb") as fh:
            return fh.read()
    except OSError:
        return None


def verdict(workload, data):
    """Whether output bytes show every pinned fact of the workload."""
    if data is None:
        return False, "failed run or no output"
    try:
        found = workload.checker(data)
    except (ValueError, KeyError, TypeError, ET.ParseError, xml.parsers.expat.ExpatError) as exc:
        return False, f"unparseable output: {type(exc).__name__}: {exc}"
    bad = {k: v for k, v in found.items() if v != workload.expect[k]}
    return (not bad), (f"mismatch {bad}" if bad else "ok")


def check_output(workload, inv, out_path):
    return verdict(workload, read_output(inv, out_path))


def self_check(workload, data):
    """A truncated and an altered copy of a good output must both be refused."""
    truncated = data[: len(data) // 2]
    digit = re.compile(rb"[0-9]").search(data, len(data) // 2)
    pos = digit.start() if digit else len(data) - 1
    altered = bytearray(data)
    altered[pos] = ord("1") if altered[pos] == ord("0") else ord("0")
    return not verdict(workload, truncated)[0] and not verdict(workload, bytes(altered))[0]


# -- measurements ----------------------------------------------------------


def setup_argv(gargs):
    """A fresh interpreter that imports triprime and builds the element tables."""
    if gargs:
        return [sys.executable, "-c", SETUP_CODE["file"].format(cap=CAP), gargs[1]]
    return [sys.executable, "-c", SETUP_CODE["catalog"].format(cap=CAP)]


def measure(workload, seed, seconds):
    """--trace 0: the closed loop of CLI invocations, with set-up timed
    between them so that both are spread over the whole run."""
    gargs = group_args(workload, seed)
    out = os.path.join(WORK, f"{workload.name}.out")
    argv = cli_argv(workload.cli + gargs + ["--cap", str(CAP), "--out", out])
    run(setup_argv(gargs))  # warm the bytecode and file caches
    setup = []

    # The first good output is checked in full and against its corruptions;
    # the output is deterministic, so later ones must equal it byte for byte.
    invocations = []
    verified = None
    start = time.perf_counter()
    while len(invocations) < MIN_INVOCATIONS or time.perf_counter() - start < seconds:
        setup += [run(setup_argv(gargs)) for _ in range(SETUP_PER_INVOCATION)]
        _remove(out)
        inv = run(argv)
        data = read_output(inv, out)
        if verified is None:
            inv["ok"], inv["why"] = verdict(workload, data)
            if inv["ok"] and not self_check(workload, data):
                inv["ok"], inv["why"] = False, "self-check: a corrupted copy passed the check"
            if inv["ok"]:
                verified = hashlib.sha256(data).digest()
        else:
            inv["ok"] = data is not None and hashlib.sha256(data).digest() == verified
            inv["why"] = "same bytes as the checked output" if inv["ok"] else "output differs"
        del data
        invocations.append(inv)
        print(f"invocation {len(invocations)}: {inv['wall_s']:.3f} s, check: {inv['why']}")
    _remove(out)
    _remove(out + ".summary.json")

    good = [i for i in invocations if i["ok"]] or invocations
    wall = statistics.median(i["wall_s"] for i in good)
    metrics = {
        "wall_s": (wall, "s"),
        "cpu_s": (statistics.median(i["cpu_s"] for i in good), "s"),
        "pairs_per_s": (workload.pairs / wall, "pairs/s"),
        "peak_rss_mb": (statistics.median(i["peak_rss_mb"] for i in good), "MB"),
        "setup_s": (statistics.median(r["wall_s"] for r in setup), "s"),
    }
    failed = sum(not i["ok"] for i in invocations) + sum(r["rc"] != 0 for r in setup)
    attempted = len(invocations) + len(setup)
    detail = {"invocations": invocations, "setup": setup}
    return metrics, attempted, failed, detail


def span_metrics(spans, workload):
    """Per-layer metrics from the spans of one traced run."""
    by_id = {s["id"]: s for s in spans}
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]

    def dur(s):
        return s["end"] - s["start"]

    def outermost(name):
        """Spans of that name not nested in another span of the same name."""
        out = []
        for s in spans:
            if s["name"] != name:
                continue
            p = s["parent"]
            while p is not None and by_id[p]["name"] != name:
                p = by_id[p]["parent"]
            if p is None:
                out.append(s)
        return out

    def total(name):
        return sum(dur(s) for s in outermost(name))

    def inside(name, ancestor):
        """Time of outermost `name` spans nested under an `ancestor` span."""
        t = 0.0
        for s in outermost(name):
            p = s["parent"]
            while p is not None and by_id[p]["name"] != ancestor:
                p = by_id[p]["parent"]
            if p is not None:
                t += dur(s)
        return t

    orders = outermost("groups.two_generated_order")
    exact_s = total("groups.two_generated_order")
    builds = outermost("graph.build_graph")
    verify = outermost("analysis.verify_theorem")
    return {
        "groups.exact_orders": (len(orders), "count"),
        "groups.exact_order_s": (exact_s, "s"),
        "groups.exact_order_us": (exact_s / len(orders) * 1e6 if orders else 0.0, "us"),
        "groups.enumerate_s": (total("groups.enumerate_elements")
                               - inside("groups.conjugacy_classes", "groups.enumerate_elements"), "s"),
        "groups.classes_s": (total("groups.conjugacy_classes"), "s"),
        "groups.solvable_s": (total("groups.is_solvable"), "s"),
        "graph.build_s": (total("graph.build_graph"), "s"),
        "graph.build_self_s": (total("graph.build_graph")
                               - inside("groups.two_generated_order", "graph.build_graph"), "s"),
        "graph.exact_fraction": (len(orders) / workload.pairs, "ratio"),
        "graph.edges": (sum(s["edges"] for s in builds), "count"),
        "graph.adjacency_mb": (sum(s["adjacency_bytes"] for s in builds) / 2**20, "MB"),
        "graph.diameter_s": (total("graph.diameter"), "s"),
        "graph.bfs_passes": (len(outermost("graph._bfs_levels")), "count"),
        "graph.bfs_s": (total("graph._bfs_levels"), "s"),
        "analysis.verify_s": (sum(dur(s) for s in verify), "s"),
        "analysis.self_s": (sum(dur(s) - child_time.get(s["id"], 0.0) for s in verify), "s"),
        "exports.serialize_s": (total("exports.serialize"), "s"),
        "exports.edge_list_s": (total("exports.edge_list"), "s"),
    }


def time_import():
    """Fresh-interpreter `import triprime.cli` minus a bare interpreter start."""
    bare = [run([sys.executable, "-c", "pass"])["wall_s"] for _ in range(IMPORT_REPS)]
    full = [run([sys.executable, "-c", "import triprime.cli"])["wall_s"] for _ in range(IMPORT_REPS)]
    return statistics.median(full) - statistics.median(bare)


def measure_traced(workload, seed):
    """--trace 1: untraced invocation, counting pass, traced run; per-layer metrics."""
    gargs = group_args(workload, seed)
    tail = gargs + ["--cap", str(CAP), "--out"]
    out = {k: os.path.join(WORK, f"{workload.name}.{k}.out") for k in ("plain", "ref", "count", "traced")}
    result = os.path.join(WORK, f"{workload.name}.result.json")
    spans_path = os.path.join(WORK, f"{workload.name}-seed{seed}.spans.jsonl")
    trace_script = os.path.join(BENCH, "trace.py")
    checks = {}

    run([sys.executable, "-c", "import triprime.cli"])  # warm the bytecode cache
    import_s = time_import()

    plain = run(cli_argv(workload.cli + tail + [out["plain"]]))
    checks["untraced"] = check_output(workload, plain, out["plain"])

    count_argv = [sys.executable, trace_script, "count", result + ".count", "--"]
    if workload.reference_cli:
        # The traced run is single-process, so its untraced reference is a
        # separate single-process invocation; the counting pass, also
        # single-process, runs beside it on the second core.
        ref, counted = reap([Child(cli_argv(workload.reference_cli + tail + [out["ref"]])),
                             Child(count_argv + workload.reference_cli + tail + [out["count"]])])
        checks["reference"] = check_output(workload, ref, out["ref"])
    else:
        ref = plain
        counted = run(count_argv + workload.cli + tail + [out["count"]])
    checks["counting"] = check_output(workload, counted, out["count"])

    traced_cli = workload.reference_cli or workload.cli
    traced = run([sys.executable, trace_script, "spans", result, spans_path, "--"]
                 + traced_cli + tail + [out["traced"]])
    checks["traced"] = check_output(workload, traced, out["traced"])

    # A child that failed may have written nothing; its check has failed already.
    counts = {"perm.mul_calls": 0, "perm.inverse_calls": 0}
    spans = []
    if counted["rc"] == 0:
        with open(result + ".count", encoding="utf-8") as fh:
            counts = json.load(fh)
    if traced["rc"] == 0:
        with open(spans_path, encoding="utf-8") as fh:
            spans = [json.loads(line) for line in fh]
    exported = any(s["name"] == "exports.serialize" for s in spans)
    exports_bytes = os.path.getsize(out["traced"]) if exported else 0
    for path in list(out.values()) + [result, result + ".count"]:
        _remove(path)
        _remove(path + ".summary.json")

    metrics = span_metrics(spans, workload)
    metrics.update({
        "perm.mul_calls": (counts["perm.mul_calls"], "count"),
        "perm.inverse_calls": (counts["perm.inverse_calls"], "count"),
        "exports.bytes": (exports_bytes, "bytes"),
        "cli.import_s": (import_s, "s"),
        "cli.pool_efficiency": (plain["cpu_s"] / (2 * plain["wall_s"]), "ratio"),
        "trace.overhead_s": (traced["wall_s"] - ref["wall_s"], "s"),
    })
    failed = sum(not ok for ok, _ in checks.values())
    detail = {
        "checks": {k: why for k, (_, why) in checks.items()},
        "untraced": plain, "reference": ref, "traced": traced, "counting": counted,
        "spans": os.path.relpath(spans_path, ROOT), "span_count": len(spans),
        "note": "traced run and counting pass use --jobs 1: spans inside pool workers would be lost"
        if workload.reference_cli else "traced run uses the workload's own command",
    }
    return metrics, len(checks), failed, detail


# -- bookkeeping -----------------------------------------------------------


def _remove(path):
    try:
        os.remove(path)
    except FileNotFoundError:
        pass


def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "triprime")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def git_revision():
    """HEAD of a git checkout at the repository root, read without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    import numpy

    return {
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "cap": CAP,
    }


def repeat_flags(workload, seed, metrics):
    """Compare the exact counts with the last run of the same code and seed,
    and groups.exact_orders with its pinned value."""
    ledger_path = os.path.join(WORK, "counts.json")
    try:
        with open(ledger_path, encoding="utf-8") as fh:
            ledger = json.load(fh)
    except (OSError, ValueError):
        ledger = {}
    key = f"{workload.name}|seed={seed if workload.catalog else 'ignored'}|src={source_digest()}"
    counts = {k: metrics[k][0] for k in EXACT_COUNTS}
    flags = []
    if key in ledger:
        flags += [f"{k} changed from {ledger[key][k]} to {v} between runs of the same code"
                  for k, v in counts.items() if ledger[key].get(k) != v]
    ledger[key] = counts
    with open(ledger_path, "w", encoding="utf-8") as fh:
        json.dump(ledger, fh, indent=1, sort_keys=True)
    pinned = workload.exact_orders
    if counts["groups.exact_orders"] != pinned:
        flags.append(f"groups.exact_orders is {counts['groups.exact_orders']}, "
                     f"{pinned} at the baseline")
    return counts, flags


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "triprime", "cli.py")):
        print(f"error: no triprime sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)
    workload = WORKLOADS[args.workload]

    env = environment()
    env["loadavg_before"] = os.getloadavg()
    if args.trace:
        metrics, attempted, failed, detail = measure_traced(workload, args.seed)
        detail["exact_counts"], detail["count_flags"] = repeat_flags(workload, args.seed, metrics)
    else:
        metrics, attempted, failed, detail = measure(workload, args.seed, args.seconds)
    env["loadavg_after"] = os.getloadavg()

    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": env, "detail": detail,
              "metrics": {k: {"value": v if u in COUNT_UNITS else float(v), "unit": u}
                          for k, (v, u) in metrics.items()}}
    with open(os.path.join(WORK, f"{workload.name}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"environment: {json.dumps(env)}")
    for name, (value, unit) in metrics.items():
        print(f"{workload.name} {name} = {value:.6g} {unit}")
    print(f"{workload.name} error_rate = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} attempted)")
    if args.trace:
        print(f"note: {detail['note']}")
        print(f"exact counts, which must repeat between runs of the same code and seed: "
              f"{json.dumps(detail['exact_counts'])}")
    for flag in detail.get("count_flags", []):
        print(f"FLAG: {flag}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

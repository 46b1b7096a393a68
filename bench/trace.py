"""Child process of the benchmark: one in-process CLI run, traced or counted.

    python3 bench/trace.py spans RESULT.json SPANS.jsonl -- <cli arguments>
    python3 bench/trace.py count RESULT.json -- <cli arguments>

"spans" wraps the module-level functions that other triprime modules call at
run time and records one span per call (name, start, end, parent span, run
id). Spans are kept in memory and written out after the run. Nothing inside
the program is changed: the wrappers replace module attributes from outside.

"count" wraps only Permutation.__mul__ and Permutation.inverse with call
counters. It is a separate pass so that the spans' timings carry no counting
cost.

The caller puts the program's source directory on PYTHONPATH.
"""

import json
import os
import sys
import time

from triprime import analysis, cli, exports, graph, groups, perm

# (module, attribute) of each traced function; span names use the module
# that defines the function, whichever module's binding is called.
TRACED = [
    (groups, "enumerate_elements"),
    (groups, "conjugacy_classes"),
    (groups, "two_generated_order"),
    (groups, "is_solvable"),
    (graph, "build_graph"),
    (graph, "diameter"),
    (graph, "_bfs_levels"),
    (analysis, "verify_theorem"),
    (exports, "edge_list"),
]
# Modules whose bindings are rebound: every one that imports a traced name.
MODULES = [groups, graph, analysis, exports, cli]


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.stack = []
        self.results = []  # (span, return value) pairs measured after the run

    def wrap(self, name, fn, keep_result=False):
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "run": self.run_id,
                    "parent": self.stack[-1]["id"] if self.stack else None}
            self.spans.append(span)
            self.stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
            if keep_result:
                self.results.append((span, result))
            return result

        return traced


def install_spans(tracer):
    """Rebind every traced function in every module that holds it."""
    for module, attr in TRACED:
        original = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        wrapper = tracer.wrap(name, original, keep_result=original is graph.build_graph)
        for m in MODULES:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)
    for fmt, fn in list(exports.FORMATS.items()):
        exports.FORMATS[fmt] = tracer.wrap("exports.serialize", fn)


def install_counters(counts):
    mul, inverse = perm.Permutation.__mul__, perm.Permutation.inverse

    def counted_mul(self, other):
        counts["perm.mul_calls"] += 1
        return mul(self, other)

    def counted_inverse(self):
        counts["perm.inverse_calls"] += 1
        return inverse(self)

    perm.Permutation.__mul__ = counted_mul
    perm.Permutation.inverse = counted_inverse


def main(argv):
    mode, result_path = argv[0], argv[1]
    rest = argv[argv.index("--") + 1:]
    if mode == "spans":
        tracer = Tracer(run_id=f"{os.getpid()}-{time.time_ns()}")
        install_spans(tracer)
        rc = cli.main(rest)
        for span, g in tracer.results:
            span["edges"] = int(g.adjacency.sum()) // 2
            span["adjacency_bytes"] = int(g.adjacency.nbytes)
        with open(argv[2], "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        result = {"rc": rc, "run": tracer.run_id}
    elif mode == "count":
        counts = {"perm.mul_calls": 0, "perm.inverse_calls": 0}
        install_counters(counts)
        rc = cli.main(rest)
        result = {"rc": rc, **counts}
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

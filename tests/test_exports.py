import csv
import io
import json
import re
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_graph import small_groups
from triprime import exports
from triprime.graph import build_graph
from triprime.groups import catalog

GRAPHML = "{http://graphml.graphdrawing.org/xmlns}"
DOT_EDGE = re.compile(r"^  n(\d+) -- n(\d+);$", re.M)


def written(fmt, graph):
    fh = io.StringIO()
    exports.FORMATS[fmt](graph, fh)
    return fh.getvalue()


def json_reference(graph):
    """The whole payload built in memory and dumped in one call."""
    table = graph.table
    payload = {
        "k": graph.k,
        "vertices": [
            {"id": int(v), "label": exports.vertex_label(table, int(v)), "order": int(table.order_of[v])}
            for v in graph.vertices
        ],
        "edges": np.argwhere(np.triu(graph.adjacency, 1)).tolist(),
        "isolated_count": int(graph.isolated.sum()),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def label_index(label):
    return int(label.split(":", 1)[0])


class TestFormatsParse:
    # every format read back by a standard reader gives the adjacency's edge set
    @settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @given(group=small_groups(), k=st.sampled_from([2, 3]))
    @example(group=catalog("symmetric", 4), k=3)  # no edges, no vertices
    def test_formats_parse_to_the_edge_set(self, group, k):
        graph = build_graph(group.element_table(), k=k)
        expected = [tuple(e) for e in np.argwhere(np.triu(graph.adjacency, 1)).tolist()]
        vertices = graph.vertices.tolist()

        text = written("json", graph)
        assert text == json_reference(graph)
        doc = json.loads(text)
        assert [tuple(e) for e in doc["edges"]] == expected
        assert [v["id"] for v in doc["vertices"]] == vertices

        rows = list(csv.reader(io.StringIO(written("csv", graph), newline="")))
        assert rows[0] == ["source", "target"]
        assert [(label_index(a), label_index(b)) for a, b in rows[1:]] == expected

        root = ET.fromstring(written("graphml", graph))
        g = root.find(f"{GRAPHML}graph")
        assert [int(n.get("id")[1:]) for n in g.iter(f"{GRAPHML}node")] == vertices
        edges = [(int(e.get("source")[1:]), int(e.get("target")[1:])) for e in g.iter(f"{GRAPHML}edge")]
        assert edges == expected

        dot = written("dot", graph)
        assert dot.startswith("graph triprime {\n") and dot.endswith("}\n")
        assert [tuple(map(int, m)) for m in DOT_EDGE.findall(dot)] == expected
        assert dot.count(" [label=") == len(vertices)


class _CountingSink:
    def __init__(self):
        self.length = 0

    def write(self, text):
        self.length += len(text)


@pytest.fixture(scope="module")
def a6_k2():
    return build_graph(catalog("alternating", 6).element_table(), k=2)


@pytest.mark.parametrize("fmt", sorted(exports.FORMATS))
def test_writer_holds_less_than_its_output(a6_k2, fmt):
    # the writers stream row by row: what they allocate at once stays below
    # the size of what they write
    sink = _CountingSink()
    tracemalloc.start()
    try:
        exports.FORMATS[fmt](a6_k2, sink)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.length > 0
    assert peak < sink.length

import csv
import hashlib
import io
import json
import re
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strategies import small_groups
from triprime import exports
from triprime.graph import build_graph
from triprime.groups import catalog

GRAPHML = "{http://graphml.graphdrawing.org/xmlns}"
DOT_EDGE = re.compile(r"^  n(\d+) -- n(\d+);$", re.M)


def written(fmt, graph):
    fh = io.BytesIO()
    exports.FORMATS[fmt](graph, fh)
    return fh.getvalue().decode("utf-8")


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
    @example(group=catalog("dihedral", 30), k=3)  # edges and isolated vertices
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


# sha256 of each writer's output encoded as UTF-8: the bytes stay fixed as the writers change
PINNED = {
    ("alternating", 6, 2): {
        "csv": "ffa3933e7e91618ab6c5b34b5cf27914f022988e108d7e21e7308035173702c9",
        "dot": "0db9d762cb3cdc6b7e935c68aea203728f8c3459eb570af7297d456586a4cfb4",
        "graphml": "56cbed30f1e65df105edc281da065da11d420d71962da43ce459f307ebc2b87c",
        "json": "139f41a2543d582a52d81ef5ff9a319c2d5917a574b376b92042cb8ac296557c",
    },
    ("dihedral", 30, 3): {
        "csv": "f233106976744e1a466ba496921f635d87e61f0e8c740e2d3e58cf86ce780158",
        "dot": "90d9327ae86824a1707c7e88b6183d1eefeb3e501b90fc3baf876e4f70431644",
        "graphml": "d3d6a5683384939afc416b10f1de37448ee8ad60e025f081509db5880f1d38cf",
        "json": "95ca036f8ad9301f235b579d8422d6a17fa7f84f43bc44e1ec119eb144554acd",
    },
    ("dihedral", 210, 3): {  # 53 non-central classes, 8 rational ones
        "csv": "40c421cb5a8bd118ee98d89bef1e1abe7969928389bcfeb0f6ec8bce37485956",
        "dot": "c04f92c78c6f61a9c8ac4bb4851ceea54bf5415a3cc01f29358ac7d611e9dd01",
        "graphml": "d6506bb78064639d6a81373bf3fba4bc549ea424c7f238151cfbe40efc8dce33",
        "json": "e338c2f31b14172e0bdba636ceb9b93ec87a2e4a2d86f08094572dcd3ef94f92",
    },
    ("sl23_example", None, 3): {  # n = 1512: edges with 1- to 4-digit targets
        "csv": "773b835605b2db179d81d6deed6aea4d70adc89062625ad81ba302d3fbef188c",
        "dot": "8b57494cb1bcf994c2665435fbdf312f3635f7518eec1dae2fe1399f9748e784",
        "graphml": "c6181ab83dd40a25521a482d6531057f30732fedc560d6d4e438180f44f5b6e8",
        "json": "ad774cd745601d4306a9d040562a023f17d5f8a20480d37222b2d1c0da47c352",
    },
}


@pytest.mark.parametrize("family,n,k", sorted(PINNED))
def test_writers_keep_their_bytes(family, n, k):
    graph = build_graph(catalog(family, n).element_table(), k=k)
    digests = {fmt: hashlib.sha256(written(fmt, graph).encode("utf-8")).hexdigest() for fmt in exports.FORMATS}
    assert digests == PINNED[family, n, k]


class _CountingSink:
    def __init__(self):
        self.length = 0

    def write(self, data):
        self.length += memoryview(data).nbytes


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

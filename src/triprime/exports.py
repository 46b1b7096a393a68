"""Deterministic graph exports: DOT, GraphML, CSV edge list, JSON.

Vertices are labeled "index:cycles:order"; isolated vertices are excluded.
Each writer streams UTF-8 bytes to a binary handle, one adjacency row at a
time. DOT, GraphML and JSON name a vertex by its decimal index, so each
row of their edge lines is one array of records padded to the widest index
(see _write_records); CSV's quoted labels have no common width, and each
CSV row is one join of its neighbours' labels.
"""

import csv
import json
from html import escape

import numpy as np

from .perm import format_cycles


def vertex_label(table, i):
    return f"{i}:{format_cycles(table.elements[i])}:{table.order_of[i]}"


def edge_list(graph):
    """(i, js) for each i with neighbours js > i, ascending; js sorted."""
    adjacency = graph.adjacency
    for i in graph.vertices.tolist():
        js = np.flatnonzero(adjacency[i, i + 1:])
        if len(js):
            yield i, js + (i + 1)


def _write_records(fh, graph, head, end, skip=0):
    """Write head.format(i) + str(j) + end for each edge i < j, in edge_list
    order, less the first `skip` bytes of the first edge; return the number
    of edges.

    Each row is written as one array of records: the row's head, broadcast,
    then str(j) + end, gathered from one table of those tails, whose S dtype
    pads each tail with NULs to the widest. The js of a row ascend, so a row
    whose first tail is widest holds no padding and is written as it lies;
    any other row drops its padding, as no head or tail holds a NUL.
    """
    tails = np.array([f"{j}{end}".encode() for j in range(graph.n)])
    widest = 10 ** (len(str(graph.n - 1)) - 1)  # the least j of the widest tail
    edges = 0
    for i, js in edge_list(graph):
        h = head.format(i).encode()
        records = np.empty(len(js), dtype=[("head", f"S{len(h)}"), ("tail", tails.dtype)])
        records["head"] = h
        records["tail"] = tails[js]
        data = records.view(np.uint8) if js[0] >= widest else records.tobytes().replace(b"\0", b"")
        fh.write(data[skip:] if skip and not edges else data)
        edges += len(js)
    return edges


def to_dot(graph, fh):
    fh.write(b"graph triprime {\n")
    for v in graph.vertices.tolist():
        fh.write(f'  n{v} [label="{vertex_label(graph.table, v)}"];\n'.encode())
    _write_records(fh, graph, "  n{} -- n", ";\n")
    fh.write(b"}\n")


def to_graphml(graph, fh):
    fh.write(
        b'<?xml version="1.0" encoding="UTF-8"?>\n'
        b'<graphml xmlns="http://graphml.graphdrawing.org/xmlns">\n'
        b'  <key id="label" for="node" attr.name="label" attr.type="string"/>\n'
        b'  <graph id="triprime" edgedefault="undirected">\n'
    )
    for v in graph.vertices.tolist():
        label = escape(vertex_label(graph.table, v), quote=False)
        fh.write(f'    <node id="n{v}"><data key="label">{label}</data></node>\n'.encode())
    _write_records(fh, graph, '    <edge source="n{}" target="n', '"/>\n')
    fh.write(b"  </graph>\n</graphml>\n")


class _Echo:
    """A csv.writer target: writerow returns the line it formats."""
    write = staticmethod(lambda line: line)


def to_csv(graph, fh):
    """One write per row i: names[i] + "," + names[j] + "\\n" for each edge."""
    line = csv.writer(_Echo(), lineterminator="\n").writerow
    fh.write(line(["source", "target"]).encode())
    names = np.empty(graph.n, dtype=object)
    names[graph.vertices] = [line([vertex_label(graph.table, v)])[:-1] for v in graph.vertices.tolist()]
    for i, js in edge_list(graph):
        h = names[i] + ","
        fh.write((h + ("\n" + h).join(names[js]) + "\n").encode())


def to_json(graph, fh):
    """json.dumps(payload, indent=2, sort_keys=True) byte for byte. The rows go
    in place of '"edges": []', which sorts first; labels cannot contain it."""
    table = graph.table
    payload = {
        "k": graph.k,
        "vertices": [
            {"id": v, "label": vertex_label(table, v), "order": int(table.order_of[v])}
            for v in graph.vertices.tolist()
        ],
        "edges": [],
        "isolated_count": int(graph.isolated.sum()),
    }
    head, tail = json.dumps(payload, indent=2, sort_keys=True).split('"edges": []', 1)
    fh.write((head + '"edges": [').encode())
    edges = _write_records(fh, graph, ",\n    [\n      {},\n      ", "\n    ]", skip=1)
    fh.write((("\n  ]" if edges else "]") + tail + "\n").encode())


FORMATS = {"dot": to_dot, "graphml": to_graphml, "csv": to_csv, "json": to_json}


def summary(graph):
    return {
        "k": graph.k,
        "order": graph.n,
        "vertex_count": int(len(graph.vertices)),
        "edge_count": int(np.count_nonzero(graph.adjacency)) // 2,
        "isolated_count": int(graph.isolated.sum()),
    }

"""Deterministic graph exports: DOT, GraphML, CSV edge list, JSON.

Vertices are labeled "index:cycles:order"; isolated vertices are excluded.
Each writer streams to a text handle, one adjacency row at a time. It formats
one string per vertex once (the decimal index, or the CSV-quoted label), and
each row is one join of its neighbours' strings between the row's fixed parts.
"""

import csv
import json
from html import escape

import numpy as np

from .perm import format_cycles


def vertex_label(table, i):
    return f"{i}:{format_cycles(table.elements[i])}:{table.order_of[i]}"


def edge_list(graph, names):
    """(i, names[js]) for each i with neighbours js > i, ascending; js sorted."""
    adjacency = graph.adjacency
    for i in graph.vertices.tolist():
        js = np.flatnonzero(adjacency[i, i + 1:])
        if len(js):
            yield i, names[js + i + 1]


def _index_names(graph):
    return np.array([str(v) for v in range(graph.n)], dtype=object)


def _write_rows(fh, graph, names, head, end):
    """One write per row i: head.format(names[i]) + names[j] + end for each edge."""
    for i, row in edge_list(graph, names):
        h = head.format(names[i])
        fh.write(h + (end + h).join(row) + end)


def to_dot(graph, fh):
    fh.write("graph triprime {\n")
    for v in graph.vertices.tolist():
        fh.write(f'  n{v} [label="{vertex_label(graph.table, v)}"];\n')
    _write_rows(fh, graph, _index_names(graph), "  n{} -- n", ";\n")
    fh.write("}\n")


def to_graphml(graph, fh):
    fh.write(
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">\n'
        '  <key id="label" for="node" attr.name="label" attr.type="string"/>\n'
        '  <graph id="triprime" edgedefault="undirected">\n'
    )
    for v in graph.vertices.tolist():
        label = escape(vertex_label(graph.table, v), quote=False)
        fh.write(f'    <node id="n{v}"><data key="label">{label}</data></node>\n')
    _write_rows(fh, graph, _index_names(graph), '    <edge source="n{}" target="n', '"/>\n')
    fh.write("  </graph>\n</graphml>\n")


class _Echo:
    """A csv.writer target: writerow returns the line it formats."""
    write = staticmethod(lambda line: line)


def to_csv(graph, fh):
    line = csv.writer(_Echo(), lineterminator="\n").writerow
    fh.write(line(["source", "target"]))
    names = np.empty(graph.n, dtype=object)
    names[graph.vertices] = [line([vertex_label(graph.table, v)])[:-1] for v in graph.vertices.tolist()]
    _write_rows(fh, graph, names, "{},", "\n")


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
    fh.write(head + '"edges": [')
    sep = "\n"
    for i, row in edge_list(graph, _index_names(graph)):
        h = f"    [\n      {i},\n      "
        fh.write(sep + h + ("\n    ],\n" + h).join(row) + "\n    ]")
        sep = ",\n"
    fh.write(("]" if sep == "\n" else "\n  ]") + tail + "\n")


FORMATS = {"dot": to_dot, "graphml": to_graphml, "csv": to_csv, "json": to_json}


def summary(graph):
    return {
        "k": graph.k,
        "order": graph.n,
        "vertex_count": int(len(graph.vertices)),
        "edge_count": int(np.count_nonzero(graph.adjacency)) // 2,
        "isolated_count": int(graph.isolated.sum()),
    }

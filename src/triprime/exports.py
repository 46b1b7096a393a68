"""Deterministic graph exports: DOT, GraphML, CSV edge list, JSON.

Vertices are labeled "index:cycles:order"; isolated vertices are excluded.
Each writer streams to a text handle, one adjacency row at a time.
"""

import csv
import json
from xml.sax.saxutils import escape

import numpy as np

from .perm import format_cycles


def vertex_label(table, i):
    return f"{i}:{format_cycles(table.elements[i])}:{table.order_of[i]}"


def edge_list(graph):
    """(i, js) for each non-isolated i, ascending; js are its neighbours j > i, sorted."""
    adjacency = graph.adjacency
    for i in graph.vertices.tolist():
        yield i, (np.flatnonzero(adjacency[i, i + 1:]) + i + 1).tolist()


def to_dot(graph, fh):
    fh.write("graph triprime {\n")
    for v in graph.vertices.tolist():
        fh.write(f'  n{v} [label="{vertex_label(graph.table, v)}"];\n')
    for i, js in edge_list(graph):
        fh.write("".join(f"  n{i} -- n{j};\n" for j in js))
    fh.write("}\n")


def to_graphml(graph, fh):
    fh.write(
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">\n'
        '  <key id="label" for="node" attr.name="label" attr.type="string"/>\n'
        '  <graph id="triprime" edgedefault="undirected">\n'
    )
    for v in graph.vertices.tolist():
        label = escape(vertex_label(graph.table, v))
        fh.write(f'    <node id="n{v}"><data key="label">{label}</data></node>\n')
    for i, js in edge_list(graph):
        fh.write("".join(f'    <edge source="n{i}" target="n{j}"/>\n' for j in js))
    fh.write("  </graph>\n</graphml>\n")


def to_csv(graph, fh):
    labels = {v: vertex_label(graph.table, v) for v in graph.vertices.tolist()}
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["source", "target"])
    for i, js in edge_list(graph):
        writer.writerows((labels[i], labels[j]) for j in js)


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
    for i, js in edge_list(graph):
        if js:
            fh.write(sep + ",\n".join(f"    [\n      {i},\n      {j}\n    ]" for j in js))
            sep = ",\n"
    fh.write(("]" if sep == "\n" else "\n  ]") + tail + "\n")


FORMATS = {"dot": to_dot, "graphml": to_graphml, "csv": to_csv, "json": to_json}


def summary(graph):
    return {
        "k": graph.k,
        "order": graph.n,
        "vertex_count": int(len(graph.vertices)),
        "edge_count": int(graph.adjacency.sum()) // 2,
        "isolated_count": int(graph.isolated.sum()),
    }

"""Deterministic graph exports: DOT, GraphML, CSV edge list, JSON.

Vertices are labeled "index:cycles:order"; isolated vertices are excluded.
"""

import csv
import io
import json
from xml.sax.saxutils import escape

import numpy as np

from .perm import format_cycles


def vertex_label(table, i):
    return f"{i}:{format_cycles(table.elements[i])}:{table.order_of[i]}"


def edge_list(graph):
    """Sorted (i, j) pairs with i < j."""
    ii, jj = np.nonzero(np.triu(graph.adjacency))
    return list(zip(ii.tolist(), jj.tolist()))


def to_dot(graph):
    table = graph.table
    lines = ["graph triprime {"]
    for v in graph.vertices:
        lines.append(f'  n{int(v)} [label="{vertex_label(table, int(v))}"];')
    for i, j in edge_list(graph):
        lines.append(f"  n{i} -- n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_graphml(graph):
    table = graph.table
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        '  <key id="label" for="node" attr.name="label" attr.type="string"/>',
        '  <graph id="triprime" edgedefault="undirected">',
    ]
    for v in graph.vertices:
        label = escape(vertex_label(table, int(v)))
        lines.append(f'    <node id="n{int(v)}"><data key="label">{label}</data></node>')
    for i, j in edge_list(graph):
        lines.append(f'    <edge source="n{i}" target="n{j}"/>')
    lines += ["  </graph>", "</graphml>"]
    return "\n".join(lines) + "\n"


def to_csv(graph):
    table = graph.table
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["source", "target"])
    writer.writerows((vertex_label(table, i), vertex_label(table, j)) for i, j in edge_list(graph))
    return buf.getvalue()


def to_json(graph):
    table = graph.table
    payload = {
        "k": graph.k,
        "vertices": [
            {"id": int(v), "label": vertex_label(table, int(v)), "order": int(table.order_of[v])}
            for v in graph.vertices
        ],
        "edges": [[i, j] for i, j in edge_list(graph)],
        "isolated_count": int(graph.isolated.sum()),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


FORMATS = {"dot": to_dot, "graphml": to_graphml, "csv": to_csv, "json": to_json}


def summary(graph):
    return {
        "k": graph.k,
        "order": graph.n,
        "vertex_count": int(len(graph.vertices)),
        "edge_count": int(graph.adjacency.sum()) // 2,
        "isolated_count": int(graph.isolated.sum()),
    }

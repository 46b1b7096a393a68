"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import hashlib
import json
import time
from types import SimpleNamespace

import numpy as np
import pytest

from triprime.analysis import (
    check_fpf,
    check_rdivides,
    prime_graph,
    sigma_set,
    verify_theorem,
)
from triprime.graph import build_graph, diameter, distance, neighbor_order_profile
from triprime.groups import catalog, centralizer_elements, normal_closure, standard_catalog
from triprime.primes import prime_factors

from oracle import eccentricities, naive_adjacency


def announce(criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def sweep(sl23x):
    """Every standard catalog group built once, with its verification report."""
    bundles = {}
    t0 = time.perf_counter()
    for group in standard_catalog():
        if group.name == "sl23_example":
            table, graph = sl23x.table, sl23x.graph
        else:
            table = group.element_table()
            graph = build_graph(table)
        report = verify_theorem(group, graph=graph)
        bundles[group.name] = SimpleNamespace(
            group=group, table=table, graph=graph,
            diam=diameter(graph), report=report,
        )
    bundles["_elapsed"] = time.perf_counter() - t0
    return bundles


def test_criterion_1_d30_isolated_set():
    t0 = time.perf_counter()
    group = catalog("dihedral", 30)
    table = group.element_table()
    graph = build_graph(table)
    a = group.generators[0]
    expected = {table.index_of[a**i] for i in (0, 3, 5, 6, 9, 10, 12)}
    elapsed = time.perf_counter() - t0
    announce(
        "1 (isolated set of the order-30 dihedral group)",
        graph.isolated_vertices() == expected and elapsed < 1.0,
        f"{elapsed:.2f}s",
    )


def test_criterion_2_semidirect_example(sl23x):
    table, graph = sl23x.table, sl23x.graph
    x = next(i for i, o in enumerate(table.order_of) if o == 7)
    y = next(i for i, o in enumerate(table.order_of) if o == 2)
    profile_x = neighbor_order_profile(graph, x)
    profile_y = neighbor_order_profile(graph, y)
    d = distance(graph, x, y)
    runtime = sl23x.build_secs + sl23x.diam_secs
    announce(
        "2 (order-1512 example: neighbor orders and distance)",
        set(profile_x) == {6}
        and set(profile_y) <= {14, 21, 28}
        and len(profile_y) > 0
        and d is not None
        and d >= 3
        and runtime < 60.0,
        f"d(x,y)={d}, runtime {runtime:.1f}s",
    )


def test_criterion_3_theorem_sweep(sweep):
    required = {
        "cyclic(30)", "cyclic(105)", "dihedral(30)", "dihedral(210)",
        "frobenius21 x cyclic(2)", "alternating(5)", "symmetric(5)",
        "psl27", "sl23_example",
    }
    names = {n for n in sweep if not n.startswith("_")}
    assert required <= names
    checked = []
    max_diam = 0
    for name in sorted(names):
        b = sweep[name]
        order = len(b.table.elements)
        if order > 5000 or len(prime_factors(order)) < 3 or b.diam.status == "empty":
            continue
        checked.append(name)
        assert b.diam.status == "connected", f"{name} disconnected: {b.diam.witness}"
        assert b.diam.value <= 5, f"{name} diameter {b.diam.value}"
        max_diam = max(max_diam, b.diam.value)
    announce(
        "3 (catalog sweep: connected, diameter at most 5)",
        len(checked) >= 9 and sweep["_elapsed"] < 300.0,
        f"{len(checked)} groups, max diameter {max_diam}, {sweep['_elapsed']:.0f}s",
    )


def test_catalog_reports_match_golden_digest(sweep):
    # the digest of `triprime verify --catalog-all --stable` output, in catalog order
    text = "".join(
        json.dumps(b.report.to_dict(), sort_keys=True) + "\n"
        for name, b in sweep.items() if not name.startswith("_")
    )
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == "d7cd81d43ca7b60f32ec9b36870715cf52617477fc2b9916ef977bfd4da957e6"


def test_criterion_4_dominating_element_suite(sweep):
    applicable = []
    for name, b in sweep.items():
        if name.startswith("_"):
            continue
        if max(len(ps) for ps in b.table.primes_of) < 3:
            continue
        applicable.append(name)
        assert len(b.graph.isolated_vertices()) == 0, name
        assert b.diam.status == "connected" and b.diam.value <= 2, name
    announce(
        "4 (element with three prime divisors dominates)",
        len(applicable) >= 3,
        f"groups: {', '.join(sorted(applicable))}",
    )


def test_criterion_5_sigma_distance_suites(sweep):
    pair_checked = near_checked = 0
    for name, b in sweep.items():
        if name.startswith("_"):
            continue
        outcomes = {l.name: l.outcome for l in b.report.lemmas}
        if len(prime_factors(len(b.table.elements))) >= 3:
            assert outcomes["sigma_pairs_within_2"] == "pass", name
            pair_checked += 1
        if b.report.solvable and len(b.graph.vertices) > 0:
            assert outcomes["vertex_near_sigma"] == "pass", name
            near_checked += 1
    announce(
        "5 (multi-prime elements pairwise close; vertices near them)",
        pair_checked >= 9 and near_checked >= 6,
        f"{pair_checked} pair suites, {near_checked} nearness suites",
    )


def test_criterion_6_higman_suite(sweep):
    checked = 0
    for name, b in sweep.items():
        if name.startswith("_"):
            continue
        if not b.report.solvable:
            continue
        checked += 1
        sigma = sigma_set(b.table)
        if len(b.graph.vertices) > 0:
            assert sigma, f"{name}: vertices exist but no multi-prime element"
        if not sigma:  # every element has prime-power order
            assert len(prime_factors(len(b.table.elements))) <= 2, name
    announce("6 (solvable prime-power-order groups have at most two primes)",
             checked >= 8, f"{checked} solvable groups")


def test_criterion_7_translate_lemma_suites():
    t0 = time.perf_counter()
    cases = []
    d30 = catalog("dihedral", 30)
    a = d30.generators[0]
    cases.append((d30, [a**3]))  # C5
    cases.append((d30, [a**5]))  # C3
    s4 = catalog("symmetric", 4)
    from triprime.perm import from_cycles

    cases.append((s4, [from_cycles([(0, 1), (2, 3)], 4)]))  # Klein four group
    f21 = catalog("frobenius21")
    cases.append((f21, [f21.generators[0]]))  # C7
    sl23 = catalog("sl23")
    table23 = sl23.element_table()
    central = next(p for i, p in enumerate(table23.elements) if table23.order_of[i] == 2)
    cases.append((sl23, [central]))  # the center, order 2

    instances = 0
    for group, seeds in cases:
        table = group.element_table()
        n_idx = set(np.flatnonzero(normal_closure(table, seeds)).tolist())
        size = len(table.elements)
        for x1 in range(size):
            for x2 in range(size):
                out = check_rdivides(table, n_idx, x1, x2)
                assert out.outcome == "pass", (group.name, x1, x2)
                instances += 1
        for x in range(size):
            if centralizer_elements(table, n_idx, x) != {0}:
                continue
            for y in range(size):
                out = check_fpf(table, n_idx, x, y)
                assert out.outcome == "pass", (group.name, x, y)
                instances += 1
    elapsed = time.perf_counter() - t0
    announce(
        "7 (translate-divisibility brute-force suites)",
        elapsed < 120.0,
        f"{instances} instances, {elapsed:.0f}s",
    )


def test_criterion_8_oracle_equivalence(sweep):
    bit_identical = 0
    for name, b in sweep.items():
        if name.startswith("_") or len(b.table.elements) > 200:
            continue
        assert np.array_equal(naive_adjacency(b.table), b.graph.adjacency), name
        bit_identical += 1
    ecc_groups = 0
    for name, b in sweep.items():
        if name.startswith("_") or len(b.table.elements) > 500 or not len(b.graph.vertices):
            continue
        ecc = eccentricities(b.graph, b.graph.vertices)
        for cid, rep in enumerate(b.table.class_reps):
            if b.graph.isolated[rep]:
                continue
            assert len({ecc[m] for m in b.table.class_members(cid)}) == 1, name
        ecc_groups += 1
    announce(
        "8 (naive = symmetry-reduced; class-constant eccentricity)",
        bit_identical >= 8 and ecc_groups >= 6,
        f"{bit_identical} matrices, {ecc_groups} eccentricity groups",
    )


def test_criterion_9_prime_graphs(sweep):
    pg_d30 = prime_graph(sweep["dihedral(30)"].table)
    pg_c30 = prime_graph(sweep["cyclic(30)"].table)
    announce(
        "9 (prime graphs of the order-30 dihedral and cyclic groups)",
        pg_d30.vertices == {2, 3, 5}
        and pg_d30.edges == {frozenset((3, 5))}
        and len(pg_d30.components) == 2
        and pg_c30.edges == {frozenset(e) for e in ((2, 3), (2, 5), (3, 5))},
    )


def test_criterion_10_performance(sl23x):
    runtime = sl23x.build_secs + sl23x.diam_secs
    classes = len(sl23x.table.class_reps)
    bound = (classes + 2) * len(sl23x.table.elements)
    announce(
        "10 (diameter runtime and chain-construction budget)",
        runtime < 60.0 and sl23x.graph.chain_builds <= bound,
        f"{runtime:.1f}s single-worker, {sl23x.graph.chain_builds} chains <= {bound}",
    )


def test_criterion_10_parallel_performance(sl23x):
    # the 8-worker bound of criterion 10b, met by the serial build
    t0 = time.perf_counter()
    graph = build_graph(sl23x.table)
    diameter(graph)
    elapsed = time.perf_counter() - t0
    announce("10b (diameter under 15s)", elapsed < 15.0, f"{elapsed:.1f}s")

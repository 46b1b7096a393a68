import gc
import hashlib
import inspect
import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from oracle import distance_rows
from triprime.analysis import (
    check_fpf,
    check_higman,
    check_rdivides,
    is_path_on_three,
    omega_set,
    prime_graph,
    sigma_set,
    verify_theorem,
)
from triprime import graph as graphmod
from triprime.graph import NonFGraph, build_graph
from triprime.groups import catalog, direct_product, enumerate_elements, is_solvable, standard_catalog
from triprime.perm import Permutation
from triprime.primes import is_squarefree, prime_factors


class TestPrimeFactors:
    def test_one(self):
        assert prime_factors(1) == frozenset()

    def test_thirty(self):
        assert prime_factors(30) == {2, 3, 5}

    def test_example_order(self):
        assert prime_factors(1512) == {2, 3, 7}  # 1512 = 2^3 * 3^3 * 7

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            prime_factors(0)

    def test_squarefree(self):
        assert is_squarefree(105)
        assert not is_squarefree(12)

    def test_squarefree_zero_rejected(self):
        with pytest.raises(ValueError, match="is_squarefree requires n >= 1, got 0"):
            is_squarefree(0)


class TestSigma:
    def test_p_group_empty(self):
        assert sigma_set(catalog("cyclic", 8).element_table()) == set()

    def test_d30(self, d30):
        sigma = sigma_set(d30.table)
        assert len(sigma) == 8
        assert all(d30.table.order_of[i] == 15 for i in sigma)

    def test_c30_phi_counting(self, c30):
        # oracle: phi(6) + phi(10) + phi(15) + phi(30) = 2 + 4 + 8 + 8
        assert len(sigma_set(c30.table)) == 22

    def test_sigma_empty_iff_eppo(self):
        for group in (catalog("frobenius21"), catalog("psl27"), catalog("sl23")):
            table = group.element_table()
            eppo = all(len(ps) <= 1 for ps in table.primes_of)
            assert (sigma_set(table) == set()) == eppo


class TestOmega:
    def test_not_squarefree_rejected(self, d30):
        with pytest.raises(ValueError):
            omega_set(d30.graph, 4)

    def test_d30_sets(self, d30):
        t = d30.table
        assert omega_set(d30.graph, 15) == {i for i, o in enumerate(t.order_of) if o == 15}
        assert omega_set(d30.graph, 2) == {i for i, o in enumerate(t.order_of) if o == 2}
        assert omega_set(d30.graph, 3) == set()  # order-3 elements are isolated
        assert omega_set(d30.graph, 5) == set()

    def test_omega_one_excludes_isolated_identity(self, d30):
        assert omega_set(d30.graph, 1) == set()

    def test_partition_for_three_prime_group(self, d30):
        # the supports {p}, {q}, {r}, {pq}, {pr}, {qr}, {pqr} partition the vertex set
        p, q, r = sorted(prime_factors(30))
        parts = [omega_set(d30.graph, n) for n in (p, q, r, p * q, p * r, q * r, p * q * r)]
        union = set().union(*parts)
        assert union == set(int(v) for v in d30.graph.vertices)
        assert sum(len(s) for s in parts) == len(union)


class TestPrimeGraph:
    def test_c30_triangle(self, c30):
        pg = prime_graph(c30.table)
        assert pg.vertices == {2, 3, 5}
        assert pg.edges == {frozenset(e) for e in ((2, 3), (2, 5), (3, 5))}
        assert pg.components == [{2, 3, 5}]

    def test_d30_single_edge(self, d30):
        pg = prime_graph(d30.table)
        assert pg.vertices == {2, 3, 5}
        assert pg.edges == {frozenset((3, 5))}
        assert pg.components == [{2}, {3, 5}]

    def test_edges_require_exact_order(self, d30):
        # oracle: scan of the order multiset; D30 has no elements of order 6 or 10
        orders = set(d30.table.order_of)
        assert 15 in orders and 6 not in orders and 10 not in orders

    def test_sl23_example(self, sl23x):
        pg = prime_graph(sl23x.table)
        assert pg.vertices == {2, 3, 7}
        assert pg.edges == {frozenset(e) for e in ((2, 3), (2, 7), (3, 7))}

    @pytest.mark.parametrize(
        "group",
        [catalog("frobenius21"), catalog("psl27"), catalog("symmetric", 5)],
        ids=lambda g: g.name,
    )
    def test_matches_order_multiset_oracle(self, group):
        table = group.element_table()
        pg = prime_graph(table)
        primes = sorted(prime_factors(len(table.elements)))
        orders = set(table.order_of)
        for a in range(len(primes)):
            for b in range(a + 1, len(primes)):
                expected = primes[a] * primes[b] in orders
                assert (frozenset((primes[a], primes[b])) in pg.edges) == expected


class TestPathOnThree:
    def _pg(self, vertices, edges):
        from triprime.analysis import PrimeGraph

        return PrimeGraph(frozenset(vertices), {frozenset(e) for e in edges}, [])

    def test_triangle(self):
        assert is_path_on_three(self._pg({2, 3, 5}, [(2, 3), (2, 5), (3, 5)])) is None

    def test_isolated_vertex(self):
        assert is_path_on_three(self._pg({2, 3, 5}, [(3, 5)])) is None

    def test_path(self):
        assert is_path_on_three(self._pg({2, 3, 7}, [(2, 7), (7, 3)])) == (2, 7, 3)

    def test_wrong_vertex_count(self):
        assert is_path_on_three(self._pg({2, 3}, [(2, 3)])) is None


class TestHigman:
    def test_d30_passes(self, d30):
        out = check_higman(is_solvable(d30.table), sigma_set(d30.table), d30.graph)
        assert out.outcome == "pass"

    def test_two_prime_group_vacuous(self):
        group = catalog("sl23")
        table = group.element_table()
        graph = build_graph(table)
        assert check_higman(is_solvable(table), sigma_set(table), graph).outcome == "pass"

    def test_psl27_not_applicable(self):
        # non-solvable, and notably all its element orders are prime powers
        group = catalog("psl27")
        table = group.element_table()
        assert set(table.order_of) == {1, 2, 3, 4, 7}
        graph = build_graph(table)
        assert check_higman(is_solvable(table), sigma_set(table), graph).outcome == "not-applicable"

    def test_verify_derives_solvability_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr("triprime.analysis.is_solvable", lambda t: calls.append(t) or is_solvable(t))
        group = catalog("dihedral", 30)
        verify_theorem(group, build_graph(group.element_table()))
        assert len(calls) == 1


def rotation_subgroup_indices(d30, power):
    # indices of the cyclic subgroup generated by a^power
    a = d30.group.generators[0]
    members = {0}
    g = a**power
    p = g
    while not p.is_identity():
        members.add(d30.table.index_of[p])
        p = p * g
    return members


class TestRdivides:
    def test_identity_pair(self, d30):
        n5 = rotation_subgroup_indices(d30, 3)  # order 5
        out = check_rdivides(d30.table, n5, 0, 0)
        assert out.outcome == "pass"

    def test_d30_reflections(self, d30):
        a, b = d30.group.generators
        n5 = rotation_subgroup_indices(d30, 3)
        x1 = d30.table.index_of[b]
        x2 = d30.table.index_of[b * a]
        assert check_rdivides(d30.table, n5, x1, x2).outcome == "pass"

    def test_rejects_non_normal_subset(self, d30):
        b = d30.group.generators[1]
        subset = {0, d30.table.index_of[b]}
        with pytest.raises(ValueError, match="normal"):
            check_rdivides(d30.table, subset, 1, 2)

    def test_rejects_normal_non_subgroup(self, d30):
        # the class {a^5, a^10} is normal, of prime size 2, but lacks e
        a = d30.group.generators[0]
        subset = {d30.table.index_of[a**5], d30.table.index_of[a**10]}
        with pytest.raises(ValueError, match="subgroup"):
            check_rdivides(d30.table, subset, 1, 2)

    def test_rejects_non_prime_power(self, d30):
        rotations = rotation_subgroup_indices(d30, 1)  # order 15
        with pytest.raises(ValueError, match="prime power"):
            check_rdivides(d30.table, rotations, 1, 2)


class TestFpf:
    def test_d30_reflection(self, d30):
        b = d30.group.generators[1]
        n5 = rotation_subgroup_indices(d30, 3)
        out = check_fpf(d30.table, n5, d30.table.index_of[b], 0)
        assert out.outcome == "pass"

    def test_centralizer_violation_not_applicable(self, d30):
        a = d30.group.generators[0]
        n5 = rotation_subgroup_indices(d30, 3)
        out = check_fpf(d30.table, n5, d30.table.index_of[a], 0)
        assert out.outcome == "not-applicable"


def test_one_build_path_and_one_table_per_report():
    # the graph is built one way, and a report reads the table of its own graph
    assert list(inspect.signature(build_graph).parameters) == ["table", "k"]
    assert list(inspect.signature(verify_theorem).parameters) == ["group", "graph"]


def test_no_permutation_product_after_the_listing(monkeypatch):
    # once the catalog is listed, building and verifying multiply element
    # indices on the table only: no permutation product and no inverse
    tables = [(g, g.element_table()) for g in standard_catalog()]
    calls = Counter()
    for name in ("__mul__", "inverse"):
        method = getattr(Permutation, name)

        def counted(*args, name=name, method=method):
            calls[name] += 1
            return method(*args)

        monkeypatch.setattr(Permutation, name, counted)
    for k in (2, 3, 4):
        for group, table in tables:
            assert verify_theorem(group, build_graph(table, k=k)).group == group.name
    assert (calls["__mul__"], calls["inverse"]) == (0, 0)


class TestVerifyTheorem:
    def test_d30_report(self, d30):
        report = verify_theorem(d30.group, graph=d30.graph)
        assert report.ok
        assert report.status == "connected"
        assert report.diameter == 2
        assert report.isolated_count == 7
        assert report.solvable is True
        assert report.max_pi_tilde == 2
        assert report.sigma_count == 8

    def test_one_bfs_pass_per_nonisolated_class(self, monkeypatch):
        # dihedral(30) has 9 classes, 4 of them isolated; the 4 rotation
        # classes of order 15 generate one subgroup, so they are twins, and
        # one BFS serves them with one more for the reflections
        group = catalog("dihedral", 30)
        graph = build_graph(group.element_table())
        calls = []
        bfs_levels = graphmod._bfs_levels

        def counted(g, source):
            calls.append(source)
            return bfs_levels(g, source)

        monkeypatch.setattr(graphmod, "_bfs_levels", counted)
        assert verify_theorem(group, graph=graph).ok
        assert len(calls) == 2

    def test_s4_vacuous(self):
        group = catalog("symmetric", 4)
        report = verify_theorem(group, build_graph(group.element_table()))
        assert report.ok
        assert report.status == "empty"
        assert report.diameter is None
        assert report.isolated_count == 24

    def test_report_schema(self, d30):
        d = verify_theorem(d30.group, graph=d30.graph).to_dict()
        assert set(d) == {
            "group", "order", "primes", "solvable", "isolated_count", "status",
            "diameter", "max_pi_tilde", "sigma_count", "prime_graph", "lemmas",
        }
        assert set(d["prime_graph"]) == {"vertices", "edges", "components"}
        for lemma in d["lemmas"]:
            assert lemma["outcome"] in ("pass", "fail", "not-applicable")
            if lemma["outcome"] == "fail":
                assert "witness" in lemma

    def test_catalog_run_keeps_no_table(self):
        # a group keeps no table once its graph is verified: after the whole
        # catalog, less stays allocated than one sl23_example table
        groups = standard_catalog()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            table = enumerate_elements(catalog("sl23_example"))
            table_size = tracemalloc.get_traced_memory()[0] - start
            del table
            gc.collect()
            start = tracemalloc.get_traced_memory()[0]
            reports = [verify_theorem(g, build_graph(g.element_table())) for g in groups]
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert all(r.ok for r in reports)
        assert retained < table_size

    def test_four_prime_solvable_group(self):
        group = direct_product(catalog("cyclic", 6), catalog("cyclic", 35))
        report = verify_theorem(group, build_graph(group.element_table()))
        assert report.ok
        outcomes = {l.name: l.outcome for l in report.lemmas}
        assert outcomes["solvable_four_primes_diameter_le_3"] == "pass"
        assert outcomes["dominating_element"] == "pass"
        assert report.diameter <= 2


def _path_graph(table, skip=None):
    """Hand-built graph with edges (i, i+1), i < n-1, except i = skip."""
    n = len(table.elements)
    A = np.zeros((n, n), dtype=bool)
    for i in range(n - 1):
        if i != skip:
            A[i, i + 1] = A[i + 1, i] = True
    return NonFGraph(table=table, k=3, adjacency=A, isolated=~A.any(axis=1),
                     vertices=np.flatnonzero(A.any(axis=1)))


@pytest.mark.parametrize("name, n", [("dihedral", 30), ("frobenius21", None), ("symmetric", 5)])
def test_path_graphs_find_no_false_twin(monkeypatch, name, n):
    # on a hand-built path no two class representatives are twins, so every
    # source runs its own BFS and the rows are exact
    t = catalog(name, n).element_table()
    calls = []
    bfs_levels = graphmod._bfs_levels

    def counted(g, source):
        calls.append(source)
        return bfs_levels(g, source)

    monkeypatch.setattr(graphmod, "_bfs_levels", counted)
    for graph in (_path_graph(t), _path_graph(t, skip=len(t) // 2)):
        calls.clear()
        sources, dist = graphmod.rep_distances(graph)
        assert calls == sources
        assert np.array_equal(dist, distance_rows(graph, sources))


def test_failing_verdicts_pinned():
    # Every catalog claim passes, so this pins the "fail" outcomes and their
    # witnesses on graphs that are not the group's own graph.
    runs = []
    for group in (catalog("dihedral", 30), catalog("frobenius21"), catalog("symmetric", 5)):
        t = group.element_table()
        n = len(t.elements)
        runs += [(group, _path_graph(t)), (group, _path_graph(t, skip=n // 2)), (group, build_graph(t, k=2))]
    group = direct_product(catalog("cyclic", 6), catalog("cyclic", 35))
    runs.append((group, _path_graph(group.element_table())))
    reports = [verify_theorem(g, graph=graph) for g, graph in runs]
    text = "".join(json.dumps(r.to_dict(), sort_keys=True) + "\n" for r in reports)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "8f7286e284e641530d8767f8c15088c5cf40138546541bf745fba4d489c48607"
    )
    failed = {l.name for r in reports for l in r.lemmas if l.outcome == "fail"}
    assert failed == {l.name for l in reports[0].lemmas}
    assert len(failed) == 8

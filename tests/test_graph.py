import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triprime import graph as graph_module
from triprime import groups as groups_module
from triprime.graph import (
    IsolatedVertexError,
    adjacent,
    bfs,
    build_graph,
    diameter,
    diameter_from_rows,
    distance,
    neighbor_order_profile,
    rep_distances,
)
from triprime.groups import PermutationGroup, catalog, direct_product, standard_catalog, two_generated_order
from triprime.perm import Permutation, parse_cycles
from triprime.primes import prime_factors


def oracle_adjacency(table, k=3):
    # independent oracle: every unordered pair through a fresh subgroup order,
    # no prefilters, no symmetry
    n = len(table.elements)
    adj = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            hit = len(prime_factors(two_generated_order(table.elements[i], table.elements[j]))) >= k
            adj[i][j] = adj[j][i] = hit
    return adj


def oracle_all_pairs_distances(adj):
    # plain-python BFS from every non-isolated vertex
    n = len(adj)
    vertices = [i for i in range(n) if any(adj[i])]
    dist = {}
    for s in vertices:
        d = {s: 0}
        frontier = [s]
        while frontier:
            nxt = []
            for x in frontier:
                for y in range(n):
                    if adj[x][y] and y not in d:
                        d[y] = d[x] + 1
                        nxt.append(y)
            frontier = nxt
        dist[s] = d
    return vertices, dist


def eccentricities(graph, sources):
    """Eccentricity (and reachability) per source, one bfs call each."""
    out = {}
    for s in sources:
        rep = bfs(graph, int(s))
        out[int(s)] = (rep.eccentricity, rep.reaches_all)
    return out


def per_vertex_diameter(graph):
    """The diameter from a BFS row at every non-isolated vertex, not only at
    the class representatives."""
    sources = [int(v) for v in graph.vertices]
    return diameter_from_rows(graph, sources, graph_module._distance_rows(graph, sources))


class TestAdjacent:
    def test_self_never_adjacent(self, d30):
        assert adjacent(d30.table, 3, 3) is False

    def test_d30_rotations_not_adjacent(self, d30):
        a = d30.group.generators[0]
        i = d30.table.index_of[a]
        j = d30.table.index_of[a * a]
        assert adjacent(d30.table, i, j) is False  # <a, a^2> = C15, primes {3,5}

    def test_d30_rotation_reflection_adjacent(self, d30):
        a, b = d30.group.generators
        assert adjacent(d30.table, d30.table.index_of[a], d30.table.index_of[b]) is True

    def test_symmetric(self, d30):
        rng = random.Random(3)
        for _ in range(50):
            i, j = rng.randrange(30), rng.randrange(30)
            assert adjacent(d30.table, i, j) == adjacent(d30.table, j, i)


class TestBuildGraph:
    def test_c30_no_isolated(self, c30):
        assert c30.graph.isolated_vertices() == set()

    def test_d30_isolated_set(self, d30):
        a = d30.group.generators[0]
        expected = {d30.table.index_of[a**i] for i in (0, 3, 5, 6, 9, 10, 12)}
        assert d30.graph.isolated_vertices() == expected

    def test_two_prime_group_all_isolated(self):
        table = catalog("symmetric", 4).element_table()
        graph = build_graph(table)
        assert len(graph.isolated_vertices()) == 24
        assert len(graph.vertices) == 0

    def test_adjacency_symmetric_empty_diagonal(self, d30):
        adj = d30.graph.adjacency
        assert np.array_equal(adj, adj.T)
        assert not adj.diagonal().any()

    def test_matches_pairwise_oracle(self):
        for group in (catalog("dihedral", 30), catalog("symmetric", 5)):
            table = group.element_table()
            assert np.array_equal(build_graph(table).adjacency, np.array(oracle_adjacency(table)))

    @pytest.mark.parametrize(
        "group",
        [
            catalog("cyclic", 30),
            catalog("dihedral", 30),
            catalog("sl23"),
            catalog("symmetric", 4),
            catalog("alternating", 5),
            catalog("alternating", 6),
        ],
        ids=lambda g: g.name,
    )
    def test_naive_equals_symmetry_reduced(self, group):
        table = group.element_table()
        naive = build_graph(table, mode="naive")
        reduced = build_graph(table, mode="symmetry_reduced")
        assert np.array_equal(naive.adjacency, reduced.adjacency)

    def test_unknown_mode(self, d30):
        with pytest.raises(ValueError):
            build_graph(d30.table, mode="magic")

    def test_automorphism_invariance(self, d30):
        table = d30.table
        adj = d30.graph.adjacency
        rng = random.Random(5)
        for _ in range(5):
            g = rng.choice(table.elements)
            perm = [table.index_of[p.conjugate(g)] for p in table.elements]
            for _ in range(200):
                i, j = rng.randrange(30), rng.randrange(30)
                assert adj[i, j] == adj[perm[i], perm[j]]
            for i in range(30):
                assert d30.graph.isolated[i] == d30.graph.isolated[perm[i]]

    def test_k4_edges_subset_of_k3(self):
        # C210 on 41 points; sampled pairs, plus a known k=4-only non-edge
        group = direct_product(catalog("cyclic", 6), catalog("cyclic", 35))
        table = group.element_table()
        rng = random.Random(17)
        k4_edges = 0
        for _ in range(250):
            i, j = rng.randrange(210), rng.randrange(210)
            hit4 = adjacent(table, i, j, k=4)
            if hit4:
                k4_edges += 1
                assert adjacent(table, i, j, k=3)
        assert k4_edges > 0
        # order-6 and order-35 elements span all of C210: a k=3 and k=4 edge
        i = next(i for i, o in enumerate(table.order_of) if o == 6)
        j = next(j for j, o in enumerate(table.order_of) if o == 35)
        assert adjacent(table, i, j, k=4) and adjacent(table, i, j, k=3)
        # order-6 vs order-15: three primes only, so k=3 edge but not k=4
        m = next(m for m, o in enumerate(table.order_of) if o == 15)
        assert adjacent(table, i, m, k=3) and not adjacent(table, i, m, k=4)


class TestBfsAndDistance:
    def test_bfs_from_rotation(self, d30):
        a, b = d30.group.generators
        rep = bfs(d30.graph, d30.table.index_of[a])
        # all 15 reflections at distance 1; other order-15 rotations at 2
        for i in range(15):
            refl = d30.table.index_of[b * a**i]
            assert rep.distances[refl] == 1
        for i in (2, 4, 7, 8, 11, 13, 14):
            assert rep.distances[d30.table.index_of[a**i]] == 2
        assert rep.reaches_all
        assert rep.eccentricity == 2

    def test_bfs_rejects_isolated_source(self, d30):
        a = d30.group.generators[0]
        with pytest.raises(IsolatedVertexError):
            bfs(d30.graph, d30.table.index_of[a**3])

    def test_distance_self(self, d30):
        i = d30.table.index_of[d30.group.generators[0]]
        assert distance(d30.graph, i, i) == 0

    def test_distance_reflections(self, d30):
        a, b = d30.group.generators
        t = d30.table
        # b * (b a) = a has order 15, so <b, ba> = D30: adjacent
        assert distance(d30.graph, t.index_of[b], t.index_of[b * a]) == 1
        # b * (b a^3) = a^3 has order 5, so <b, b a^3> = D10: distance 2
        assert distance(d30.graph, t.index_of[b], t.index_of[b * a**3]) == 2

    def test_distance_rejects_isolated(self, d30):
        a = d30.group.generators[0]
        with pytest.raises(IsolatedVertexError):
            distance(d30.graph, d30.table.index_of[a**5], d30.table.index_of[a])

    def test_matches_all_pairs_oracle(self, d30):
        adj = oracle_adjacency(d30.table)
        vertices, dist = oracle_all_pairs_distances(adj)
        for s in vertices:
            rep = bfs(d30.graph, s)
            assert rep.distances == dist[s]


def brute_normalizer(table, r):
    # N_G(<x>): every g with g^-1 * x * g a power of x, by permutation products
    x = table.elements[r]
    powers = {x**m for m in range(table.order_of[r])}
    return [g for g in table.elements if g.inverse() * x * g in powers]


def brute_orbit(table, r, j, normalizer):
    # closure of j under j -> r*j, j -> j*r, j -> j^-1 and j -> g^-1 * j * g
    # for g in the normalizer, by permutation products
    x = table.elements[r]
    orbit = {j}
    frontier = [j]
    while frontier:
        nxt = []
        for m in frontier:
            y = table.elements[m]
            for z in [x * y, y * x, y.inverse()] + [g.inverse() * y * g for g in normalizer]:
                i = table.index_of[z]
                if i not in orbit:
                    orbit.add(i)
                    nxt.append(i)
        frontier = nxt
    return orbit


@st.composite
def small_groups(draw):
    """A subgroup of S_n, n <= 8, of order at most 200: of 2-4 random
    generators, each is kept only when the group stays that small, so no
    draw is rejected and the naive oracle stays fast."""
    n = draw(st.integers(min_value=2, max_value=8))
    gens = []
    for g in draw(st.lists(st.permutations(range(n)).map(Permutation), min_size=2, max_size=4)):
        if PermutationGroup(gens + [g]).order() <= 200:
            gens.append(g)
    return PermutationGroup(gens)


def top_down_levels(adjacency, source):
    # the plain dense BFS: each level reads the frontier's full rows
    n = len(adjacency)
    dist = np.full(n, -1, dtype=np.int32)
    dist[source] = 0
    frontier = np.zeros(n, dtype=bool)
    frontier[source] = True
    visited = frontier.copy()
    d = 0
    while frontier.any():
        d += 1
        frontier = adjacency[frontier].any(axis=0) & ~visited
        dist[frontier] = d
        visited |= frontier
    return dist


class TestBfsLevels:
    # the direction-optimizing BFS against the plain top-down one, from
    # every source, isolated ones included
    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_top_down_on_the_catalog(self, k):
        for group in standard_catalog():
            graph = build_graph(group.element_table(), k=k)
            for s in range(graph.n):
                assert np.array_equal(graph_module._bfs_levels(graph, s), top_down_levels(graph.adjacency, s))

    @settings(derandomize=True, deadline=None, database=None, max_examples=40)
    @given(group=small_groups(), k=st.sampled_from([2, 3]))
    def test_matches_top_down_on_small_groups(self, group, k):
        graph = build_graph(group.element_table(), k=k)
        for s in range(graph.n):
            assert np.array_equal(graph_module._bfs_levels(graph, s), top_down_levels(graph.adjacency, s))

    def test_peak_memory_under_half_the_matrix(self):
        # no level copies the frontier's full rows once the frontier is the
        # larger side: A7 at k = 2 reaches most vertices in one step
        graph = build_graph(catalog("alternating", 7).element_table(), k=2)
        tracemalloc.start()
        try:
            rep_distances(graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < graph.adjacency.nbytes / 2


class TestReducedBuild:
    @pytest.mark.parametrize(
        "name, n, total", [("dihedral", 30, 6), ("symmetric", 5, 35), ("psl27", None, 31)]
    )
    def test_one_call_per_undecided_orbit(self, monkeypatch, name, n, total):
        # a representative decides each orbit of j -> r*j, j*r, j^-1 and
        # conjugation by N_G(<r>) that the primes of r and j leave open and
        # whose members do not commute with r, once, at the orbit's least index
        table = catalog(name, n).element_table()
        calls = Counter()
        original = graph_module._adjacent_counted

        def counted(table, i, j, k):
            calls[i, j] += 1
            return original(table, i, j, k)

        monkeypatch.setattr(graph_module, "_adjacent_counted", counted)
        build_graph(table, mode="symmetry_reduced")
        expected = Counter()
        for r in table.class_reps:
            x = table.elements[r]
            normalizer = brute_normalizer(table, r)
            seen = set()
            for j in range(len(table)):
                if j in seen:
                    continue
                orbit = brute_orbit(table, r, j, normalizer)
                seen |= orbit
                open_ = all(len(table.primes_of[r] | table.primes_of[m]) < 3 for m in orbit)
                commutes = all(x * table.elements[m] == table.elements[m] * x for m in orbit)
                if open_ and not commutes:
                    expected[r, min(orbit)] += 1
        assert calls == expected
        assert sum(calls.values()) == total

    @settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @given(group=small_groups())
    def test_merged_orbits_share_one_order(self, group):
        table = group.element_table()
        for r in table.class_reps:
            R, L = table.mul_maps(r)
            label = graph_module._orbit_labels(np.arange(len(table)), [R, L, table.inv])
            label = graph_module._orbit_labels(label, graph_module._normalizer_conjugations(table, r, R, L))
            assert (label <= np.arange(len(table))).all()
            assert np.array_equal(label[label], label)
            x = table.elements[r]
            orders = {}
            for j, m in enumerate(label):
                orders.setdefault(m, set()).add(two_generated_order(x, table.elements[j]))
            assert all(len(v) == 1 for v in orders.values())

    def test_exact_orders_pinned(self, sl23x):
        # one exact subgroup order per merged orbit that no certificate decides
        assert sum(build_graph(g.element_table()).chain_builds for g in standard_catalog()) == 187
        assert sl23x.graph.chain_builds == 99

    @pytest.mark.parametrize("name", ["dihedral", "psl27", "sl23_example"])
    def test_pair_maps_match_products(self, name):
        table = catalog(name, 30 if name == "dihedral" else None).element_table()
        assert list(table.inv) == [table.index_of[y.inverse()] for y in table.elements]
        for r in table.class_reps + [len(table) - 1]:
            x = table.elements[r]
            R, L = table.mul_maps(r)
            assert list(R) == [table.index_of[y * x] for y in table.elements]
            assert list(L) == [table.index_of[x * y] for y in table.elements]

    @pytest.mark.parametrize("name", ["dihedral", "psl27", "sl23_example"])
    def test_conj_map_matches_products(self, name):
        # the normalizer merge conjugates along R[L^-1]: j -> g^-1 * j * g
        table = catalog(name, 30 if name == "dihedral" else None).element_table()
        for i in table.class_reps + [len(table) - 1]:
            g = table.elements[i]
            R, L = table.mul_maps(i)
            assert list(R[np.argsort(L)]) == [table.index_of[g.inverse() * y * g] for y in table.elements]

    @pytest.mark.parametrize(
        "group",
        [catalog("cyclic", 30), direct_product(catalog("dihedral", 30), catalog("cyclic", 7)),
         direct_product(catalog("alternating", 5), catalog("cyclic", 7))],
        ids=lambda g: g.name,
    )
    def test_central_rows_label_no_orbits(self, monkeypatch, group):
        # a central representative's row is read off the primes alone
        table = group.element_table()
        labelled = []
        original = graph_module._orbit_labels

        def recorded(label, maps):
            if maps[-1] is table.inv:  # the product orbits: R sends the identity, index 0, to r
                labelled.append(int(maps[0][0]))
            return original(label, maps)

        monkeypatch.setattr(graph_module, "_orbit_labels", recorded)
        build_graph(table)
        x = table.elements
        central = [r for r in table.class_reps if all(x[r] * y == y * x[r] for y in x)]
        assert len(central) > 1
        assert labelled == [r for r in table.class_reps if r not in central]

    def test_cyclic_210_build_composes_few_letters(self, count_letters):
        table = catalog("cyclic", 210).element_table()
        letters = count_letters(table)
        build_graph(table)
        assert len(letters) <= 2 * 210

    def test_reduced_matches_naive_at_k4(self):
        table = direct_product(catalog("cyclic", 6), catalog("cyclic", 35)).element_table()
        reduced = build_graph(table, k=4, mode="symmetry_reduced")
        naive = build_graph(table, k=4, mode="naive")
        assert np.array_equal(reduced.adjacency, naive.adjacency)
        assert reduced.adjacency.any()


def brute_orbit_labels(maps, n):
    # plain BFS over the maps from each index not yet reached, in index
    # order, so every orbit is labelled by its least index
    label = [-1] * n
    for s in range(n):
        if label[s] < 0:
            label[s] = s
            frontier = [s]
            while frontier:
                j = frontier.pop()
                for M in maps:
                    if label[M[j]] < 0:
                        label[M[j]] = s
                        frontier.append(M[j])
    return label


def check_orbit_labels(table):
    # both uses in _row: the orbits of j -> j*r, r*j, j^-1, then those merged
    # under the normalizer's conjugations, against a BFS over all the maps
    n = len(table)
    for r in table.class_reps:
        R, L = table.mul_maps(r)
        label = graph_module._orbit_labels(np.arange(n), [R, L, table.inv])
        products = [R.tolist(), L.tolist(), table.inv.tolist()]
        assert label.tolist() == brute_orbit_labels(products, n)
        conjugations = graph_module._normalizer_conjugations(table, r, R, L)
        merged = graph_module._orbit_labels(label, conjugations)
        assert merged.tolist() == brute_orbit_labels(products + [C.tolist() for C in conjugations], n)


class TestOrbitLabels:
    @pytest.mark.parametrize("group", standard_catalog(), ids=lambda g: g.name)
    def test_catalog_matches_bfs(self, group):
        check_orbit_labels(group.element_table())

    @settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @given(group=small_groups())
    def test_random_groups_match_bfs(self, group):
        check_orbit_labels(group.element_table())


def naive_row(table, r, k):
    # row r of build_graph(table, k, mode="naive"), pair by pair: the naive
    # build leaves the matrix empty when |G| has fewer than k primes, and
    # otherwise decides each entry with adjacent()
    n = len(table)
    if len(prime_factors(n)) < k:
        return np.zeros(n, dtype=bool)
    return np.array([adjacent(table, r, j, k) for j in range(n)])


def check_rep_rows(table, k):
    # each representative row is complete on its own: no entry waits for
    # the row of another class
    primes = prime_factors(len(table))
    prime_mask = np.array([[p in ps for ps in table.primes_of] for p in primes], dtype=bool)
    prime_mask = prime_mask.reshape(len(primes), len(table))  # (0, 1) for the trivial group
    for r in table.class_reps:
        row, _ = graph_module._row(table, k, prime_mask, r)
        assert np.array_equal(row, naive_row(table, r, k)), r


class TestRepresentativeRows:
    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("group", standard_catalog(), ids=lambda g: g.name)
    def test_catalog_rows_match_naive(self, group, k):
        check_rep_rows(group.element_table(), k)

    @settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @given(group=small_groups(), k=st.sampled_from([2, 3, 4]))
    def test_random_rows_match_naive(self, group, k):
        check_rep_rows(group.element_table(), k)


class TestReducedAgainstNaive:
    # random generators give random element orders, classes and class trees,
    # which exercises the transport of each representative row
    @settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @given(group=small_groups(), k=st.sampled_from([2, 3]))
    def test_reduced_matches_naive(self, group, k):
        table = group.element_table()
        reduced = build_graph(table, k=k, mode="symmetry_reduced")
        naive = build_graph(table, k=k, mode="naive")
        assert np.array_equal(reduced.adjacency, naive.adjacency)
        # eccentricity is constant on classes, so class representatives suffice
        assert per_vertex_diameter(reduced) == diameter(reduced)
        ecc = eccentricities(reduced, reduced.vertices)
        for cid in range(len(table.class_reps)):
            assert len({ecc[m] for m in table.class_members(cid) if m in ecc}) <= 1


class TestSubgroup:
    @settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @given(group=small_groups(), data=st.data())
    def test_matches_chain_order(self, group, data):
        table = group.element_table()
        index = st.integers(min_value=0, max_value=len(table) - 1)
        for i, j in data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=10)):
            x, y = table.elements[i], table.elements[j]
            assert table.subgroup([i, j]).sum() == two_generated_order(x, y)

    @pytest.mark.parametrize(
        "name, n, cycles, size",
        [
            ("symmetric", 5, ["(1,2,3)", "(1,2,3,4,5)"], 60),  # A5: |S5|/2 exactly, no early stop
            ("frobenius21", None, ["(1,2,3,4,5,6,7)"], 7),  # C7: |F21|/3 exactly
            ("symmetric", 5, ["(1,2)", "(1,2,3,4,5)"], 120),
        ],
        ids=["a5-in-s5", "c7-in-frobenius21", "s5"],
    )
    def test_early_stop_is_exact(self, name, n, cycles, size):
        table = catalog(name, n).element_table()
        gens = [table.index_of[parse_cycles(c, table.degree)] for c in cycles]
        mask = table.subgroup(gens)
        # a mask holding e and closed under right multiplication by the
        # generators contains <gens>; with |<gens>| members it is <gens>
        assert mask[0] and mask.sum() == size
        for g in gens:
            products = [table.elements[m] * table.elements[g] for m in np.flatnonzero(mask)]
            assert mask[[table.index_of[p] for p in products]].all()

    @pytest.mark.parametrize(
        "group", [catalog("symmetric", 5), PermutationGroup([], degree=3)], ids=["s5", "trivial"]
    )
    def test_identity_alone(self, group):
        table = group.element_table()
        expected = np.arange(len(table)) == 0
        assert np.array_equal(table.subgroup([]), expected)
        assert np.array_equal(table.subgroup([0]), expected)

    @pytest.mark.parametrize("name, n, k", [("sl23_example", None, 3), ("psl27", None, 3), ("alternating", 7, 2)])
    def test_build_constructs_no_chain(self, count_chains, name, n, k):
        built = count_chains()
        table = catalog(name, n).element_table()
        graph = build_graph(table, k=k)
        assert graph.chain_builds > 0 and built == []

    @pytest.mark.parametrize("name, solvable", [("sl23_example", True), ("psl27", False)])
    def test_solvability_constructs_no_chain(self, count_chains, name, solvable):
        built = count_chains()
        table = catalog(name).element_table()
        assert groups_module.is_solvable(table) is solvable and built == []


class TestCertificates:
    # every answer, certified or read off the table, matches a fresh chain
    @settings(derandomize=True, deadline=None, database=None, max_examples=100)
    @given(
        gens=st.integers(min_value=2, max_value=7).flatmap(
            lambda n: st.lists(st.permutations(range(n)).map(Permutation), min_size=2, max_size=3)
        ),
        k=st.sampled_from([2, 3, 4]),
        data=st.data(),
    )
    def test_certificates_are_sound(self, gens, k, data):
        table = PermutationGroup(gens).element_table()
        index = st.integers(min_value=0, max_value=len(table) - 1)
        for i, j in data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=30)):
            hit, _ = graph_module._adjacent_counted(table, i, j, k)
            if i != j:
                x, y = table.elements[i], table.elements[j]
                assert hit == (len(prime_factors(two_generated_order(x, y))) >= k)


class TestDiameter:
    def test_empty_graph(self):
        graph = build_graph(catalog("symmetric", 4).element_table())
        result = diameter(graph)
        assert result.status == "empty"
        assert result.value is None

    def test_c30(self, c30):
        # oracle: element of order 30 is adjacent to everything else, and e.g.
        # identity and a^2 are non-adjacent, so the diameter is exactly 2
        adj = oracle_adjacency(c30.table)
        _, dist = oracle_all_pairs_distances(adj)
        oracle_diam = max(max(d.values()) for d in dist.values())
        assert oracle_diam == 2
        assert c30.diam.status == "connected"
        assert c30.diam.value == 2

    def test_d30(self, d30):
        assert d30.diam.status == "connected"
        assert d30.diam.value == 2

    def test_per_vertex_matches_reduced(self, d30):
        assert per_vertex_diameter(d30.graph) == d30.diam

    @pytest.mark.parametrize(
        "group",
        [
            catalog("dihedral", 30),
            catalog("alternating", 5),
            direct_product(catalog("frobenius21"), catalog("cyclic", 2)),
        ],
        ids=lambda g: g.name,
    )
    def test_eccentricity_constant_on_classes(self, group):
        table = group.element_table()
        graph = build_graph(table)
        ecc = eccentricities(graph, graph.vertices)
        for cid, rep in enumerate(table.class_reps):
            if graph.isolated[rep]:
                continue
            values = {ecc[m] for m in table.class_members(cid)}
            assert len(values) == 1


class TestNeighborOrderProfile:
    def test_isolated_vertex_empty(self, d30):
        a = d30.group.generators[0]
        assert neighbor_order_profile(d30.graph, d30.table.index_of[a**3]) == Counter()

    def test_d30_rotation_profile(self, d30):
        a = d30.group.generators[0]
        profile = neighbor_order_profile(d30.graph, d30.table.index_of[a])
        assert profile == Counter({2: 15})

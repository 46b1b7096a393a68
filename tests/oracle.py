"""The tests' references: group orders, adjacency and distances, each by
the plainest route.

StabilizerChain is the deterministic incremental Schreier-Sims, with the
smallest moved point as each base point and orbits extended breadth-first
in generator order, reproducible for a fixed generator sequence. order(group)
and two_generated_order(x, y) are the references for a group's order and
for |<x, y>|; they list no elements and share only triprime.perm with the
package.

oracle_adjacency decides every unordered pair through a fresh chain, with no
certificate and no symmetry. naive_adjacency and naive_row decide each pair
by their own certificates, certified_adjacent: the primes of x, y and of
short words in them, commuting, and else the full order of <x, y> from the
element table. They no longer share the package's per-pair decision
(graph._adjacent_counted, a closure stopped at k primes), so they check it
as well as the symmetry-reduced build's orbits, seeds and fill;
TestCertificates checks both routes against chain orders.
oracle_all_pairs_distances is a plain-python BFS over a list-of-lists
matrix, and top_down_levels the plain dense BFS, which check
graph._bfs_levels. distance_rows, eccentricities and per_vertex_diameter run
the package's own BFS from every source asked for, not only from class
representatives, to check what rep_distances and diameter read off them.
"""

from math import prod

import numpy as np

from triprime import graph as graph_module
from triprime.perm import identity
from triprime.primes import prime_factors


class StabilizerChain:
    """Base, basic orbits and transversals for a permutation group.

    gens[l] lists strong generators that fix base[:l], in the order added;
    transversals[l] maps each point of the orbit of base[l] under gens[l] to
    (u, u_inverse), u mapping base[l] to the point. Built by the incremental
    Schreier-Sims of the Handbook of Computational Group Theory, 4.4: levels
    are walked deepest first and each Schreier generator is sifted once; a
    residue of level l that drops to level j joins gens[l+1..j], and the walk
    resumes at j.
    """

    def __init__(self, generators, degree=None):
        generators = list(generators)
        if degree is None:
            if not generators:
                raise ValueError("need a degree or at least one generator")
            degree = len(generators[0])
        for g in generators:
            if len(g) != degree:
                raise ValueError(f"degree mismatch: {len(g)} vs {degree}")
        self.degree = degree
        self.base = []
        self.gens = []
        self.transversals = []
        self._tested = []  # per level, the (orbit point, generator index) pairs already sifted
        for g in dict.fromkeys(generators):
            if not g.is_identity():
                self._add(g, 0, next((l for l, b in enumerate(self.base) if g[b] != b), len(self.base)))
        level = len(self.base) - 1
        while level >= 0:
            h, drop = self._residue(level)
            if h is None:
                level -= 1
            else:
                self._add(h, level + 1, drop)
                level = drop

    def _add(self, h, first, last):
        """Add h to gens[first..last], first extending the base if last == len(base),
        and extend those levels' orbits in place."""
        if last == len(self.base):
            b = next(i for i in range(self.degree) if h[i] != i)
            e = identity(self.degree)
            self.base.append(b)
            self.gens.append([])
            self.transversals.append({b: (e, e)})
            self._tested.append(set())
        for level in range(first, last + 1):
            gens, trans = self.gens[level], self.transversals[level]
            gens.append(h)
            orbit = list(trans)
            for p in orbit:  # the list is the queue: it grows while it is read
                for s in gens:
                    q = s[p]
                    if q not in trans:
                        v = trans[p][0] * s
                        trans[q] = (v, v.inverse())
                        orbit.append(q)

    def _residue(self, level):
        """Sift this level's untested Schreier generators through the levels below;
        the first non-trivial residue and the level it reached, or (None, None)."""
        trans, tested = self.transversals[level], self._tested[level]
        for p, (u, _) in trans.items():
            for t, s in enumerate(self.gens[level]):
                if (p, t) in tested:
                    continue
                tested.add((p, t))
                h, drop = self.sift(u * s * trans[s[p]][1], level + 1)
                if not h.is_identity():
                    return h, drop
        return None, None

    def sift(self, p, start=0):
        """Reduce p through the chain; returns (residue, level reached)."""
        for level, b in enumerate(self.base[start:], start):
            x = p[b]
            if x == b:  # the base point's entry is the identity
                continue
            entry = self.transversals[level].get(x)
            if entry is None:
                return p, level
            p = p * entry[1]
        return p, len(self.base)

    def order(self):
        return prod(map(len, self.transversals))


def order(group):
    """|G| for a PermutationGroup, from a fresh chain on its generators."""
    return StabilizerChain(group.generators, group.degree).order()


def two_generated_order(x, y):
    """|<x, y>| computed from a fresh stabilizer chain on {x, y}."""
    if len(x) != len(y):
        raise ValueError(f"degree mismatch: {len(x)} vs {len(y)}")
    return StabilizerChain([x, y], degree=len(x)).order()


def certified_adjacent(table, i, j, k):
    """Whether elements i and j generate a subgroup with >= k distinct prime
    divisors, by cheap sound certificates and else the full order of <x, y>.

    When x and y commute, |<x, y>| divides |x|*|y|, so the primes of x and y
    are all there is. Otherwise the orders of x, y and of the words xy,
    xy^-1, [x, y], x^2y and xy^2, indices formed by table.times, all divide
    |<x, y>|, so their combined prime support certifies adjacency. The pairs
    left undecided take the size of table.subgroup([i, j]).
    """
    if i == j:
        return False
    support = table.primes_of[i] | table.primes_of[j]
    if len(support) >= k:
        return True
    times, inv = table.times, table.inv
    xy, yx = times(i, j), times(j, i)
    if xy == yx:
        return False
    for w in (xy, times(i, inv[j]), times(inv[yx], xy), times(i, xy), times(xy, j)):
        support = support | table.primes_of[w]
        if len(support) >= k:
            return True
    return len(prime_factors(int(table.subgroup([i, j]).sum()))) >= k


def naive_adjacency(table, k=3):
    """The (n, n) bool matrix with every pair i < j decided by
    certified_adjacent; empty when |G| has fewer than k primes, as no
    subgroup can then reach k."""
    n = len(table.elements)
    adjacency = np.zeros((n, n), dtype=bool)
    if len(prime_factors(n)) >= k:
        for i in range(n):
            for j in range(i + 1, n):
                if certified_adjacent(table, i, j, k):
                    adjacency[i, j] = True
                    adjacency[j, i] = True
    return adjacency


def naive_row(table, r, k):
    """Row r of naive_adjacency(table, k), pair by pair with certified_adjacent."""
    n = len(table)
    if len(prime_factors(n)) < k:
        return np.zeros(n, dtype=bool)
    return np.array([certified_adjacent(table, r, j, k) for j in range(n)])


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


def distance_rows(graph, sources):
    """One _bfs_levels row per source, as an int32 (len(sources), n) array."""
    return np.array([graph_module._bfs_levels(graph, s) for s in sources], dtype=np.int32).reshape(-1, graph.n)


def eccentricities(graph, sources):
    """Eccentricity (and reachability) per source, one bfs call each."""
    out = {}
    for s in sources:
        rep = graph_module.bfs(graph, int(s))
        out[int(s)] = (rep.eccentricity, rep.reaches_all)
    return out


def per_vertex_diameter(graph):
    """The diameter from a BFS row at every non-isolated vertex, not only at
    the class representatives."""
    sources = [int(v) for v in graph.vertices]
    return graph_module.diameter_from_rows(graph, sources, distance_rows(graph, sources))

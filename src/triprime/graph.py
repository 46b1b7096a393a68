"""Adjacency, isolated vertices, distances and diameter of the subgroup-prime-count graph.

Two distinct elements are adjacent when the order of the subgroup they
generate has at least k distinct prime divisors (default k = 3). Conjugation
by any group element is a graph automorphism, which licenses computing
adjacency rows and eccentricities at conjugacy-class representatives only.
Adjacency depends only on <x, y>, and <x^m, y> = <x, y> when gcd(m, |x|) = 1,
so the generators of one cyclic subgroup are twins: their rows agree but at
the two of them. One row is therefore decided per rational class, the
classes joined by these powers, and one BFS row serves twin sources. Every
other row is gathered from a filled one along the element table's
conjugation maps.
Within the row of a representative r, the entry of j depends only on
<r, j>, which j -> r*j, j -> j*r and j -> j^-1 leave unchanged, so one entry
is decided per orbit of these maps. Orbits left open are merged further under
conjugation by the normalizer N_G(<r>): for g there, <r, j^g> = <r, j>^g has
the same order, and conjugation by g keeps classes, prime sets and commuting
with r. Each merged orbit still open takes one exact test, table.closure of
<r, j> on the element table's index maps, stopped once the orders of the
elements it has reached cover k primes; table.subgroup spans the normalizer.
"""

from collections import Counter
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .groups import _orbit_labels
from .primes import prime_factors

DEFAULT_K = 3


class IsolatedVertexError(ValueError):
    """BFS or distance queried from an isolated vertex."""


def adjacent(table, i, j, k=DEFAULT_K):
    """Whether elements i and j generate a subgroup with >= k distinct prime divisors.

    Each element of <x, y> has an order dividing |<x, y>|, and each prime of
    |<x, y>| is the order of one of them (Cauchy). So the pair is adjacent once
    the prime_bits of the frontiers of table.closure([i, j]) hold k bits."""
    if i == j:
        return False
    bits, seen = table.prime_bits, 0
    for frontier in table.closure([i, j]):
        seen |= int(np.bitwise_or.reduce(bits[frontier]))
        if seen.bit_count() >= k:
            return True
    return False


@dataclass
class NonFGraph:
    """Dense symmetric adjacency over all element indices, plus the induced
    graph on the non-isolated vertices."""

    table: object
    k: int
    adjacency: np.ndarray  # (n, n) bool, symmetric, empty diagonal
    isolated: np.ndarray   # (n,) bool
    vertices: np.ndarray   # sorted indices of non-isolated elements
    chain_builds: int = 0  # closures that ended short of k primes; named for criterion 10's budget

    @property
    def n(self):
        return self.adjacency.shape[0]

    def isolated_vertices(self):
        """Element indices whose adjacency row is all-zero."""
        return set(int(i) for i in np.flatnonzero(self.isolated))


@dataclass
class DistanceReport:
    source: int
    distances: dict           # vertex -> hop count; unreachable vertices omitted
    eccentricity: int
    reaches_all: bool


@dataclass
class DiameterResult:
    status: str               # "empty" | "disconnected" | "connected"
    value: Optional[int] = None
    witness: Optional[Tuple[int, int]] = None


def build_graph(table, k=DEFAULT_K):
    """Construct the full adjacency bit-matrix and the isolated-vertex mask.

    The row of each class representative r is decided in full, with one
    test per orbit of j -> r*j, j*r, j^-1 and conjugation by N_G(<r>), and
    seeds the class of each generator r^m of <r>, which is then not decided
    again; the rest of each class is filled from its seed along the
    conjugation maps by the generators. Each orbit left open is decided by
    one closure of <r, j>, stopped once its elements cover k primes.
    """
    n = len(table)
    adjacency = np.zeros((n, n), dtype=bool)
    builds = 0
    if len(prime_factors(n)) >= k:  # otherwise no subgroup can reach k primes
        # <y, j> = <r, j> for each generator y of <r>, so each twin y that
        # _row names for a decided r takes r's row, with entries y and r swapped,
        # and no class holding one is decided again. The row of x^g at
        # position j^g equals the row of x at position j: conj_maps[t] sends
        # x to x^g, g = generators[t], so a filled row x fills the row of its
        # image, gathered through the inverse map, until every class is
        # filled from its seed
        seeded = np.zeros(len(table.class_reps), dtype=bool)  # by class id
        filled = np.zeros(n, dtype=bool)
        for rep in table.class_reps:
            if seeded[table.class_of[rep]]:
                continue
            row, b, twins = _row(table, k, rep)
            builds += b
            for y in twins:
                if not seeded[table.class_of[y]]:
                    seeded[table.class_of[y]] = filled[y] = True
                    adjacency[y] = row
                    adjacency[y, y] = False
                    adjacency[y, rep] = row[y]
        inverses = [np.argsort(m) for m in table.conj_maps]  # row m[x] at i is row x at u[i]
        while not filled.all():
            for m, u in zip(table.conj_maps, inverses):
                for x in np.flatnonzero(filled & ~filled[m]):
                    adjacency[m[x]] = adjacency[x][u]
                    filled[m[x]] = True
    isolated = ~adjacency.any(axis=1)
    vertices = np.flatnonzero(~isolated)
    return NonFGraph(table=table, k=k, adjacency=adjacency,
                     isolated=isolated, vertices=vertices, chain_builds=builds)


def _row(table, k, rep):
    """(row, builds, twins): the adjacency row of one class representative
    r over every element, its closures that end short of k primes, and the
    elements it seeds: r alone when central, else the generators of <r>.

    <r, j> is the same subgroup for every j in one orbit of j -> r*j, j -> j*r
    and j -> j^-1, so the row is constant on these orbits, which R and table.inv
    label from the left cosets j<r>, the orbits of R, as r*j = (j^-1 * r^-1)^-1.
    <r> is the coset of index 0, and its elements of order |r| are the twins. An
    orbit is adjacent when the primes of r and of one member already reach k,
    and otherwise not when its members commute with r (R == L): <r, j> is then
    abelian, with the primes of r and j. A central r, alone in its class,
    commutes with every j, so its row is read off the primes with no orbits.
    Orbits left open are merged further under conjugation by N_G(<r>): for g
    there, <r, j^g> = <r, j>^g has the order of <r, j>, and conjugation by g
    keeps classes, prime sets and commuting with r, since r^g generates <r>.
    Every merged orbit still open is decided once, at its least index.
    """
    seen = table.prime_bits | table.prime_bits[rep]  # the primes of r and j, as bits
    reach = np.array([m.bit_count() for m in range(int(seen.max()) + 1)])[seen] >= k
    builds = 0
    if _is_central(table, rep):
        row, twins = reach, [rep]
    else:
        R, L = table.mul_maps(rep)
        commuting = R == L
        cosets = _orbit_labels(np.arange(len(R)), [R])
        label = _orbit_labels(cosets, [R, table.inv])
        hit, undecided = _open_orbits(label, reach, commuting)
        if undecided.any():
            label = _orbit_labels(label, _normalizer_conjugations(table, cosets, L))
            hit, undecided = _open_orbits(label, reach, commuting)
        for m in np.flatnonzero(undecided):
            hit[m] = adjacent(table, rep, int(m), k)
            builds += not hit[m]  # a closure that ended short of k primes
        row = hit[label]
        twins = [j for j in np.flatnonzero(cosets == 0).tolist() if table.order_of[j] == table.order_of[rep]]
    row[rep] = False
    return row, builds, twins


def _open_orbits(label, reach, commuting):
    """(hit, undecided), both indexed by orbit label: hit where a member's
    primes and r's reach k, undecided at the other labels whose orbits do
    not commute with r."""
    hit = np.zeros(len(label), dtype=bool)
    hit[label[reach]] = True
    # an orbit commutes with r in all members or in none
    return hit, (label == np.arange(len(label))) & ~(hit | commuting)


def _normalizer_conjugations(table, cosets, L):
    """The conjugations j -> g^-1 * j * g by greedy generators g of N_G(<r>).

    N_G(<r>) holds the g with g^-1 * r * g in <r>, that is r * g in g<r>: cosets[L] == cosets,
    as cosets labels the left cosets of <r> and L is j -> r*j. Its generators are those of
    table.span. Conjugation by g permutes the orbits of r*j, j*r and j^-1; it is
    R_g[inv[R_g[inv]]], g^-1 * j * g = (j^-1 * g)^-1 * g.
    """
    chosen, _ = table.span(cosets[L] == cosets)
    return [right[table.inv[right[table.inv]]] for right, _ in map(table.mul_maps, chosen)]


def _is_central(table, rep):
    """Whether every conjugation map fixes r, alone in its class."""
    return all(m[rep] == rep for m in table.conj_maps)


def _bfs_levels(graph, source):
    """Distance array over all element indices; -1 marks unreachable.

    Direction-optimizing (Beamer, Asanovic & Patterson, SC 2012) over
    graph.vertices: a level goes top-down, from the frontier's rows, while
    the frontier is no larger than the unvisited set, and bottom-up after
    that, asking which unvisited vertices have a neighbour in the frontier.
    """
    A = graph.adjacency
    dist = np.full(graph.n, -1, dtype=np.int32)
    dist[source] = 0
    frontier = np.array([source])
    unvisited = graph.vertices[graph.vertices != source]
    d = 0
    while len(frontier) and len(unvisited):
        d += 1
        if len(frontier) <= len(unvisited):
            found = A[frontier][:, unvisited].any(axis=0)
        else:
            found = A[unvisited][:, frontier].any(axis=1)
        frontier, unvisited = unvisited[found], unvisited[~found]
        dist[frontier] = d
    return dist


def bfs(graph, source):
    """Breadth-first distances within the induced graph on non-isolated vertices."""
    if graph.isolated[source]:
        raise IsolatedVertexError(f"vertex {source} is isolated")
    dist = _bfs_levels(graph, source)
    reached = dist >= 0
    distances = {int(v): int(dist[v]) for v in graph.vertices if reached[v]}
    return DistanceReport(
        source=source,
        distances=distances,
        eccentricity=int(dist.max()),
        reaches_all=bool(reached[graph.vertices].all()),
    )


def distance(graph, i, j):
    """Hop count between two non-isolated vertices; None when unreachable."""
    for v in (i, j):
        if graph.isolated[v]:
            raise IsolatedVertexError(f"vertex {v} is isolated")
    d = _bfs_levels(graph, i)[j]
    return None if d < 0 else int(d)


def rep_distances(graph):
    """(sources, dist): the non-isolated class representatives, in class
    order, and their BFS rows over all element indices (-1 = unreachable).
    Distances are conjugation-invariant, so these rows cover every vertex.

    Twins s and t, whose rows agree once entries s and t are cleared, are at
    the same distance from every other vertex, so s reuses the row of an
    earlier BFS'd twin t, with dist[s] = 0 and dist[t] = d_t(s). Generators
    of one cyclic subgroup are twins. As A is symmetric with an empty
    diagonal, twins are exactly the sources with equal open neighbourhoods
    A[s] or equal closed ones A[s] + s: that equality certifies each reuse on
    any graph, and every other source runs _bfs_levels.
    """
    A = graph.adjacency
    sources = [r for r in graph.table.class_reps if not graph.isolated[r]]
    dist = np.empty((len(sources), graph.n), dtype=np.int32)
    searched = {}  # A[t] and A[t] + t as bytes -> position of BFS'd t; no A[s] equals an A[t] + t
    for i, s in enumerate(sources):
        closed = A[s].copy()
        closed[s] = True
        keys = (A[s].tobytes(), closed.tobytes())
        j = next((searched[key] for key in keys if key in searched), None)
        if j is None:
            dist[i] = _bfs_levels(graph, s)
            searched.update(dict.fromkeys(keys, i))
        else:
            t = sources[j]
            dist[i] = dist[j]
            dist[i, s], dist[i, t] = 0, dist[j, s]
    return sources, dist


def diameter_from_rows(graph, sources, dist):
    """Diameter from BFS rows that cover every vertex, as from rep_distances.
    A disconnection witness is the first source missing a vertex, with the
    first vertex it misses."""
    if len(graph.vertices) == 0:
        return DiameterResult(status="empty")
    sub = dist[:, graph.vertices]
    unreached = np.argwhere(sub < 0)
    if len(unreached):
        s, v = unreached[0]
        return DiameterResult(status="disconnected", witness=(sources[s], int(graph.vertices[v])))
    return DiameterResult(status="connected", value=int(sub.max()))


def diameter(graph):
    """Diameter of the induced graph on non-isolated vertices.

    Eccentricity is constant on conjugacy classes, so only class
    representatives are scanned.
    """
    return diameter_from_rows(graph, *rep_distances(graph))


def neighbor_order_profile(graph, v):
    """Multiset of element orders over the neighbors of v."""
    return Counter(int(graph.table.order_of[u]) for u in np.flatnonzero(graph.adjacency[v]))

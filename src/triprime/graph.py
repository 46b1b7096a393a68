"""Adjacency, isolated vertices, distances and diameter of the subgroup-prime-count graph.

Two distinct elements are adjacent when the order of the subgroup they
generate has at least k distinct prime divisors (default k = 3). Conjugation
by any group element is a graph automorphism, which licenses computing
adjacency rows and eccentricities at conjugacy-class representatives only.
Within the row of a representative r, the entry of j depends only on
<r, j>, which j -> r*j, j -> j*r and j -> j^-1 leave unchanged, so one entry
is decided per orbit of these maps. Orbits left open are merged further under
conjugation by the normalizer N_G(<r>): for g there, <r, j^g> = <r, j>^g has
the same order, and conjugation by g keeps classes, prime sets and commuting
with r. Each subgroup the build needs, <x, y> or the normalizer's span, comes
from table.subgroup, a closure on the element table's index maps; only the
per-pair certificates multiply permutations.
"""

from collections import Counter
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .primes import prime_factors

DEFAULT_K = 3


class IsolatedVertexError(ValueError):
    """BFS or distance queried from an isolated vertex."""


def adjacent(table, i, j, k=DEFAULT_K):
    """Whether elements i and j generate a subgroup with >= k distinct prime divisors."""
    hit, _ = _adjacent_counted(table, i, j, k)
    return hit


def _adjacent_counted(table, i, j, k):
    """Adjacency test; second component counts exact subgroup orders.

    Cheap sound certificates run first. When x and y commute, |<x, y>|
    divides |x|*|y|, so the primes of x and y are all there is. Otherwise the
    orders of x, y and of the words xy, xy^-1, [x, y], x^2y and xy^2 all
    divide |<x, y>|, so their combined prime support certifies adjacency.
    Only pairs that no certificate decides count table.subgroup([i, j]).
    """
    if i == j:
        return False, 0
    support = table.primes_of[i] | table.primes_of[j]
    if len(support) >= k:
        return True, 0
    x = table.elements[i]
    y = table.elements[j]
    xy, yx = x * y, y * x
    if xy == yx:
        return False, 0
    for w in (xy, x * y.inverse(), yx.inverse() * xy, x * xy, xy * y):
        support = support | table.primes_of[table.index_of[w]]
        if len(support) >= k:
            return True, 0
    return len(prime_factors(int(table.subgroup([i, j]).sum()))) >= k, 1


@dataclass
class NonFGraph:
    """Dense symmetric adjacency over all element indices, plus the induced
    graph on the non-isolated vertices."""

    table: object
    k: int
    adjacency: np.ndarray  # (n, n) bool, symmetric, empty diagonal
    isolated: np.ndarray   # (n,) bool
    vertices: np.ndarray   # sorted indices of non-isolated elements
    chain_builds: int = 0  # exact subgroup orders computed; named for criterion 10's budget

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


def build_graph(table, k=DEFAULT_K, mode="symmetry_reduced"):
    """Construct the full adjacency bit-matrix and the isolated-vertex mask.

    mode "naive" tests every unordered pair directly; "symmetry_reduced"
    decides the row of each class representative r in full, with one test
    per orbit of j -> r*j, j*r, j^-1 and conjugation by N_G(<r>), and
    transports the row along the class tree. Both produce identical
    matrices, and both compute the order of <x, y> only for pairs that no
    cheap certificate decides.
    """
    if mode not in ("naive", "symmetry_reduced"):
        raise ValueError(f"unknown mode {mode!r}")
    n = len(table.elements)
    adjacency = np.zeros((n, n), dtype=bool)
    builds = 0
    if len(prime_factors(n)) >= k:  # otherwise no subgroup can reach k primes
        if mode == "naive":
            for i in range(n):
                for j in range(i + 1, n):
                    hit, b = _adjacent_counted(table, i, j, k)
                    builds += b
                    if hit:
                        adjacency[i, j] = True
                        adjacency[j, i] = True
        else:
            builds = _build_reduced(table, k, adjacency)
    isolated = ~adjacency.any(axis=1)
    vertices = np.flatnonzero(~isolated)
    return NonFGraph(table=table, k=k, adjacency=adjacency,
                     isolated=isolated, vertices=vertices, chain_builds=builds)


def _row(table, k, prime_mask, rep):
    """The adjacency row of one class representative r, over every element,
    with its count of exact subgroup orders.

    <r, j> is the same subgroup for every j in one orbit of j -> r*j,
    j -> j*r and j -> j^-1, so the row is constant on these orbits. An orbit
    is adjacent when the primes of r and of one member already reach k, and
    otherwise not when its members commute with r (R == L): <r, j> is then
    abelian, with the primes of r and j. A central r, alone in its class,
    commutes with every j, so its row is read off the primes with no orbits.
    When some orbit is left open, the orbits are merged further under
    conjugation by N_G(<r>): for g there, <r, j^g> = <r, j>^g has the order
    of <r, j>, and conjugation by g keeps classes, prime sets and commuting
    with r, since r^g generates <r>. Every merged orbit still open is decided
    once, at its least index.
    """
    reach = (prime_mask | prime_mask[:, rep, None]).sum(axis=0) >= k
    builds = 0
    if not table.class_trees[table.class_of[rep]]:  # r is central
        row = reach
    else:
        R, L = table.mul_maps(rep)
        commuting = R == L
        label = _orbit_labels(np.arange(len(R)), [R, L, table.inv])
        hit, undecided = _open_orbits(label, reach, commuting)
        if undecided.any():
            label = _orbit_labels(label, _normalizer_conjugations(table, rep, R, L))
            hit, undecided = _open_orbits(label, reach, commuting)
        for m in np.flatnonzero(undecided):
            hit[m], b = _adjacent_counted(table, rep, int(m), k)
            builds += b
        row = hit[label]
    row[rep] = False
    return row, builds


def _orbit_labels(label, maps):
    """Each label lowered to the least index of its orbit under the index maps.

    label holds the least index of each class of a partition that the maps
    permute, as np.arange(n) does; an orbit is a union of such classes.
    Min-label propagation along the maps and pointer jumping (label[j] lies
    in j's orbit, so label[label] is a valid jump) run until nothing changes:
    the standard orbit computation (Holt, Eick & O'Brien, Handbook, 4.1).
    """
    while True:
        merged = label
        for M in maps:
            merged = np.minimum(merged, merged[M])
        merged = merged[merged]
        if np.array_equal(merged, label):
            return label
        label = merged


def _open_orbits(label, reach, commuting):
    """(hit, undecided), both indexed by orbit label: hit where a member's
    primes and r's reach k, undecided at the other labels whose orbits do
    not commute with r."""
    hit = np.zeros(len(label), dtype=bool)
    hit[label[reach]] = True
    # an orbit commutes with r in all members or in none
    return hit, (label == np.arange(len(label))) & ~(hit | commuting)


def _normalizer_conjugations(table, rep, R, L):
    """The conjugations j -> g^-1 * j * g by greedy generators g of N_G(<r>).

    N_G(<r>) holds the g with g^-1 * r * g a power r^m, that is with
    r * g = g * r^m: L == R^m on the maps of r. Its generators are those of
    table.span. Conjugation by them permutes the orbits of r*j, j*r and j^-1.
    """
    normalizer = np.zeros(len(R), dtype=bool)
    power = R
    for _ in range(table.order_of[rep] - 1):  # m = 1 .. |r| - 1
        normalizer |= L == power
        power = R[power]
    chosen, _ = table.span(normalizer)
    # right[L^-1]: j -> g^-1 * j * g
    return [right[np.argsort(left)] for right, left in map(table.mul_maps, chosen)]


def _build_reduced(table, k, adjacency):
    # the row of x^g at position j^g equals the row of x at position j
    primes = prime_factors(len(table.elements))
    prime_mask = np.array([[p in ps for ps in table.primes_of] for p in primes])  # (primes, n)
    builds = 0
    for rep, tree in zip(table.class_reps, table.class_trees):
        adjacency[rep], b = _row(table, k, prime_mask, rep)
        for y, x, t in tree:
            adjacency[y, table.conj_maps[t]] = adjacency[x]
        builds += b
    return builds


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


def _distance_rows(graph, sources):
    """BFS rows, one per source, as an int32 (len(sources), n) array."""
    return np.array([_bfs_levels(graph, s) for s in sources], dtype=np.int32).reshape(-1, graph.n)


def rep_distances(graph):
    """(sources, dist): the non-isolated class representatives, in class
    order, and their BFS rows over all element indices (-1 = unreachable).
    Distances are conjugation-invariant, so these rows cover every vertex."""
    sources = [r for r in graph.table.class_reps if not graph.isolated[r]]
    return sources, _distance_rows(graph, sources)


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

"""Prime-set analysis, the prime graph on element orders, and the verification harness.

The harness adjudicates, per group: connectivity and the diameter bound 5 of
the subgroup-prime-count graph, the dominating-element property, closeness of
multi-prime-order elements, the solvable-group properties, and the shape of
the prime graph whenever a solvable three-prime group with large diameter
shows up. One rule decides every claim: not-applicable when it does not
apply, else pass when it holds, else fail with a witness.
"""

from dataclasses import dataclass, field, fields
from itertools import combinations
from typing import Optional

import numpy as np

from . import graph as graphmod
from .groups import centralizer_elements, is_solvable
from .primes import is_squarefree, prime_factors


def sigma_set(table):
    """Indices of elements whose order has at least two distinct prime divisors."""
    return {i for i, ps in enumerate(table.primes_of) if len(ps) >= 2}


def omega_set(graph, n):
    """Non-isolated elements with order divisible by the squarefree n and
    prime support contained in the primes of n."""
    if not is_squarefree(n):
        raise ValueError(f"{n} is not squarefree")
    support = prime_factors(n)
    table = graph.table
    return {
        i
        for i in range(len(table))
        if not graph.isolated[i]
        and table.order_of[i] % n == 0
        and table.primes_of[i] <= support
    }


@dataclass
class PrimeGraph:
    """Vertices: primes dividing |G|; edge {p,q} iff some element has order exactly p*q."""

    vertices: frozenset
    edges: set        # of frozenset pairs
    components: list  # of sets of primes


def prime_graph(table):
    vertices = prime_factors(len(table))
    orders = set(table.order_of)
    edges = {frozenset((p, q)) for p, q in combinations(vertices, 2) if p * q in orders}
    components = [{p} for p in vertices]
    for e in edges:
        joined = [c for c in components if c & e]
        components = [c for c in components if not c & e] + [set().union(*joined)]
    return PrimeGraph(vertices=vertices, edges=edges, components=sorted(components, key=min))


def is_path_on_three(pg):
    """If the prime graph is a two-edge path on three vertices, return the
    labeling (endpoint, center, endpoint); otherwise None."""
    if len(pg.vertices) != 3 or len(pg.edges) != 2:
        return None
    e, f = pg.edges  # two distinct edges on three vertices share exactly one
    (center,) = e & f
    a, b = sorted(e ^ f)
    return a, center, b


@dataclass
class LemmaOutcome:
    name: str
    outcome: str  # "pass" | "fail" | "not-applicable"
    witness: Optional[object] = None

    def to_dict(self):
        d = {"name": self.name, "outcome": self.outcome}
        if self.witness is not None:
            d["witness"] = self.witness
        return d


def _verdict(name, applicable, passed, witness):
    """The rule for every claim: not-applicable, pass, or fail with the witness."""
    if not applicable:
        return LemmaOutcome(name, "not-applicable")
    return LemmaOutcome(name, "pass") if passed else LemmaOutcome(name, "fail", witness=witness)


def check_higman(solvable, sigma, graph):
    """For solvable groups: all prime-power orders (an empty sigma_set) forces
    at most two primes dividing |G|, and a non-empty vertex set forces a
    multi-prime element."""
    witness = None
    if not sigma:
        if len(prime_factors(graph.n)) > 2:
            witness = "all orders prime powers yet >2 primes"
        elif len(graph.vertices) > 0:
            witness = f"vertex {int(graph.vertices[0])} exists but sigma empty"
    return _verdict("higman", solvable, witness is None, witness)


def _require_normal_prime_power(table, subset):
    """Validate a lemma input: subset must be a subgroup closed under
    conjugation by the group's generators, of prime-power size > 1. Returns
    the prime."""
    for i in subset:
        for m in table.conj_maps:
            if m[i] not in subset:
                raise ValueError("subset is not normal in the group")
    if table.subgroup(list(subset)).sum() > len(subset):
        raise ValueError("subset is not a subgroup")
    size = len(subset)
    ps = prime_factors(size) if size > 1 else frozenset()
    if len(ps) != 1:
        raise ValueError(f"subset size {size} is not a nontrivial prime power")
    return next(iter(ps))


def check_rdivides(table, normal_indices, x1, x2):
    """Search translates of x1, x2 by the normal p-subgroup whose span has
    order divisible by p."""
    p = _require_normal_prime_power(table, normal_indices)
    (_, L1), (_, L2) = table.mul_maps(x1), table.mul_maps(x2)
    for n1 in normal_indices:
        for n2 in normal_indices:
            if table.subgroup([L1[n1], L2[n2]]).sum() % p == 0:
                return LemmaOutcome("translate_pair_divisible", "pass", witness=(n1, n2))
    return LemmaOutcome("translate_pair_divisible", "fail", witness=(x1, x2))


def check_fpf(table, normal_indices, x, y):
    """Fixed-point-free case: with C_N(x) trivial, some single translate of y
    spans with x a subgroup of order divisible by p."""
    p = _require_normal_prime_power(table, normal_indices)
    if centralizer_elements(table, normal_indices, x) != {0}:
        return LemmaOutcome("translate_single_divisible", "not-applicable", witness=x)
    _, L = table.mul_maps(y)
    for n in normal_indices:
        if table.subgroup([x, L[n]]).sum() % p == 0:
            return LemmaOutcome("translate_single_divisible", "pass", witness=n)
    return LemmaOutcome("translate_single_divisible", "fail", witness=(x, y))


@dataclass
class VerificationReport:
    group: str
    order: int
    primes: list
    solvable: bool
    isolated_count: int
    status: str
    diameter: Optional[int]
    max_pi_tilde: int
    sigma_count: int
    prime_graph: dict
    lemmas: list = field(default_factory=list)

    @property
    def ok(self):
        return all(l.outcome != "fail" for l in self.lemmas)

    def to_dict(self):
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["lemmas"] = [l.to_dict() for l in self.lemmas]
        return d


def _sigma_pair_check(graph, sigma, sources, dist):
    """Every conjugacy-representative sigma vertex must reach every sigma
    vertex within two hops (covers all pairs up to conjugation). sources and
    dist are the rep_distances rows; returns the first failing pair."""
    rows = [i for i, r in enumerate(sources) if r in sigma]
    cols = [i for i in sorted(sigma) if not graph.isolated[i]]
    sub = dist[rows][:, cols]
    far = np.argwhere((sub < 0) | (sub > 2))
    return (sources[rows[far[0, 0]]], cols[far[0, 1]]) if len(far) else None


def _near_sigma_check(graph, sigma, sources, dist):
    """Every non-isolated class representative must be within two hops of a
    sigma element; returns the first that is not."""
    sub = dist[:, [i for i in sigma if not graph.isolated[i]]]
    missing = np.flatnonzero(~((sub >= 0) & (sub <= 2)).any(axis=1))
    return sources[missing[0]] if missing.size else None


def verify_theorem(group, graph):
    """Adjudicate every applicable claim on graph, the built graph of group.

    group names the report; the claims read graph and its table. Returns a
    VerificationReport; a claim that fails carries a concrete witness (an
    element index or a pair).
    """
    table = graph.table
    order = len(table)
    primes = sorted(prime_factors(order))
    solvable = is_solvable(table)
    sigma = sigma_set(table)
    max_pi = max(len(ps) for ps in table.primes_of)
    pg = prime_graph(table)
    sources, dist = graphmod.rep_distances(graph)
    diam = graphmod.diameter_from_rows(graph, sources, dist)
    nonempty = diam.status != "empty"
    witness = diam.witness or diam.value  # a disconnected pair, else the diameter

    def within(bound):
        return diam.status == "connected" and diam.value <= bound

    far_pair = _sigma_pair_check(graph, sigma, sources, dist)
    far_vertex = _near_sigma_check(graph, sigma, sources, dist)
    lemmas = [
        # main claim: nonempty graphs are connected with diameter at most 5
        _verdict("connected_diameter_le_5", nonempty, within(5), witness),
        # an element with >= 3 prime divisors dominates: no isolated vertices, diameter <= 2
        _verdict("dominating_element", max_pi >= 3, not graph.isolated.any() and within(2), witness),
        # elements with two-prime orders are pairwise within distance 2
        _verdict("sigma_pairs_within_2", len(primes) >= 3, far_pair is None, far_pair),
        # solvable, some vertex: every vertex is within 2 of a sigma element
        _verdict("vertex_near_sigma", solvable and len(graph.vertices) > 0,
                 far_vertex is None, far_vertex),
        check_higman(solvable, sigma, graph),
        # solvable three-prime group with diameter > 4 forces a two-edge path prime graph
        _verdict(
            "large_diameter_prime_graph_path",
            solvable and len(primes) == 3 and diam.status == "connected" and diam.value > 4,
            is_path_on_three(pg) is not None,
            sorted(tuple(sorted(e)) for e in pg.edges),
        ),
        # solvable with >= 4 primes: diameter at most 3
        _verdict("solvable_four_primes_diameter_le_3", solvable and len(primes) >= 4 and nonempty,
                 within(3), witness),
        # solvable with exactly 3 primes: diameter at most 5
        _verdict("solvable_three_primes_diameter_le_5", solvable and len(primes) == 3 and nonempty,
                 within(5), witness),
    ]

    return VerificationReport(
        group=group.name or f"degree-{group.degree} group",
        order=order,
        primes=primes,
        solvable=solvable,
        isolated_count=int(graph.isolated.sum()),
        status=diam.status,
        diameter=diam.value,
        max_pi_tilde=max_pi,
        sigma_count=len(sigma),
        prime_graph={
            "vertices": sorted(pg.vertices),
            "edges": sorted(sorted(e) for e in pg.edges),
            "components": [sorted(c) for c in pg.components],
        },
        lemmas=lemmas,
    )

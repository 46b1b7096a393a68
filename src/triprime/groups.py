"""Finite permutation groups: element tables, stabilizer chains, catalog.

Every subgroup is computed on the element table: ElementTable.subgroup
closes element indices on the table's index maps, ElementTable.span takes
greedy generators of the subgroup a mask spans, and normal closures, the
derived series and solvability are read off the two; the enumeration
enforces the element cap. The stabilizer chain is the deterministic
incremental Schreier-Sims, with the smallest moved point as each base point
and orbits extended breadth-first in generator order, reproducible for a
fixed generator sequence. It serves only the exact order named when a group
file over the cap is refused, and two_generated_order, the reference for
|<x, y>|. A catalog group knows its order from a closed formula.
"""

from dataclasses import dataclass
from itertools import combinations
from math import factorial, prod
from operator import mul

import numpy as np

from .perm import MAX_DEGREE, Permutation, check_degree, identity, parse_cycles
from .primes import prime_factors

DEFAULT_CAP = 100_000


class OrderCapExceeded(RuntimeError):
    """Raised when a group is larger than the enumeration cap."""

    def __init__(self, order, cap):
        super().__init__(f"group order {order} exceeds cap {cap}; raise the cap to proceed")
        self.order = order
        self.cap = cap

    def __reduce__(self):  # rebuild from (order, cap), so the error pickles across processes
        return type(self), (self.order, self.cap)


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


def two_generated_order(x, y):
    """|<x, y>| computed from a fresh stabilizer chain on {x, y}."""
    if len(x) != len(y):
        raise ValueError(f"degree mismatch: {len(x)} vs {len(y)}")
    return StabilizerChain([x, y], degree=len(x)).order()


class PermutationGroup:
    """A finite permutation group given by generators; chain built lazily.

    known_order is the order a catalog builder knows by construction, or
    None; order() is always the chain's.
    """

    def __init__(self, generators, degree=None, name=None, known_order=None):
        generators = [g if isinstance(g, Permutation) else Permutation(g) for g in generators]
        if degree is None:
            if not generators:
                raise ValueError("need a degree or at least one generator")
            degree = len(generators[0])
        for g in generators:
            if len(g) != degree:
                raise ValueError(f"all generators must have degree {degree}")
        if not generators:
            generators = [identity(degree)]
        self.degree = degree
        self.generators = generators
        self.name = name
        self.known_order = known_order
        self._chain = None
        self._table = None

    @property
    def chain(self):
        if self._chain is None:
            self._chain = StabilizerChain(self.generators, self.degree)
        return self._chain

    def order(self):
        return self.chain.order()

    def __repr__(self):
        label = self.name or f"degree-{self.degree} group"
        return f"<PermutationGroup {label}, {len(self.generators)} generators>"

    def element_table(self, cap=DEFAULT_CAP):
        if self._table is None or len(self._table.elements) > cap:
            self._table = enumerate_elements(self, cap)
        return self._table


@dataclass
class ElementTable:
    """Exhaustive indexed listing of a group's elements with cached invariants.

    Index 0 is the identity. parents[i] = (p, t) for i >= 1 says that the
    enumeration first reached elements[i] as elements[p] * generators[t]
    (parents first). The np.intp index arrays below are read off the
    enumeration's products along parents, with no permutation product: for
    g = generators[t], rmul[t][i], lmul[t][i] and conj_maps[t][i] are the
    indices of elements[i] * g, g * elements[i] and g^-1 * elements[i] * g,
    and inv[i] that of elements[i]^-1. class_of[i] is the class of
    elements[i] and class_reps[c] the least index of class c, class ids
    ordered by representative.
    """

    degree: int
    generators: list
    elements: list
    index_of: dict
    order_of: list
    primes_of: list
    rmul: list
    lmul: list
    inv: np.ndarray
    parents: list
    class_of: list
    class_reps: list
    conj_maps: list

    def __len__(self):
        return len(self.elements)

    def class_members(self, cid):
        return [i for i, c in enumerate(self.class_of) if c == cid]

    def word(self, i):
        """Generator indices t_1..t_m with elements[i] = generators[t_1] * ... * generators[t_m]."""
        w = []
        while i:
            i, t = self.parents[i]
            w.append(t)
        return w[::-1]

    def mul_maps(self, i):
        """(R, L): R[j] is the index of elements[j] * elements[i] and L[j]
        that of elements[i] * elements[j], composed along word(i)."""
        R = L = np.arange(len(self.elements))
        for t in self.word(i):
            R, L = self.rmul[t][R], L[self.lmul[t]]
        return R, L

    def subgroup(self, gens):
        """Membership mask of the subgroup generated by the element indices
        gens, closed from {e} under right multiplication by each generator,
        along its word. By Lagrange a subgroup of more than n/p elements, p
        the least prime dividing n, is G: the closure stops there.
        """
        n = len(self.elements)
        words = [self.word(g) for g in gens]
        inside = np.zeros(n, dtype=bool)
        frontier = np.zeros(1, dtype=np.intp)  # the identity
        while len(frontier):
            inside[frontier] = True
            if np.count_nonzero(inside) > n // min(prime_factors(n), default=1):
                return np.ones(n, dtype=bool)
            reached = np.zeros(n, dtype=bool)
            for word in words:
                products = frontier
                for t in word:
                    products = self.rmul[t][products]
                reached[products] = True
            frontier = np.flatnonzero(reached & ~inside)
        return inside

    def span(self, mask):
        """(gens, <mask>): generator indices taken greedily, each the least
        index of mask outside the subgroup of the earlier ones, and the
        membership mask of the subgroup they generate."""
        gens, inside = [], self.subgroup([])
        while (outside := mask & ~inside).any():
            gens.append(int(outside.argmax()))
            inside = self.subgroup(gens)
        return gens, inside


def enumerate_elements(group, cap=DEFAULT_CAP):
    """Materialize all elements of the group, with orders, prime sets and classes.

    Enumeration is breadth-first closure of the generators under right
    multiplication, independent of the stabilizer chain (the two orders are
    cross-checked in the test suite). A group whose known_order exceeds cap
    is refused before anything is listed; otherwise, once the listing holds
    more than cap elements, the identity counted, it raises OrderCapExceeded
    with the chain's exact order. A complete listing whose length differs
    from a known_order raises ValueError.
    """
    known = group.known_order
    if known is not None and known > cap:
        raise OrderCapExceeded(known, cap)
    e = identity(group.degree)
    elements = [e]
    index_of = {e: 0}
    parents = [None]
    rmul = [[] for _ in group.generators]
    for i, p in enumerate(elements):  # the list is the queue: it grows while it is read
        for t, g in enumerate(group.generators):
            q = p * g
            j = index_of.get(q)
            if j is None:
                j = index_of[q] = len(elements)
                elements.append(q)
                parents.append((i, t))
            rmul[t].append(j)
        if len(elements) > cap:
            raise OrderCapExceeded(group.order(), cap)
    if known is not None and len(elements) != known:
        raise ValueError(f"{group.name}: {len(elements)} elements listed, known order {known}")
    # g * (p * s) = (g * p) * s and (p * s)^-1 = s^-1 * p^-1, parents first
    lmul = [[m[0]] * len(elements) for m in rmul]
    for i, (p, s) in enumerate(parents[1:], 1):
        for m in lmul:
            m[i] = rmul[s][m[p]]
    unmul = [np.argsort(m).tolist() for m in lmul]  # unmul[t][i]: index of g_t^-1 * elements[i]
    inv = [0] * len(elements)
    for i, (p, s) in enumerate(parents[1:], 1):
        inv[i] = unmul[s][inv[p]]
    rmul = [np.array(m, dtype=np.intp) for m in rmul]
    conj_maps = [m[u] for m, u in zip(rmul, unmul)]
    class_of, class_reps = conjugacy_classes(conj_maps)
    # order and prime set are class functions: one cycle decomposition per class
    orders = [elements[r].order() for r in class_reps]
    primes = [prime_factors(o) for o in orders]
    return ElementTable(
        degree=group.degree,
        generators=list(group.generators),
        elements=elements,
        index_of=index_of,
        order_of=[orders[c] for c in class_of],
        primes_of=[primes[c] for c in class_of],
        rmul=rmul,
        lmul=[np.array(m, dtype=np.intp) for m in lmul],
        inv=np.array(inv, dtype=np.intp),
        parents=parents,
        class_of=class_of,
        class_reps=class_reps,
        conj_maps=conj_maps,
    )


def conjugacy_classes(conj_maps):
    """The ElementTable fields (class_of, class_reps) read off its conj_maps.

    Classes are the orbits of conjugation by the generators; the
    representative of each class is its least element index, and class ids
    are ordered by representative.
    """
    label = _orbit_labels(np.arange(len(conj_maps[0])), conj_maps)
    reps, class_of = np.unique(label, return_inverse=True)
    return class_of.tolist(), reps.tolist()


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


def centralizer_elements(table, subset, x):
    """Indices n in `subset` with elements[n] * elements[x] = elements[x] * elements[n]."""
    R, L = table.mul_maps(x)
    return {i for i in subset if R[i] == L[i]}


def normal_closure(table, seeds):
    """Membership mask of the smallest normal subgroup holding the seeds."""
    indices = []
    for s in seeds:
        i = table.index_of.get(s)
        if i is None:
            raise ValueError(f"seed {s} is not an element of the group")
        indices.append(i)
    return _normal_span(table, indices)[1]


def _normal_span(table, seeds):
    """table.span of the union of the seed indices' conjugacy classes."""
    return table.span(np.isin(table.class_of, [table.class_of[s] for s in seeds]))


def _derived_span(table, gens):
    """table.span of [H, H] for H = <gens> normal in G, as the G-normal
    closure N of the commutators of H's generators: [H, H] is characteristic
    in H, so normal in G, and holds N; H/N is abelian, so N holds [H, H]."""
    x = table.elements
    return _normal_span(table, [table.index_of[x[a].commutator(x[b])] for a, b in combinations(gens, 2)])


def derived_subgroup(table):
    """Membership mask of [G, G]."""
    return _derived_span(table, [table.index_of[g] for g in table.generators])[1]


def is_solvable(table):
    """Whether the derived series reaches the trivial group. Every term is
    normal in G, and the series stops when a term is no smaller than the
    one before."""
    gens = [table.index_of[g] for g in table.generators]
    size = len(table)
    while size > 1:
        gens, mask = _derived_span(table, gens)
        if mask.sum() == size:
            return False
        size = mask.sum()
    return True


# -- catalog ---------------------------------------------------------------


def _affine(p, mat, shift=None, nonzero=False):
    """The map x -> mat*x + shift on (Z/p)^d as a permutation of points.

    The vector v is the point v[0] + v[1]*p + ... + v[d-1]*p^(d-1). With
    `nonzero`, only the nonzero vectors are points, each numbered one lower.
    """
    d = len(mat)
    check_degree(p**d - nonzero)
    shift = shift or [0] * d
    weights = [p**c for c in range(d)]
    images = []
    for x in range(nonzero, p**d):
        v = [x // c % p for c in weights]  # the digits of point x
        w = [(sum(map(mul, row, v)) + s) % p for row, s in zip(mat, shift)]
        images.append(sum(map(mul, w, weights)) - nonzero)
    return Permutation(images)


def _beside(a, b):
    """a on the first len(a) points and b on the points after them."""
    return Permutation(list(a) + [len(a) + i for i in b])


def _cyclic(n):
    if n < 1:
        raise ValueError("cyclic group needs n >= 1")
    return PermutationGroup([_affine(n, [[1]], [1])], name=f"cyclic({n})", known_order=n)


def _dihedral(order):
    if order < 6 or order % 2:
        raise ValueError("dihedral group needs an even order >= 6")
    m = order // 2
    gens = [_affine(m, [[1]], [1]), _affine(m, [[-1]])]
    return PermutationGroup(gens, name=f"dihedral({order})", known_order=order)


def _symmetric(n):
    if n < 1:
        raise ValueError("symmetric group needs n >= 1")
    cycle = _affine(n, [[1]], [1])
    if n == 1:
        return PermutationGroup([cycle], name="symmetric(1)", known_order=1)
    swap = Permutation([1, 0] + list(range(2, n)))
    return PermutationGroup([swap, cycle], name=f"symmetric({n})", known_order=factorial(n))


def _alternating(n):
    if n < 1:
        raise ValueError("alternating group needs n >= 1")
    if n < 3:
        return PermutationGroup([identity(n)], name=f"alternating({n})", known_order=1)
    # an n-cycle for odd n; for even n, an (n-1)-cycle fixing point 0
    cycle = _affine(n, [[1]], [1]) if n % 2 else _beside(identity(1), _affine(n - 1, [[1]], [1]))
    three = Permutation([1, 2, 0] + list(range(3, n)))
    return PermutationGroup([three, cycle], name=f"alternating({n})", known_order=factorial(n) // 2)


def _frobenius21():
    # C7 : C3, the affine maps x -> ax + b on F7 with a in {1, 2, 4}
    gens = [_affine(7, [[1]], [1]), _affine(7, [[2]])]
    return PermutationGroup(gens, name="frobenius21", known_order=21)


def _psl27():
    # GL(3, 2) acting on the 7 nonzero vectors of F_2^3
    transvection = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
    rotate = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    gens = [_affine(2, m, nonzero=True) for m in (transvection, rotate)]
    return PermutationGroup(gens, name="psl27", known_order=168)


# SL(2, 3) is generated by an order-4 and an order-3 matrix
_SL23 = ([[0, 2], [1, 0]], [[1, 1], [0, 1]])


def _sl23():
    # SL(2, 3) acting on the 8 nonzero vectors of F_3^2
    gens = [_affine(3, m, nonzero=True) for m in _SL23]
    return PermutationGroup(gens, name="sl23", known_order=24)


def _sl23_example():
    """(C3 x C3 x C7) : SL(2,3), order 1512, as a degree-16 group.

    Points 0-8 carry the affine plane F_3^2 acted on by translations and by
    SL(2,3) linearly. Points 9-15 carry F_7 acted on by translation and,
    through the abelianization of SL(2,3), by x -> 2x.
    """
    eye = [[1, 0], [0, 1]]
    s, t = _SL23
    plane, line = identity(9), identity(7)
    gens = [
        _beside(_affine(3, eye, [1, 0]), line),  # translation of the plane
        _beside(_affine(3, eye, [0, 1]), line),  # translation of the plane
        _beside(plane, _affine(7, [[1]], [1])),  # translation of the line
        _beside(_affine(3, s), line),  # order-4 matrix, trivial on the line
        _beside(_affine(3, t), _affine(7, [[2]])),  # order-3 matrix, doubling on the line
    ]
    return PermutationGroup(gens, name="sl23_example", known_order=1512)


def direct_product(g, h):
    """Direct product acting on the disjoint union of the two point sets."""
    n, m = g.degree, h.degree
    gens = [_beside(a, identity(m)) for a in g.generators]
    gens += [_beside(identity(n), b) for b in h.generators]
    known = None if None in (g.known_order, h.known_order) else g.known_order * h.known_order
    name = f"{g.name or 'G'} x {h.name or 'H'}"
    return PermutationGroup(gens, degree=n + m, name=name, known_order=known)


_PARAMETRIC = {
    "cyclic": _cyclic,
    "dihedral": _dihedral,
    "symmetric": _symmetric,
    "alternating": _alternating,
}

_FIXED = {
    "frobenius21": _frobenius21,
    "psl27": _psl27,
    "sl23": _sl23,
    "sl23_example": _sl23_example,
}


def catalog(name, n=None):
    """Construct a named catalog group; parametric families take n."""
    if name in _PARAMETRIC:
        if n is None:
            raise ValueError(f"catalog group {name!r} needs a parameter n")
        return _PARAMETRIC[name](n)
    if name in _FIXED:
        if n is not None:
            raise ValueError(f"catalog group {name!r} takes no parameter")
        return _FIXED[name]()
    known = sorted(_PARAMETRIC) + sorted(_FIXED)
    raise ValueError(f"unknown catalog group {name!r}; known: {', '.join(known)}")


def standard_catalog():
    """The groups swept by the verification harness, in a fixed order."""
    entries = [
        catalog("cyclic", 2),
        catalog("cyclic", 30),
        catalog("cyclic", 105),
        catalog("cyclic", 210),
        catalog("dihedral", 30),
        catalog("dihedral", 210),
        catalog("symmetric", 4),
        catalog("symmetric", 5),
        catalog("alternating", 5),
        catalog("frobenius21"),
        direct_product(catalog("frobenius21"), catalog("cyclic", 2)),
        direct_product(catalog("dihedral", 30), catalog("cyclic", 7)),
        direct_product(catalog("alternating", 5), catalog("cyclic", 7)),
        catalog("psl27"),
        catalog("sl23"),
        catalog("sl23_example"),
    ]
    return entries


# -- group files -----------------------------------------------------------


def parse_group_text(text, source="<string>"):
    """Parse the group file format: "degree: n" then "gen: <cycles>" lines."""
    degree = None
    gens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ValueError(f"{source}:{lineno}: expected 'degree:' or 'gen:' line")
        key, _, value = line.partition(":")
        key = key.strip().lower()
        value = value.strip()
        if key == "degree":
            if degree is not None:
                raise ValueError(f"{source}:{lineno}: duplicate degree line")
            try:
                degree = int(value)
            except ValueError:
                raise ValueError(f"{source}:{lineno}: bad degree {value!r}") from None
            if not 1 <= degree <= MAX_DEGREE:
                raise ValueError(f"{source}:{lineno}: degree must be between 1 and {MAX_DEGREE}")
        elif key == "gen":
            if degree is None:
                raise ValueError(f"{source}:{lineno}: 'gen:' before 'degree:'")
            try:
                gens.append(parse_cycles(value, degree))
            except ValueError as exc:
                raise ValueError(f"{source}:{lineno}: {exc}") from None
        else:
            raise ValueError(f"{source}:{lineno}: unknown key {key!r}")
    if degree is None:
        raise ValueError(f"{source}: missing 'degree:' line")
    if not gens:
        raise ValueError(f"{source}: no generators")
    return PermutationGroup(gens, degree=degree, name=source)


def load_group(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_group_text(fh.read(), source=str(path))

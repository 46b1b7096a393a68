"""Finite permutation groups: element tables, subgroups, catalog.

Once a group is listed, only its element table multiplies: ElementTable.times
carries element indices along the table's index maps, ElementTable.subgroup
closes indices through times, ElementTable.span takes greedy generators of
the subgroup a mask spans, and normal closures, the derived series and
solvability are read off the two. The enumeration enforces the element cap;
every order is the length of a listing, and two_generated_order lists
<x, y>. A catalog group knows its order from a closed formula.
"""

from dataclasses import dataclass
from itertools import combinations
from math import factorial
from operator import mul

import numpy as np

from .perm import MAX_DEGREE, Permutation, check_degree, identity, parse_cycles
from .primes import prime_factors

DEFAULT_CAP = 100_000


class OrderCapExceeded(RuntimeError):
    """Raised when a group is larger than the enumeration cap."""

    def __init__(self, order, cap):
        # order is the known order, or None when only the listing passed the cap
        size = f"group order {order}" if order is not None else f"group has more than {cap} elements,"
        super().__init__(f"{size} exceeds cap {cap}; raise the cap to proceed")
        self.order = order
        self.cap = cap

    def __reduce__(self):  # rebuild from (order, cap), so the error pickles across processes
        return type(self), (self.order, self.cap)


def two_generated_order(x, y):
    """|<x, y>|, the length of the listing of <x, y>."""
    return len(PermutationGroup([x, y]).element_table())


class PermutationGroup:
    """A finite permutation group given by generators; it holds no listing.

    known_order is the order a catalog builder knows by construction, or
    None; the order of the group is the length of its element table, which
    element_table lists anew on each call.
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

    def __repr__(self):
        label = self.name or f"degree-{self.degree} group"
        return f"<PermutationGroup {label}, {len(self.generators)} generators>"

    def element_table(self, cap=DEFAULT_CAP):
        return enumerate_elements(self, cap)


@dataclass
class ElementTable:
    """Exhaustive indexed listing of a group's elements with cached invariants.

    Index 0 is the identity. parents[i] = (p, t) for i >= 1 says that the
    enumeration first reached elements[i] as elements[p] * generators[t]
    (parents first). The np.intp index arrays below are read off the
    enumeration's products along parents, with no permutation product: for
    g = generators[t], rmul[t][i] and conj_maps[t][i] are the indices of
    elements[i] * g and g^-1 * elements[i] * g, and inv[i] that of
    elements[i]^-1. class_of[i] is the class of elements[i] and class_reps[c]
    the least index of class c, class ids ordered by representative. times
    forms every later product; index_of reads permutations from outside.
    """

    degree: int
    generators: list
    elements: list
    index_of: dict
    order_of: list
    primes_of: list
    rmul: list
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

    def times(self, x, j):
        """Index of elements[x] * elements[j], x an index or index array, carried along word(j)."""
        for t in self.word(j):
            x = self.rmul[t][x]
        return x

    def mul_maps(self, i):
        """(R, L): R[j] is the index of elements[j] * x, x = elements[i], R = times(arange(n), i),
        and L[j] that of x * elements[j] = (elements[j]^-1 * x^-1)^-1, so L = inv[R^-1[inv]]."""
        R = self.times(np.arange(len(self)), i)
        unright = np.empty_like(R)  # unright[j]: index of elements[j] * x^-1
        unright[R] = np.arange(len(R))
        return R, self.inv[unright[self.inv]]

    def subgroup(self, gens):
        """Membership mask of the subgroup generated by the element indices
        gens, closed from {e} under right multiplication by each generator,
        through times. By Lagrange a subgroup of more than n/p elements, p
        the least prime dividing n, is G: the closure stops there.
        """
        n = len(self)
        inside = np.zeros(n, dtype=bool)
        frontier = np.zeros(1, dtype=np.intp)  # the identity
        while len(frontier):
            inside[frontier] = True
            if np.count_nonzero(inside) > n // min(prime_factors(n), default=1):
                return np.ones(n, dtype=bool)
            reached = np.zeros(n, dtype=bool)
            for g in gens:
                reached[self.times(frontier, g)] = True
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
    multiplication. A group whose known_order exceeds cap is refused with
    that order before anything is listed; otherwise, once the listing holds
    more than cap elements, the identity counted, it raises OrderCapExceeded
    with no order. A complete listing whose length differs from a
    known_order raises ValueError.
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
            raise OrderCapExceeded(None, cap)
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

    Each starting label[j] is at most j and lies in j's orbit, which joins j to
    M[j] for each map M and to label[j], as in np.arange(n) or the left cosets
    of <r> under [R]. Min-label propagation along the maps and pointer jumping
    (label[label] stays in the orbit) run until nothing changes; the fixpoint is
    still the orbit minimum (Holt, Eick & O'Brien, Handbook, 4.1).
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
    """table.span of [H, H] for H = <gens> normal in G, as the G-normal closure N
    of the commutators (a^-1 * b^-1) * (a * b) of H's generators, by times: [H, H]
    is characteristic in H, so normal in G, and holds N; H/N is abelian, so N holds it."""
    inv, times = table.inv, table.times
    return _normal_span(table, [times(times(inv[a], inv[b]), times(a, b)) for a, b in combinations(gens, 2)])


def derived_subgroup(table):
    """Membership mask of [G, G]."""
    return _derived_span(table, [int(m[0]) for m in table.rmul])[1]  # rmul[t][0]: e * g_t


def is_solvable(table):
    """Whether the derived series reaches the trivial group. Every term is
    normal in G, and the series stops when a term is no smaller than the
    one before."""
    gens = [int(m[0]) for m in table.rmul]  # rmul[t][0]: e * g_t
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
            if not (value.isascii() and value.isdigit()):  # int() also reads _, signs, other digits
                raise ValueError(f"{source}:{lineno}: bad degree {value!r}")
            degree = int(value)
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
    """The group in the file at path: UTF-8 text, a leading byte order mark skipped."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:  # exc.object is the data after any byte order mark
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{line}: byte 0x{exc.object[exc.start]:02x} is not UTF-8") from None
    return parse_group_text(text, source=str(path))

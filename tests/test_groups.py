import ast
import hashlib
import pickle
import random
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle
from oracle import StabilizerChain, order
from strategies import small_groups
from triprime import groups
from triprime.groups import (
    OrderCapExceeded,
    _affine,
    _beside,
    PermutationGroup,
    catalog,
    centralizer_elements,
    derived_subgroup,
    direct_product,
    enumerate_elements,
    is_solvable,
    load_group,
    normal_closure,
    parse_group_text,
    standard_catalog,
    two_generated_order,
)
from triprime.perm import Permutation, from_cycles, identity, parse_cycles


def closure_order(generators):
    return len(closure_elements(generators))


def closure_elements(generators):
    # independent oracle: exhaustive closure under multiplication, no chain
    e = identity(len(generators[0]))
    seen = {e}
    frontier = [e]
    while frontier:
        nxt = []
        for p in frontier:
            for g in generators:
                q = p * g
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


def closure_orbit(point, generators):
    # independent oracle: the orbit of a point under the generators
    orbit = frontier = {point}
    while frontier:
        frontier = {g[p] for p in frontier for g in generators} - orbit
        orbit |= frontier
    return orbit


def members(table, mask):
    return {table.elements[i] for i in np.flatnonzero(mask)}


def brute_derived(elements):
    # independent oracle: the closure of every commutator [x, y], x, y in the subgroup
    return closure_elements(list({x.commutator(y) for x in elements for y in elements}))


class TestStabilizerChain:
    def test_s5_order(self):
        g = PermutationGroup([from_cycles([(0, 1)], 5), from_cycles([tuple(range(5))], 5)])
        assert order(g) == 120

    def test_single_15_cycle(self):
        g = PermutationGroup([from_cycles([tuple(range(15))], 15)])
        assert order(g) == 15

    def test_d30_order(self):
        assert order(catalog("dihedral", 30)) == 30

    def test_trivial_group(self):
        assert order(PermutationGroup([identity(4)])) == 1

    def test_chain_invariants(self):
        g = catalog("symmetric", 5)
        chain = StabilizerChain(g.generators, g.degree)
        prod = 1
        for trans in chain.transversals:
            prod *= len(trans)
        assert prod == 120
        for gen in g.generators:
            residue, _ = chain.sift(gen)
            assert residue.is_identity()

    def test_base_points_are_smallest_moved(self):
        g = catalog("symmetric", 4)
        chain = StabilizerChain(g.generators, g.degree)
        assert chain.base[0] == 0

    @pytest.mark.parametrize(
        "group",
        [
            catalog("cyclic", 30),
            catalog("dihedral", 30),
            catalog("symmetric", 4),
            catalog("alternating", 5),
            catalog("frobenius21"),
            catalog("sl23"),
            catalog("psl27"),
            catalog("symmetric", 5),
            catalog("dihedral", 210),
        ],
        ids=lambda g: g.name,
    )
    def test_order_matches_exhaustive_closure(self, group):
        assert order(group) == closure_order(group.generators)

    @pytest.mark.parametrize("name,n", [("symmetric", 5), ("sl23_example", None), ("symmetric", 8)])
    def test_each_schreier_generator_sifted_once(self, monkeypatch, name, n):
        # at most one sift per (orbit point, strong generator) pair of a level, and
        # residues go only to the levels below the one whose Schreier generator left them
        sifts = Counter()
        original = StabilizerChain.sift

        def counted(self, p, start=0):
            sifts[start] += 1
            return original(self, p, start)

        monkeypatch.setattr(StabilizerChain, "sift", counted)
        group = catalog(name, n)
        chain = StabilizerChain(group.generators)
        assert chain.order() == len(group.element_table())
        assert sifts[0] == 0 and sifts.total() > 0
        for level, (trans, gens) in enumerate(zip(chain.transversals, chain.gens)):
            assert sifts[level + 1] <= len(trans) * len(gens)
        assert chain.gens[0] == group.generators


@st.composite
def small_subgroups(draw):
    """2-3 random generators of a subgroup of S_n, n <= 7."""
    n = draw(st.integers(min_value=2, max_value=7))
    perms = st.permutations(range(n)).map(Permutation)
    return draw(st.lists(perms, min_size=2, max_size=3))


class TestChainAgainstClosure:
    @settings(derandomize=True, deadline=None, max_examples=40, database=None)
    @given(gens=small_subgroups(), data=st.data())
    def test_chain_matches_closure(self, gens, data):
        elements = closure_elements(gens)
        chain = StabilizerChain(gens)
        assert chain.order() == len(elements)
        assert oracle.two_generated_order(gens[0], gens[1]) == closure_order(gens[:2])
        n = len(gens[0])
        samples = data.draw(st.lists(st.permutations(range(n)).map(Permutation), max_size=4))
        samples += data.draw(st.lists(st.sampled_from(sorted(elements)), max_size=4))
        for p in samples:
            assert chain.sift(p)[0].is_identity() == (p in elements)
        for level, (gens_at, trans) in enumerate(zip(chain.gens, chain.transversals)):
            b = chain.base[level]
            assert all(g[c] == c for g in gens_at for c in chain.base[:level])
            assert set(trans) == closure_orbit(b, gens_at)
            assert all(u[b] == p and (u * v).is_identity() for p, (u, v) in trans.items())


class TestIndexLayer:
    # every index map of the table against the permutation products it stands for
    @settings(derandomize=True, deadline=None, max_examples=40, database=None)
    @given(gens=small_subgroups(), data=st.data())
    def test_index_maps_match_products(self, gens, data):
        table = PermutationGroup(gens).element_table()
        elements, index_of = table.elements, table.index_of
        for t, g in enumerate(table.generators):
            assert list(table.rmul[t]) == [index_of[p * g] for p in elements]
            assert list(table.mul_maps(index_of[g])[1]) == [index_of[g * p] for p in elements]
            assert list(table.conj_maps[t]) == [index_of[p.conjugate(g)] for p in elements]
        assert list(table.inv) == [index_of[p.inverse()] for p in elements]
        index = st.integers(min_value=0, max_value=len(table) - 1)
        for i in data.draw(st.lists(index, min_size=1, max_size=3)):
            x = elements[i]
            R, L = table.mul_maps(i)
            assert list(R) == [index_of[p * x] for p in elements]
            assert list(L) == [index_of[x * p] for p in elements]
            subset = set(data.draw(st.lists(index, max_size=20)))
            expected = {m for m in subset if elements[m] * x == x * elements[m]}
            assert centralizer_elements(table, subset, i) == expected


class TestTimes:
    # times carries indices along a word: the one product on a listed table
    @staticmethod
    def check_walk(table, pairs):
        elements, index_of = table.elements, table.index_of
        n = len(table)
        for i, j in pairs:
            assert elements[table.times(i, j)] == elements[i] * elements[j]
            products = [index_of[p * elements[j]] for p in elements]
            assert list(table.times(np.arange(n), j)) == products

    @pytest.mark.parametrize("group", standard_catalog(), ids=lambda g: g.name)
    def test_catalog(self, group):
        table = group.element_table()
        rng = random.Random(len(table))
        self.check_walk(table, [(rng.randrange(len(table)), rng.randrange(len(table))) for _ in range(4)])

    @settings(derandomize=True, deadline=None, max_examples=40, database=None)
    @given(group=small_groups(), data=st.data())
    def test_small_groups(self, group, data):
        table = group.element_table()
        index = st.integers(min_value=0, max_value=len(table) - 1)
        self.check_walk(table, data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=4)))


class TestContains:
    # membership is a lookup in the element table
    def test_identity_in_any_group(self):
        for g in (catalog("dihedral", 30), catalog("alternating", 5)):
            assert identity(g.degree) in g.element_table().index_of

    def test_odd_permutation_not_in_a4(self):
        a4 = catalog("alternating", 4)
        assert from_cycles([(0, 1)], 4) not in a4.element_table().index_of

    def test_generators_in_group(self):
        g = catalog("psl27")
        for gen in g.generators:
            assert gen in g.element_table().index_of

    def test_degree_mismatch(self):
        assert identity(4) not in catalog("dihedral", 30).element_table().index_of


class TestEnumeration:
    def test_c6_order_multiset(self):
        table = catalog("cyclic", 6).element_table()
        assert Counter(table.order_of) == {1: 1, 2: 1, 3: 2, 6: 2}

    def test_d30_order_multiset(self):
        table = catalog("dihedral", 30).element_table()
        assert Counter(table.order_of) == {1: 1, 2: 15, 3: 2, 5: 4, 15: 8}

    def test_cap_exceeded(self):
        with pytest.raises(OrderCapExceeded) as exc:
            enumerate_elements(catalog("symmetric", 5), cap=100)
        assert exc.value.order == 120

    def test_cap_equal_to_order_lists_all(self):
        assert len(enumerate_elements(catalog("symmetric", 4), cap=24).elements) == 24

    @pytest.mark.parametrize(
        "group, cap, named, message",
        [
            (catalog("symmetric", 4), 23, 24, "group order 24 exceeds cap 23; raise the cap to proceed"),
            (PermutationGroup([], degree=3), 0, None,
             "group has more than 0 elements, exceeds cap 0; raise the cap to proceed"),
            (PermutationGroup(catalog("symmetric", 4).generators), 23, None,
             "group has more than 23 elements, exceeds cap 23; raise the cap to proceed"),
        ],
        ids=["s4", "trivial", "s4-chain"],
    )
    def test_cap_one_below_order(self, group, cap, named, message):
        # the trivial group finds no new element: only the identity exceeds cap 0;
        # with no known order, the refusal names none
        with pytest.raises(OrderCapExceeded) as exc:
            enumerate_elements(group, cap=cap)
        assert exc.value.order == named
        assert str(exc.value) == message

    @pytest.mark.parametrize("order, cap", [(120, 100), (None, 100)])
    def test_cap_exceeded_pickles(self, order, cap):
        exc = pickle.loads(pickle.dumps(OrderCapExceeded(order, cap)))
        assert isinstance(exc, OrderCapExceeded)
        assert (exc.order, exc.cap) == (order, cap)
        assert str(exc) == str(OrderCapExceeded(order, cap))

    def test_group_holds_no_listing(self):
        # each call lists the group anew, and the group keeps no table
        group = catalog("dihedral", 30)
        first, second = group.element_table(), group.element_table()
        assert first is not second
        assert pickle.dumps(first) == pickle.dumps(second)
        assert not any(isinstance(v, groups.ElementTable) for v in vars(group).values())

    def test_identity_first(self):
        table = catalog("dihedral", 30).element_table()
        assert table.elements[0].is_identity()
        assert len(set(table.elements)) == 30

    @pytest.mark.parametrize("name,n", [("dihedral", 30), ("psl27", None), ("sl23_example", None)])
    def test_products_and_words(self, name, n):
        table = catalog(name, n).element_table()
        gens = table.generators
        for t, g in enumerate(gens):
            assert list(table.rmul[t]) == [table.index_of[p * g] for p in table.elements]
            assert list(table.mul_maps(table.index_of[g])[1]) == [table.index_of[g * p] for p in table.elements]
        assert list(table.inv) == [table.index_of[p.inverse()] for p in table.elements]
        for i, p in enumerate(table.elements):
            q = identity(table.degree)
            for t in table.word(i):
                q = q * gens[t]
            assert q == p

    def test_prime_sets(self):
        table = catalog("cyclic", 30).element_table()
        for i, o in enumerate(table.order_of):
            assert table.primes_of[i] == (set() if o == 1 else {p for p in (2, 3, 5) if o % p == 0})


# the package's listing and the oracle's chain answer every case alike
BOTH_ORDERS = (two_generated_order, oracle.two_generated_order)


class TestTwoGeneratedOrder:
    def test_identity_pair(self):
        for pair_order in BOTH_ORDERS:
            assert pair_order(identity(5), identity(5)) == 1

    def test_s5_generators(self):
        x = from_cycles([(0, 1)], 5)
        y = from_cycles([tuple(range(5))], 5)
        for pair_order in BOTH_ORDERS:
            assert pair_order(x, y) == 120

    def test_d30_generators(self):
        g = catalog("dihedral", 30)
        a, b = g.generators
        for pair_order in BOTH_ORDERS:
            assert pair_order(b, a) == 30

    def test_degree_mismatch(self):
        for pair_order in BOTH_ORDERS:
            with pytest.raises(ValueError):
                pair_order(identity(3), identity(4))

    @pytest.mark.parametrize(
        "group",
        [catalog("dihedral", 30), catalog("sl23"), catalog("alternating", 5)],
        ids=lambda g: g.name,
    )
    def test_conjugation_and_swap_invariance(self, group):
        table = group.element_table()
        rng = random.Random(13)
        for _ in range(25):
            x, y, g = (rng.choice(table.elements) for _ in range(3))
            n = two_generated_order(x, y)
            for pair_order in BOTH_ORDERS:
                assert pair_order(x, y) == n
                assert pair_order(y, x) == n
                assert pair_order(x.conjugate(g), y.conjugate(g)) == n


class TestConjugacyClasses:
    def test_abelian_singletons(self):
        table = catalog("cyclic", 12).element_table()
        assert len(table.class_reps) == 12
        assert table.class_of == list(range(12))

    def test_s3_class_sizes(self):
        table = catalog("symmetric", 3).element_table()
        sizes = sorted(Counter(table.class_of).values())
        assert sizes == [1, 2, 3]

    def test_d30_class_sizes(self):
        # oracle (by hand): identity, one class of 15 reflections, seven
        # rotation classes {a^i, a^-i}
        table = catalog("dihedral", 30).element_table()
        sizes = sorted(Counter(table.class_of).values())
        assert sizes == [1] + [2] * 7 + [15]

    def test_reps_are_least_indices(self):
        table = catalog("symmetric", 4).element_table()
        for cid, rep in enumerate(table.class_reps):
            members = table.class_members(cid)
            assert rep == min(members)

    @settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @given(group=small_groups())
    def test_random_groups_match_brute_force(self, group):
        # each class is the closure of an element under conjugation by every
        # element, labelled by its least index, class ids in label order
        table = group.element_table()
        x = table.elements
        label = [None] * len(x)
        for i in range(len(x)):
            if label[i] is None:
                for j in {table.index_of[x[i].conjugate(g)] for g in x}:
                    label[j] = i
        reps = sorted(set(label))
        assert table.class_reps == reps
        assert table.class_of == [reps.index(m) for m in label]

    @pytest.mark.parametrize(
        "group",
        [catalog("dihedral", 30), catalog("sl23"), catalog("symmetric", 4)],
        ids=lambda g: g.name,
    )
    def test_conj_maps_match_conjugation(self, group):
        table = group.element_table()
        assert len(table.conj_maps) == len(table.generators)
        for g, m in zip(table.generators, table.conj_maps):
            for i, p in enumerate(table.elements):
                assert m[i] == table.index_of[p.conjugate(g)]

    @pytest.mark.parametrize(
        "group",
        [catalog("dihedral", 30), catalog("sl23"), catalog("alternating", 5), catalog("symmetric", 5)],
        ids=lambda g: g.name,
    )
    def test_orbit_stabilizer(self, group):
        table = group.element_table()
        n = len(table.elements)
        everyone = set(range(n))
        sizes = Counter(table.class_of)
        for cid, rep in enumerate(table.class_reps):
            assert sizes[cid] * len(centralizer_elements(table, everyone, rep)) == n


class TestCentralizer:
    def test_identity_subset(self):
        table = catalog("dihedral", 30).element_table()
        assert centralizer_elements(table, {0}, 5) == {0}

    def test_abelian_full(self):
        table = catalog("cyclic", 12).element_table()
        everyone = set(range(12))
        for x in range(12):
            assert centralizer_elements(table, everyone, x) == everyone

    def test_d30_rotations_vs_reflection(self):
        g = catalog("dihedral", 30)
        table = g.element_table()
        a, b = g.generators
        rotations = {table.index_of[a**i] for i in range(15)}
        reflection = table.index_of[b]
        assert centralizer_elements(table, rotations, reflection) == {0}


class TestNormalClosure:
    def test_identity_seed(self):
        table = catalog("symmetric", 4).element_table()
        assert normal_closure(table, [identity(4)]).sum() == 1

    def test_s4_klein_four(self):
        table = catalog("symmetric", 4).element_table()
        n = normal_closure(table, [from_cycles([(0, 1), (2, 3)], 4)])
        assert n.sum() == 4

    def test_d30_rotation_power(self):
        g = catalog("dihedral", 30)
        a = g.generators[0]
        assert normal_closure(g.element_table(), [a**3]).sum() == 5

    def test_seed_not_in_group(self):
        table = catalog("alternating", 4).element_table()
        with pytest.raises(ValueError):
            normal_closure(table, [from_cycles([(0, 1)], 4)])


class TestDerivedAndSolvable:
    def test_abelian_derived_trivial(self):
        assert derived_subgroup(catalog("cyclic", 12).element_table()).sum() == 1

    def test_s3_derived(self):
        assert derived_subgroup(catalog("symmetric", 3).element_table()).sum() == 3

    def test_s4_derived(self):
        assert derived_subgroup(catalog("symmetric", 4).element_table()).sum() == 12

    @pytest.mark.parametrize(
        "group,expected",
        [
            (catalog("dihedral", 30), True),
            (catalog("cyclic", 30), True),
            (catalog("frobenius21"), True),
            (catalog("sl23"), True),
            (catalog("sl23_example"), True),
            (catalog("alternating", 5), False),
            (catalog("symmetric", 5), False),
            (catalog("psl27"), False),
        ],
        ids=lambda v: v.name if isinstance(v, PermutationGroup) else str(v),
    )
    def test_solvability(self, group, expected):
        assert is_solvable(group.element_table()) is expected

    @settings(derandomize=True, deadline=None, max_examples=40, database=None)
    @given(gens=small_subgroups(), data=st.data())
    def test_matches_brute_force(self, gens, data):
        group = PermutationGroup(gens)
        elements = closure_elements(gens)
        assume(len(elements) <= 168)
        table = group.element_table()
        seeds = data.draw(st.lists(st.sampled_from(sorted(elements)), max_size=2))
        conjugates = [s.conjugate(g) for s in seeds for g in elements]
        assert members(table, normal_closure(table, seeds)) == closure_elements(conjugates or [identity(group.degree)])
        assert members(table, derived_subgroup(table)) == brute_derived(elements)
        series = elements
        while len(derived := brute_derived(series)) < len(series):
            series = derived
        assert is_solvable(table) is (len(series) == 1)


class TestCatalog:
    def test_dihedral_30(self):
        g = catalog("dihedral", 30)
        assert order(g) == 30
        assert g.generators[0].order() == 15

    def test_sl23_example(self):
        g = catalog("sl23_example")
        assert order(g) == 1512  # 9 * 7 * 24 = 2^3 * 3^3 * 7

    def test_direct_product_of_coprime_cyclics(self):
        g = direct_product(catalog("cyclic", 3), catalog("cyclic", 5))
        assert order(g) == 15
        table = g.element_table()
        assert 15 in table.order_of

    def test_psl27(self):
        assert order(catalog("psl27")) == 168

    def test_sl23(self):
        g = catalog("sl23")
        assert order(g) == 24
        table = g.element_table()
        assert Counter(table.order_of)[2] == 1  # unique involution

    def test_alternating_5(self):
        assert order(catalog("alternating", 5)) == 60

    def test_alternating_even_degree(self):
        assert order(catalog("alternating", 6)) == 360

    def test_alternating_small_degrees(self):
        assert order(catalog("alternating", 1)) == 1
        assert order(catalog("alternating", 2)) == 1
        for n in (0, -5):
            with pytest.raises(ValueError):
                catalog("alternating", n)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            catalog("monster")

    @pytest.mark.parametrize(
        "name,n", [("cyclic", 10**6), ("dihedral", 2 * 10**6), ("symmetric", 10**6), ("alternating", 10**6)]
    )
    def test_degree_over_the_bound_allocates_nothing(self, name, n):
        # refused before any degree-sized list is built
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exceeds the supported maximum"):
                catalog(name, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_trivial_group_over_the_bound(self):
        with pytest.raises(ValueError, match="exceeds the supported maximum"):
            PermutationGroup([], degree=5000)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            catalog("cyclic")
        with pytest.raises(ValueError):
            catalog("psl27", 7)
        with pytest.raises(ValueError):
            catalog("dihedral", 31)


def _det(m, p):
    if len(m) == 1:
        return m[0][0] % p
    minors = ([row[:c] + row[c + 1 :] for row in m[1:]] for c in range(len(m)))
    return sum((-1) ** c * m[0][c] * _det(minor, p) for c, minor in enumerate(minors)) % p


class TestAffineEncoder:
    @pytest.mark.parametrize("p,d", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1), (7, 1), (13, 1)])
    @pytest.mark.parametrize("nonzero", [False, True])
    def test_products_compose_matrices(self, p, d, nonzero):
        rng = random.Random(p * 100 + d * 10 + nonzero)
        for _ in range(20):
            a, b = ([[rng.randrange(p) for _ in range(d)] for _ in range(d)] for _ in range(2))
            for m in (a, b):
                if not _det(m, p):
                    with pytest.raises(ValueError):
                        _affine(p, m, nonzero=nonzero)
            if _det(a, p) and _det(b, p):
                ba = [[sum(b[r][k] * a[k][c] for k in range(d)) % p for c in range(d)] for r in range(d)]
                # products compose left to right: x -> A x, then -> B (A x)
                product = _affine(p, a, nonzero=nonzero) * _affine(p, b, nonzero=nonzero)
                assert product == _affine(p, ba, nonzero=nonzero)

    def test_point_encoding(self):
        # on F_3^2 the vector (x, y) is the point x + 3y; x -> x + (1, 2) sends 0 to 7
        assert _affine(3, [[1, 0], [0, 1]], [1, 2])[0] == 7
        # without the zero vector, (1, 0, 0) is point 0 and (0, 0, 1) is point 3
        assert _affine(2, [[0, 0, 1], [1, 0, 0], [0, 1, 0]], nonzero=True)[3] == 0

    def test_singular_matrix_is_refused(self):
        with pytest.raises(ValueError):
            _affine(3, [[1, 2], [2, 1]])

    def test_beside(self):
        a, b = Permutation([1, 2, 0]), Permutation([1, 0])
        assert _beside(a, b) == Permutation([1, 2, 0, 4, 3])
        assert _beside(a, b) * _beside(a, b) == _beside(a * a, b * b)


def _catalog_sample():
    """The standard catalog, with its three direct products, and 70 more catalog groups."""
    sample = standard_catalog()
    for name in ("cyclic", "symmetric", "alternating"):
        sample += [catalog(name, k) for k in range(1, 12)]
    sample += [catalog("dihedral", 2 * m) for m in range(3, 40)]
    return sample


def test_catalog_generators_are_pinned():
    # every chain, table, label and output depends on these tuples and their order
    sample = _catalog_sample()
    assert len(sample) == 86
    listing = repr([(g.name, g.degree, [tuple(x) for x in g.generators]) for g in sample])
    assert hashlib.sha256(listing.encode()).hexdigest() == (
        "09dc2a38236570547cc259dc07a518b8f43c77a350909d3577d7f7a42bd5cf14"
    )


def test_known_orders_match_chains_and_tables():
    # the catalog's closed formulas against the chain and, within the cap, the listing
    for g in _catalog_sample():
        assert g.known_order == order(g), g.name
        if g.known_order <= 20_000:
            assert len(enumerate_elements(g, cap=20_000)) == g.known_order, g.name


def test_wrong_known_order_raises():
    d30 = catalog("dihedral", 30)
    with pytest.raises(ValueError, match=r"^dihedral\(30\): 30 elements listed, known order 29$"):
        enumerate_elements(PermutationGroup(d30.generators, name=d30.name, known_order=29))


def test_group_files_know_no_order():
    assert parse_group_text("degree: 5\ngen: (1,2)\ngen: (1,2,3,4,5)\n").known_order is None


def _chain_names(source):
    """The identifiers, attributes, definitions, imports and string constants
    in source that name a stabilizer chain or its sift."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        for field in ("id", "attr", "name", "asname", "arg", "value"):
            value = getattr(node, field, None)
            if isinstance(value, str) and value in {"StabilizerChain", "sift", "chain"}:
                names.add(value)
    return names


def test_package_builds_no_stabilizer_chain():
    # every order is the length of a listing: no module defines, imports or calls a chain
    assert _chain_names("from .groups import StabilizerChain\ng.chain.sift(p)\n") == {
        "StabilizerChain", "chain", "sift"
    }
    sources = sorted(Path(groups.__file__).parent.glob("*.py"))
    assert len(sources) >= 8
    for path in sources:
        assert _chain_names(path.read_text(encoding="utf-8")) == set(), path.name
    assert not hasattr(PermutationGroup, "order")
    assert not hasattr(catalog("cyclic", 6), "order")


class TestGroupFiles:
    def test_round_trip(self, tmp_path):
        text = "# comment\ndegree: 5\ngen: (1,2)\ngen: (1,2,3,4,5)\n"
        path = tmp_path / "s5.grp"
        path.write_text(text)
        g = load_group(path)
        assert order(g) == 120

    def test_malformed_cycle_names_line(self):
        with pytest.raises(ValueError, match=":3:"):
            parse_group_text("degree: 5\ngen: (1,2)\ngen: (1,1)\n", source="bad.grp")

    def test_missing_degree(self):
        with pytest.raises(ValueError, match="degree"):
            parse_group_text("gen: (1,2)\n")

    def test_degree_over_the_bound(self):
        with pytest.raises(ValueError, match=":1: degree must be between 1 and 1024"):
            parse_group_text("degree: 5000\ngen: ()")

    @pytest.mark.parametrize("degree", ["1_2", "\u0661\u0662", "\uff11\uff12", "+12", "12.0", "0x0c"])
    def test_degree_is_ascii_digits(self, degree):
        # int() reads the first four as 12; a degree is ASCII digits alone
        with pytest.raises(ValueError) as exc:
            parse_group_text(f"degree: {degree}\ngen: (1,2)", source="bad.grp")
        assert str(exc.value) == f"bad.grp:1: bad degree {degree!r}"

    def test_cycle_digits_are_ascii(self):
        with pytest.raises(ValueError, match="^bad.grp:2: malformed cycle notation: "):
            parse_group_text("degree: 5\ngen: (\u0661,\u0662)", source="bad.grp")

    def test_point_out_of_range(self):
        with pytest.raises(ValueError, match=":2:"):
            parse_group_text("degree: 3\ngen: (1,4)\n")

    def test_blank_lines_and_comments_ignored(self):
        g = parse_group_text("\n# header\ndegree: 3\n\ngen: (1,2,3)  # rotation\n")
        assert order(g) == 3

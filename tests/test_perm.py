import itertools
import random
import tracemalloc

import pytest

from triprime.perm import (
    Permutation,
    format_cycles,
    from_cycles,
    identity,
    parse_cycles,
)


def brute_force_order(p):
    # independent oracle: repeated multiplication until the identity shows up
    q = p
    m = 1
    while not q.is_identity():
        q = q * p
        m += 1
    return m


def random_perm(rng, n):
    images = list(range(n))
    rng.shuffle(images)
    return Permutation(images)


class TestConstruction:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation([0, 0, 1])
        with pytest.raises(ValueError):
            Permutation([0, 2])

    def test_rejects_oversized_degree(self):
        with pytest.raises(ValueError):
            Permutation(range(2000))

    def test_identity(self):
        e = identity(5)
        assert e.is_identity()
        assert e.degree == 5

    def test_identity_over_the_bound(self):
        with pytest.raises(ValueError, match="exceeds the supported maximum"):
            identity(5000)

    def test_parsed_identity_over_the_bound(self):
        with pytest.raises(ValueError, match="exceeds the supported maximum"):
            parse_cycles("()", 5000)

    def test_point_past_the_degree(self):
        with pytest.raises(ValueError, match="point 6 out of range for degree 3"):
            from_cycles([(0, 5)], 3)

    @pytest.mark.parametrize("text", ["()", "(1,2)"])
    def test_parsed_over_the_bound_allocates_nothing(self, text):
        # refused before any degree-sized list is built
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="degree 2000000 exceeds the supported maximum 1024"):
                parse_cycles(text, 2_000_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestCompose:
    def test_involution_squared(self):
        t = from_cycles([(0, 1)], 3)
        assert (t * t).is_identity()

    def test_identity_law(self):
        p = from_cycles([(0, 1, 2)], 4)
        assert p * identity(4) == p
        assert identity(4) * p == p

    def test_three_cycle_squared_is_inverse(self):
        c = from_cycles([(0, 1, 2)], 3)
        assert c * c == c.inverse()

    def test_left_to_right_action(self):
        # (p * q)(i) = q(p(i))
        p = from_cycles([(0, 1)], 3)
        q = from_cycles([(1, 2)], 3)
        assert (p * q)[0] == 2

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            identity(3) * identity(4)

    def test_associativity_random(self):
        rng = random.Random(7)
        for _ in range(200):
            p, q, r = (random_perm(rng, 9) for _ in range(3))
            assert (p * q) * r == p * (q * r)

    def test_inverse_two_sided(self):
        rng = random.Random(8)
        for _ in range(100):
            p = random_perm(rng, 10)
            assert (p * p.inverse()).is_identity()
            assert (p.inverse() * p).is_identity()

    def test_negative_power(self):
        rng = random.Random(10)
        for _ in range(20):
            x = random_perm(rng, 10)
            assert x ** -1 == x.inverse()
            assert x ** -2 == (x ** 2).inverse()


class TestOrder:
    def test_identity_order(self):
        assert identity(6).order() == 1

    def test_mixed_cycles(self):
        p = from_cycles([(0, 1, 2), (3, 4)], 5)
        assert p.order() == 6

    def test_long_cycle(self):
        p = from_cycles([tuple(range(15))], 15)
        assert p.order() == 15

    def test_matches_brute_force(self):
        rng = random.Random(9)
        for _ in range(100):
            p = random_perm(rng, 12)
            assert p.order() == brute_force_order(p)


class TestCycleDecomposition:
    def test_identity_empty(self):
        assert identity(4).cycles() == []

    def test_simple_swap(self):
        assert Permutation([1, 0, 2]).cycles() == [(0, 1)]

    def test_two_cycles(self):
        assert Permutation([1, 2, 0, 4, 3]).cycles() == [(0, 1, 2), (3, 4)]

    def test_canonical_form(self):
        rng = random.Random(10)
        for _ in range(50):
            p = random_perm(rng, 10)
            cycles = p.cycles()
            flat = [x for c in cycles for x in c]
            assert len(flat) == len(set(flat))
            for c in cycles:
                assert len(c) >= 2
                assert c[0] == min(c)
            assert [c[0] for c in cycles] == sorted(c[0] for c in cycles)


class TestTextFormat:
    def test_empty_parses_to_identity(self):
        assert parse_cycles("()", 5) == identity(5)

    def test_basic_parse(self):
        p = parse_cycles("(1,2,3)(4,5)", 5)
        assert p.cycles() == [(0, 1, 2), (3, 4)]

    def test_repeated_point_rejected(self):
        with pytest.raises(ValueError):
            parse_cycles("(1,1,2)", 5)
        with pytest.raises(ValueError):
            parse_cycles("(1,2)(2,3)", 5)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            parse_cycles("(1,9)", 5)
        with pytest.raises(ValueError):
            parse_cycles("(0,1)", 5)

    def test_malformed_rejected(self):
        for bad in ["(1,2", "1,2)", "(1)", "(a,b)", "(1,2)x", "",
                    "(1,2)()", "()(1,2)", "()()", "((1,2))", "(1,,2)", "(1,2,)"]:
            with pytest.raises(ValueError):
                parse_cycles(bad, 5)

    def test_error_messages(self):
        # the range check runs before the repeat check, whatever the cycle order
        with pytest.raises(ValueError, match=r"^point 99 out of range for degree 5$"):
            parse_cycles("(1,2)(3,99)(1,3)", 5)
        with pytest.raises(ValueError, match=r"^repeated point 1$"):
            parse_cycles("(1,1,2)", 5)

    def test_whitespace_ignored(self):
        assert parse_cycles(" ( 1 , 2 , 3 ) ( 4 , 5 ) ", 5) == parse_cycles("(1,2,3)(4,5)", 5)
        assert parse_cycles("( )", 5) == parse_cycles("()", 5)
        assert parse_cycles("( 1,2 )\n(3,\t4)", 5) == parse_cycles("(1,2)(3,4)", 5)

    def test_format_identity(self):
        assert format_cycles(identity(7)) == "()"

    def test_format_example(self):
        assert format_cycles(Permutation([1, 2, 0, 4, 3])) == "(1,2,3)(4,5)"

    def test_round_trip_exhaustive_degree_6(self):
        for images in itertools.permutations(range(6)):
            p = Permutation(images)
            assert parse_cycles(format_cycles(p), 6) == p

    def test_round_trip_random_degree_8(self):
        rng = random.Random(11)
        for _ in range(1000):
            p = random_perm(rng, 8)
            assert parse_cycles(format_cycles(p), 8) == p

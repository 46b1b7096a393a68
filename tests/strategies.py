"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from oracle import order
from triprime.groups import PermutationGroup
from triprime.perm import Permutation


@st.composite
def small_groups(draw):
    """A subgroup of S_n, n <= 8, of order at most 200: of 2-4 random
    generators, each is kept only when the group stays that small, so no
    draw is rejected and the naive oracle stays fast."""
    n = draw(st.integers(min_value=2, max_value=8))
    gens = []
    for g in draw(st.lists(st.permutations(range(n)).map(Permutation), min_size=2, max_size=4)):
        if order(PermutationGroup(gens + [g])) <= 200:
            gens.append(g)
    return PermutationGroup(gens)

"""The tests' independent reference for group orders: a stabilizer chain.

The package reads every order off its element tables; this module never
lists elements. StabilizerChain is the deterministic incremental
Schreier-Sims, with the smallest moved point as each base point and orbits
extended breadth-first in generator order, reproducible for a fixed
generator sequence. order(group) and two_generated_order(x, y) are the
references for a group's order and for |<x, y>|.
"""

from math import prod

from triprime.perm import identity


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

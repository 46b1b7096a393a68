"""Permutations of {0..n-1} and the cycle-notation text format.

Conventions, fixed project-wide:
  * composition is left-to-right: (p * q) maps i to q(p(i));
  * points are 0-based in code and 1-based in all text I/O.
"""

import math
import re

MAX_DEGREE = 1024

_PERMUTATION_RE = re.compile(r"\(\)|(?:\([0-9]+(?:,[0-9]+)+\))+")


class Permutation(tuple):
    """Image table of a bijection on {0..n-1}; entry i is the image of i.

    Immutable (a tuple subclass), hashable, safe to share between workers.
    """

    __slots__ = ()

    def __new__(cls, images):
        p = tuple.__new__(cls, images)
        n = len(p)
        check_degree(n)
        seen = [False] * n
        for i in p:
            if not isinstance(i, int) or not 0 <= i < n or seen[i]:
                raise ValueError(f"not a permutation of 0..{n - 1}: {list(p)!r}")
            seen[i] = True
        return p

    @property
    def degree(self):
        return len(self)

    def is_identity(self):
        return self == tuple(range(len(self)))

    def __mul__(self, other):
        """Compose left-to-right: (self * other)(i) = other(self(i))."""
        if len(self) != len(other):
            raise ValueError(f"degree mismatch: {len(self)} vs {len(other)}")
        return tuple.__new__(Permutation, map(other.__getitem__, self))

    def inverse(self):
        inv = [0] * len(self)
        for i, j in enumerate(self):
            inv[j] = i
        return tuple.__new__(Permutation, inv)

    def __pow__(self, m):
        if m < 0:
            return self.inverse() ** (-m)
        q = identity(len(self))
        p = self
        while m:
            if m & 1:
                q = q * p
            p = p * p
            m >>= 1
        return q

    def conjugate(self, h):
        """Return h^-1 * self * h."""
        return h.inverse() * self * h

    def commutator(self, other):
        """Return self^-1 * other^-1 * self * other."""
        return self.inverse() * other.inverse() * self * other

    def order(self):
        """Least m >= 1 with self^m = identity: the lcm of the cycle lengths."""
        return math.lcm(*(len(c) for c in self.cycles()))

    def cycles(self):
        """Cycle decomposition, fixed points omitted.

        Each cycle starts at its minimal point; cycles are sorted by first
        point. The identity decomposes into the empty list.
        """
        seen = [False] * len(self)
        out = []
        for i in range(len(self)):
            if seen[i] or self[i] == i:
                continue
            cyc = [i]
            seen[i] = True
            j = self[i]
            while j != i:
                seen[j] = True
                cyc.append(j)
                j = self[j]
            out.append(tuple(cyc))
        return out

    def __repr__(self):
        return f"Permutation[{format_cycles(self)}]"

    def __str__(self):
        return format_cycles(self)


def check_degree(n):
    """Raise ValueError when n exceeds MAX_DEGREE, before anything of size n is built."""
    if n > MAX_DEGREE:
        raise ValueError(f"degree {n} exceeds the supported maximum {MAX_DEGREE}")


def identity(n):
    """The identity permutation of the given degree."""
    check_degree(n)
    return tuple.__new__(Permutation, range(n))


def from_cycles(cycles, degree):
    """Build a permutation from disjoint cycles of 0-based points."""
    check_degree(degree)
    images = list(range(degree))
    touched = set()
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + type(cyc)((cyc[0],))):
            if a in touched:
                raise ValueError(f"repeated point {a + 1}")
            if not 0 <= a < degree:
                raise ValueError(f"point {a + 1} out of range for degree {degree}")
            touched.add(a)
            images[a] = b
    return Permutation(images)


def format_cycles(p):
    """Canonical 1-based cycle notation; "()" for the identity."""
    cyc = p.cycles()
    if not cyc:
        return "()"
    return "".join("(" + ",".join(str(i + 1) for i in c) + ")" for c in cyc)


def parse_cycles(text, degree):
    """Parse 1-based cycle notation, e.g. "(1,2,3)(4,5)"; "()" is the identity.

    Grammar: permutation := "()" | cycle+ ; cycle := "(" int ("," int)+ ")",
    an int being ASCII digits. Whitespace between tokens is ignored; within a
    number, as in "1 0", it is malformed. Raises ValueError on malformed
    text, repeated points, or points outside 1..degree.
    """
    stripped = re.sub(r"\s+", "", text)
    if re.search(r"[0-9]\s+[0-9]", text) or not _PERMUTATION_RE.fullmatch(stripped):
        raise ValueError(f"malformed cycle notation: {text!r}")
    bodies = re.findall(r"[0-9,]+", stripped)
    cycles = [tuple(int(tok) - 1 for tok in body.split(",")) for body in bodies]
    for cyc in cycles:
        for a in cyc:
            if not 0 <= a < degree:
                raise ValueError(f"point {a + 1} out of range for degree {degree}")
    return from_cycles(cycles, degree) if cycles else identity(degree)

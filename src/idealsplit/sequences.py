"""Exact-sequence machinery: exactness and splitting enumeration.

A Complex is a chain of composable homs; a ShortExact wraps the
five-term shape 0 -> A -> B -> C -> 0.  The exhaustive splitting
enumeration at the bottom is the oracle that the canonical solver
(``fgab.solve_hom``, as the builder uses it) is checked against.
"""

import itertools

from . import fgab
from .errors import (
    AmbientMismatchError,
    NotExactError,
    SizeBoundError,
)


class Complex:
    """A chain of groups with composable maps, maps[i]: groups[i] -> groups[i+1]."""

    __slots__ = ("groups", "maps")

    def __init__(self, groups, maps, require_complex=False):
        groups = tuple(groups)
        maps = tuple(maps)
        if len(maps) != len(groups) - 1:
            raise AmbientMismatchError(
                "%d maps cannot connect %d groups" % (len(maps), len(groups)))
        for i, f in enumerate(maps):
            if f.domain != groups[i] or f.codomain != groups[i + 1]:
                raise AmbientMismatchError("map %d does not connect its groups" % i)
        if require_complex:
            for i in range(len(maps) - 1):
                comp = maps[i + 1] @ maps[i]
                if comp != fgab.GroupHom.zero(comp.domain, comp.codomain):
                    raise NotExactError(
                        "composite of maps %d and %d is nonzero" % (i, i + 1))
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "maps", maps)

    def __setattr__(self, name, value):
        raise AttributeError("Complex is immutable")

    def __len__(self):
        return len(self.groups)

    def __eq__(self, other):
        return (isinstance(other, Complex) and self.groups == other.groups
                and self.maps == other.maps)

    def __hash__(self):
        return hash((self.groups, self.maps))


def is_exact(c, position):
    """Exactness at one interior position: kernel out = image in."""
    if not 1 <= position <= len(c.groups) - 2:
        raise IndexError("no interior position %d in a %d-term complex"
                         % (position, len(c.groups)))
    return fgab.kernel(c.maps[position]) == fgab.image(c.maps[position - 1])


_TRIVIAL = fgab.FgGroup()


class ShortExact:
    """0 -> A -> B -> C -> 0 as a five-term complex."""

    __slots__ = ("complex",)

    def __init__(self, complex):
        if len(complex.groups) != 5 or not complex.groups[0].is_trivial() \
                or not complex.groups[4].is_trivial():
            raise AmbientMismatchError(
                "short exact sequences have shape 0 -> A -> B -> C -> 0")
        object.__setattr__(self, "complex", complex)

    def __setattr__(self, name, value):
        raise AttributeError("ShortExact is immutable")

    @classmethod
    def from_maps(cls, left, right):
        """Assemble the five-term complex around A -> B -> C."""
        if left.codomain != right.domain:
            raise AmbientMismatchError("left and right maps do not meet")
        a, b, c = left.domain, left.codomain, right.codomain
        return cls(Complex(
            (_TRIVIAL, a, b, c, _TRIVIAL),
            (fgab.GroupHom.zero(_TRIVIAL, a), left, right,
             fgab.GroupHom.zero(c, _TRIVIAL))))

    @property
    def a(self):
        return self.complex.groups[1]

    @property
    def b(self):
        return self.complex.groups[2]

    @property
    def c(self):
        return self.complex.groups[3]

    @property
    def left(self):
        return self.complex.maps[1]

    @property
    def right(self):
        return self.complex.maps[2]

    def validate(self):
        """Raise NotExactError unless the sequence is exact at A, B and C."""
        for position, label in ((1, "left term (injectivity)"),
                                (2, "middle term"),
                                (3, "right term (surjectivity)")):
            if not is_exact(self.complex, position):
                raise NotExactError("sequence fails at the %s" % label)

    def __eq__(self, other):
        return isinstance(other, ShortExact) and self.complex == other.complex

    def __hash__(self):
        return hash(self.complex)


def enumerate_splittings(s, bound=256):
    """Every splitting of a short exact sequence, by exhaustion.

    Returns all homs sigma: C -> B with right . sigma = id, sorted by
    matrix for a deterministic order.  This is the oracle the
    constrained solver is validated against; it is exponential by
    design and refuses groups beyond the bound.
    """
    s.validate()
    b, c = s.b, s.c
    right = s.right
    if b.size() is None or c.size() is None:
        raise SizeBoundError("splitting enumeration needs finite groups")
    if c.size() > bound:
        raise SizeBoundError("|C| = %d exceeds the bound %d" % (c.size(), bound))
    gens = c.gens()
    orders = c.orders
    candidates = []
    for j, gen in enumerate(gens):
        pool = [x for x in b.elements()
                if right(x) == gen and b.scale(orders[j], x) == b.zero()]
        candidates.append(pool)
    found = []
    for combo in itertools.product(*candidates):
        found.append(fgab.GroupHom.from_images(c, b, [list(x) for x in combo]))
    found.sort(key=lambda h: h.matrix)
    return found

"""Tests for exactness, purity, and splitting search.

The enumeration oracle is checked by hand-counted candidate scans; the
canonical solver (solve_hom with the splitting condition as a left
constraint, the kind of system the builder solves at each extension
step) is then checked against the enumeration, keeping the two routes
independent.
"""

import random

import pytest

from idealsplit import fgab, sequences
from idealsplit.errors import (
    AmbientMismatchError,
    NotExactError,
    SizeBoundError,
)

Z = fgab.FgGroup((), 1)
Z2 = fgab.FgGroup((2,))
Z4 = fgab.FgGroup((4,))
TRIV = fgab.FgGroup()


def seq(left, right):
    return sequences.ShortExact.from_maps(left, right)


def test_complex_shape_checks():
    ident = fgab.GroupHom.identity(Z2)
    with pytest.raises(AmbientMismatchError):
        sequences.Complex((Z2, Z2), (ident, ident))
    with pytest.raises(AmbientMismatchError):
        sequences.Complex((Z2, Z4), (ident,))
    comp = sequences.Complex((Z2, Z2, Z2), (ident, ident))
    with pytest.raises(NotExactError):
        sequences.Complex((Z2, Z2, Z2), (ident, ident), require_complex=True)
    zero = fgab.GroupHom.zero(Z2, Z2)
    sequences.Complex((Z2, Z2, Z2), (ident, zero), require_complex=True)
    assert len(comp) == 3


def test_is_exact_identity_middle():
    c = sequences.Complex(
        (TRIV, Z4, Z4, TRIV),
        (fgab.GroupHom.zero(TRIV, Z4), fgab.GroupHom.identity(Z4),
         fgab.GroupHom.zero(Z4, TRIV)))
    assert sequences.is_exact(c, 1) and sequences.is_exact(c, 2)
    with pytest.raises(IndexError):
        sequences.is_exact(c, 0)
    with pytest.raises(IndexError):
        sequences.is_exact(c, 3)


def test_is_exact_mod2_resolution():
    double = fgab.GroupHom(Z, Z, [[2]])
    reduce2 = fgab.GroupHom(Z, Z2, [[1]])
    s = seq(double, reduce2)
    assert all(sequences.is_exact(s.complex, p) for p in (1, 2, 3))
    s.validate()


def test_is_exact_detects_middle_failure():
    # reduction mod 4 after multiplication by 2: kernel 4Z != image 2Z
    double = fgab.GroupHom(Z, Z, [[2]])
    reduce4 = fgab.GroupHom(Z, Z4, [[1]])
    s = seq(double, reduce4)
    ker = fgab.kernel(reduce4)
    im = fgab.image(double)
    assert ker.contains((4,)) and not ker.contains((2,))
    assert im.contains((2,))
    assert not sequences.is_exact(s.complex, 2)
    assert sequences.is_exact(s.complex, 1)
    assert sequences.is_exact(s.complex, 3)
    with pytest.raises(NotExactError, match="middle term"):
        s.validate()


def test_pure_exact_summand_case():
    mid = fgab.FgGroup((2,), 1)
    left = fgab.GroupHom(Z2, mid, [[1], [0]])
    right = fgab.GroupHom(mid, Z, [[0, 1]])
    s = seq(left, right)
    s.validate()
    assert fgab.image(s.left).is_pure()


def test_pure_exact_rejects_impure():
    double = fgab.GroupHom(Z, Z, [[2]])
    reduce2 = fgab.GroupHom(Z, Z2, [[1]])
    s = seq(double, reduce2)
    s.validate()
    assert not fgab.image(s.left).is_pure()


def test_pure_exact_requires_exactness():
    # purity of a sequence is purity of its left image, asked only of
    # sequences that validate
    double = fgab.GroupHom(Z, Z, [[2]])
    reduce4 = fgab.GroupHom(Z, Z4, [[1]])
    with pytest.raises(NotExactError):
        seq(double, reduce4).validate()


def random_iso(rng, g, tries=60):
    for _ in range(tries):
        images = [[rng.randrange(e) if e else rng.randint(-3, 3)
                   for e in g.orders] for _ in range(g.rank)]
        try:
            f = fgab.GroupHom.from_images(g, g, images)
        except fgab.HomDefinitionError:
            continue
        if f.is_iso():
            return f
    return fgab.GroupHom.identity(g)


def test_split_instances_are_pure():
    rng = random.Random(0x5E90)
    for _ in range(25):
        a = fgab.FgGroup((rng.choice([2, 4]),))
        c = fgab.FgGroup((rng.choice([2, 3]),))
        b, injs, projs = fgab.direct_sum([a, c])
        theta = random_iso(rng, b)
        left = theta @ injs[0]
        right = projs[1] @ theta.inverse()
        s = seq(left, right)
        s.validate()
        assert fgab.image(s.left).is_pure()


def test_pure_exact_iso_invariance():
    rng = random.Random(0x5E91)
    double = fgab.GroupHom(Z, Z, [[2]])
    reduce2 = fgab.GroupHom(Z, Z2, [[1]])
    base = seq(double, reduce2)
    base.validate()
    verdict = fgab.image(base.left).is_pure()
    theta = random_iso(rng, Z)  # only +-1 scaling, still a real transport
    moved = seq(theta @ double, reduce2 @ theta.inverse())
    moved.validate()
    assert fgab.image(moved.left).is_pure() == verdict


# --- splitting enumeration ------------------------------------------------

def klein_sequence():
    mid = fgab.FgGroup((2, 2))
    left = fgab.GroupHom(Z2, mid, [[1], [0]])
    right = fgab.GroupHom(mid, Z2, [[0, 1]])
    return seq(left, right)


def test_enumerate_trivial_c():
    left = fgab.GroupHom.identity(Z4)
    right = fgab.GroupHom.zero(Z4, TRIV)
    s = seq(left, right)
    found = sequences.enumerate_splittings(s)
    assert found == [fgab.GroupHom.zero(TRIV, Z4)]


def test_enumerate_nonsplit_extension():
    times2 = fgab.GroupHom(Z2, Z4, [[2]])
    reduce2 = fgab.GroupHom(Z4, Z2, [[1]])
    s = seq(times2, reduce2)
    assert sequences.enumerate_splittings(s) == []


def test_enumerate_klein_derived():
    s = klein_sequence()
    # oracle: candidates are the 2 elements of Z/2+Z/2 projecting to 1;
    # both have order 2, so both give splittings
    pool = [x for x in s.b.elements() if s.right(x) == (1,)]
    assert sorted(pool) == [(0, 1), (1, 1)]
    found = sequences.enumerate_splittings(s)
    assert len(found) == 2
    assert sorted(h((1,)) for h in found) == [(0, 1), (1, 1)]
    for h in found:
        assert s.right @ h == fgab.GroupHom.identity(s.c)


def test_enumerate_respects_bound():
    big = fgab.FgGroup((512,))
    s = seq(fgab.GroupHom.zero(TRIV, big), fgab.GroupHom.identity(big))
    with pytest.raises(SizeBoundError):
        sequences.enumerate_splittings(s)
    assert len(sequences.enumerate_splittings(s, bound=512)) == 1
    infinite = seq(fgab.GroupHom.zero(TRIV, Z), fgab.GroupHom.identity(Z))
    with pytest.raises(SizeBoundError):
        sequences.enumerate_splittings(infinite)


# --- constrained splitting search ----------------------------------------

def canonical_splitting(s, partial=None, sub=None):
    """The canonical splitting of s that agrees with ``partial`` (a hom
    from sub's abstract group into B) on ``sub``, or None."""
    points = []
    if partial is not None:
        group, incl, _ = sub.as_group()
        points = [(incl(e), partial(e)) for e in group.gens()]
    return fgab.solve_hom(
        s.c, s.b, point_constraints=points,
        left_constraints=[(s.right, fgab.GroupHom.identity(s.c))])


def test_find_splitting_matches_enumeration():
    rng = random.Random(0x5E92)
    for _ in range(30):
        a = fgab.FgGroup((rng.choice([2, 4]),))
        c = fgab.FgGroup((rng.choice([2, 4]),))
        if rng.random() < 0.5:
            b, injs, projs = fgab.direct_sum([a, c])
            s = seq(injs[0], projs[1])
        else:
            # a deliberately non-split or skewed extension via presentation
            times = fgab.GroupHom(a, fgab.FgGroup((a.invariant_factors[0]
                                                   * c.invariant_factors[0],)),
                                  [[c.invariant_factors[0]]])
            red = fgab.GroupHom(times.codomain, c, [[1]])
            s = seq(times, red)
        everything = sequences.enumerate_splittings(s)
        found = canonical_splitting(s)
        assert (found is None) == (everything == [])
        if found is not None:
            assert found in everything
            assert found == everything[0]  # canonical = lexicographically least


def test_find_splitting_partial_on_all_of_c():
    s = klein_sequence()
    sub = fgab.Subgroup.full(s.c)
    group, incl, _ = sub.as_group()
    partial = fgab.GroupHom.from_images(group, s.b, [[1, 1]])
    got = canonical_splitting(s, partial, sub)
    assert got is not None
    assert got @ incl == partial


def test_find_splitting_partial_on_zero_sub():
    s = klein_sequence()
    sub = fgab.Subgroup.zero(s.c)
    group, incl, _ = sub.as_group()
    partial = fgab.GroupHom.zero(group, s.b)
    got = canonical_splitting(s, partial, sub)
    unconstrained = canonical_splitting(s)
    assert got == unconstrained is not None


def test_find_splitting_respects_partial_choice():
    s = klein_sequence()
    sub = fgab.Subgroup.full(s.c)
    group, incl, _ = sub.as_group()
    for target in ((0, 1), (1, 1)):
        partial = fgab.GroupHom.from_images(group, s.b, [list(target)])
        got = canonical_splitting(s, partial, sub)
        assert got((1,)) == target

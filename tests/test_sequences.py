"""Tests for exactness, purity, and splitting search.

``enumerate_splittings`` decides whether 0 -> A -> B -> C -> 0 is exact
(injective at A, kernel equal to image at B, surjective at C, in that
order) before it enumerates anything, so exactness verdicts are read
off it.  The enumeration oracle is checked by hand-counted candidate
scans; the canonical solver (solve_hom with the splitting condition as
a left constraint, the kind of system the builder solves at each
extension step) is then checked against the enumeration, keeping the
two routes independent.
"""

import random

import pytest

from idealsplit import fgab
from idealsplit.errors import (
    AmbientMismatchError,
    NotExactError,
    SizeBoundError,
)
from idealsplit.splitter import enumerate_splittings

Z = fgab.FgGroup((), 1)
Z2 = fgab.FgGroup((2,))
Z4 = fgab.FgGroup((4,))
TRIV = fgab.FgGroup()


def validate(left, right):
    """Raise NotExactError unless left and right form a short exact
    sequence.  Exactness is decided before the enumeration asks for
    finite groups, so an infinite C or B is no obstacle here."""
    try:
        enumerate_splittings(left, right)
    except SizeBoundError:
        pass


def test_is_exact_identity_middle():
    # 0 -> Z/4 -> Z/4 -> 0 is exact with the identity on either side
    ident = fgab.GroupHom.identity(Z4)
    assert enumerate_splittings(ident, fgab.GroupHom.zero(Z4, TRIV)) \
        == [fgab.GroupHom.zero(TRIV, Z4)]
    assert enumerate_splittings(fgab.GroupHom.zero(TRIV, Z4), ident) \
        == [ident]


def test_is_exact_mod2_resolution():
    double = fgab.GroupHom(Z, Z, [[2]])
    reduce2 = fgab.GroupHom(Z, Z2, [[1]])
    with pytest.raises(SizeBoundError, match="finite groups"):
        enumerate_splittings(double, reduce2)


def test_is_exact_detects_middle_failure():
    # reduction mod 4 after multiplication by 2: kernel 4Z != image 2Z
    double = fgab.GroupHom(Z, Z, [[2]])
    reduce4 = fgab.GroupHom(Z, Z4, [[1]])
    ker = fgab.kernel(reduce4)
    im = fgab.image(double)
    assert ker.contains((4,)) and not ker.contains((2,))
    assert im.contains((2,))
    assert double.is_injective() and reduce4.is_surjective()
    with pytest.raises(NotExactError) as info:
        enumerate_splittings(double, reduce4)
    assert str(info.value) == "sequence fails at the middle term"


def test_enumerate_names_the_failing_term():
    ident = fgab.GroupHom.identity(Z2)
    not_injective = fgab.GroupHom.zero(Z2, Z2)
    not_surjective = fgab.GroupHom(Z2, Z4, [[2]])
    cases = [
        (not_injective, ident, "left term (injectivity)"),
        (fgab.GroupHom.zero(TRIV, Z2), not_surjective,
         "right term (surjectivity)"),
        # injectivity is decided before the middle term
        (not_injective, fgab.GroupHom.zero(Z2, TRIV),
         "left term (injectivity)"),
    ]
    for left, right, label in cases:
        with pytest.raises(NotExactError) as info:
            enumerate_splittings(left, right)
        assert str(info.value) == "sequence fails at the %s" % label


def test_enumerate_rejects_maps_that_do_not_meet():
    with pytest.raises(AmbientMismatchError) as info:
        enumerate_splittings(fgab.GroupHom.identity(Z2),
                             fgab.GroupHom.identity(Z4))
    assert str(info.value) == "left and right maps do not meet"


def test_pure_exact_summand_case():
    mid = fgab.FgGroup((2,), 1)
    left = fgab.GroupHom(Z2, mid, [[1], [0]])
    right = fgab.GroupHom(mid, Z, [[0, 1]])
    validate(left, right)
    assert fgab.image(left).is_pure()


def test_pure_exact_rejects_impure():
    double = fgab.GroupHom(Z, Z, [[2]])
    reduce2 = fgab.GroupHom(Z, Z2, [[1]])
    validate(double, reduce2)
    assert not fgab.image(double).is_pure()


def test_pure_exact_requires_exactness():
    # purity of a sequence is purity of its left image, asked only of
    # sequences that validate
    double = fgab.GroupHom(Z, Z, [[2]])
    reduce4 = fgab.GroupHom(Z, Z4, [[1]])
    with pytest.raises(NotExactError, match="middle term"):
        validate(double, reduce4)


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
        validate(left, right)
        assert fgab.image(left).is_pure()


def test_pure_exact_iso_invariance():
    rng = random.Random(0x5E91)
    double = fgab.GroupHom(Z, Z, [[2]])
    reduce2 = fgab.GroupHom(Z, Z2, [[1]])
    validate(double, reduce2)
    verdict = fgab.image(double).is_pure()
    theta = random_iso(rng, Z)  # only +-1 scaling, still a real transport
    validate(theta @ double, reduce2 @ theta.inverse())
    assert fgab.image(theta @ double).is_pure() == verdict


# --- splitting enumeration ------------------------------------------------

def klein_sequence():
    """(left, right) of 0 -> Z/2 -> Z/2 + Z/2 -> Z/2 -> 0."""
    mid = fgab.FgGroup((2, 2))
    left = fgab.GroupHom(Z2, mid, [[1], [0]])
    right = fgab.GroupHom(mid, Z2, [[0, 1]])
    return left, right


def test_enumerate_trivial_c():
    left = fgab.GroupHom.identity(Z4)
    right = fgab.GroupHom.zero(Z4, TRIV)
    found = enumerate_splittings(left, right)
    assert found == [fgab.GroupHom.zero(TRIV, Z4)]


def test_enumerate_nonsplit_extension():
    times2 = fgab.GroupHom(Z2, Z4, [[2]])
    reduce2 = fgab.GroupHom(Z4, Z2, [[1]])
    assert enumerate_splittings(times2, reduce2) == []


def test_enumerate_klein_derived():
    left, right = klein_sequence()
    # oracle: candidates are the 2 elements of Z/2+Z/2 projecting to 1;
    # both have order 2, so both give splittings
    pool = [x for x in right.domain.elements() if right(x) == (1,)]
    assert sorted(pool) == [(0, 1), (1, 1)]
    found = enumerate_splittings(left, right)
    assert len(found) == 2
    assert sorted(h((1,)) for h in found) == [(0, 1), (1, 1)]
    for h in found:
        assert right @ h == fgab.GroupHom.identity(right.codomain)


def test_enumerate_respects_bound():
    big = fgab.FgGroup((512,))
    left, right = fgab.GroupHom.zero(TRIV, big), fgab.GroupHom.identity(big)
    with pytest.raises(SizeBoundError) as info:
        enumerate_splittings(left, right)
    assert str(info.value) == "|C| = 512 exceeds the bound 256"
    assert len(enumerate_splittings(left, right, bound=512)) == 1
    with pytest.raises(SizeBoundError) as info:
        enumerate_splittings(fgab.GroupHom.zero(TRIV, Z),
                             fgab.GroupHom.identity(Z))
    assert str(info.value) == "splitting enumeration needs finite groups"


# --- constrained splitting search ----------------------------------------

def canonical_splitting(right, partial=None, sub=None):
    """The canonical splitting of right: B -> C that agrees with
    ``partial`` (a hom from sub's abstract group into B) on ``sub``, or
    None."""
    points = []
    if partial is not None:
        group, incl, _ = sub.as_group()
        points = [(incl(e), partial(e)) for e in group.gens()]
    return fgab.solve_hom(
        right.codomain, right.domain, point_constraints=points,
        left_constraints=[(right, fgab.GroupHom.identity(right.codomain))])


def test_find_splitting_matches_enumeration():
    rng = random.Random(0x5E92)
    for _ in range(30):
        a = fgab.FgGroup((rng.choice([2, 4]),))
        c = fgab.FgGroup((rng.choice([2, 4]),))
        if rng.random() < 0.5:
            b, injs, projs = fgab.direct_sum([a, c])
            left, right = injs[0], projs[1]
        else:
            # a deliberately non-split or skewed extension via presentation
            times = fgab.GroupHom(a, fgab.FgGroup((a.invariant_factors[0]
                                                   * c.invariant_factors[0],)),
                                  [[c.invariant_factors[0]]])
            red = fgab.GroupHom(times.codomain, c, [[1]])
            left, right = times, red
        everything = enumerate_splittings(left, right)
        found = canonical_splitting(right)
        assert (found is None) == (everything == [])
        if found is not None:
            assert found in everything
            assert found == everything[0]  # canonical = lexicographically least


def test_find_splitting_partial_on_all_of_c():
    _, right = klein_sequence()
    sub = fgab.Subgroup.full(right.codomain)
    group, incl, _ = sub.as_group()
    partial = fgab.GroupHom.from_images(group, right.domain, [[1, 1]])
    got = canonical_splitting(right, partial, sub)
    assert got is not None
    assert got @ incl == partial


def test_find_splitting_partial_on_zero_sub():
    _, right = klein_sequence()
    sub = fgab.Subgroup.zero(right.codomain)
    group, incl, _ = sub.as_group()
    partial = fgab.GroupHom.zero(group, right.domain)
    got = canonical_splitting(right, partial, sub)
    unconstrained = canonical_splitting(right)
    assert got == unconstrained is not None


def test_find_splitting_respects_partial_choice():
    _, right = klein_sequence()
    sub = fgab.Subgroup.full(right.codomain)
    group, incl, _ = sub.as_group()
    for target in ((0, 1), (1, 1)):
        partial = fgab.GroupHom.from_images(group, right.domain,
                                            [list(target)])
        got = canonical_splitting(right, partial, sub)
        assert got((1,)) == target

"""Tests for groups, homs, subgroups, and the coefficient functors.

Derived expectations are certified by independent routes: minor-gcd
invariant factors, brute-force coset counting, exhaustive element
scans, and complement search.  Canonical-form answers are never checked
against the code that produced them.
"""

import itertools
import math
import random
import sys

import pytest

from idealsplit import fgab, intmat
from idealsplit.errors import (
    AmbientMismatchError,
    HomDefinitionError,
    NotSubgroupError,
    SizeBoundError,
)
from idealsplit.fixtures import dp_truncation, random_instance
from idealsplit.kunneth import validate_instance
from idealsplit.splitter import build_ideal_splitting, verify_ideal_splitting
from oracles import (column_coordinates_group, column_lattice,
                     is_pure_bruteforce, kernel_meet, pointwise_image,
                     quotient, quotient_preimage, retraction_pure,
                     solver_kernel)

Z = fgab.FgGroup((), 1)


def det_oracle(mat):
    n = len(mat)
    if n == 0:
        return 1
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        if mat[0][j]:
            minor = [row[:j] + row[j + 1:] for row in mat[1:]]
            total += (1 if j % 2 == 0 else -1) * mat[0][j] * det_oracle(minor)
    return total


def random_group(rng, max_factors=2, max_free=1, factor_pool=(2, 3, 4)):
    k = rng.randint(0, max_factors)
    factors = []
    d = 1
    for _ in range(k):
        d *= rng.choice(factor_pool)
        factors.append(d)
    return fgab.FgGroup(tuple(factors), rng.randint(0, max_free))


def random_hom(rng, dom, cod):
    """A uniformly scattered valid hom, built generator by generator."""
    images = []
    for d in dom.orders:
        img = []
        for e in cod.orders:
            if d == 0:
                img.append(rng.randint(-4, 4) if e == 0 else rng.randrange(e))
            elif e == 0:
                img.append(0)
            else:
                step = e // math.gcd(e, d)
                img.append(step * rng.randrange(e // step))
        images.append(img)
    return fgab.GroupHom.from_images(dom, cod, images)


# --- FgGroup basics ------------------------------------------------------

def test_group_validation():
    with pytest.raises(ValueError):
        fgab.FgGroup((1,))
    with pytest.raises(ValueError):
        fgab.FgGroup((0,))
    with pytest.raises(ValueError):
        fgab.FgGroup((2, 3))  # 2 does not divide 3
    with pytest.raises(ValueError):
        fgab.FgGroup((), -1)
    g = fgab.FgGroup((2, 6), 1)
    assert g.rank == 3 and g.orders == (2, 6, 0)


def test_group_arithmetic():
    g = fgab.FgGroup((4,), 1)
    assert g.add((3, 5), (2, -1)) == (1, 4)
    assert g.sub(g.zero(), (1, 2)) == (3, -2)
    assert g.scale(3, (3, 1)) == (1, 3)
    assert g.element_order((2, 0)) == 2
    assert g.element_order((0, 1)) == 0
    assert g.element_order(g.zero()) == 1


def test_group_size_exponent_elements():
    g = fgab.FgGroup((2, 4))
    elems = list(g.elements())
    assert g.size() == 8 and max(map(g.element_order, elems)) == 4
    assert elems == sorted(elems) and len(elems) == 8
    assert fgab.FgGroup((), 1).size() is None
    with pytest.raises(SizeBoundError):
        list(fgab.FgGroup((), 1).elements())
    assert fgab.FgGroup().size() == 1 and list(fgab.FgGroup().elements()) == [()]


def test_group_immutable():
    g = fgab.FgGroup((2,))
    with pytest.raises(AttributeError):
        g.free_rank = 3


def test_errors_and_reprs_are_pinned():
    z2, z4, klein = fgab.FgGroup((2,)), fgab.FgGroup((4,)), \
        fgab.FgGroup((2, 2))
    f = fgab.GroupHom(z2, z4, [[2]])
    sub = fgab.Subgroup(klein, [(1, 0)])
    assert [repr(g) for g in (fgab.FgGroup(), Z, fgab.FgGroup((), 2),
                              fgab.FgGroup((2, 4), 1))] == [
        "FgGroup(0)", "FgGroup(Z)", "FgGroup(Z^2)", "FgGroup(Z/2 + Z/4 + Z)"]
    assert repr(f) == "GroupHom(FgGroup(Z/2) -> FgGroup(Z/4), [[2]])"
    assert repr(sub) == "Subgroup(FgGroup(Z/2 + Z/2), [[1, 0], [0, 2]])"
    cases = [
        (lambda: z4.reduce((1, 2)), ValueError,
         "element has 2 coordinates, expected 1"),
        (lambda: fgab.GroupHom(z2, z4, [[1, 0]]), HomDefinitionError,
         "matrix shape does not match 1x1"),
        (lambda: setattr(f, "matrix", ((0,),)), AttributeError,
         "GroupHom is immutable"),
        (lambda: fgab.GroupHom.from_images(z2, z4, []), HomDefinitionError,
         "need 1 generator images, got 0"),
        (lambda: f @ 3, TypeError,
         "unsupported operand type(s) for @: 'GroupHom' and 'int'"),
        (lambda: f + 3, TypeError,
         "unsupported operand type(s) for +: 'GroupHom' and 'int'"),
        (lambda: f + fgab.GroupHom.zero(z4, z4), AmbientMismatchError,
         "sum of homs with different ends"),
        (lambda: setattr(sub, "ambient", z4), AttributeError,
         "Subgroup is immutable"),
        (lambda: sub.contains((1,)), AmbientMismatchError,
         "element size does not match ambient"),
        (lambda: fgab.image_subgroup(f, sub), AmbientMismatchError,
         "subgroup does not live in the hom domain"),
        (lambda: fgab.preimage_subgroup(f, sub), AmbientMismatchError,
         "subgroup does not live in the hom codomain"),
        (lambda: fgab.n_torsion_group(z4, 0), ValueError,
         "modulus must be positive"),
        (lambda: fgab.solve_hom(z2, z4, left_constraints=[(f, f)]),
         AmbientMismatchError, "left constraint ends do not line up"),
    ]
    for call, error, message in cases:
        with pytest.raises(error) as info:
            call()
        assert str(info.value) == message


def test_a_basis_without_its_relation_rows_is_caught():
    # bug guard: a canonical basis always holds the ambient relations;
    # one stripped of them (only a bug could build it) must not be read
    # off as a group
    sub = fgab.Subgroup(fgab.FgGroup((4,)), [])
    object.__setattr__(sub, "generators", ())
    with pytest.raises(NotSubgroupError) as info:
        sub.as_group()
    assert str(info.value) == "ambient relation escaped the lattice"


# --- snf / presentations -------------------------------------------------

def test_snf_contract():
    mat = [[2, 4], [6, 8]]
    d, u, uinv = intmat.smith_form(mat)
    assert column_lattice(intmat.matmul(u, mat), 2, 2) \
        == column_lattice(d, 2, 2)
    assert intmat.matmul(u, uinv) == intmat.identity(2)
    assert abs(det_oracle(u)) == 1
    assert [d[0][0], d[1][1]] == [2, 4]


def test_presentation_trivial_cases():
    assert fgab._presentation([[2, 0], [0, 0]], gens=2)[0] \
        == fgab.FgGroup((2,), 1)
    assert fgab._presentation([], gens=3)[0] == fgab.FgGroup((), 3)
    assert fgab._presentation([[1]], gens=1)[0] == fgab.FgGroup()


def test_presentation_derived_example():
    rel = [[4, 2], [2, 4]]
    # oracle: d1 = gcd of entries = 2, d1*d2 = |det| = |16-4| = 12
    entries_gcd = math.gcd(math.gcd(4, 2), math.gcd(2, 4))
    assert entries_gcd == 2 and abs(det_oracle(rel)) == 12
    assert fgab._presentation(rel, gens=2)[0] == fgab.FgGroup((2, 6))


# --- homs ----------------------------------------------------------------

def test_hom_validity_enforced():
    z2 = fgab.FgGroup((2,))
    z4 = fgab.FgGroup((4,))
    with pytest.raises(HomDefinitionError):
        fgab.GroupHom(z2, z4, [[1]])  # 2*1 != 0 mod 4
    f = fgab.GroupHom(z2, z4, [[2]])
    assert f((1,)) == (2,)
    # a torsion generator cannot hit a free coordinate
    with pytest.raises(HomDefinitionError):
        fgab.GroupHom(z2, Z, [[1]])


def test_hom_normalization_and_eq():
    z4 = fgab.FgGroup((4,))
    f = fgab.GroupHom(z4, z4, [[5]])
    g = fgab.GroupHom(z4, z4, [[1]])
    assert f == g and hash(f) == hash(g)
    assert fgab.GroupHom.identity(z4)((3,)) == (3,)


def test_hom_composition():
    rng = random.Random(0xF6AB0)
    for _ in range(40):
        a, b, c = (random_group(rng) for _ in range(3))
        f = random_hom(rng, a, b)
        g = random_hom(rng, b, c)
        h = g @ f
        for _ in range(5):
            x = tuple(rng.randint(-5, 5) for _ in range(a.rank))
            assert h(x) == g(f(x))
    with pytest.raises(AmbientMismatchError):
        random_hom(rng, fgab.FgGroup((2,)), fgab.FgGroup((2,))) @ \
            random_hom(rng, fgab.FgGroup((3,)), fgab.FgGroup((3,)))


def test_hom_identity_neutral_and_associative():
    rng = random.Random(0xF6AB1)
    for _ in range(20):
        a, b = random_group(rng), random_group(rng)
        f = random_hom(rng, a, b)
        assert fgab.GroupHom.identity(b) @ f == f
        assert f @ fgab.GroupHom.identity(a) == f
    a, b, c, d = (random_group(rng) for _ in range(4))
    f, g, h = (random_hom(rng, x, y)
               for x, y in ((a, b), (b, c), (c, d)))
    assert (h @ g) @ f == h @ (g @ f)


# --- kernel / image / quotient -------------------------------------------

def test_kernel_image_trivial_cases():
    z4 = fgab.FgGroup((4,))
    zero = fgab.GroupHom.zero(z4, z4)
    assert fgab.kernel(zero).is_full()
    assert fgab.image(zero).is_zero()
    double = fgab.GroupHom(Z, Z, [[2]])
    assert fgab.image(double) == fgab.Subgroup(Z, [(2,)])
    assert fgab.kernel(double).is_zero()


def test_kernel_membership_exhaustive():
    rng = random.Random(0xF6AB2)
    for _ in range(40):
        a = random_group(rng, max_free=0)
        b = random_group(rng, max_free=0)
        f = random_hom(rng, a, b)
        ker = fgab.kernel(f)
        zero = b.zero()
        for x in a.elements():
            assert ker.contains(x) == (f(x) == zero)


def test_quotient_derived_example():
    # Z + Z/2 modulo the diagonal-ish line <(1, 1)>
    g = fgab.FgGroup((2,), 1)  # coordinate 0 torsion, coordinate 1 free
    h = fgab.Subgroup(g, [(1, 1)])

    def in_h(u, v):
        # brute membership: some multiple c of (1,1) matches mod relations
        return any((u - c) % 2 == 0 and v - c == 0 for c in range(-8, 9))

    window = [(a, k) for a in range(2) for k in range(-3, 4)]
    cosets = []
    for x in window:
        if not any(in_h(x[0] - y[0], x[1] - y[1]) for y in cosets):
            cosets.append(x)
    assert len(cosets) == 2  # oracle: index 2, rank drops to 0

    q, proj = quotient(g, h)
    assert q == fgab.FgGroup((2,))
    assert proj.is_surjective()
    assert fgab.kernel(proj) == h


def test_quotient_exactness_invariant():
    rng = random.Random(0xF6AB3)
    for _ in range(40):
        a, b = random_group(rng), random_group(rng)
        f = random_hom(rng, a, b)
        ker = fgab.kernel(f)
        q, proj = quotient(a, ker)
        points = [(proj(e), f(e)) for e in a.gens()]
        induced = fgab.solve_hom(q, b, point_constraints=points)
        assert induced is not None
        assert induced.is_injective()
        assert fgab.image(induced) == fgab.image(f)
        assert fgab.kernel(proj) == ker


def test_kernel_preimage_image_match_oracles():
    rng = random.Random(0xF6AC7)
    seen = set()
    for trial in range(240):
        a = random_group(rng, max_factors=2, max_free=2)
        b = random_group(rng, max_factors=2, max_free=2)
        if trial % 6 == 0:
            f = fgab.GroupHom.zero(a, b)
        else:
            f = random_hom(rng, a, b)
        seen.update(name for name, hit in (
            ("rank-0 domain", a.rank == 0),
            ("rank-0 codomain", b.rank == 0),
            ("free codomain", b.free_rank and b.is_torsion_free()),
            ("zero map", f == fgab.GroupHom.zero(a, b))) if hit)
        assert fgab.kernel(f).generators == solver_kernel(f).generators
        sub = random_subgroup(rng, b)
        assert (fgab.preimage_subgroup(f, sub).generators
                == quotient_preimage(f, sub).generators)
        sub = random_subgroup(rng, a)
        assert (fgab.image_subgroup(f, sub).generators
                == pointwise_image(f, sub).generators)
    assert len(seen) == 4, seen


def test_subgroup_kernels_and_preimages_use_hermite_forms_only(monkeypatch):
    # validation takes kernels and preimages of many homs; none of them
    # may reach the congruence solver or a Smith form, while their
    # Hermite forms show the watch is live
    insts = [dp_truncation(2, 8, 7)] + [random_instance(s) for s in range(4)]
    inside = {fgab.kernel.__code__, fgab.preimage_subgroup.__code__}
    hits = []

    def watch(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            frame = sys._getframe(1)
            while frame is not None:
                if frame.f_code in inside:
                    hits.append(name)
                    break
                frame = frame.f_back
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((intmat, "solve_congruences"),
                         (intmat, "smith_form"), (fgab, "_presentation"),
                         (intmat, "hnf_nonzero")):
        watch(module, name)
    for inst in insts:
        assert validate_instance(inst).ok
    assert hits and set(hits) == {"hnf_nonzero"}


# --- subgroup lattice ----------------------------------------------------

def test_meet_join_trivial_cases():
    two = fgab.Subgroup(Z, [(2,)])
    three = fgab.Subgroup(Z, [(3,)])
    assert two.join(three).is_full()      # gcd(2,3) = 1
    assert two.meet(three) == fgab.Subgroup(Z, [(6,)])  # lcm
    full = fgab.Subgroup.full(Z)
    assert two.meet(full) == two
    assert two.join(fgab.Subgroup.zero(Z)) == two


def test_zero_and_full_build_no_subgroup(monkeypatch):
    # the canonical rows of zero and of the whole group are known, so
    # neither test constructs a subgroup to compare with
    rng = random.Random(0xF6AD9)
    subs = [random_subgroup(rng, random_group(rng, max_factors=2,
                                              max_free=2), spread=2)
            for _ in range(40)]
    subs += [fgab.Subgroup.zero(s.ambient) for s in subs[:5]]
    subs += [fgab.Subgroup.full(s.ambient) for s in subs[:5]]
    expected = [(s == fgab.Subgroup.zero(s.ambient),
                 s == fgab.Subgroup.full(s.ambient)) for s in subs]
    built = []
    init = fgab.Subgroup.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(fgab.Subgroup, "__init__", counted)
    assert [(s.is_zero(), s.is_full()) for s in subs] == expected
    assert built == []
    assert {True, False} <= {z for z, _ in expected} \
        and {True, False} <= {f for _, f in expected}


def test_meet_is_intersection_exhaustive():
    rng = random.Random(0xF6AB4)
    for _ in range(30):
        g = random_group(rng, max_factors=2, max_free=0, factor_pool=(2, 3))
        elems = list(g.elements())
        h1 = fgab.Subgroup(g, [rng.choice(elems) for _ in range(2)])
        h2 = fgab.Subgroup(g, [rng.choice(elems) for _ in range(2)])
        met = h1.meet(h2)
        for x in elems:
            assert met.contains(x) == (h1.contains(x) and h2.contains(x))


def random_subgroup(rng, g, max_gens=3, spread=4):
    gens = [tuple(rng.randint(-spread, spread) for _ in range(g.rank))
            for _ in range(rng.randint(0, max_gens))]
    return fgab.Subgroup(g, gens)


def test_meet_matches_kernel_meet():
    rng = random.Random(0xF6AC1)
    checked = 0
    while checked < 200:
        g = random_group(rng, max_factors=2, max_free=2,
                         factor_pool=(2, 3, 4))
        if g.rank < 2:
            continue
        checked += 1

        def vec():
            return tuple(rng.randint(-4, 4) for _ in range(g.rank))

        # sharing c and 2c keeps most meets proper and nonzero
        c = vec()
        h = fgab.Subgroup(g, [vec(), c])
        k = fgab.Subgroup(g, [vec(), [2 * x for x in c]])
        assert h.meet(k) == kernel_meet(h, k) == k.meet(h)


def test_absorption_laws():
    rng = random.Random(0xF6AB5)
    for _ in range(30):
        g = random_group(rng, max_factors=2, max_free=1, factor_pool=(2, 3))
        gens = [tuple(rng.randint(-3, 3) for _ in range(g.rank))
                for _ in range(4)]
        h = fgab.Subgroup(g, gens[:2])
        k = fgab.Subgroup(g, gens[2:])
        assert h.join(h.meet(k)) == h
        assert h.meet(h.join(k)) == h


def test_subgroup_equality_and_ambient_checks():
    g = fgab.FgGroup((4, 8))
    h1 = fgab.Subgroup(g, [(2, 0), (0, 2)])
    h2 = fgab.Subgroup(g, [(2, 2), (0, 2), (2, 0)])
    assert h1 == h2 and hash(h1) == hash(h2)
    with pytest.raises(AmbientMismatchError):
        fgab.Subgroup(g, [(1,)])
    with pytest.raises(AmbientMismatchError):
        h1.meet(fgab.Subgroup(fgab.FgGroup((4,)), [(2,)]))


def test_canonical_generators_need_no_reduction():
    # each torsion column of a canonical Hermite basis has a pivot that
    # divides its order, so every generator but the relation rows has
    # its torsion entries in [0, d) already: kunneth._gap prints its
    # witnesses as they stand
    rng = random.Random(0xF6AC3)
    seen = set()
    for _ in range(300):
        g = random_group(rng, max_factors=3, max_free=2,
                         factor_pool=(2, 3, 4))
        relations = {tuple(d if j == i else 0 for j in range(g.rank))
                     for i, d in enumerate(g.orders) if d}
        sub = random_subgroup(rng, g, max_gens=4, spread=9)
        for row in sub.generators:
            if row in relations:
                seen.add("relation")
            else:
                assert g.reduce(row) == row, (g, sub)
                torsion = any(row[:len(g.invariant_factors)])
                seen.add("torsion" if torsion else "free only")
    assert seen == {"relation", "torsion", "free only"}


def test_as_group_roundtrip():
    rng = random.Random(0xF6AB6)
    for _ in range(30):
        g = random_group(rng, max_factors=2, max_free=1, factor_pool=(2, 3, 4))
        gens = [tuple(rng.randint(-4, 4) for _ in range(g.rank))
                for _ in range(rng.randint(0, 3))]
        sub = fgab.Subgroup(g, gens)
        grp, incl, project = sub.as_group()
        assert incl.is_injective()
        for e in grp.gens():
            assert project(incl(e)) == e
            assert sub.contains(incl(e))
        assert project([x + 1 for x in incl(grp.zero())]) is None \
            or sub.contains([x + 1 for x in incl(grp.zero())])
        if not g.free_rank:
            count = sum(1 for x in g.elements() if sub.contains(x))
            assert grp.size() == count


def test_as_group_matches_column_coordinates():
    rng = random.Random(0xF6AC2)
    for _ in range(120):
        g = random_group(rng, max_factors=2, max_free=2,
                         factor_pool=(2, 3, 4))
        sub = random_subgroup(rng, g)
        grp, incl, project = sub.as_group()
        ref_grp, ref_incl, ref_project = column_coordinates_group(sub)
        assert grp == ref_grp and incl == ref_incl
        probes = [incl(tuple(rng.randint(-3, 3) for _ in range(grp.rank)))
                  for _ in range(3)]
        probes += [tuple(rng.randint(-5, 5) for _ in range(g.rank))
                   for _ in range(3)]
        for x in probes:
            assert project(x) == ref_project(x)


def test_diagonal_read_off_agrees_with_smith_form():
    # wherever the read-off is taken it must be smith_form's (d, u, uinv)
    # exactly; diagonal inputs with zeros, negatives, units and entries
    # no pivot divides, and non-diagonal inputs, reach every branch
    rng = random.Random(0xF6AE1)
    pool = (0, 1, -1, 2, -2, 3, 4, -4, 6, 8, 12, 16)
    branches = {"read off": 0, "not diagonal": 0, "no division": 0}
    for _ in range(600):
        m, k = rng.randint(0, 5), rng.randint(0, 5)
        rel = [[rng.choice(pool) if i == j else 0 for j in range(k)]
               for i in range(m)]
        diagonal = True
        if m and k and rng.random() < 0.25:
            i, j = rng.randrange(m), rng.randrange(k)
            rel[i][j] = rng.choice(pool)
            diagonal = i == j or not rel[i][j]
        read = fgab._diagonal_smith(rel, k)
        if read is None:
            branches["no division" if diagonal else "not diagonal"] += 1
            continue
        assert diagonal
        branches["read off"] += 1
        diag, rows = read
        u = [[s if j == i else 0 for j in range(k)] for i, s in rows]
        d = [[diag[i] if i == j else 0 for j in range(m)] for i in range(k)]
        assert intmat.smith_form(intmat.transpose(rel, k), cols=m) == (
            d, u, intmat.transpose(u, k)), rel
    assert min(branches.values()) >= 50, branches


def test_as_group_agrees_with_the_smith_form_route(monkeypatch):
    # as_group against _presentation's Smith form (the oracle's route),
    # with both the read-off and the fallback taken many times
    read_off = fgab._diagonal_smith
    branches = {"read off": 0, "fallback": 0}

    def counted(rel, gens):
        read = read_off(rel, gens)
        branches["fallback" if read is None else "read off"] += 1
        return read
    monkeypatch.setattr(fgab, "_diagonal_smith", counted)
    rng = random.Random(0xF6AE2)
    for _ in range(250):
        g = random_group(rng, max_factors=3, max_free=1,
                         factor_pool=(2, 3, 4))
        sub = random_subgroup(rng, g, spread=6)
        grp, incl, project = sub.as_group()
        ref_grp, ref_incl, ref_project = column_coordinates_group(sub)
        assert (grp, incl.matrix) == (ref_grp, ref_incl.matrix)
        probes = [incl(tuple(rng.randint(-3, 3) for _ in range(grp.rank)))
                  for _ in range(3)]
        probes += [tuple(rng.randint(-5, 5) for _ in range(g.rank))
                   for _ in range(3)]
        for x in probes:
            assert project(x) == ref_project(x)
    assert min(branches.values()) >= 50, branches


def test_dp_build_makes_no_smith_form(monkeypatch):
    # every relation matrix of the dp build is diagonal with dividing
    # pivots, so its groups are read off; the fresh groups show the
    # watch is live
    inst = dp_truncation(2, 8, 7)
    assert validate_instance(inst).ok
    calls = {"smith_form": 0, "_compute_group": 0}

    def count(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    count(intmat, "smith_form")
    count(fgab.Subgroup, "_compute_group")
    fam = build_ideal_splitting(inst, validate=False)
    assert calls["smith_form"] == 0 and calls["_compute_group"] > 0, calls
    monkeypatch.undo()
    assert verify_ideal_splitting(inst, fam).ok


def test_subgroup_size_multiplicativity():
    g = fgab.FgGroup((4, 12))
    sub = fgab.Subgroup(g, [(2, 3)])
    q, _ = quotient(g, sub)
    assert sub.as_group()[0].size() * q.size() == g.size()


# --- tensor functor ------------------------------------------------------

def test_tensor_trivial_cases():
    g = fgab.FgGroup((5,), 2)
    t, pi = fgab.tensor_zmod(g, 1)
    assert t.rank == 0
    t, _ = fgab.tensor_zmod(fgab.FgGroup((3,)), 2)
    assert t.rank == 0  # coprime orders


def test_tensor_derived_example():
    g = fgab.FgGroup((4,), 1)  # Z + Z/4 in canonical layout
    # oracle: independent presentation route (relations 4e0, 6e0, 6e1)
    oracle = fgab._presentation([[4, 0], [6, 0], [0, 6]], gens=2)[0]
    t, pi = fgab.tensor_zmod(g, 6)
    assert t == oracle == fgab.FgGroup((2, 6))
    assert pi.is_surjective()


def test_tensor_functor_laws():
    rng = random.Random(0xF6AB7)
    for _ in range(30):
        n = rng.choice([2, 3, 4, 6])
        a, b, c = (random_group(rng) for _ in range(3))
        f = random_hom(rng, a, b)
        g = random_hom(rng, b, c)
        assert fgab.induced_tensor_hom(fgab.GroupHom.identity(a), n) == \
            fgab.GroupHom.identity(fgab.tensor_zmod(a, n)[0])
        assert fgab.induced_tensor_hom(g @ f, n) == \
            fgab.induced_tensor_hom(g, n) @ fgab.induced_tensor_hom(f, n)


def test_tensor_naturality_square():
    rng = random.Random(0xF6AB8)
    for _ in range(30):
        n = rng.choice([2, 3, 4])
        a, b = random_group(rng), random_group(rng)
        f = random_hom(rng, a, b)
        _, pi_a = fgab.tensor_zmod(a, n)
        _, pi_b = fgab.tensor_zmod(b, n)
        assert fgab.induced_tensor_hom(f, n) @ pi_a == pi_b @ f


# --- torsion functor -----------------------------------------------------

def n_torsion(group, n):
    """``G[n] = {g : ng = 0}`` as a subgroup of G, generator by generator:
    the reference for the abstract group ``n_torsion_group`` returns."""
    if n < 1:
        raise ValueError("modulus must be positive")
    gens = []
    for i, d in enumerate(group.orders):
        if d:
            g = math.gcd(d, n)
            if g > 1:
                gens.append([d // g if j == i else 0
                             for j in range(group.rank)])
    return fgab.Subgroup(group, gens)


def test_torsion_trivial_cases():
    assert n_torsion(Z, 5).is_zero()
    g = fgab.FgGroup((6,))
    assert n_torsion(g, 1).is_zero()
    # in Z/2 + Z the 2-torsion is the whole torsion subgroup
    assert n_torsion(fgab.FgGroup((2,), 1), 2) == \
        fgab.Subgroup(fgab.FgGroup((2,), 1), [(1, 0)])


def test_torsion_derived_example():
    g = fgab._presentation([[4, 0], [0, 3]], gens=2)[0]  # Z/4 + Z/3 = Z/12
    assert g == fgab.FgGroup((12,))
    # oracle: exhaustive scan of all 12 elements
    expected = {x for x in g.elements() if g.scale(2, x) == g.zero()}
    sub = n_torsion(g, 2)
    assert {x for x in g.elements() if sub.contains(x)} == expected
    assert len(expected) == 2
    grp, incl, _ = sub.as_group()
    assert grp == fgab.FgGroup((2,))


def test_n_torsion_group_matches_subgroup():
    rng = random.Random(0xF6AB9)
    for _ in range(30):
        g = random_group(rng, max_factors=2, max_free=1)
        n = rng.choice([2, 3, 4, 6])
        sub = n_torsion(g, n)
        tors, incl = fgab.n_torsion_group(g, n)
        assert fgab.image(incl) == sub
        assert incl.is_injective()


def test_torsion_functor_laws():
    rng = random.Random(0xF6ABA)
    for _ in range(30):
        n = rng.choice([2, 3, 4, 6])
        a, b, c = (random_group(rng) for _ in range(3))
        f = random_hom(rng, a, b)
        g = random_hom(rng, b, c)
        assert fgab.induced_torsion_hom(fgab.GroupHom.identity(a), n) == \
            fgab.GroupHom.identity(fgab.n_torsion_group(a, n)[0])
        assert fgab.induced_torsion_hom(g @ f, n) == \
            fgab.induced_torsion_hom(g, n) @ fgab.induced_torsion_hom(f, n)


def test_torsion_inclusion_naturality():
    # f . incl_a = incl_b . f[n]; among the ends are torsion-free groups
    # and torsion groups whose orders are coprime to n (trivial G[n])
    rng = random.Random(0xF6ABB)
    seen = set()
    for _ in range(120):
        n = rng.choice([2, 3, 4, 5])
        a, b = random_group(rng), random_group(rng)
        f = random_hom(rng, a, b)
        ta, incl_a = fgab.n_torsion_group(a, n)
        tb, incl_b = fgab.n_torsion_group(b, n)
        assert f @ incl_a == incl_b @ fgab.induced_torsion_hom(f, n)
        for side, g, t in (("domain", a, ta), ("codomain", b, tb)):
            if g.is_torsion_free():
                seen.add(side + " torsion free")
            elif t.rank == 0:
                seen.add(side + " coprime to n")
    assert seen == {"domain torsion free", "codomain torsion free",
                    "domain coprime to n", "codomain coprime to n"}


# --- purity --------------------------------------------------------------

def test_purity_trivial_cases():
    assert not fgab.Subgroup(Z, [(2,)]).is_pure()  # 2Z in Z
    g = fgab.FgGroup((2,), 1)
    assert fgab.Subgroup(g, [(1, 0)]).is_pure()  # the torsion subgroup
    assert fgab.Subgroup.zero(g).is_pure()
    assert fgab.Subgroup.full(g).is_pure()


def test_purity_derived_example():
    g = fgab.FgGroup((2,), 1)
    h = fgab.Subgroup(g, [(1, 1)])
    # oracle: complement search: <(1, 0)> meets h trivially and joins to g
    comp = fgab.Subgroup(g, [(1, 0)])
    assert h.meet(comp).is_zero()
    assert h.join(comp).is_full()
    assert h.is_pure()


def test_purity_matches_bruteforce():
    rng = random.Random(0xF6ABC)
    checked = impure = 0
    while checked < 60:
        g = random_group(rng, max_factors=3, max_free=0, factor_pool=(2, 2, 3))
        if not g.size() or g.size() > 512:
            continue
        elems = list(g.elements())
        if g.rank and rng.random() < 0.5:
            # scaled standard generators are classic purity violators
            gens = [g.scale(2, rng.choice(g.gens()))]
        else:
            gens = [rng.choice(elems) for _ in range(rng.randint(0, 2))]
        sub = fgab.Subgroup(g, gens)
        checked += 1
        brute = is_pure_bruteforce(sub)
        assert sub.is_pure() == retraction_pure(sub) == brute
        impure += 0 if brute else 1
    assert impure >= 5  # the sweep saw genuine failures too


def test_purity_matches_retraction_on_mixed_ambients():
    rng = random.Random(0xF6AC3)
    seen = set()
    for _ in range(150):
        g = random_group(rng, max_factors=2, max_free=2,
                         factor_pool=(2, 3, 4))
        sub = random_subgroup(rng, g, spread=3)
        pure = sub.is_pure()
        assert pure == retraction_pure(sub)
        seen.add((pure, g.free_rank > 0))
    assert len(seen) == 4  # pure and impure, with and without free part


def test_purity_builds_no_hom(monkeypatch):
    # counts, not timing: purity reads only groups, so once the
    # subgroup's as_group() is cached it constructs no GroupHom
    rng = random.Random(0xF6AD1)
    subs = [random_subgroup(rng, random_group(rng, max_factors=2,
                                              max_free=2), spread=3)
            for _ in range(30)]
    for sub in subs:
        sub.as_group()
    built = []
    init = fgab.GroupHom.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(fgab.GroupHom, "__init__", counted)
    verdicts = {sub.is_pure() for sub in subs}
    assert verdicts == {True, False} and built == []


def miyata_smith_forms(monkeypatch):
    """Record every Smith form made while ``Subgroup.is_pure`` is on the
    stack: the certificate makes none, Miyata's test at least one."""
    hits = []
    smith = intmat.smith_form
    code = fgab.Subgroup.is_pure.__code__

    def wrapper(*args, **kwargs):
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code is code:
                hits.append(args)
                break
            frame = frame.f_back
        return smith(*args, **kwargs)
    monkeypatch.setattr(intmat, "smith_form", wrapper)
    return hits


def test_purity_certificate_agrees_with_retraction(monkeypatch):
    # what the pivot certificate accepts must be a summand, and both the
    # certificate and the Miyata fallback must decide many subgroups;
    # an empty basis (zero in a free group) is pure with no pivot read
    hits = miyata_smith_forms(monkeypatch)
    rng = random.Random(0xF6AD7)
    branches = {"certified": 0, "miyata": 0}
    for _ in range(300):
        g = random_group(rng, max_factors=2, max_free=2,
                         factor_pool=(2, 3, 4))
        sub = random_subgroup(rng, g, spread=3)
        before = len(hits)
        pure = sub.is_pure()
        certified = len(hits) == before
        assert pure == retraction_pure(sub)
        assert pure or not certified
        if sub.generators:
            branches["certified" if certified else "miyata"] += 1
    assert min(branches.values()) >= 50, branches


def test_bruteforce_purity_needs_finite_ambient():
    with pytest.raises(SizeBoundError):
        is_pure_bruteforce(fgab.Subgroup(Z, [(2,)]))


# --- extension -----------------------------------------------------------

def extension(f, sub):
    """The canonical F on sub's ambient with F @ incl = f, or None,
    from one solve_hom call with a point constraint per generator."""
    grp, incl, _ = sub.as_group()
    return fgab.solve_hom(sub.ambient, f.codomain,
                          point_constraints=[(incl(e), f(e))
                                             for e in grp.gens()])


def test_extend_hom_whole_group():
    g = fgab.FgGroup((4,))
    sub = fgab.Subgroup.full(g)
    grp, incl, _ = sub.as_group()
    f = fgab.GroupHom(grp, fgab.FgGroup((2,)), [[1]])
    ext = extension(f, sub)
    assert ext is not None and ext @ incl == f


def test_extend_hom_zero():
    g = fgab.FgGroup((4, 8))
    sub = fgab.Subgroup(g, [(2, 2)])
    grp, incl, _ = sub.as_group()
    f = fgab.GroupHom.zero(grp, fgab.FgGroup((2,)))
    ext = extension(f, sub)
    assert ext == fgab.GroupHom.zero(g, fgab.FgGroup((2,)))


def test_extend_hom_no_extension_derived():
    # f: 2Z/4Z -> Z/2, f(2) = 1 cannot extend over Z/4
    z4 = fgab.FgGroup((4,))
    z2 = fgab.FgGroup((2,))
    sub = fgab.Subgroup(z4, [(2,)])
    grp, incl, _ = sub.as_group()
    assert grp == fgab.FgGroup((2,)) and incl((1,)) == (2,)
    f = fgab.GroupHom(grp, z2, [[1]])
    # oracle: exhaustive check of both candidate images of the generator
    viable = [c for c in range(2)
              if fgab.GroupHom(z4, z2, [[c]])((2,)) == (1,)]
    assert viable == []
    assert extension(f, sub) is None


def test_extend_hom_agrees_with_exhaustive_search():
    rng = random.Random(0xF6ABD)
    for _ in range(40):
        g = random_group(rng, max_factors=2, max_free=0, factor_pool=(2, 4))
        if g.rank == 0:
            continue
        cod = fgab.FgGroup((rng.choice([2, 4]),))
        elems = list(g.elements())
        sub = fgab.Subgroup(g, [rng.choice(elems)])
        grp, incl, _ = sub.as_group()
        f = random_hom(rng, grp, cod)
        ext = extension(f, sub)
        # oracle: scan every hom g -> cod for one restricting to f
        found = None
        for images in itertools.product(list(cod.elements()), repeat=g.rank):
            try:
                cand = fgab.GroupHom.from_images(g, cod, [list(i) for i in images])
            except HomDefinitionError:
                continue
            if all(cand(incl(e)) == f(e) for e in grp.gens()):
                found = cand
                break
        # the scan runs in lexicographic order of generator images, so
        # the first hit is the canonical solution
        assert ext == found
        if ext is not None:
            assert ext @ incl == f


# --- direct sums ---------------------------------------------------------

def test_direct_sum_renormalizes():
    s, injs, projs = fgab.direct_sum([fgab.FgGroup((2,)), fgab.FgGroup((3,))])
    assert s == fgab.FgGroup((6,))
    assert injs[0]((1,)) != s.zero() and s.scale(2, injs[0]((1,))) == s.zero()


def test_direct_sum_identities():
    rng = random.Random(0xF6ABE)
    for _ in range(25):
        parts = [random_group(rng, max_factors=2, max_free=1)
                 for _ in range(rng.randint(0, 3))]
        s, injs, projs = fgab.direct_sum(parts)
        for k, gk in enumerate(parts):
            for j, gj in enumerate(parts):
                comp = projs[k] @ injs[j]
                if k == j:
                    assert comp == fgab.GroupHom.identity(gk)
                else:
                    assert comp == fgab.GroupHom.zero(gj, gk)
        if parts:
            total = None
            for k in range(len(parts)):
                term = injs[k] @ projs[k]
                total = term if total is None else total + term
            assert total == fgab.GroupHom.identity(s)


# --- hom solving ---------------------------------------------------------

def test_solve_hom_respects_constraints():
    rng = random.Random(0xF6ABF)
    for _ in range(30):
        a, b = random_group(rng, max_free=0), random_group(rng, max_free=0)
        f = random_hom(rng, a, b)
        pts = [(x, f(x)) for x in
               (tuple(rng.randint(0, 5) for _ in range(a.rank))
                for _ in range(2))]
        got = fgab.solve_hom(a, b, point_constraints=pts)
        assert got is not None
        for x, y in pts:
            assert got(x) == y


def test_solve_hom_canonical_and_deterministic():
    a, b = fgab.FgGroup((4,)), fgab.FgGroup((2,))
    got = fgab.solve_hom(a, b)
    # with no constraints the lexicographically least hom is zero
    assert got == fgab.GroupHom.zero(a, b)
    one = fgab.solve_hom(a, b, point_constraints=[((1,), (1,))])
    again = fgab.solve_hom(a, b, point_constraints=[((1,), (1,))])
    assert one == again and one is not None
    assert one.matrix == ((1,),)
    # 2x = 1 in Z/2 is insoluble
    assert fgab.solve_hom(a, b, point_constraints=[((2,), (1,))]) is None


def test_hom_preimage_is_lex_least():
    g = fgab.FgGroup((2, 2))
    cod = fgab.FgGroup((2,))
    f = fgab.GroupHom(g, cod, [[1, 1]])
    # both (0, 1) and (1, 0) map to 1; the canonical one is the least
    assert fgab.hom_preimage(f, (1,)) == (0, 1)
    assert fgab.hom_preimage(fgab.GroupHom.zero(g, cod), (1,)) is None


def test_inverse_roundtrip():
    rng = random.Random(0xF6AC0)
    g = fgab.FgGroup((2, 4))
    found = 0
    while found < 10:
        f = random_hom(rng, g, g)
        if not f.is_iso():
            continue
        found += 1
        inv = f.inverse()
        assert inv @ f == fgab.GroupHom.identity(g)
        assert f @ inv == fgab.GroupHom.identity(g)
    with pytest.raises(HomDefinitionError):
        fgab.GroupHom.zero(g, g).inverse()

"""Gamma complex, splitting construction, gluing, and lifting tests.

Expected values come from hand-counted orders in tiny elementary
2-groups and from the brute-force section enumerator, which was itself
pinned against hand counts in the sequence tests.  The non-split
cyclic-4 middle row is the canonical obstruction case: the builder, the
direct solver, and the exhaustive oracle must all agree that no section
exists there.
"""

import collections
import itertools
import json
import random

import pytest

from idealsplit import fixtures, splitter
from idealsplit.errors import (AmbientMismatchError, GluingError,
                               HomDefinitionError, IdealSplitError,
                               InstanceValidationError,
                               LiftHypothesisError, MissingSigmaError,
                               NotASplittingError, NotComaximalError,
                               NotSubgroupError, SizeBoundError,
                               SplittingObstructionError)
from idealsplit.fgab import (FgGroup, GroupHom, Subgroup, image,
                             image_subgroup, kernel, n_torsion_group,
                             tensor_zmod)
from idealsplit.fixtures import dp_truncation, random_instance
from idealsplit.kunneth import (CoeffGroup, IdealNode, KData,
                                KunnethInstance, ValidationReport,
                                validate_instance)
from idealsplit.lattice import IdealLattice
from idealsplit.splitter import (ComplexIso, SplittingFamily,
                                 build_ideal_splitting, check_gamma_exact,
                                 exhaustive_ideal_splittings, full_section,
                                 glue_comaximal, lift_isomorphism,
                                 restriction_hom, verify_ideal_splitting)

from oracles import all_covers_family, gamma1_with_pairs, pairwise_coherence
from test_kunneth import (DIAMOND, Z, Z2, aligned, aligned_node, basis_sub,
                          boolean_instance, diamond_instance, model_parts,
                          no_top_instance, random_with_defects)

E8 = FgGroup((2, 2, 2))


def gamma1(parts):
    """Gamma1 : (+)_{i<j} (G_i meet G_j) -> (+)_i G_i, from the true
    meets: the reference for the stored-meet Gamma1 the checker uses."""
    pair_subs = {}
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            pair_subs[(i, j)] = parts[i].meet(parts[j])
    return gamma1_with_pairs(parts, pair_subs)


def gamma0(parts):
    """Gamma0 alone, without the direct sum's injections and
    projections."""
    return splitter.gamma0(parts)[0]


def e(i, rank=3):
    return [1 if j == i else 0 for j in range(rank)]


# --- Gamma complex ---------------------------------------------------------

def test_gamma0_sums_inclusions():
    p1 = Subgroup(E8, [e(0), e(1)])
    p2 = Subgroup(E8, [e(1), e(2)])
    g0 = gamma0([p1, p2])
    assert g0.codomain == E8
    assert image(g0) == Subgroup.full(E8)
    # single part: Gamma0 is the inclusion itself
    g_single = gamma0([p1])
    assert image(g_single) == p1
    assert kernel(g_single).is_zero()


def test_gamma_exact_hand_counted():
    # |D0| = 16 over an image of order 8: kernel and pairwise image
    # both have order 2 and coincide
    p1 = Subgroup(E8, [e(0), e(1)])
    p2 = Subgroup(E8, [e(1), e(2)])
    g0 = gamma0([p1, p2])
    g1 = gamma1([p1, p2])
    assert g1.codomain == g0.domain
    assert (g0 @ g1) == GroupHom.zero(g1.domain, E8)
    ker = kernel(g0)
    assert ker.as_group()[0].size() == 2
    im1 = image(g1)
    assert im1.as_group()[0].size() == 2
    assert ker == im1


def test_gamma1_trivial_on_disjoint_parts():
    p1 = Subgroup(E8, [e(0)])
    p2 = Subgroup(E8, [e(2)])
    g1 = gamma1([p1, p2])
    assert g1.domain.rank == 0
    g0 = gamma0([p1, p2])
    assert kernel(g0).is_zero()


def test_gamma_ambient_mismatch():
    p1 = Subgroup(E8, [e(0)])
    q = Subgroup(FgGroup((2, 2)), [[1, 0]])
    with pytest.raises(AmbientMismatchError):
        gamma0([p1, q])
    with pytest.raises(AmbientMismatchError):
        gamma0([])


def test_check_gamma_exact_on_diamond():
    inst, _ = diamond_instance()
    assert check_gamma_exact(inst, "top", ["a", "b"]) is None


def gamma_and_glue(inst, parts):
    """check_gamma_exact, and glue_comaximal over the natural sections,
    which checks its parts as check_gamma_exact does."""
    sigmas = {i: natural_sigma(inst, parts, i) for i in inst.order.nodes}
    return (check_gamma_exact,
            lambda inst, I, ps: glue_comaximal(inst, I, ps, sigmas))


def test_check_gamma_exact_rejects_non_comaximal():
    inst, parts = diamond_instance()
    for check in gamma_and_glue(inst, parts):
        with pytest.raises(NotComaximalError) as exc:
            check(inst, "top", ["bot", "a"])
        assert str(exc.value) == \
            "parts ['bot', 'a'] are not comaximal under 'top'"


def test_check_gamma_exact_rejects_an_empty_part_list():
    # no pair to test, so the family check alone would pass it
    inst, parts = diamond_instance()
    for check in gamma_and_glue(inst, parts):
        with pytest.raises(NotComaximalError) as exc:
            check(inst, "top", [])
        assert str(exc.value) == "parts [] are not comaximal under 'top'"


def test_check_gamma_exact_uses_stored_meet_data():
    # K1(a) and K1(b) overlap in <f0> but the stored bottom is trivial,
    # so the kernel of Gamma0 is not covered by Gamma1
    coords = {"bot": ((), ()), "a": ((0,), (0,)),
              "b": ((1,), (0, 1)), "top": ((0, 1), (0, 1))}
    inst, _ = aligned(Z2, FgGroup((2, 4)), 2, coords)
    assert "ker Gamma0" in check_gamma_exact(inst, "top", ["a", "b"])
    # with the true intersections the complex is exact
    subs = [inst.torsion_sub("a"), inst.torsion_sub("b")]
    assert kernel(gamma0(subs)) == image(gamma1(subs))


def poset_instance(K0, K1, n, coords, edges):
    """Coordinate ideals as in ``aligned``, under an explicit order that
    need not match their containments or form a lattice."""
    Kn, parts = model_parts(K0, K1, n)
    nodes = [aligned_node(i, basis_sub(K0, c0), basis_sub(K1, c1), parts)
             for i, (c0, c1) in sorted(coords.items())]
    return KunnethInstance(KData(K0, K1),
                           CoeffGroup(n, Kn, parts.i1, parts.p2), nodes,
                           IdealLattice(sorted(coords), edges))


DIAMOND_EDGES = [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")]


def test_check_gamma_exact_pins_every_witness():
    # one instance per failure branch, each witness byte for byte; the
    # sixth branch (im Gamma1 outside ker Gamma0) cannot fire, because
    # Gamma1 places the same meet element at two slots with opposite
    # signs, so Gamma0 . Gamma1 = 0 by construction
    K22 = FgGroup((2, 2))
    cases = [
        # a and b lie over both x and y: a greatest lower bound is missing
        (poset_instance(Z2, K22, 2, {
            "bot": ((), ()), "x": ((0,), ()), "y": ((1,), ()),
            "a": ((0, 1), (0,)), "b": ((0, 1), (1,)),
            "top": ((0, 1), (0, 1))},
            [("bot", "x"), ("bot", "y"), ("x", "a"), ("x", "b"),
             ("y", "a"), ("y", "b"), ("a", "top"), ("b", "top")]),
         "no lattice meet of a and b"),
        # the stored bottom carries K1 data outside K1(a)
        (poset_instance(Z2, K22, 2, {
            "bot": ((), (1,)), "a": ((0,), (0,)), "b": ((1,), (1,)),
            "top": ((0, 1), (0, 1))}, DIAMOND_EDGES),
         "meet data does not embed in the parts: element (0, 1) is "
         "outside the destination subgroup"),
        # the parts carry no torsion data, the top does
        (aligned(Z2, K22, 2, {
            "bot": ((), ()), "a": ((0,), ()), "b": ((1,), ()),
            "top": ((0, 1), (0,))})[0],
         "Gamma0 misses (1, 0) of K1(top)[n]"),
        # the stored top is smaller than the join of the parts
        (poset_instance(Z2, K22, 2, {
            "bot": ((), ()), "a": ((0,), (0,)), "b": ((1,), (1,)),
            "top": ((0, 1), (0,))}, DIAMOND_EDGES),
         "Gamma0 image escapes K1(top)[n] at (0, 1)"),
        # the stored bottom misses the overlap <f0> of K1(a) and K1(b)
        (aligned(Z2, FgGroup((2, 4)), 2, {
            "bot": ((), ()), "a": ((0,), (0,)), "b": ((1,), (0, 1)),
            "top": ((0, 1), (0, 1))})[0],
         "(1, 1, 0) lies in ker Gamma0 but not in im Gamma1"),
    ]
    for inst, witness in cases:
        assert check_gamma_exact(inst, "top", ["a", "b"]) == witness


# --- fixtures beyond the diamond -------------------------------------------

STEM = {"bot": ((), ()), "m": ((0,), (0,)), "a": ((0, 1), (0,)),
        "b": ((0,), (0, 1)), "top": ((0, 1), (0, 1))}


def stem_instance():
    """Five ideals: bot < m < a, b < top, with a meet b = m nontrivial."""
    return aligned(FgGroup((), 2), FgGroup((2, 2)), 2, STEM)


def nonsplit_instance():
    """Valid two-ideal instance whose middle row does not split: the
    coefficient group is cyclic of order 4 over Z/2 on both ends."""
    K0, K1 = Z, FgGroup((2,))
    T, _ = tensor_zmod(K0, 2)
    T1, _ = n_torsion_group(K1, 2)
    Kn = FgGroup((4,))
    rho = GroupHom(T, Kn, [[2]])
    beta = GroupHom(Kn, T1, [[1]])
    coeff = CoeffGroup(2, Kn, rho, beta)
    nodes = [IdealNode("bot", Subgroup.zero(K0), Subgroup.zero(K1),
                       Subgroup.zero(Kn)),
             IdealNode("top", Subgroup.full(K0), Subgroup.full(K1),
                       Subgroup.full(Kn))]
    order = IdealLattice(["bot", "top"], [("bot", "top")])
    return KunnethInstance(KData(K0, K1), coeff, nodes, order)


def natural_sigma(inst, parts, id):
    """i2 composed with the inclusion of K1(id)[n]."""
    g, incl, _ = inst.torsion_sub(id).as_group()
    return parts.i2 @ incl


def shifted_section(inst, id, sigma):
    """sigma plus the map sending every generator of K1(id)[n] to
    rho_tilde of the first generator of K0(id) (x) Z/n: another section
    at id, still inside Kn(id), for n = 2 and K1(id)[n], K0(id)
    nonzero."""
    g, _, _ = inst.torsion_sub(id).as_group()
    h, incl, _ = inst.tensor_sub(id).as_group()
    shift = GroupHom.from_images(g, h, [h.gens()[0]] * g.rank)
    return sigma + inst.coeff.rho_tilde @ incl @ shift


def zero_family(inst):
    """The zero map at every ideal: right domains and codomains."""
    return SplittingFamily({
        i: GroupHom.zero(inst.torsion_sub(i).as_group()[0], inst.coeff.Kn)
        for i in inst.order.nodes})


def boolean_twists():
    """Boolean 2^3 and 2^4 under each of the benchmark's eight twists
    (random_hom from Random(100k + t)), and 2^5 under the first two."""
    for k, twists in ((3, range(8)), (4, range(8)), (5, range(2))):
        plain = boolean_instance(k)
        T, _ = plain.tensor()
        T1, _ = plain.torsion()
        for t in twists:
            h = fixtures.random_hom(T1, T, random.Random(k * 100 + t))
            yield "2^%d twist %d" % (k, t), fixtures.twist_instance(plain, h)


# --- extension -------------------------------------------------------------

def test_extend_splitting_from_middle():
    inst, parts = diamond_instance()
    tau = natural_sigma(inst, parts, "a")
    sigma = splitter._extend_solver(inst, "a", "top", tau)
    assert sigma is not None
    g_top, incl_top, _ = inst.torsion_sub("top").as_group()
    assert inst.coeff.beta_tilde @ sigma == incl_top
    assert sigma @ restriction_hom(inst, "a", "top") == tau


def test_extend_splitting_no_extension_returns_none():
    inst = nonsplit_instance()
    g_bot, _, _ = inst.torsion_sub("bot").as_group()
    tau = GroupHom.zero(g_bot, inst.coeff.Kn)
    assert splitter._extend_solver(inst, "bot", "top", tau) is None


def test_extend_splitting_on_diamond():
    inst, parts = diamond_instance()
    tau = natural_sigma(inst, parts, "a")
    sigma = splitter._extend_solver(inst, "a", "top", tau)
    assert sigma is not None
    g_top, incl_top, _ = inst.torsion_sub("top").as_group()
    assert inst.coeff.beta_tilde @ sigma == incl_top
    assert sigma @ restriction_hom(inst, "a", "top") == tau
    assert image(sigma) <= inst.node("top").Kn_sub


# --- gluing ----------------------------------------------------------------

def test_glue_rejects_a_part_that_is_not_a_section():
    inst, parts = diamond_instance()
    g_a, _, _ = inst.torsion_sub("a").as_group()
    sigmas = {"a": GroupHom.zero(g_a, inst.coeff.Kn),
              "b": natural_sigma(inst, parts, "b")}
    with pytest.raises(NotASplittingError) as info:
        glue_comaximal(inst, "top", ["a", "b"], sigmas)
    assert str(info.value) == "beta_tilde . sigma != id on K1(a)[n]"


def test_a_certified_section_vouches_for_no_other():
    # the instance remembers each section it certified, keyed by the
    # section itself, so a broken one at the same ideal is still
    # rejected
    inst, parts = diamond_instance()
    sigmas = {i: natural_sigma(inst, parts, i) for i in ("a", "b")}
    glue_comaximal(inst, "top", ["a", "b"], sigmas)
    g_a, _, _ = inst.torsion_sub("a").as_group()
    with pytest.raises(NotASplittingError) as info:
        glue_comaximal(inst, "top", ["a", "b"],
                       {**sigmas, "a": GroupHom.zero(g_a, inst.coeff.Kn)})
    assert str(info.value) == "beta_tilde . sigma != id on K1(a)[n]"


def test_glue_rejects_a_part_whose_image_escapes():
    # a section whose image leaves Kn(a) is rejected up front
    inst, parts = diamond_instance()
    tau_top = natural_sigma(inst, parts, "top")
    g_a, incl_a, _ = inst.torsion_sub("a").as_group()
    bad = tau_top @ restriction_hom(inst, "a", "top")
    # same values as the honest section here, so tweak through the
    # tensor coordinate that lies outside Kn(a)
    w = GroupHom(parts.T1, parts.T, [[0, 0], [1, 0]])
    bad = bad + (parts.i1 @ w @ incl_a)
    sigmas = {"a": bad, "b": natural_sigma(inst, parts, "b")}
    with pytest.raises(NotASplittingError) as info:
        glue_comaximal(inst, "top", ["a", "b"], sigmas)
    assert str(info.value) == \
        "sigma image reaches (0, 1, 1, 0) outside Kn(a)"


def test_glue_rejects_a_part_with_the_wrong_domain():
    inst, parts = diamond_instance()
    sigmas = {"a": GroupHom.zero(parts.T1, inst.coeff.Kn),
              "b": natural_sigma(inst, parts, "b")}
    with pytest.raises(NotASplittingError) as info:
        glue_comaximal(inst, "top", ["a", "b"], sigmas)
    assert str(info.value) == "domain is not K1(a)[n]"


def test_glue_guards_a_missing_gamma0_preimage(monkeypatch):
    # bug guard: the certified complex is exact, so every element of
    # K1(top)[n] has a Gamma0 preimage; a solver that finds none is caught
    inst, _ = diamond_instance()
    monkeypatch.setattr(splitter, "hom_preimage", lambda f, target: None)
    with pytest.raises(GluingError) as info:
        build_ideal_splitting(inst)
    assert str(info.value) == "no Gamma0 preimage for (1, 0)"


def shrunk_kn(inst, id):
    """inst with Kn(id) cut down to the rho_tilde image of K0(id): the
    monotonicity on the cover edges into id breaks, and with it every
    section's containment at id."""
    node = inst.node(id)
    return inst.with_replaced_node(
        IdealNode(id, node.K0_sub, node.K1_sub, inst.rho_image(id)))


def test_unvalidated_build_certifies_each_step():
    # without validation, a Kn that drops below its lower covers is met
    # by the step that reads it: the extension finds no target for the
    # old section, and the glued map fails its own section check
    chain, _ = aligned(Z2, FgGroup((2, 4)), 2,
                       {"bot": ((), ()), "a": ((0,), (0,)),
                        "top": ((0, 1), (0, 1))})
    diamond, _ = diamond_instance()
    for inst, message in (
            (chain, "no extension of the section at 'a' to 'top'"),
            (diamond, "glued map is not a section at 'top': "
             "sigma image reaches (0, 0, 1, 0) outside Kn(top)")):
        bad = shrunk_kn(inst, "top")
        assert "monotonicity:a<top" in [
            r.name for r in validate_instance(bad).failures()]
        with pytest.raises((SplittingObstructionError, GluingError)) as info:
            build_ideal_splitting(bad, validate=False)
        assert str(info.value) == message


def test_glue_comaximal_diamond():
    inst, parts = diamond_instance()
    sigmas = {i: natural_sigma(inst, parts, i) for i in ("a", "b")}
    sigma = glue_comaximal(inst, "top", ["a", "b"], sigmas)
    g_top, incl_top, _ = inst.torsion_sub("top").as_group()
    assert inst.coeff.beta_tilde @ sigma == incl_top
    assert image(sigma) <= inst.node("top").Kn_sub
    for i in ("a", "b"):
        assert sigma @ restriction_hom(inst, i, "top") == sigmas[i]


def test_glue_preimage_choice_independence(monkeypatch):
    inst, parts = stem_instance()
    sigmas = {i: natural_sigma(inst, parts, i) for i in ("a", "b")}
    canonical = glue_comaximal(inst, "top", ["a", "b"], sigmas)
    canonical_preimage = splitter.hom_preimage
    shifts = []

    def shifted_preimage(g0, target):
        # another preimage: the canonical one plus a nonzero element of
        # kernel(Gamma0), taking the kernel's generators in turn
        ker, incl, _ = kernel(g0).as_group()
        assert ker.rank  # a meet m above bottom makes the kernel nonzero
        shift = incl(ker.gens()[len(shifts) % ker.rank])
        shifts.append(shift)
        return g0.domain.add(canonical_preimage(g0, target), shift)

    monkeypatch.setattr(splitter, "hom_preimage", shifted_preimage)
    assert glue_comaximal(inst, "top", ["a", "b"], sigmas) == canonical
    assert shifts and all(any(x) for x in shifts)


def test_glue_rejects_incoherent_sigmas():
    inst, parts = stem_instance()
    sigma_a = natural_sigma(inst, parts, "a")
    _, incl_b, _ = inst.torsion_sub("b").as_group()
    # still a section at b, but twisted through the tensor coordinate
    # pi(e0) of Kn(b), so it disagrees with sigma_a on the meet m
    w = GroupHom(parts.T1, parts.T, [[1, 0], [0, 0]])
    sigma_b = (parts.i2 @ incl_b) + (parts.i1 @ w @ incl_b)
    with pytest.raises(GluingError) as info:
        glue_comaximal(inst, "top", ["a", "b"],
                       {"a": sigma_a, "b": sigma_b})
    assert str(info.value) == ("glued map at 'top': sigma at top restricted "
                               "to K1(a)[n] differs from sigma at a")


def test_glue_rejects_unreachable_target():
    # parts with no torsion data cannot cover K1(top)[n]; gluing does
    # not assume a globally valid instance, Gamma0 must reach the target
    coords = {"bot": ((), ()), "a": ((0,), ()),
              "b": ((1,), ()), "top": ((0, 1), (0,))}
    inst, parts = aligned(Z2, FgGroup((2, 2)), 2, coords)
    sigmas = {i: natural_sigma(inst, parts, i) for i in ("a", "b")}
    with pytest.raises(GluingError) as info:
        glue_comaximal(inst, "top", ["a", "b"], sigmas)
    assert str(info.value) == "no Gamma0 preimage for (1,)"


def test_glue_wraps_only_hom_definition_errors(monkeypatch):
    # from_images raises only HomDefinitionError on the glued images;
    # any other error is a bug in the glue and propagates as it is
    inst, parts = diamond_instance()
    sigmas = {i: natural_sigma(inst, parts, i) for i in ("a", "b")}
    from_images = GroupHom.from_images

    def failing(exc):
        def patched(domain, codomain, images):
            if codomain is inst.coeff.Kn:  # the glued section only
                raise exc
            return from_images(domain, codomain, images)
        return patched

    monkeypatch.setattr(GroupHom, "from_images", failing(TypeError("boom")))
    with pytest.raises(TypeError, match="boom"):
        glue_comaximal(inst, "top", ["a", "b"], sigmas)
    monkeypatch.setattr(GroupHom, "from_images",
                        failing(HomDefinitionError("bad images")))
    with pytest.raises(GluingError) as info:
        glue_comaximal(inst, "top", ["a", "b"], sigmas)
    assert str(info.value) == "glued images do not define a hom: bad images"


def test_glue_missing_sigma():
    inst, parts = diamond_instance()
    with pytest.raises(MissingSigmaError):
        glue_comaximal(inst, "top", ["a", "b"],
                       {"a": natural_sigma(inst, parts, "a")})


def test_glue_builds_its_gamma_complex_once(monkeypatch):
    # counts, not timing: each glue builds one Gamma0, over the first
    # two parts, so one direct sum of their K1(part)[n]
    glues = []
    direct_sum, glue = splitter.direct_sum, splitter.glue_comaximal

    def counted_direct_sum(groups):
        glues[-1][1].append(list(groups))
        return direct_sum(groups)

    def counted_glue(inst, I, parts, sigmas):
        groups = [inst.torsion_sub(p).as_group()[0] for p in parts]
        glues.append((groups, []))
        return glue(inst, I, parts, sigmas)

    monkeypatch.setattr(splitter, "direct_sum", counted_direct_sum)
    monkeypatch.setattr(splitter, "glue_comaximal", counted_glue)
    insts = [diamond_instance()[0], stem_instance()[0], boolean_instance(3)]
    for inst in insts:
        build_ideal_splitting(inst, validate=False)
    # one glue each in the diamond and the stem, four in 2^3
    assert len(glues) == 6
    for groups, calls in glues:
        assert calls == [groups[:2]]


def counted_gamma0(monkeypatch):
    """The number of parts of each Gamma0 the glue builds."""
    widths = []
    build = splitter.gamma0

    def counted(parts):
        widths.append(len(parts))
        return build(parts)

    monkeypatch.setattr(splitter, "gamma0", counted)
    return widths


def test_glue_falls_back_to_all_parts_only_when_two_miss(monkeypatch):
    # three lower covers of top in (Z/2)^3, one coordinate each: every
    # two of them miss K1(top)[n] (the join law fails, so only a forced
    # build gets here) and all three reach it, so the glue runs on all
    # three, and its result restricts to each of them
    coords = {"bot": ((), ()), "a": ((0,), (0,)), "b": ((1,), (1,)),
              "c": ((2,), (2,)), "top": ((0, 1, 2), (0, 1, 2))}
    inst = poset_instance(FgGroup((), 3), FgGroup((2, 2, 2)), 2, coords,
                          [("bot", x) for x in "abc"]
                          + [(x, "top") for x in "abc"])
    assert any(r.name.startswith("lattice-laws")
               for r in validate_instance(inst).failures())
    widths = counted_gamma0(monkeypatch)
    fam = build_ideal_splitting(inst, validate=False)
    assert widths == [2, 3]
    assert verify_ideal_splitting(inst, fam).ok


def test_glue_checks_its_result_against_every_part(monkeypatch):
    # with three parts the glue from the first two is kept when it
    # restricts to all three; when the first or the third part's
    # section disagrees, that one glue runs and names the part
    inst = boolean_instance(3)
    fam = build_ideal_splitting(inst)
    top = inst.order.top()
    parts = inst.order.maximal_subideals(top)
    widths = counted_gamma0(monkeypatch)
    assert glue_comaximal(inst, top, parts, fam.sigmas) == fam.sigma(top)
    assert widths == [2]
    messages = []
    for bad in (parts[0], parts[2]):
        widths.clear()
        sigmas = {**fam.sigmas, bad: shifted_section(inst, bad,
                                                     fam.sigma(bad))}
        with pytest.raises(GluingError) as info:
            glue_comaximal(inst, top, parts, sigmas)
        assert widths == [2]
        messages.append(str(info.value))
    assert messages == [
        "glued map at 'top': sigma at top restricted to K1(%s)[n] differs "
        "from sigma at %s" % (bad, bad) for bad in ("s3", "s6")]


def test_glue_rejects_a_restriction_map_it_cannot_build(monkeypatch):
    inst, parts = diamond_instance()
    sigmas = {i: natural_sigma(inst, parts, i) for i in ("a", "b")}
    restrict = splitter.restriction_hom

    def unbuildable(inst, lo, hi):
        if (lo, hi) == ("b", "top"):
            raise NotSubgroupError("no coordinates for K1(b)[n]")
        return restrict(inst, lo, hi)

    monkeypatch.setattr(splitter, "restriction_hom", unbuildable)
    with pytest.raises(GluingError) as info:
        glue_comaximal(inst, "top", ["a", "b"], sigmas)
    assert str(info.value) == ("no restriction map from 'b' to 'top': "
                               "no coordinates for K1(b)[n]")


def test_two_lower_covers_glue_the_all_covers_family():
    # on valid instances the Gamma complex of every two lower covers of
    # an ideal is exact, and the family glued from two covers is the
    # one glued from all of them, on random instances (twisted and
    # aligned), the dp family and twisted Boolean lattices
    cases = ([("seed %d" % s, random_with_defects(s)[0])
              for s in range(60)]
             + [("aligned seed %d" % s, random_instance(s, twist=False))
                for s in range(60)]
             + [("dp %d" % m, dp_truncation(2, m, m - 1))
                for m in range(4, 9)]
             + list(boolean_twists()))
    pairs = 0
    for name, inst in cases:
        # valid by construction, as test_fixtures and the acceptance
        # suite check; an invalid one could only fail the checks below
        fam = build_ideal_splitting(inst, validate=False)
        for x in inst.order.nodes:
            for c1, c2 in itertools.combinations(
                    inst.order.maximal_subideals(x), 2):
                assert check_gamma_exact(inst, x, [c1, c2]) is None, \
                    (name, x)
                pairs += 1
        assert fam == all_covers_family(inst), name
    assert pairs == 466


def test_build_glues_on_cover_edges_alone_and_checks_each_section_once(
        monkeypatch):
    # counts, not timing: on a valid 2^4 no glue checks a Gamma complex
    # or asks the lattice for a meet, each builds one Gamma0 of two
    # parts, the restriction maps read are exactly those of the cover
    # edges, and each ideal's section is certified once, not once per
    # glue above it; the bottom's zero section is never glued from
    inst = boolean_instance(4)
    assert validate_instance(inst).ok
    seen, read, certified = collections.Counter(), set(), []
    check, meet = splitter.check_gamma_exact, IdealLattice.meet
    restrict, memo = splitter.restriction_hom, KunnethInstance._memo

    def counted_check(inst, I, parts):
        seen["gamma checks"] += 1
        return check(inst, I, parts)

    def counted_meet(self, a, b):
        seen["meets"] += 1
        return meet(self, a, b)

    def counted_restrict(inst, lo, hi):
        read.add((lo, hi))
        return restrict(inst, lo, hi)

    def counted_memo(self, key, fn):
        if key[0] == "section" and key not in self._cache:
            certified.append(key[1])
        return memo(self, key, fn)

    monkeypatch.setattr(splitter, "check_gamma_exact", counted_check)
    monkeypatch.setattr(IdealLattice, "meet", counted_meet)
    monkeypatch.setattr(splitter, "restriction_hom", counted_restrict)
    monkeypatch.setattr(KunnethInstance, "_memo", counted_memo)
    widths = counted_gamma0(monkeypatch)
    build_ideal_splitting(inst, validate=False)
    glues = [x for x in inst.order.nodes
             if len(inst.order.maximal_subideals(x)) > 1]
    assert widths == [2] * len(glues) and len(glues) == 11
    assert seen == {}
    assert read == set(inst.order.cover_edges()) and len(read) == 32
    assert sorted(certified) == sorted(
        set(inst.order.nodes) - {inst.order.bottom()})


# --- the builder -----------------------------------------------------------

def test_build_ideal_splitting_diamond():
    inst, _ = diamond_instance()
    fam = build_ideal_splitting(inst)
    assert sorted(fam.ids()) == ["a", "b", "bot", "top"]
    report = verify_ideal_splitting(inst, fam)
    assert report.ok
    again = build_ideal_splitting(inst)
    assert fam == again


def test_build_ideal_splitting_stem():
    inst, _ = stem_instance()
    fam = build_ideal_splitting(inst)
    assert verify_ideal_splitting(inst, fam).ok


def test_verify_report_names_frozen():
    inst, _ = diamond_instance()
    fam = build_ideal_splitting(inst)
    report = verify_ideal_splitting(inst, fam)
    assert report.names() == (
        ["family-domain:%s" % i for i in ["a", "b", "bot", "top"]]
        + ["splitting-identity:%s" % i for i in ["a", "b", "bot", "top"]]
        + ["containment:%s" % i for i in ["a", "b", "bot", "top"]]
        + ["coherence:a<top", "coherence:b<top", "coherence:bot<a",
           "coherence:bot<b", "coherence:bot<top"])


def test_verify_flags_tampered_family():
    inst, _ = diamond_instance()
    fam = build_ideal_splitting(inst)
    g_a, _, _ = inst.torsion_sub("a").as_group()
    broken = dict(fam.sigmas)
    broken["a"] = GroupHom.zero(g_a, inst.coeff.Kn)
    report = verify_ideal_splitting(inst, SplittingFamily(broken))
    names = [r.name for r in report.failures()]
    assert names == ["splitting-identity:a", "coherence:a<top"]
    assert all(r.witness for r in report.failures())


def test_verify_pins_the_containment_witness():
    # still a section at a, but pushed into the tensor coordinate of b,
    # outside Kn(a)
    inst, parts = diamond_instance()
    fam = build_ideal_splitting(inst)
    g_a, _, _ = inst.torsion_sub("a").as_group()
    broken = dict(fam.sigmas)
    broken["a"] = fam.sigma("a") + parts.i1 @ GroupHom(g_a, parts.T,
                                                       [[0], [1]])
    report = verify_ideal_splitting(inst, SplittingFamily(broken))
    assert [(r.name, r.witness) for r in report.failures()] == [
        ("containment:a", "sigma image reaches (0, 1, 1, 0) outside Kn(a)"),
        ("coherence:a<top",
         "sigma at top restricted to K1(a)[n] differs from sigma at a")]


def test_verify_pins_the_family_domain_witnesses():
    inst, parts = diamond_instance()
    fam = build_ideal_splitting(inst)
    broken = dict(fam.sigmas)
    broken["a"] = GroupHom.zero(parts.T1, inst.coeff.Kn)
    g_b, _, _ = inst.torsion_sub("b").as_group()
    broken["b"] = GroupHom.zero(g_b, parts.T1)
    report = verify_ideal_splitting(inst, SplittingFamily(broken))
    assert [(r.name, r.witness) for r in report.failures()
            if r.name.startswith("family-domain:")] == [
        ("family-domain:a", "domain is not K1(a)[n]"),
        ("family-domain:b", "codomain is not Kn")]


def test_verify_flags_missing_sigma():
    inst, _ = diamond_instance()
    fam = build_ideal_splitting(inst)
    broken = dict(fam.sigmas)
    del broken["b"]
    report = verify_ideal_splitting(inst, SplittingFamily(broken))
    bad = [r.name for r in report.failures()]
    assert "family-domain:b" in bad
    assert "splitting-identity:b" in bad
    assert any("MissingSigmaError" in (r.witness or "")
               for r in report.failures())


def test_each_restriction_map_is_built_once_per_cover_edge(monkeypatch):
    # counts, not timing: over the build and verify of a valid family
    # each coordinate map is built once per instance, and every map the
    # pipeline reads is a cover-edge map, so the builds equal the cover
    # edges; verify looks up one map per cover edge, where the pairwise
    # scan would look up one per comparable pair
    built, read = [], []
    coords, restrict = splitter._coords_hom, splitter.restriction_hom

    def counted_coords(*args):
        built.append(args)
        return coords(*args)

    def counted_restrict(inst, lo, hi):
        read.append((lo, hi))
        return restrict(inst, lo, hi)

    monkeypatch.setattr(splitter, "_coords_hom", counted_coords)
    monkeypatch.setattr(splitter, "restriction_hom", counted_restrict)
    for inst, edges, pairs in ((boolean_instance(5), 80, 211),
                               (boolean_instance(4), 32, 65),
                               (dp_truncation(2, 8, 7), 9, 45)):
        built.clear()
        fam = build_ideal_splitting(inst)
        read.clear()
        report = verify_ideal_splitting(inst, fam)
        assert report.ok
        assert sum(r.name.startswith("coherence:") for r in report) == pairs
        assert len(built) == len(inst.order.cover_edges()) == edges
        assert read == list(inst.order.cover_edges())


def test_verify_coherence_agrees_with_the_pairwise_scan(monkeypatch):
    # the report equals its first three check families followed by the
    # pairwise coherence scan, byte for byte: on valid families, on
    # families broken at one ideal, on the families that split --force
    # builds for planted defects, on zero families with no top or with
    # K1 shrinking along a cover edge into the top or below it, on the
    # coherent built family of an order with no top (which the cover
    # edges certify), on the stem's built family over the stem with K1
    # shrinking along the cover edge m < a (which they reject), and
    # where a restriction map to the top cannot be built
    seen = collections.Counter()

    def agrees(inst, fam):
        report = verify_ideal_splitting(inst, fam)
        head = [r for r in report if not r.name.startswith("coherence:")]
        scan = pairwise_coherence(inst, fam)
        assert json.dumps(report.as_dict()) == json.dumps(
            ValidationReport(head + scan).as_dict())
        seen["coherent" if all(r.passed for r in scan)
             else "incoherent"] += 1

    for inst in (diamond_instance()[0], stem_instance()[0],
                 boolean_instance(3)):
        fam = build_ideal_splitting(inst)
        agrees(inst, fam)
        for i in inst.order.nodes:
            broken = [{k: v for k, v in fam.sigmas.items() if k != i},
                      {**fam.sigmas,
                       i: GroupHom.zero(FgGroup((3,)), inst.coeff.Kn)}]
            if inst.torsion_sub(i).as_group()[0].rank \
                    and inst.tensor_sub(i).as_group()[0].rank:
                broken.append({**fam.sigmas, i: shifted_section(
                    inst, i, fam.sigma(i))})
            for sigmas in broken:
                agrees(inst, SplittingFamily(sigmas))
    for s in range(60):
        for bad in random_with_defects(s)[1].values():
            try:
                fam = build_ideal_splitting(bad, validate=False)
            except IdealSplitError:
                continue
            agrees(bad, fam)
            seen["forced"] += 1
    diamond, _ = diamond_instance()
    top = diamond.node("top")
    shrunk_top = diamond.with_replaced_node(IdealNode(
        "top", top.K0_sub, basis_sub(FgGroup((2, 4)), (0,)), top.Kn_sub))
    stem, _ = stem_instance()
    a = stem.node("a")
    shrunk_a = stem.with_replaced_node(IdealNode(
        "a", a.K0_sub, basis_sub(FgGroup((2, 2)), (1,)), a.Kn_sub))
    for inst in (no_top_instance(), shrunk_top, shrunk_a):
        agrees(inst, zero_family(inst))
    no_top = no_top_instance()
    agrees(no_top, build_ideal_splitting(no_top, validate=False))
    agrees(shrunk_a, build_ideal_splitting(stem))
    diamond_fam = build_ideal_splitting(diamond)
    restrict = splitter.restriction_hom

    def unbuildable(inst, lo, hi):
        if (lo, hi) == ("a", "top"):
            raise NotSubgroupError("no coordinates for K1(a)[n]")
        return restrict(inst, lo, hi)

    monkeypatch.setattr(splitter, "restriction_hom", unbuildable)
    agrees(diamond, diamond_fam)
    assert seen == {"coherent": 31, "incoherent": 52, "forced": 26}


def test_build_rejects_invalid_instance():
    inst, parts = diamond_instance()
    zero_beta = CoeffGroup(2, inst.coeff.Kn, inst.coeff.rho_tilde,
                           GroupHom.zero(inst.coeff.Kn, parts.T1))
    bad = KunnethInstance(inst.data, zero_beta,
                          list(inst.ideals.values()), inst.order)
    with pytest.raises(InstanceValidationError) as err:
        build_ideal_splitting(bad)
    assert err.value.report is not None
    assert not err.value.report.ok


def test_build_obstruction_names_blocking_ideal():
    inst = nonsplit_instance()
    assert validate_instance(inst).ok
    with pytest.raises(SplittingObstructionError) as err:
        build_ideal_splitting(inst)
    assert err.value.ideal == "top"


def test_splitting_family_container():
    inst, _ = diamond_instance()
    fam = build_ideal_splitting(inst)
    with pytest.raises(MissingSigmaError):
        fam.sigma("ghost")
    with pytest.raises(AttributeError):
        fam.sigmas = {}
    assert "top" in repr(fam)
    # equal sections make equal, equally hashed families over a copied
    # dict
    copy = SplittingFamily(fam.sigmas)
    assert copy == fam and hash(copy) == hash(fam)
    assert copy.sigmas is not fam.sigmas
    assert SplittingFamily({}) != fam


# --- oracle equivalence ----------------------------------------------------

def test_exhaustive_sections_diamond():
    inst, _ = diamond_instance()
    secs = exhaustive_ideal_splittings(inst)
    assert secs
    fam = build_ideal_splitting(inst)
    assert full_section(inst, fam) in secs
    beta = inst.coeff.beta_tilde
    T1 = beta.codomain
    assert all(beta @ s == GroupHom.identity(T1) for s in secs)


def test_exhaustive_sections_empty_on_obstruction():
    inst = nonsplit_instance()
    assert exhaustive_ideal_splittings(inst) == []


def test_exhaustive_sections_respects_bound():
    inst, _ = diamond_instance()
    with pytest.raises(SizeBoundError):
        exhaustive_ideal_splittings(inst, bound=1)


def test_full_section_is_global_section():
    inst, _ = stem_instance()
    fam = build_ideal_splitting(inst)
    sec = full_section(inst, fam)
    T1 = inst.coeff.beta_tilde.codomain
    assert inst.coeff.beta_tilde @ sec == GroupHom.identity(T1)


# --- seeded sweep ----------------------------------------------------------

def random_aligned(rng):
    K0 = FgGroup((), rng.randint(1, 2))
    K1 = FgGroup(rng.choice([(), (2,), (4,), (2, 4), (3,), (2, 2)]),
                 rng.randint(0, 1))
    n = rng.choice([2, 3, 4])
    full0 = tuple(range(K0.rank))
    full1 = tuple(range(K1.rank))
    if rng.random() < 0.5 or K0.rank < 2:
        mid = (tuple(sorted(rng.sample(full0, rng.randint(0, K0.rank)))),
               tuple(sorted(rng.sample(full1, rng.randint(0, K1.rank)))))
        coords = {"bot": ((), ()), "mid": mid, "top": (full0, full1)}
        if mid == coords["bot"] or mid == coords["top"]:
            coords.pop("mid")
    else:
        coords = {"bot": ((), ()), "a": ((0,), full1),
                  "b": ((1,), ()), "top": (full0, full1)}
    inst, _ = aligned(K0, K1, n, coords)
    return inst


def test_seeded_sweep_builder_and_oracle():
    rng = random.Random(0x5EED)
    oracle_runs = 0
    for _ in range(12):
        inst = random_aligned(rng)
        assert validate_instance(inst).ok
        fam = build_ideal_splitting(inst)
        assert verify_ideal_splitting(inst, fam).ok
        kn_size = inst.coeff.Kn.size()
        if kn_size is not None and kn_size <= 64:
            secs = exhaustive_ideal_splittings(inst)
            assert full_section(inst, fam) in secs
            oracle_runs += 1
    assert oracle_runs >= 3


# --- lifting ---------------------------------------------------------------

def identity_pairing(inst):
    return {i: i for i in inst.order.nodes}


def test_lift_identity_diamond():
    inst, _ = diamond_instance()
    phi0 = GroupHom.identity(inst.data.K0)
    phi1 = GroupHom.identity(inst.data.K1)
    iso = lift_isomorphism(inst, inst, phi0, phi1, identity_pairing(inst))
    assert isinstance(iso, ComplexIso)
    assert repr(iso) == "ComplexIso(4 ideals)"
    with pytest.raises(AttributeError):
        iso.phi = iso.phi0
    # an iso compares by identity and keeps its own copy of the pairing
    twin = ComplexIso(iso.phi0, iso.phi, iso.phi1, iso.pairing)
    assert twin != iso and hash(twin) == object.__hash__(twin)
    assert twin.pairing == iso.pairing and twin.pairing is not iso.pairing
    assert iso.phi.is_iso()
    assert iso.phi @ inst.coeff.rho_tilde == inst.coeff.rho_tilde @ \
        GroupHom.identity(inst.coeff.rho_tilde.domain)
    for i in inst.order.nodes:
        assert image_subgroup(iso.phi, inst.node(i).Kn_sub) \
            == inst.node(i).Kn_sub


def test_lift_block_swap():
    coords = {"bot": ((), ()), "a": ((0,), (0,)),
              "b": ((1,), (1,)), "top": ((0, 1), (0, 1))}
    inst, _ = aligned(FgGroup((), 2), FgGroup((2, 2)), 2, coords)
    swap2 = [[0, 1], [1, 0]]
    phi0 = GroupHom(inst.data.K0, inst.data.K0, swap2)
    phi1 = GroupHom(inst.data.K1, inst.data.K1, swap2)
    pairing = {"bot": "bot", "a": "b", "b": "a", "top": "top"}
    iso = lift_isomorphism(inst, inst, phi0, phi1, pairing)
    assert image_subgroup(iso.phi, inst.node("a").Kn_sub) \
        == inst.node("b").Kn_sub
    assert image_subgroup(iso.phi, inst.node("b").Kn_sub) \
        == inst.node("a").Kn_sub


def moving_theta(inst, parts):
    """theta = id + rho_tilde . h . beta_tilde on Kn, moving Kn(a).

    beta_tilde . rho_tilde = 0, so theta commutes with both rows."""
    h = GroupHom(parts.T1, parts.T, [[0, 0], [1, 0]])
    return (GroupHom.identity(inst.coeff.Kn)
            + inst.coeff.rho_tilde @ h @ inst.coeff.beta_tilde)


def test_lift_to_twisted_instance():
    # same groups, ideal data twisted by a unipotent automorphism of Kn
    inst, parts = diamond_instance()
    theta = moving_theta(inst, parts)
    assert theta.is_iso()
    nodes = []
    for i in inst.order.nodes:
        node = inst.node(i)
        nodes.append(IdealNode(i, node.K0_sub, node.K1_sub,
                               image_subgroup(theta, node.Kn_sub)))
    twisted = KunnethInstance(inst.data, inst.coeff, nodes, inst.order)
    assert validate_instance(twisted).ok
    assert twisted.node("a").Kn_sub != inst.node("a").Kn_sub
    phi0 = GroupHom.identity(inst.data.K0)
    phi1 = GroupHom.identity(inst.data.K1)
    iso = lift_isomorphism(inst, twisted, phi0, phi1,
                           identity_pairing(inst))
    for i in inst.order.nodes:
        assert image_subgroup(iso.phi, inst.node(i).Kn_sub) \
            == twisted.node(i).Kn_sub


def test_lift_rejects_bad_pairing():
    inst, _ = diamond_instance()
    phi0 = GroupHom.identity(inst.data.K0)
    phi1 = GroupHom.identity(inst.data.K1)
    pairing = {"bot": "bot", "a": "b", "b": "a", "top": "top"}
    with pytest.raises(LiftHypothesisError):
        lift_isomorphism(inst, inst, phi0, phi1, pairing)
    with pytest.raises(LiftHypothesisError):
        lift_isomorphism(inst, inst, phi0, phi1, {"bot": "bot"})


def test_lift_hypothesis_errors_are_pinned():
    inst, _ = diamond_instance()
    K0, K1 = inst.data.K0, inst.data.K1
    phi0, phi1 = GroupHom.identity(K0), GroupHom.identity(K1)
    same = identity_pairing(inst)
    # an automorphism of Z/2 + Z/4 that moves K1(a) = <(1, 0)>
    shear = GroupHom(K1, K1, [[1, 0], [2, 1]])
    cases = [
        (phi0, phi1, dict(same, b="a"), "pairing values are not B's ideals"),
        (phi0, phi1, dict(same, bot="top", top="bot"),
         "pairing does not preserve order at (a, bot)"),
        (phi0, shear, same, "phi1 K1(a) differs from K1(a)"),
        (GroupHom.identity(FgGroup((), 3)), phi1, same,
         "phi0 must map K0(A) to K0(B)"),
        (phi0, GroupHom.identity(FgGroup((2, 2))), same,
         "phi1 must map K1(A) to K1(B)"),
    ]
    for f0, f1, pairing, message in cases:
        with pytest.raises(LiftHypothesisError) as info:
            lift_isomorphism(inst, inst, f0, f1, pairing)
        assert str(info.value) == message


def test_lift_guards_a_source_map_that_is_not_a_section(monkeypatch):
    # bug guard: x - sigma(beta x) lies in ker beta_tilde = im rho_tilde
    # for a section sigma; a full_section that returns the zero map
    # leaves the second generator of Kn unsplit
    inst, _ = diamond_instance()
    real = splitter.full_section

    def zero_section(instance, fam):
        sec = real(instance, fam)
        return GroupHom.zero(sec.domain, sec.codomain)

    monkeypatch.setattr(splitter, "full_section", zero_section)
    with pytest.raises(LiftHypothesisError) as info:
        lift_isomorphism(inst, inst, GroupHom.identity(inst.data.K0),
                         GroupHom.identity(inst.data.K1),
                         identity_pairing(inst))
    assert str(info.value) \
        == "element (0, 0, 1, 0) is not split by the source family"


def test_lift_rejects_non_iso():
    inst, parts = diamond_instance()
    phi1 = GroupHom.identity(inst.data.K1)
    with pytest.raises(LiftHypothesisError):
        lift_isomorphism(inst, inst,
                         GroupHom.zero(inst.data.K0, inst.data.K0),
                         phi1, identity_pairing(inst))


def test_lift_rejects_coefficient_mismatch():
    inst2, _ = diamond_instance()
    inst3, _ = aligned(Z2, FgGroup((2, 4)), 3, DIAMOND)
    phi0 = GroupHom.identity(inst2.data.K0)
    phi1 = GroupHom.identity(inst2.data.K1)
    with pytest.raises(LiftHypothesisError, match="coefficient"):
        lift_isomorphism(inst2, inst3, phi0, phi1, identity_pairing(inst2))


def test_lift_rejects_invalid_instance():
    inst, parts = diamond_instance()
    zero_beta = CoeffGroup(2, inst.coeff.Kn, inst.coeff.rho_tilde,
                           GroupHom.zero(inst.coeff.Kn, parts.T1))
    bad = KunnethInstance(inst.data, zero_beta,
                          list(inst.ideals.values()), inst.order)
    phi0 = GroupHom.identity(inst.data.K0)
    phi1 = GroupHom.identity(inst.data.K1)
    with pytest.raises(InstanceValidationError, match="instance A"):
        lift_isomorphism(bad, inst, phi0, phi1, identity_pairing(inst))
    with pytest.raises(InstanceValidationError, match="instance B"):
        lift_isomorphism(inst, bad, phi0, phi1, identity_pairing(inst))


def test_lift_validates_each_instance_once(monkeypatch):
    inst, _ = diamond_instance()
    seen = []

    def counting(instance):
        seen.append(instance)
        return validate_instance(instance)

    monkeypatch.setattr(splitter, "validate_instance", counting)
    phi0 = GroupHom.identity(inst.data.K0)
    phi1 = GroupHom.identity(inst.data.K1)
    lift_isomorphism(inst, inst, phi0, phi1, identity_pairing(inst))
    assert len(seen) == 2


def test_lift_builds_one_map_and_no_inverse(monkeypatch):
    inst, _ = diamond_instance()
    calls = collections.Counter()
    lift_map, inverse = splitter._lift_map, GroupHom.inverse

    def counting_lift(*args):
        calls["_lift_map"] += 1
        return lift_map(*args)

    def counting_inverse(self):
        calls["inverse"] += 1
        return inverse(self)

    monkeypatch.setattr(splitter, "_lift_map", counting_lift)
    monkeypatch.setattr(GroupHom, "inverse", counting_inverse)
    phi0 = GroupHom.identity(inst.data.K0)
    phi1 = GroupHom.identity(inst.data.K1)
    lift_isomorphism(inst, inst, phi0, phi1, identity_pairing(inst))
    assert calls == {"_lift_map": 1}


def lift_through(monkeypatch, theta):
    """Lift the identity of the diamond with theta . phi as the middle map."""
    inst, _ = diamond_instance()
    lift_map = splitter._lift_map
    monkeypatch.setattr(splitter, "_lift_map",
                        lambda *args: theta @ lift_map(*args))
    phi0 = GroupHom.identity(inst.data.K0)
    phi1 = GroupHom.identity(inst.data.K1)
    lift_isomorphism(inst, inst, phi0, phi1, identity_pairing(inst))


def test_lift_rejects_a_middle_map_that_moves_an_ideal(monkeypatch):
    # theta . phi passes both squares, so only the per-ideal check
    # stands between it and a ComplexIso
    inst, parts = diamond_instance()
    theta = moving_theta(inst, parts)
    rho, beta = inst.coeff.rho_tilde, inst.coeff.beta_tilde
    assert theta @ rho == rho and beta @ theta == beta
    assert [i for i in sorted(inst.order.nodes)
            if image_subgroup(theta, inst.node(i).Kn_sub)
            != inst.node(i).Kn_sub] == ["a"]
    with pytest.raises(LiftHypothesisError) as info:
        lift_through(monkeypatch, theta)
    assert str(info.value) == "phi Kn(a) differs from Kn(a)"


def test_lift_rejects_a_middle_map_off_the_rho_square(monkeypatch):
    # id + rho_tilde . p1 keeps the beta square and kills im rho_tilde
    inst, parts = diamond_instance()
    theta = (GroupHom.identity(inst.coeff.Kn)
             + inst.coeff.rho_tilde @ parts.p1)
    assert inst.coeff.beta_tilde @ theta == inst.coeff.beta_tilde
    with pytest.raises(LiftHypothesisError) as info:
        lift_through(monkeypatch, theta)
    assert str(info.value) == "phi does not commute with rho_tilde"


def test_lift_rejects_a_middle_map_off_the_beta_square(monkeypatch):
    # id + i2 . beta_tilde keeps the rho square and doubles beta_tilde,
    # which is zero on K1[2]
    inst, parts = diamond_instance()
    theta = (GroupHom.identity(inst.coeff.Kn)
             + parts.i2 @ inst.coeff.beta_tilde)
    assert theta @ inst.coeff.rho_tilde == inst.coeff.rho_tilde
    with pytest.raises(LiftHypothesisError) as info:
        lift_through(monkeypatch, theta)
    assert str(info.value) == "phi does not commute with beta_tilde"


def test_every_builder_no_is_a_verifier_row(monkeypatch):
    # each NotASplittingError and GluingError of the glue carries the
    # witness of the verify_ideal_splitting row that fails for the family
    # holding the rejected section: the inputs of the tests above, and
    # the two planted lattice-law defects whose forced build fails a glue
    def rows(inst, sigmas):
        report = verify_ideal_splitting(inst, SplittingFamily(sigmas))
        return {r.name: r.witness for r in report.results}

    def with_glue(inst, I, parts, sigmas):
        return {**sigmas, I: splitter._glue(inst, I, parts, sigmas)}

    def restriction_no(inst, I, parts, sigmas, message):
        found = rows(inst, with_glue(inst, I, parts, sigmas))
        witness = next(w for w in (found["coherence:%s<%s" % (c, I)]
                                   for c in parts) if w is not None)
        assert message == "glued map at %r: %s" % (I, witness)

    diamond, parts = diamond_instance()
    honest = {i: natural_sigma(diamond, parts, i) for i in ("a", "b")}
    g_a, incl_a, _ = diamond.torsion_sub("a").as_group()
    escapes = (natural_sigma(diamond, parts, "top")
               @ restriction_hom(diamond, "a", "top")
               + parts.i1 @ GroupHom(parts.T1, parts.T, [[0, 0], [1, 0]])
               @ incl_a)
    for bad, name in ((GroupHom.zero(g_a, diamond.coeff.Kn),
                       "splitting-identity:a"),
                      (escapes, "containment:a"),
                      (GroupHom.zero(parts.T1, diamond.coeff.Kn),
                       "family-domain:a")):
        sigmas = {**honest, "a": bad}
        with pytest.raises(NotASplittingError) as info:
            glue_comaximal(diamond, "top", ["a", "b"], sigmas)
        assert str(info.value) == rows(diamond, sigmas)[name]

    shrunk = shrunk_kn(diamond, "top")
    below = build_ideal_splitting(diamond).sigmas
    with pytest.raises(GluingError) as info:
        build_ideal_splitting(shrunk, validate=False)
    found = rows(shrunk, with_glue(shrunk, "top", ["a", "b"], below))
    assert str(info.value) == ("glued map is not a section at 'top': "
                               + found["containment:top"])

    stem, parts = stem_instance()
    _, incl_b, _ = stem.torsion_sub("b").as_group()
    w = GroupHom(parts.T1, parts.T, [[1, 0], [0, 0]])
    sigmas = {"a": natural_sigma(stem, parts, "a"),
              "b": (parts.i2 @ incl_b) + (parts.i1 @ w @ incl_b)}
    with pytest.raises(GluingError) as info:
        glue_comaximal(stem, "top", ["a", "b"], sigmas)
    restriction_no(stem, "top", ["a", "b"], sigmas, str(info.value))

    cube = boolean_instance(3)
    fam = build_ideal_splitting(cube)
    top = cube.order.top()
    covers = cube.order.maximal_subideals(top)
    for bad in (covers[0], covers[2]):
        sigmas = {**fam.sigmas,
                  bad: shifted_section(cube, bad, fam.sigma(bad))}
        with pytest.raises(GluingError) as info:
            glue_comaximal(cube, top, covers, sigmas)
        restriction_no(cube, top, covers, sigmas, str(info.value))

    glues = []
    glue = splitter.glue_comaximal

    def recorded(inst, I, parts, sigmas):
        glues.append((I, list(parts), dict(sigmas)))
        return glue(inst, I, parts, sigmas)

    monkeypatch.setattr(splitter, "glue_comaximal", recorded)
    for seed in (5, 50):
        planted = fixtures.plant_defect(random_instance(seed),
                                        "break-lattice-law")
        glues.clear()
        with pytest.raises(GluingError) as info:
            build_ideal_splitting(planted, validate=False)
        restriction_no(planted, *glues[-1], str(info.value))

"""Core algorithms: Gamma complex, splitting extension, gluing, lifting.

A splitting family assigns to every ideal id a section sigma_I of the
coefficient row restricted to that ideal, with the restriction
coherence: whenever J1 <= J2, sigma_{J2} agrees with sigma_{J1} on
K1(J1)[n].  The builder walks the lattice in next_ideal order: the
bottom gets the zero section, an ideal with a unique maximal subideal
gets the canonical solution of one congruence system (the only
extension path; it is complete, so None means no extension exists), and
an ideal with several maximal subideals is glued along a Gamma complex,
with the well-definedness of the glue verified rather than assumed.
Two of those subideals suffice, and the glue checks that the result
restricts to every other one (glue_comaximal has the proof; on any
failure it glues from all of them).  Each glue builds and certifies one
Gamma complex (check_gamma_exact; Gamma1 only as its image) and reuses
its Gamma0 and projections.  A section is certified once per instance.
The restriction maps iota(lo, hi), K1(lo)[n] inside K1(hi)[n], are
instance data: restriction_hom builds each once per instance.  On a
distributive lattice every map the builder reads is a cover edge's
(GammaComplex says why), and verify_ideal_splitting settles its
coherence checks, one per comparable pair, on the cover edges alone,
since the maps compose (its docstring has the proof); when an edge
fails it runs them one by one.
exhaustive_ideal_splittings is the independent brute-force
cross-check of the builder: it filters the sections that
enumerate_splittings finds for the top row by exhaustion.
lift_isomorphism builds one middle map from the two top sections and
certifies it: both squares commute and each Kn(I) goes onto its paired
Kn.  The short five lemma makes that map invertible, so no inverse is
built.

Everything here is deterministic: solver solutions are canonical
(lexicographically least), the glued section does not depend on which
Gamma0-preimages are taken nor on how many parts it is glued from, and
families built from equal inputs serialize identically.  The results
are frozen dataclasses: a SplittingFamily compares and hashes by its
sections, a ComplexIso by identity.
"""

import itertools
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .errors import (AmbientMismatchError, GluingError,
                     HomDefinitionError, IdealSplitError,
                     InstanceValidationError,
                     LiftHypothesisError, MissingSigmaError,
                     NotASplittingError, NotComaximalError, NotExactError,
                     NotSubgroupError, SizeBoundError,
                     SplittingObstructionError)
from .fgab import (GroupHom, Subgroup, direct_sum, hom_preimage, image,
                   image_subgroup, induced_tensor_hom, induced_torsion_hom,
                   kernel, solve_hom)
from .intmat import transpose
from .kunneth import (ValidationReport, _gap, check_runner,
                      validate_instance)


@dataclass(frozen=True, slots=True)
class SplittingFamily:
    """Per-ideal sections sigma_I : K1(I)[n] -> Kn, keyed by ideal id."""

    sigmas: dict

    def __post_init__(self):
        object.__setattr__(self, "sigmas", dict(self.sigmas))

    def ids(self):
        return sorted(self.sigmas)

    def sigma(self, id):
        if id not in self.sigmas:
            raise MissingSigmaError("no sigma for ideal %r" % (id,))
        return self.sigmas[id]

    def __hash__(self):
        return hash(tuple(sorted(self.sigmas.items())))

    def __repr__(self):
        return "SplittingFamily(%s)" % ", ".join(self.ids())


@dataclass(frozen=True, slots=True, eq=False)
class ComplexIso:
    """Triple commuting with both rows, plus the ideal pairing.

    phi is an isomorphism by the short five lemma (see lift_isomorphism).
    """

    phi0: GroupHom
    phi: GroupHom
    phi1: GroupHom
    pairing: dict

    def __post_init__(self):
        object.__setattr__(self, "pairing", dict(self.pairing))

    def __repr__(self):
        return "ComplexIso(%d ideals)" % len(self.pairing)


class GammaComplex(NamedTuple):
    """The pieces of a certified Gamma complex that gluing reuses.

    ``gamma0`` maps the direct sum of the parts' K1(part)[n] to K1[n];
    ``projections`` are that sum's, one per part.  The pair maps are
    read through restriction_hom.  For lower covers c1, c2 of I in a
    distributive (so modular) lattice, m = c1 ^ c2 is covered by both:
    x -> x v c1 maps [m, c2] onto [c1, I] with inverse y -> y ^ c2, and
    [c1, I] has no inner element.  So every map a glue reads is a
    cover-edge map, built once per instance.
    """
    gamma0: GroupHom
    projections: list


class GammaResult(NamedTuple):
    """A Gamma check's witness, or None and the certified complex."""
    witness: Optional[str]
    complex: Optional[GammaComplex] = None

    @property
    def ok(self):
        return self.witness is None


# --- the Gamma complex -----------------------------------------------------

def _common_ambient(parts):
    if not parts:
        raise AmbientMismatchError("need at least one part")
    ambient = parts[0].ambient
    for p in parts[1:]:
        if p.ambient != ambient:
            raise AmbientMismatchError("parts live in different groups")
    return ambient


def _coords_hom(src_group, src_incl, dst):
    """Members of one subgroup in the coordinates of a containing one.

    ``dst`` is an as_group() triple.  Raises NotSubgroupError when some
    generator is not actually a member of the destination.
    """
    dst_group, _, project = dst
    images = []
    for gen in src_group.gens():
        coords = project(src_incl(gen))
        if coords is None:
            raise NotSubgroupError(
                "element %r is outside the destination subgroup"
                % (tuple(src_incl(gen)),))
        images.append(coords)
    return GroupHom.from_images(src_group, dst_group, images)


def gamma0(parts):
    """Gamma0 : (+)_i G_i -> H, summing the coordinate inclusions.

    Returns ``(gamma0, injections, projections)``, the last two those of
    the direct sum (+)_i G_i.
    """
    ambient = _common_ambient(parts)
    abstr = [p.as_group() for p in parts]
    d0, inj, proj = direct_sum([g for g, _, _ in abstr])
    total = GroupHom.zero(d0, ambient)
    for (_, incl, _), pr in zip(abstr, proj):
        total = total + (incl @ pr)
    return total, inj, proj


def check_gamma_exact(inst, I, parts):
    """Exactness certificate for the coefficient-level Gamma complex.

    Uses the instance's STORED data at the pairwise lattice meets, so a
    planted lattice-law defect surfaces here as a kernel witness rather
    than being silently repaired by recomputing true intersections.
    Gamma1 is never built: its image is spanned by the columns of the
    pair maps ``inj_i . into_i - inj_j . into_j``.  The complex is built
    once; when it is exact the result carries it (a GammaComplex) for
    glue_comaximal to reuse.
    """
    parts = list(parts)
    if not inst.order.is_comaximal_family(I, parts) or not parts:
        raise NotComaximalError("parts %r are not comaximal under %r"
                                % (parts, I))
    subs = [inst.torsion_sub(p) for p in parts]
    target = inst.torsion_sub(I)
    g0, inj, proj = gamma0(subs)
    mids = {(i, j): inst.order.meet(parts[i], parts[j])
            for i, j in itertools.combinations(range(len(parts)), 2)}
    for (i, j), mid in mids.items():
        if mid is None:
            return GammaResult("no lattice meet of %s and %s"
                               % (parts[i], parts[j]))
    g1_cols = []
    try:
        for (i, j), mid in mids.items():
            # place at slot i, minus the same element at slot j
            pair = ((inj[i] @ restriction_hom(inst, mid, parts[i]))
                    - (inj[j] @ restriction_hom(inst, mid, parts[j])))
            g1_cols += transpose(pair.matrix, pair.domain.rank)
    except (NotSubgroupError, HomDefinitionError) as exc:
        return GammaResult("meet data does not embed in the parts: %s"
                           % (exc,))
    gap = _gap(target, image(g0),
               lambda v: "Gamma0 misses %r of K1(%s)[n]" % (v, I),
               lambda v: "Gamma0 image escapes K1(%s)[n] at %r" % (I, v))
    if gap is None:
        gap = _gap(kernel(g0), Subgroup(g0.domain, g1_cols),
                   lambda v: "%r lies in ker Gamma0 but not in im Gamma1"
                   % (v,),
                   lambda v: "%r lies in im Gamma1 but not in ker Gamma0"
                   % (v,))
    if gap is not None:
        return GammaResult(gap)
    return GammaResult(None, GammaComplex(g0, proj))


# --- splittings ------------------------------------------------------------

def restriction_hom(inst, lo, hi):
    """Coordinates of K1(lo)[n] inside K1(hi)[n] (lo <= hi), built
    once per instance and remembered there; a failure is not."""
    def build():
        g_lo, incl_lo, _ = inst.torsion_sub(lo).as_group()
        return _coords_hom(g_lo, incl_lo, inst.torsion_sub(hi).as_group())
    return inst._memo(("restriction", lo, hi), build)


def _check_is_splitting(inst, id, sig):
    """NotASplittingError unless sig is a section for ideal id's row.

    A section that passes is remembered on the instance, so each is
    certified once however many glues above id read it; a failure
    raises and is not remembered.
    """
    def certify():
        g, incl, _ = inst.torsion_sub(id).as_group()
        if sig.domain != g or sig.codomain != inst.coeff.Kn:
            raise NotASplittingError(
                "sigma for %r has the wrong domain or codomain" % (id,))
        if inst.coeff.beta_tilde @ sig != incl:
            raise NotASplittingError(
                "beta_tilde . sigma is not the identity on K1(%s)[n]" % (id,))
        if not image(sig) <= inst.node(id).Kn_sub:
            raise NotASplittingError(
                "sigma image escapes Kn(%s)" % (id,))
        return True
    inst._memo(("section", id, sig), certify)


def _extend_solver(inst, lo, hi, tau):
    """Canonical extension of tau (a section at lo) to hi, or None."""
    g_lo, incl_lo, _ = inst.torsion_sub(lo).as_group()
    g_hi, incl_hi, _ = inst.torsion_sub(hi).as_group()
    h_hi, incl_h, proj_h = inst.node(hi).Kn_sub.as_group()
    iota = restriction_hom(inst, lo, hi)
    points = []
    for gen in g_lo.gens():
        target = proj_h(tau(gen))
        if target is None:
            # tau's image is not inside Kn(hi): nothing can extend it
            return None
        points.append((iota(gen), target))
    x = solve_hom(g_hi, h_hi,
                  point_constraints=points,
                  left_constraints=[(inst.coeff.beta_tilde @ incl_h,
                                     incl_hi)])
    if x is None:
        return None
    return incl_h @ x


def _glue(inst, I, parts, sigmas):
    """sigma_I from checked sections at ``parts`` along their Gamma
    complex, certified exact first; GluingError when it is not, when
    two parts disagree on their meet, or when the result is no
    section."""
    cert = check_gamma_exact(inst, I, parts)
    if not cert.ok:
        raise GluingError("Gamma complex is not exact under %r: %s"
                          % (I, cert.witness))
    g0, proj = cert.complex
    # Eq (4) among the parts at their pairwise lattice meets
    for a, b in itertools.combinations(parts, 2):
        mid = inst.order.meet(a, b)
        if (sigmas[a] @ restriction_hom(inst, mid, a)
                != sigmas[b] @ restriction_hom(inst, mid, b)):
            raise GluingError("sigmas at %r and %r disagree on their meet %r"
                              % (a, b, mid))
    g_i, incl_i, _ = inst.torsion_sub(I).as_group()
    images = []
    for gen in g_i.gens():
        w = hom_preimage(g0, incl_i(gen))
        if w is None:
            raise GluingError("no Gamma0 preimage for %r" % (gen,))
        total = inst.coeff.Kn.zero()
        for k, p in enumerate(parts):
            yk = proj[k](w)
            total = inst.coeff.Kn.add(total, sigmas[p](yk))
        images.append(total)
    try:
        sigma = GroupHom.from_images(g_i, inst.coeff.Kn, images)
    except HomDefinitionError as exc:
        raise GluingError("glued images do not define a hom: %s" % (exc,))
    # the construction guarantees these for valid input; certify anyway
    try:
        _check_is_splitting(inst, I, sigma)
    except NotASplittingError as exc:
        raise GluingError("glued map is not a section at %r: %s" % (I, exc))
    return sigma


def glue_comaximal(inst, I, parts, sigmas):
    """Assemble sigma_I from sections at a comaximal family of parts.

    Every part's section is checked first.  For each generator y of
    K1(I)[n] a Gamma0-preimage (y_1, ..., y_N) is solved and sigma_I(y)
    = sum sigma_i(y_i).  Coherence of the inputs on pairwise meets and
    exactness of the Gamma complex are verified first, which is exactly
    what makes the result independent of the preimage choice.  The
    complex is built and certified once, by check_gamma_exact; its
    Gamma0 and projections are then reused here, not rebuilt, and the
    pair restriction maps are the ones restriction_hom remembers.

    With three or more parts, sigma_I is glued from the first two
    alone, and kept when sigma_I . iota(c, I) = sigma_c for every other
    part c.  Any failure on that path (the two are not comaximal, their
    complex is not exact, they disagree on their meet, or the result
    misses another part) glues from all the parts, and only that glue
    reports an error.  So errors are the all-parts glue's, except that
    a two-part glue that succeeds hides a non-exact all-parts complex.

    Why two parts suffice on a valid instance, where the parts are the
    lower covers of I.  Distinct lower covers c1, c2 of I are
    incomparable, so c1 < c1 v c2 <= I, and c1 v c2 = I since c1 is a
    cover.  Write m = c1 ^ c2, A = K1(c1), B = K1(c2), M = K1(m).  The
    lattice laws give A + B = K1(I) and A meet B = M, so the two-part
    complex is exact in the middle: ker Gamma0 is the antidiagonal copy
    of A[n] meet B[n] = (A meet B)[n] = M[n], which is im Gamma1.  It is
    exact on the right by purity: for y = a + b in K1(I)[n], na = -nb
    lies in M and in nK1, and M is pure, so na = nz for some z in M;
    then y = (a - z) + (b + z) with a - z in A[n] and b + z in B[n].
    So Gamma0 is onto and sigma_I is fixed by sigma_c1 and sigma_c2.
    For any other lower cover c, distributivity gives
    c = c ^ (c1 v c2) = (c ^ c1) v (c ^ c2), and the same purity
    argument gives K1(c)[n] = K1(c ^ c1)[n] + K1(c ^ c2)[n].  The
    family below I is coherent, so sigma_I agrees with sigma_c on both
    summands, and sigma_I . iota(c, I) = sigma_c.  The all-parts glue
    restricts to every part too, so the two glues agree on the two-part
    Gamma0's image, all of K1(I)[n]: the family is the same either way.
    """
    parts = list(parts)
    for p in parts:
        if p not in sigmas:
            raise MissingSigmaError("no sigma for part %r" % (p,))
        _check_is_splitting(inst, p, sigmas[p])
    if len(parts) > 2:
        try:
            sigma = _glue(inst, I, parts[:2], sigmas)
            if all(sigma @ restriction_hom(inst, c, I) == sigmas[c]
                   for c in parts[2:]):
                return sigma
        except IdealSplitError:
            pass
    return _glue(inst, I, parts, sigmas)


def build_ideal_splitting(inst, validate=True):
    """Inductive construction of a coherent splitting family.

    Walks the lattice in next_ideal order; zero section at the bottom,
    solver extension when an ideal has one maximal subideal, comaximal
    gluing when it has several.  Raises SplittingObstructionError with
    the blocking ideal when an extension does not exist.  ``validate``
    can be switched off by callers that already ran validate_instance
    (or insist on attempting an invalid instance).
    """
    if validate:
        report = validate_instance(inst)
        if not report.ok:
            raise InstanceValidationError(
                "instance fails validation: %s"
                % ", ".join(r.name for r in report.failures()),
                report=report)
    sigmas = {}
    processed = set()
    while True:
        current = inst.order.next_ideal(processed)
        if current is None:
            break
        maxsubs = inst.order.maximal_subideals(current)
        if not maxsubs:
            g, _, _ = inst.torsion_sub(current).as_group()
            sigmas[current] = GroupHom.zero(g, inst.coeff.Kn)
        elif len(maxsubs) == 1:
            lo = maxsubs[0]
            sigma = _extend_solver(inst, lo, current, sigmas[lo])
            if sigma is None:
                raise SplittingObstructionError(
                    "no extension of the section at %r to %r"
                    % (lo, current), ideal=current,
                    diagnostics={"from": lo})
            sigmas[current] = sigma
        else:
            sigmas[current] = glue_comaximal(inst, current, maxsubs, sigmas)
        processed.add(current)
    return SplittingFamily(sigmas)


def verify_ideal_splitting(inst, fam):
    """Re-check a family against its instance, however it was produced.

    The ``coherence:lo<hi`` checks, one per comparable pair, are first
    settled together on the cover edges: when sigma_hi . iota(lo, hi) =
    sigma_lo holds on every cover edge (lo, hi), each pair is recorded
    as passed.  When some edge's check fails or raises an
    IdealSplitError, each pair is checked on its own, with the same
    names, verdicts and witnesses.

    Why the cover edges decide every pair: a comparable pair lo < hi is
    a chain lo = c0 < c1 < ... < ck = hi of cover edges.  Each edge's
    map exists, so K1(lo)[n] <= K1(c1)[n] <= ... <= K1(hi)[n] and
    iota(lo, hi) exists.  The maps are the unique coordinates of
    inclusions into one ambient, so they compose: iota(lo, hi) =
    iota(c(k-1), hi) . ... . iota(lo, c1).  Peeling one edge at a time,
    sigma_hi . iota(lo, hi) = sigma_c(k-1) . iota(lo, c(k-1)) = ... =
    sigma_lo.  Cover edges are pairs themselves, so the certificate
    fails exactly when some pair fails, and the report is the pairwise
    scan's either way.  It needs no top, and it looks up one
    restriction map per cover edge, where the scan looks up one per
    pair.
    """
    results = []
    run = check_runner(results)
    ids = list(inst.order.nodes)
    for i in ids:
        def domain_ok(i=i):
            sig = fam.sigma(i)
            g, _, _ = inst.torsion_sub(i).as_group()
            if sig.domain != g:
                return "domain is not K1(%s)[n]" % (i,)
            if sig.codomain != inst.coeff.Kn:
                return "codomain is not Kn"
            return None
        run("family-domain:%s" % i, domain_ok)
    for i in ids:
        def splits(i=i):
            sig = fam.sigma(i)
            _, incl, _ = inst.torsion_sub(i).as_group()
            if inst.coeff.beta_tilde @ sig != incl:
                return "beta_tilde . sigma != id on K1(%s)[n]" % (i,)
            return None
        run("splitting-identity:%s" % i, splits)
    for i in ids:
        run("containment:%s" % i,
            lambda i=i: _gap(image(fam.sigma(i)), inst.node(i).Kn_sub,
                             lambda g: "sigma image reaches %r outside Kn(%s)"
                             % (g, i)))

    def coherent(lo, hi):
        def check():
            iota = restriction_hom(inst, lo, hi)
            if fam.sigma(hi) @ iota != fam.sigma(lo):
                return ("sigma at %s restricted to K1(%s)[n] "
                        "differs from sigma at %s" % (hi, lo, lo))
            return None
        return check

    def edges_certify():
        try:
            return all(coherent(lo, hi)() is None
                       for lo, hi in inst.order.cover_edges())
        except IdealSplitError:
            return False

    run.certified([("coherence:%s<%s" % (lo, hi), coherent(lo, hi))
                   for lo in ids for hi in ids
                   if lo != hi and inst.order.leq(lo, hi)], edges_certify())
    return ValidationReport(results)


def full_section(inst, fam):
    """The top section as a map on all of K1[n]."""
    top = inst.order.top()
    t1 = inst.coeff.beta_tilde.codomain
    return fam.sigma(top) @ _coords_hom(t1, GroupHom.identity(t1),
                                        inst.torsion_sub(top).as_group())


# --- brute-force enumeration -----------------------------------------------

def enumerate_splittings(left, right, bound=256):
    """Every splitting of the short exact sequence 0 -> A -> B -> C -> 0.

    ``left`` maps A to B and ``right`` maps B to C.  Raises
    NotExactError unless the sequence is exact at A, B and C (in that
    order), then returns all homs sigma: C -> B with right . sigma = id,
    sorted by matrix for a deterministic order.  It is exponential by
    design and refuses groups beyond the bound.
    """
    if left.codomain != right.domain:
        raise AmbientMismatchError("left and right maps do not meet")
    if not left.is_injective():
        raise NotExactError("sequence fails at the left term (injectivity)")
    if kernel(right) != image(left):
        raise NotExactError("sequence fails at the middle term")
    if not right.is_surjective():
        raise NotExactError(
            "sequence fails at the right term (surjectivity)")
    b, c = right.domain, right.codomain
    if b.size() is None or c.size() is None:
        raise SizeBoundError("splitting enumeration needs finite groups")
    if c.size() > bound:
        raise SizeBoundError("|C| = %d exceeds the bound %d"
                             % (c.size(), bound))
    candidates = [[x for x in b.elements()
                   if right(x) == gen and b.scale(order, x) == b.zero()]
                  for gen, order in zip(c.gens(), c.orders)]
    found = [GroupHom.from_images(c, b, [list(x) for x in combo])
             for combo in itertools.product(*candidates)]
    found.sort(key=lambda h: h.matrix)
    return found


def exhaustive_ideal_splittings(inst, bound=256):
    """All ideal-respecting sections of the top row, by brute force.

    Ground truth for the builder: nonempty iff an ideally split family
    exists (any family's top section is such a map, and any such map
    restricts to a family).  Sorted by matrix, so deterministic.
    """
    keep = []
    for sec in enumerate_splittings(inst.coeff.rho_tilde,
                                    inst.coeff.beta_tilde, bound=bound):
        if all(image_subgroup(sec, inst.torsion_sub(i))
               <= inst.node(i).Kn_sub for i in inst.order.nodes):
            keep.append(sec)
    return keep


# --- isomorphism lifting ---------------------------------------------------

def _check_pairing(instA, instB, phi0, phi1, pairing):
    a_ids = sorted(instA.order.nodes)
    if sorted(pairing) != a_ids:
        raise LiftHypothesisError("pairing keys are not A's ideals")
    if sorted(pairing.values()) != sorted(instB.order.nodes):
        raise LiftHypothesisError("pairing values are not B's ideals")
    for i in a_ids:
        for j in a_ids:
            if instA.order.leq(i, j) != instB.order.leq(pairing[i],
                                                        pairing[j]):
                raise LiftHypothesisError(
                    "pairing does not preserve order at (%s, %s)" % (i, j))
    for i in a_ids:
        na, nb = instA.node(i), instB.node(pairing[i])
        if image_subgroup(phi0, na.K0_sub) != nb.K0_sub:
            raise LiftHypothesisError(
                "phi0 K0(%s) differs from K0(%s)" % (i, pairing[i]))
        if image_subgroup(phi1, na.K1_sub) != nb.K1_sub:
            raise LiftHypothesisError(
                "phi1 K1(%s) differs from K1(%s)" % (i, pairing[i]))


def _lift_map(src, dst, tensor_map, torsion_map, sigma_src, tau_dst):
    """phi(x) = rho_B(tensor_map(u)) + tau(torsion_map(beta x)) with u
    the unique rho-preimage of x - sigma(beta x)."""
    kn_a, kn_b = src.coeff.Kn, dst.coeff.Kn
    rho_a, beta_a = src.coeff.rho_tilde, src.coeff.beta_tilde
    rho_b = dst.coeff.rho_tilde
    images = []
    for gen in kn_a.gens():
        v = beta_a(gen)
        diff = kn_a.sub(gen, sigma_src(v))
        u = hom_preimage(rho_a, diff)
        if u is None:
            raise LiftHypothesisError(
                "element %r is not split by the source family" % (gen,))
        img = kn_b.add(rho_b(tensor_map(u)), tau_dst(torsion_map(v)))
        images.append(img)
    return GroupHom.from_images(kn_a, kn_b, images)


def lift_isomorphism(instA, instB, phi0, phi1, pairing):
    """Lift (phi0, phi1) to the middle map of an ideal-preserving iso.

    Both instances must be valid; phi0, phi1 must be isomorphisms
    matched by the lattice pairing.  The result commutes with both rows
    and carries Kn(I) onto Kn(pairing(I)).  Both rows are exact (both
    instances validate) and phi0, phi1 are isomorphisms, so by the short
    five lemma phi is one too, and its inverse carries each
    Kn(pairing(I)) back onto Kn(I).
    """
    for name, inst in (("A", instA), ("B", instB)):
        report = validate_instance(inst)
        if not report.ok:
            raise InstanceValidationError(
                "instance %s fails validation" % name, report=report)
    if instA.coeff.n != instB.coeff.n:
        raise LiftHypothesisError("coefficients differ")
    if not phi0.is_iso() or not phi1.is_iso():
        raise LiftHypothesisError("phi0 and phi1 must be isomorphisms")
    if phi0.domain != instA.data.K0 or phi0.codomain != instB.data.K0:
        raise LiftHypothesisError("phi0 must map K0(A) to K0(B)")
    if phi1.domain != instA.data.K1 or phi1.codomain != instB.data.K1:
        raise LiftHypothesisError("phi1 must map K1(A) to K1(B)")
    _check_pairing(instA, instB, phi0, phi1, pairing)
    n = instA.coeff.n
    fam_a = build_ideal_splitting(instA, validate=False)
    fam_b = build_ideal_splitting(instB, validate=False)
    sigma = full_section(instA, fam_a)
    tau = full_section(instB, fam_b)
    tensor = induced_tensor_hom(phi0, n)
    torsion = induced_torsion_hom(phi1, n)
    phi = _lift_map(instA, instB, tensor, torsion, sigma, tau)
    if phi @ instA.coeff.rho_tilde != instB.coeff.rho_tilde @ tensor:
        raise LiftHypothesisError("phi does not commute with rho_tilde")
    if instB.coeff.beta_tilde @ phi != torsion @ instA.coeff.beta_tilde:
        raise LiftHypothesisError("phi does not commute with beta_tilde")
    for i in sorted(instA.order.nodes):
        if (image_subgroup(phi, instA.node(i).Kn_sub)
                != instB.node(pairing[i]).Kn_sub):
            raise LiftHypothesisError(
                "phi Kn(%s) differs from Kn(%s)" % (i, pairing[i]))
    return ComplexIso(phi0, phi, phi1, pairing)

"""Core algorithms: Gamma complex, splitting extension, gluing, lifting.

A splitting family assigns to every ideal id a section sigma_I of the
coefficient row restricted to that ideal, with the restriction
coherence: whenever J1 <= J2, sigma_{J2} agrees with sigma_{J1} on
K1(J1)[n].  The builder walks the lattice in next_ideal order: the
bottom gets the zero section, an ideal with a unique maximal subideal
gets the canonical solution of one congruence system (the only
extension path; it is complete, so None means no extension exists), and
an ideal with several maximal subideals is glued over Gamma0-preimages
from two of them (from all of them only when two do not reach K1(I)[n]).
The glue certifies its output, not its inputs, by the verifier's own
rows, so its "no" is a verify_ideal_splitting witness: the result must
be a section that restricts to every maximal subideal, and that check
alone decides whether a glue exists (glue_comaximal has the proof).
check_gamma_exact certifies the Gamma complex itself, for the
gamma-check command and the tests.  A section is certified once per
instance.  The restriction maps iota(lo, hi), K1(lo)[n] inside
K1(hi)[n], are instance data: restriction_hom builds each once per
instance.  The builder reads them on cover edges only, and
verify_ideal_splitting settles its coherence checks, one per
comparable pair, on the cover edges alone, since the maps compose (its
docstring has the proof); when an edge fails it runs them one by one.
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
    pair maps ``inj_i . into_i - inj_j . into_j``.  Returns the witness
    of the first failure, or None when the complex is exact.  The
    builder does not call it: glue_comaximal certifies its result.
    """
    parts = list(parts)
    if not inst.order.is_comaximal_family(I, parts) or not parts:
        raise NotComaximalError("parts %r are not comaximal under %r"
                                % (parts, I))
    subs = [inst.torsion_sub(p) for p in parts]
    target = inst.torsion_sub(I)
    g0, inj, _ = gamma0(subs)
    mids = {(i, j): inst.order.meet(parts[i], parts[j])
            for i, j in itertools.combinations(range(len(parts)), 2)}
    for (i, j), mid in mids.items():
        if mid is None:
            return "no lattice meet of %s and %s" % (parts[i], parts[j])
    g1_cols = []
    try:
        for (i, j), mid in mids.items():
            # place at slot i, minus the same element at slot j
            pair = ((inj[i] @ restriction_hom(inst, mid, parts[i]))
                    - (inj[j] @ restriction_hom(inst, mid, parts[j])))
            g1_cols += transpose(pair.matrix, pair.domain.rank)
    except (NotSubgroupError, HomDefinitionError) as exc:
        return "meet data does not embed in the parts: %s" % (exc,)
    gap = _gap(target, image(g0),
               lambda v: "Gamma0 misses %r of K1(%s)[n]" % (v, I),
               lambda v: "Gamma0 image escapes K1(%s)[n] at %r" % (I, v))
    if gap is None:
        gap = _gap(kernel(g0), Subgroup(g0.domain, g1_cols),
                   lambda v: "%r lies in ker Gamma0 but not in im Gamma1"
                   % (v,),
                   lambda v: "%r lies in im Gamma1 but not in ker Gamma0"
                   % (v,))
    return gap


# --- splittings ------------------------------------------------------------

def restriction_hom(inst, lo, hi):
    """Coordinates of K1(lo)[n] inside K1(hi)[n] (lo <= hi), built
    once per instance and remembered there; a failure is not."""
    def build():
        g_lo, incl_lo, _ = inst.torsion_sub(lo).as_group()
        return _coords_hom(g_lo, incl_lo, inst.torsion_sub(hi).as_group())
    return inst._memo(("restriction", lo, hi), build)


def _domain_witness(inst, id, sig):
    if sig.domain != inst.torsion_sub(id).as_group()[0]:
        return "domain is not K1(%s)[n]" % (id,)
    if sig.codomain != inst.coeff.Kn:
        return "codomain is not Kn"
    return None


def _identity_witness(inst, id, sig):
    _, incl, _ = inst.torsion_sub(id).as_group()
    if inst.coeff.beta_tilde @ sig != incl:
        return "beta_tilde . sigma != id on K1(%s)[n]" % (id,)
    return None


def _containment_witness(inst, id, sig):
    return _gap(image(sig), inst.node(id).Kn_sub,
                lambda g: "sigma image reaches %r outside Kn(%s)" % (g, id))


# what "sig is a section at id" means: (report row, witness or None)
_SECTION_CHECKS = (("family-domain", _domain_witness),
                  ("splitting-identity", _identity_witness),
                  ("containment", _containment_witness))


def _restriction_witness(inst, lo, hi, sections):
    """What "restricts" means: sigma_hi . iota(lo, hi) = sigma_lo, else
    the witness; iota is read before ``sections()``, (sigma_hi, sigma_lo)."""
    iota = restriction_hom(inst, lo, hi)
    upper, lower = sections()
    if upper @ iota != lower:
        return ("sigma at %s restricted to K1(%s)[n] differs from sigma at %s"
                % (hi, lo, lo))
    return None


def _check_is_splitting(inst, id, sig):
    """NotASplittingError with the first failing _SECTION_CHECKS witness
    unless sig is a section at id.  One that passes is remembered on the
    instance, so each is certified once however many glues read it."""
    def certify():
        for _, witness in _SECTION_CHECKS:
            why = witness(inst, id, sig)
            if why is not None:
                raise NotASplittingError(why)
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
    """sigma_I from the sections at ``parts``: sigma_I(y) = sum
    sigma_p(y_p) over one canonical Gamma0-preimage (y_p) of each
    generator y of K1(I)[n].  Gamma0 is taken over the first two parts,
    and over all of them only when it misses a generator."""
    g_i, incl_i, _ = inst.torsion_sub(I).as_group()
    for glued in (parts[:2], parts):
        g0, _, proj = gamma0([inst.torsion_sub(p) for p in glued])
        pre = [hom_preimage(g0, incl_i(gen)) for gen in g_i.gens()]
        if None not in pre:
            break
    else:
        raise GluingError("no Gamma0 preimage for %r"
                          % (g_i.gens()[pre.index(None)],))
    summed = GroupHom.zero(g0.domain, inst.coeff.Kn)
    for p, pr in zip(glued, proj):
        summed = summed + sigmas[p] @ pr
    try:
        return GroupHom.from_images(g_i, inst.coeff.Kn,
                                    [summed(w) for w in pre])
    except HomDefinitionError as exc:
        raise GluingError("glued images do not define a hom: %s" % (exc,))


def glue_comaximal(inst, I, parts, sigmas):
    """Assemble sigma_I from sections at a comaximal family of parts.

    The parts' sections are checked, then the family.  The glue is kept
    only when it passes the verifier's rows, _SECTION_CHECKS at I and
    _restriction_witness from every part; a GluingError carries the
    failing witness.  So the result is certified, not the inputs.

    The check decides whether a glue exists.  When the Gamma0 used
    reaches K1(I)[n], any section tau at I that restricts to every part
    is the glued map: a generator y with preimage (y_p) is sum
    iota(p, I)(y_p), so tau(y) = sum sigma_p(y_p), whichever preimage
    was taken.  So when the glued map fails, no glue exists and more
    parts cannot help: they are used only when Gamma0 over the first
    two misses a generator.

    Two lower covers c1, c2 of I suffice on a valid instance.  They are
    incomparable, so c1 < c1 v c2 <= I, and c1 v c2 = I since c1 is a
    cover.  With m = c1 ^ c2, A = K1(c1), B = K1(c2) and M = K1(m), the
    lattice laws give A + B = K1(I) and A meet B = M.  For y = a + b in
    K1(I)[n], na = -nb lies in M and in nK1, and M is pure, so na = nz
    for some z in M; then y = (a - z) + (b + z) with a - z in A[n] and
    b + z in B[n].  So Gamma0 over c1 and c2 is onto K1(I)[n].  For any
    other lower cover c, distributivity gives c = (c ^ c1) v (c ^ c2),
    and the same purity argument gives K1(c)[n] = K1(c ^ c1)[n] +
    K1(c ^ c2)[n].  The family below I is coherent, so a glue that
    restricts to c1 and c2 agrees with sigma_c on both summands, and so
    restricts to c.
    """
    parts = list(parts)
    for p in parts:
        if p not in sigmas:
            raise MissingSigmaError("no sigma for part %r" % (p,))
        _check_is_splitting(inst, p, sigmas[p])
    if not inst.order.is_comaximal_family(I, parts) or not parts:
        raise NotComaximalError("parts %r are not comaximal under %r"
                                % (parts, I))
    sigma = _glue(inst, I, parts, sigmas)
    try:
        _check_is_splitting(inst, I, sigma)
    except NotASplittingError as exc:
        raise GluingError("glued map is not a section at %r: %s" % (I, exc))
    for c in parts:
        try:
            why = _restriction_witness(inst, c, I, lambda: (sigma, sigmas[c]))
        except NotSubgroupError as exc:
            raise GluingError("no restriction map from %r to %r: %s"
                              % (c, I, exc))
        if why is not None:
            raise GluingError("glued map at %r: %s" % (I, why))
    return sigma


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

    Its rows are the builder's own checks: _SECTION_CHECKS at each ideal,
    then ``coherence:lo<hi`` by _restriction_witness for each comparable
    pair.  The pairs are first settled together on the cover edges; when
    some edge fails or raises an IdealSplitError, each pair is checked
    on its own, with the same names, verdicts and witnesses.

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
    restriction map per cover edge, not one per pair.
    """
    results = []
    run = check_runner(results)
    ids = list(inst.order.nodes)
    for name, witness in _SECTION_CHECKS:
        for i in ids:
            run("%s:%s" % (name, i),
                lambda i=i, witness=witness: witness(inst, i, fam.sigma(i)))

    def coherent(lo, hi):
        return lambda: _restriction_witness(
            inst, lo, hi, lambda: (fam.sigma(hi), fam.sigma(lo)))

    try:
        edges = all(coherent(lo, hi)() is None
                    for lo, hi in inst.order.cover_edges())
    except IdealSplitError:
        edges = False
    run.certified([("coherence:%s<%s" % (lo, hi), coherent(lo, hi))
                   for lo in ids for hi in ids
                   if lo != hi and inst.order.leq(lo, hi)], edges)
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

"""Reference algorithms the library used to run, kept as test oracles.

The library reads every subgroup question off the canonical Hermite
basis: coordinates and meets by reduction against it, purity by
comparing invariant factors.  The routes below reach the same answers
another way:

* ``solve_columns`` and ``kernel_columns`` back-substitute along the
  column echelon form of the transposed basis;
* ``column_coordinates_group`` and ``kernel_meet`` build ``as_group``
  and ``Subgroup.meet`` on them;
* ``retraction_pure`` decides purity by solving for a retraction, and
  ``is_pure_bruteforce`` checks ``nG meet H = nH`` for every n up to
  the exponent;
* ``full_scan_reduce`` searches every basis row's pivot from column 0,
  and ``scan_sub_eq``, the oracle for ``kunneth._gap``, decides
  subgroup equality by a membership scan of every generator in both
  directions;
* ``gamma1_with_pairs`` builds Gamma1 standalone, from its own direct
  sum of the parts, where ``splitter.check_gamma_exact`` builds it from
  the one Gamma0 it certifies;
* ``solver_kernel`` takes a kernel as the homogeneous solution lattice
  of ``intmat.solve_congruences``, ``quotient_preimage`` a preimage as
  that kernel after the projection ``quotient`` onto the quotient by
  the subgroup,
  and ``pointwise_image`` an image by applying the hom to one reduced
  generator at a time, where ``fgab`` reads all three off Hermite
  forms;
* ``five_term_exact`` decides the paper's five-term sequence
  K0 -xn-> K0 -> Kn -> K1 -xn-> K1, where ``validate_instance`` checks
  the short row 0 -> K0/nK0 -> Kn -> K1[n] -> 0 term by term;
* ``column_lattice`` stands in for the column transform ``v`` that
  ``intmat.smith_form`` no longer returns: two r x c matrices have the
  same column lattice iff some unimodular v carries one onto the other,
  so ``u @ mat @ v == d`` holds for some v iff ``u @ mat`` and ``d``
  have the same ``column_lattice``;
* ``standard_dumps`` writes canonical JSON with the standard library's
  indenting encoder, where ``fileformat.dumps_canonical`` writes it
  itself;
* ``all_covers_family`` glues each ideal from all of its lower covers,
  where ``splitter.glue_comaximal`` glues from the first two, and
  ``pairwise_coherence`` checks the coherence of every comparable pair
  on its own, where ``splitter.verify_ideal_splitting`` settles them
  against the top section.
"""

import json

from idealsplit import fgab, intmat, kunneth, splitter
from idealsplit.errors import (AmbientMismatchError, NotSubgroupError,
                               SizeBoundError)


def _back_substitute(h, pivots, rhs):
    """Pivot-column multipliers y with ``h @ y = rhs``, or None."""
    res = list(rhs)
    y = {}
    for pr, pc in pivots:
        val = h[pr][pc]
        if res[pr] % val:
            return None
        q = res[pr] // val
        if q:
            y[pc] = q
            for i in range(len(res)):
                res[i] -= q * h[i][pc]
    if any(res):
        return None
    return y


def solve_columns(mat, rhs, cols=None):
    """One integer solution of ``mat @ x = rhs``, or None, by back
    substitution along the canonical column echelon form."""
    r, c = intmat.shape(mat, cols)
    if len(rhs) != r:
        raise ValueError("rhs length mismatch")
    h, v, pivots = intmat.column_echelon(mat, c)
    y = _back_substitute(h, pivots, rhs)
    if y is None:
        return None
    return intmat.matvec(v, [y.get(k, 0) for k in range(c)])


def kernel_columns(mat, cols=None):
    """Basis of ``{x : mat @ x = 0}``, one vector per list entry."""
    r, c = intmat.shape(mat, cols)
    h, v, pivots = intmat.column_echelon(mat, c)
    return [[v[i][k] for i in range(c)] for k in range(len(pivots), c)]


def column_coordinates_group(sub):
    """``sub.as_group()`` rebuilt with ``solve_columns`` coordinates."""
    basis = [list(r) for r in sub.generators]
    k = len(basis)
    n = sub.ambient.rank
    bt = intmat.transpose(basis, n) if k else intmat.zeros(n, 0)
    rel = []
    for i, d in enumerate(sub.ambient.orders):
        if not d:
            continue
        target = [d if j == i else 0 for j in range(n)]
        coords = solve_columns(bt, target, cols=k)
        if coords is None:
            raise NotSubgroupError("ambient relation escaped the lattice")
        rel.append(coords)
    group, proj, lift = fgab._presentation(rel, gens=k)
    incl_mat = intmat.matmul(bt, lift, bcols=group.rank)
    if not incl_mat:
        incl_mat = intmat.zeros(n, group.rank)
    incl = fgab.GroupHom(group, sub.ambient, incl_mat)

    def project(vec):
        coords = solve_columns(bt, list(vec), cols=k)
        if coords is None:
            return None
        return group.reduce(intmat.matvec(proj, coords)
                            if group.rank else [])

    return group, incl, project


def kernel_meet(h, k):
    """``h meet k`` from the kernel of ``[B_h | -B_k]``, multiplied back."""
    b1 = [list(r) for r in h.generators]
    b2 = [list(r) for r in k.generators]
    n = h.ambient.rank
    block = [[b1[j][i] for j in range(len(b1))]
             + [-b2[j][i] for j in range(len(b2))] for i in range(n)]
    gens = []
    for ker in kernel_columns(block, cols=len(b1) + len(b2)):
        gens.append([sum(ker[j] * b1[j][i] for j in range(len(b1)))
                     for i in range(n)])
    return fgab.Subgroup(h.ambient, gens)


def retraction_pure(sub):
    """Purity via the retraction criterion: a subgroup of a finitely
    generated group is pure iff it is a direct summand, iff a
    retraction onto it exists, which is one linear solve."""
    group, incl, _ = column_coordinates_group(sub)
    if group.rank == 0:
        return True
    points = [(incl(e), e) for e in group.gens()]
    return fgab.solve_hom(sub.ambient, group,
                          point_constraints=points) is not None


def is_pure_bruteforce(sub):
    """Direct check of nG meet H = nH for every n up to the exponent."""
    amb = sub.ambient
    if amb.free_rank:
        raise SizeBoundError("brute-force purity needs a finite ambient")
    # the exponent of a finite group is its last invariant factor
    exponent = amb.invariant_factors[-1] if amb.invariant_factors else 1
    for n in range(1, exponent + 1):
        ng = fgab.Subgroup(amb, [amb.scale(n, e) for e in amb.gens()])
        nh = fgab.Subgroup(amb, [[n * x for x in row]
                                 for row in sub.generators])
        if kernel_meet(ng, sub) != nh:
            return False
    return True


def full_scan_reduce(vec, basis, track=False):
    """``intmat.reduce_vector`` with each pivot searched from column 0."""
    w = list(vec)
    coeffs = []
    for row in basis:
        pj = next((j for j in range(len(row)) if row[j]), None)
        if pj is None:
            coeffs.append(0)
            continue
        q = w[pj] // row[pj]
        if q:
            for j in range(pj, len(row)):
                w[j] -= q * row[j]
        coeffs.append(q)
    if track:
        return w, coeffs
    return w


def scan_sub_eq(a, b, label):
    """The oracle for ``kunneth._gap``: a membership scan both ways,
    every time, returning the first witness text or None."""
    for g in a.generators:
        if not b.contains(g):
            return "%s: element %r only on the left" % (label, tuple(g))
    for g in b.generators:
        if not a.contains(g):
            return "%s: element %r only on the right" % (label, tuple(g))
    return None


def gamma1_with_pairs(parts, pair_subs):
    """Gamma1 : (+)_{i<j} M_ij -> (+)_i G_i with injectable pair data:
    ``pair_subs[(i, j)]`` is the subgroup standing in for G_i meet G_j."""
    splitter._common_ambient(parts)
    abstr = [p.as_group() for p in parts]
    d0, inj, _ = fgab.direct_sum([g for g, _, _ in abstr])
    pair_list = []
    maps = []
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            mg, mincl, _ = pair_subs[(i, j)].as_group()
            pair_list.append(mg)
            # place at slot i, minus the same element at slot j
            into_i = splitter._coords_hom(mg, mincl, abstr[i])
            into_j = splitter._coords_hom(mg, mincl, abstr[j])
            maps.append((inj[i] @ into_i) - (inj[j] @ into_j))
    d1, _, pproj = fgab.direct_sum(pair_list)
    total = fgab.GroupHom.zero(d1, d0)
    for f, pr in zip(maps, pproj):
        total = total + (f @ pr)
    return total


def solver_kernel(f):
    """``fgab.kernel`` as the congruence solver's homogeneous lattice."""
    res = intmat.solve_congruences(
        f.matrix, [0] * f.codomain.rank, list(f.codomain.orders),
        f.domain.rank, list(f.domain.orders))
    return fgab.Subgroup(f.domain, res[1])


def quotient(group, sub):
    """Quotient by a subgroup: ``(Q, projection)`` with
    kernel(projection) = sub, read off the Smith form of sub's basis."""
    if sub.ambient != group:
        raise AmbientMismatchError("subgroup of a different group")
    q, proj, _ = fgab._presentation(sub.generators, gens=group.rank)
    return q, fgab.GroupHom(group, q, proj)


def quotient_preimage(f, sub):
    """``fgab.preimage_subgroup`` as the kernel of f followed by the
    Smith-form projection onto the codomain modulo ``sub``."""
    _, proj = quotient(f.codomain, sub)
    return solver_kernel(proj @ f)


def pointwise_image(f, sub):
    """``fgab.image_subgroup`` applying the hom one generator at a time."""
    return fgab.Subgroup(f.codomain, [f(row) for row in sub.generators])


def five_term_exact(inst):
    """Whether K0 --xn--> K0 --rho_n--> Kn --beta_n--> K1 --xn--> K1 is
    exact at K0, Kn and K1: kernel out equals image in at each, read
    off the composites rather than the row maps."""
    data, coeff = inst.data, inst.coeff
    maps = [kunneth._scaled(fgab.GroupHom.identity(data.K0), coeff.n),
            kunneth.reduction_hom(data, coeff),
            kunneth.full_beta(data, coeff),
            kunneth._scaled(fgab.GroupHom.identity(data.K1), coeff.n)]
    return all(fgab.kernel(out) == fgab.image(into)
               for into, out in zip(maps, maps[1:]))


def column_lattice(mat, rows, cols):
    """Canonical Hermite basis of the lattice spanned by the columns of
    an r x c matrix."""
    return intmat.hnf_nonzero(intmat.transpose(mat, cols), cols=rows)


def standard_dumps(doc):
    """``fileformat.dumps_canonical`` as the standard library writes it."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def all_covers_family(inst):
    """The splitting family as the builder made it before it glued from
    two lower covers: zero at the bottom, the solver's extension over a
    single lower cover, and the glue along the Gamma complex of all the
    lower covers at once.  For valid instances only."""
    kn, sigmas, done = inst.coeff.Kn, {}, set()
    while (x := inst.order.next_ideal(done)) is not None:
        covers = inst.order.maximal_subideals(x)
        g, incl, _ = inst.torsion_sub(x).as_group()
        if not covers:
            sigmas[x] = fgab.GroupHom.zero(g, kn)
        elif len(covers) == 1:
            sigmas[x] = splitter._extend_solver(inst, covers[0], x,
                                                sigmas[covers[0]])
        else:
            g0, _, proj = splitter.gamma0([inst.torsion_sub(c)
                                           for c in covers])
            images = []
            for gen in g.gens():
                w = fgab.hom_preimage(g0, incl(gen))
                total = kn.zero()
                for k, c in enumerate(covers):
                    total = kn.add(total, sigmas[c](proj[k](w)))
                images.append(total)
            sigmas[x] = fgab.GroupHom.from_images(g, kn, images)
        done.add(x)
    return splitter.SplittingFamily(sigmas)


def pairwise_coherence(inst, fam):
    """The ``coherence:lo<hi`` rows of ``verify_ideal_splitting`` as it
    wrote them before its top-section certificate: every comparable
    pair checked on its own, in the same order."""
    results = []
    run = kunneth.check_runner(results)
    ids = list(inst.order.nodes)
    for lo in ids:
        for hi in ids:
            if lo == hi or not inst.order.leq(lo, hi):
                continue

            def coherent(lo=lo, hi=hi):
                iota = splitter.restriction_hom(inst, lo, hi)
                if fam.sigma(hi) @ iota != fam.sigma(lo):
                    return ("sigma at %s restricted to K1(%s)[n] "
                            "differs from sigma at %s" % (hi, lo, lo))
                return None

            run("coherence:%s<%s" % (lo, hi), coherent)
    return results

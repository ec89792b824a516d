"""Instance generators and mutators.

The aligned (direct-sum) builder is the backbone: the coefficient group
is the tracked direct sum of the tensor and torsion parts, ideals are
coordinate subgroups, and every structural hypothesis holds by
construction.  Twisting conjugates the ideal data by an automorphism
fixing the reduction image, which preserves validity while moving the
subgroups off the coordinate axes, and so does transport.  Generators
are valid by construction; consumers run validate_instance.  The D_p
truncation realizes the shrinking-corridor mechanism at finite depth.
plant_defect mutates by generate-and-verify: candidates are enumerated
deterministically and the first one whose validation failures all
carry the requested check prefix is returned, so a planted defect is
certified, never assumed.
"""

import random
from math import gcd
from typing import NamedTuple

from .errors import DefectNotApplicableError, LatticeError
from .fgab import (FgGroup, GroupHom, Subgroup, direct_sum, image_subgroup,
                   induced_tensor_hom, induced_torsion_hom, n_torsion_group,
                   preimage_subgroup, tensor_zmod)
from .kunneth import (CoeffGroup, IdealNode, KData, KunnethInstance,
                      validate_instance)
from .lattice import IdealLattice


class SumModel(NamedTuple):
    """The tracked pieces of the aligned coefficient group."""
    Kn: FgGroup
    T: FgGroup
    pi: GroupHom
    T1: FgGroup
    incl: GroupHom
    i1: GroupHom
    i2: GroupHom
    p1: GroupHom
    p2: GroupHom


# random_instance's bounds on |Kn| and K0's free rank, and the
# coefficients n is drawn from unless the caller passes its own.  A
# chain, diamond or stem has at most five ideals.
MAX_ORDER = 4096
MAX_K0_RANK = 3
COEFFICIENTS = (2, 3, 4, 6, 8, 9, 12)


def sum_model(K0, K1, n):
    T, pi = tensor_zmod(K0, n)
    T1, incl = n_torsion_group(K1, n)
    kn, (i1, i2), (p1, p2) = direct_sum([T, T1])
    return SumModel(kn, T, pi, T1, incl, i1, i2, p1, p2)


def coordinate_subgroup(group, idxs):
    for i in idxs:
        if not 0 <= i < group.rank:
            raise ValueError("coordinate %d outside rank %d"
                             % (i, group.rank))
    return Subgroup(group, [[1 if j == i else 0 for j in range(group.rank)]
                            for i in idxs])


def _aligned_node(model, id, K0_sub, K1_sub):
    kn_sub = image_subgroup(model.i1, image_subgroup(model.pi, K0_sub)).join(
        image_subgroup(model.i2, preimage_subgroup(model.incl, K1_sub)))
    return IdealNode(id, K0_sub, K1_sub, kn_sub)


def _fresh_id(base, taken):
    if base not in taken:
        return base
    k = 0
    while "%s%d" % (base, k) in taken:
        k += 1
    return "%s%d" % (base, k)


def direct_sum_instance(K0, K1, n, spec):
    """Aligned instance over a lattice of coordinate subsets.

    ``spec`` maps ideal ids to pairs of index tuples into K0 and K1;
    the order is componentwise containment.  A trivial bottom and a
    full top are inserted when missing.  Over a torsion-free K0, distinct
    coordinate pairs closed under componentwise intersection and union
    (a ring of sets) certify the instance valid: the lattice is
    distributive, coordinate subgroups are pure summands, and the
    direct-sum row gives naturality and exactness.  Any other spec
    never validates.  A K0 with torsion fails ``k0-torsion-free``.
    Otherwise coordinate subgroups join by union and meet by
    intersection, and distinct index sets give distinct subgroups, so
    at a pair whose union or intersection is missing from the spec the
    lattice law fails.  Such a spec is validated only to word the
    LatticeError with the failing checks.
    """
    model = sum_model(K0, K1, n)
    coords = {}
    for id, (k0_idx, k1_idx) in spec.items():
        coords[id] = (frozenset(k0_idx), frozenset(k1_idx))
    full = (frozenset(range(K0.rank)), frozenset(range(K1.rank)))
    if (frozenset(), frozenset()) not in coords.values():
        coords[_fresh_id("bot", coords)] = (frozenset(), frozenset())
    if full not in coords.values():
        coords[_fresh_id("top", coords)] = full
    ids = sorted(coords)
    nodes = [_aligned_node(model, i,
                           coordinate_subgroup(K0, sorted(coords[i][0])),
                           coordinate_subgroup(K1, sorted(coords[i][1])))
             for i in ids]
    edges = [(a, b) for a in ids for b in ids
             if a != b and coords[a][0] <= coords[b][0]
             and coords[a][1] <= coords[b][1]]
    coeff = CoeffGroup(n, model.Kn, model.i1, model.p2)
    inst = KunnethInstance(KData(K0, K1), coeff, nodes,
                           IdealLattice(ids, edges))
    # IdealLattice rejects repeated pairs as a cycle, so they are distinct
    ring = set(coords.values())
    if K0.is_torsion_free() and all(
            (a0 & b0, a1 & b1) in ring and (a0 | b0, a1 | b1) in ring
            for a0, a1 in ring for b0, b1 in ring):
        return inst
    raise LatticeError(
        "spec does not describe a valid instance: %s"
        % ", ".join(r.name for r in validate_instance(inst).failures()))


def twist_instance(inst, h):
    """Conjugate the ideal data by theta = id + rho_tilde . h . beta_tilde.

    ``h`` is any hom from the torsion part to the tensor part.  theta
    fixes the reduction image pointwise and commutes with beta_tilde,
    so the twisted instance is valid whenever the input is.
    """
    rho, beta = inst.coeff.rho_tilde, inst.coeff.beta_tilde
    theta = GroupHom.identity(inst.coeff.Kn) + (rho @ h @ beta)
    nodes = [IdealNode(i, inst.node(i).K0_sub, inst.node(i).K1_sub,
                       image_subgroup(theta, inst.node(i).Kn_sub))
             for i in inst.order.nodes]
    return KunnethInstance(inst.data, inst.coeff, nodes, inst.order)


def _sum_shape(inst):
    """The instance's SumModel when Kn is literally the tracked direct
    sum with rho_tilde = i1 and beta_tilde = p2, else None."""
    model = sum_model(inst.data.K0, inst.data.K1, inst.coeff.n)
    if model.Kn == inst.coeff.Kn and inst.coeff.rho_tilde == model.i1 \
            and inst.coeff.beta_tilde == model.p2:
        return model
    return None


def transported_instance(inst, phi0, phi1, h=None):
    """Push an aligned instance forward along automorphisms of K0, K1.

    Returns ``(other, pairing)`` where pairing is the identity on ids
    and other carries phi0(K0(I)), phi1(K1(I)) and the matching twisted
    coefficient data, so lift_isomorphism(inst, other, phi0, phi1,
    pairing) has exactly its hypotheses satisfied.  Transport keeps a
    valid instance valid; the caller validates (lift_isomorphism does).
    """
    model = _sum_shape(inst)
    if model is None:
        raise LatticeError("instance is not in aligned direct-sum form")
    n = inst.coeff.n
    # theta moves the tensor block by phi0 (x) id and the torsion block
    # by the induced map on n-torsion
    theta = (model.i1 @ induced_tensor_hom(phi0, n) @ model.p1) + \
        (model.i2 @ induced_torsion_hom(phi1, n) @ model.p2)
    if h is not None:
        theta = (GroupHom.identity(inst.coeff.Kn)
                 + (inst.coeff.rho_tilde @ h @ inst.coeff.beta_tilde)) @ theta
    nodes = [IdealNode(i, image_subgroup(phi0, inst.node(i).K0_sub),
                       image_subgroup(phi1, inst.node(i).K1_sub),
                       image_subgroup(theta, inst.node(i).Kn_sub))
             for i in inst.order.nodes]
    other = KunnethInstance(inst.data, inst.coeff, nodes, inst.order)
    return other, {i: i for i in inst.order.nodes}


# --- the D_p truncation family ---------------------------------------------

def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def dp_truncation(p, m, k_max):
    """Finite shadow of the shrinking-corridor family.

    Coefficient coordinates are (a, b, c_{-m+1}, ..., c_{m-1}) over
    Z/p, with the boundary identifications c_m = a and c_{-m} = b left
    implicit.  beta_tilde reads a; the reduction image is everything
    with a = 0.  The ideal I_k zeroes c_i for |i| <= k, so splitting
    images are forced into an ever narrower corridor; at k_max = m the
    boundary conditions empty the corridor and validation rejects the
    instance with an ideal-exactness failure.
    """
    if not _is_prime(p):
        raise ValueError("p must be prime, got %r" % (p,))
    if m < 1 or not 0 <= k_max <= m:
        raise ValueError("need m >= 1 and 0 <= k_max <= m")
    K0 = FgGroup((), 2 * m)
    K1 = FgGroup((p,))
    T, _ = tensor_zmod(K0, p)
    T1, _ = n_torsion_group(K1, p)
    rank = 2 * m + 1
    Kn = FgGroup((p,) * rank)
    rho = GroupHom(T, Kn, [[0] * (2 * m)]
                   + [[1 if j == i else 0 for j in range(2 * m)]
                      for i in range(2 * m)])
    beta = GroupHom(Kn, T1, [[1] + [0] * (2 * m)])
    coeff = CoeffGroup(p, Kn, rho, beta)
    nodes = [IdealNode("bot", Subgroup.zero(K0), Subgroup.zero(K1),
                       Subgroup.zero(Kn)),
             IdealNode("top", Subgroup.full(K0), Subgroup.full(K1),
                       Subgroup.full(Kn))]
    ids = ["bot", "top"]
    for k in range(k_max + 1):
        if k < m:
            # K0 coords: b, then c_j at j + m; Kn coords: a, b, c_j at
            # j + m + 1; the corridor keeps b and the far tails
            k0_idx = [0] + [j + m for j in range(-m + 1, m) if abs(j) > k]
            kn_idx = [0, 1] + [j + m + 1 for j in range(-m + 1, m)
                               if abs(j) > k]
        else:
            k0_idx, kn_idx = [], []
        name = "I%d" % k
        ids.append(name)
        nodes.append(IdealNode(name, coordinate_subgroup(K0, k0_idx),
                               Subgroup.full(K1),
                               coordinate_subgroup(Kn, kn_idx)))
    edges = [("bot", "I%d" % k_max), ("I0", "top")]
    edges += [("I%d" % k, "I%d" % (k - 1)) for k in range(k_max, 0, -1)]
    return KunnethInstance(KData(K0, K1), coeff, nodes,
                           IdealLattice(ids, edges))


# --- randomized generation --------------------------------------------------

_TORSION_MENU = ((), (2,), (3,), (4,), (2, 2), (2, 4), (3, 3), (9,),
                 (2, 6), (6,), (12,), (2, 2, 2))


def random_hom(domain, codomain, rng):
    """Uniform-ish random hom, entrywise over the valid residues."""
    rows = []
    for i in range(codomain.rank):
        e = codomain.orders[i]
        row = []
        for j in range(domain.rank):
            d = domain.orders[j]
            if d == 0:
                row.append(rng.randrange(e) if e else rng.randint(-2, 2))
            elif e == 0:
                row.append(0)
            else:
                step = e // gcd(e, d)
                row.append(step * rng.randrange(gcd(e, d)))
        rows.append(row)
    return GroupHom(domain, codomain, rows)


def random_automorphism(group, rng):
    """Product of up to four valid elementary shears and equal-order
    swaps."""
    aut = GroupHom.identity(group)
    orders = group.orders
    r = group.rank
    for _ in range(4):
        if r < 2:
            break
        i, j = rng.sample(range(r), 2)
        if rng.random() < 0.5 and orders[i] == orders[j]:
            rows = [[1 if (k, l) in ((i, j), (j, i)) or
                     (k == l and k not in (i, j)) else 0
                     for l in range(r)] for k in range(r)]
            aut = GroupHom(group, group, rows) @ aut
        else:
            # add c * gen_i to the image of gen_j
            e, d = orders[i], orders[j]
            if d == 0:
                c = rng.randrange(e) if e else rng.choice((-1, 1))
            elif e == 0:
                continue
            else:
                step = e // gcd(e, d)
                c = step * rng.randrange(gcd(e, d))
            if c == 0:
                continue
            rows = [[1 if k == l else (c if (k, l) == (i, j) else 0)
                     for l in range(r)] for k in range(r)]
            aut = GroupHom(group, group, rows) @ aut
    assert aut.is_iso()
    return aut


def _kn_size(K0, K1, n):
    # free K1 coordinates carry no n-torsion, so only the finite
    # factors enter
    size = n ** K0.rank
    for d in K1.invariant_factors:
        size *= gcd(d, n)
    return size


def _random_spec(rng, K0, K1):
    idx0 = list(range(K0.rank))
    idx1 = list(range(K1.rank))
    total = len(idx0) + len(idx1)
    shapes = ["chain"]
    if total >= 2:
        shapes.append("diamond")
    if total >= 3:
        shapes.append("stem")
    shape = rng.choice(shapes)
    pool = [("0", i) for i in idx0] + [("1", i) for i in idx1]
    rng.shuffle(pool)
    if shape == "chain":
        steps = rng.randint(0, min(2, len(pool)))
        spec = {}
        taken0, taken1 = set(), set()
        cut = 0
        for s in range(steps):
            cut += rng.randint(1, max(1, (len(pool) - cut) // (steps - s)))
            for kind, i in pool[:cut]:
                (taken0 if kind == "0" else taken1).add(i)
            spec["m%d" % s] = (tuple(sorted(taken0)), tuple(sorted(taken1)))
        return spec
    if shape == "diamond":
        cut = rng.randint(1, len(pool) - 1)
        half_a, half_b = pool[:cut], pool[cut:]
    else:
        m_cut = rng.randint(1, len(pool) - 2)
        rest = pool[m_cut:]
        cut = rng.randint(1, len(rest) - 1)
        stem = pool[:m_cut]
        half_a, half_b = stem + rest[:cut], stem + rest[cut:]
    def coords(sel):
        return (tuple(sorted(i for kind, i in sel if kind == "0")),
                tuple(sorted(i for kind, i in sel if kind == "1")))
    spec = {"a": coords(half_a), "b": coords(half_b)}
    if shape == "stem":
        spec["m"] = coords(stem)
    return spec


def random_instance(seed, coefficients=COEFFICIENTS, twist=True):
    """Seeded valid instance: aligned skeleton plus a random twist.

    n is drawn from ``coefficients``.  ``twist=False`` keeps the
    instance on its coordinate axes, which is what the aligned corpus
    and the defect mutators start from.  The skeleton's chain, diamond
    or stem is a ring of sets and the twist preserves validity, so the
    instance is valid by construction; the caller validates it.
    """
    rng = random.Random(seed)
    for _ in range(64):
        n = rng.choice(list(coefficients))
        K0 = FgGroup((), rng.randint(0, MAX_K0_RANK))
        K1 = FgGroup(rng.choice(_TORSION_MENU), rng.randint(0, 1))
        if _kn_size(K0, K1, n) > MAX_ORDER:
            continue
        inst = direct_sum_instance(K0, K1, n, _random_spec(rng, K0, K1))
        if twist:
            T, _ = inst.tensor()
            T1, _ = inst.torsion()
            inst = twist_instance(inst, random_hom(T1, T, rng))
        return inst
    raise LatticeError("no instance found within the attempt budget")


# --- defect planting ---------------------------------------------------------

def _mid_ideals(inst):
    ends = (inst.order.bottom(), inst.order.top())
    return [i for i in inst.order.nodes if i not in ends]


def _nonzero_gens(sub):
    out = []
    for g in sub.generators:
        v = sub.ambient.reduce(g)
        if any(v):
            out.append(tuple(v))
    return out


def _candidates_exactness(inst, model):
    T, _ = inst.tensor()
    rho = inst.coeff.rho_tilde
    for id in _mid_ideals(inst):
        node = inst.node(id)
        yield inst.with_replaced_node(
            IdealNode(id, node.K0_sub, node.K1_sub, inst.rho_image(id)))
        tsub = inst.tensor_sub(id)
        for t in T.gens():
            if not tsub.contains(t):
                extra = Subgroup(inst.coeff.Kn, [list(rho(t))])
                yield inst.with_replaced_node(
                    IdealNode(id, node.K0_sub, node.K1_sub,
                              node.Kn_sub.join(extra)))


def _candidates_naturality(inst, model):
    if model is None:
        return
    T1, _ = inst.torsion()
    for id in _mid_ideals(inst):
        node = inst.node(id)
        tor = inst.torsion_sub(id)
        for x in T1.gens():
            if not tor.contains(x):
                extra = Subgroup(inst.coeff.Kn, [list(model.i2(x))])
                yield inst.with_replaced_node(
                    IdealNode(id, node.K0_sub, node.K1_sub,
                              node.Kn_sub.join(extra)))


def _scaled_gens(gens, at, q):
    return [[q * x for x in g] if k == at else list(g)
            for k, g in enumerate(gens)]


def _candidates_purity(inst, model):
    # purity defects live on the torsion side: scaling a K1 generator
    # by q with q^2 | order lands strictly inside a cyclic layer, so a
    # torsion-free K1 admits no candidate at all
    if model is None:
        return
    K1 = inst.data.K1
    for id in _mid_ideals(inst):
        node = inst.node(id)
        k1gens = _nonzero_gens(node.K1_sub)
        for at in range(len(k1gens)):
            d = K1.element_order(k1gens[at])
            if d == 0:
                continue
            for q in (q for q in (2, 3, 5, 7) if d % (q * q) == 0):
                sub = Subgroup(K1, _scaled_gens(k1gens, at, q))
                yield inst.with_replaced_node(
                    _aligned_node(model, id, node.K0_sub, sub))


def _incomparable_pairs(inst):
    ids = list(inst.order.nodes)
    for x in range(len(ids)):
        for y in range(x + 1, len(ids)):
            if not inst.order.comparable(ids[x], ids[y]):
                yield ids[x], ids[y]


def _candidates_lattice_law(inst, model):
    if model is None:
        return
    K1 = inst.data.K1
    for i, j in _incomparable_pairs(inst):
        for src, dst in ((i, j), (j, i)):
            bigger = inst.node(dst).K1_sub.join(inst.node(src).K1_sub)
            if bigger != inst.node(dst).K1_sub:
                yield inst.with_replaced_node(
                    _aligned_node(model, dst, inst.node(dst).K0_sub,
                                  bigger))
        m = inst.order.meet(i, j)
        if m is not None and not inst.node(m).K1_sub.is_zero():
            yield inst.with_replaced_node(
                _aligned_node(model, m, inst.node(m).K0_sub,
                              Subgroup.zero(K1)))


def _diagonal(sub_i, sub_j, sub_m, ambient):
    """sub_m joined with sums of equal-order generators from the two
    sides, None when nothing pairs up."""
    gens_i = [g for g in _nonzero_gens(sub_i) if not sub_m.contains(g)]
    gens_j = [g for g in _nonzero_gens(sub_j) if not sub_m.contains(g)]
    used = set()
    sums = []
    for g in gens_i:
        for k, h in enumerate(gens_j):
            if k in used:
                continue
            if ambient.element_order(g) == ambient.element_order(h):
                sums.append([x + y for x, y in zip(g, h)])
                used.add(k)
                break
    if not sums:
        return None
    return sub_m.join(Subgroup(ambient, sums))


def _candidates_distributivity(inst, model):
    if model is None:
        return
    for i, j in _incomparable_pairs(inst):
        # the base validated, so it is a lattice: m and u exist
        m, u = inst.order.meet(i, j), inst.order.join(i, j)
        nm = inst.node(m)
        d0 = _diagonal(inst.node(i).K0_sub, inst.node(j).K0_sub,
                       nm.K0_sub, inst.data.K0)
        d1 = _diagonal(inst.node(i).K1_sub, inst.node(j).K1_sub,
                       nm.K1_sub, inst.data.K1)
        if d0 is None and d1 is None:
            continue
        name = _fresh_id("d", set(inst.order.nodes))
        node = _aligned_node(model, name,
                             d0 if d0 is not None else nm.K0_sub,
                             d1 if d1 is not None else nm.K1_sub)
        yield inst.with_added_node(node, below=[m], above=[u])


# each defect kind: the check-name prefix its mutant must fail alone,
# and the candidate mutations tried in order
_DEFECTS = {
    "break-exactness": ("ideal-exactness", _candidates_exactness),
    "break-purity": ("purity", _candidates_purity),
    "break-lattice-law": ("lattice-laws", _candidates_lattice_law),
    "break-naturality": ("naturality", _candidates_naturality),
    "break-distributivity": ("lattice-distributive",
                             _candidates_distributivity),
}
DEFECT_KINDS = tuple(_DEFECTS)


def plant_defect(inst, kind):
    """First deterministic mutation that fails exactly the named check
    family; DefectNotApplicableError when no candidate verifies."""
    if kind not in _DEFECTS:
        raise ValueError("unknown defect kind %r" % (kind,))
    base = validate_instance(inst)
    if not base.ok:
        raise DefectNotApplicableError("instance is already invalid")
    prefix, candidates = _DEFECTS[kind]
    model = _sum_shape(inst)
    for cand in candidates(inst, model):
        failures = validate_instance(cand).failures()
        if failures and all(r.name.startswith(prefix) for r in failures):
            return cand
    raise DefectNotApplicableError("no %s mutation applies here" % (kind,))

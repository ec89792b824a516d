"""Instance validation and coefficient-coherence tests.

The aligned helper below hand-builds direct-sum models in which every
hypothesis is true by construction, so "all checks pass" is the
expectation, and single planted defects must flip exactly the named
checks.  Multi-coefficient kappa/lambda matrices are derived here from
the explicit ambient formulas (multiply by m/n upward on the tensor
part, reduce downward; include upward on the torsion part, multiply by
n/m downward) and double-checked through ambient inclusions, keeping
the expectations independent of the module under test.
"""

import collections
import functools
import random
from fractions import Fraction
from math import gcd

import pytest

from idealsplit import fixtures, intmat, kunneth, splitter
from idealsplit.errors import (AmbientMismatchError,
                               DefectNotApplicableError, HomDefinitionError,
                               IdealSplitError, LatticeError,
                               MissingMapError, MissingSigmaError)
from idealsplit.fgab import (FgGroup, GroupHom, Subgroup, direct_sum,
                             image_subgroup, kernel, n_torsion_group,
                             preimage_subgroup, tensor_zmod)
from idealsplit.fileformat import (dumps_canonical, instance_from_json,
                                   instance_to_json, loads)
from idealsplit.fixtures import dp_truncation, random_instance
from idealsplit.kunneth import (CoeffGroup, CoherentFamily, IdealNode, KData,
                                KunnethInstance, ValidationReport,
                                check_coherence, check_family_coherence,
                                reduction_hom, validate_instance)
from idealsplit.lattice import IdealLattice

from oracles import five_term_exact, scan_sub_eq
from test_fgab import miyata_smith_forms, random_group, random_subgroup
from test_lattice import n5

Z = FgGroup((), 1)
Z2 = FgGroup((), 2)

Parts = collections.namedtuple("Parts", "T pi T1 incl i1 i2 p1 p2")


def model_parts(K0, K1, n):
    T, pi = tensor_zmod(K0, n)
    T1, incl = n_torsion_group(K1, n)
    Kn, (i1, i2), (p1, p2) = direct_sum([T, T1])
    return Kn, Parts(T, pi, T1, incl, i1, i2, p1, p2)


def basis_sub(group, idxs):
    return Subgroup(group, [[1 if j == i else 0 for j in range(group.rank)]
                            for i in idxs])


def aligned_node(id, K0s, K1s, parts):
    kns = image_subgroup(parts.i1, image_subgroup(parts.pi, K0s)).join(
        image_subgroup(parts.i2, preimage_subgroup(parts.incl, K1s)))
    return IdealNode(id, K0s, K1s, kns)


def aligned(K0, K1, n, coords):
    """Direct-sum instance with coordinate ideals.

    coords: id -> (K0 index tuple, K1 index tuple); order is componentwise
    containment of the index sets.
    """
    Kn, parts = model_parts(K0, K1, n)
    coeff = CoeffGroup(n, Kn, parts.i1, parts.p2)
    ids = sorted(coords)
    nodes = [aligned_node(i, basis_sub(K0, coords[i][0]),
                          basis_sub(K1, coords[i][1]), parts) for i in ids]
    edges = []
    for a in ids:
        for b in ids:
            if a != b and set(coords[a][0]) <= set(coords[b][0]) \
                    and set(coords[a][1]) <= set(coords[b][1]):
                edges.append((a, b))
    inst = KunnethInstance(KData(K0, K1), coeff, nodes,
                           IdealLattice(ids, edges))
    return inst, parts


DIAMOND = {"bot": ((), ()), "a": ((0,), (0,)),
           "b": ((1,), (1,)), "top": ((0, 1), (0, 1))}


def diamond_instance():
    return aligned(Z2, FgGroup((2, 4)), 2, DIAMOND)


def boolean_instance(k):
    """Every coordinate subset of range(k) as an ideal, in K0 = Z^k and
    K1 = (Z/2)^k at once: the Boolean lattice 2^k."""
    spec = {}
    for mask in range(1, 2 ** k - 1):
        idx = tuple(i for i in range(k) if mask >> i & 1)
        spec["s%d" % mask] = (idx, idx)
    return fixtures.direct_sum_instance(FgGroup((), k), FgGroup((2,) * k),
                                        2, spec)


def m3_instance():
    """A diagonal third ideal in a Klein-style instance: every subgroup
    law holds and the lattice is bounded, but it is M3."""
    coords = {"bot": ((), ()), "a": ((0,), (0,)),
              "b": ((1,), (1,)), "top": ((0, 1), (0, 1))}
    inst, parts = aligned(Z2, FgGroup((2, 2)), 2, coords)
    diag = aligned_node("d0", Subgroup(Z2, [[1, 1]]),
                        Subgroup(FgGroup((2, 2)), [[1, 1]]), parts)
    return inst, inst.with_added_node(diag, below=["bot"], above=["top"])


def n5_instance():
    """N5 over trivial groups."""
    triv = FgGroup()
    zero = GroupHom.zero(triv, triv)
    order = n5()
    nodes = [IdealNode(i, Subgroup.zero(triv), Subgroup.zero(triv),
                       Subgroup.zero(triv)) for i in order.nodes]
    return KunnethInstance(KData(triv, triv), CoeffGroup(2, triv, zero, zero),
                           nodes, order)


def no_top_instance():
    """Two maximal ideals over one bottom: no top, so no join of a and
    b."""
    coords = {"bot": ((), ()), "a": ((0,), (0,)), "b": ((1,), (1,))}
    return aligned(Z2, FgGroup((2, 4)), 2, coords)[0]


EXPECTED_DIAMOND_CHECKS = (
    ["hom-validity:rho_tilde", "hom-validity:beta_tilde", "k0-torsion-free",
     "sequence-exact:rho-injective", "sequence-exact:kernel-image",
     "sequence-exact:beta-surjective", "bottom-trivial", "top-full"]
    + ["purity:%s:%s" % (g, i) for i in ["a", "b", "bot", "top"]
       for g in ["K0", "K1"]]
    + ["naturality:%s:%s" % (m, i) for i in ["a", "b", "bot", "top"]
       for m in ["rho", "beta"]]
    + ["ideal-exactness:%s:%s" % (k, i) for i in ["a", "b", "bot", "top"]
       for k in ["middle", "surjective"]]
    + ["monotonicity:a<top", "monotonicity:b<top",
       "monotonicity:bot<a", "monotonicity:bot<b"]
    + ["lattice-laws:%s:%s" % (k, p)
       for p in ["a,b", "a,bot", "a,top", "b,bot", "b,top", "bot,top"]
       for k in ["meet", "join"]]
    + ["lattice-shape", "lattice-distributive", "lattice-injective"])


def test_report_names_are_fixed_and_ordered():
    inst, _ = diamond_instance()
    report = validate_instance(inst)
    assert report.names() == EXPECTED_DIAMOND_CHECKS
    assert len(report) == 51


def test_direct_sum_instance_passes_every_check():
    inst, _ = diamond_instance()
    report = validate_instance(inst)
    assert report.ok
    assert report.failures() == []
    # deterministic: identical instance gives an identical report, and
    # the two share their check names
    again, _ = diamond_instance()
    assert validate_instance(again).results == report.results
    assert all(a.name is b.name
               for a, b in zip(validate_instance(again), report))


def test_reports_of_two_parsed_copies_share_every_check_name():
    # each parse builds its own id strings, and so its own names; the
    # runner interns them, so reports a run keeps hold one string per
    # check name rather than one per report
    text = dumps_canonical(instance_to_json(random_instance(5)))
    first, second = (validate_instance(instance_from_json(loads(text))[0])
                     for _ in range(2))
    assert first.names() == second.names()
    assert all(a is b for a, b in zip(first.names(), second.names()))


def test_k0_torsion_fails_exactly_one_check():
    inst, _ = aligned(FgGroup((2,), 1), FgGroup((2, 4)), 2, DIAMOND)
    report = validate_instance(inst)
    bad = report.failures()
    assert [r.name for r in bad] == ["k0-torsion-free"]
    assert bad[0].witness is not None


def test_zero_beta_fails_sequence_checks():
    inst, parts = diamond_instance()
    coeff = inst.coeff
    broken = CoeffGroup(2, coeff.Kn, coeff.rho_tilde,
                        GroupHom.zero(coeff.Kn, parts.T1))
    mutant = KunnethInstance(inst.data, broken,
                             list(inst.ideals.values()), inst.order)
    report = validate_instance(mutant)
    assert not report.ok
    assert report.find("sequence-exact:rho-injective").passed
    assert not report.find("sequence-exact:kernel-image").passed
    assert not report.find("sequence-exact:beta-surjective").passed
    for r in report.failures():
        assert r.witness is not None


def test_shrunk_top_breaks_monotonicity_and_top():
    inst, parts = diamond_instance()
    top = inst.node("top")
    shrunk = IdealNode("top", top.K0_sub, basis_sub(FgGroup((2, 4)), (0,)),
                       top.Kn_sub)
    report = validate_instance(inst.with_replaced_node(shrunk))
    assert not report.find("top-full").passed
    assert not report.find("monotonicity:b<top").passed
    assert report.find("monotonicity:a<top").passed
    assert report.find("monotonicity:bot<a").passed


def test_lattice_law_defect_fails_exactly_the_pair_laws():
    # both middle ideals carry the same K1 coordinate: the node at the
    # lattice meet (bottom) is strictly smaller than the subgroup meet
    coords = {"bot": ((), ()), "a": ((0,), (0,)),
              "b": ((1,), (0,)), "top": ((0, 1), (0, 1))}
    inst, _ = aligned(Z2, FgGroup((2, 4)), 2, coords)
    report = validate_instance(inst)
    bad = sorted(r.name for r in report.failures())
    assert bad == ["lattice-laws:join:a,b", "lattice-laws:meet:a,b"]
    meet_fail = report.find("lattice-laws:meet:a,b")
    assert "only on the right" in meet_fail.witness


def test_m3_insertion_fails_only_distributivity():
    inst, mutant = m3_instance()
    assert validate_instance(inst).ok
    report = validate_instance(mutant)
    bad = [r.name for r in report.failures()]
    assert bad == ["lattice-distributive"]
    assert report.find("lattice-distributive").witness is not None


def test_failure_witnesses_are_pinned():
    # N5: b2 ^ (a v b1) = b2 ^ 1 = b2, while (b2 ^ a) v (b2 ^ b1) =
    # 0 v b1 = b1; no earlier triple fails
    inst = n5_instance()
    assert validate_instance(inst).find("lattice-distributive").witness \
        == "b2 ^ (a v b1) = b2 but (^v^) gives b1"
    # rho_tilde sending both tensor coordinates to one: kernel <(1, 1)>
    inst, _ = diamond_instance()
    coeff = inst.coeff
    rho = GroupHom(coeff.rho_tilde.domain, coeff.Kn,
                   [[1, 1], [0, 0], [0, 0], [0, 0]])
    mutant = KunnethInstance(inst.data,
                             CoeffGroup(2, coeff.Kn, rho, coeff.beta_tilde),
                             list(inst.ideals.values()), inst.order)
    assert validate_instance(mutant).find(
        "sequence-exact:rho-injective").witness == "kernel contains (1, 1)"


def test_non_lattice_witnesses_are_pinned():
    failures = {r.name: r.witness
                for r in validate_instance(no_top_instance()).failures()}
    assert failures == {
        "top-full": "lattice has no top",
        "lattice-laws:join:a,b": "lattice join of a, b undefined",
        "lattice-shape": "not a bounded lattice (missing bound or meet/join)",
        "lattice-distributive": "not even a bounded lattice",
    }


def planted_defects(inst):
    """{kind: instance} for every defect kind that plants on inst."""
    out = {}
    for kind in fixtures.DEFECT_KINDS:
        try:
            out[kind] = fixtures.plant_defect(inst, kind)
        except DefectNotApplicableError:
            pass
    return out


@functools.cache
def random_with_defects(seed):
    """random_instance(seed) and its planted defects, made once for the
    tests that sweep seeds 0-59: planting them all takes about a
    second."""
    inst = random_instance(seed)
    return inst, planted_defects(inst)


def law_certificate_cases():
    """(name, instance): random_instance seeds 0-59, dp m = 4 and 8,
    Boolean k = 3-5, every planted defect that applies to the random
    seeds and to 2^3, and the non-lattice, non-distributive and
    non-monotone instances pinned above."""
    cases = []
    bases = [("seed %d" % s,) + random_with_defects(s) for s in range(60)]
    cube = boolean_instance(3)
    bases.append(("2^3", cube, planted_defects(cube)))
    for name, inst, defects in bases:
        cases.append((name, inst))
        cases += [("%s %s" % (name, kind), bad)
                  for kind, bad in defects.items()]
    cases += [("dp %d" % m, dp_truncation(2, m, m - 1)) for m in (4, 8)]
    cases += [("2^%d" % k, boolean_instance(k)) for k in (4, 5)]
    diamond, _ = diamond_instance()
    top = diamond.node("top")
    shrunk = IdealNode("top", top.K0_sub, basis_sub(FgGroup((2, 4)), (0,)),
                       top.Kn_sub)
    cases += [("no top", no_top_instance()), ("N5", n5_instance()),
              ("M3", m3_instance()[1]),
              ("shrunk top", diamond.with_replaced_node(shrunk))]
    return cases


def test_law_certificate_agrees_with_the_pairwise_laws(monkeypatch):
    # where the cover-edge certificate applies (monotone, bounded and
    # distributive) it fails exactly when some pairwise law does; where
    # it does not apply it is not run; and either way the report equals
    # the pairwise path's: same names, order, verdicts and witnesses
    certify = kunneth._laws_certified
    verdicts = []

    def spied(inst, edges):
        verdicts.append(certify(inst, edges))
        return verdicts[-1]

    seen = collections.Counter()
    fallback = set()
    cases = law_certificate_cases()
    for name, inst in cases:
        verdicts.clear()
        monkeypatch.setattr(kunneth, "_laws_certified", spied)
        report = validate_instance(inst)
        monkeypatch.setattr(kunneth, "_laws_certified", lambda *args: False)
        pairwise = validate_instance(inst)
        assert report.results == pairwise.results, name
        applies = pairwise.find("lattice-distributive").passed and all(
            r.passed for r in pairwise if r.name.startswith("monotonicity:"))
        laws = all(r.passed for r in pairwise
                   if r.name.startswith("lattice-laws:"))
        if applies:
            assert verdicts == [laws], name
            seen["certified" if laws else "refuted"] += 1
        else:
            assert verdicts == [], name
            fallback.add(name)
    assert seen["certified"] >= 60 and seen["refuted"] >= 5, seen
    assert {"no top", "N5", "M3", "shrunk top"} <= fallback
    assert {name for name, _ in cases
            if name.endswith("break-distributivity")} <= fallback


def test_chain_laws_take_no_meet_or_join_off_the_covers(monkeypatch):
    # counts, not timing: a chain has no node with two covers, so the
    # certificate settles its laws without one subgroup meet or join of
    # two ideals' subgroups that are not a cover pair; the pairwise
    # path, forced, takes one per pair and component
    inst = dp_truncation(2, 8, 7)
    owner = collections.defaultdict(set)
    for i, node in inst.ideals.items():
        for sub in (node.K0_sub, node.K1_sub, node.Kn_sub):
            owner[id(sub)].add(i)
    covers = set(inst.order.cover_edges())
    calls = []

    def counted(op):
        def call(self, other):
            if id(self) in owner and id(other) in owner:
                calls.append((owner[id(self)], owner[id(other)]))
            return op(self, other)
        return call

    def off_covers():
        return [(a, b) for a, b in calls
                if not any((x, y) in covers or (y, x) in covers
                           for x in a for y in b)]

    monkeypatch.setattr(Subgroup, "meet", counted(Subgroup.meet))
    monkeypatch.setattr(Subgroup, "join", counted(Subgroup.join))
    assert validate_instance(inst).ok
    assert off_covers() == []
    calls.clear()
    monkeypatch.setattr(kunneth, "_laws_certified", lambda *args: False)
    assert validate_instance(inst).ok
    pairs = len(inst.ideals) * (len(inst.ideals) - 1) // 2
    assert len(off_covers()) == 2 * 3 * (pairs - len(covers))


def test_law_certificate_takes_one_operation_per_node_and_component(
        monkeypatch):
    # counts, not timing: on a valid 2^4 the certificate joins the first
    # two lower covers of each node with two or more of them, and meets
    # the first two upper covers of each node with two or more, once in
    # each of K0, K1 and Kn
    inst = boolean_instance(4)
    edges = inst.order.cover_edges()
    lower = collections.Counter(hi for _, hi in edges)
    upper = collections.Counter(lo for lo, _ in edges)
    calls = collections.Counter()

    def counted(op):
        def call(self, other):
            calls[op.__name__] += 1
            return op(self, other)
        return call

    monkeypatch.setattr(Subgroup, "meet", counted(Subgroup.meet))
    monkeypatch.setattr(Subgroup, "join", counted(Subgroup.join))
    assert kunneth._laws_certified(inst, edges)
    joins = 3 * sum(1 for c in lower.values() if c >= 2)
    meets = 3 * sum(1 for c in upper.values() if c >= 2)
    assert (joins, meets) == (33, 33)
    assert calls == {"join": joins, "meet": meets}


def test_sub_eq_matches_scan_oracle():
    # _gap words each side's witness like the oracle does
    def left(g):
        return "pair: element %r only on the left" % (g,)

    def right(g):
        return "pair: element %r only on the right" % (g,)

    rng = random.Random(0x5EB1)
    seen = collections.Counter()
    for _ in range(240):
        g = random_group(rng, max_factors=2, max_free=2)
        h = random_subgroup(rng, g)
        kind = rng.randrange(4)
        if kind == 0:
            # the same subgroup from another generating set
            gens = [list(r) for r in h.generators]
            for _ in range(3 if len(gens) > 1 else 0):
                i, j = rng.sample(range(len(gens)), 2)
                q = rng.randint(-3, 3)
                gens[i] = [a + q * b for a, b in zip(gens[i], gens[j])]
            rng.shuffle(gens)
            k = Subgroup(g, gens)
        elif kind == 1:
            k = h.join(random_subgroup(rng, g))
        elif kind == 2:
            k = random_subgroup(rng, g)
        else:
            # same rank, other ambient: a free group of that rank, on
            # h's own generators (equal tuples) or on random ones
            free = FgGroup((), g.rank)
            k = Subgroup(free, h.generators if rng.random() < 0.5
                         else random_subgroup(rng, free).generators)
        for a, b in ((h, k), (k, h)):
            got = kunneth._gap(a, b, left, right)
            assert got == scan_sub_eq(a, b, "pair")
            # containment only: the left witness, or None
            assert kunneth._gap(a, b, left) == (
                got if got is not None and got.endswith("left") else None)
            if got is None:
                seen["equal" if a == b else "other ambient"] += 1
            else:
                seen[got.rpartition(" ")[2]] += 1
    assert set(seen) == {"equal", "other ambient", "left", "right"}, seen
    assert sum(seen.values()) >= 200


def test_valid_instances_never_scan_for_witnesses(monkeypatch):
    # every equality holds on a valid instance and equal canonical
    # subgroups compare equal, so a membership scan inside an equality
    # _gap (one given only_b) is wasted work; so is a transform built
    # for hnf_nonzero
    seen = collections.Counter()
    depth = [0]
    gap, contains = kunneth._gap, Subgroup.contains
    hnf_nonzero, hnf_rows = intmat.hnf_nonzero, intmat.hnf_rows

    def counted_gap(a, b, only_a, only_b=None):
        equality = only_b is not None
        seen["equalities"] += equality
        depth[0] += equality
        try:
            return gap(a, b, only_a, only_b)
        finally:
            depth[0] -= equality

    def counted_contains(self, vec):
        seen["scans inside an equality"] += depth[0] > 0
        return contains(self, vec)

    def counted_hnf_nonzero(*args, **kwargs):
        seen["hnf_nonzero"] += 1
        return hnf_nonzero(*args, **kwargs)

    def counted_hnf_rows(*args, transform=True, **kwargs):
        seen["hnf_rows without transform"] += not transform
        return hnf_rows(*args, transform=transform, **kwargs)

    monkeypatch.setattr(kunneth, "_gap", counted_gap)
    monkeypatch.setattr(Subgroup, "contains", counted_contains)
    monkeypatch.setattr(intmat, "hnf_nonzero", counted_hnf_nonzero)
    monkeypatch.setattr(intmat, "hnf_rows", counted_hnf_rows)
    for inst in [dp_truncation(2, 8, 7)] + [random_instance(s)
                                            for s in range(4)]:
        assert validate_instance(inst).failures() == []
    assert seen["equalities"] > 0
    assert seen["scans inside an equality"] == 0
    assert seen["hnf_rows without transform"] == seen["hnf_nonzero"] > 0


def test_validation_purity_makes_no_smith_form(monkeypatch):
    # each purity check of these valid instances, twisted or not, is
    # settled by the pivot certificate: Miyata's test never runs
    hits = miyata_smith_forms(monkeypatch)
    cube = boolean_instance(4)
    T, _ = cube.tensor()
    T1, _ = cube.torsion()
    twisted = fixtures.twist_instance(
        cube, fixtures.random_hom(T1, T, random.Random(400)))
    insts = [random_instance(s) for s in range(10)]
    for inst in insts + [dp_truncation(2, 8, 7), twisted]:
        assert validate_instance(inst).ok
    assert hits == []


def test_planted_purity_defect_fails_through_miyata(monkeypatch):
    # a scaled torsion generator leaves a pivot that is neither 1 nor
    # the order, so the verdict and its witness come from Miyata's test
    hits = miyata_smith_forms(monkeypatch)
    mutant = fixtures.plant_defect(random_instance(12, twist=False),
                                   "break-purity")
    failures = validate_instance(mutant).failures()
    assert [(r.name, r.witness) for r in failures] == [
        ("purity:K1:m0", "K1(m0) is not a pure subgroup")]
    assert hits


def middle_by_orders_spy(monkeypatch):
    """Record each verdict of the order test behind the
    ``ideal-exactness:middle`` checks: True settles the check, False
    sends it on to the meet."""
    verdicts = []
    by_orders = kunneth._middle_by_orders

    def spied(inst, i):
        verdicts.append(by_orders(inst, i))
        return verdicts[-1]
    monkeypatch.setattr(kunneth, "_middle_by_orders", spied)
    return verdicts


def meet_middle(inst, i):
    """ideal-exactness:middle:i decided by the meet alone: ker beta_tilde
    meet Kn(i) against the image of the tensor subgroup, scanned both
    ways, with a library error as its witness."""
    try:
        return scan_sub_eq(
            inst.kernel_beta().meet(inst.node(i).Kn_sub),
            image_subgroup(inst.coeff.rho_tilde, inst.tensor_sub(i)),
            "ker beta_tilde in Kn(%s)" % i)
    except IdealSplitError as exc:
        return "%s: %s" % (type(exc).__name__, exc)


def grown_kn(inst):
    """inst with Kn(I) joined with rho_tilde(t), for the first ideal I
    other than the bounds and the first generator t of K0 (x) Z/n
    outside I's tensor subgroup; None when there is none.  Naturality
    still holds at I, and the middle exactness fails there.  Planted
    without validate_instance, so a wrong order test cannot steer it."""
    T, _ = inst.tensor()
    ends = (inst.order.bottom(), inst.order.top())
    for i in (i for i in inst.order.nodes if i not in ends):
        node = inst.node(i)
        for t in T.gens():
            if not inst.tensor_sub(i).contains(t):
                extra = Subgroup(inst.coeff.Kn,
                                 [list(inst.coeff.rho_tilde(t))])
                return inst.with_replaced_node(IdealNode(
                    i, node.K0_sub, node.K1_sub, node.Kn_sub.join(extra)))
    return None


def middle_cases():
    """Seeds 0-59, twisted and aligned, with their exactness and
    naturality defects and their grown_kn, and the twisted seeds'
    row_variants; dp m = 4 and 8 and Boolean 2^3."""
    cases = [dp_truncation(2, m, m - 1) for m in (4, 8)]
    cases.append(boolean_instance(3))
    for seed in range(60):
        twisted, defects = random_with_defects(seed)
        aligned_inst = random_instance(seed, twist=False)
        for kind in ("break-exactness", "break-naturality"):
            if kind in defects:
                cases.append(defects[kind])
            try:
                cases.append(fixtures.plant_defect(aligned_inst, kind))
            except DefectNotApplicableError:
                pass
        for inst in (twisted, aligned_inst):
            cases += [x for x in (inst, grown_kn(inst)) if x is not None]
        cases += row_variants(twisted, seed)
    return cases


def test_middle_exactness_by_orders_agrees_with_the_meet(monkeypatch):
    # every ideal-exactness:middle row equals the meet comparison alone,
    # verdict and witness; rho_image, mapped straight from
    # K0(I), equals the image of the tensor subgroup wherever rho_tilde
    # has the right ends; and the order test both settles rows and
    # sends rows on to the meet, some of them after it was consulted
    verdicts = middle_by_orders_spy(monkeypatch)
    seen = collections.Counter()
    for inst in middle_cases():
        verdicts.clear()
        report = validate_instance(inst)
        rho_ok = report.find("hom-validity:rho_tilde").passed
        for i in inst.order.nodes:
            row = report.find("ideal-exactness:middle:%s" % i)
            assert row.witness == meet_middle(inst, i), (inst, i)
            if rho_ok:
                assert inst.rho_image(i) == image_subgroup(
                    inst.coeff.rho_tilde, inst.tensor_sub(i))
        settled = verdicts.count(True)
        seen["settled"] += settled
        seen["refuted"] += verdicts.count(False)
        seen["meet"] += len(inst.order.nodes) - settled
        seen["failed"] += sum(not r.passed for r in report
                              if r.name.startswith("ideal-exactness:middle:"))
    assert seen["settled"] >= 50 and seen["meet"] >= 20, seen
    assert seen["refuted"] >= 50 and seen["failed"] >= 50, seen


def test_validation_builds_no_kernel_meet_or_tensor_subgroup(monkeypatch):
    # counts, not timing: on these valid instances, twisted or not, the
    # order test settles every middle exactness check, so no subgroup
    # meet takes ker beta_tilde as an operand, and rho_image maps K0(I)
    # straight into Kn without building the tensor subgroup
    operands = []
    meet = Subgroup.meet

    def counted(self, other):
        operands.append((self, other))
        return meet(self, other)

    monkeypatch.setattr(Subgroup, "meet", counted)
    cube = boolean_instance(4)
    T, _ = cube.tensor()
    T1, _ = cube.torsion()
    twisted = fixtures.twist_instance(
        cube, fixtures.random_hom(T1, T, random.Random(400)))
    insts = [random_instance(s) for s in range(10)]
    meets = 0
    for inst in insts + [dp_truncation(2, 8, 7), twisted]:
        operands.clear()
        assert validate_instance(inst).ok
        ker = inst._cache["kernel_beta"]
        assert not any(ker is x for pair in operands for x in pair)
        assert not [key for key in inst._cache
                    if isinstance(key, tuple) and key[0] == "tensor_sub"]
        meets += len(operands)
    assert meets > 0


def test_planted_exactness_defect_fails_through_the_meet(monkeypatch):
    # the planted Kn(m0) is too big: the order test applies, reads the
    # orders apart, and the meet words the witness
    mutant = fixtures.plant_defect(random_instance(22), "break-exactness")
    verdicts = middle_by_orders_spy(monkeypatch)
    failures = validate_instance(mutant).failures()
    assert [(r.name, r.witness) for r in failures] == [
        ("ideal-exactness:middle:m0",
         "ker beta_tilde in Kn(m0): element (1,) only on the left")]
    assert verdicts.count(False) == 1 and len(verdicts) == len(mutant.ideals)


def test_every_check_returns_its_witness_or_none():
    # one contract for every check: it passed exactly when its witness
    # is None, and a failing witness is a non-empty str, so a check
    # still returning a (passed, witness) pair fails here
    reports = collections.defaultdict(list)
    for seed in range(60):
        inst, defects = random_with_defects(seed)
        reports["validate"].append(validate_instance(inst))
        fam = splitter.build_ideal_splitting(inst, validate=False)
        reports["verify"].append(splitter.verify_ideal_splitting(inst, fam))
        reports["validate"] += [validate_instance(bad)
                                for bad in defects.values()]
    reports["validate"].append(validate_instance(dp_truncation(2, 4, 3)))
    # a section pushed outside Kn(a), and no section at b
    inst, parts = diamond_instance()
    fam = splitter.build_ideal_splitting(inst)
    g_a, _, _ = inst.torsion_sub("a").as_group()
    broken = dict(fam.sigmas)
    broken["a"] = fam.sigma("a") + parts.i1 @ GroupHom(g_a, parts.T,
                                                       [[0], [1]])
    del broken["b"]
    reports["verify"].append(splitter.verify_ideal_splitting(
        inst, splitter.SplittingFamily(broken)))
    # a coherent family, and one whose kappa[4,2] has the wrong shape
    fam, _ = natural_family(Z, FgGroup((4,)), [2, 4])
    bent = CoherentFamily(fam.data, fam.coeffs, fam.kappa, fam.lam,
                          fam.sigmas)
    wrong = dict(fam.kappa)
    wrong[(4, 2)] = GroupHom.identity(fam.coeffs[4].Kn)
    object.__setattr__(bent, "kappa", wrong)
    reports["coherence"] += [check_coherence(fam), check_coherence(bent)]
    seen = set()
    for kind, group in reports.items():
        for report in group:
            for r in report:
                assert r.passed == (r.witness is None), r
                if not r.passed:
                    assert isinstance(r.witness, str) and r.witness, r
                seen.add((kind, r.passed))
    assert seen == {(kind, passed) for kind in reports
                    for passed in (True, False)}


def test_constructor_rejects_structural_breakage():
    inst, parts = diamond_instance()
    data, coeff, order = inst.data, inst.coeff, inst.order
    nodes = list(inst.ideals.values())
    wrong_ambient = IdealNode("a", basis_sub(FgGroup((), 3), (0,)),
                              nodes[0].K1_sub, nodes[0].Kn_sub)
    with pytest.raises(AmbientMismatchError):
        KunnethInstance(data, coeff,
                        [wrong_ambient] + [x for x in nodes if x.id != "a"],
                        order)
    with pytest.raises(LatticeError):
        KunnethInstance(data, coeff, nodes + [nodes[0]], order)
    with pytest.raises(LatticeError):
        KunnethInstance(data, coeff, nodes[:-1], order)
    with pytest.raises(TypeError):
        IdealNode(7, nodes[0].K0_sub, nodes[0].K1_sub, nodes[0].Kn_sub)
    with pytest.raises(LatticeError):
        inst.with_replaced_node(IdealNode("ghost", nodes[0].K0_sub,
                                          nodes[0].K1_sub, nodes[0].Kn_sub))
    with pytest.raises(LatticeError):
        inst.with_added_node(nodes[0], below=[], above=[])


def test_constructor_and_lookup_errors_are_pinned():
    inst, _ = diamond_instance()
    data, coeff, order = inst.data, inst.coeff, inst.order
    nodes = list(inst.ideals.values())
    other = FgGroup((), 3)

    def moved(tag):
        # node "a" with its K1 or Kn data in a group of the wrong shape
        a = inst.node("a")
        subs = {"K0": a.K0_sub, "K1": a.K1_sub, "Kn": a.Kn_sub}
        subs[tag] = basis_sub(other, (0,))
        return [IdealNode("a", subs["K0"], subs["K1"], subs["Kn"])] \
            + [x for x in nodes if x.id != "a"]

    cases = [
        (lambda: KunnethInstance(None, coeff, nodes, order), TypeError,
         "data must be a KData"),
        (lambda: KunnethInstance(data, None, nodes, order), TypeError,
         "coeff must be a CoeffGroup"),
        (lambda: KunnethInstance(data, coeff, nodes, None), TypeError,
         "order must be an IdealLattice"),
        (lambda: KunnethInstance(data, coeff, nodes + ["e"], order),
         TypeError, "ideals must be IdealNode instances"),
        (lambda: KunnethInstance(data, coeff, moved("K1"), order),
         AmbientMismatchError, "K1 data of 'a' lives in the wrong group"),
        (lambda: KunnethInstance(data, coeff, moved("Kn"), order),
         AmbientMismatchError, "Kn data of 'a' lives in the wrong group"),
        (lambda: inst.node("ghost"), LatticeError,
         "unknown ideal id 'ghost'"),
        (lambda: setattr(inst, "order", order), AttributeError,
         "KunnethInstance is immutable"),
    ]
    for call, error, message in cases:
        with pytest.raises(error) as info:
            call()
        assert str(info.value) == message
    # no value equality: an instance is equal only to itself
    twin = KunnethInstance(data, coeff, nodes, order)
    assert twin != inst and hash(twin) == object.__hash__(twin)


def test_hom_validity_pins_all_four_witnesses():
    # only a CoeffGroup built in the library reaches these: a document's
    # maps get their ends from the file's groups
    inst, parts = diamond_instance()
    coeff, Kn, z2 = inst.coeff, inst.coeff.Kn, FgGroup((2,))
    cases = [
        (CoeffGroup(2, Kn, GroupHom.zero(z2, Kn), coeff.beta_tilde),
         "hom-validity:rho_tilde", "domain is not K0 (x) Z/2"),
        (CoeffGroup(2, Kn, GroupHom.zero(parts.T, z2), coeff.beta_tilde),
         "hom-validity:rho_tilde", "codomain is not Kn"),
        (CoeffGroup(2, Kn, coeff.rho_tilde, GroupHom.zero(z2, parts.T1)),
         "hom-validity:beta_tilde", "domain is not Kn"),
        (CoeffGroup(2, Kn, coeff.rho_tilde, GroupHom.zero(Kn, z2)),
         "hom-validity:beta_tilde", "codomain is not K1[2]"),
    ]
    for bad, name, witness in cases:
        report = validate_instance(KunnethInstance(
            inst.data, bad, list(inst.ideals.values()), inst.order))
        check = report.find(name)
        assert (check.passed, check.witness) == (False, witness)
        if witness == "domain is not K0 (x) Z/2":
            # rho_image refuses a rho_tilde off the tensor group
            assert report.find("naturality:rho:a").witness == (
                "AmbientMismatchError: subgroup does not live in the hom "
                "domain")


def test_records_are_frozen_and_keep_their_equality():
    inst, _ = diamond_instance()
    data, coeff, node = inst.data, inst.coeff, inst.node("a")
    report = validate_instance(inst)
    # the instance records compare and hash by value
    copies = [(data, KData(data.K0, data.K1)),
              (coeff, CoeffGroup(coeff.n, coeff.Kn, coeff.rho_tilde,
                                 coeff.beta_tilde)),
              (node, IdealNode(node.id, node.K0_sub, node.K1_sub,
                               node.Kn_sub))]
    for record, copy in copies:
        assert copy is not record and copy == record
        assert hash(copy) == hash(record)
    assert node != inst.node("b")
    assert data != KData(data.K1, data.K0)
    # a report compares and hashes by identity, and keeps a tuple
    again = ValidationReport(list(report))
    assert again.results == report.results and type(again.results) is tuple
    assert again != report and report == report
    assert hash(report) == object.__hash__(report)
    for record, field in ((data, "K0"), (coeff, "n"), (node, "id"),
                          (report, "results")):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    # the coefficient is normalized to an int and is at least 2
    widened = CoeffGroup(Fraction(coeff.n), coeff.Kn, coeff.rho_tilde,
                         coeff.beta_tilde)
    assert type(widened.n) is int and widened == coeff
    with pytest.raises(ValueError,
                       match=r"^coefficient must be an integer >= 2$"):
        CoeffGroup(1, coeff.Kn, coeff.rho_tilde, coeff.beta_tilde)
    wrong_types = [
        (lambda: KData(data.K0, None),
         "KData fields must be FgGroup instances"),
        (lambda: CoeffGroup(coeff.n, None, coeff.rho_tilde, coeff.beta_tilde),
         "Kn must be an FgGroup"),
        (lambda: CoeffGroup(coeff.n, coeff.Kn, coeff.rho_tilde, None),
         "rho_tilde and beta_tilde must be GroupHoms"),
        (lambda: IdealNode(7, node.K0_sub, node.K1_sub, node.Kn_sub),
         "ideal id must be a string"),
        (lambda: IdealNode(node.id, node.K0_sub, None, node.Kn_sub),
         "ideal data must be Subgroup instances"),
    ]
    for build, message in wrong_types:
        with pytest.raises(TypeError) as info:
            build()
        assert str(info.value) == message


def test_a_bug_in_a_check_propagates(monkeypatch):
    # a library error inside a check is its witness; any other exception
    # is a bug in the check, not a failed hypothesis, and propagates
    inst, _ = diamond_instance()

    def raising(exc):
        def is_pure(self):
            raise exc
        return is_pure

    monkeypatch.setattr(Subgroup, "is_pure",
                        raising(MissingMapError("no map")))
    report = validate_instance(inst)
    assert report.find("purity:K0:bot").witness == "MissingMapError: no map"
    monkeypatch.setattr(Subgroup, "is_pure", raising(TypeError("boom")))
    with pytest.raises(TypeError, match="boom"):
        validate_instance(inst)


def test_report_helpers():
    inst, _ = diamond_instance()
    report = validate_instance(inst)
    assert repr(report) == "ValidationReport(%d checks, 0 failed)" \
        % len(report)
    assert repr(validate_instance(dp_truncation(2, 1, 1))) \
        == "ValidationReport(50 checks, 1 failed)"
    assert report.find("lattice-shape").passed
    with pytest.raises(KeyError):
        report.find("no-such-check")
    d = report.as_dict()
    assert d["ok"] is True
    assert len(d["checks"]) == len(report)
    assert d["checks"][0] == {"name": "hom-validity:rho_tilde",
                              "passed": True, "witness": None}


def test_five_term_complex_is_exact_for_valid_instance():
    inst, _ = diamond_instance()
    assert (inst.data.K0, inst.data.K1) == (Z2, FgGroup((2, 4)))
    assert five_term_exact(inst)


def with_row(inst, rho=None, beta=None, kn_sub=None):
    """inst with rho_tilde or beta_tilde swapped.  A row through another
    coefficient group (rho's codomain) takes Kn(I) = kn_sub(I).  The
    constructors check structure only, so the row may be anything of
    the right shape."""
    c = inst.coeff
    rho, beta = rho or c.rho_tilde, beta or c.beta_tilde
    nodes = [IdealNode(i, node.K0_sub, node.K1_sub,
                       kn_sub(i) if kn_sub else node.Kn_sub)
             for i, node in inst.ideals.items()]
    return KunnethInstance(inst.data, CoeffGroup(c.n, rho.codomain, rho, beta),
                           nodes, inst.order)


def row_variants(inst, seed):
    """inst with each row map zero or random (from Random(seed)), and
    with the rows through K1[n] alone and K0 (x) Z/n alone."""
    rng = random.Random(seed)
    T, _ = inst.tensor()
    T1, _ = inst.torsion()
    Kn = inst.coeff.Kn
    return [with_row(inst, rho=GroupHom.zero(T, Kn)),
            with_row(inst, beta=GroupHom.zero(Kn, T1)),
            with_row(inst, rho=fixtures.random_hom(T, Kn, rng)),
            with_row(inst, beta=fixtures.random_hom(Kn, T1, rng)),
            with_row(inst, GroupHom.zero(T, T1), GroupHom.identity(T1),
                     inst.torsion_sub),
            with_row(inst, GroupHom.identity(T), GroupHom.zero(T, T1),
                     inst.tensor_sub)]


def test_five_term_sequence_agrees_with_row_checks():
    # the five-term sequence is exact at K0, Kn and K1 exactly when the
    # short row is injective, exact in the middle and surjective.  Over
    # the instance's own Kn, a row exact in the middle that fails at one
    # end also fails at the other (count orders), so two rows through
    # K1[n] alone and K0 (x) Z/n alone make each end fail by itself
    cases = [dp_truncation(2, 4, 3)]
    for seed in range(60):
        inst, defects = random_with_defects(seed)
        cases.append(inst)
        if "break-exactness" in defects:
            cases.append(defects["break-exactness"])
        cases += row_variants(inst, seed)
    names = ("sequence-exact:rho-injective", "sequence-exact:kernel-image",
             "sequence-exact:beta-surjective")
    seen = set()
    for inst in cases:
        report = validate_instance(inst)
        # every row above has the right domains, so the comparison
        # applies to every case
        assert report.find("hom-validity:rho_tilde").passed
        assert report.find("hom-validity:beta_tilde").passed
        row = tuple(report.find(name).passed for name in names)
        seen.add(row)
        assert five_term_exact(inst) == all(row)
    # exact rows, and each check failing alone
    assert {(True, True, True), (False, True, True), (True, False, True),
            (True, True, False)} <= seen


def test_mod_reduction_kernel_is_n_times_k0():
    inst, _ = diamond_instance()
    rho = reduction_hom(inst.data, inst.coeff)
    assert kernel(rho) == Subgroup(Z2, [[2, 0], [0, 2]])
    tiny, _ = aligned(FgGroup(), FgGroup((2,)), 2,
                      {"bot": ((), ()), "top": ((), (0,))})
    assert reduction_hom(tiny.data, tiny.coeff) == \
        GroupHom.zero(FgGroup(), tiny.coeff.Kn)


# --- multi-coefficient families -------------------------------------------

def tensor_kept(group, n):
    out = []
    for i, d in enumerate(group.orders):
        g = gcd(d, n) if d else n
        if g > 1:
            out.append((i, g))
    return out


def torsion_kept(group, n):
    return [(i, gcd(d, n)) for i, d in enumerate(group.orders)
            if d and gcd(d, n) > 1]


def tensor_block(K0, n, m):
    """K0 (x) Z/n -> K0 (x) Z/m: scale by m/n upward, reduce downward."""
    Tn, _ = tensor_zmod(K0, n)
    Tm, _ = tensor_zmod(K0, m)
    pos = {i: t for t, (i, _) in enumerate(tensor_kept(K0, m))}
    rows = [[0] * Tn.rank for _ in range(Tm.rank)]
    for c, (i, _) in enumerate(tensor_kept(K0, n)):
        if i in pos:
            rows[pos[i]][c] = m // n if m % n == 0 else 1
    return GroupHom(Tn, Tm, rows)


def torsion_block(K1, n, m):
    """K1[n] -> K1[m]: inclusion upward, times n/m downward."""
    Tn, _ = n_torsion_group(K1, n)
    Tm, _ = n_torsion_group(K1, m)
    keptn = torsion_kept(K1, n)
    pos = {i: t for t, (i, _) in enumerate(torsion_kept(K1, m))}
    rows = [[0] * Tn.rank for _ in range(Tm.rank)]
    for c, (i, gn) in enumerate(keptn):
        if i in pos:
            gm = gcd(K1.orders[i], m)
            scale = 1 if m % n == 0 else n // m
            rows[pos[i]][c] = scale * gm // gn
    return GroupHom(Tn, Tm, rows)


def natural_family(K0, K1, ns, sigmas=True):
    coeffs, parts = {}, {}
    for n in ns:
        Kn, p = model_parts(K0, K1, n)
        coeffs[n] = CoeffGroup(n, Kn, p.i1, p.p2)
        parts[n] = p
    kappa, lam = {}, {}
    for m in ns:
        for n in ns:
            if m != n and m % n == 0:
                lam[(m, n)] = torsion_block(K1, n, m)
            if m != n and (m % n == 0 or n % m == 0):
                kappa[(m, n)] = (
                    parts[m].i1 @ tensor_block(K0, n, m) @ parts[n].p1
                    + parts[m].i2 @ torsion_block(K1, n, m) @ parts[n].p2)
    sig = {n: parts[n].i2 for n in ns} if sigmas else None
    fam = CoherentFamily(KData(K0, K1), coeffs, kappa, lam, sig)
    return fam, parts


def test_natural_family_2_4_passes_and_matches_known_scalar():
    fam, parts = natural_family(Z, FgGroup((4,)), [2, 4])
    report = check_coherence(fam)
    assert report.ok
    # the downward pair at (m, n) = (2, 4): beta_2 kappa_{2,4} = 2 beta_4
    _, incl2 = n_torsion_group(FgGroup((4,)), 2)
    _, incl4 = n_torsion_group(FgGroup((4,)), 4)
    beta2 = incl2 @ fam.coeffs[2].beta_tilde
    beta4 = incl4 @ fam.coeffs[4].beta_tilde
    lhs = beta2 @ fam.kappa[(2, 4)]
    rhs = GroupHom(beta4.domain, beta4.codomain,
                   [[2 * x for x in row] for row in beta4.matrix])
    assert lhs == rhs


def test_natural_family_2_6_12_passes():
    fam, _ = natural_family(Z, FgGroup((12,)), [2, 6, 12])
    report = check_coherence(fam)
    assert report.ok
    names = report.names()
    assert "eq1:2,6" in names and "eq2:12,2" in names
    assert any(n.startswith("eq3:") for n in names)


def test_identity_kappa_single_coefficient():
    fam, parts = natural_family(Z, FgGroup((4,)), [2])
    ident = dict(fam.kappa)
    ident[(2, 2)] = GroupHom.identity(fam.coeffs[2].Kn)
    fam2 = CoherentFamily(fam.data, fam.coeffs, ident, fam.lam, fam.sigmas)
    report = check_coherence(fam2)
    assert report.ok
    assert report.names() == ["eq1:2,2", "eq2:2,2", "eq3:2,2,2"]


def test_missing_kappa_raises():
    fam, _ = natural_family(Z, FgGroup((4,)), [2, 4])
    partial = {k: v for k, v in fam.kappa.items() if k != (2, 4)}
    crippled = CoherentFamily(fam.data, fam.coeffs, partial, fam.lam,
                              fam.sigmas)
    with pytest.raises(MissingMapError):
        check_coherence(crippled)


def test_perturbed_kappa_fails_with_named_relation():
    fam, _ = natural_family(Z, FgGroup((4,)), [2, 4])
    bad = dict(fam.kappa)
    f = bad[(4, 2)]
    rows = [list(r) for r in f.matrix]
    # smallest valid perturbation of entry (0,0) that is still a hom:
    # it must stay a multiple of e_0 / gcd(e_0, d_0)
    e0, d0 = f.codomain.orders[0], f.domain.orders[0]
    rows[0][0] += e0 // gcd(e0, d0)
    bad[(4, 2)] = GroupHom(f.domain, f.codomain, rows)
    assert bad[(4, 2)] != f
    report = check_coherence(
        CoherentFamily(fam.data, fam.coeffs, bad, fam.lam, fam.sigmas))
    assert not report.ok
    names = [r.name for r in report.failures()]
    assert names
    assert all(n.split(":")[0] in ("eq1", "eq2", "eq3") for n in names)
    assert any("4,2" in n for n in names)


def test_coherence_report_pins_names_and_witnesses():
    fam, _ = natural_family(Z, FgGroup((4,)), [2, 4])
    kappa = dict(fam.kappa)
    for n in (2, 4):
        kappa[(n, n)] = GroupHom.identity(fam.coeffs[n].Kn)
    f = kappa[(4, 2)]
    rows = [list(r) for r in f.matrix]
    e0, d0 = f.codomain.orders[0], f.domain.orders[0]
    rows[0][0] += e0 // gcd(e0, d0)
    kappa[(4, 2)] = GroupHom(f.domain, f.codomain, rows)
    report = check_coherence(
        CoherentFamily(fam.data, fam.coeffs, kappa, fam.lam, fam.sigmas))
    assert report.names() == [
        "eq1:2,2", "eq2:2,2", "eq1:2,4", "eq2:2,4", "eq1:4,2", "eq2:4,2",
        "eq1:4,4", "eq2:4,4"] + ["eq3:%s" % t for t in (
            "2,2,2", "2,2,4", "2,4,2", "2,4,4", "4,2,2", "4,2,4", "4,4,2",
            "4,4,4")]
    assert [(r.name, r.witness) for r in report.failures()] == [
        ("eq2:4,2", "kappa[4,2] . rho_2 != (2) rho_4"),
        ("eq3:4,2,4", "kappa[4,2] . kappa[2,4] != (2) kappa[4,4]")]
    # a kappa of the wrong shape, set past the constructor's checks: the
    # composition that cannot be formed is reported, not raised
    bent = CoherentFamily(fam.data, fam.coeffs, fam.kappa, fam.lam,
                          fam.sigmas)
    wrong = dict(fam.kappa)
    wrong[(4, 2)] = GroupHom.identity(fam.coeffs[4].Kn)
    object.__setattr__(bent, "kappa", wrong)
    assert [(r.name, r.witness) for r in check_coherence(bent)] == [
        ("eq1:2,4", None), ("eq2:2,4", None),
        ("eq1:4,2", "beta_4 . kappa[4,2] != (1) beta_2"),
        ("eq2:4,2",
         "AmbientMismatchError: composition domains do not line up")]


def test_family_coherence_natural_true_incompatible_false():
    fam, parts = natural_family(Z, FgGroup((4,)), [2, 4])
    assert check_family_coherence(fam).ok
    # still a genuine section, but shifted into the tensor summand:
    # sigma'_4 = i2 + i1 . w with w the identity on Z/4
    w = GroupHom(parts[4].T1, parts[4].T, [[1]])
    twisted = dict(fam.sigmas)
    twisted[4] = parts[4].i2 + (parts[4].i1 @ w)
    fam2 = CoherentFamily(fam.data, fam.coeffs, fam.kappa, fam.lam, twisted)
    assert (fam2.coeffs[4].beta_tilde @ twisted[4]
            == GroupHom.identity(parts[4].T1))
    assert not check_family_coherence(fam2).ok


def test_family_coherence_error_paths():
    fam, _ = natural_family(Z, FgGroup((4,)), [2, 4], sigmas=False)
    with pytest.raises(MissingSigmaError):
        check_family_coherence(fam)
    with_sig, _ = natural_family(Z, FgGroup((4,)), [2, 4])
    partial_sig = {2: with_sig.sigmas[2]}
    fam2 = CoherentFamily(with_sig.data, with_sig.coeffs, with_sig.kappa,
                          with_sig.lam, partial_sig)
    with pytest.raises(MissingSigmaError):
        check_family_coherence(fam2)
    nolam = CoherentFamily(with_sig.data, with_sig.coeffs, with_sig.kappa,
                           {}, with_sig.sigmas)
    with pytest.raises(MissingMapError):
        check_family_coherence(nolam)


def test_family_structural_validation():
    with pytest.raises(ValueError):
        natural_family(Z, FgGroup((12,)), [4, 6])  # gcd 2 missing
    fam, parts = natural_family(Z, FgGroup((4,)), [2, 4])
    swapped = dict(fam.kappa)
    swapped[(4, 2)], swapped[(2, 4)] = swapped[(2, 4)], swapped[(4, 2)]
    with pytest.raises(HomDefinitionError):
        CoherentFamily(fam.data, fam.coeffs, swapped, fam.lam, fam.sigmas)
    with pytest.raises(MissingMapError):
        CoherentFamily(fam.data, fam.coeffs,
                       {(8, 2): fam.kappa[(4, 2)]}, {}, None)
    data, coeffs, kappa, lam, sigmas = (fam.data, fam.coeffs, fam.kappa,
                                        fam.lam, fam.sigmas)
    c2 = coeffs[2]
    other = FgGroup((), 3)

    def with_coeff(cg):
        return {2: cg, 4: coeffs[4]}

    cases = [
        (lambda: CoherentFamily(None, coeffs, kappa), TypeError,
         "data must be a KData"),
        (lambda: CoherentFamily(data, {3: c2, 4: coeffs[4]}, kappa),
         ValueError, "coefficient key 3 does not match"),
        (lambda: CoherentFamily(data, with_coeff(CoeffGroup(
            2, c2.Kn, GroupHom.zero(other, c2.Kn), c2.beta_tilde)), kappa),
         HomDefinitionError, "rho_tilde at 2 has wrong shape"),
        (lambda: CoherentFamily(data, with_coeff(CoeffGroup(
            2, c2.Kn, c2.rho_tilde, GroupHom.zero(c2.Kn, other))), kappa),
         HomDefinitionError, "beta_tilde at 2 has wrong shape"),
        (lambda: CoherentFamily(data, coeffs, kappa,
                                {(4, 2): GroupHom.zero(other, other)}),
         HomDefinitionError, "lambda[4,2] must map K1[2] to K1[4]"),
        (lambda: CoherentFamily(data, coeffs, kappa, lam,
                                {8: sigmas[2]}),
         MissingSigmaError, "sigma at 8 outside family"),
        (lambda: CoherentFamily(data, coeffs, kappa, lam,
                                {2: sigmas[4], 4: sigmas[4]}),
         HomDefinitionError, "sigma at 2 must map K1[2] to K2"),
        (lambda: setattr(fam, "lam", {}), AttributeError,
         "CoherentFamily is immutable"),
        (lambda: CoherentFamily(data, {2: c2}, {}).kappa_at(2, 2),
         MissingMapError, "kappa[2,2] is missing"),
    ]
    for call, error, message in cases:
        with pytest.raises(error) as info:
            call()
        assert str(info.value) == message

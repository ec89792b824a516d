"""Acceptance gate: one test per release criterion.

Each test certifies one end-to-end property of the package and prints a
single PASS/FAIL line, so running this module with ``pytest -s`` doubles
as the release checklist.  Everything is seeded and exact; no tolerances
anywhere.
"""

import itertools
import random
import time
from math import gcd

import pytest

from idealsplit.cli import main
from idealsplit.errors import (DefectNotApplicableError,
                               SplittingObstructionError)
from idealsplit.fgab import (FgGroup, GroupHom, Subgroup, image,
                             image_subgroup, induced_tensor_hom,
                             induced_torsion_hom, n_torsion_group,
                             tensor_zmod)
from idealsplit.fileformat import (complex_iso_from_json, instance_to_json,
                                   iso_input_to_json, load_file, save_file,
                                   splitting_from_json)
from idealsplit.fixtures import (dp_truncation, plant_defect,
                                 random_automorphism, random_hom,
                                 random_instance, transported_instance)
from idealsplit.intmat import identity as unit_matrix
from idealsplit.intmat import matmul, smith_form
from idealsplit.kunneth import (CoeffGroup, CoherentFamily, IdealNode, KData,
                                KunnethInstance, check_coherence,
                                validate_instance)
from idealsplit.lattice import IdealLattice
from idealsplit.splitter import (build_ideal_splitting, check_gamma_exact,
                                 exhaustive_ideal_splittings, full_section,
                                 verify_ideal_splitting)

from oracles import column_lattice, is_pure_bruteforce
from test_fixtures import diamond24
from test_kunneth import natural_family

COEFFS = (2, 3, 4, 6, 8, 9, 12)
CORPUS_SIZE = 200


def _line(num, ok, detail):
    print("%s criterion %d: %s" % ("PASS" if ok else "FAIL", num, detail))
    assert ok, "criterion %d: %s" % (num, detail)


def _detail(base, problems):
    if not problems:
        return base
    return "%s; %d problems, first: %s" % (base, len(problems), problems[:3])


@pytest.fixture(scope="module")
def corpus():
    """The shared seeded corpus, plus the time it took to generate."""
    t0 = time.monotonic()
    insts = [random_instance(seed) for seed in range(CORPUS_SIZE)]
    return insts, time.monotonic() - t0


# --- 1: the splitting construction at desk scale ----------------------------

def test_criterion_1_splitting_at_desk_scale(corpus, tmp_path_factory):
    insts, gen_dt = corpus
    root = tmp_path_factory.mktemp("corpus")
    problems = []
    categories = set()
    t0 = time.monotonic()
    for seed, inst in enumerate(insts):
        if len(inst.order.nodes) > 6:
            problems.append("seed %d: %d ideals" % (seed, len(inst.order.nodes)))
        if inst.coeff.Kn.size() > 4096 or inst.coeff.n not in COEFFS:
            problems.append("seed %d: outside the generator bounds" % seed)
        src = str(root / ("in%03d.json" % seed))
        dst = str(root / ("out%03d.json" % seed))
        save_file(src, instance_to_json(inst))
        code = main(["split", src, "-o", dst])
        if code != 0:
            problems.append("seed %d: split exited %d" % (seed, code))
            continue
        fam = splitting_from_json(load_file(dst), inst)
        report = verify_ideal_splitting(inst, fam)
        if not report.ok:
            problems.append("seed %d: verify failed %s"
                            % (seed, [r.name for r in report.failures()][:3]))
        categories.update(name.split(":", 1)[0] for name in report.names())
    elapsed = gen_dt + (time.monotonic() - t0)
    for cat in ("splitting-identity", "containment", "coherence"):
        if cat not in categories:
            problems.append("verify never ran a %s check" % cat)
    if elapsed > 120.0:
        problems.append("took %.1fs, budget is 120s" % elapsed)
    ok = not problems and len(insts) >= 200
    _line(1, ok, _detail(
        "%d seeded instances: split exits 0 and every verify check passes "
        "in %.1fs (budget 120s)" % (len(insts), elapsed), problems))


# --- 2: constructive builder against the brute-force oracle -----------------

def _nonsplit_instance():
    # valid two-node instance whose middle row does not split at all,
    # so builder and oracle must both say "no"
    K0, K1, Kn = FgGroup((), 1), FgGroup((2,)), FgGroup((4,))
    T, _ = tensor_zmod(K0, 2)
    T1, _ = n_torsion_group(K1, 2)
    return KunnethInstance(
        KData(K0, K1),
        CoeffGroup(2, Kn, GroupHom(T, Kn, [[2]]), GroupHom(Kn, T1, [[1]])),
        [IdealNode("bot", Subgroup.zero(K0), Subgroup.zero(K1),
                   Subgroup.zero(Kn)),
         IdealNode("top", Subgroup.full(K0), Subgroup.full(K1),
                   Subgroup.full(Kn))],
        IdealLattice(["bot", "top"], [("bot", "top")]))


def test_criterion_2_oracle_equivalence(corpus, tmp_path_factory):
    insts, _ = corpus
    root = tmp_path_factory.mktemp("oracle")
    cases = [("seed%d" % s, inst) for s, inst in enumerate(insts)
             if inst.coeff.Kn.size() <= 256]
    cases.append(("nonsplit", _nonsplit_instance()))
    problems, codes = [], set()
    builder_no = 0
    for tag, inst in cases:
        feasible = {s.matrix for s in exhaustive_ideal_splittings(inst)}
        try:
            fam = build_ideal_splitting(inst)
        except SplittingObstructionError:
            fam = None
            builder_no += 1
        if (fam is not None) != bool(feasible):
            problems.append("%s: builder and oracle disagree" % tag)
        elif fam is not None:
            if full_section(inst, fam).matrix not in feasible:
                problems.append("%s: builder section outside the feasible set"
                                % tag)
        path = str(root / (tag + ".json"))
        save_file(path, instance_to_json(inst))
        code = main(["split", path, "--oracle"])
        codes.add(code)
        if code not in (0, 1):
            problems.append("%s: exit code %d" % (tag, code))
    ok = not problems and len(cases) >= 40 and builder_no >= 1
    _line(2, ok, _detail(
        "builder matches the exhaustive oracle on %d instances with "
        "|Kn| <= 256 (%d unsplittable), exit codes seen %r"
        % (len(cases), builder_no, sorted(codes)), problems))


# --- 3: Gamma-complex exactness ----------------------------------------------

def _comaximal_pairs(inst):
    order = inst.order
    out = []
    for p, q in itertools.combinations(order.nodes, 2):
        if not order.comparable(p, q):
            out.append((order.join(p, q), (p, q)))
    return out


def test_criterion_3_gamma_exactness(corpus):
    insts, _ = corpus
    problems = []

    def instances():
        for inst in insts:
            yield inst
        for seed in range(len(insts), 400):
            yield random_instance(seed)

    passed = 0
    for inst in instances():
        for I, parts in _comaximal_pairs(inst):
            witness = check_gamma_exact(inst, I, parts)
            if witness is None:
                passed += 1
            else:
                problems.append("valid instance fails gamma at %s over %r: %s"
                                % (I, parts, witness))
        if passed >= 50:
            break

    # the gamma complex resolves the n-torsion of K1, so the mutants it
    # must expose are the ones that change some torsion subgroup; a
    # lattice-law break in the prime-to-n part leaves the complex exact
    # (correctly) and stays the validator's catch
    visible, coprime = [], []
    for seed in range(300):
        base = random_instance(seed, twist=False)
        try:
            mut = plant_defect(base, "break-lattice-law")
        except DefectNotApplicableError:
            continue
        if any(mut.torsion_sub(i) != base.torsion_sub(i)
               for i in base.order.nodes):
            visible.append(mut)
        else:
            coprime.append(mut)
        if len(visible) >= 15:
            break
    caught = 0
    for k, mut in enumerate(visible):
        if any(check_gamma_exact(mut, I, parts) is not None
               for I, parts in _comaximal_pairs(mut)):
            caught += 1
        else:
            problems.append("lattice-law mutant %d leaves no gamma witness" % k)
    for k, mut in enumerate(coprime):
        if not any(r.name.startswith("lattice-laws")
                   for r in validate_instance(mut).failures()):
            problems.append("coprime mutant %d not caught by validation" % k)

    ok = passed >= 50 and len(visible) >= 10 and caught == len(visible) \
        and not problems
    _line(3, ok, _detail(
        "gamma complex exact on %d comaximal configurations; concrete "
        "witness on %d/%d torsion-visible lattice-law mutants (%d "
        "prime-to-n mutants stay the validator's catch)"
        % (passed, caught, len(visible), len(coprime)), problems))


# --- 4: the truncation family D_p --------------------------------------------

def test_criterion_4_dp_mechanism():
    problems = []
    for p in (2, 3):
        for m in (1, 2, 3):
            feasible = {}
            for k in range(m):
                inst = dp_truncation(p, m, k)
                tag = "D_%d m=%d k=%d" % (p, m, k)
                rep = validate_instance(inst)
                if not rep.ok:
                    problems.append("%s: invalid %s"
                                    % (tag, [r.name for r in rep.failures()]))
                    continue
                fam = build_ideal_splitting(inst)
                check = verify_ideal_splitting(inst, fam)
                if not check.ok:
                    problems.append("%s: verify failed" % tag)
                corridor = inst.node("I%d" % k).Kn_sub
                if not image(full_section(inst, fam)) <= corridor:
                    problems.append("%s: image leaves the corridor" % tag)
                feasible[k] = {s.matrix
                               for s in exhaustive_ideal_splittings(inst)}
            for k in range(m - 1):
                if not feasible[k + 1] < feasible[k]:
                    problems.append(
                        "D_%d m=%d: feasible set does not strictly shrink "
                        "from k=%d to k=%d" % (p, m, k, k + 1))
            full = dp_truncation(p, m, m)
            rep = validate_instance(full)
            bad = rep.failures()
            if rep.ok or not bad:
                problems.append("D_%d m=%d: k=m passed validation" % (p, m))
            elif not all(r.name.startswith("ideal-exactness") for r in bad):
                problems.append("D_%d m=%d: k=m rejected for other reasons %s"
                                % (p, m, [r.name for r in bad]))
            elif any(r.witness is None for r in bad):
                problems.append("D_%d m=%d: rejection carries no witness"
                                % (p, m))
    ok = not problems
    _line(4, ok, _detail(
        "D_p for p in {2,3}, m in {1,2,3}: k<m splits inside the corridor, "
        "feasible sets strictly shrink, k=m rejected with an ideal-exactness "
        "witness, all in exact integer arithmetic", problems))


# --- 5: coherence across coefficients ----------------------------------------

def _relation_pairs(name):
    head, _, tail = name.partition(":")
    ids = tuple(int(x) for x in tail.split(","))
    if head == "eq3":
        k, m, n = ids
        return {(k, m), (m, n), (k, n)}
    return {ids}


def test_criterion_5_coherence_relations():
    problems = []
    rejected = tried = 0
    Z = FgGroup((), 1)
    for ns, K1 in (((2, 4, 8), FgGroup((8,))), ((2, 6, 12), FgGroup((12,)))):
        fam, _ = natural_family(Z, K1, list(ns))
        # identity kappas close the composite triples (m, n, m), which
        # is what pins the mixed torsion-to-tensor entries of each kappa;
        # without them a perturbation there is a genuinely coherent twist
        kappa = dict(fam.kappa)
        for n in ns:
            kappa[(n, n)] = GroupHom.identity(fam.coeffs[n].Kn)
        fam = CoherentFamily(fam.data, fam.coeffs, kappa, fam.lam, fam.sigmas)
        rep = check_coherence(fam)
        if not rep.ok:
            problems.append("natural family %r rejected: %s"
                            % (ns, [r.name for r in rep.failures()]))
            continue
        if ns == (2, 4, 8):
            # the scalar instance: beta_2 kappa_{2,4} = 2 beta_4, read
            # inside the common ambient K1
            _, incl2 = n_torsion_group(K1, 2)
            _, incl4 = n_torsion_group(K1, 4)
            lhs = incl2 @ fam.coeffs[2].beta_tilde @ fam.kappa[(2, 4)]
            beta4 = incl4 @ fam.coeffs[4].beta_tilde
            rhs = GroupHom(beta4.domain, beta4.codomain,
                           [[2 * x for x in row] for row in beta4.matrix])
            if lhs != rhs:
                problems.append("beta_2 kappa_{2,4} != 2 beta_4")
        for (m, n), kap in sorted(fam.kappa.items()):
            dom, cod = kap.domain, kap.codomain
            for i in range(cod.rank):
                di = cod.orders[i]
                for j in range(dom.rank):
                    step = di // gcd(di, dom.orders[j])
                    for c in range(0, di, step):
                        if c == kap.matrix[i][j] % di:
                            continue
                        rows = [list(row) for row in kap.matrix]
                        rows[i][j] = c
                        kappa = dict(fam.kappa)
                        kappa[(m, n)] = GroupHom(dom, cod, rows)
                        bent = CoherentFamily(fam.data, fam.coeffs, kappa,
                                              fam.lam, fam.sigmas)
                        tried += 1
                        bad = check_coherence(bent).failures()
                        named = [r for r in bad if r.name.startswith("eq")
                                 and (m, n) in _relation_pairs(r.name)]
                        if bad and named:
                            rejected += 1
                        else:
                            problems.append(
                                "perturbation of kappa[%d,%d] at (%d,%d)=%d "
                                "not rejected by name" % (m, n, i, j, c))
    ok = not problems and tried > 0 and rejected == tried
    _line(5, ok, _detail(
        "natural families on {2,4,8} and {2,6,12} accepted (including "
        "beta_2 kappa_{2,4} = 2 beta_4); all %d single-entry kappa "
        "perturbations rejected naming a violated relation" % tried, problems))


# --- 6: isomorphism lifting ---------------------------------------------------

def test_criterion_6_isomorphism_lifting(tmp_path_factory):
    root = tmp_path_factory.mktemp("lift")
    problems = []
    lifted = 0
    for seed in range(120):
        if lifted >= 50:
            break
        inst = random_instance(seed, twist=False)
        n = inst.coeff.n
        rng = random.Random(10_000 + seed)
        phi0 = random_automorphism(inst.data.K0, rng)
        phi1 = random_automorphism(inst.data.K1, rng)
        h = None
        if seed % 2:
            T, _ = tensor_zmod(inst.data.K0, n)
            T1, _ = n_torsion_group(inst.data.K1, n)
            h = random_hom(T1, T, rng)
        other, pairing = transported_instance(inst, phi0, phi1, h)

        a = str(root / ("a%03d.json" % seed))
        b = str(root / ("b%03d.json" % seed))
        iso_in = str(root / ("iso%03d.json" % seed))
        out = str(root / ("out%03d.json" % seed))
        save_file(a, instance_to_json(inst))
        save_file(b, instance_to_json(other))
        save_file(iso_in, iso_input_to_json(phi0, phi1, pairing))
        code = main(["lift", a, b, iso_in, "-o", out])
        if code != 0:
            problems.append("seed %d: lift exited %d" % (seed, code))
            continue
        iso = complex_iso_from_json(load_file(out), inst, other)
        phi = iso.phi
        F = induced_tensor_hom(phi0, n)
        G = induced_torsion_hom(phi1, n)
        rho_a, beta_a = inst.coeff.rho_tilde, inst.coeff.beta_tilde
        rho_b, beta_b = other.coeff.rho_tilde, other.coeff.beta_tilde
        inv = phi.inverse()
        if phi @ rho_a != rho_b @ F:
            problems.append("seed %d: phi rho != rho (phi0 (x) id)" % seed)
        if beta_b @ phi != G @ beta_a:
            problems.append("seed %d: beta phi != phi1 beta" % seed)
        if inv @ rho_b != rho_a @ F.inverse():
            problems.append("seed %d: inverse breaks the tensor square" % seed)
        if beta_a @ inv != G.inverse() @ beta_b:
            problems.append("seed %d: inverse breaks the torsion square" % seed)
        for I in inst.order.nodes:
            fwd = image_subgroup(phi, inst.node(I).Kn_sub)
            if fwd != other.node(pairing[I]).Kn_sub:
                problems.append("seed %d: phi misplaces Kn(%s)" % (seed, I))
            back = image_subgroup(inv, other.node(pairing[I]).Kn_sub)
            if back != inst.node(I).Kn_sub:
                problems.append("seed %d: phi^-1 misplaces Kn(%s)" % (seed, I))
        if seed % 10 == 0:
            # run the reverse direction through the tool as well
            rev = {v: k for k, v in pairing.items()}
            iso_rev = str(root / ("rev%03d.json" % seed))
            save_file(iso_rev, iso_input_to_json(phi0.inverse(),
                                                 phi1.inverse(), rev))
            if main(["lift", b, a, iso_rev]) != 0:
                problems.append("seed %d: reverse lift failed" % seed)
        lifted += 1

    inst = diamond24()
    a = str(root / "id_a.json")
    iso_in = str(root / "id_iso.json")
    out = str(root / "id_out.json")
    save_file(a, instance_to_json(inst))
    save_file(iso_in, iso_input_to_json(
        GroupHom.identity(inst.data.K0), GroupHom.identity(inst.data.K1),
        {i: i for i in inst.order.nodes}))
    identity_ok = (main(["lift", a, a, iso_in, "-o", out]) == 0 and
                   complex_iso_from_json(load_file(out), inst, inst).phi
                   == GroupHom.identity(inst.coeff.Kn))
    if not identity_ok:
        problems.append("identity input did not lift to the identity")

    ok = lifted >= 50 and not problems
    _line(6, ok, _detail(
        "%d random (instance, automorphism) pairs lift with exact "
        "commuting squares and ideal carry in both directions; identity "
        "lifts to identity" % lifted, problems))


# --- 7: kernel property suites ------------------------------------------------

def _random_finite_group(rng, max_order=512):
    while True:
        k = rng.randrange(1, 4)
        chain = [rng.choice((2, 2, 3, 4, 5, 8, 9, 12, 16))]
        for _ in range(k - 1):
            chain.append(chain[-1] * rng.choice((1, 1, 2, 3, 4)))
        size = 1
        for d in chain:
            size *= d
        if size <= max_order:
            return FgGroup(tuple(chain))


def _snf_suite(problems):
    rng = random.Random(55)
    for case in range(1000):
        r, c = rng.randrange(1, 6), rng.randrange(1, 6)
        mat = [[rng.randrange(-30, 31) if rng.random() < 0.85 else 0
                for _ in range(c)] for _ in range(r)]
        d, u, uinv = smith_form(mat)
        # some unimodular v has u m v == d
        if column_lattice(matmul(u, mat), r, c) != column_lattice(d, r, c):
            problems.append("snf case %d: u m v != d" % case)
        if matmul(u, uinv) != unit_matrix(r) or \
                matmul(uinv, u) != unit_matrix(r):
            problems.append("snf case %d: u not unimodular" % case)
        if any(d[i][j] for i in range(r) for j in range(c) if i != j):
            problems.append("snf case %d: not diagonal" % case)
        diag = [d[i][i] for i in range(min(r, c))]
        if any(x < 0 for x in diag):
            problems.append("snf case %d: negative invariant" % case)
        for a, b in zip(diag, diag[1:]):
            if (a == 0 and b != 0) or (a != 0 and b % a != 0):
                problems.append("snf case %d: chain %r broken" % (case, diag))
    return 1000


def _purity_suite(problems):
    cases = 0
    for chain in ((2,), (3,), (4,), (5,), (6,), (7,), (8,), (9,), (12,),
                  (16,), (2, 2), (2, 4), (2, 6), (3, 3), (2, 8), (4, 4),
                  (2, 2, 2), (2, 2, 4)):
        G = FgGroup(chain)
        elements = [list(e) for e in G.elements()]
        seen = {Subgroup.zero(G)}
        for combo in itertools.product(elements, repeat=len(chain)):
            seen.add(Subgroup(G, list(combo)))
        for sub in sorted(seen, key=lambda s: s.generators):
            cases += 1
            if sub.is_pure() != is_pure_bruteforce(sub):
                problems.append("purity mismatch in %r at %r"
                                % (chain, sub.generators))
    exhaustive = cases
    rng = random.Random(404)
    for _ in range(1000):
        G = _random_finite_group(rng)
        gens = [[rng.randrange(d) for d in G.orders]
                for _ in range(rng.randrange(1, G.rank + 1))]
        sub = Subgroup(G, gens)
        cases += 1
        if sub.is_pure() != is_pure_bruteforce(sub):
            problems.append("purity mismatch in %r at %r"
                            % (G.invariant_factors, sub.generators))
    return cases, exhaustive


def _functor_suite(problems):
    rng = random.Random(21)
    for case in range(1000):
        n = rng.choice(COEFFS)
        groups = []
        for _ in range(3):
            g = _random_finite_group(rng, 36)
            groups.append(FgGroup(g.invariant_factors, rng.randrange(2)))
        A, B, C = groups
        f = random_hom(A, B, rng)
        g = random_hom(B, C, rng)
        TA, _ = tensor_zmod(A, n)
        A1, _ = n_torsion_group(A, n)
        if induced_tensor_hom(GroupHom.identity(A), n) \
                != GroupHom.identity(TA):
            problems.append("functor case %d: tensor identity law" % case)
        if induced_tensor_hom(g @ f, n) \
                != induced_tensor_hom(g, n) @ induced_tensor_hom(f, n):
            problems.append("functor case %d: tensor composition law" % case)
        if induced_torsion_hom(GroupHom.identity(A), n) \
                != GroupHom.identity(A1):
            problems.append("functor case %d: torsion identity law" % case)
        if induced_torsion_hom(g @ f, n) \
                != induced_torsion_hom(g, n) @ induced_torsion_hom(f, n):
            problems.append("functor case %d: torsion composition law" % case)
    return 1000


def test_criterion_7_kernel_suites():
    problems = []
    snf_cases = _snf_suite(problems)
    purity_cases, exhaustive = _purity_suite(problems)
    functor_cases = _functor_suite(problems)
    ok = not problems and snf_cases >= 1000 and purity_cases >= 1000 \
        and functor_cases >= 1000
    _line(7, ok, _detail(
        "smith form invariants on %d matrices, purity agrees with brute "
        "force on %d subgroups (%d from exhaustive small-group sweeps), "
        "functor laws on %d random composable pairs, all exact"
        % (snf_cases, purity_cases, exhaustive, functor_cases), problems))

"""Workload inputs, the request pipelines, and their correctness gate.

A workload is a list of requests.  Each request holds serialized input
documents only, so every run of it parses afresh and no memo on an
instance or subgroup carries over from one request, or one pass, to the
next.  Inputs come from a fixed pool of keys; the seed picks which keys
a run uses, so the per-request behaviour digests recorded for the whole
pool in ``reference.json`` cover every seed.

The pipelines make the same library calls as the ``idealsplit split``
and ``idealsplit lift`` commands, through the module attributes, so the
tracer's wrappers see them.
"""

import hashlib
import json
import random
from math import gcd
from typing import NamedTuple

from idealsplit import fileformat, fixtures, kunneth, splitter
from idealsplit.errors import SplittingObstructionError
from idealsplit.fgab import (FgGroup, GroupHom, Subgroup, image_subgroup,
                             induced_tensor_hom, induced_torsion_hom,
                             n_torsion_group, tensor_zmod)
from idealsplit.lattice import IdealLattice

CORPUS_POOL = 240        # random_instance seeds 0..239, 200 used per run
CORPUS_SIZE = 200
DEFECTS_PER_KIND = 10    # of the frozen pool's 12 per kind
DP_MS = (4, 8, 12, 16)
BOOLEAN_KS = (3, 4, 5)
BOOLEAN_TWISTS = 8       # twist homs drawn from Random(k * 100 + t)
BOOLEAN_PER_K = {3: 3, 4: 8, 5: 1}   # twists per run at each k
LIFT_POOL = 60           # acceptance-suite pair seeds 0..59, 50 used per run
LIFT_SIZE = 50
ORACLE_SECTIONS = 4096   # brute-force only where the section count is small


class Request(NamedTuple):
    id: str
    pipeline: str        # "split" or "lift"
    docs: tuple          # serialized input documents
    expect: str          # split, invalid:<check prefix>, obstructed, lift


class Result(NamedTuple):
    verdict: str
    output: str          # canonical JSON of what the command would write
    reports: tuple       # ((name, passed, witness), ...) of every report


def dump(make_doc):
    """The document ``make_doc()`` builds, as canonical JSON text."""
    return fileformat.dumps_canonical(make_doc())


# --- the request pipelines ---------------------------------------------------

def parse_instance(text):
    return fileformat.instance_from_json(fileformat.loads(text))[0]


def parse_lift_input(a_text, b_text, iso_text):
    a = parse_instance(a_text)
    b = parse_instance(b_text)
    phi0, phi1, pairing = fileformat.iso_input_from_json(
        fileformat.loads(iso_text), a, b)
    return a, b, phi0, phi1, pairing


def _rows(report):
    return tuple((r.name, r.passed, r.witness) for r in report.results)


class Ops(NamedTuple):
    """The calls a request makes; the tracer hands in wrapped ones."""
    parse: object
    parse_lift: object
    dump: object
    validate: object
    build: object
    verify: object
    lift: object

    @classmethod
    def current(cls, parse=parse_instance, parse_lift=parse_lift_input,
                dump=dump):
        return cls(parse, parse_lift, dump, kunneth.validate_instance,
                   splitter.build_ideal_splitting,
                   splitter.verify_ideal_splitting,
                   splitter.lift_isomorphism)


def run_split(ops, text):
    inst = ops.parse(text)
    report = ops.validate(inst)
    if not report.ok:
        return Result("invalid", ops.dump(report.as_dict), _rows(report))
    try:
        fam = ops.build(inst, validate=False)
    except SplittingObstructionError as exc:
        return Result("obstructed",
                      ops.dump(lambda: {"obstruction": str(exc),
                                        "ideal": exc.ideal}), _rows(report))
    check = ops.verify(inst, fam)
    rows = _rows(report) + _rows(check)
    if not check.ok:
        return Result("unverified", ops.dump(check.as_dict), rows)
    return Result("split",
                  ops.dump(lambda: fileformat.splitting_to_json(fam)), rows)


def run_lift(ops, a_text, b_text, iso_text):
    iso = ops.lift(*ops.parse_lift(a_text, b_text, iso_text))
    return Result("lift", ops.dump(lambda: fileformat.iso_to_json(iso)), ())


def run_request(ops, req):
    if req.pipeline == "lift":
        return run_lift(ops, *req.docs)
    return run_split(ops, *req.docs)


def digest(req, res):
    """Behaviour fingerprint: verdict, output bytes, every report's
    ordered check names and witnesses."""
    blob = json.dumps([req.id, res.verdict, res.output, res.reports],
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


# --- inputs ------------------------------------------------------------------

def _instance_doc(inst):
    return fileformat.dumps_canonical(fileformat.instance_to_json(inst))


def nonsplit_instance():
    """The acceptance suite's valid two-node instance whose row does not
    split at all."""
    K0, K1, Kn = FgGroup((), 1), FgGroup((2,)), FgGroup((4,))
    T, _ = tensor_zmod(K0, 2)
    T1, _ = n_torsion_group(K1, 2)
    return kunneth.KunnethInstance(
        kunneth.KData(K0, K1),
        kunneth.CoeffGroup(2, Kn, GroupHom(T, Kn, [[2]]),
                           GroupHom(Kn, T1, [[1]])),
        [kunneth.IdealNode("bot", Subgroup.zero(K0), Subgroup.zero(K1),
                           Subgroup.zero(Kn)),
         kunneth.IdealNode("top", Subgroup.full(K0), Subgroup.full(K1),
                           Subgroup.full(Kn))],
        IdealLattice(["bot", "top"], [("bot", "top")]))


# the check family each planted defect must fail, kept here rather than
# read from fixtures so that the gate does not trust the code it checks
DEFECT_PREFIX = {
    "break-exactness": "ideal-exactness",
    "break-purity": "purity",
    "break-lattice-law": "lattice-laws",
    "break-naturality": "naturality",
    "break-distributivity": "lattice-distributive",
}


def corpus_keys(seed, reference):
    defect_pool = reference["defects"]
    rng = random.Random(seed)
    keys = [("inst", s)
            for s in sorted(rng.sample(range(CORPUS_POOL), CORPUS_SIZE))]
    for kind in fixtures.DEFECT_KINDS:
        seeds = [s for s, k in defect_pool if k == kind]
        keys += [("defect", s, kind)
                 for s in sorted(rng.sample(seeds, DEFECTS_PER_KIND))]
    return keys + [("nonsplit",)]


def corpus_pool(reference):
    return ([("inst", s) for s in range(CORPUS_POOL)]
            + [("defect", s, k) for s, k in reference["defects"]]
            + [("nonsplit",)])


def make_corpus(keys):
    out = []
    for key in keys:
        if key[0] == "inst":
            inst = fixtures.random_instance(key[1])
            out.append(Request("inst:%d" % key[1], "split",
                               (_instance_doc(inst),), "split"))
        elif key[0] == "defect":
            _, s, kind = key
            inst = fixtures.plant_defect(
                fixtures.random_instance(s, twist=False), kind)
            out.append(Request("defect:%d:%s" % (s, kind), "split",
                               (_instance_doc(inst),),
                               "invalid:" + DEFECT_PREFIX[kind]))
        else:
            out.append(Request("nonsplit", "split",
                               (_instance_doc(nonsplit_instance()),),
                               "obstructed"))
    return out


def dp_pool(reference):
    return [("dp", m) for m in DP_MS]


def dp_keys(seed, reference):
    """Every run takes the whole family: this workload has no seed."""
    return dp_pool(reference)


def make_dp(keys):
    return [Request("dp:%d" % m, "split",
                    (_instance_doc(fixtures.dp_truncation(2, m, m - 1)),),
                    "split") for _, m in keys]


def boolean_keys(seed, reference):
    """Every k = 4 twist in every run: their costs differ by up to 30%,
    and the median latency falls among them, so a seed that picked one
    of them would move it by as much.  The seed picks the k = 3 and
    k = 5 twists."""
    rng = random.Random(seed)
    return [("bool", k, t) for k in BOOLEAN_KS
            for t in sorted(rng.sample(range(BOOLEAN_TWISTS),
                                       BOOLEAN_PER_K[k]))]


def boolean_pool(reference):
    return [("bool", k, t) for k in BOOLEAN_KS for t in range(BOOLEAN_TWISTS)]


def boolean_instance(k):
    """Every coordinate subset S of range(k) as an ideal carrying S in
    both K0 = Z^k and K1 = (Z/2)^k, n = 2: the Boolean lattice 2^k."""
    def ident(mask):
        return "s" + "".join(str(mask >> i & 1) for i in range(k))

    spec = {}
    for mask in range(2 ** k):
        idx = tuple(i for i in range(k) if mask >> i & 1)
        spec[ident(mask)] = (idx, idx)
    return fixtures.direct_sum_instance(FgGroup((), k), FgGroup((2,) * k),
                                        2, spec)


def make_boolean(keys):
    base = {}
    out = []
    for _, k, t in keys:
        if k not in base:
            base[k] = boolean_instance(k)
        inst = base[k]
        T, _ = inst.tensor()
        T1, _ = inst.torsion()
        h = fixtures.random_hom(T1, T, random.Random(k * 100 + t))
        out.append(Request("bool:%d:%d" % (k, t), "split",
                           (_instance_doc(fixtures.twist_instance(inst, h)),),
                           "split"))
    return out


def lift_keys(seed, reference):
    rng = random.Random(seed)
    return [("lift", s) for s in sorted(rng.sample(range(LIFT_POOL),
                                                   LIFT_SIZE))]


def lift_pool(reference):
    return [("lift", s) for s in range(LIFT_POOL)]


def make_lift(keys):
    """Transported pairs by the acceptance suite's recipe."""
    out = []
    for _, s in keys:
        inst = fixtures.random_instance(s, twist=False)
        n = inst.coeff.n
        rng = random.Random(10_000 + s)
        phi0 = fixtures.random_automorphism(inst.data.K0, rng)
        phi1 = fixtures.random_automorphism(inst.data.K1, rng)
        h = None
        if s % 2:
            T, _ = tensor_zmod(inst.data.K0, n)
            T1, _ = n_torsion_group(inst.data.K1, n)
            h = fixtures.random_hom(T1, T, rng)
        other, pairing = fixtures.transported_instance(inst, phi0, phi1, h)
        out.append(Request(
            "lift:%d" % s, "lift",
            (_instance_doc(inst), _instance_doc(other),
             fileformat.dumps_canonical(
                 fileformat.iso_input_to_json(phi0, phi1, pairing))),
            "lift"))
    return out


class Workload(NamedTuple):
    keys: object         # (seed, reference) -> the pool keys a run uses
    pool: object         # reference -> every key any seed can pick
    make: object         # keys -> requests: the timed set-up


WORKLOADS = {
    "corpus": Workload(corpus_keys, corpus_pool, make_corpus),
    "dp-chain": Workload(dp_keys, dp_pool, make_dp),
    "boolean": Workload(boolean_keys, boolean_pool, make_boolean),
    "lift": Workload(lift_keys, lift_pool, make_lift),
}


def warmup(requests):
    """The untimed warm-up slice: every tenth request, so at least the
    first, which on dp-chain and boolean is the smallest."""
    return requests[::10]


# --- the correctness gate ----------------------------------------------------

def _section_count(inst):
    """|Hom(K1[n], K0 (x) Z/n)|: how many sections the oracle walks."""
    T, _ = inst.tensor()
    T1, _ = inst.torsion()
    count = 1
    for c in T1.orders:
        for t in T.orders:
            count *= gcd(c, t)
    return count


def _check_split(req, res):
    inst = parse_instance(req.docs[0])
    if res.verdict != "split":
        return "verdict %s, expected split" % res.verdict
    fam = fileformat.splitting_from_json(fileformat.loads(res.output), inst)
    if not splitter.verify_ideal_splitting(inst, fam).ok:
        return "output family fails verify_ideal_splitting"
    if inst.coeff.Kn.size() is not None and inst.coeff.Kn.size() <= 256 \
            and _section_count(inst) <= ORACLE_SECTIONS:
        feasible = {s.matrix
                    for s in splitter.exhaustive_ideal_splittings(inst)}
        if splitter.full_section(inst, fam).matrix not in feasible:
            return "top section outside the oracle's feasible set"
    return None


def _check_invalid(req, res, prefix):
    if res.verdict != "invalid":
        return "verdict %s, expected invalid" % res.verdict
    failed = [name for name, passed, _ in res.reports if not passed]
    if not failed or not all(n.startswith(prefix) for n in failed):
        return "failed checks %r outside family %s" % (failed, prefix)
    return None


def _check_obstructed(req, res):
    if res.verdict != "obstructed":
        return "verdict %s, expected obstructed" % res.verdict
    inst = parse_instance(req.docs[0])
    if splitter.exhaustive_ideal_splittings(inst):
        return "oracle finds a splitting the builder says is impossible"
    return None


def _check_lift(req, res):
    a, b, phi0, phi1, pairing = parse_lift_input(*req.docs)
    if res.verdict != "lift":
        return "verdict %s, expected lift" % res.verdict
    phi = fileformat.complex_iso_from_json(fileformat.loads(res.output),
                                           a, b).phi
    n = a.coeff.n
    F = induced_tensor_hom(phi0, n)
    G = induced_torsion_hom(phi1, n)
    inv = phi.inverse()
    if phi @ a.coeff.rho_tilde != b.coeff.rho_tilde @ F:
        return "phi does not commute with rho_tilde"
    if b.coeff.beta_tilde @ phi != G @ a.coeff.beta_tilde:
        return "phi does not commute with beta_tilde"
    if inv @ b.coeff.rho_tilde != a.coeff.rho_tilde @ F.inverse():
        return "phi^-1 does not commute with rho_tilde"
    if a.coeff.beta_tilde @ inv != G.inverse() @ b.coeff.beta_tilde:
        return "phi^-1 does not commute with beta_tilde"
    for i in a.order.nodes:
        if image_subgroup(phi, a.node(i).Kn_sub) != b.node(pairing[i]).Kn_sub:
            return "phi misplaces Kn(%s)" % i
        if image_subgroup(inv, b.node(pairing[i]).Kn_sub) != a.node(i).Kn_sub:
            return "phi^-1 misplaces Kn(%s)" % i
    return None


def check(req, res):
    """None when the request's verdict and output are right, else why."""
    if req.expect == "split":
        return _check_split(req, res)
    if req.expect == "obstructed":
        return _check_obstructed(req, res)
    if req.expect == "lift":
        return _check_lift(req, res)
    return _check_invalid(req, res, req.expect.split(":", 1)[1])

"""Instance model: K-data with coefficients, filtered by an ideal lattice.

An instance packages the ambient groups K0 (torsion free) and K1, a
coefficient group Kn sitting in the row

    0 -> K0 (x) Z/n --rho_tilde--> Kn --beta_tilde--> K1[n] -> 0,

and one subgroup triple per ideal id.  Constructors enforce only
structural well-formedness (ranks, ambients, lattice node set); every
semantic hypothesis is a named check in :func:`validate_instance`, which
reports a witness for each failure.  The records KData, CoeffGroup,
IdealNode and ValidationReport are frozen dataclasses that type-check
their fields in ``__post_init__``; the first three compare by value, a
report by identity.  A check returns its witness text, or None when it
passes, and :func:`check_runner` records it; every subgroup comparison
is between subgroups of one group, and is worded by :func:`_gap`.  The
fixed check order makes reports byte-stable for identical inputs.

Multi-coefficient data lives in :class:`CoherentFamily`, whose kappa
maps are checked against the three exact scalar relations

    beta_m . kappa_{m,n} = (n/(n,m)) beta_n
    kappa_{m,n} . rho_n  = (m/(n,m)) rho_m
    kappa_{k,m} . kappa_{m,n} = (m(k,n)/((k,m)(m,n))) kappa_{k,n}

where kappa_{m,n} maps Kn to Km and (a,b) is the gcd.
"""

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import NamedTuple, Optional

from .errors import (AmbientMismatchError, HomDefinitionError,
                     IdealSplitError, LatticeError, MissingMapError,
                     MissingSigmaError)
from .fgab import (FgGroup, GroupHom, Subgroup, image, image_subgroup, kernel,
                   n_torsion_group, preimage_subgroup, tensor_zmod)
from .lattice import IdealLattice


@dataclass(frozen=True, slots=True)
class KData:
    """Ambient K0 and K1."""

    K0: FgGroup
    K1: FgGroup

    def __post_init__(self):
        if not isinstance(self.K0, FgGroup) \
                or not isinstance(self.K1, FgGroup):
            raise TypeError("KData fields must be FgGroup instances")


@dataclass(frozen=True, slots=True)
class CoeffGroup:
    """Coefficient group Kn with the two maps of its row."""

    n: int
    Kn: FgGroup
    rho_tilde: GroupHom
    beta_tilde: GroupHom

    @staticmethod
    def coefficient(n):
        """``n`` as an int; ValueError unless it is at least 2."""
        if int(n) < 2:
            raise ValueError("coefficient must be an integer >= 2")
        return int(n)

    def __post_init__(self):
        object.__setattr__(self, "n", CoeffGroup.coefficient(self.n))
        if not isinstance(self.Kn, FgGroup):
            raise TypeError("Kn must be an FgGroup")
        if not isinstance(self.rho_tilde, GroupHom) \
                or not isinstance(self.beta_tilde, GroupHom):
            raise TypeError("rho_tilde and beta_tilde must be GroupHoms")


@dataclass(frozen=True, slots=True)
class IdealNode:
    """One ideal id with its subgroup triple in the ambient groups."""

    id: str
    K0_sub: Subgroup
    K1_sub: Subgroup
    Kn_sub: Subgroup

    def __post_init__(self):
        if not isinstance(self.id, str):
            raise TypeError("ideal id must be a string")
        for sub in (self.K0_sub, self.K1_sub, self.Kn_sub):
            if not isinstance(sub, Subgroup):
                raise TypeError("ideal data must be Subgroup instances")


class KunnethInstance:
    """KData + CoeffGroup + one IdealNode per lattice node.

    Construction checks structure only: every subgroup lives in the
    right ambient and the node ids coincide with the lattice nodes.
    Everything semantic is validate_instance's business.  Instances
    compare by identity, like the memo of derived data they carry.
    """

    __slots__ = ("data", "coeff", "ideals", "order", "_cache")

    def __init__(self, data, coeff, ideals, order):
        if not isinstance(data, KData):
            raise TypeError("data must be a KData")
        if not isinstance(coeff, CoeffGroup):
            raise TypeError("coeff must be a CoeffGroup")
        if not isinstance(order, IdealLattice):
            raise TypeError("order must be an IdealLattice")
        nodes = {}
        for node in ideals:
            if not isinstance(node, IdealNode):
                raise TypeError("ideals must be IdealNode instances")
            if node.id in nodes:
                raise LatticeError("duplicate ideal id %r" % (node.id,))
            if node.K0_sub.ambient != data.K0:
                raise AmbientMismatchError(
                    "K0 data of %r lives in the wrong group" % (node.id,))
            if node.K1_sub.ambient != data.K1:
                raise AmbientMismatchError(
                    "K1 data of %r lives in the wrong group" % (node.id,))
            if node.Kn_sub.ambient != coeff.Kn:
                raise AmbientMismatchError(
                    "Kn data of %r lives in the wrong group" % (node.id,))
            nodes[node.id] = node
        if set(nodes) != set(order.nodes):
            raise LatticeError("ideal ids do not match the lattice nodes")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "ideals", nodes)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("KunnethInstance is immutable")

    def node(self, id):
        if id not in self.ideals:
            raise LatticeError("unknown ideal id %r" % (id,))
        return self.ideals[id]

    # --- cached derived data -------------------------------------------

    def _memo(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def tensor(self):
        """(K0 (x) Z/n, natural surjection from K0)."""
        return self._memo("tensor",
                          lambda: tensor_zmod(self.data.K0, self.coeff.n))

    def torsion(self):
        """(K1[n] as abstract group, inclusion into K1)."""
        return self._memo("torsion",
                          lambda: n_torsion_group(self.data.K1, self.coeff.n))

    def tensor_sub(self, id):
        """Image of K0(id) inside K0 (x) Z/n."""
        def build():
            _, pi = self.tensor()
            return image_subgroup(pi, self.node(id).K0_sub)
        return self._memo(("tensor_sub", id), build)

    def rho_image(self, id):
        """rho_tilde(K0(id) (x) Z/n) as a subgroup of Kn, mapped from
        K0(id) by rho_tilde . pi (``reduction_hom``).

        pi maps K0(id) onto the tensor subgroup, and rho_tilde maps the
        relations of K0 (x) Z/n to relations of Kn, so the rows
        rho_tilde(pi(g)) and Kn's relations span the same subgroup, with
        the same canonical basis, as the image of ``tensor_sub(id)``.
        """
        def build():
            if self.coeff.rho_tilde.domain != self.tensor()[0]:
                raise AmbientMismatchError(
                    "subgroup does not live in the hom domain")
            reduction = self._memo(
                "reduction", lambda: reduction_hom(self.data, self.coeff))
            return image_subgroup(reduction, self.node(id).K0_sub)
        return self._memo(("rho_image", id), build)

    def torsion_sub(self, id):
        """K1(id)[n] as a subgroup of the abstract K1[n]."""
        def build():
            _, incl = self.torsion()
            return preimage_subgroup(incl, self.node(id).K1_sub)
        return self._memo(("torsion_sub", id), build)

    def beta_image(self, id):
        """beta_tilde(Kn(id)) as a subgroup of K1[n]."""
        return self._memo(("beta_image", id), lambda: image_subgroup(
            self.coeff.beta_tilde, self.node(id).Kn_sub))

    def kernel_beta(self):
        return self._memo("kernel_beta",
                          lambda: kernel(self.coeff.beta_tilde))

    # --- modified copies ------------------------------------------------

    def with_replaced_node(self, node):
        """Same lattice, one ideal's data swapped out."""
        if node.id not in self.ideals:
            raise LatticeError("no ideal %r to replace" % (node.id,))
        ideals = [node if x.id == node.id else x
                  for x in self.ideals.values()]
        return KunnethInstance(self.data, self.coeff, ideals, self.order)

    def with_added_node(self, node, below, above):
        """New instance whose lattice gains a node covering ``below``
        and covered by ``above``."""
        if node.id in self.ideals:
            raise LatticeError("ideal %r already present" % (node.id,))
        edges = list(self.order.edges)
        edges += [(b, node.id) for b in below]
        edges += [(node.id, a) for a in above]
        order = IdealLattice(list(self.order.nodes) + [node.id], edges)
        return KunnethInstance(self.data, self.coeff,
                               list(self.ideals.values()) + [node], order)


# --- validation -----------------------------------------------------------

class CheckResult(NamedTuple):
    name: str
    passed: bool
    witness: Optional[str]


@dataclass(frozen=True, slots=True, eq=False)
class ValidationReport:
    """Ordered tuple of named check results."""

    results: tuple

    def __post_init__(self):
        object.__setattr__(self, "results", tuple(self.results))

    @property
    def ok(self):
        return all(r.passed for r in self.results)

    def failures(self):
        return [r for r in self.results if not r.passed]

    def find(self, name):
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)

    def names(self):
        return [r.name for r in self.results]

    def __iter__(self):
        return iter(self.results)

    def __len__(self):
        return len(self.results)

    def as_dict(self):
        return {"ok": self.ok,
                "checks": [{"name": r.name, "passed": r.passed,
                            "witness": r.witness} for r in self.results]}

    def __repr__(self):
        bad = len(self.failures())
        return "ValidationReport(%d checks, %d failed)" % (len(self), bad)


def check_runner(results):
    """A ``run(name, fn)`` that appends fn's verdict to ``results``.

    ``fn()`` returns the failure witness, a non-empty str, or None when
    the check passes.  A check that cannot even be evaluated on the
    data (an ``IdealSplitError``) fails with the exception text as its
    witness; any other exception is a bug in the check and propagates.
    Names are interned, so every report that names one check shares one
    string; a run that keeps many reports peaks measurably lower in
    memory for it.  ``run.certified(checks, holds)`` records each
    ``(name, fn)`` of checks as passed when a certificate holds, and
    runs each fn otherwise.
    """
    def run(name, fn):
        try:
            witness = fn()
        except IdealSplitError as exc:
            witness = "%s: %s" % (type(exc).__name__, exc)
        results.append(CheckResult(sys.intern(name), witness is None,
                                   witness))

    def certified(checks, holds):
        for name, fn in checks:
            run(name, (lambda: None) if holds else fn)
    run.certified = certified
    return run


def _gap(a, b, only_a, only_b=None):
    """None when subgroup a equals b (or, without ``only_b``, lies in
    b), else the witness text.

    Canonical generators make ``a == b`` settle equality at once; only
    otherwise is a generator of one side outside the other looked for,
    and ``only_a`` or ``only_b`` words it.  A canonical generator needs
    no reduction: its torsion entries already lie in [0, d), and the
    relation rows, which lie in every subgroup, are never a witness.
    Coordinates are compared as they stand: callers first check that a
    and b live in one group.
    """
    if a == b:
        return None
    for x, y, say in ((a, b, only_a), (b, a, only_b)):
        if say is None:
            break
        for g in x.generators:
            if not y.contains(g):
                return say(g)
    return None


def _components(*nodes):
    """(tag, the tag's subgroup of each node) for K0, K1 and Kn in turn."""
    for tag in ("K0", "K1", "Kn"):
        yield (tag,) + tuple(getattr(node, tag + "_sub") for node in nodes)


def _laws_certified(inst, edges):
    """True when every node with two or more lower covers carries the
    join of the subgroups at its first two, and every node with two or
    more upper covers the meet of those at its first two, in K0, K1 and
    Kn; False when one does not."""
    lower = {x: [] for x in inst.order.nodes}
    upper = {x: [] for x in inst.order.nodes}
    for lo, hi in edges:
        lower[hi].append(lo)
        upper[lo].append(hi)
    for covers, op in ((lower, "join"), (upper, "meet")):
        for x, near in covers.items():
            if len(near) < 2:
                continue
            for _, here, c1, c2 in _components(
                    inst.node(x), inst.node(near[0]), inst.node(near[1])):
                if getattr(c1, op)(c2) != here:
                    return False
    return True


def _middle_by_orders(inst, i):
    """True when |Kn(i)| = |rho_image(i)| |beta_image(i)|, over a finite
    Kn with beta_tilde into K1[n].  A subgroup of a finite group has a
    square, upper triangular canonical basis, relation rows included:
    it spans a lattice of index the product of its pivots in Z^k that
    holds the relations, of index the group's order."""
    def order(sub):
        index = 1
        for j, row in enumerate(sub.generators):
            index *= row[j]
        return sub.ambient.size() // index
    return order(inst.node(i).Kn_sub) \
        == order(inst.rho_image(i)) * order(inst.beta_image(i))


def validate_instance(inst):
    """Run every structural-hypothesis check, in a fixed order.

    A check that cannot be evaluated on the data (an IdealSplitError,
    for example a map with the wrong domain) fails with the exception
    text as its witness; any other exception is a bug and propagates.

    The ``lattice-laws:meet/join:i,j`` checks, one pair of each per pair
    of ideals, are first settled together by a certificate on the cover
    edges.  It applies when every ``monotonicity`` check has passed and
    the order is a bounded distributive lattice, and it holds when every
    node with two or more lower covers carries the join of the subgroups
    at its first two, and every node with two or more upper covers the
    meet of those at its first two, in each of K0, K1 and Kn.  Then
    every pairwise law holds and is recorded as passed.  When the
    certificate does not apply or fails, each pair is checked on its
    own, which gives the same verdicts and words the witnesses.

    Why the certificate decides the laws: let f map each node to its
    subgroup in one of K0, K1, Kn, and write + for the join of
    subgroups; f is monotone, since it is on the cover edges.  Joins:
    monotonicity gives f(a) + f(b) <= f(a v b).  For the converse,
    induct on x = a v b.  If x is a or b there is nothing to show.
    Otherwise a, b < x, and x has two or more lower covers, since a
    single one would lie above a and b and hence above x.  Each lower
    cover c is c ^ (a v b) = (c ^ a) v (c ^ b) by distributivity and
    lies below x, so by induction f(c) <= f(c ^ a) + f(c ^ b) <= f(a) +
    f(b), and f(x) = f(c1) + f(c2) for any two distinct lower covers c1,
    c2 is <= f(a) + f(b).  Meets are dual: induct downwards on a ^ b,
    whose upper covers c are c v (a ^ b) = (c v a) ^ (c v b).
    Conversely, when every pairwise law holds, two distinct lower covers
    c1, c2 of x join to x, so f(x) = f(c1) + f(c2), and dually for
    meets: the certificate fails exactly when some pairwise law does.
    It costs one subgroup join per node with two or more lower covers
    and one meet per node with two or more upper covers, per component,
    where the pairwise laws cost two per pair of ideals.

    Each ``ideal-exactness:middle:I`` check compares K meet N with R,
    for K = ker beta_tilde, N = Kn(I) and R = rho_image(I).  It is
    first settled by orders, which builds no meet.  That applies when
    Kn has free rank 0 and the rows ``hom-validity:rho_tilde``,
    ``hom-validity:beta_tilde``, ``sequence-exact:kernel-image`` and
    ``naturality:rho:I`` have passed.  Then R, N and K all live in the
    finite Kn.  R lies in im rho_tilde = K, and in N by naturality, so
    R <= K meet N.  beta_tilde restricted to N has kernel K meet N and
    image beta_image(I), so |K meet N| = |N| / |beta_image(I)|.  Hence
    R = K meet N exactly when |N| = |R| |beta_image(I)|.  When the test
    does not apply or the orders differ, the meet is built and compared
    with R, which words the witness.
    """
    results = []
    run = check_runner(results)
    data, coeff, order = inst.data, inst.coeff, inst.order

    def hom_validity_rho():
        tgroup, _ = inst.tensor()
        if coeff.rho_tilde.domain != tgroup:
            return "domain is not K0 (x) Z/%d" % coeff.n
        if coeff.rho_tilde.codomain != coeff.Kn:
            return "codomain is not Kn"
        return None

    def hom_validity_beta():
        tors, _ = inst.torsion()
        if coeff.beta_tilde.domain != coeff.Kn:
            return "domain is not Kn"
        if coeff.beta_tilde.codomain != tors:
            return "codomain is not K1[%d]" % coeff.n
        return None

    run("hom-validity:rho_tilde", hom_validity_rho)
    run("hom-validity:beta_tilde", hom_validity_beta)
    run("k0-torsion-free",
        lambda: None if data.K0.is_torsion_free()
        else "invariant factors %r" % (data.K0.invariant_factors,))

    def rho_injective():
        ker = kernel(coeff.rho_tilde)
        return _gap(ker, Subgroup.zero(ker.ambient),
                    lambda g: "kernel contains %r" % (g,))

    def leq(a, b, label):
        a._check_ambient(b)
        return _gap(a, b, lambda g: "%s: element %r escapes" % (label, g))

    def eq(a, b, label):
        a._check_ambient(b)
        return _gap(a, b,
                    lambda g: "%s: element %r only on the left" % (label, g),
                    lambda g: "%s: element %r only on the right" % (label, g))

    run("sequence-exact:rho-injective", rho_injective)
    run("sequence-exact:kernel-image",
        lambda: eq(inst.kernel_beta(), image(coeff.rho_tilde),
                   "ker beta_tilde vs im rho_tilde"))
    run("sequence-exact:beta-surjective",
        lambda: None if coeff.beta_tilde.is_surjective()
        else "beta_tilde misses part of K1[%d]" % coeff.n)

    def bound(find, name, holds, word):
        def check():
            x = find()
            if x is None:
                return "lattice has no %s" % name
            for tag, sub in _components(inst.node(x)):
                if not holds(sub):
                    return "%s(%s) is %s" % (tag, x, word)
            return None
        return check

    run("bottom-trivial",
        bound(order.bottom, "bottom", lambda s: s.is_zero(), "nonzero"))
    run("top-full", bound(order.top, "top", lambda s: s.is_full(), "proper"))

    ids = list(order.nodes)
    for i in ids:
        run("purity:K0:%s" % i,
            lambda i=i: None if inst.node(i).K0_sub.is_pure()
            else "K0(%s) is not a pure subgroup" % i)
        run("purity:K1:%s" % i,
            lambda i=i: None if inst.node(i).K1_sub.is_pure()
            else "K1(%s) is not a pure subgroup" % i)
    for i in ids:
        run("naturality:rho:%s" % i,
            lambda i=i: leq(inst.rho_image(i), inst.node(i).Kn_sub,
                            "rho_tilde image of K0(%s)" % i))
        run("naturality:beta:%s" % i,
            lambda i=i: leq(inst.beta_image(i), inst.torsion_sub(i),
                            "beta_tilde image of Kn(%s)" % i))
    done = {r.name: r.passed for r in results}
    row_exact = coeff.Kn.free_rank == 0 and all(done[name] for name in (
        "hom-validity:rho_tilde", "hom-validity:beta_tilde",
        "sequence-exact:kernel-image"))

    def middle(i):
        if row_exact and done["naturality:rho:%s" % i] \
                and _middle_by_orders(inst, i):
            return None
        return eq(inst.kernel_beta().meet(inst.node(i).Kn_sub),
                  inst.rho_image(i), "ker beta_tilde in Kn(%s)" % i)

    for i in ids:
        run("ideal-exactness:middle:%s" % i, lambda i=i: middle(i))
        run("ideal-exactness:surjective:%s" % i,
            lambda i=i: leq(inst.torsion_sub(i), inst.beta_image(i),
                            "K1(%s)[n] vs beta_tilde image" % i))

    edges = order.cover_edges()
    first_mono = len(results)
    for lo, hi in edges:
        def mono(lo=lo, hi=hi):
            for tag, x, y in _components(inst.node(lo), inst.node(hi)):
                w = leq(x, y, "%s(%s) vs %s(%s)" % (tag, lo, tag, hi))
                if w is not None:
                    return w
            return None
        run("monotonicity:%s<%s" % (lo, hi), mono)

    def law(op, symbol, i, j):
        def check():
            m = getattr(order, op)(i, j)
            if m is None:
                return "lattice %s of %s, %s undefined" % (op, i, j)
            for tag, s1, s2, s3 in _components(inst.node(i), inst.node(j),
                                               inst.node(m)):
                w = eq(s3, getattr(s1, op)(s2),
                       "%s(%s %s %s)" % (tag, i, symbol, j))
                if w is not None:
                    return w
            return None
        return check

    bounded = order.is_bounded_lattice()
    distributive = bounded and order.is_distributive()
    laws = [("lattice-laws:%s:%s,%s" % (op, i, j), law(op, symbol, i, j))
            for x, i in enumerate(ids) for j in ids[x + 1:]
            for op, symbol in (("meet", "^"), ("join", "v"))]
    run.certified(laws, distributive
                  and all(r.passed for r in results[first_mono:])
                  and _laws_certified(inst, edges))

    run("lattice-shape",
        lambda: None if bounded
        else "not a bounded lattice (missing bound or meet/join)")

    def distributivity():
        if distributive:
            return None
        if not bounded:
            return "not even a bounded lattice"
        a, b, c = order.distributivity_counterexample()
        return ("%s ^ (%s v %s) = %s but (^v^) gives %s"
                % (a, b, c, order.meet(a, order.join(b, c)),
                   order.join(order.meet(a, b), order.meet(a, c))))

    run("lattice-distributive", distributivity)

    def injective():
        seen = {}
        for i in ids:
            node = inst.node(i)
            key = (node.K0_sub, node.K1_sub)
            if key in seen:
                return "%s and %s carry identical K-data" % (seen[key], i)
            seen[key] = i
        return None

    run("lattice-injective", injective)
    return ValidationReport(results)


# --- reductions -----------------------------------------------------------

def _scaled(f, s):
    return GroupHom(f.domain, f.codomain,
                    [[s * x for x in row] for row in f.matrix])


def reduction_hom(data, coeff):
    """The composite K0 -> K0 (x) Z/n -> Kn."""
    _, pi = tensor_zmod(data.K0, coeff.n)
    return coeff.rho_tilde @ pi


def full_beta(data, coeff):
    """beta_n : Kn -> K1, the torsion inclusion after beta_tilde."""
    _, incl = n_torsion_group(data.K1, coeff.n)
    return incl @ coeff.beta_tilde


# --- multi-coefficient families -------------------------------------------

class CoherentFamily:
    """Shared KData with one CoeffGroup per coefficient plus kappa maps.

    ``kappa[(m, n)]`` maps Kn to Km and must be present for every
    ordered pair of distinct coefficients related by divisibility
    (both directions).  ``lam[(m, n)]`` maps K1[n] to K1[m] for n | m.
    ``sigmas[n]``, when given, is a candidate splitting K1[n] -> Kn.
    The coefficient list must be gcd-closed so the scalar relations
    stay inside the family.
    """

    __slots__ = ("data", "coeffs", "kappa", "lam", "sigmas")

    def __init__(self, data, coeffs, kappa, lam=None, sigmas=None):
        if not isinstance(data, KData):
            raise TypeError("data must be a KData")
        coeffs = dict(coeffs)
        for n, cg in coeffs.items():
            if not isinstance(cg, CoeffGroup) or cg.n != n:
                raise ValueError("coefficient key %r does not match" % (n,))
            tgroup, _ = tensor_zmod(data.K0, n)
            tors, _ = n_torsion_group(data.K1, n)
            if cg.rho_tilde.domain != tgroup \
                    or cg.rho_tilde.codomain != cg.Kn:
                raise HomDefinitionError("rho_tilde at %d has wrong shape" % n)
            if cg.beta_tilde.domain != cg.Kn or cg.beta_tilde.codomain != tors:
                raise HomDefinitionError(
                    "beta_tilde at %d has wrong shape" % n)
        ns = sorted(coeffs)
        for a in ns:
            for b in ns:
                if gcd(a, b) not in coeffs:
                    raise ValueError(
                        "coefficients are not gcd-closed: missing %d"
                        % gcd(a, b))
        kappa = dict(kappa)
        for (m, n), f in kappa.items():
            if m not in coeffs or n not in coeffs:
                raise MissingMapError(
                    "kappa key (%r, %r) outside the family" % (m, n))
            if f.domain != coeffs[n].Kn or f.codomain != coeffs[m].Kn:
                raise HomDefinitionError(
                    "kappa[%d,%d] must map K%d to K%d" % (m, n, n, m))
        lam = dict(lam or {})
        for (m, n), f in lam.items():
            if m not in coeffs or n not in coeffs or m % n:
                raise MissingMapError(
                    "lambda key (%r, %r) is not an n | m pair" % (m, n))
            if f.domain != coeffs[n].beta_tilde.codomain \
                    or f.codomain != coeffs[m].beta_tilde.codomain:
                raise HomDefinitionError(
                    "lambda[%d,%d] must map K1[%d] to K1[%d]" % (m, n, n, m))
        sigmas = dict(sigmas) if sigmas is not None else None
        if sigmas:
            for n, f in sigmas.items():
                if n not in coeffs:
                    raise MissingSigmaError("sigma at %r outside family" % n)
                if f.domain != coeffs[n].beta_tilde.codomain \
                        or f.codomain != coeffs[n].Kn:
                    raise HomDefinitionError(
                        "sigma at %d must map K1[%d] to K%d" % (n, n, n))
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "sigmas", sigmas)

    def __setattr__(self, name, value):
        raise AttributeError("CoherentFamily is immutable")

    @property
    def coefficients(self):
        return tuple(sorted(self.coeffs))

    def kappa_at(self, m, n):
        if (m, n) not in self.kappa:
            raise MissingMapError("kappa[%d,%d] is missing" % (m, n))
        return self.kappa[(m, n)]


def _divisor_pairs(ns):
    """Ordered pairs (m, n), m != n, with n | m or m | n."""
    out = []
    for m in ns:
        for n in ns:
            if m != n and (m % n == 0 or n % m == 0):
                out.append((m, n))
    return sorted(out)


def check_coherence(fam):
    """Verify the three scalar relations as exact matrix identities.

    A missing required kappa raises MissingMapError; everything else is
    reported.  Scalars are handled as exact fractions by
    cross-multiplying, so no divisibility assumption is made.
    """
    ns = fam.coefficients
    required = _divisor_pairs(ns)
    for key in required:
        if key not in fam.kappa:
            raise MissingMapError("kappa[%d,%d] is missing" % key)
    results = []
    run = check_runner(results)
    pairs = sorted(set(required) | set(fam.kappa))
    betas = {n: full_beta(fam.data, fam.coeffs[n]) for n in ns}
    rhos = {n: reduction_hom(fam.data, fam.coeffs[n]) for n in ns}

    def law(compose, plain, scalar, text):
        """Check ``den * compose() == num * plain`` for scalar = num/den.

        ``compose`` runs inside the runner, so a composition of
        mismatched shapes is reported, not raised.
        """
        def check():
            lhs = _scaled(compose(), scalar.denominator)
            return None if lhs == _scaled(plain, scalar.numerator) else text
        return check

    for m, n in pairs:
        k = fam.kappa[(m, n)]
        s1 = Fraction(n, gcd(n, m))
        run("eq1:%d,%d" % (m, n),
            law(lambda m=m, k=k: betas[m] @ k, betas[n], s1,
                "beta_%d . kappa[%d,%d] != (%s) beta_%d" % (m, m, n, s1, n)))
        s2 = Fraction(m, gcd(n, m))
        run("eq2:%d,%d" % (m, n),
            law(lambda n=n, k=k: k @ rhos[n], rhos[m], s2,
                "kappa[%d,%d] . rho_%d != (%s) rho_%d" % (m, n, n, s2, m)))

    have = set(fam.kappa)
    triples = sorted((k, m, n) for k in ns for m in ns for n in ns
                     if (k, m) in have and (m, n) in have and (k, n) in have)
    for kk, m, n in triples:
        s3 = Fraction(m * gcd(kk, n), gcd(kk, m) * gcd(m, n))
        run("eq3:%d,%d,%d" % (kk, m, n),
            law(lambda kk=kk, m=m, n=n: fam.kappa[(kk, m)] @ fam.kappa[(m, n)],
                fam.kappa[(kk, n)], s3,
                "kappa[%d,%d] . kappa[%d,%d] != (%s) kappa[%d,%d]"
                % (kk, m, m, n, s3, kk, n)))

    return ValidationReport(results)


def check_family_coherence(fam):
    """Report with the one check ``family-coherence``: sigma_m .
    lambda_{m,n} = kappa_{m,n} . sigma_n for n | m."""
    ns = fam.coefficients
    if fam.sigmas is None:
        raise MissingSigmaError("family carries no sigmas")
    for n in ns:
        if n not in fam.sigmas:
            raise MissingSigmaError("sigma at %d is missing" % n)
    for m, n in ((m, n) for m in ns for n in ns if m != n and m % n == 0):
        if (m, n) not in fam.lam:
            raise MissingMapError("lambda[%d,%d] is missing" % (m, n))
        if (fam.sigmas[m] @ fam.lam[(m, n)]
                != fam.kappa_at(m, n) @ fam.sigmas[n]):
            return ValidationReport([CheckResult(
                "family-coherence", False, "sigma_m . lambda_{m,n} != "
                "kappa_{m,n} . sigma_n for some n | m")])
    return ValidationReport([CheckResult("family-coherence", True, None)])

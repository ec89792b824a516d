"""Finitely generated abelian groups in canonical invariant-factor form.

A group is ``Z/d1 + ... + Z/dk + Z^r`` with d1 | d2 | ... | dk, every
factor at least 2.  Elements are coordinate tuples, torsion coordinates
first (reduced mod their factor), free coordinates last (any integer).
Keeping every group in this one canonical shape makes group equality a
tuple comparison and keeps homomorphisms plain integer matrices.

All arithmetic is exact and done in ``intmat``: subgroups are read off
Hermite forms, abstract groups off Smith forms, and elements and homs
(``hom_preimage``, ``solve_hom``) come from the congruence solver.  A
map is built only where a caller applies it: purity reads the pivots
of a Hermite basis, and compares the invariant factors of groups only
when those pivots do not certify a summand.  Kernels and images are the
module functions ``kernel(f)`` and ``image(f)``.
"""

import itertools
from math import gcd

from . import intmat
from .errors import (
    AmbientMismatchError,
    HomDefinitionError,
    NotSubgroupError,
    SizeBoundError,
)


def _lcm(a, b):
    return a * b // gcd(a, b) if a and b else 0


class FgGroup:
    """A finitely generated abelian group in invariant-factor form."""

    __slots__ = ("invariant_factors", "free_rank")

    def __init__(self, invariant_factors=(), free_rank=0):
        factors = tuple(int(d) for d in invariant_factors)
        for d in factors:
            if d < 2:
                raise ValueError("invariant factors must be >= 2, got %d" % d)
        for a, b in zip(factors, factors[1:]):
            if b % a:
                raise ValueError("broken divisibility chain: %d does not divide %d" % (a, b))
        if free_rank < 0:
            raise ValueError("negative free rank")
        object.__setattr__(self, "invariant_factors", factors)
        object.__setattr__(self, "free_rank", int(free_rank))

    def __setattr__(self, name, value):
        raise AttributeError("FgGroup is immutable")

    @property
    def rank(self):
        """Number of coordinates (torsion factors plus free rank)."""
        return len(self.invariant_factors) + self.free_rank

    @property
    def orders(self):
        """Per-coordinate orders, 0 marking an infinite (free) coordinate."""
        return self.invariant_factors + (0,) * self.free_rank

    def is_torsion_free(self):
        return not self.invariant_factors

    def size(self):
        """Group order, or None when infinite."""
        if self.free_rank:
            return None
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n

    def zero(self):
        return (0,) * self.rank

    def reduce(self, vec):
        """Canonical coordinates: torsion entries into [0, d), frees kept."""
        if len(vec) != self.rank:
            raise ValueError("element has %d coordinates, expected %d"
                             % (len(vec), self.rank))
        orders = self.orders
        return tuple(int(x) % d if d else int(x) for x, d in zip(vec, orders))

    def add(self, a, b):
        return self.reduce([x + y for x, y in zip(a, b)])

    def sub(self, a, b):
        return self.reduce([x - y for x, y in zip(a, b)])

    def scale(self, k, a):
        return self.reduce([k * x for x in a])

    def gens(self):
        """Standard generators, one per coordinate."""
        return [tuple(1 if j == i else 0 for j in range(self.rank))
                for i in range(self.rank)]

    def element_order(self, vec):
        """Order of an element; 0 means infinite."""
        vec = self.reduce(vec)
        n = 1
        for x, d in zip(vec, self.orders):
            if x == 0:
                continue
            if d == 0:
                return 0
            n = _lcm(n, d // gcd(d, x))
        return n

    def elements(self):
        """All elements in lexicographic coordinate order (finite only)."""
        if self.free_rank:
            raise SizeBoundError("cannot enumerate an infinite group")
        return (tuple(t) for t in
                itertools.product(*(range(d) for d in self.invariant_factors)))

    def __eq__(self, other):
        return (isinstance(other, FgGroup)
                and self.invariant_factors == other.invariant_factors
                and self.free_rank == other.free_rank)

    def __hash__(self):
        return hash((self.invariant_factors, self.free_rank))

    def __repr__(self):
        if self.rank == 0:
            return "FgGroup(0)"
        parts = ["Z/%d" % d for d in self.invariant_factors]
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append("Z^%d" % self.free_rank)
        return "FgGroup(%s)" % " + ".join(parts)


def _presentation(rel, gens):
    """Cokernel data for a relation matrix (rows are relations).

    Returns ``(group, proj, lift)`` where ``proj`` (group.rank x gens)
    sends generator-exponent vectors to group coordinates, ``lift``
    (gens x group.rank) is an integer section with proj @ lift = I.
    """
    mat = intmat.transpose(rel, gens)
    d, u, uinv = intmat.smith_form(mat, cols=len(rel))
    diag = intmat.smith_diagonal(d) + [0] * gens
    kept = [i for i in range(gens) if diag[i] != 1]
    factors = tuple(diag[i] for i in kept if diag[i] > 1)
    free = sum(1 for i in kept if diag[i] == 0)
    group = FgGroup(factors, free)
    proj = [u[i][:] for i in kept]
    lift = [[uinv[r][i] for i in kept] for r in range(gens)]
    return group, proj, lift


class GroupHom:
    """Homomorphism between FgGroups, stored as an integer matrix.

    ``matrix`` has one row per codomain coordinate and one column per
    domain generator; column j holds the coordinates of the image of
    generator j.  Construction verifies the relations are respected and
    normalizes entries modulo the codomain orders.
    """

    __slots__ = ("domain", "codomain", "matrix")

    def __init__(self, domain, codomain, matrix):
        rows, cols = codomain.rank, domain.rank
        if len(matrix) != rows or any(len(row) != cols for row in matrix):
            raise HomDefinitionError(
                "matrix shape does not match %dx%d" % (rows, cols))
        cod_orders = codomain.orders
        dom_orders = domain.orders
        norm = []
        for i in range(rows):
            e = cod_orders[i]
            norm.append(tuple([int(x) % e for x in matrix[i]] if e
                              else [int(x) for x in matrix[i]]))
        for j in range(cols):
            d = dom_orders[j]
            if d == 0:
                continue
            for i in range(rows):
                e = cod_orders[i]
                bad = (norm[i][j] * d % e) if e else (norm[i][j] * d)
                if bad:
                    raise HomDefinitionError(
                        "entry (%d,%d) breaks relation: %d * order %d != 0 "
                        "mod %s" % (i, j, norm[i][j], d, e or "0 (free)"))
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "matrix", tuple(norm))

    def __setattr__(self, name, value):
        raise AttributeError("GroupHom is immutable")

    @classmethod
    def identity(cls, group):
        return cls(group, group, intmat.identity(group.rank))

    @classmethod
    def zero(cls, domain, codomain):
        return cls(domain, codomain, intmat.zeros(codomain.rank, domain.rank))

    @classmethod
    def from_images(cls, domain, codomain, images):
        """Build a hom from the list of generator images."""
        if len(images) != domain.rank:
            raise HomDefinitionError("need %d generator images, got %d"
                                     % (domain.rank, len(images)))
        matrix = [[int(img[i]) for img in images] for i in range(codomain.rank)]
        return cls(domain, codomain, matrix)

    def __call__(self, vec):
        vec = self.domain.reduce(vec)
        return self.codomain.reduce(intmat.matvec(self.matrix, list(vec)))

    def __matmul__(self, other):
        if not isinstance(other, GroupHom):
            return NotImplemented
        if other.codomain != self.domain:
            raise AmbientMismatchError("composition domains do not line up")
        prod = intmat.matmul(self.matrix, other.matrix,
                             bcols=other.domain.rank)
        if not prod:
            prod = intmat.zeros(self.codomain.rank, other.domain.rank)
        return GroupHom(other.domain, self.codomain, prod)

    def __add__(self, other):
        if not isinstance(other, GroupHom):
            return NotImplemented
        if other.domain != self.domain or other.codomain != self.codomain:
            raise AmbientMismatchError("sum of homs with different ends")
        return GroupHom(self.domain, self.codomain,
                        [[a + b for a, b in zip(r1, r2)]
                         for r1, r2 in zip(self.matrix, other.matrix)])

    def __neg__(self):
        return GroupHom(self.domain, self.codomain,
                        [[-a for a in row] for row in self.matrix])

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        return (isinstance(other, GroupHom)
                and self.domain == other.domain
                and self.codomain == other.codomain
                and self.matrix == other.matrix)

    def __hash__(self):
        return hash((self.domain, self.codomain, self.matrix))

    def __repr__(self):
        return "GroupHom(%r -> %r, %r)" % (self.domain, self.codomain,
                                           [list(r) for r in self.matrix])

    def is_injective(self):
        return kernel(self).is_zero()

    def is_surjective(self):
        return image(self).is_full()

    def is_iso(self):
        return self.is_injective() and self.is_surjective()

    def inverse(self):
        """Exact two-sided inverse; raises if the hom is not an iso."""
        points = [(self(e), e) for e in self.domain.gens()]
        inv = solve_hom(self.codomain, self.domain, point_constraints=points,
                        left_constraints=[(self, GroupHom.identity(self.codomain))])
        if inv is None:
            raise HomDefinitionError("hom is not invertible")
        return inv


class Subgroup:
    """Subgroup of an FgGroup, canonicalized for equality and hashing.

    ``generators`` always holds the canonical Hermite-reduced generating
    rows of the coordinate lattice (original generators plus the ambient
    relations), so two subgroups are equal iff the tuples match.
    """

    __slots__ = ("ambient", "generators", "_group_cache")

    def __init__(self, ambient, gens):
        n = ambient.rank
        rows = []
        for g in gens:
            if len(g) != n:
                raise AmbientMismatchError(
                    "generator has %d coordinates, ambient rank is %d"
                    % (len(g), n))
            rows.append([int(x) for x in g])
        for i, d in enumerate(ambient.orders):
            if d:
                row = [0] * n
                row[i] = d
                rows.append(row)
        basis = intmat.hnf_nonzero(rows, cols=n)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "generators", tuple(tuple(r) for r in basis))
        object.__setattr__(self, "_group_cache", [None])

    def __setattr__(self, name, value):
        raise AttributeError("Subgroup is immutable")

    @classmethod
    def zero(cls, ambient):
        return cls(ambient, [])

    @classmethod
    def full(cls, ambient):
        return cls(ambient, ambient.gens())

    def contains(self, vec):
        if len(vec) != self.ambient.rank:
            raise AmbientMismatchError("element size does not match ambient")
        return intmat.lattice_contains(list(vec), self.generators)

    __contains__ = contains

    def _check_ambient(self, other):
        if not isinstance(other, Subgroup) or other.ambient != self.ambient:
            raise AmbientMismatchError("subgroups live in different ambients")

    def __le__(self, other):
        self._check_ambient(other)
        return all(other.contains(row) for row in self.generators)

    def __eq__(self, other):
        return (isinstance(other, Subgroup)
                and self.ambient == other.ambient
                and self.generators == other.generators)

    def __hash__(self):
        return hash((self.ambient, self.generators))

    def __repr__(self):
        return "Subgroup(%r, %r)" % (self.ambient,
                                     [list(r) for r in self.generators])

    def is_zero(self):
        # the canonical basis of the zero subgroup is the relation rows
        # d_i·e_i, one per torsion coordinate in column order
        return self.generators == tuple(
            tuple(d * x for x in e) for d, e in
            zip(self.ambient.invariant_factors, self.ambient.gens()))

    def is_full(self):
        # the canonical basis of the whole group is the identity rows
        return self.generators == tuple(self.ambient.gens())

    def join(self, other):
        self._check_ambient(other)
        return Subgroup(self.ambient,
                        list(self.generators) + list(other.generators))

    def meet(self, other):
        """Intersection by Zassenhaus's method: the pairs ``(b, b)``
        (b in self) and rows c of other span the vectors ``[b + c | b]``,
        whose left half is zero exactly when ``b = -c`` lies in both."""
        self._check_ambient(other)
        n = self.ambient.rank
        return Subgroup(self.ambient, _zassenhaus(
            [(b, b) for b in self.generators], other.generators, n, n))

    def as_group(self):
        """The subgroup as an abstract group with its inclusion.

        Returns ``(group, incl, project)``: ``incl`` is an injective
        GroupHom into the ambient group, ``project`` maps coordinates of
        a member to group coordinates (returning None on a non-member),
        and ``project(incl(x)) = x``.
        """
        if self._group_cache[0] is None:
            self._group_cache[0] = self._compute_group()
        return self._group_cache[0]

    def _compute_group(self):
        basis = self.generators
        k = len(basis)
        n = self.ambient.rank
        bt = intmat.transpose(basis, n) if k else intmat.zeros(n, 0)

        def coords(vec):
            rest, coeffs = intmat.reduce_vector(vec, basis, track=True)
            return None if any(rest) else coeffs

        rel = []
        for i, d in enumerate(self.ambient.orders):
            if not d:
                continue
            c = coords([d if j == i else 0 for j in range(n)])
            if c is None:
                raise NotSubgroupError("ambient relation escaped the lattice")
            rel.append(c)
        group, proj, lift = _presentation(rel, gens=k)
        incl_mat = intmat.matmul(bt, lift, bcols=group.rank)
        if not incl_mat:
            incl_mat = intmat.zeros(n, group.rank)
        incl = GroupHom(group, self.ambient, incl_mat)

        def project(vec):
            c = coords(vec)
            if c is None:
                return None
            return group.reduce(intmat.matvec(proj, c) if group.rank else [])

        return group, incl, project

    def is_pure(self):
        """Purity from the pivots of the canonical basis, else by
        comparing invariant factors.

        A subgroup H of a finitely generated G is pure iff it is a direct
        summand, and by Miyata (J. Math. Kyoto Univ. 7, 1967) that holds
        iff G is isomorphic to H + G/H, which canonical forms compare.
        That takes three Smith forms, so it runs only when this cheaper
        certificate fails: every row of ``generators`` has its pivot
        equal to 1 or to the ambient order d_p at its column.  Then H is
        a summand.  Let S be the unit-pivot columns and K the span of the
        e_j with j not in S.

        * A pivot equal to d_j belongs to the bare relation row d_j·e_j,
          because the canonical Hermite form is unique.
        * A unit-pivot row is r = e_p + s with s zero on S: Hermite
          reduction above a pivot of 1 leaves 0.  So H + K = G.
        * A lattice vector that is zero on S is a combination of the
          bare rows alone, as its coefficient on a unit row is its entry
          at that row's pivot.  At a torsion p in S, d_p·e_p - d_p·r is
          such a vector, so d_p·r = 0 in G.
        * A member of H that lies in K has coefficient a_r = 0 mod d_p on
          each unit row (a_r = 0 at a free pivot), so it is 0 in G.  So
          H meet K = 0.
        """
        orders = self.ambient.orders
        j = 0
        for row in self.generators:
            while not row[j]:
                j += 1
            if row[j] != 1 and row[j] != orders[j]:
                break
            j += 1
        else:
            return True
        quo = _presentation(self.generators, gens=self.ambient.rank)[0]
        return _sum_presentation([self.as_group()[0], quo])[0] == self.ambient


# --- kernels, images, preimages ----------------------------------------

def _zassenhaus(pairs, extra, left, right):
    """Right halves of the Hermite rows whose left half is zero.

    The rows are ``[a | b]`` per pair ``(a, b)`` and ``[c | 0]`` per
    extra row c.  In echelon form those with zero left half span every
    lattice vector with zero left half (Cohen, GTM 138, 2.4).
    """
    rows = [list(a) + list(b) for a, b in pairs]
    rows += [list(c) + [0] * right for c in extra]
    h = intmat.hnf_nonzero(rows, cols=left + right)
    return [row[left:] for row in h if not any(row[:left])]


def kernel(f):
    """Kernel of a hom: the preimage of the zero subgroup."""
    return preimage_subgroup(f, Subgroup.zero(f.codomain))


def image(f):
    """Image of a hom as a canonical subgroup of its codomain."""
    return Subgroup(f.codomain, intmat.transpose(f.matrix, f.domain.rank))


def image_subgroup(f, sub):
    """Image of a subgroup of the domain under a hom, as plain integer
    products: ``Subgroup`` reduces them modulo the codomain relations."""
    if sub.ambient != f.domain:
        raise AmbientMismatchError("subgroup does not live in the hom domain")
    return Subgroup(f.codomain,
                    [intmat.matvec(f.matrix, g) for g in sub.generators])


def preimage_subgroup(f, sub):
    """Full preimage of a codomain subgroup, by Zassenhaus's method.

    The pairs ``(f(e_j), e_j)`` and the rows c of sub span the vectors
    ``[f(x) + c | x]``.  Sub's rows include the codomain relations, so
    the left half is zero exactly when f(x) lies in sub.
    """
    if sub.ambient != f.codomain:
        raise AmbientMismatchError("subgroup does not live in the hom codomain")
    pairs = zip(intmat.transpose(f.matrix, f.domain.rank), f.domain.gens())
    return Subgroup(f.domain, _zassenhaus(
        pairs, sub.generators, f.codomain.rank, f.domain.rank))


# --- the coefficient functors ------------------------------------------

def _tensor_kept(group, n):
    """(original coordinate, new modulus) pairs surviving tensoring with Z/n."""
    kept = []
    for i, d in enumerate(group.orders):
        g = gcd(d, n) if d else n
        if g > 1:
            kept.append((i, g))
    return kept


def tensor_zmod(group, n):
    """``G (x) Z/n`` with the natural surjection from G.

    Torsion Z/d becomes Z/gcd(d, n); free coordinates become Z/n;
    coprime torsion dies.
    """
    if n < 1:
        raise ValueError("modulus must be positive")
    kept = _tensor_kept(group, n)
    tensor = FgGroup(tuple(g for _, g in kept))
    rows = [[1 if j == i else 0 for j in range(group.rank)] for i, _ in kept]
    return tensor, GroupHom(group, tensor, rows)


def induced_tensor_hom(f, n):
    """The functorial map ``f (x) id`` on tensored groups."""
    ta, _ = tensor_zmod(f.domain, n)
    tb, _ = tensor_zmod(f.codomain, n)
    kept_a = _tensor_kept(f.domain, n)
    kept_b = _tensor_kept(f.codomain, n)
    rows = [[f.matrix[i][j] for j, _ in kept_a] for i, _ in kept_b]
    return GroupHom(ta, tb, rows)


def _torsion_kept(group, n):
    """(original coordinate, new modulus) pairs of the coordinates
    carrying G[n]: torsion Z/d with gcd(d, n) > 1 becomes Z/gcd(d, n)."""
    return [(i, gcd(d, n)) for i, d in enumerate(group.orders)
            if d and gcd(d, n) > 1]


def n_torsion_group(group, n):
    """``G[n]`` as an abstract group with its inclusion.

    Coordinates line up with the torsion coordinates of G that meet n;
    generator t includes as (d/gcd(d,n)) times the ambient generator.
    """
    if n < 1:
        raise ValueError("modulus must be positive")
    kept = _torsion_kept(group, n)
    tors = FgGroup(tuple(g for _, g in kept))
    rows = []
    for i in range(group.rank):
        row = []
        for orig, g in kept:
            row.append(group.orders[orig] // g if orig == i else 0)
        rows.append(row)
    return tors, GroupHom(tors, group, rows)


def induced_torsion_hom(f, n):
    """The functorial restriction ``f[n] : A[n] -> B[n]``.

    f sends n-torsion to n-torsion, so the reduced image of each A[n]
    generator is a multiple of d/gcd(d, n) at each coordinate of
    B[n] (order d) and zero at every other coordinate of B.
    """
    ta, incl_a = n_torsion_group(f.domain, n)
    tb, _ = n_torsion_group(f.codomain, n)
    orders = f.codomain.orders
    kept_b = _torsion_kept(f.codomain, n)
    cols = []
    for gen in ta.gens():
        img = f(incl_a(gen))
        cols.append([img[i] // (orders[i] // g) for i, g in kept_b])
    return GroupHom.from_images(ta, tb, cols)


def _sum_presentation(groups):
    """``_presentation`` of the block-diagonal relations of the groups:
    their direct sum, on the concatenated coordinates."""
    total = sum(g.rank for g in groups)
    rel = []
    offset = 0
    for g in groups:
        for i, d in enumerate(g.orders):
            if d:
                rel.append([d if j == offset + i else 0
                            for j in range(total)])
        offset += g.rank
    return _presentation(rel, gens=total)


def direct_sum(groups):
    """Direct sum with tracked injections and projections.

    Returns ``(G, injections, projections)`` with
    ``proj[k] @ inj[j] = delta_kj`` and ``sum inj[k] @ proj[k] = id``.
    The summands are renormalized into one invariant-factor form.
    """
    groups = list(groups)
    summed, proj, lift = _sum_presentation(groups)
    injections = []
    projections = []
    offset = 0
    for g in groups:
        inj_mat = [[proj[i][offset + j] for j in range(g.rank)]
                   for i in range(summed.rank)]
        proj_mat = [[lift[offset + i][t] for t in range(summed.rank)]
                    for i in range(g.rank)]
        injections.append(GroupHom(g, summed, inj_mat))
        projections.append(GroupHom(summed, g, proj_mat))
        offset += g.rank
    return summed, injections, projections


# --- hom solving --------------------------------------------------------

def solve_hom(domain, codomain, point_constraints=(), left_constraints=()):
    """Find a hom satisfying pointwise and left-composition constraints.

    ``point_constraints`` is a list of ``(a, b)`` pairs demanding
    ``X(a) = b``.  ``left_constraints`` is a list of ``(L, R)`` pairs of
    homs demanding ``L @ X = R`` (L from the codomain, R from the
    domain, into one common target).  Returns the canonical solution
    (lexicographically least generator images) or None.
    """
    rc, rd = codomain.rank, domain.rank
    cod_orders = codomain.orders
    nvars = rc * rd

    def idx(i, j):
        # column-major: all coordinates of the image of generator 0 first
        return j * rc + i

    var_mods = [0] * nvars
    for j in range(rd):
        for i in range(rc):
            var_mods[idx(i, j)] = cod_orders[i]

    rows, rhs, mods = [], [], []

    def add_row(coeffs, b, m):
        rows.append(coeffs)
        rhs.append(b)
        mods.append(m)

    for j, d in enumerate(domain.orders):
        if not d:
            continue
        for i in range(rc):
            row = [0] * nvars
            row[idx(i, j)] = d
            add_row(row, 0, cod_orders[i])

    for a, b in point_constraints:
        a = domain.reduce(a)
        b = codomain.reduce(b)
        for i in range(rc):
            row = [0] * nvars
            for j in range(rd):
                row[idx(i, j)] = a[j]
            add_row(row, b[i], cod_orders[i])

    for lmap, rmap in left_constraints:
        if lmap.domain != codomain or rmap.domain != domain \
                or lmap.codomain != rmap.codomain:
            raise AmbientMismatchError("left constraint ends do not line up")
        w_orders = lmap.codomain.orders
        for r in range(lmap.codomain.rank):
            for j in range(rd):
                row = [0] * nvars
                for i in range(rc):
                    row[idx(i, j)] = lmap.matrix[r][i]
                add_row(row, rmap.matrix[r][j], w_orders[r])

    res = intmat.solve_congruences(rows, rhs, mods, nvars, var_mods)
    if res is None:
        return None
    sol = res[0]
    matrix = [[sol[idx(i, j)] for j in range(rd)] for i in range(rc)]
    return GroupHom(domain, codomain, matrix)


def hom_preimage(f, target):
    """Canonical preimage of one element under a hom, or None."""
    target = f.codomain.reduce(target)
    res = intmat.solve_congruences(
        f.matrix, list(target), list(f.codomain.orders),
        f.domain.rank, list(f.domain.orders))
    if res is None:
        return None
    return f.domain.reduce(res[0])

"""Exact integer matrices: Smith and Hermite forms, one congruence solver.

Subgroups are read off Hermite forms, abstract groups off Smith forms,
and only elements and homs are solved for.  Matrices are plain lists of
lists of Python ints, row major, so every computation is exact at any
size.  A zero-row matrix carries no column count of its own, so most
functions accept an explicit ``cols`` argument for that case.

Conventions used throughout the package:

* ``smith_form`` returns ``(d, u, uinv)`` with ``d = u @ mat @ v``
  diagonal for some unimodular ``v`` that is not kept, the diagonal
  nonnegative, each entry dividing the next.
* ``hnf_rows`` returns the canonical row Hermite form: positive pivots,
  entries above a pivot reduced into ``[0, pivot)``, zero rows at the
  bottom.  Two row sets span the same lattice iff their canonical forms
  agree.
* ``solve_congruences`` returns a canonical solution of a mixed system
  of congruences and equations: the lexicographically least admissible
  tuple whenever every variable carries a finite modulus.
"""

from operator import mul


def shape(mat, cols=None):
    """Return ``(rows, cols)``, validating that ``mat`` is rectangular."""
    r = len(mat)
    if r:
        c = len(mat[0])
        for row in mat:
            if len(row) != c:
                raise ValueError("ragged matrix")
        if cols is not None and cols != c:
            raise ValueError("column count mismatch: %d != %d" % (cols, c))
        return r, c
    if cols is None:
        raise ValueError("zero-row matrix needs an explicit column count")
    return 0, cols


def zeros(r, c):
    return [[0] * c for _ in range(r)]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def clone(mat):
    return [row[:] for row in mat]


def transpose(mat, cols=None):
    r, c = shape(mat, cols)
    return [[mat[i][j] for i in range(r)] for j in range(c)]


def matmul(a, b, bcols=None):
    """Exact product of two integer matrices.

    ``bcols`` is required when the inner dimension is zero (``b`` then
    has no rows to infer a width from).
    """
    ra = len(a)
    if ra == 0:
        return []
    k = len(a[0])
    if k == 0:
        if bcols is None:
            raise ValueError("empty inner dimension needs bcols")
        return zeros(ra, bcols)
    rb, cb = shape(b, bcols)
    if rb != k:
        raise ValueError("dimension mismatch: %dx%d @ %dx%d" % (ra, k, rb, cb))
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def matvec(a, vec):
    if a and len(a[0]) != len(vec):
        raise ValueError("dimension mismatch in matvec")
    return [sum(map(mul, row, vec)) for row in a]


def hnf_rows(mat, cols=None, transform=True):
    """Canonical row Hermite normal form with its transformation.

    Returns ``(h, u)`` where ``h = u @ mat``, ``u`` is unimodular, pivots
    of ``h`` are positive with entries above each pivot reduced into
    ``[0, pivot)``, and zero rows sit at the bottom.  With ``transform``
    off no ``u`` is built and ``(h, None)`` is returned.  Every row
    update starts at the pivot column, since the pivot row is zero to
    its left.

    >>> h, u = hnf_rows([[2, 4], [6, 8]])
    >>> h
    [[2, 0], [0, 4]]
    """
    r, c = shape(mat, cols)
    h = clone(mat)
    u = identity(r) if transform else None

    def row_sub(i, k, q, col):
        hi, hk = h[i], h[k]
        for j in range(col, c):
            hi[j] -= q * hk[j]
        if transform:
            ui, uk = u[i], u[k]
            for j in range(r):
                ui[j] -= q * uk[j]

    cur = 0
    for col in range(c):
        if cur == r:
            break
        while True:
            best = -1
            for i in range(cur, r):
                val = h[i][col]
                if val and (best < 0 or abs(val) < abs(h[best][col])):
                    best = i
            if best < 0:
                break
            if best != cur:
                h[cur], h[best] = h[best], h[cur]
                if transform:
                    u[cur], u[best] = u[best], u[cur]
            if h[cur][col] < 0:
                h[cur] = [-x for x in h[cur]]
                if transform:
                    u[cur] = [-x for x in u[cur]]
            pivot = h[cur][col]
            clean = True
            for i in range(cur + 1, r):
                if h[i][col]:
                    row_sub(i, cur, h[i][col] // pivot, col)
                    if h[i][col]:
                        clean = False
            if clean:
                for i in range(cur):
                    if h[i][col]:
                        row_sub(i, cur, h[i][col] // pivot, col)
                cur += 1
                break
    return h, u


def hnf_nonzero(rows, cols=None):
    """Nonzero rows of the canonical Hermite form: the lattice's id card."""
    h, _ = hnf_rows(rows, cols, transform=False)
    return [row for row in h if any(row)]


def smith_form(mat, cols=None):
    """Smith normal form with the row transformation and its inverse.

    Returns ``(d, u, uinv)`` where ``d = u @ mat @ v`` for some
    unimodular ``v`` is diagonal with nonnegative entries, each dividing
    the next, and ``uinv`` is the exact inverse of ``u``.  No caller
    reads ``v``, so column operations are applied to ``d`` alone; ``u @
    mat`` and ``d`` span the same column lattice.

    Pivot choice is pinned for determinism: the nonzero entry of least
    absolute value, ties broken by lowest ``(row, col)``.

    >>> d, u, uinv = smith_form([[2, 4], [6, 8]])
    >>> [d[0][0], d[1][1]]
    [2, 4]
    >>> matmul(u, uinv) == identity(2)
    True
    """
    r, c = shape(mat, cols)
    d = clone(mat)
    u, uinv = identity(r), identity(r)

    def row_swap(i, k):
        d[i], d[k] = d[k], d[i]
        u[i], u[k] = u[k], u[i]
        for row in uinv:
            row[i], row[k] = row[k], row[i]

    def row_neg(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]
        for row in uinv:
            row[i] = -row[i]

    def row_sub(i, k, q):
        di, dk = d[i], d[k]
        for j in range(c):
            di[j] -= q * dk[j]
        ui, uk = u[i], u[k]
        for j in range(r):
            ui[j] -= q * uk[j]
        for row in uinv:
            row[k] += q * row[i]

    def col_swap(j, l):
        for row in d:
            row[j], row[l] = row[l], row[j]

    def col_sub(j, l, q):
        for row in d:
            row[j] -= q * row[l]

    def find_pivot(t):
        # a unit cannot be beaten, and the scan is in (row, col) order
        bi = bj = -1
        for i in range(t, r):
            for j in range(t, c):
                val = d[i][j]
                if val and (bi < 0 or abs(val) < abs(d[bi][bj])):
                    if val in (1, -1):
                        return i, j
                    bi, bj = i, j
        return bi, bj

    t = 0
    while t < r and t < c:
        bi, bj = find_pivot(t)
        if bi < 0:
            break
        if bi != t:
            row_swap(t, bi)
        if bj != t:
            col_swap(t, bj)
        while True:
            if d[t][t] < 0:
                row_neg(t)
            pivot = d[t][t]
            clean = True
            for i in range(t + 1, r):
                if d[i][t]:
                    row_sub(i, t, d[i][t] // pivot)
                    if d[i][t]:
                        clean = False
            for j in range(t + 1, c):
                if d[t][j]:
                    col_sub(j, t, d[t][j] // pivot)
                    if d[t][j]:
                        clean = False
            if not clean:
                bi, bj = find_pivot(t)
                if bi != t:
                    row_swap(t, bi)
                if bj != t:
                    col_swap(t, bj)
                continue
            bad = -1
            for i in range(t + 1, r):
                for j in range(t + 1, c):
                    if d[i][j] % pivot:
                        bad = i
                        break
                if bad >= 0:
                    break
            if bad < 0:
                break
            row_sub(t, bad, -1)
        t += 1
    return d, u, uinv


def smith_diagonal(d):
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


def column_echelon(mat, cols=None):
    """Column echelon form ``h = mat @ v`` with unimodular ``v``.

    Returns ``(h, v, pivots)``; ``pivots`` lists ``(row, col)`` of each
    pivot with both coordinates strictly increasing, and the columns of
    ``v`` past the last pivot form a basis of the integer kernel.
    """
    r, c = shape(mat, cols)
    ht, ut = hnf_rows(transpose(mat, c), cols=r)
    h = transpose(ht, cols=r)
    v = transpose(ut, cols=c)
    pivots = []
    pj = 0
    for k in range(c):
        while pj < r and not ht[k][pj]:
            pj += 1
        if pj == r:
            break
        pivots.append((pj, k))
        pj += 1
    return h, v, pivots


def _solve_echelon(h, pivots, rhs):
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


def reduce_vector(vec, basis, track=False):
    """Reduce ``vec`` by canonical-HNF ``basis`` rows, left to right.

    Returns the reduced vector, or ``(reduced, coeffs)`` with one
    quotient per basis row when ``track`` is set.  Against a canonical
    Hermite basis the result is the unique representative of the coset
    ``vec + lattice`` whose pivot coordinates lie in ``[0, pivot)``, and
    reduction to zero is exactly lattice membership.  The basis rows are
    independent, so the quotients of a member are its unique coordinates.
    Basis rows must be nonzero, as ``hnf_nonzero`` and
    ``Subgroup.generators`` guarantee; their pivots strictly increase, so
    each pivot search resumes after the previous one.  A zero quotient,
    as from a zero entry at the pivot, skips the row.
    """
    w = list(vec)
    coeffs = []
    pj = 0
    for row in basis:
        while not row[pj]:
            pj += 1
        x = w[pj]
        q = x // row[pj] if x else 0
        if q:
            for j in range(pj, len(row)):
                w[j] -= q * row[j]
        coeffs.append(q)
        pj += 1
    if track:
        return w, coeffs
    return w


def lattice_contains(vec, basis):
    return not any(reduce_vector(vec, basis))


def solve_congruences(rows, rhs, row_mods, nvars, var_mods):
    """Canonical solution of a mixed linear system over the integers.

    Row ``i`` imposes ``sum_j rows[i][j] * x[j] == rhs[i]`` modulo
    ``row_mods[i]``, where modulus 0 means equality over the integers.
    Solutions are taken modulo ``var_mods[j]`` per variable (0 = free).

    Returns ``(sol, lattice)`` or None when inconsistent.  ``lattice``
    holds canonical-HNF generators of the homogeneous solution set
    (variable moduli folded in), so the full solution set is
    ``sol + lattice``.  ``sol`` is the unique reduced representative;
    with all variable moduli finite it is the lexicographically least
    admissible tuple.

    >>> solve_congruences([[1]], [1], [2], 1, [4])
    ([1], [[2]])
    """
    m = len(rows)
    if len(rhs) != m or len(row_mods) != m:
        raise ValueError("system shape mismatch")
    if len(var_mods) != nvars:
        raise ValueError("var_mods length mismatch")
    for i in range(m):
        for j in range(nvars):
            # each row must be well defined on Z/var_mods[j]; otherwise
            # folding the variable modulus into the lattice is unsound
            wrap = rows[i][j] * var_mods[j]
            if row_mods[i]:
                wrap %= row_mods[i]
            if wrap:
                raise ValueError(
                    "row %d is not defined modulo variable %d" % (i, j))
    slack = [i for i in range(m) if row_mods[i]]
    width = nvars + len(slack)
    amat = [list(rows[i]) + [0] * len(slack) for i in range(m)]
    for k, i in enumerate(slack):
        amat[i][nvars + k] = row_mods[i]

    h, v, pivots = column_echelon(amat, cols=width)
    y = _solve_echelon(h, pivots, rhs)
    if y is None:
        return None
    yvec = [y.get(k, 0) for k in range(width)]
    full = matvec(v, yvec) if m else [0] * width
    part = full[:nvars]

    gens = [[v[i][k] for i in range(nvars)] for k in range(len(pivots), width)]
    for j in range(nvars):
        if var_mods[j]:
            gens.append([var_mods[j] if jj == j else 0 for jj in range(nvars)])
    lattice = hnf_nonzero(gens, cols=nvars)
    return reduce_vector(part, lattice), lattice

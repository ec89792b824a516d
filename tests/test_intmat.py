"""Tests for the exact integer matrix kernel.

Every nontrivial expected value is checked against an oracle computed
independently in this file: cofactor determinants, gcds of k x k minors
(the classical invariant-factor characterization), and brute-force
enumeration of congruence solutions.  The implementation is never used
to certify itself.
"""

import hashlib
import itertools
import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealsplit import fixtures, intmat
from oracles import (column_lattice, full_scan_reduce, kernel_columns,
                     solve_columns)
from test_kunneth import boolean_instance


# --- oracles -----------------------------------------------------------

def det_oracle(mat):
    """Cofactor-expansion determinant, exact, for small square matrices."""
    n = len(mat)
    if n == 0:
        return 1
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        if mat[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        sign = 1 if j % 2 == 0 else -1
        total += sign * mat[0][j] * det_oracle(minor)
    return total


def minors_gcd_oracle(mat, rows, cols, k):
    """gcd of all k x k minors (0 if all vanish)."""
    g = 0
    for ridx in itertools.combinations(range(rows), k):
        for cidx in itertools.combinations(range(cols), k):
            sub = [[mat[i][j] for j in cidx] for i in ridx]
            g = math.gcd(g, det_oracle(sub))
    return g


def invariant_factors_oracle(mat, rows, cols):
    """Diagonal of the Smith form via the minor-gcd characterization."""
    facs = []
    g_prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = minors_gcd_oracle(mat, rows, cols, k)
        if g == 0:
            break
        facs.append(g // g_prev)
        g_prev = g
    return facs + [0] * (min(rows, cols) - len(facs))


def is_unimodular(mat):
    return abs(det_oracle(mat)) == 1


def random_matrix(rng, rows, cols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def random_row_mix(rng, mat, rows, cols, ops=8):
    """Apply random invertible integer row operations."""
    out = [row[:] for row in mat]
    for _ in range(ops):
        kind = rng.randrange(3)
        i, k = rng.randrange(rows), rng.randrange(rows)
        if kind == 0 and i != k:
            out[i], out[k] = out[k], out[i]
        elif kind == 1:
            out[i] = [-x for x in out[i]]
        elif i != k:
            t = rng.randint(-3, 3)
            out[i] = [a + t * b for a, b in zip(out[i], out[k])]
    return out


# --- smith form --------------------------------------------------------

def test_products_match_the_triple_loop_seeded():
    # matmul and matvec against index-by-index sums, on random shapes
    # with empty ones and entries past a machine word
    rng = random.Random(0x3A7)
    for _ in range(300):
        rows, inner, cols = (rng.randint(0, 5) for _ in range(3))
        size = 10 ** rng.choice((1, 30))
        a = random_matrix(rng, rows, inner, -size, size)
        b = random_matrix(rng, inner, cols, -size, size)
        vec = [rng.randint(-size, size) for _ in range(inner)]
        assert intmat.matmul(a, b, bcols=cols) == [
            [sum(a[i][t] * b[t][j] for t in range(inner))
             for j in range(cols)] for i in range(rows)]
        assert intmat.matvec(a, vec) == [
            sum(a[i][t] * vec[t] for t in range(inner)) for i in range(rows)]
    with pytest.raises(ValueError, match="dimension mismatch"):
        intmat.matmul([[1, 2]], [[1], [2], [3]])
    with pytest.raises(ValueError, match="bcols"):
        intmat.matmul([[]], [])
    assert intmat.matmul([[], []], [], bcols=3) == intmat.zeros(2, 3)
    with pytest.raises(ValueError, match="dimension mismatch"):
        intmat.matvec([[1, 2]], [1])


def test_smith_frozen_example():
    mat = [[2, 4], [6, 8]]
    d, u, uinv = intmat.smith_form(mat)
    # oracle: gcd of entries is 2, |det| = 8, so factors are (2, 4)
    assert invariant_factors_oracle(mat, 2, 2) == [2, 4]
    assert intmat.smith_diagonal(d) == [2, 4]
    assert column_lattice(intmat.matmul(u, mat), 2, 2) \
        == column_lattice(d, 2, 2)
    assert intmat.matmul(u, uinv) == intmat.identity(2)


def test_smith_rank_deficient():
    mat = [[2, 4], [1, 2]]
    d, u, uinv = intmat.smith_form(mat)
    assert intmat.smith_diagonal(d) == invariant_factors_oracle(mat, 2, 2) == [1, 0]
    assert column_lattice(intmat.matmul(u, mat), 2, 2) \
        == column_lattice(d, 2, 2)
    assert intmat.matmul(u, uinv) == intmat.identity(2)


def test_smith_empty_and_zero():
    d, u, uinv = intmat.smith_form([], cols=3)
    assert d == [] and u == [] and uinv == []
    d, u, uinv = intmat.smith_form([[], []], cols=0)
    assert d == [[], []] and u == uinv == intmat.identity(2)
    d, *_ = intmat.smith_form(intmat.zeros(2, 3))
    assert intmat.smith_diagonal(d) == [0, 0]


def test_smith_matches_minor_oracle_seeded():
    rng = random.Random(0x5EED0)
    for _ in range(120):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        mat = random_matrix(rng, rows, cols)
        d, u, uinv = intmat.smith_form(mat)
        diag = intmat.smith_diagonal(d)
        assert diag == invariant_factors_oracle(mat, rows, cols)
        # divisibility chain and sign
        for a, b in zip(diag, diag[1:]):
            assert a >= 0 and (a == 0 or b % a == 0)
        # u is exact and invertible, and some unimodular v has
        # u @ mat @ v == d
        assert column_lattice(intmat.matmul(u, mat), rows, cols) \
            == column_lattice(d, rows, cols)
        assert intmat.matmul(u, uinv) == intmat.identity(rows)
        assert intmat.matmul(uinv, u) == intmat.identity(rows)
        assert is_unimodular(u)


def test_smith_deterministic():
    mat = [[4, 6, 2], [0, 3, 9], [5, 5, 5]]
    first = intmat.smith_form(mat)
    second = intmat.smith_form([row[:] for row in mat])
    assert first == second


def test_smith_transforms_are_pinned():
    # the invariant tests above accept any valid (d, u, uinv); this pins
    # the exact triples, so a change in pivot order shows: sha256 over
    # 400 seeded matrices up to 7 x 7, rich in units and zeros
    digest = hashlib.sha256()
    for seed in range(400):
        rng = random.Random(seed)
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        mat = [[rng.choice((-4, -2, -1, 0, 0, 0, 1, 2, 3, 6))
                for _ in range(cols)] for _ in range(rows)]
        digest.update(repr(intmat.smith_form(mat)).encode())
    assert digest.hexdigest() == ("f2b148b860e9693c116eb6b037a94194"
                                  "20bf1529f51dd093ce50d9fbcb950e95")


# --- hermite form ------------------------------------------------------

def assert_canonical_hnf(h):
    pivots = []
    seen_zero = False
    for i, row in enumerate(h):
        pj = next((j for j in range(len(row)) if row[j]), None)
        if pj is None:
            seen_zero = True
            continue
        assert not seen_zero, "zero row above a nonzero row"
        assert row[pj] > 0
        if pivots:
            assert pj > pivots[-1][1]
        pivots.append((i, pj))
    for i, pj in pivots:
        p = h[i][pj]
        for k in range(i):
            assert 0 <= h[k][pj] < p
    return pivots


def test_hnf_frozen_example():
    h, u = intmat.hnf_rows([[2, 4], [6, 8]])
    # by hand: (6,8) - 3*(2,4) = (0,-4); normalize; reduce (2,4) above
    assert h == [[2, 0], [0, 4]]
    assert intmat.matmul(u, [[2, 4], [6, 8]]) == h
    assert is_unimodular(u)


def test_hnf_canonical_shape_seeded():
    rng = random.Random(0x5EED1)
    for _ in range(120):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        mat = random_matrix(rng, rows, cols)
        h, u = intmat.hnf_rows(mat)
        assert_canonical_hnf(h)
        assert intmat.matmul(u, mat) == h
        assert is_unimodular(u)
        # the same rows without the transform
        assert intmat.hnf_rows(mat, transform=False) == (h, None)
        assert intmat.hnf_nonzero(mat) == [row for row in h if any(row)]


def test_hnf_matches_sympy():
    # sympy orders its Hermite form differently, so compare lattices:
    # canonicalize sympy's rows and ask for the same id card
    from sympy import Matrix
    from sympy.matrices.normalforms import hermite_normal_form
    rng = random.Random(0x5EED7)
    for _ in range(299):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        mat = random_matrix(rng, rows, cols)
        theirs = hermite_normal_form(Matrix(mat).T).T.tolist()
        assert intmat.hnf_nonzero(theirs, cols) == intmat.hnf_nonzero(mat)


def test_smith_form_matches_sympy():
    # sympy at test time only: its Smith form over ZZ must carry our
    # diagonal, on generic, rank-deficient and uniformly scaled matrices
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import smith_normal_form
    rng = random.Random(0x5EED8)
    seen_zero = seen_factor = False
    for k in range(300):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        if k % 3 == 0:
            mat = random_matrix(rng, rows, cols)
        elif k % 3 == 1:
            inner = rng.randint(0, min(rows, cols) - 1)
            mat = intmat.matmul(random_matrix(rng, rows, inner, -3, 3),
                                random_matrix(rng, inner, cols, -3, 3),
                                bcols=cols)
        else:
            scale = rng.choice([2, 3, 4, 6, 12])
            mat = [[scale * x for x in row]
                   for row in random_matrix(rng, rows, cols, -4, 4)]
        theirs = smith_normal_form(Matrix(mat), domain=ZZ)
        diagonal = intmat.smith_diagonal(intmat.smith_form(mat, cols)[0])
        assert diagonal == [theirs[i, i] for i in range(min(rows, cols))]
        seen_zero |= 0 in diagonal
        seen_factor |= any(d > 1 for d in diagonal)
    assert seen_zero and seen_factor


def test_hnf_is_lattice_invariant():
    rng = random.Random(0x5EED2)
    for _ in range(60):
        rows, cols = rng.randint(2, 4), rng.randint(1, 4)
        mat = random_matrix(rng, rows, cols)
        mixed = random_row_mix(rng, mat, rows, cols)
        assert intmat.hnf_nonzero(mat, cols) == intmat.hnf_nonzero(mixed, cols)


def test_hnf_idempotent():
    rng = random.Random(0x5EED3)
    for _ in range(40):
        mat = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        h, _ = intmat.hnf_rows(mat)
        h2, _ = intmat.hnf_rows(h)
        assert h == h2


def test_reduce_vector_membership():
    basis = intmat.hnf_nonzero([[2, 0, 3], [0, 4, 1]], cols=3)
    member = [2 * 3 + 0, 4 * -2, 3 * 3 + 1 * -2]
    assert intmat.lattice_contains(member, basis)
    assert not intmat.lattice_contains([1, 0, 0], basis)
    reduced, coeffs = intmat.reduce_vector(member, basis, track=True)
    assert reduced == [0, 0, 0]
    acc = [0, 0, 0]
    for q, row in zip(coeffs, basis):
        acc = [a + q * b for a, b in zip(acc, row)]
    assert acc == member


def test_reduce_vector_matches_full_scan():
    rng = random.Random(0x5EED8)
    members = 0
    for _ in range(150):
        cols = rng.randint(1, 6)
        basis = intmat.hnf_nonzero(
            random_matrix(rng, rng.randint(1, 5), cols, -6, 6), cols)
        for _ in range(4):
            # half members, so both zero and nonzero remainders occur
            if rng.random() < 0.5:
                vec = [0] * cols
                for row in basis:
                    q = rng.randint(-3, 3)
                    vec = [v + q * b for v, b in zip(vec, row)]
            else:
                vec = [rng.randint(-30, 30) for _ in range(cols)]
            for track in (False, True):
                assert intmat.reduce_vector(vec, basis, track) \
                    == full_scan_reduce(vec, basis, track)
            members += not any(intmat.reduce_vector(vec, basis))
    assert 0 < members < 600
    # the K0, K1 and Kn bases of real instances, each against every
    # other node's generators of the same kind
    tried = members = 0
    for inst in instance_bases():
        nodes = [inst.node(i) for i in inst.order.nodes]
        for kind in ("K0_sub", "K1_sub", "Kn_sub"):
            for node in nodes:
                basis = getattr(node, kind).generators
                for other in nodes:
                    if other is node:
                        continue
                    for vec in getattr(other, kind).generators:
                        assert intmat.reduce_vector(vec, basis) \
                            == full_scan_reduce(vec, basis)
                        got = intmat.reduce_vector(vec, basis, True)
                        assert got == full_scan_reduce(vec, basis, True)
                        tried += 1
                        members += not any(got[0])
    assert 0 < members < tried


def instance_bases():
    """``dp_truncation(2, 16, 15)`` and one twisted Boolean 2^5."""
    cube = boolean_instance(5)
    tensor, torsion = cube.tensor()[0], cube.torsion()[0]
    twist = fixtures.random_hom(torsion, tensor, random.Random(5))
    return [fixtures.dp_truncation(2, 16, 15),
            fixtures.twist_instance(cube, twist)]


def frames_opened(fn, *args):
    """(code name, caller's code name) of each Python frame that one
    call of ``fn`` opens, itself included."""
    seen = []

    def profile(frame, event, arg):
        if event == "call":
            seen.append((frame.f_code.co_name, frame.f_back.f_code.co_name))

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return seen


def largest_kn_basis():
    inst = fixtures.dp_truncation(2, 16, 15)
    return max((inst.node(i).Kn_sub.generators for i in inst.order.nodes),
               key=len)


def test_reduce_vector_opens_no_frame_but_its_own():
    # a count, not a time: a generator per basis row would show here
    basis = largest_kn_basis()
    assert len(basis) > 30
    member = [sum(col) for col in zip(*basis)]
    outsider = [1] * len(basis[0])
    for vec in (member, outsider):
        for track in (False, True):
            assert frames_opened(intmat.reduce_vector, vec, basis, track) \
                == [("reduce_vector", "frames_opened")]


def test_column_echelon_opens_no_frame_but_its_kernels():
    basis = [list(row) for row in largest_kn_basis()]
    called = {name for name, caller
              in frames_opened(intmat.column_echelon, basis)
              if caller == "column_echelon"}
    assert called == {"shape", "hnf_rows", "transpose"}


# --- the column-echelon oracles other tests compare against ------------

def test_solve_columns_roundtrip_seeded():
    rng = random.Random(0x5EED4)
    for _ in range(120):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        mat = random_matrix(rng, rows, cols)
        x = [rng.randint(-6, 6) for _ in range(cols)]
        b = intmat.matvec(mat, x)
        got = solve_columns(mat, b)
        assert got is not None
        assert intmat.matvec(mat, got) == b


def test_solve_columns_insoluble():
    assert solve_columns([[2]], [1]) is None
    assert solve_columns([[2, 0], [0, 0]], [0, 1]) is None
    assert solve_columns([[3, 6]], [4]) is None


def test_solve_columns_deterministic():
    # underdetermined system: answer is pinned by the canonical echelon
    a = solve_columns([[1, 1]], [5])
    b = solve_columns([[1, 1]], [5])
    assert a == b
    assert a[0] + a[1] == 5


def test_kernel_columns_frozen():
    ker = kernel_columns([[2, 4]])
    assert intmat.hnf_nonzero(ker, cols=2) == intmat.hnf_nonzero([[2, -1]], cols=2)
    assert kernel_columns(intmat.identity(3)) == []
    full = kernel_columns([], cols=3)
    assert intmat.hnf_nonzero(full, cols=3) == intmat.identity(3)


def test_kernel_columns_seeded():
    rng = random.Random(0x5EED5)
    for _ in range(80):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        mat = random_matrix(rng, rows, cols)
        ker = kernel_columns(mat)
        for vec in ker:
            assert intmat.matvec(mat, vec) == [0] * rows
        # completeness: any random kernel member lies in the spanned lattice
        basis = intmat.hnf_nonzero(ker, cols=cols) if ker else []
        for _ in range(5):
            x = [rng.randint(-5, 5) for _ in range(cols)]
            if intmat.matvec(mat, x) == [0] * rows:
                assert intmat.lattice_contains(x, basis)


# --- congruence solver -------------------------------------------------

def brute_solutions(rows, rhs, row_mods, nvars, var_mods):
    """All admissible tuples, by exhaustive enumeration (finite moduli only)."""
    assert all(var_mods), "brute force needs every variable bounded"
    sols = []
    for tup in itertools.product(*(range(m) for m in var_mods)):
        ok = True
        for row, b, m in zip(rows, rhs, row_mods):
            s = sum(a * x for a, x in zip(row, tup)) - b
            if (s % m if m else s) != 0:
                ok = False
                break
        if ok:
            sols.append(list(tup))
    return sols


def test_solve_congruences_frozen():
    sol, lattice = intmat.solve_congruences([[1]], [1], [2], 1, [4])
    assert sol == [1] and lattice == [[2]]
    sol, lattice = intmat.solve_congruences([[3]], [0], [6], 1, [0])
    assert sol == [0] and lattice == [[2]]
    assert intmat.solve_congruences([[2]], [1], [4], 1, [0]) is None


def compatible_row(rng, var_mods, row_mod):
    """Random row that is well defined modulo every variable modulus."""
    row = []
    for d in var_mods:
        if row_mod == 0:
            # an exact-equality row can only touch a Z/d variable trivially
            row.append(0 if d else rng.randint(-4, 4))
        else:
            step = row_mod // math.gcd(row_mod, d) if d else 1
            row.append(step * rng.randint(-3, 3))
    return row


def random_system(rng):
    """A small congruence system over bounded variables, drawn from rng."""
    nvars = rng.randint(1, 3)
    nrows = rng.randint(0, 3)
    var_mods = [rng.choice([2, 3, 4, 5, 6]) for _ in range(nvars)]
    row_mods = [rng.choice([0, 2, 3, 4, 6]) for _ in range(nrows)]
    rows = [compatible_row(rng, var_mods, m) for m in row_mods]
    rhs = [rng.randint(-4, 4) for _ in range(nrows)]
    return rows, rhs, row_mods, var_mods


def check_against_bruteforce(rows, rhs, row_mods, var_mods):
    """The solver's answer against enumeration; True if solvable.

    The solution is the lexicographically least one, and sol plus the
    reported lattice, reduced modulo the variable moduli, is exactly
    the solution set."""
    system = (rows, rhs, row_mods, var_mods)
    nvars = len(var_mods)
    expected = brute_solutions(rows, rhs, row_mods, nvars, var_mods)
    got = intmat.solve_congruences(rows, rhs, row_mods, nvars, var_mods)
    if not expected:
        assert got is None, system
        return False
    assert got is not None, system
    sol, lattice = got
    assert sol == min(expected), system
    for vec in expected:
        diff = [a - b for a, b in zip(vec, sol)]
        assert intmat.lattice_contains(diff, lattice), system
    for gen in lattice:
        moved = [(x + g) % m for x, g, m in zip(sol, gen, var_mods)]
        assert moved in expected, system
    return True


def test_solve_congruences_matches_bruteforce():
    rng = random.Random(0x5EED6)
    solvable = sum(check_against_bruteforce(*random_system(rng))
                   for _ in range(200))
    assert solvable >= 30  # the sweep actually exercised the solver


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_property_solve_congruences_matches_bruteforce(rng):
    check_against_bruteforce(*random_system(rng))


def test_solve_congruences_rejects_ill_posed():
    # x = 1 mod 4 over a Z/2 variable: the row is not invariant under x+2
    with pytest.raises(ValueError):
        intmat.solve_congruences([[1]], [1], [4], 1, [2])


def test_solve_congruences_no_constraints():
    # an empty system is solved by every tuple: full homogeneous lattice
    sol, lattice = intmat.solve_congruences([], [], [], 2, [3, 5])
    assert sol == [0, 0]
    assert lattice == [[1, 0], [0, 1]]
    # 2y = 0 mod 8 over (x free, y in Z/4) forces y = 0, x unconstrained
    sol, lattice = intmat.solve_congruences([[0, 2]], [0], [8], 2, [0, 4])
    assert sol == [0, 0]
    assert lattice == [[1, 0], [0, 4]]


def test_solve_congruences_shape_errors():
    with pytest.raises(ValueError):
        intmat.solve_congruences([[1]], [1, 2], [2], 1, [2])
    with pytest.raises(ValueError):
        intmat.solve_congruences([[1]], [1], [2], 1, [2, 2])


def test_matrix_shape_errors_are_pinned():
    cases = [
        (lambda: intmat.shape([[1, 2], [3]]), "ragged matrix"),
        (lambda: intmat.shape([[1, 2]], cols=3),
         "column count mismatch: 3 != 2"),
        (lambda: intmat.transpose([]),
         "zero-row matrix needs an explicit column count"),
    ]
    for call, message in cases:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message
    assert intmat.transpose([], cols=2) == [[], []]


# --- property tests ----------------------------------------------------

small_entries = st.integers(min_value=-12, max_value=12)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(small_entries, min_size=3, max_size=3),
                min_size=1, max_size=3))
def test_property_smith_diag_is_invariant_factors(mat):
    d, u, uinv = intmat.smith_form(mat)
    assert intmat.smith_diagonal(d) == invariant_factors_oracle(mat, len(mat), 3)
    assert column_lattice(intmat.matmul(u, mat), len(mat), 3) \
        == column_lattice(d, len(mat), 3)
    assert intmat.matmul(u, uinv) == intmat.identity(len(mat))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(small_entries, min_size=2, max_size=2),
                min_size=1, max_size=4))
def test_property_hnf_canonical(mat):
    h, u = intmat.hnf_rows(mat)
    assert_canonical_hnf(h)
    assert intmat.matmul(u, mat) == h
    h2, _ = intmat.hnf_rows(h)
    assert h == h2

import itertools

import numpy as np
import pytest
import sympy
from sympy.polys.domains import GF

from subrep import ffmat
from subrep.errors import NoSolutionError
from subrep.ffmat import (
    CoordinateSolver,
    Matrix,
    Poly,
    PrimeField,
    block_diag,
    char_poly,
    cokernel_frame,
    column_space_basis,
    factor,
    independent_columns,
    kernel_basis,
    min_poly,
    poly_gcd,
    poly_xgcd,
    rref,
    solve,
    span_frame,
)
from subrep.ffmat import _cokernel_coords, _rref_inplace, _rref_numpy_inplace

from oracles import (
    is_monic,
    reference_poly_add,
    reference_poly_gcd,
    reference_poly_mul,
    reference_poly_sub,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)


def random_matrix(field, rows, cols, rng):
    return Matrix(field, rng.integers(0, field.p, size=(rows, cols)))


def test_prime_check():
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(1)
    PrimeField(2147483647)  # largest prime below 2^31


def test_rref_duplicate_rows_f2():
    m = Matrix(F2, [[1, 1], [1, 1]])
    r, pivots, rank = rref(m)
    assert r == Matrix(F2, [[1, 1], [0, 0]])
    assert rank == 1 and pivots == (0,)


def test_rref_identity():
    m = Matrix(F5, np.eye(3, dtype=int))
    r, _, rank = rref(m)
    assert r == m and rank == 3


def test_rref_hand_reduction_f7():
    # [[2,4],[1,2]]: scale row0 by 4 (=2^-1 mod 7), eliminate row1
    m = Matrix(F7, [[2, 4], [1, 2]])
    r, _, rank = rref(m)
    assert r == Matrix(F7, [[1, 2], [0, 0]]) and rank == 1


def test_kernel_zero_map():
    m = Matrix(F3, np.zeros((2, 3), dtype=int))
    k = kernel_basis(m)
    assert k.cols == 3 and k.rank() == 3


def test_kernel_parity_check_f2():
    k = kernel_basis(Matrix(F2, [[1, 1]]))
    assert k == Matrix(F2, [[1], [1]])


def test_kernel_by_enumeration_f3():
    m = Matrix(F3, [[0, 1], [0, 0]])
    k = kernel_basis(m)
    # enumerate all 9 vectors; kernel = span{(1,0)}
    members = {
        (a, b)
        for a, b in itertools.product(range(3), repeat=2)
        if (m @ Matrix(F3, [[a], [b]])).is_zero()
    }
    assert members == {(0, 0), (1, 0), (2, 0)}
    assert k == Matrix(F3, [[1], [0]])


def test_solve_identity_returns_rhs():
    rng = np.random.default_rng(1)
    b = random_matrix(F5, 4, 2, rng)
    assert solve(Matrix.identity(F5, 4), b) == b


def test_solve_free_variable_convention():
    # enumerate the 4 candidates over F_2: solutions are (1,0) and (0,1);
    # the deterministic particular solution sets the free variable to 0
    a = Matrix(F2, [[1, 1]])
    b = Matrix(F2, [[1]])
    assert solve(a, b) == Matrix(F2, [[1], [0]])


def test_solve_inconsistent():
    with pytest.raises(NoSolutionError):
        solve(Matrix.zeros(F2, 2, 2), Matrix(F2, [[1], [0]]))


def test_rank_nullity_and_kernel_random():
    rng = np.random.default_rng(7)
    for p in (2, 3, 5):
        field = PrimeField(p)
        for _ in range(50):
            rows, cols = int(rng.integers(0, 7)), int(rng.integers(0, 7))
            m = random_matrix(field, rows, cols, rng)
            k = kernel_basis(m)
            assert (m @ k).is_zero()
            assert m.rank() + k.cols == cols
            assert k.rank() == k.cols


def test_solve_random_consistency():
    rng = np.random.default_rng(8)
    for _ in range(60):
        field = PrimeField(int(rng.choice([2, 3, 5])))
        a = random_matrix(field, int(rng.integers(1, 6)), int(rng.integers(1, 6)), rng)
        x0 = random_matrix(field, a.cols, 2, rng)
        b = a @ x0
        x = solve(a, b)
        assert a @ x == b
        bad = random_matrix(field, a.rows, 1, rng)
        try:
            x = solve(a, bad)
            assert a @ x == bad
        except NoSolutionError:
            aug = a.hstack(bad)
            assert aug.rank() > a.rank()


def _kernel_basis_loop(m):
    """Reference: the kernel read off the rref one entry at a time."""
    r, pivots, _ = rref(m)
    p = m.field.p
    free = [c for c in range(m.cols) if c not in pivots]
    basis = np.zeros((m.cols, len(free)), dtype=np.int64)
    for j, fc in enumerate(free):
        basis[fc, j] = 1
        for i, pc in enumerate(pivots):
            basis[pc, j] = (-int(r.a[i, fc])) % p
    return basis


def test_kernel_basis_matches_entrywise_reference():
    rng = np.random.default_rng(22)
    for p in (2, 3, 5, 2**31 - 1):
        field = PrimeField(p)
        for _ in range(60):
            rows, cols = int(rng.integers(0, 8)), int(rng.integers(0, 12))
            entries = rng.integers(0, p, size=(rows, cols))
            m = Matrix(field, (rng.random((rows, cols)) < 0.4) * entries)
            assert np.array_equal(kernel_basis(m).a, _kernel_basis_loop(m))


def _sparse(field, rows, cols, rng):
    """About half its entries zero, so ranks fall short and zero columns occur."""
    entries = rng.integers(0, field.p, size=(rows, cols))
    return Matrix(field, (rng.random((rows, cols)) < 0.5) * entries)


# (rows of A, rows of B, columns) with every zero shape, then random ones
STACKED_SHAPES = [(0, 0, 0), (0, 0, 4), (0, 3, 4), (2, 0, 4), (2, 3, 0), (3, 3, 1)]


@pytest.mark.parametrize("p", [2, 3, 5, 2**31 - 1])
def test_kernel_of_a_stacked_system_is_a_product_of_kernels(p):
    # the forward cut of the chase's hom cache: kernel bases are reduced
    # (K[free] = I, each column's last nonzero at its free row), so the
    # kernel basis of [A; B] is that of A times that of B restricted to
    # it, and one cut gives the basis a cut after every split would
    field, rng = PrimeField(p), np.random.default_rng(p % 1000)
    shapes = STACKED_SHAPES + [tuple(int(d) for d in rng.integers(0, 7, 3)) for _ in range(60)]
    for ra, rb, n in shapes:
        a, b = _sparse(field, ra, n, rng), _sparse(field, rb, n, rng)
        ka = kernel_basis(a)
        both, product = kernel_basis(a.vstack(b)), ka @ kernel_basis(b @ ka)
        assert both.a.shape == product.a.shape and both.a.tobytes() == product.a.tobytes()


@pytest.mark.parametrize("p", [2, 3, 5, 2**31 - 1])
def test_pivot_columns_compose(p):
    # the backward cut: the columns of M are maps, and precomposing every
    # one with P multiplies M by a linear map L on the left.  A column
    # dependent on those before it stays dependent, so the pivot columns
    # of L2 (L1 M), among the columns kept after L1, are those of (L2 L1) M
    field, rng = PrimeField(p), np.random.default_rng(p % 1000 + 1)
    shapes = [(0, 0, 0, 0), (0, 2, 2, 3), (3, 0, 2, 3), (3, 2, 0, 3), (3, 2, 2, 0)]
    shapes += [tuple(int(d) for d in rng.integers(0, 7, 4)) for _ in range(60)]
    for rows, r1, r2, cols in shapes:
        m = _sparse(field, rows, cols, rng)
        l1, l2 = _sparse(field, r1, rows, rng), _sparse(field, r2, r1, rng)
        kept = rref(l1 @ m)[1]
        then = rref(l2 @ (l1 @ m).take_columns(kept))[1]
        assert [kept[j] for j in then] == list(rref((l2 @ l1) @ m)[1])
        stepwise = column_space_basis(l2 @ column_space_basis(l1 @ m))
        at_once = column_space_basis((l2 @ l1) @ m)
        assert stepwise.a.shape == at_once.a.shape and stepwise.a.tobytes() == at_once.a.tobytes()


def test_rref_against_sympy():
    rng = np.random.default_rng(9)
    for _ in range(25):
        p = int(rng.choice([2, 3, 5]))
        field = PrimeField(p)
        m = random_matrix(field, int(rng.integers(1, 6)), int(rng.integers(1, 6)), rng)
        dm = sympy.polys.matrices.DomainMatrix.from_Matrix(
            sympy.Matrix(m.tolist())
        ).convert_to(GF(p))
        expected_rank = len(dm.rref()[1])
        assert m.rank() == expected_rank


def test_column_space_and_left_kernel():
    rng = np.random.default_rng(10)
    for _ in range(30):
        field = PrimeField(int(rng.choice([2, 3])))
        m = random_matrix(field, int(rng.integers(1, 6)), int(rng.integers(1, 6)), rng)
        c = column_space_basis(m)
        assert c.rank() == c.cols == m.rank()
        lk = cokernel_frame(m)[0]
        assert (lk @ m).is_zero()
        assert lk.rows == m.rows - m.rank()


def test_coordinate_solver():
    rng = np.random.default_rng(11)
    basis = Matrix(F3, [[1, 0], [1, 1], [0, 2]])
    cs = CoordinateSolver(basis)
    for _ in range(10):
        c = random_matrix(F3, 2, 1, rng)
        v = basis @ c
        assert cs.coords(v) == c
    outside = Matrix(F3, [[1], [0], [0]])
    with pytest.raises(NoSolutionError):
        cs.coords(outside)


def test_char_poly_nilpotent_block():
    m = Matrix(F2, [[0, 1], [0, 0]])
    assert char_poly(m) == Poly(F2, (0, 0, 1))  # x^2


def test_min_poly_identity():
    m = Matrix.identity(F5, 3)
    assert min_poly(m) == Poly(F5, (-1, 1))  # x - 1


def _krylov_min_poly(m: Matrix) -> Poly:
    """Reference: lcm over the standard basis vectors of their relative
    minimal polynomials, each from a Krylov sequence."""
    field, n = m.field, m.rows
    result = Poly.one(field)
    for i in range(n):
        krylov = Matrix.identity(field, n).column(i)
        cur = krylov
        while True:
            cur = m @ cur
            try:
                c = solve(krylov, cur)
            except NoSolutionError:
                krylov = krylov.hstack(cur)
                continue
            rel = Poly(field, [-int(a) for a in c.a[:, 0]] + [1])
            result = ((result * rel) // poly_gcd(result, rel)).monic()
            break
    return result


def _min_poly_inputs(field, rng, sizes=range(9)):
    """Random, block-diagonal, scalar and nilpotent matrices, n = 0..8."""
    p = field.p
    for n in sizes:
        yield random_matrix(field, n, n, rng)
        k = n // 2
        block = np.zeros((n, n), dtype=np.int64)
        block[:k, :k] = rng.integers(0, p, size=(k, k))
        # a Jordan block c I + N beside a random block
        block[k:, k:] = int(rng.integers(0, p)) * np.eye(n - k, dtype=np.int64)
        block[k:, k:] += np.eye(n - k, k=1, dtype=np.int64)
        yield Matrix(field, block)
        twice = np.zeros((n, n), dtype=np.int64)
        twice[:k, :k] = block[:k, :k]
        twice[k : 2 * k, k : 2 * k] = block[:k, :k]
        yield Matrix(field, twice)
        yield Matrix.identity(field, n).scale(int(rng.integers(0, p)))
        yield Matrix(field, np.triu(rng.integers(0, p, size=(n, n)), 1))


@pytest.mark.parametrize("p", [2, 3, 5, 2**31 - 1])
def test_min_poly_matches_krylov_reference(p):
    field = PrimeField(p)
    rng = np.random.default_rng(p % 1000)
    for m in _min_poly_inputs(field, rng):
        mp = min_poly(m)
        assert mp == _krylov_min_poly(m)
        assert is_monic(mp) and mp.eval_matrix(m).is_zero()


def test_min_poly_empty_matrix():
    assert min_poly(Matrix.zeros(F3, 0, 0)) == Poly.one(F3)


def test_factor_x2_plus_x_f2():
    f = Poly(F2, (0, 1, 1))
    fs = factor(f)
    assert fs == [(Poly(F2, (0, 1)), 1), (Poly(F2, (1, 1)), 1)]


def test_cayley_hamilton_and_minpoly_divides():
    rng = np.random.default_rng(12)
    for _ in range(40):
        p = int(rng.choice([2, 3, 5]))
        field = PrimeField(p)
        n = int(rng.integers(1, 6))
        m = random_matrix(field, n, n, rng)
        cp = char_poly(m)
        assert cp.degree() == n and is_monic(cp)
        assert cp.eval_matrix(m).is_zero()
        mp = min_poly(m)
        assert mp.eval_matrix(m).is_zero()
        assert (cp % mp).is_zero()


def test_char_poly_against_sympy():
    rng = np.random.default_rng(13)
    for _ in range(20):
        p = int(rng.choice([2, 3, 5]))
        field = PrimeField(p)
        n = int(rng.integers(1, 6))
        m = random_matrix(field, n, n, rng)
        sm = sympy.Matrix(m.tolist())
        expected = sympy.Poly(sm.charpoly().as_expr(), sympy.Symbol("lambda"), modulus=p)
        coeffs = [int(c) % p for c in reversed(expected.all_coeffs())]
        assert list(char_poly(m).coeffs) == coeffs


def test_factor_roundtrip_random():
    rng = np.random.default_rng(14)
    for _ in range(1000):
        p = int(rng.choice([2, 3, 5]))
        field = PrimeField(p)
        deg = int(rng.integers(1, 9))
        coeffs = [int(rng.integers(0, p)) for _ in range(deg)] + [
            int(rng.integers(1, p))
        ]
        f = Poly(field, coeffs)
        fs = factor(f)
        prod = Poly(field, (f.leading(),))
        for g, k in fs:
            assert is_monic(g)
            for _ in range(k):
                prod = prod * g
        assert prod == f


def test_factor_irreducibility_of_parts():
    # every reported factor has no root-degree split left: re-factoring a
    # factor returns itself
    rng = np.random.default_rng(15)
    for _ in range(50):
        p = int(rng.choice([2, 3]))
        field = PrimeField(p)
        coeffs = [int(rng.integers(0, p)) for _ in range(6)] + [1]
        for g, _ in factor(Poly(field, coeffs)):
            assert factor(g) == [(g, 1)]


def test_factor_zero_rejected():
    with pytest.raises(ValueError):
        factor(Poly.zero(F2))


@pytest.mark.parametrize("p", [2, 3, 5, 2**31 - 1])
def test_poly_arithmetic_matches_the_padded_loops(p):
    """Sum, difference, product and gcd equal the padded-list loops of
    `oracles`, zero polynomials and unequal lengths included."""
    field, rng = PrimeField(p), np.random.default_rng(p % 1000)

    def draw():
        # up to 8 coefficients, the top one often 0, so that Poly trims it
        return Poly(field, [int(rng.integers(0, p)) for _ in range(int(rng.integers(0, 9)))])

    for _ in range(1000):
        f, g = draw(), draw()
        assert f + g == reference_poly_add(f, g)
        assert f - g == reference_poly_sub(f, g)
        assert f * g == reference_poly_mul(f, g)
        assert poly_gcd(f, g) == reference_poly_gcd(f, g)


def test_poly_gcd_xgcd_lcm():
    rng = np.random.default_rng(16)
    for _ in range(60):
        p = int(rng.choice([2, 3, 5]))
        field = PrimeField(p)
        a = Poly(field, [int(rng.integers(0, p)) for _ in range(5)])
        b = Poly(field, [int(rng.integers(0, p)) for _ in range(4)])
        if a.is_zero() or b.is_zero():
            continue
        g, u, v = poly_xgcd(a, b)
        assert u * a + v * b == g
        assert (a % g).is_zero() and (b % g).is_zero()


def test_matmul_large_prime_no_overflow():
    field = PrimeField(2147483647)
    v = field.p - 1
    a = Matrix(field, [[v, v, v]])
    b = Matrix(field, [[v], [v], [v]])
    expected = (3 * v * v) % field.p
    assert (a @ b).tolist() == [[expected]]


# ---------------------------------------------------------------------------
# F_2 elimination runs on bit-packed rows and F_3 elimination on
# bit-sliced rows; these tests pin both to sympy's GF(p) row reduction
# across shapes whose rows span several bytes and several 64-bit words.
# Rows reach the absorb loop from `a.tolist()` up to LIST_CELLS entries
# (a crossover measured by `tools/traffic.py --crossover`) and through the
# word codec `_pack_rows` above; the sympy checks run once with each
# packing forced at every size, the shapes at the crossover and one past
# it are checked against `_rref_numpy_inplace` with the real one, and so
# are the widths on either side of one and two codec words.

F2_WIDTHS = (1, 2, 7, 8, 9, 63, 64, 65, 130)
# above rows * cols of every matrix these tests reduce
ALL_LISTS = 10**6


def _each_packing(monkeypatch):
    """Run the loop body once with every F_2/F_3 elimination packing its
    rows from lists, once with every one going through the word codec."""
    for cells in (ALL_LISTS, 0):
        monkeypatch.setattr(ffmat, "LIST_CELLS", cells)
        yield


def _sympy_rref(m):
    dm = sympy.polys.matrices.DomainMatrix.from_Matrix(
        sympy.Matrix(m.tolist())
    ).convert_to(GF(m.field.p))
    reduced, pivots = dm.rref()
    out = np.zeros(m.a.shape, dtype=np.int64)
    for i, row in enumerate(reduced.to_list()):
        out[i] = [int(e) % m.field.p for e in row]
    return out, tuple(pivots)


def _packed_cases(field, seed):
    """Random, zero, all-ones, full-rank and reversed-identity matrices at
    every width of F2_WIDTHS."""
    p = field.p
    rng = np.random.default_rng(seed)
    for cols in F2_WIDTHS:
        for rows in (1, 3, 8, 70):
            density = float(rng.choice([0.1, 0.5, 0.9]))
            nonzero = rng.random((rows, cols)) < density
            if p > 2:
                nonzero = nonzero * rng.integers(1, p, size=(rows, cols))
            yield Matrix(field, nonzero)
        yield Matrix.zeros(field, 4, cols)
        yield Matrix(field, np.ones((5, cols), dtype=np.int64))
        # full rank: identity rows on a random column order, then mixed
        n = min(cols, 6)
        perm = rng.permutation(cols)[:n]
        full = np.zeros((n, cols), dtype=np.int64)
        full[np.arange(n), perm] = 1
        mix = rng.integers(0, p, size=(n, n))
        np.fill_diagonal(mix, 1)
        mix = np.tril(mix)  # unit lower triangular, invertible
        yield Matrix(field, mix @ full)
        yield Matrix(field, np.eye(cols, dtype=np.int64)[::-1])  # square, full rank


def _f2_cases():
    return _packed_cases(F2, 20)


def _f3_cases():
    return _packed_cases(F3, 30)


def _check_rref_against_sympy(cases):
    for m in cases:
        r, pivots, rank = rref(m)
        expected, expected_pivots = _sympy_rref(m)
        assert np.array_equal(r.a, expected), m.a.shape
        assert pivots == expected_pivots
        assert rank == len(expected_pivots) == m.rank()


def _check_kernel_basis_identities(cases):
    for m in cases:
        k = kernel_basis(m)
        _, pivots, rank = rref(m)
        free = [c for c in range(m.cols) if c not in pivots]
        assert k.a.shape == (m.cols, m.cols - rank)
        assert (m @ k).is_zero()
        assert np.array_equal(k.a[free], np.eye(len(free), dtype=np.int64))


def _check_solve_and_coordinate_solver(cases, rng):
    for m in cases:
        x0 = random_matrix(m.field, m.cols, 2, rng)
        b = m @ x0
        x = solve(m, b)
        assert m @ x == b
        basis = column_space_basis(m)
        cs = CoordinateSolver(basis)
        c = random_matrix(m.field, basis.cols, 3, rng)
        assert cs.coords(basis @ c) == c
        if m.rank() < m.rows:
            outside = _outside_column_space(m)
            with pytest.raises(NoSolutionError):
                solve(m, outside)
            with pytest.raises(NoSolutionError):
                cs.coords(outside)


def _check_empty_and_zero_shape(field, shape):
    m = Matrix.zeros(field, *shape)
    r, pivots, rank = rref(m)
    assert r == m and pivots == () and rank == 0
    k = kernel_basis(m)
    assert k == Matrix.identity(field, shape[1])
    assert cokernel_frame(m)[0] == Matrix.identity(field, shape[0])
    assert column_space_basis(m) == Matrix.zeros(field, shape[0], 0)
    x = solve(m, Matrix.zeros(field, shape[0], 1))
    assert x == Matrix.zeros(field, shape[1], 1)
    # a block with no rows or columns only shifts the blocks after it:
    # [] is 0 x 0, and at shape (0, 5) [I_2, m] is [I | 0]
    eye = Matrix.identity(field, 2)
    assert block_diag(field, []) == Matrix.zeros(field, 0, 0)
    after = np.pad(eye.a, ((0, shape[0]), (0, shape[1])))
    before = np.pad(eye.a, ((shape[0], 0), (shape[1], 0)))
    assert block_diag(field, [eye, m]) == Matrix(field, after)
    assert block_diag(field, [m, eye]) == Matrix(field, before)


def test_f2_rref_and_rank_against_sympy(monkeypatch):
    for _ in _each_packing(monkeypatch):
        _check_rref_against_sympy(_f2_cases())


def test_f2_kernel_basis_identities(monkeypatch):
    for _ in _each_packing(monkeypatch):
        _check_kernel_basis_identities(_f2_cases())


def test_f2_solve_and_coordinate_solver(monkeypatch):
    for _ in _each_packing(monkeypatch):
        _check_solve_and_coordinate_solver(_f2_cases(), np.random.default_rng(21))


def _outside_column_space(m):
    """A unit vector e_i with (left kernel) e_i != 0, so e_i is not m c."""
    left = cokernel_frame(m)[0]
    i = int(np.flatnonzero(left.a.any(axis=0))[0])
    e = np.zeros((m.rows, 1), dtype=np.int64)
    e[i] = 1
    return Matrix(m.field, e)


def test_f2_inconsistent_system():
    a = Matrix(F2, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])  # rows sum to zero
    with pytest.raises(NoSolutionError):
        solve(a, Matrix(F2, [[1], [0], [0]]))
    assert solve(a, Matrix(F2, [[1], [1], [0]])) == Matrix(F2, [[0], [1], [0]])


EMPTY_AND_ZERO_SHAPES = [(0, 5), (5, 0), (0, 0), (3, 130), (130, 3)]


@pytest.mark.parametrize("shape", EMPTY_AND_ZERO_SHAPES)
def test_f2_empty_and_zero_shapes(shape):
    _check_empty_and_zero_shape(F2, shape)


def test_f3_rref_and_rank_against_sympy(monkeypatch):
    for _ in _each_packing(monkeypatch):
        _check_rref_against_sympy(_f3_cases())


def test_f3_kernel_basis_identities(monkeypatch):
    for _ in _each_packing(monkeypatch):
        _check_kernel_basis_identities(_f3_cases())


def test_f3_solve_and_coordinate_solver(monkeypatch):
    for _ in _each_packing(monkeypatch):
        _check_solve_and_coordinate_solver(_f3_cases(), np.random.default_rng(31))


def test_f3_inconsistent_system():
    a = Matrix(F3, [[1, 2, 0], [0, 1, 2], [1, 0, 2]])  # row 3 = row 1 + row 2
    with pytest.raises(NoSolutionError):
        solve(a, Matrix(F3, [[1], [0], [0]]))
    assert solve(a, Matrix(F3, [[1], [1], [2]])) == Matrix(F3, [[2], [1], [0]])


@pytest.mark.parametrize("shape", EMPTY_AND_ZERO_SHAPES)
def test_f3_empty_and_zero_shapes(shape):
    _check_empty_and_zero_shape(F3, shape)


@pytest.mark.parametrize("p", [5, 2**31 - 1])
@pytest.mark.parametrize("shape", EMPTY_AND_ZERO_SHAPES)
def test_empty_and_zero_shapes_at_other_primes(p, shape):
    _check_empty_and_zero_shape(PrimeField(p), shape)


def test_f3_independent_columns_against_sympy():
    # the kept candidates are the pivot columns of rref(prefix | candidates)
    rng = np.random.default_rng(32)
    for m in _f3_cases():
        k = int(rng.integers(0, m.cols + 1))
        prefix = m.submatrix(slice(None), slice(0, k))
        candidates = m.submatrix(slice(None), slice(k, None))
        _, pivots = _sympy_rref(m)
        assert independent_columns(prefix, candidates) == [c - k for c in pivots if c >= k]


def test_f3_min_poly_on_larger_matrices():
    # min_poly reduces the n^2 x (n + 1) stack of powers, up to 144 x 13 here
    rng = np.random.default_rng(33)
    for n in (6, 9, 12):
        for m in _min_poly_inputs(F3, rng, sizes=(n,)):
            mp = min_poly(m)
            assert mp == _krylov_min_poly(m)
            assert is_monic(mp) and mp.eval_matrix(m).is_zero()
            assert (char_poly(m) % mp).is_zero()


@pytest.mark.parametrize("p", [2, 3])
def test_packed_paths_match_numpy_elimination(p):
    # random matrices dense in p - 1 (pivots equal to 2 at p = 3) with
    # rows that are multiples of earlier rows, so they cancel to zero
    rng = np.random.default_rng(34 + p)
    weights = [0.2, 0.8] if p == 2 else [0.2, 0.15, 0.65]
    for _ in range(400):
        rows = int(rng.integers(0, 30))
        cols = int(rng.integers(0, 140))
        a = rng.choice(p, size=(rows, cols), p=weights).astype(np.int64)
        if rows > 1 and rng.random() < 0.5:
            half = rows // 2
            a[half:] = (a[: rows - half] * int(rng.integers(1, p))) % p
        packed, generic = a.copy(), a.copy()
        assert _rref_inplace(packed, p) == _rref_numpy_inplace(generic, p)
        assert np.array_equal(packed, generic)


@pytest.mark.parametrize("p, most_cells", [(2, 10), (3, 6)])
def test_every_small_matrix_matches_numpy_elimination_on_both_packings(monkeypatch, p, most_cells):
    # every matrix of at most `most_cells` entries, in every shape,
    # reduced once with each packing
    count = 0
    for rows, cols in itertools.product(range(1, most_cells + 1), repeat=2):
        if rows * cols > most_cells:
            continue
        entries = np.array(list(itertools.product(range(p), repeat=rows * cols)), dtype=np.int64)
        for a in entries.reshape(-1, rows, cols):
            generic = a.copy()
            expected = _rref_numpy_inplace(generic, p)
            for _ in _each_packing(monkeypatch):
                packed = a.copy()
                assert _rref_inplace(packed, p) == expected, a
                assert np.array_equal(packed, generic), a
            count += 1
    assert count == {2: 7306, 3: 3720}[p]


def _pack_rows_calls(monkeypatch, raise_on_call):
    """Patch ffmat._pack_rows to raise, or to record the shape of each call
    in the list returned."""
    calls = []
    pack_rows = ffmat._pack_rows

    def spy(a, p):
        if raise_on_call:
            raise AssertionError("ffmat._pack_rows called")
        calls.append(a.shape)
        return pack_rows(a, p)

    monkeypatch.setattr(ffmat, "_pack_rows", spy)
    return calls


def _shapes_with_cells(n):
    return [(r, n // r) for r in range(1, n + 1) if n % r == 0]


@pytest.mark.parametrize("p", [2, 3])
def test_packings_at_the_crossover_match_numpy_elimination(monkeypatch, p):
    # every shape with rows * cols = crossover (lists) and crossover + 1
    # (word codec), random, with duplicate rows and of full rank, and the
    # zero-row and zero-column shapes next to them
    cells = ffmat.LIST_CELLS
    calls = _pack_rows_calls(monkeypatch, raise_on_call=False)
    rng = np.random.default_rng(36 + p)
    cases = [np.zeros(shape, dtype=np.int64) for shape in [(0, cells), (cells, 0)]]
    for rows, cols in _shapes_with_cells(cells) + _shapes_with_cells(cells + 1):
        a = rng.integers(0, p, size=(rows, cols))
        dup = a.copy()
        dup[rows // 2 :] = (dup[: rows - rows // 2] * int(rng.integers(1, p))) % p
        n = min(rows, cols)
        full = np.zeros((rows, cols), dtype=np.int64)
        full[rng.permutation(rows)[:n], rng.permutation(cols)[:n]] = rng.integers(1, p, size=n)
        cases += [a, dup, full]
    for a in cases:
        packed, generic = a.copy(), a.copy()
        before = len(calls)
        assert _rref_inplace(packed, p) == _rref_numpy_inplace(generic, p), a.shape
        assert np.array_equal(packed, generic), a.shape
        assert len(calls) - before == (a.size > cells), a.shape


@pytest.mark.parametrize("p, shape", [(3, (3, 2)), (2, (2, 3))])
def test_small_eliminations_do_not_pack_with_numpy(monkeypatch, p, shape):
    a = np.arange(shape[0] * shape[1], dtype=np.int64).reshape(shape) % p
    generic = a.copy()
    expected = _rref_numpy_inplace(generic, p)
    _pack_rows_calls(monkeypatch, raise_on_call=True)
    assert _rref_inplace(a, p) == expected
    assert np.array_equal(a, generic)


@pytest.mark.parametrize("p", [2, 3])
def test_large_eliminations_pack_with_numpy(monkeypatch, p):
    a = np.random.default_rng(38).integers(0, p, size=(56, 25))
    generic = a.copy()
    expected = _rref_numpy_inplace(generic, p)
    calls = _pack_rows_calls(monkeypatch, raise_on_call=False)
    assert _rref_inplace(a, p) == expected
    assert np.array_equal(a, generic)
    assert len(calls) == 1


@pytest.mark.parametrize("p", [2, 3])
def test_word_boundaries_of_the_codec_match_numpy_and_sympy(monkeypatch, p):
    # WORD - 1 .. WORD + 1 and 2 WORD - 1 .. 2 WORD + 1 columns, forced
    # through the codec: random, all zero (rank 0), one row, and with a
    # pivot in the last column of a word
    monkeypatch.setattr(ffmat, "LIST_CELLS", 0)
    calls = _pack_rows_calls(monkeypatch, raise_on_call=False)
    field, rng = PrimeField(p), np.random.default_rng(39 + p)
    assert ffmat.WORD == 62
    for cols in (61, 62, 63, 123, 124, 125):
        last = np.zeros((3, cols), dtype=np.int64)
        last[0, -1] = last[1, min(cols, ffmat.WORD) - 1] = last[2] = p - 1
        cases = [
            rng.integers(0, p, size=(7, cols)),
            np.zeros((4, cols), dtype=np.int64),
            rng.integers(0, p, size=(1, cols)),
            last,
        ]
        for a in cases:
            packed, generic = a.copy(), a.copy()
            before = len(calls)
            assert _rref_inplace(packed, p) == _rref_numpy_inplace(generic, p), a.shape
            assert np.array_equal(packed, generic), a.shape
            assert len(calls) - before == 1
            expected, expected_pivots = _sympy_rref(Matrix(field, a))
            assert np.array_equal(packed, expected), a.shape
            assert tuple(_rref_inplace(a.copy(), p)[0]) == expected_pivots


# ---------------------------------------------------------------------------
# p = 2^31 - 1: entries p - 1 make every product and every negation reach
# the int64 guards; results must come back reduced into [0, p).

P31 = PrimeField(2**31 - 1)


def _reduced(m):
    return m.a.dtype == np.int64 and bool((m.a >= 0).all() and (m.a < m.field.p).all())


def test_large_prime_kernel_basis():
    v = P31.p - 1
    m = Matrix(P31, [[v, v, 1, 0], [v, 0, v, v], [0, v, 2, v]])
    k = kernel_basis(m)
    assert _reduced(k)
    assert k.cols == m.cols - m.rank() and k.cols >= 1
    assert (m @ k).is_zero()


def test_large_prime_solve_and_coordinates():
    v = P31.p - 1
    a = Matrix(P31, [[v, 1, v], [v, v, 0], [1, 0, v], [v, v, v]])
    x0 = Matrix(P31, [[v, 3], [v, v], [2, v]])
    b = a @ x0
    x = solve(a, b)
    assert _reduced(x) and a @ x == b
    assert x == x0  # a has full column rank
    cs = CoordinateSolver(a)
    c = cs.coords(b)
    assert _reduced(c) and c == x0
    with pytest.raises(NoSolutionError):
        cs.coords(_outside_column_space(a))


# ---------------------------------------------------------------------------
# independent_columns against the greedy "keep a column if the rank rises"
# loop it replaces, kept here as the reference.


def _greedy_columns(prefix, candidates):
    current = prefix
    rank = current.rank()
    picked = []
    for j in range(candidates.cols):
        trial = current.hstack(candidates.column(j))
        if trial.rank() > rank:
            picked.append(j)
            current, rank = trial, trial.rank()
    return picked


@pytest.mark.parametrize("p", [2, 3, 2**31 - 1])
def test_independent_columns_matches_greedy(p):
    field = PrimeField(p)
    rng = np.random.default_rng(p % 1000)
    for _ in range(150):
        rows = int(rng.integers(0, 7))
        prefix = random_matrix(field, rows, int(rng.integers(0, 5)), rng)
        candidates = random_matrix(field, rows, int(rng.integers(0, 7)), rng)
        if rng.random() < 0.3:  # sparse columns make rank ties common
            candidates = Matrix(field, candidates.a * (rng.random(candidates.a.shape) < 0.3))
        assert independent_columns(prefix, candidates) == _greedy_columns(prefix, candidates)


@pytest.mark.parametrize("p", [2, 3, 2**31 - 1])
def test_independent_columns_edge_shapes(p):
    field = PrimeField(p)
    v = p - 1
    ident = Matrix.identity(field, 3)
    dependent = Matrix(field, [[1, v, 0], [0, 0, 0], [1, v, 0]])  # col1 = -col0
    cases = [
        (Matrix.zeros(field, 3, 0), Matrix(field, [[0, 1, 1], [0, 0, 0], [0, 1, 1]])),
        (ident, Matrix.zeros(field, 3, 0)),
        (Matrix.zeros(field, 0, 2), Matrix.zeros(field, 0, 4)),
        (dependent, ident),
        (dependent, Matrix(field, [[1, 0, v], [0, 1, 0], [1, 0, v]])),
    ]
    expected = [[1], [], [], [0, 1], [1]]
    for (prefix, candidates), want in zip(cases, expected):
        assert independent_columns(prefix, candidates) == want
        assert _greedy_columns(prefix, candidates) == want


def test_matmul_rejects_field_and_shape_mismatch():
    a = Matrix(F2, [[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="field mismatch"):
        a @ Matrix(F3, [[1], [0]])
    with pytest.raises(ValueError, match="field mismatch"):
        a @ np.eye(2, dtype=np.int64)
    with pytest.raises(ValueError, match="cannot multiply"):
        a @ Matrix(F2, [[1, 0, 1]])
    # an equal field that is a different object is accepted
    assert a @ Matrix(PrimeField(2), [[1], [1]]) == Matrix(F2, [[1], [1]])


@pytest.mark.parametrize("p", [2, 3, 5, 65521, 2**31 - 1])
def test_field_inverse(p):
    field = PrimeField(p)
    rng = np.random.default_rng(p % 1000)
    values = {1, p - 1, p + 1, -1} | {int(a) for a in rng.integers(1, p, size=50)}
    for a in values:
        if a % p:
            assert a * field.inv(a) % p == 1
            assert 0 <= field.inv(a) < p
    for zero in (0, p, -p):
        with pytest.raises(ZeroDivisionError):
            field.inv(zero)


EMPTY_CONTRACT_PRIMES = [2, 3, 5, 2**31 - 1]


@pytest.mark.parametrize("p", EMPTY_CONTRACT_PRIMES)
@pytest.mark.parametrize("r", [0, 1, 4])
def test_solve_with_no_unknowns(p, r):
    """a x = b with a r x 0: the empty solution when b is zero, else no
    solution."""
    field = PrimeField(p)
    a = Matrix.zeros(field, r, 0)
    for k in (0, 1, 3):
        assert solve(a, Matrix.zeros(field, r, k)) == Matrix.zeros(field, 0, k)
    if r:
        b = Matrix.zeros(field, r, 2).a.copy()
        b[r - 1, 1] = p - 1
        with pytest.raises(NoSolutionError):
            solve(a, Matrix(field, b))


@pytest.mark.parametrize("p", EMPTY_CONTRACT_PRIMES)
@pytest.mark.parametrize("d", [0, 1, 4])
def test_coordinate_solver_over_empty_basis(p, d):
    """The span of no vectors is {0}: zero columns have empty coordinates
    and are members, every other column is outside.  Membership is read
    off the rows of the `span_frame` below its pivots."""
    field = PrimeField(p)
    solver = CoordinateSolver(Matrix.zeros(field, d, 0))
    assert solver.rank == 0
    pivots, u = span_frame(Matrix.zeros(field, d, 0))
    assert pivots == []

    def outside(w):
        return (u @ w).a[len(pivots) :].any(axis=0).tolist()

    zero = Matrix.zeros(field, d, 3)
    assert solver.coords(zero) == Matrix.zeros(field, 0, 3)
    assert outside(zero) == [False] * 3
    assert outside(Matrix.zeros(field, d, 0)) == []
    if d:
        v = Matrix.zeros(field, d, 3).a.copy()
        v[0, 1] = 1
        v = Matrix(field, v)
        assert outside(v) == [False, True, False]
        with pytest.raises(NoSolutionError):
            solver.coords(v)


@pytest.mark.parametrize("p", EMPTY_CONTRACT_PRIMES)
def test_span_frame_reads_coordinates_and_membership(p):
    field = PrimeField(p)
    rng = np.random.default_rng(p % 1000)
    for rows, cols in ((5, 3), (4, 6), (6, 6)):
        m = rng.integers(0, p, size=(rows, cols))
        m[:, -1] = m[:, 0]  # a dependent column
        m = Matrix(field, m)
        pivots, u = span_frame(m)
        basis = m.take_columns(pivots)
        assert basis == column_space_basis(m) and u.rank() == rows
        rank = len(pivots)
        c = Matrix(field, rng.integers(0, p, size=(rank, 4)))
        uw = u @ (basis @ c)
        assert uw.submatrix(slice(rank), slice(None)) == c
        assert uw.submatrix(slice(rank, None), slice(None)).is_zero()
        for i in range(rows):
            ei = Matrix.identity(field, rows).column(i)
            inside = basis.hstack(ei).rank() == rank
            assert (u @ ei).submatrix(slice(rank, None), slice(None)).is_zero() == inside


@pytest.mark.parametrize("p", EMPTY_CONTRACT_PRIMES)
def test_cokernel_frame_reads_maps_through_the_quotient(p):
    field = PrimeField(p)
    rng = np.random.default_rng(p % 1000 + 1)
    for rows, cols in ((5, 3), (4, 6), (6, 6)):
        m = rng.integers(0, p, size=(rows, cols))
        m[:, -1] = m[:, 0]  # a dependent column
        m = Matrix(field, m)
        proj, free = cokernel_frame(m)
        assert (proj @ m).is_zero() and proj.rows == proj.rank() == rows - m.rank()
        assert proj.take_columns(free) == Matrix.identity(field, proj.rows)
        q = rng.integers(0, p, size=(3, proj.rows))
        assert np.array_equal(_cokernel_coords((proj, free), (Matrix(field, q) @ proj).a), q)
        for i in range(rows):
            # e_i^T factors through proj exactly when it vanishes on m
            ei = Matrix.identity(field, rows).submatrix(slice(i, i + 1), slice(None))
            if (ei @ m).is_zero():
                assert np.array_equal(_cokernel_coords((proj, free), ei.a) @ proj.a, ei.a)
            else:
                with pytest.raises(NoSolutionError):
                    _cokernel_coords((proj, free), ei.a)


def _matrix_horner(poly, m):
    acc = Matrix.zeros(m.field, m.rows, m.cols)
    for c in reversed(poly.coeffs):
        acc = acc @ m + Matrix.identity(m.field, m.rows).scale(c)
    return acc


@pytest.mark.parametrize("p", [2, 3, 2**31 - 1])
def test_eval_matrix_matches_matrix_horner(p):
    """Horner on the reduced array equals Horner on `Matrix` objects, on
    the zero polynomial and the 0 x 0 matrix too; at 2^31 - 1 the 4 x 4
    products take the overflow-safe path."""
    field = PrimeField(p)
    rng = np.random.default_rng(p % 1000 + 1)
    for d in (0, 1, 4):
        m = Matrix(field, rng.integers(0, p, size=(d, d)))
        for coeffs in ((), (p - 1,), (0, 0, 1), tuple(rng.integers(0, p, size=6))):
            got, want = Poly(field, coeffs).eval_matrix(m), _matrix_horner(Poly(field, coeffs), m)
            assert got.a.dtype == np.int64 and got.a.shape == want.a.shape == (d, d)
            assert got.a.tobytes() == want.a.tobytes()

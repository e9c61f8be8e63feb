"""Exact dense linear algebra and univariate polynomials over prime fields.

Matrices act on column vectors: a map from a d-dimensional space to an
e-dimensional space is an e x d matrix.  All entries are stored reduced
mod p in int64 numpy arrays.  An unknown matrix x enters a linear system
as vec(x), its columns stacked (column-major), and vec(b x a^T) =
(a kron b) vec(x); `kron` is the one writer of that product.

`Matrix(field, data)` accepts any integer data and reduces it.  Results
computed here from matrices that are already reduced are wrapped by the
trusted constructor `_wrap` instead, which skips the conversion, the
shape check and the reduction; its argument must be a 2-D int64 array,
already reduced mod p, that owns its data (a copy, never a view into a
larger buffer that the wrapper would keep alive).

Row reduction has three paths, all behind `_rref_inplace`, whose input
entries must already be reduced to [0, p):
- p = 2, bit-packed: each row is a Python int and adding rows is XOR;
- p = 3, bit-sliced: each row is two Python ints, the bits of its 1s and
  of its 2s, and adding rows takes six word operations (Boothby and
  Bradshaw, arXiv:0901.1413);
- every other prime: one numpy elimination step per pivot.
The reduced row echelon form is unique, so the three give identical
pivots and reduced arrays.

Column selection is read off pivots: `independent_columns(prefix,
candidates)` returns the candidates that are pivot columns of
rref(prefix | candidates), which are exactly the columns a greedy
left-to-right "keep it if the rank rises" pass would keep.

Coordinates in a span and membership of it are read off one elimination,
`span_frame(m)`, the rref of [m | I], the only one of its kind here:
`CoordinateSolver`, `submodule`, `subrep_from_bases` and the top frames
of a representation all use it.  Maps out of a quotient are read off its
mirror, `cokernel_frame(m)` = (P, free) with P[:, free] = I and the rows
of P a basis of {u : u m = 0}: a map w with w m = 0 is q P, q = w[:, free]
(`_cokernel_coords`).  Quotients, `dtr` and End/J all use it.

Empty shapes are ordinary inputs.  Every primitive here accepts matrices
with zero rows or zero columns and returns what the general formula
gives, so callers do not special-case them:
- `solve(a, b)` with a r x 0 returns the 0 x k zero matrix when b is
  zero and raises NoSolutionError otherwise;
- `span_frame` of a d x 0 matrix has no pivots and U = I_d, so
  `CoordinateSolver` over it has rank 0: `coords` of a zero d x k matrix
  is 0 x k and of any other raises NoSolutionError; of a 0 x k matrix U
  is 0 x 0;
- `kernel_basis` of an L x 0 matrix is 0 x 0, and of a 0 x m matrix is
  the identity I_m; `kernel_frame` returns that K with free = [] and
  free = 0..m-1 respectively; so `cokernel_frame` of an m x 0 matrix is
  (I_m, 0..m-1); `kernel_basis_of_span` of an L x 0 matrix is L x 0 and
  of a 0 x k matrix 0 x 0;
- `column_space_basis` of a d x 0 matrix is d x 0.
"""

from __future__ import annotations

import numpy as np

from .errors import NoSolutionError


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """The prime field F_p, p <= 2**31."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        p = int(p)
        if p > 2**31:
            raise ValueError(f"modulus {p} too large (need p <= 2^31)")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    def inv(self, a: int) -> int:
        a = int(a) % self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, -1, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"F{self.p}"


class Matrix:
    """Immutable dense matrix over a prime field."""

    __slots__ = ("field", "a")

    def __init__(self, field: PrimeField, data):
        a = np.asarray(data, dtype=np.int64)
        if a.ndim != 2:
            raise ValueError(f"matrix data must be 2-dimensional, got shape {a.shape}")
        a = np.mod(a, field.p)
        a.setflags(write=False)
        self.field = field
        self.a = a

    @classmethod
    def zeros(cls, field, rows, cols):
        return _wrap(field, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, field, n):
        return _wrap(field, np.eye(n, dtype=np.int64))

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    def __add__(self, other):
        self._check(other)
        return Matrix(self.field, self.a + other.a)

    def __sub__(self, other):
        self._check(other)
        return Matrix(self.field, self.a - other.a)

    def __neg__(self):
        return Matrix(self.field, -self.a)

    def __matmul__(self, other):
        self._check_field(other)
        if self.a.shape[1] != other.a.shape[0]:
            raise ValueError(f"cannot multiply {self.a.shape} by {other.a.shape}")
        return _wrap(self.field, _matmul_mod(self.a, other.a, self.field.p))

    def scale(self, c: int):
        return Matrix(self.field, self.a * (int(c) % self.field.p))

    def transpose(self):
        return _wrap(self.field, self.a.T.copy())

    def hstack(self, other):
        self._check_field(other)
        return _wrap(self.field, np.hstack([self.a, other.a]))

    def vstack(self, other):
        self._check_field(other)
        return _wrap(self.field, np.vstack([self.a, other.a]))

    def column(self, j):
        return _wrap(self.field, self.a[:, j : j + 1].copy())

    def take_columns(self, idx):
        return _wrap(self.field, self.a[:, list(idx)].copy())

    def submatrix(self, row_slice, col_slice):
        return _wrap(self.field, self.a[row_slice, col_slice].copy())

    def is_zero(self) -> bool:
        return not self.a.any()

    def rank(self) -> int:
        return int(_rref_inplace(self.a.copy(), self.field.p)[1])

    def tolist(self):
        return self.a.tolist()

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and other.field == self.field
            and other.a.shape == self.a.shape
            and bool(np.array_equal(other.a, self.a))
        )

    def __hash__(self):
        return hash((self.field.p, self.a.shape, self.a.tobytes()))

    def __repr__(self):
        return f"Matrix({self.field}, {self.a.tolist()})"

    def _check(self, other):
        self._check_field(other)
        if other.a.shape != self.a.shape:
            raise ValueError(f"shape mismatch {self.a.shape} vs {other.a.shape}")

    def _check_field(self, other):
        # identity first: almost every operand shares its field object
        if not isinstance(other, Matrix) or (
            other.field is not self.field and other.field != self.field
        ):
            raise ValueError("field mismatch")


def _wrap(field: PrimeField, a: np.ndarray) -> Matrix:
    """Trusted Matrix constructor: `a` is 2-D int64, already reduced mod
    p and owns its data.  Skips every check and the reduction."""
    m = object.__new__(Matrix)
    a.setflags(write=False)
    m.field = field
    m.a = a
    return m


def block_diag(field, mats):
    """The block-diagonal matrix with the given blocks, in order.

    This is the one layout of a direct sum's coordinates: summand i
    occupies the rows and columns after those of summands 0..i-1.  Blocks
    may have zero rows or columns; such a block only shifts the blocks
    after it, so `[]` gives the 0 x 0 matrix and `[I_d, 0_{0 x e}]` gives
    `[I | 0]`, the projection of a (d + e)-space onto its first d
    coordinates.
    """
    rows = sum(m.rows for m in mats)
    cols = sum(m.cols for m in mats)
    out = np.zeros((rows, cols), dtype=np.int64)
    r = c = 0
    for m in mats:
        out[r : r + m.rows, c : c + m.cols] = m.a
        r += m.rows
        c += m.cols
    return _wrap(field, out)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The Kronecker product of two 2-D int64 arrays, as `np.kron`: the
    outer product [i, k, j, l] = a[i, j] b[k, l] read as a matrix.  On
    reduced entries it stays below p^2."""
    outer = a[:, None, :, None] * b[None, :, None, :]
    return outer.reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) mod p of reduced int64 arrays; `b` may be a stack of
    matrices (leading axes), which `a` multiplies one by one."""
    # int64 products are safe as long as the dot-product accumulator
    # k*(p-1)^2 stays below 2^63; fall back to python ints otherwise.
    k = a.shape[-1]
    if k * (p - 1) * (p - 1) < 2**62:
        return (a @ b) % p
    return ((a.astype(object) @ b.astype(object)) % p).astype(np.int64)


def _rref_inplace(a: np.ndarray, p: int):
    """Row-reduce `a` in place; returns (pivot column list, rank).

    Deterministic convention: leftmost pivot column, topmost nonzero row,
    pivot scaled to 1, full elimination above and below.  Entries must
    already be reduced to [0, p).  Three paths: bit-packed rows at p = 2,
    bit-sliced rows at p = 3 and the numpy loop of `_rref_numpy_inplace`
    at every other prime.  The reduced row echelon form is unique, so all
    three return the same array and pivots.
    """
    if p == 2:
        return _rref_gf2_inplace(a)
    if p == 3:
        return _rref_gf3_inplace(a)
    return _rref_numpy_inplace(a, p)


def _rref_numpy_inplace(a: np.ndarray, p: int):
    """`_rref_inplace` at any prime p: one numpy elimination per pivot."""
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        col = a[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        pivval = int(a[r, c])
        if pivval != 1:
            a[r] = (a[r] * pow(pivval, p - 2, p)) % p
        col = a[:, c].copy()
        col[r] = 0
        touched = np.nonzero(col)[0]
        if touched.size:
            a[touched] = (a[touched] - np.outer(col[touched], a[r])) % p
        pivots.append(c)
        r += 1
    return pivots, len(pivots)


def _rref_gf2_inplace(a: np.ndarray):
    """`_rref_inplace` over F_2 on bit-packed rows.

    Bit j of a row's int is column j, so a row's leading column is its
    lowest set bit and adding rows is XOR.  Rows are absorbed one at a
    time into a fully reduced basis keyed by pivot bit; sorting that
    basis by pivot gives the reduced row echelon form, which is unique,
    so the result equals the general elimination's.
    """
    rows, cols = a.shape
    if rows == 0 or cols == 0:
        return [], 0
    packed = np.packbits(a.astype(np.uint8), axis=1, bitorder="little")
    width = packed.shape[1]
    data = packed.tobytes()
    basis = {}
    pivot_mask = 0
    for i in range(rows):
        x = int.from_bytes(data[i * width : (i + 1) * width], "little")
        # basis rows are reduced, so clearing one pivot bit of x leaves
        # its other pivot bits alone
        hits = x & pivot_mask
        while hits:
            low = hits & -hits
            x ^= basis[low]
            hits ^= low
        if not x:
            continue
        low = x & -x
        for key, y in basis.items():
            if y & low:
                basis[key] = y ^ x
        basis[low] = x
        pivot_mask |= low
        if len(basis) == cols:
            break
    order = sorted(basis)
    rank = len(order)
    data = b"".join(basis[key].to_bytes(width, "little") for key in order)
    packed = np.frombuffer(data, dtype=np.uint8).reshape(rank, width)
    a[:rank] = np.unpackbits(packed, axis=1, count=cols, bitorder="little")
    a[rank:] = 0
    return [key.bit_length() - 1 for key in order], rank


def _rref_gf3_inplace(a: np.ndarray):
    """`_rref_inplace` over F_3 on bit-sliced rows (Boothby-Bradshaw,
    arXiv:0901.1413).

    A row is two ints: x1 has the bits of the columns holding 1, x2 those
    holding 2.  Negation swaps them, and (x1, x2) + (y1, y2) is
    t = (x1 | y2) ^ (x2 | y1), ((x2 | y2) ^ t, (x1 | y1) ^ t).  The absorb
    loop is `_rref_gf2_inplace`'s, on a basis whose pivot entries are 1.
    """
    rows, cols = a.shape
    if rows == 0 or cols == 0:
        return [], 0
    packed = np.packbits(np.concatenate([a == 1, a == 2]), axis=1, bitorder="little")
    width = packed.shape[1]
    data = packed.tobytes()
    planes = [
        int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width)
    ]
    basis = {}
    pivot_mask = 0
    for x1, x2 in zip(planes[:rows], planes[rows:]):
        hits = (x1 | x2) & pivot_mask
        while hits:
            low = hits & -hits
            hits ^= low
            y1, y2 = basis[low]
            if x1 & low:  # entry 1: subtract the basis row
                y1, y2 = y2, y1
            t = (x1 | y2) ^ (x2 | y1)
            x1, x2 = (x2 | y2) ^ t, (x1 | y1) ^ t
        x = x1 | x2
        if not x:
            continue
        low = x & -x
        if x2 & low:  # scale the pivot entry to 1
            x1, x2 = x2, x1
        for key, (y1, y2) in basis.items():
            if (y1 | y2) & low:  # y - y[low] x
                z1, z2 = (x2, x1) if y1 & low else (x1, x2)
                t = (y1 | z2) ^ (y2 | z1)
                basis[key] = ((y2 | z2) ^ t, (y1 | z1) ^ t)
        basis[low] = (x1, x2)
        pivot_mask |= low
        if len(basis) == cols:
            break
    order = sorted(basis)
    rank = len(order)
    data = b"".join(
        basis[key][j].to_bytes(width, "little") for j in (0, 1) for key in order
    )
    packed = np.frombuffer(data, dtype=np.uint8).reshape(2 * rank, width)
    bits = np.unpackbits(packed, axis=1, count=cols, bitorder="little")
    a[:rank] = bits[:rank] + 2 * bits[rank:]
    a[rank:] = 0
    return [key.bit_length() - 1 for key in order], rank


def rref(m: Matrix):
    """Reduced row echelon form.  Returns (rref matrix, pivot columns, rank)."""
    a = m.a.copy()
    pivots, rank = _rref_inplace(a, m.field.p)
    return _wrap(m.field, a), tuple(pivots), rank


def kernel_frame(m: Matrix):
    """(K, free): the columns of K are a basis of {v : m v = 0}, one per
    free column of rref(m), and K[free] = I, so a kernel vector w is K w[free]."""
    a = m.a.copy()
    p = m.field.p
    pivots, rank = _rref_inplace(a, p)
    is_free = np.ones(m.cols, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    basis = np.zeros((m.cols, free.size), dtype=np.int64)
    basis[free, np.arange(free.size)] = 1
    basis[pivots] = (-a[:rank, free]) % p
    return _wrap(m.field, basis), free


def kernel_basis(m: Matrix) -> Matrix:
    """Columns form a basis of the null space {v : m v = 0}."""
    return kernel_frame(m)[0]


def kernel_basis_of_span(m: Matrix) -> Matrix:
    """The `kernel_basis` of every system whose null space is the span of
    the columns of m: the one basis that is I at the free coordinates, a
    column's free coordinate being its last nonzero entry, so with the
    coordinates reversed it is the nonzero rows of rref(m^T), last first."""
    a = m.a.T[:, ::-1].copy()
    _, rank = _rref_inplace(a, m.field.p)
    return _wrap(m.field, a[:rank][::-1, ::-1].T.copy())


def independent_columns(prefix: Matrix, candidates: Matrix):
    """Indices of the candidate columns that are pivot columns of
    rref(prefix | candidates): each raises the rank of the prefix plus the
    candidates kept before it."""
    prefix._check_field(candidates)
    pivots, _ = _rref_inplace(np.hstack([prefix.a, candidates.a]), prefix.field.p)
    return [c - prefix.cols for c in pivots if c >= prefix.cols]


def cokernel_frame(m: Matrix):
    """(P, free): the `kernel_frame` of m^T, transposed.  The rows of P
    are a basis of {u : u m = 0} and P[:, free] = I."""
    k, free = kernel_frame(m.transpose())
    return k.transpose(), free


def column_space_basis(m: Matrix) -> Matrix:
    """Pivot columns of m, in order: a deterministic basis of the image."""
    _, pivots, _ = rref(m)
    return m.take_columns(pivots)


def solve(a: Matrix, b: Matrix) -> Matrix:
    """Particular solution x of a x = b with free variables set to 0.

    b may have several columns; raises NoSolutionError when inconsistent.
    """
    if a.rows != b.rows:
        raise ValueError(f"row mismatch {a.rows} vs {b.rows}")
    p = a.field.p
    aug = np.hstack([a.a, b.a])
    pivots, _ = _rref_inplace(aug, p)
    n = a.cols
    x = np.zeros((n, b.cols), dtype=np.int64)
    for i, c in enumerate(pivots):
        if c >= n:
            raise NoSolutionError("inconsistent linear system")
        x[c] = aug[i, n:]
    return _wrap(a.field, x)


def span_frame(m: Matrix):
    """(pivots, U) from one rref of [m | I]: m[:, pivots] is
    `column_space_basis(m)`, the first len(pivots) rows of U w are the
    coordinates of w over it, and the other rows vanish exactly when w
    lies in the span.  The only place this elimination is written."""
    aug = np.hstack([m.a, np.eye(m.rows, dtype=np.int64)])
    pivots, _ = _rref_inplace(aug, m.field.p)
    return [c for c in pivots if c < m.cols], _wrap(m.field, aug[:, m.cols :].copy())


def _span_coords(frame, w: np.ndarray) -> np.ndarray:
    """Coordinates of the columns of w over the pivot columns of a
    `span_frame`; raises NoSolutionError when w leaves the span."""
    pivots, u = frame
    uw = _matmul_mod(u.a, w, u.field.p)
    if uw[len(pivots) :].any():
        raise NoSolutionError("vector not in span of basis")
    return uw[: len(pivots)].copy()


def _cokernel_coords(frame, w: np.ndarray) -> np.ndarray:
    """The q = w[:, free] with q P = w over the `cokernel_frame` (P, free)
    of m; raises NoSolutionError unless w m = 0, as P m = 0."""
    q = w[:, frame[1]]
    if not np.array_equal(_matmul_mod(q, frame[0].a, frame[0].field.p), w):
        raise NoSolutionError("map does not factor through the quotient")
    return q


class CoordinateSolver:
    """Coordinates over a fixed full-column-rank basis, by its `span_frame`."""

    __slots__ = ("field", "rank", "_frame")

    def __init__(self, basis: Matrix):
        self._frame = span_frame(basis)
        if len(self._frame[0]) != basis.cols:
            raise ValueError("basis columns are not linearly independent")
        self.field = basis.field
        self.rank = basis.cols

    def coords(self, v: Matrix) -> Matrix:
        """Coordinates of each column of v; raises if v is not in the span."""
        return _wrap(self.field, _span_coords(self._frame, v.a))


# ---------------------------------------------------------------------------
# polynomials


class Poly:
    """Univariate polynomial over F_p, coefficients ascending, no trailing zeros."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: PrimeField, coeffs):
        cs = [int(c) % field.p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

    @classmethod
    def x(cls, field):
        return cls(field, (0, 1))

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def monic(self):
        if self.is_zero() or self.coeffs[-1] == 1:
            return self
        inv = self.field.inv(self.coeffs[-1])
        return Poly(self.field, [c * inv for c in self.coeffs])

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] += c
        return Poly(self.field, a)

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] -= c
        return Poly(self.field, a)

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.field)
        p = self.field.p
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = (out[i + j] + a * b) % p
        return Poly(self.field, out)

    def scale(self, c):
        return Poly(self.field, [c * a for a in self.coeffs])

    def __divmod__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        p = self.field.p
        rem = list(self.coeffs)
        d = other.degree()
        lead_inv = self.field.inv(other.coeffs[-1])
        quot = [0] * max(0, len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i] % p
            if c == 0:
                continue
            q = (c * lead_inv) % p
            quot[i - d] = q
            for j, b in enumerate(other.coeffs):
                rem[i - d + j] = (rem[i - d + j] - q * b) % p
        return Poly(self.field, quot), Poly(self.field, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and other.field == self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.field.p, self.coeffs))

    def __call__(self, value: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * value + c) % self.field.p
        return acc

    def eval_matrix(self, m: Matrix) -> Matrix:
        """self(m) by Horner's rule on the reduced array."""
        p, diag = m.field.p, np.arange(m.rows)
        acc = np.zeros(m.a.shape, dtype=np.int64)
        for c in reversed(self.coeffs):
            acc = _matmul_mod(acc, m.a, p)
            acc[diag, diag] = (acc[diag, diag] + c) % p
        return _wrap(m.field, acc)

    def derivative(self):
        return Poly(self.field, [i * c for i, c in enumerate(self.coeffs)][1:])

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*x^{i}" if i else str(c))
        return "Poly(" + " + ".join(terms) + f" over {self.field})"


def poly_gcd(a: Poly, b: Poly) -> Poly:
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def poly_xgcd(a: Poly, b: Poly):
    """Extended gcd: returns (g, u, v) with u a + v b = g, g monic."""
    field = a.field
    r0, r1 = a, b
    s0, s1 = Poly.one(field), Poly.zero(field)
    t0, t1 = Poly.zero(field), Poly.one(field)
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    lead_inv = field.inv(r0.leading())
    return r0.scale(lead_inv), s0.scale(lead_inv), t0.scale(lead_inv)


def poly_powmod(base: Poly, e: int, mod: Poly) -> Poly:
    result = Poly.one(base.field)
    base = base % mod
    while e > 0:
        if e & 1:
            result = (result * base) % mod
        base = (base * base) % mod
        e >>= 1
    return result


def char_poly(m: Matrix) -> Poly:
    """Characteristic polynomial det(xI - m), monic of degree n.

    Reduces to Hessenberg form by similarity, then expands the leading
    principal minors; works over any prime field.
    """
    if m.rows != m.cols:
        raise ValueError("char_poly needs a square matrix")
    field = m.field
    p = field.p
    n = m.rows
    h = m.a.copy()
    for c in range(n - 2):
        nz = np.nonzero(h[c + 1 :, c])[0]
        if nz.size == 0:
            continue
        piv = c + 1 + int(nz[0])
        if piv != c + 1:
            h[[c + 1, piv]] = h[[piv, c + 1]]
            h[:, [c + 1, piv]] = h[:, [piv, c + 1]]
        inv = field.inv(int(h[c + 1, c]))
        for r in range(c + 2, n):
            f = int(h[r, c])
            if f == 0:
                continue
            factor = (f * inv) % p
            h[r] = (h[r] - factor * h[c + 1]) % p
            h[:, c + 1] = (h[:, c + 1] + factor * h[:, r]) % p
    # p_i(x) = (x - h[i,i]) p_{i-1} - sum_k h[k,i] (prod subdiag) p_{k-1}
    polys = [Poly.one(field)]
    x = Poly.x(field)
    for i in range(n):
        term = (x - Poly(field, (h[i, i],))) * polys[i]
        prod = 1
        for k in range(i - 1, -1, -1):
            prod = (prod * int(h[k + 1, k])) % p
            coeff = (int(h[k, i]) * prod) % p
            if coeff:
                term = term - polys[k].scale(coeff)
        polys.append(term)
    return polys[n]


def min_poly(m: Matrix) -> Poly:
    """Minimal polynomial, read off one rref of the stacked powers.

    Column k of the stack is vec(m^k), k = 0..n.  The first non-pivot
    column d is the least power dependent on the lower ones, and rref
    row i of that column is its coefficient on m^i (the pivot of row i
    is column i), so the polynomial is x^d - sum_i rref[i, d] x^i.  Rows
    that are zero in every power (off the diagonal blocks of a
    block-diagonal m, say) are dropped first; the row space, and so the
    rref rows read, stay the same.
    """
    if m.rows != m.cols:
        raise ValueError("min_poly needs a square matrix")
    field = m.field
    p = field.p
    n = m.rows
    powers = np.empty((n, n, n + 1), dtype=np.int64)
    cur = np.eye(n, dtype=np.int64)
    for k in range(n + 1):
        powers[:, :, k] = cur
        if k < n:
            cur = _matmul_mod(cur, m.a, p)
    stack = powers.reshape(n * n, n + 1)
    stack = stack[stack.any(axis=1)]
    _, d = _rref_inplace(stack, p)  # the rank is the degree
    return Poly(field, [-int(c) for c in stack[:d, d]] + [1])


# factorization: squarefree / distinct-degree / equal-degree splitting


def _squarefree_decomposition(f: Poly):
    """Returns [(g, k)] with f monic = prod g^k, each g squarefree, k >= 1."""
    field = f.field
    p = field.p
    f = f.monic()
    out = []
    if f.degree() == 0:
        return out
    df = f.derivative()
    if df.is_zero():
        # f = g(x^p) = g(x)^p over the prime field
        g = Poly(field, f.coeffs[::p])
        for h, k in _squarefree_decomposition(g):
            out.append((h, k * p))
        return out
    c = poly_gcd(f, df)
    w = f // c
    k = 1
    while w.degree() > 0:
        y = poly_gcd(w, c)
        part = w // y
        if part.degree() > 0:
            out.append((part.monic(), k))
        w = y
        c = c // y
        k += 1
    if c.degree() > 0:
        # leftover factors have multiplicity divisible by p; c is a p-th
        # power, so the recursion takes the derivative-zero branch
        out.extend(_squarefree_decomposition(c))
    return out


def _distinct_degree(f: Poly):
    """For squarefree monic f: list of (product of irreducibles of degree d, d)."""
    field = f.field
    p = field.p
    out = []
    x = Poly.x(field)
    h = x
    rest = f
    d = 0
    while rest.degree() > 2 * (d + 1) - 1 and rest.degree() > 0:
        d += 1
        h = poly_powmod(h, p, rest)
        g = poly_gcd(h - x, rest)
        if g.degree() > 0:
            out.append((g, d))
            rest = rest // g
            h = h % rest
    if rest.degree() > 0:
        out.append((rest, rest.degree()))
    return out


def _equal_degree_split(f: Poly, d: int, rng) -> Poly:
    """A proper monic factor of f, where f is a product of >= 2 distinct
    irreducibles of degree d (Cantor-Zassenhaus)."""
    field = f.field
    p = field.p
    n = f.degree()
    while True:
        a = Poly(field, [int(rng.integers(0, p)) for _ in range(n)])
        if a.degree() < 1:
            continue
        g = poly_gcd(a, f)
        if 0 < g.degree() < n:
            return g
        if p == 2:
            # trace map sum a^(2^i) splits f with probability ~1/2
            b = a
            t = a
            for _ in range(d - 1):
                b = poly_powmod(b, 2, f)
                t = (t + b) % f
            g = poly_gcd(t, f)
        else:
            e = (p**d - 1) // 2
            t = poly_powmod(a, e, f) - Poly.one(field)
            g = poly_gcd(t, f)
        if 0 < g.degree() < n:
            return g


def _equal_degree_factor(f: Poly, d: int, rng):
    if f.degree() == d:
        return [f.monic()]
    g = _equal_degree_split(f, d, rng)
    return _equal_degree_factor(g, d, rng) + _equal_degree_factor(f // g, d, rng)


def factor(f: Poly, seed: int = 0):
    """Factor f into monic irreducibles: list of (irreducible, multiplicity),
    sorted by (degree, coefficients).  The leading coefficient of f is the
    unit dropped from the product; for monic f the product of the factors
    with multiplicities equals f exactly.
    """
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    rng = None  # made for the first equal-degree split, which draws from it
    found = {}
    for g, k in _squarefree_decomposition(f):
        for h, d in _distinct_degree(g):
            if rng is None and h.degree() > d:
                rng = np.random.default_rng(seed)
            for irr in _equal_degree_factor(h, d, rng):
                key = irr.coeffs
                found[key] = found.get(key, 0) + k
    items = [(Poly(f.field, cs), mult) for cs, mult in found.items()]
    items.sort(key=lambda t: (t[0].degree(), t[0].coeffs))
    return items

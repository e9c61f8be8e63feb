"""Structure theory of finite-dimensional modules over k[T]/T^n.

A module is a vector space with a nilpotent operator t, t^n = 0.  Every
module is a direct sum of "blocks": cyclic modules of dimension d <= n,
and the multiset of block sizes is a complete isomorphism invariant.
The free module of rank one (a single block of size n) is both projective
and injective since the algebra is self-injective.
"""

from __future__ import annotations

import numpy as np

from .errors import InternalContractViolation, NoSolutionError
from .ffmat import (
    CoordinateSolver,
    Matrix,
    PrimeField,
    _cokernel_coords,
    _matmul_mod,
    _span_coords,
    _wrap,
    block_diag,
    cokernel_frame,
    independent_columns,
    kernel_basis,
    kron,
    solve,
    span_frame,
)


class LambdaAlgebra:
    """k[T]/T^n over a prime field; n = 2 is the default elsewhere."""

    __slots__ = ("field", "n")

    def __init__(self, field: PrimeField, n: int = 2):
        if n < 1:
            raise ValueError("nilpotency bound must be >= 1")
        self.field = field
        self.n = int(n)

    def __eq__(self, other):
        return (
            isinstance(other, LambdaAlgebra)
            and other.field == self.field
            and other.n == self.n
        )

    def __hash__(self):
        return hash((self.field.p, self.n))

    def __repr__(self):
        return f"{self.field}[T]/T^{self.n}"


def _shift(field, size: int) -> Matrix:
    """T on the cyclic block g, Tg, ..., T^(size-1)g."""
    return _wrap(field, np.eye(size, k=-1, dtype=np.int64))


class LambdaModule:
    """A module over k[T]/T^n: the matrix of the T-action."""

    __slots__ = ("algebra", "t")

    def __init__(self, algebra: LambdaAlgebra, t: Matrix):
        if t.rows != t.cols:
            raise ValueError("operator matrix must be square")
        # a d x d matrix with t^n = 0 for some n >= d has t^d = 0
        power = Matrix.identity(algebra.field, t.rows)
        for _ in range(min(algebra.n, t.rows)):
            power = power @ t
        if not power.is_zero():
            raise ValueError(f"operator does not satisfy t^{algebra.n} = 0")
        self.algebra = algebra
        self.t = t

    @property
    def dim(self) -> int:
        return self.t.rows

    @classmethod
    def zero(cls, algebra):
        return cls(algebra, Matrix.zeros(algebra.field, 0, 0))

    @classmethod
    def simple(cls, algebra):
        return cls(algebra, Matrix.zeros(algebra.field, 1, 1))

    @classmethod
    def free(cls, algebra, rank: int = 1):
        """Lambda^rank with basis g, Tg, ..., T^(n-1)g per free generator."""
        field = algebra.field
        return cls(algebra, block_diag(field, [_shift(field, algebra.n)] * rank))

    @classmethod
    def block(cls, algebra, size: int):
        """A single cyclic module of dimension size <= n."""
        if not 1 <= size <= algebra.n:
            raise ValueError("block size out of range")
        return cls(algebra, _shift(algebra.field, size))

    def __eq__(self, other):
        return (
            isinstance(other, LambdaModule)
            and other.algebra == self.algebra
            and other.t == self.t
        )

    def __hash__(self):
        return hash((self.algebra, self.t))

    def __repr__(self):
        return f"LambdaModule(dim={self.dim} over {self.algebra})"


def direct_sum_modules(mods):
    algebra = mods[0].algebra
    return LambdaModule(algebra, block_diag(algebra.field, [m.t for m in mods]))


def block_invariants(m: LambdaModule):
    """Multiset of block sizes, sorted descending.

    The count of blocks of size exactly s is
    rank(t^(s-1)) - 2 rank(t^s) + rank(t^(s+1)); the constructor checks t^n = 0.
    """
    n = m.algebra.n
    ranks = [m.dim]
    power = m.t
    for _ in range(n - 1):
        ranks.append(power.rank())
        power = power @ m.t
    ranks += [0, 0]
    out = []
    for s in range(1, n + 1):
        count = ranks[s - 1] - 2 * ranks[s] + ranks[s + 1]
        out.extend([s] * count)
    return tuple(sorted(out, reverse=True))


def socle(m: LambdaModule) -> Matrix:
    """Basis of soc(m) = ker t as columns."""
    return kernel_basis(m.t)


def jordan_chains(m: LambdaModule):
    """Deterministic Jordan decomposition of the nilpotent operator.

    Returns a list of (head, size) with head a dim x 1 column; the vectors
    head, t head, ..., t^(size-1) head over all chains form a basis.
    Chains are listed largest size first; within a size, heads are chosen
    greedily from kernel bases in their deterministic column order.
    """
    field = m.algebra.field
    n = m.algebra.n
    dim = m.dim
    powers = [Matrix.identity(field, dim)]
    for _ in range(n):
        powers.append(powers[-1] @ m.t)
    kernels = [kernel_basis(powers[s]) for s in range(n + 1)]
    chains = []
    # avoid = K_{s-1} + span of larger chains pushed down into K_s
    for s in range(n, 0, -1):
        cols = [kernels[s - 1].a]
        for head, size in chains:
            cols.append(_matmul_mod(powers[size - s].a, head.a, field.p))
        avoid = Matrix(field, np.hstack(cols))
        for j in independent_columns(avoid, kernels[s]):
            chains.append((kernels[s].column(j), s))
    total = sum(size for _, size in chains)
    if total != dim:
        raise InternalContractViolation("jordan chain sizes do not sum to dim")
    chains.sort(key=lambda c: -c[1])
    return chains


def jordan_basis(m: LambdaModule):
    """(basis matrix J, block sizes): columns of J are the chain vectors
    head, t head, ... per chain, largest blocks first."""
    field = m.algebra.field
    chains = jordan_chains(m)
    cols = [np.zeros((m.dim, 0), dtype=np.int64)]
    sizes = []
    for head, size in chains:
        v = head.a
        for _ in range(size):
            cols.append(v)
            v = _matmul_mod(m.t.a, v, field.p)
        sizes.append(size)
    return Matrix(field, np.hstack(cols)), tuple(sizes)


def injective_envelope(m: LambdaModule):
    """Injective envelope (env, emb): env = Lambda^s with s = number of
    blocks of m; the generator of a size-d block maps to T^(n-d) times the
    corresponding free generator.  emb is a T-equivariant monomorphism and
    restricts to an isomorphism soc(m) -> soc(env).
    """
    algebra = m.algebra
    field = algebra.field
    n = algebra.n
    j, sizes = jordan_basis(m)
    env = LambdaModule.free(algebra, len(sizes))
    # per chain of size d: chain vector t^r g_b  ->  T^(n-d+r) f_b
    emb_jordan = block_diag(
        field, [_wrap(field, np.eye(n, d, k=d - n, dtype=np.int64)) for d in sizes]
    )
    to_jordan = CoordinateSolver(j)
    emb = emb_jordan @ to_jordan.coords(Matrix.identity(field, m.dim))
    return env, emb


def equivariance_system(src: LambdaModule, dst: LambdaModule) -> np.ndarray:
    """The matrix of vec(f) -> vec(f t_src - t_dst f) for f: src -> dst,
    t_src^T kron I - I kron t_dst: its kernel is the T-equivariant maps.
    Written entry by entry into the [i, k, j, l] view of `kron`, where
    A kron I fills [:, k, :, k] and I kron B fills [i, :, i, :]."""
    c, r = src.dim, dst.dim
    eq = np.zeros((c, r, c, r), dtype=np.int64)
    ks, js = np.arange(r), np.arange(c)
    eq[:, ks, :, ks] = src.t.a.T
    eq[js, :, js, :] -= dst.t.a
    return eq.reshape(c * r, c * r)


def lift_through_mono(
    a_to_b: Matrix, a_to_i: Matrix, b: LambdaModule, i_mod: LambdaModule
) -> Matrix:
    """Extension along a monomorphism into an injective module.

    Given a T-equivariant mono a_to_b: A -> B and any equivariant
    a_to_i: A -> I with I injective, returns e: B -> I equivariant with
    e . a_to_b = a_to_i.  Solvability is the injective factoring property;
    failure signals a non-injective I or bad inputs.
    """
    field = b.algebra.field
    db, di = b.dim, i_mod.dim
    rows = [kron(a_to_b.a.T, np.eye(di, dtype=np.int64)), equivariance_system(b, i_mod)]
    rhs = [a_to_i.a.reshape(-1, 1, order="F"), np.zeros((db * di, 1), dtype=np.int64)]
    system = Matrix(field, np.vstack(rows))
    target = Matrix(field, np.vstack(rhs))
    try:
        vec = solve(system, target)
    except NoSolutionError as exc:
        raise InternalContractViolation(
            "no equivariant extension exists; is the target module injective?"
        ) from exc
    return Matrix(field, vec.a.reshape((di, db), order="F"))


def submodule(m: LambdaModule, basis: Matrix):
    """The submodule spanned by the given T-invariant subspace.

    Returns (module in the basis coordinates, inclusion matrix).  Raises
    NoSolutionError if the span is not invariant.
    """
    frame = span_frame(basis)
    span = basis.take_columns(frame[0])
    t = _span_coords(frame, _matmul_mod(m.t.a, span.a, m.algebra.field.p))
    return LambdaModule(m.algebra, _wrap(span.field, t)), span


def quotient_module(m: LambdaModule, sub_basis: Matrix):
    """Quotient by an invariant subspace: (module, `cokernel_frame` of
    sub_basis, its P the projection); NoSolutionError if not invariant."""
    frame = cokernel_frame(sub_basis)
    # induced operator q with q . P = P . t
    q = _cokernel_coords(frame, _matmul_mod(frame[0].a, m.t.a, m.algebra.field.p))
    return LambdaModule(m.algebra, _wrap(m.t.field, q)), frame

"""Krull-Schmidt decomposition, radicals, isomorphism testing.

Splitting strategy: a random endomorphism whose minimal polynomial has at
least two coprime factors yields exact orthogonal idempotents (evaluate
the CRT interpolants at the endomorphism), which cut the representation
into direct summands.  A summand that refuses to split is certified
indecomposable by checking that its endomorphism algebra modulo its
radical is a division ring.

The radical of an endomorphism algebra is computed by the
characteristic-coefficient chain: over the prime field, x lies in the
radical iff the elementary-symmetric functions of degree p^k of x*y
vanish for all y and all p^k up to the dimension of the faithful module.
Each stage is a linear condition on the previous ideal.  The result is
verified post hoc to be a nilpotent two-sided ideal, which together with
the necessity of the conditions pins it to the radical exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import BudgetExceededError, InternalContractViolation
from .ffmat import (
    CoordinateSolver,
    Matrix,
    Poly,
    char_poly,
    column_space_basis,
    factor,
    independent_columns,
    kernel_basis,
    min_poly,
    poly_xgcd,
)
from .lambdamod import block_invariants
from .posetrep import (
    STAR,
    EndAlgebra,
    HomSpace,
    Morphism,
    Representation,
    end_algebra,
    hom_basis,
    image_subrep,
)

SPLIT_BUDGET = 256


@dataclass
class RadicalData:
    algebra: EndAlgebra
    radical: HomSpace  # a basis of the radical, inside Hom(x, x)
    quotient_dim: int
    coeff_matrix: Matrix  # coordinates of the radical basis in the algebra basis

    @property
    def radical_basis(self) -> tuple:
        return self.radical.basis


def _sigma(op: Matrix, k_power: int) -> int:
    """Elementary symmetric function of degree k_power of the eigenvalues,
    up to sign: the coefficient of x^(n - k_power) in the characteristic
    polynomial."""
    cp = char_poly(op)
    idx = op.rows - k_power
    return cp.coeffs[idx] if 0 <= idx < len(cp.coeffs) else 0


def radical(end: EndAlgebra) -> RadicalData:
    """Jacobson radical of End(x), with post-hoc verification."""
    x = end.rep
    field = x.field
    p = field.p
    n = x.total_dim()
    m = end.dim
    if m == 0:
        return RadicalData(end, end.space, 0, Matrix.zeros(field, 0, 0))
    coeff = Matrix.identity(field, m)  # columns: current ideal in basis coords
    k = 1
    while k <= n and coeff.cols:
        cur_ops = [h.total_matrix() for h in end.space.combinations(coeff).basis]
        size = len(cur_ops)
        system = np.zeros((size, size), dtype=np.int64)
        for r, y in enumerate(cur_ops):
            for c, b in enumerate(cur_ops):
                system[r, c] = _sigma(b @ y, k)
        ker = kernel_basis(Matrix(field, system))
        coeff = column_space_basis(coeff @ ker)
        k *= p
    rad = end.space.combinations(coeff)
    _verify_radical(end, rad)
    return RadicalData(end, rad, m - coeff.cols, coeff)


def _verify_radical(end: EndAlgebra, rad: HomSpace):
    """The computed space must be a nilpotent two-sided ideal; combined
    with the necessity of the vanishing conditions this certifies it as
    the radical."""
    x = end.rep
    if not rad.dim:
        return
    solver = CoordinateSolver(rad.basis_matrix())
    for b in rad.basis:
        for products in (end.space.postcomposed(b), end.space.precomposed(b)):
            if not solver.contains(products.basis_matrix()):
                raise InternalContractViolation("radical candidate is not an ideal")
    # nilpotency of the subspace under iterated products f . b, f outer
    current = rad
    for _ in range(end.dim + 1):
        if current.basis_matrix().is_zero():
            return
        products = HomSpace.joined(x, x, [rad.postcomposed(f) for f in current.basis])
        current = HomSpace.from_flat(x, x, column_space_basis(products.basis_matrix()))
    raise InternalContractViolation("radical candidate is not nilpotent")


def quotient_is_division_ring(end: EndAlgebra, rad: RadicalData, rng=None) -> bool:
    """Check End/J is a division ring.

    Exhaustive unit check when the quotient is small (every nonzero class
    has an invertible representative); otherwise random sampling.
    """
    field = end.rep.field
    p = field.p
    q = rad.quotient_dim
    if q == 0:
        return False
    # complement basis of the radical inside End
    comp_idx = independent_columns(rad.coeff_matrix, Matrix.identity(field, end.dim))
    comp_ops = [end.basis[i].total_matrix() for i in comp_idx]
    n = comp_ops[0].rows if comp_ops else 0
    if p**q <= 2**16:
        for code in range(1, p**q):
            acc = Matrix.zeros(field, n, n)
            c = code
            for op in comp_ops:
                digit = c % p
                c //= p
                if digit:
                    acc = acc + op.scale(digit)
            if acc.rank() < n:
                return False
        return True
    rng = rng or np.random.default_rng(0)
    for _ in range(10**4):
        coords = rng.integers(0, p, size=q)
        if not coords.any():
            continue
        acc = Matrix.zeros(field, n, n)
        for digit, op in zip(coords, comp_ops):
            if digit:
                acc = acc + op.scale(int(digit))
        if acc.rank() < n:
            return False
    # no nontrivial idempotent in any 2-dimensional subalgebra spanned by
    # the identity and a basis element: e = a + b x with e^2 = e
    ident = Matrix.identity(field, n)
    for op in comp_ops:
        for a in range(p):
            for b in range(1, p):
                e = ident.scale(a) + op.scale(b)
                if e @ e == e and not e.is_zero() and e != ident:
                    return False
    return True


def is_local(end: EndAlgebra) -> bool:
    if end.dim == 0:
        return False
    if end.dim == 1:
        return True
    rad = radical(end)
    return quotient_is_division_ring(end, rad)


@dataclass
class Summand:
    rep: Representation
    inclusion: Morphism
    projection: Morphism


@dataclass
class Decomposition:
    object: Representation
    summands: list
    certificate: dict = dataclass_field(default_factory=dict)

    def check(self) -> bool:
        """Verify the direct-sum invariants exactly."""
        x = self.object
        total = None
        for i, s in enumerate(self.summands):
            if s.projection @ s.inclusion != Morphism.identity(s.rep):
                return False
            for j, t in enumerate(self.summands):
                if i != j and not (s.projection @ t.inclusion).is_zero():
                    return False
            e = s.inclusion @ s.projection
            total = e if total is None else total + e
        if self.summands:
            return total == Morphism.identity(x)
        return x.total_dim() == 0

    def dim_multiset(self):
        return tuple(sorted(s.rep.dim_vector() for s in self.summands))


def _crt_idempotents(theta: Morphism, factors, mp: Poly):
    """Orthogonal idempotents from the coprime factorization of the
    minimal polynomial of theta."""
    field = mp.field
    out = []
    for irr, mult in factors:
        pk = Poly.one(field)
        for _ in range(mult):
            pk = pk * irr
        qk = mp // pk
        g, u, _ = poly_xgcd(qk, pk)
        if g.degree() != 0:
            raise InternalContractViolation("factors are not coprime")
        interp = (u * qk) % mp
        out.append(_eval_poly_at_morphism(interp, theta))
    return out


def _eval_poly_at_morphism(poly: Poly, theta: Morphism) -> Morphism:
    x = theta.source
    acc = Morphism.zero(x, x)
    ident = Morphism.identity(x)
    for c in reversed(poly.coeffs):
        acc = acc @ theta + ident.scale(int(c))
    return acc


def indecompose(x: Representation, seed: int = 0) -> Decomposition:
    """Complete decomposition into certified-indecomposable summands.

    Deterministic given the seed; the multiset of isomorphism classes is
    seed-independent by the uniqueness of direct-sum decompositions into
    summands with local endomorphism rings.
    """
    rng = np.random.default_rng(seed)
    trace = []
    summands = []

    def recurse(rep, incl, proj, depth):
        if rep.total_dim() == 0:
            return
        ends = end_algebra(rep)
        if ends.dim == 1:
            trace.append({"dims": rep.dim_vector(), "leaf": "end-dim-1"})
            summands.append(Summand(rep, incl, proj))
            return
        locality_checked = False
        for attempt in range(SPLIT_BUDGET):
            coords = rng.integers(0, rep.field.p, size=ends.dim)
            if not coords.any():
                continue
            theta = ends.element(coords)
            mp = min_poly(theta.total_matrix())
            factors = factor(mp, seed=int(rng.integers(0, 2**31)))
            if len(factors) >= 2:
                idems = _crt_idempotents(theta, factors, mp)
                trace.append(
                    {
                        "dims": rep.dim_vector(),
                        "split": [f.coeffs for f, _ in factors],
                        "attempt": attempt,
                    }
                )
                for e in idems:
                    part, part_incl = image_subrep(e)
                    solvers = {
                        v: CoordinateSolver(part_incl.components[v])
                        if part_incl.components[v].cols
                        else None
                        for v in rep.quiver.vertices
                    }
                    part_proj = Morphism(
                        rep,
                        part,
                        {
                            v: (
                                solvers[v].coords(e.components[v])
                                if solvers[v] is not None
                                else Matrix.zeros(rep.field, 0, rep.dim(v))
                            )
                            for v in rep.quiver.vertices
                        },
                    )
                    recurse(part, incl @ part_incl, part_proj @ proj, depth + 1)
                return
            if attempt >= 7 and not locality_checked:
                locality_checked = True
                if is_local(ends):
                    trace.append({"dims": rep.dim_vector(), "leaf": "local"})
                    summands.append(Summand(rep, incl, proj))
                    return
        if not locality_checked and is_local(ends):
            trace.append({"dims": rep.dim_vector(), "leaf": "local"})
            summands.append(Summand(rep, incl, proj))
            return
        raise BudgetExceededError(
            f"failed to split a non-local endomorphism algebra after {SPLIT_BUDGET} attempts"
        )

    recurse(x, Morphism.identity(x), Morphism.identity(x), 0)
    return Decomposition(x, summands, {"seed": seed, "method": "idempotent", "trace": trace})


def fingerprint(x: Representation):
    """Cheap isomorphism invariant: dimension vector, block invariants per
    vertex, and ranks of all composites to the top.  Memoized on x."""
    if x._fingerprint is None:
        blocks = tuple(block_invariants(x.spaces[v]) for v in x.quiver.vertices)
        ranks = tuple(
            x.composite_map(v, STAR).rank() for v in x.quiver.vertices
        )
        x._fingerprint = (x.dim_vector(), blocks, ranks)
    return x._fingerprint


def indecomposables_isomorphic(x: Representation, y: Representation, rad_x: RadicalData = None):
    """Isomorphism test for certified-indecomposable inputs.

    x and y are isomorphic iff some composite y -> x of basis morphisms in
    the two directions falls outside the radical of End(x); in that case
    the forward map is invertible and returned as witness.
    """
    if x.total_dim() == 0 and y.total_dim() == 0:
        return True, Morphism.zero(x, y)
    if fingerprint(x) != fingerprint(y):
        return False, None
    hxy = hom_basis(x, y)
    hyx = hom_basis(y, x)
    if hxy.dim == 0 or hyx.dim == 0:
        return False, None
    if rad_x is None:
        rad_x = radical(end_algebra(x))
    rad_solver = (
        CoordinateSolver(rad_x.coeff_matrix) if rad_x.coeff_matrix.cols else None
    )
    end_solver = rad_x.algebra.solver()
    for f in hxy.basis:
        # g . f for every basis g, g inner
        composites = hyx.precomposed(f).basis_matrix()
        if rad_solver:
            in_rad = rad_solver.members(end_solver.coords(composites))
        else:
            in_rad = ~composites.a.any(axis=0)
        if not in_rad.all():
            if all(
                f.components[v].rank() == x.dim(v) for v in x.quiver.vertices
            ):
                return True, f
            raise InternalContractViolation(
                "unit composite with singular forward map"
            )
    return False, None


def is_isomorphic(x: Representation, y: Representation, seed: int = 0):
    """General isomorphism test: decompose both sides and match summands.

    Returns (bool, witness morphism or None).
    """
    if x.dim_vector() != y.dim_vector():
        return False, None
    if x.total_dim() == 0:
        return True, Morphism.zero(x, y)
    dx = indecompose(x, seed=seed)
    dy = indecompose(y, seed=seed)
    used = [False] * len(dy.summands)
    pieces = []
    for sx in dx.summands:
        found = None
        for j, sy in enumerate(dy.summands):
            if used[j]:
                continue
            ok, witness = indecomposables_isomorphic(sx.rep, sy.rep)
            if ok:
                used[j] = True
                found = (sy, witness)
                break
        if found is None:
            return False, None
        pieces.append((sx, found[0], found[1]))
    total = Morphism.zero(x, y)
    for sx, sy, witness in pieces:
        total = total + (sy.inclusion @ witness @ sx.projection)
    return True, total


def iso_class_multiset(decomp: Decomposition, reference):
    """Classify each summand against a reference list of pairwise
    non-isomorphic indecomposables; returns a sorted tuple of indices.
    Raises if some summand matches nothing."""
    from .artheory import Catalog  # artheory imports this module

    catalog = Catalog(decomp.object.quiver, decomp.object.algebra)
    for ref in reference:
        catalog.add(ref)
    out = []
    for s in decomp.summands:
        matched = catalog.find_isomorphic(s.rep)
        if matched is None:
            raise InternalContractViolation(
                f"summand with dims {s.rep.dim_vector()} matches no reference object"
            )
        out.append(matched)
    return tuple(sorted(out))


# finite-scale generation and evaluation checks


def hom_image_span_check(m_summands, x: Representation):
    """The images of all morphisms from the summand list must span x at
    every vertex.  Returns None when they do, else the failing vertex."""
    field = x.field
    for v in x.quiver.vertices:
        d = x.dim(v)
        if d == 0:
            continue
        cols = [np.zeros((d, 0), dtype=np.int64)]
        for z in m_summands:
            for h in hom_basis(z, x).basis:
                cols.append(h.components[v].a)
        rank = Matrix(field, np.hstack(cols)).rank()
        if rank < d:
            return (v, rank, d)
    return None


def evaluation_iso_check(m_summands, x: Representation, pair_homs=None, pair_rads=None):
    """Bijectivity of the evaluation from the relation quotient onto x.

    The quotient of Hom(M, x) (x) M_v by the balanced-bilinearity
    relations is computed through its dual: the space of pairings
    beta(phi . s, m) = beta(phi, s m), blockwise over the summands, with s
    running over a spanning set of End(M).  The evaluation is bijective at
    a vertex iff this space has dimension dim x_v and the vertex images
    span (surjectivity).  Returns None when bijective everywhere, else
    the failing vertex.
    """
    field = x.field
    span_fail = hom_image_span_check(m_summands, x)
    if span_fail is not None:
        return span_fail[0]
    k = len(m_summands)
    homs_to_x = [hom_basis(z, x) for z in m_summands]
    solvers = [
        CoordinateSolver(h.basis_matrix()) if h.dim else None for h in homs_to_x
    ]
    if pair_homs is None:
        pair_homs = {
            (i, j): hom_basis(m_summands[j], m_summands[i])
            for i in range(k)
            for j in range(k)
        }
    for v in x.quiver.vertices:
        dims_a = [h.dim for h in homs_to_x]
        dims_d = [z.dim(v) for z in m_summands]
        offsets = np.cumsum([0] + [a * d for a, d in zip(dims_a, dims_d)])
        total = int(offsets[-1])
        rows = []
        for i in range(k):
            for j in range(k):
                hs = pair_homs[(i, j)]
                if hs.dim == 0 or dims_a[i] == 0 or dims_d[j] == 0:
                    continue
                for s in hs.basis:  # s: M_j -> M_i
                    # coords of phi . s in Hom(M_j, x) for each basis phi of Hom(M_i, x)
                    if dims_a[j]:
                        r_mat = solvers[j].coords(
                            homs_to_x[i].precomposed(s).basis_matrix()
                        )
                    else:
                        r_mat = Matrix.zeros(field, 0, dims_a[i])
                    s_v = s.components[v]  # (d_iv x d_jv)
                    block = np.zeros((dims_a[i] * dims_d[j], total), dtype=np.int64)
                    if dims_a[j] * dims_d[j]:
                        block[:, offsets[j] : offsets[j + 1]] += np.kron(
                            np.eye(dims_d[j], dtype=np.int64), r_mat.a.T
                        )
                    if dims_a[i] * dims_d[i]:
                        block[:, offsets[i] : offsets[i + 1]] -= np.kron(
                            s_v.a.T, np.eye(dims_a[i], dtype=np.int64)
                        )
                    rows.append(block)
        if rows:
            system = Matrix(field, np.vstack(rows))
            q = kernel_basis(system).cols
        else:
            q = total
        if q != x.dim(v):
            return v
    return None

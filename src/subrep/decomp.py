"""Krull-Schmidt decomposition, radicals, isomorphism testing.

Splitting strategy: a random endomorphism whose minimal polynomial has at
least two coprime factors yields exact orthogonal idempotents (evaluate
the CRT interpolants at the endomorphism), which cut the representation
into direct summands.  A summand that refuses to split is certified
indecomposable in one of two ways, both traced as `"leaf": "local"`:
a failed attempt whose minimal polynomial, a prime power q^m, has
degree dim End proves End = k[theta] = k[x]/(q^m), which is local;
otherwise its endomorphism algebra modulo its radical is checked to be
a division ring.

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
    Matrix,
    Poly,
    _matmul_mod,
    _wrap,
    char_poly,
    cokernel_frame,
    column_space_basis,
    factor,
    kernel_basis,
    min_poly,
    poly_xgcd,
)
from .lambdamod import block_invariants
from .posetrep import (
    EndAlgebra,
    HomSpace,
    Morphism,
    Representation,
    _flat_rows,
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
    frame: tuple  # cokernel_frame(coeff_matrix): End/J coordinates P c

    def quotient_coords(self, maps: HomSpace) -> np.ndarray:
        """End/J coordinates of the spanning maps, one column each, over
        the End basis elements at the frame's free coordinates; raises
        InternalContractViolation for a map outside End."""
        coords = self.algebra.space.coefficients(maps)
        if coords is None:
            raise InternalContractViolation("a map outside End has no End/J coordinates")
        return _matmul_mod(self.frame[0].a, coords.a, coords.field.p)


def _trace_form(space: HomSpace) -> np.ndarray:
    """[r, c] = tr(b_c y_r) over the spanning endomorphisms of `space`.

    Over the total space every map is block diagonal, so the trace is the
    sum over vertices of tr(b_v y_v) = <vec b_v, vec y_v^T>: the flat
    rows with each vertex block transposed, against the flat rows."""
    x = space.source
    perm = [np.arange(r.start, r.stop).reshape(d, d).T.ravel() for _, r, d, _ in _flat_rows(x, x)]
    flat = space.basis_matrix().a
    return _matmul_mod(flat[np.concatenate(perm)].T, flat, x.field.p)


def radical(end: EndAlgebra) -> RadicalData:
    """Jacobson radical of End(x), with post-hoc verification.

    Stage k of the chain puts the coefficient of x^(n - k) in the
    characteristic polynomial of every product b y of the current ideal
    basis into the system.  At k = 1 that is -tr(b y), read from the
    trace form (Cohen, Ivanyos and Wales, JPAA 117/118, 1997); later
    stages take one characteristic polynomial per distinct product."""
    x = end.rep
    field = x.field
    p = field.p
    n = x.total_dim()
    m = end.dim
    coeff = Matrix.identity(field, m)  # columns: current ideal in basis coords
    polys = {}  # characteristic polynomial of each product, by its bytes
    k = 1
    while k <= n and coeff.cols:
        ideal = end.space.combinations(coeff)
        if k == 1:
            system = -_trace_form(ideal) % p
        else:
            cur_ops = [h.total_matrix() for h in ideal.basis]
            size = len(cur_ops)
            system = np.zeros((size, size), dtype=np.int64)
            for r, y in enumerate(cur_ops):
                for c, b in enumerate(cur_ops):
                    prod = b @ y
                    key = prod.a.tobytes()
                    if key not in polys:
                        polys[key] = char_poly(prod).coeffs
                    system[r, c] = polys[key][n - k]
        ker = kernel_basis(Matrix(field, system))
        coeff = column_space_basis(coeff @ ker)
        k *= p
    rad = end.space.combinations(coeff)
    data = RadicalData(end, rad, m - coeff.cols, coeff, cokernel_frame(coeff))
    _verify_radical(data)
    return data


def _verify_radical(data: RadicalData):
    """The computed space must be a nilpotent two-sided ideal; combined
    with the necessity of the vanishing conditions this certifies it as
    the radical."""
    end, rad = data.algebra, data.radical
    # every b . e and e . b, e in End and b in the candidate
    for products in (end.space.composites(rad), rad.composites(end.space)):
        if data.quotient_coords(products).any():
            raise InternalContractViolation("radical candidate is not an ideal")
    # nilpotency of the subspace under iterated products f . b
    current = rad
    for _ in range(end.dim + 1):
        if not current.dim:  # its columns are independent
            return
        current = rad.composites(current).pivots()
    raise InternalContractViolation("radical candidate is not nilpotent")


def quotient_is_division_ring(end: EndAlgebra, rad: RadicalData) -> bool:
    """Check End/J is a division ring, exactly.

    End/J is finite and semisimple, so it is a division ring iff it is a
    field (Wedderburn's little theorem).  A commutative one is a product
    of fields F_{p^d}, and the kernel of the F_p-linear map a -> a^p - a
    has one dimension per factor (Berlekamp), so End/J is a field iff its
    multiplication table is commutative and that kernel is a line.  The
    table lives on a complement of J; p-th powers are repeated squaring
    in it.
    """
    field, x, q = end.rep.field, end.rep, rad.quotient_dim
    p = field.p
    if q == 0:
        return False
    comp = HomSpace.from_flat(x, x, end.space.basis_matrix().take_columns(rad.frame[1]))
    # column i*q + j of the composites is e_j e_i; [i, j, :] = e_i e_j
    table = rad.quotient_coords(comp.composites(comp)).T.reshape(q, q, q).transpose(1, 0, 2)
    if not np.array_equal(table, table.transpose(1, 0, 2)):
        return False
    by_left = table.reshape(q, q * q)

    def times(u, v):
        """Row-wise products u[r] v[r] of coordinate rows."""
        left = _matmul_mod(u, by_left, p).reshape(-1, q, q)
        return _matmul_mod(v[:, None, :], left, p)[:, 0, :]

    basis = np.eye(q, dtype=np.int64)
    power, square, e = None, basis, p
    while e:
        if e & 1:
            power = square if power is None else times(power, square)
        e >>= 1
        if e:
            square = times(square, square)
    frobenius = Matrix(field, power - basis)  # row i: e_i^p - e_i
    return q - frobenius.rank() == 1


def end_radical(x: Representation) -> RadicalData:
    """rad End(x), memoized on x."""
    if x._radical is None:
        x._radical = radical(end_algebra(x))
    return x._radical


def is_local(end: EndAlgebra) -> bool:
    return quotient_is_division_ring(end, end_radical(end.rep))


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


def _crt_idempotents(theta: Morphism, total: Matrix, factors, mp: Poly):
    """Orthogonal idempotents from the coprime factorization of the
    minimal polynomial of theta, whose block-diagonal total matrix is
    `total`: each interpolant is evaluated once on `total` and its vertex
    blocks are cut out."""
    field = mp.field
    x = theta.source
    ends = zip(x.quiver.vertices, x.dim_vector(), np.cumsum(x.dim_vector()))
    blocks = [(v, slice(o - d, o)) for v, d, o in ends]
    out = []
    for irr, mult in factors:
        pk = Poly.one(field)
        for _ in range(mult):
            pk = pk * irr
        qk = mp // pk
        g, u, _ = poly_xgcd(qk, pk)
        if g.degree() != 0:
            raise InternalContractViolation("factors are not coprime")
        e = ((u * qk) % mp).eval_matrix(total).a
        out.append(Morphism(x, x, {v: _wrap(field, e[b, b].copy()) for v, b in blocks}))
    return out


def indecompose(x: Representation, seed: int = 0) -> Decomposition:
    """Complete decomposition into certified-indecomposable summands.

    A leaf's End is local either because a failed attempt had a minimal
    polynomial of degree dim End (End = k[theta]) or because End/J is a
    division ring (`is_local`, tested once at the first failed attempt
    >= 7); the trace marks both `"leaf": "local"`.  Once an attempt has
    shown End = k[theta], the loop draws but computes nothing, so the
    random stream, and with it every later summand, is the same whichever
    certificate a leaf gets.

    Deterministic given the seed; the multiset of isomorphism classes is
    seed-independent by the uniqueness of direct-sum decompositions into
    summands with local endomorphism rings.
    """
    rng = np.random.default_rng(seed)
    trace = []
    summands = []

    def recurse(rep, incl, proj):
        if rep.total_dim() == 0:
            return
        ends = end_algebra(rep)
        if ends.dim == 1:
            trace.append({"dims": rep.dim_vector(), "leaf": "end-dim-1"})
            summands.append(Summand(rep, incl, proj))
            return
        locality_checked = False
        generated = False  # End = k[theta] for a theta that failed to split
        for attempt in range(SPLIT_BUDGET):
            coords = rng.integers(0, rep.field.p, size=ends.dim)
            if not coords.any():
                continue
            factor_seed = int(rng.integers(0, 2**31))
            if not generated:
                theta = ends.element(coords)
                total = theta.total_matrix()
                mp = min_poly(total)
                factors = factor(mp, seed=factor_seed)
                if len(factors) >= 2:
                    idems = _crt_idempotents(theta, total, factors, mp)
                    trace.append(
                        {
                            "dims": rep.dim_vector(),
                            "split": [f.coeffs for f, _ in factors],
                            "attempt": attempt,
                        }
                    )
                    for e in idems:
                        part, part_incl, part_proj = image_subrep(e)
                        recurse(part, incl @ part_incl, part_proj @ proj)
                    return
                # k[theta] has dimension deg mp; if that is dim End, then
                # End = k[theta] = k[x]/(q^m), which is local
                generated = mp.degree() == ends.dim
            if attempt >= 7 and not locality_checked:
                locality_checked = True
                if generated or is_local(ends):
                    trace.append({"dims": rep.dim_vector(), "leaf": "local"})
                    summands.append(Summand(rep, incl, proj))
                    return
        raise BudgetExceededError(
            f"failed to split a non-local endomorphism algebra after {SPLIT_BUDGET} attempts"
        )

    recurse(x, Morphism.identity(x), Morphism.identity(x))
    return Decomposition(x, summands, {"seed": seed, "method": "idempotent", "trace": trace})


def fingerprint(x: Representation):
    """Cheap isomorphism invariant: dimension vector and block invariants
    per vertex.  Memoized on x.  On a subspace representation every
    composite to the top is injective, so its rank, dim x_v, adds nothing."""
    if x._fingerprint is None:
        blocks = tuple(block_invariants(x.spaces[v]) for v in x.quiver.vertices)
        x._fingerprint = (x.dim_vector(), blocks)
    return x._fingerprint


def indecomposables_isomorphic(x: Representation, y: Representation):
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
    rad = end_radical(x)
    for f in hxy.basis:
        # g . f for every basis g, g inner; one outside the radical is a unit
        if rad.quotient_coords(hyx.precomposed(f)).any():
            if f.is_mono():
                return True, f
            raise InternalContractViolation(
                "unit composite with singular forward map"
            )
    return False, None


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


"""Krull-Schmidt decomposition, radicals, isomorphism testing.

Splitting strategy: a random endomorphism whose minimal polynomial has at
least two coprime factors yields exact orthogonal idempotents (evaluate
the CRT interpolants at the endomorphism), which cut the representation
into direct summands.  A summand that refuses to split is certified
indecomposable in one of two ways, both traced as `"leaf": "local"`:
a failed attempt whose minimal polynomial, a prime power q^m, has
degree dim End proves End = k[theta] = k[x]/(q^m), which is local;
otherwise its endomorphism algebra modulo its radical is checked to be
a division ring.  theta is End's `HomSpace.matrix`, on a subspace
representation its `*` component, which has theta's minimal polynomial
(theta_* X_v = X_v theta_v, X_v injective).  A part P of a split gets
End(P) = proj . End . incl in its `_end` memo, certified local if its
dimension is m deg q for q^m, the minimal polynomial of theta on P.

The random elements meet few minimal polynomials, so each one is factored
once: `_crt_interpolants` keeps, per (field, coefficients), the
factorization and, when it has at least two factors, the CRT interpolants
u_k q_k mod mp, in a cache of `FACTOR_CACHE_SIZE` entries.  The
factorization is unique, so the cache is exact; `indecompose` still draws
the seed each attempt once passed to `factor`, which keeps its random
stream, and with it every later attempt and summand, as it was when each
attempt factored.

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
from functools import lru_cache

import numpy as np

from .errors import BudgetExceededError, InternalContractViolation
from .ffmat import (
    Matrix,
    Poly,
    PrimeField,
    _matmul_mod,
    char_poly,
    cokernel_frame,
    column_space_basis,
    factor,
    kernel_basis,
    min_poly,
    poly_xgcd,
)
from .lambdamod import block_counts_of_ranks, block_invariants
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
# distinct minimal polynomials whose factorization is kept; a criterion-6
# sample meets a few dozen
FACTOR_CACHE_SIZE = 1024


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
            system = -ideal.trace_form() % p
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
    field, q = end.rep.field, rad.quotient_dim
    p = field.p
    if q == 0:
        return False
    comp = end.space.take(rad.frame[1])
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
        """Verify the direct-sum invariants exactly, two products per
        vertex v: with P the pi_i stacked and I the iota_i side by side,
        P I = id (pi_i iota_j = delta_ij) and I P = id (sum_i iota_i pi_i
        = id), modulo p."""
        x, p = self.object, self.object.field.p
        for v in x.quiver.vertices:
            n = x.dim(v)
            pis = [s.projection.components[v].a for s in self.summands]
            iotas = [s.inclusion.components[v].a for s in self.summands]
            for s, pi, iota in zip(self.summands, pis, iotas):
                if pi.shape != (s.rep.dim(v), n) or iota.shape != (n, s.rep.dim(v)):
                    return False
            stacked = np.vstack([np.zeros((0, n), dtype=np.int64)] + pis)
            joined = np.hstack([np.zeros((n, 0), dtype=np.int64)] + iotas)
            for prod in (_matmul_mod(stacked, joined, p), _matmul_mod(joined, stacked, p)):
                if not np.array_equal(prod, np.eye(len(prod), dtype=np.int64)):
                    return False
        return True


@lru_cache(maxsize=FACTOR_CACHE_SIZE)
def _crt_interpolants(field: PrimeField, coeffs: tuple):
    """(factors, interpolants) of the monic minimal polynomial mp with
    these coefficients: `factor(mp)` as a tuple, and when it has at least
    two coprime factors q_k^m_k the CRT interpolants u_k q_k mod mp,
    q_k = mp / q_k^m_k and u_k its inverse mod q_k^m_k, one per factor in
    order (otherwise None).  Cached per polynomial."""
    mp = Poly(field, coeffs)
    factors = tuple(factor(mp))
    if len(factors) < 2:
        return factors, None
    interpolants = []
    for irr, mult in factors:
        pk = Poly.one(field)
        for _ in range(mult):
            pk = pk * irr
        qk = mp // pk
        g, u, _ = poly_xgcd(qk, pk)
        if g.degree() != 0:
            raise InternalContractViolation("factors are not coprime")
        interpolants.append((u * qk) % mp)
    return factors, tuple(interpolants)


def _crt_idempotents(x: Representation, theta: Matrix, interpolants):
    """Orthogonal idempotents of x, one per CRT interpolant of the minimal
    polynomial of theta (End's `HomSpace.matrix`), each evaluated once on theta."""
    return HomSpace.from_matrices(x, x, [e.eval_matrix(theta) for e in interpolants]).basis


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

    def recurse(rep, incl, proj, generated=False):  # End = k[some theta]
        if rep.total_dim() == 0:
            return
        ends = end_algebra(rep)
        if ends.dim == 1:
            trace.append({"dims": rep.dim_vector(), "leaf": "end-dim-1"})
            summands.append(Summand(rep, incl, proj))
            return
        field = rep.field
        locality_checked = False
        for attempt in range(SPLIT_BUDGET):
            coords = rng.integers(0, field.p, size=ends.dim)
            if not coords.any():
                continue
            # the seed `factor` took before factorizations were cached:
            # still drawn, so every later draw stays the same
            rng.integers(0, 2**31)
            if not generated:
                theta = ends.space.matrix(coords)
                mp = min_poly(theta)
                factors, interpolants = _crt_interpolants(field, mp.coeffs)
                if interpolants:
                    idems = _crt_idempotents(rep, theta, interpolants)
                    trace.append(
                        {
                            "dims": rep.dim_vector(),
                            "split": [f.coeffs for f, _ in factors],
                            "attempt": attempt,
                        }
                    )
                    for e, (irr, mult) in zip(idems, factors):
                        part, part_incl, part_proj = image_subrep(e)
                        # End(part) = proj . End . incl, in the basis hom_basis gives
                        span = ends.space.postcomposed(part_proj).precomposed(part_incl)
                        part._end = EndAlgebra(span.reduced())
                        local = part._end.dim == mult * irr.degree()
                        recurse(part, incl @ part_incl, part_proj @ proj, local)
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


def block_counts(x: Representation):
    """Counts of the Jordan blocks of T of sizes 1..n: at every vertex, from
    `fingerprint`, then on x_* / im X_v at every poset point v, X_v the
    composite v -> *, on which T^s has rank rank[T_*^s | X_v] - rank X_v.
    Each is additive on direct sums, so no count of a summand of x exceeds
    x's.  Memoized on x."""
    if x._block_counts is None:
        n, t = x.algebra.n, x.spaces[STAR].t
        counts = [sizes.count(s) for sizes in fingerprint(x)[1] for s in range(1, n + 1)]
        powers = [t]
        for _ in range(n - 2):
            powers.append(powers[-1] @ t)
        for v in x.quiver.poset.points:
            y = x.composite_map(v, STAR)
            base = y.rank()
            ranks = [x.dim(STAR) - base] + [tp.hstack(y).rank() - base for tp in powers[: n - 1]]
            counts += block_counts_of_ranks(ranks)
        x._block_counts = tuple(counts)
    return x._block_counts


def fits_in(z: Representation, x: Representation) -> bool:
    """No block count of z exceeds x's: necessary for z to be a direct
    summand of x, and implies dim z_v <= dim x_v at every vertex."""
    return all(a <= b for a, b in zip(block_counts(z), block_counts(x)))


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


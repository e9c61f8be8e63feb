"""Oracles and example objects that only the tests use.

Each function here checks or builds something the library computes
elsewhere: the finite-scale generation and evaluation checks, the
factorization property of approximations, a general isomorphism test
through two idempotent splits, tau read off a catalog's meshes, and the
distinguished representations of the worked example.  None of them is
called by the library, the CLI or the benchmark.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from subrep.approx import ApproxResult
from subrep.birkhoff import SubspaceConfig
from subrep.decomp import Decomposition, indecompose, indecomposables_isomorphic
from subrep.examples import example_quiver
from subrep.ffmat import CoordinateSolver, Matrix, Poly, column_space_basis, kernel_basis, kron
from subrep.lambdamod import LambdaAlgebra, LambdaModule, block_invariants
from subrep.posetrep import STAR, Morphism, Representation, hom_basis, postcompose, precompose

# representations of the worked example


def all_free_representation(algebra: LambdaAlgebra) -> Representation:
    """I(*): the rank-one free module at every vertex with identity arrows.

    This is the indecomposable projective attached to the bottom point,
    the unique catalog member whose space at vertex 1 has dimension n.
    """
    return Representation.constant(example_quiver(), LambdaModule.free(algebra))


def twisted_pair_representation(algebra: LambdaAlgebra) -> Representation:
    """The exceptional indecomposable with dimension vector (1, 3, 3, 4).

    Total space Lambda + Lambda with basis (e, Te, f, Tf); the three
    subspaces are span{Te}, span{Te, f, Tf} and span{e+f, Te+Tf, Tf}.
    Only defined for nilpotency bound 2.
    """
    if algebra.n != 2:
        raise ValueError("this representation lives over nilpotency bound 2")
    field = algebra.field
    quiver = example_quiver()
    total = LambdaModule.free(algebra, 2)
    # span{Te}
    x1 = LambdaModule(algebra, Matrix.zeros(field, 1, 1))
    # basis (Te, f, Tf)
    x2 = LambdaModule(algebra, Matrix(field, [[0, 0, 0], [0, 0, 0], [0, 1, 0]]))
    # basis (e+f, T(e+f), Tf)
    x3 = LambdaModule(algebra, Matrix(field, [[0, 0, 0], [1, 0, 0], [0, 0, 0]]))
    spaces = {"1": x1, "2": x2, "3": x3, "*": total}
    maps = {
        ("1", "2"): Matrix(field, [[1], [0], [0]]),
        ("1", "3"): Matrix(field, [[0], [1], [-1]]),
        ("2", "*"): Matrix(field, [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]),
        ("3", "*"): Matrix(field, [[1, 0, 0], [0, 1, 0], [1, 0, 0], [0, 1, 1]]),
    }
    return Representation(quiver, algebra, spaces, maps)


def subspace_data(rep: Representation) -> SubspaceConfig:
    """Extract the invariant-subspace data from a subspace representation
    on the example quiver."""
    spans = {v: column_space_basis(rep.composite_map(v, STAR)) for v in ("1", "2", "3")}
    return SubspaceConfig(rep.spaces[STAR], spans["1"], spans["2"], spans["3"])


# small predicates


def is_monic(poly: Poly) -> bool:
    return bool(poly.coeffs) and poly.coeffs[-1] == 1


def is_equivariant(f: Matrix, src: LambdaModule, dst: LambdaModule) -> bool:
    if f.rows != dst.dim or f.cols != src.dim:
        return False
    return f @ src.t == dst.t @ f


def is_injective_module(m: LambdaModule) -> bool:
    """Injective = projective = free: all blocks have size n."""
    return all(s == m.algebra.n for s in block_invariants(m))


def dim_multiset(decomp: Decomposition):
    return tuple(sorted(s.rep.dim_vector() for s in decomp.summands))


def chase_class_multiset(decomp: Decomposition):
    return tuple(sorted(decomp.certificate["classes"]))


# the factorization property of approximations


def _first_unfactored(tests, homs_from, span_from):
    """The first (test, h) with h in the basis of homs_from(test) but not
    in the span span_from(test); None when every such map lies in it."""
    for test in tests:
        homs = homs_from(test)
        if homs.dim == 0:
            continue
        span = span_from(test)
        if span.coefficients(homs) is None:
            return test, next(h for h in homs.basis if span.coefficients([h]) is None)
    return None


def verify_right_approx(res: ApproxResult, tests):
    """Check the factorization property of r: R(x) -> x.

    For every test object F and every h: F -> x, some h': F -> R(x)
    satisfies r . h' = h.  Returns None when all pass, else the failing
    (test, morphism) pair.
    """
    r = res.structure_map
    return _first_unfactored(
        tests, lambda t: hom_basis(t, r.target), lambda t: postcompose(r, t)
    )


def verify_left_approx(res: ApproxResult, tests):
    """Dual factorization check for l: x -> L(x): every h: x -> F factors
    as h' . l.  Returns None when all pass, else the failing pair."""
    l = res.structure_map
    return _first_unfactored(
        tests, lambda t: hom_basis(l.source, t), lambda t: precompose(l, t)
    )


# isomorphism of arbitrary representations


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


# finite-scale generation and evaluation checks
#
# Once a list of summands contains every indecomposable projective, their
# sum M is a generator, and both checks pass for every x (Auslander,
# "Representation theory of Artin algebras I", Comm. Algebra 1, 1974).
# They test the projectives, not the completeness of a catalog.


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


def evaluation_iso_check(m_summands, x: Representation, pair_homs=None):
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
    solvers = [CoordinateSolver(h.basis_matrix()) for h in homs_to_x]
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
        rows = [np.zeros((0, total), dtype=np.int64)]
        for i in range(k):
            for j in range(k):
                hs = pair_homs[(i, j)]
                if hs.dim == 0 or dims_a[i] == 0 or dims_d[j] == 0:
                    continue
                for s in hs.basis:  # s: M_j -> M_i
                    # coords of phi . s in Hom(M_j, x) for each basis phi of Hom(M_i, x)
                    r_mat = solvers[j].coords(homs_to_x[i].precomposed(s).basis_matrix())
                    s_v = s.components[v]  # (d_iv x d_jv)
                    block = np.zeros((dims_a[i] * dims_d[j], total), dtype=np.int64)
                    block[:, offsets[j] : offsets[j + 1]] += kron(
                        np.eye(dims_d[j], dtype=np.int64), r_mat.a.T
                    )
                    block[:, offsets[i] : offsets[i + 1]] -= kron(
                        s_v.a.T, np.eye(dims_a[i], dtype=np.int64)
                    )
                    rows.append(block)
        q = kernel_basis(Matrix(field, np.vstack(rows))).cols
        if q != x.dim(v):
            return v
    return None


# the Auslander-Reiten translate, read off a catalog


def tau_orbits(catalog):
    """The tau-orbit type of a catalog, with tau read off its meshes as
    C -> find_isomorphic(meshes[C].a).

    Returns ({orbit length: number of objects on periodic orbits of that
    length}, [where the tau-chain of each other object with a mesh
    ends]).  A chain ends at the first object with no mesh, or at None
    when a translate is no catalog object."""
    tau = {c: catalog.find_isomorphic(seq.a) for c, seq in catalog.meshes.items()}
    periodic = Counter()
    ends = []
    for start in tau:
        current, steps = tau[start], 1
        while current in tau and current != start and steps <= len(tau):
            current, steps = tau[current], steps + 1
        if current == start:
            periodic[steps] += 1
        else:
            ends.append(current)
    return dict(periodic), ends

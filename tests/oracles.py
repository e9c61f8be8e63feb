"""Oracles and example objects that only the tests use.

Each function here checks or builds something the library computes
elsewhere: the finite-scale generation and evaluation checks, the
factorization property of approximations, path commutativity by
walking every path, a general isomorphism test through two idempotent
splits, the invariant-subspace report's intersections of spans, tau
read off a catalog's meshes, the fixpoint closure of a poset's order,
polynomial arithmetic on padded coefficient lists, and the
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
from subrep.lambdamod import LambdaAlgebra, LambdaModule, block_invariants, quotient_module
from subrep.posetrep import (
    STAR,
    HomSpace,
    Morphism,
    Representation,
    hom_basis,
    morphism_from_flat,
)
from subrep.sampling import intersect_spans


def flat_span(x: Representation, y: Representation, flat: Matrix) -> HomSpace:
    """The span x -> y of the flattened morphisms in the columns of
    `flat`, whatever form y fixes: built from the morphisms, so
    `basis_matrix()` is `flat` itself and nothing is lifted."""
    return HomSpace(x, y, [morphism_from_flat(x, y, col) for col in flat.a.T])


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


# the invariant-subspace report, by intersections of spans


def intersection_details(cfg: SubspaceConfig, decomp: Decomposition):
    """The invariant-subspace report's details and compatibility computed
    from spans: each V_j intersected with the `*` support of every
    summand, and V_j compared with the span of those intersections.
    Returns ([(j, dim V_j, sum of intersection dims)], compatible)."""
    rep = decomp.object
    field = rep.field
    supports = [column_space_basis(s.inclusion.components[STAR]) for s in decomp.summands]
    details = []
    compatible = True
    for j, span in (("1", cfg.v1), ("2", cfg.v2), ("3", cfg.v3)):
        vj = column_space_basis(span)
        inter_dims = []
        union_cols = [np.zeros((rep.dim(STAR), 0), dtype=np.int64)]
        for w in supports:
            inter = intersect_spans(field, [vj, w])
            inter_dims.append(inter.cols)
            union_cols.append(inter.a)
        union = column_space_basis(Matrix(field, np.hstack(union_cols)))
        compatible &= sum(inter_dims) == vj.cols and union.cols == vj.cols
        details.append((j, vj.cols, sum(inter_dims)))
    return details, compatible


# the closure of a poset's order and polynomial arithmetic, as loops


def reference_poset(points, relations):
    """(le, covers, maximal elements) of the poset on `points` generated
    by `relations`, closed by `reference_closure`, with the covers sorted
    by point index; raises the ValueError `Poset` raises on the same
    input."""
    points = tuple(str(x) for x in points)
    if "*" in points:
        raise ValueError("the label '*' is reserved for the added top")
    if len(set(points)) != len(points):
        raise ValueError("duplicate point labels")
    relations = [(str(a), str(b)) for a, b in relations]
    for a, b in relations:
        unknown = [x for x in (a, b) if x not in points]
        if a == b:
            unknown = unknown[:1]
        if len(unknown) == 2:
            raise ValueError(f"relation {a}<{b} mentions unknown points {a!r} and {b!r}")
        if unknown:
            raise ValueError(f"relation {a}<{b} mentions unknown point {unknown[0]!r}")
    le = {(x, x) for x in points}
    le.update(relations)
    le = reference_closure(le)
    for a, b in le:
        if a != b and (b, a) in le:
            raise ValueError(f"antisymmetry fails on {a!r}, {b!r}")
    index = {x: i for i, x in enumerate(points)}
    if any(index[a] > index[b] for a, b in le):
        raise ValueError("point order is not a linear extension of the order")
    covers = [
        (a, b)
        for a in points
        for b in points
        if a != b and (a, b) in le
        and not any(c != a and c != b and (a, c) in le and (c, b) in le for c in points)
    ]
    covers.sort(key=lambda e: (index[e[0]], index[e[1]]))
    maximal = tuple(a for a in points if not any(a != b and (a, b) in le for b in points))
    return frozenset(le), tuple(covers), maximal


def reference_closure(le) -> set:
    """The transitive closure of the relation set `le`: (a, d) is added for
    every (a, b), (b, d) in it until nothing changes."""
    le = set(le)
    changed = True
    while changed:
        changed = False
        for a, b in list(le):
            for c, d in list(le):
                if b == c and (a, d) not in le:
                    le.add((a, d))
                    changed = True
    return le


def reference_poly_add(f: Poly, g: Poly) -> Poly:
    """f + g on f's coefficients padded with zeros to the longer length."""
    n = max(len(f.coeffs), len(g.coeffs))
    a = list(f.coeffs) + [0] * (n - len(f.coeffs))
    for i, c in enumerate(g.coeffs):
        a[i] += c
    return Poly(f.field, a)


def reference_poly_sub(f: Poly, g: Poly) -> Poly:
    """f - g on f's coefficients padded with zeros to the longer length."""
    n = max(len(f.coeffs), len(g.coeffs))
    a = list(f.coeffs) + [0] * (n - len(f.coeffs))
    for i, c in enumerate(g.coeffs):
        a[i] -= c
    return Poly(f.field, a)


def reference_poly_mul(f: Poly, g: Poly) -> Poly:
    """f g by the schoolbook product, the zero polynomial handled apart."""
    if f.is_zero() or g.is_zero():
        return Poly.zero(f.field)
    p = f.field.p
    out = [0] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] = (out[i + j] + a * b) % p
    return Poly(f.field, out)


def reference_poly_gcd(f: Poly, g: Poly) -> Poly:
    """The monic gcd by Euclid's algorithm, zero when f and g are."""
    while not g.is_zero():
        f, g = g, f % g
    return f.monic() if not f.is_zero() else f


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


def reference_block_counts(x: Representation):
    """`decomp.block_counts` from Jordan types: the number of blocks of
    each size 1..n in `block_invariants` of every vertex module, then of
    the quotient module x_* / im X_v at every poset point v."""
    modules = [x.spaces[v] for v in x.quiver.vertices]
    for v in x.quiver.poset.points:
        image = column_space_basis(x.composite_map(v, STAR))
        modules.append(quotient_module(x.spaces[STAR], image)[0])
    sizes = range(1, x.algebra.n + 1)
    return tuple(Counter(block_invariants(m))[s] for m in modules for s in sizes)


def dim_multiset(decomp: Decomposition):
    return tuple(sorted(s.rep.dim_vector() for s in decomp.summands))


def chase_class_multiset(decomp: Decomposition):
    return tuple(sorted(decomp.certificate["classes"]))


# path commutativity, by walking every path


def walked_path_problems(x: Representation) -> list:
    """The path-commutativity problems of x found by walking paths: from
    each vertex i, depth first along `arrows_from`, the first composite
    to reach a vertex is kept and every later arrival that differs from it
    is a problem, in the words of `Representation.validate`.  x must pass
    the shape and T-equivariance checks of `validate`."""
    problems = []
    for i in x.quiver.vertices:
        _walk_paths(x, i, i, Matrix.identity(x.field, x.dim(i)), {}, problems)
    return problems


def _walk_paths(x, start, v, acc, reached, problems):
    for (s, t) in x.quiver.arrows_from(v):
        m = x.arrow_maps[(s, t)] @ acc
        if t in reached:
            if reached[t] != m:
                problems.append(f"paths from {start} to {t} do not commute (last arrow {s}->{t})")
        else:
            reached[t] = m
            _walk_paths(x, start, t, m, reached, problems)


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
        tests,
        lambda t: hom_basis(t, r.target),
        lambda t: hom_basis(t, r.source).postcomposed(r),
    )


def verify_left_approx(res: ApproxResult, tests):
    """Dual factorization check for l: x -> L(x): every h: x -> F factors
    as h' . l.  Returns None when all pass, else the failing pair."""
    l = res.structure_map
    return _first_unfactored(
        tests,
        lambda t: hom_basis(l.source, t),
        lambda t: hom_basis(l.target, t).precomposed(l),
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

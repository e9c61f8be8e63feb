"""Almost-split machinery and catalog construction.

The catalog is built by a closure process: seed with the indecomposable
projectives, discover new indecomposables as summands of radicals of
projectives, of translate candidates (the composite of the dual transpose
with the right approximation), of mesh kernels and of socle-quotient
approximations, and for every known non-projective object assemble a
candidate almost-split sequence from lifts of irreducible maps.  No
construction is trusted: every sequence must pass the lifting tests
against all current objects plus random subspace representations before
it counts as verified.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .approx import right_approx
from .decomp import (
    RadicalData,
    fingerprint,
    indecompose,
    indecomposables_isomorphic,
    radical,
)
from .errors import (
    BudgetExceededError,
    HasProjectiveSummandError,
    InternalContractViolation,
)
from .ffmat import (
    Matrix,
    column_space_basis,
    independent_columns,
    kernel_basis,
    left_kernel_basis,
    solve,
)
from .lambdamod import LambdaAlgebra, LambdaModule, block_invariants
from .posetrep import (
    STAR,
    EndAlgebra,
    HomSpace,
    Morphism,
    QuiverStar,
    Representation,
    direct_sum,
    end_algebra,
    hom_basis,
    kernel_subrep,
    postcompose,
    precompose,
    quotient_rep,
    subrep_from_bases,
)
from .sampling import random_subspace_representation


def indecomposable_projectives(quiver: QuiverStar, algebra: LambdaAlgebra):
    """One projective P(i) per vertex: the free rank-one module at every
    vertex above i, zero elsewhere, with identity arrows."""
    field = algebra.field
    n = algebra.n
    out = []
    for i in quiver.vertices:
        spaces = {}
        for v in quiver.vertices:
            above = v == i or quiver.leq(i, v)
            spaces[v] = LambdaModule.free(algebra) if above else LambdaModule.zero(algebra)
        maps = {}
        for (s, t) in quiver.arrows:
            ds, dt = spaces[s].dim, spaces[t].dim
            if ds == dt and ds:
                maps[(s, t)] = Matrix.identity(field, n)
            else:
                maps[(s, t)] = Matrix.zeros(field, dt, ds)
        out.append(Representation(quiver, algebra, spaces, maps))
    return out


def rad_subrep(x: Representation):
    """The radical subrepresentation: T times the space plus the images of
    incoming arrows, at each vertex."""
    field = x.field
    bases = {}
    for v in x.quiver.vertices:
        cols = [x.spaces[v].t.a]
        for (s, t) in x.quiver.arrows_into(v):
            cols.append(x.arrow_maps[(s, t)].a)
        bases[v] = column_space_basis(Matrix(field, np.hstack(cols)))
    return subrep_from_bases(x, bases)


def socle_subrep(x: Representation):
    """The largest semisimple subrepresentation: vectors killed by T and
    by all outgoing arrows."""
    field = x.field
    bases = {}
    for v in x.quiver.vertices:
        rows = [x.spaces[v].t.a]
        for (s, t) in x.quiver.arrows_from(v):
            rows.append(x.arrow_maps[(s, t)].a)
        bases[v] = kernel_basis(Matrix(field, np.vstack(rows)))
    return subrep_from_bases(x, bases)


def top_complement(x: Representation, v) -> Matrix:
    """Deterministic basis lifting top(x) at vertex v: standard basis
    vectors completing rad(x)_v."""
    field = x.field
    cols = [x.spaces[v].t.a]
    for (s, t) in x.quiver.arrows_into(v):
        cols.append(x.arrow_maps[(s, t)].a)
    rad_span = column_space_basis(Matrix(field, np.hstack(cols)))
    ident = Matrix.identity(field, x.dim(v))
    return ident.take_columns(independent_columns(rad_span, ident))


def projective_cover(x: Representation):
    """Minimal projective cover.

    Returns (cover morphism pi, list of (vertex, generator column) per
    projective block).  The domain of pi is the direct sum of one P(i)
    per chosen top generator at vertex i, in vertex order.
    """
    quiver = x.quiver
    algebra = x.algebra
    field = x.field
    n = algebra.n
    projectives = {v: None for v in quiver.vertices}
    blocks = []  # (vertex, generator column in x)
    for v in quiver.vertices:
        tops = top_complement(x, v)
        for j in range(tops.cols):
            blocks.append((v, tops.column(j)))
    proj_list = indecomposable_projectives(quiver, algebra)
    proj_by_vertex = dict(zip(quiver.vertices, proj_list))
    parts = [proj_by_vertex[v] for v, _ in blocks]
    if parts:
        ds = direct_sum(parts)
        p0 = ds.rep
    else:
        p0 = Representation.zero(quiver, algebra)
        ds = None
    comps = {}
    for w in quiver.vertices:
        cols = []
        for (v, gen) in blocks:
            block_rep = proj_by_vertex[v]
            if block_rep.dim(w) == 0:
                cols.append(np.zeros((x.dim(w), 0), dtype=np.int64))
                continue
            image = x.composite_map(v, w) @ gen  # image of the free generator
            sub_cols = [image.a]
            for _ in range(n - 1):
                sub_cols.append((x.spaces[w].t @ Matrix(field, sub_cols[-1])).a)
            cols.append(np.hstack(sub_cols))
        comps[w] = Matrix(
            field,
            np.hstack(cols) if cols else np.zeros((x.dim(w), 0), dtype=np.int64),
        )
    pi = Morphism(p0, x, comps)
    for v in quiver.vertices:
        if comps[v].rank() != x.dim(v):
            raise InternalContractViolation("projective cover is not surjective")
    return pi, blocks


def _lambda_mult_matrix(field, coeffs, n) -> Matrix:
    """Matrix of multiplication by sum coeffs[r] T^r on basis 1..T^(n-1)."""
    m = np.zeros((n, n), dtype=np.int64)
    for r, c in enumerate(coeffs):
        for s in range(n - r):
            m[r + s, s] = c
    return Matrix(field, m)


def dtr(x: Representation) -> Representation:
    """Dual of the transpose of a minimal projective presentation.

    Computes P1 -> P0 -> x -> 0 via projective covers, applies
    Hom(-, algebra) blockwise (each block map becomes multiplication by a
    ring element on the opposite projectives), takes vertex-wise
    cokernels, and dualizes back.  Raises HasProjectiveSummandError when x
    has a projective direct summand.
    """
    quiver = x.quiver
    algebra = x.algebra
    field = algebra.field
    n = algebra.n
    if x.total_dim() == 0:
        return x
    pi0, blocks0 = projective_cover(x)
    k_rep, k_incl = kernel_subrep(pi0)
    if k_rep.total_dim() == 0:
        raise HasProjectiveSummandError("the module is projective")
    pi1, blocks1 = projective_cover(k_rep)
    d = k_incl @ pi1  # presentation map P1 -> P0
    b_verts = [v for v, _ in blocks0]  # P0 block vertices
    a_verts = [v for v, _ in blocks1]  # P1 block vertices

    def offsets_at(verts_list, v):
        # column/row offset of each block alive at vertex v
        offs = {}
        o = 0
        for idx, bv in enumerate(verts_list):
            if quiver.leq(bv, v):
                offs[idx] = o
                o += n
        return offs

    # lambda coefficients of each block component of d: the generator of
    # the s-th P1 block is the first column of its block at vertex a_s
    lam = {}
    for s, av in enumerate(a_verts):
        offs1 = offsets_at(a_verts, av)
        offs0 = offsets_at(b_verts, av)
        col = d.components[av].column(offs1[s])
        for t, bv in enumerate(b_verts):
            if t in offs0:
                coeffs = [int(col.a[offs0[t] + r, 0]) for r in range(n)]
                lam[(t, s)] = coeffs
    # projective summand detection: a P0 block hit by no relation
    for t, bv in enumerate(b_verts):
        if not any(any(lam.get((t, s), ())) for s in range(len(a_verts))):
            raise HasProjectiveSummandError(
                f"projective summand attached at vertex {bv!r}"
            )
    # vertex-wise transpose complex and cokernels
    cokers = {}
    t_bars = {}
    for v in quiver.vertices:
        alive_rows = [s for s, av in enumerate(a_verts) if quiver.leq(v, av)]
        alive_cols = [t for t, bv in enumerate(b_verts) if quiver.leq(v, bv)]
        c = np.zeros((n * len(alive_rows), n * len(alive_cols)), dtype=np.int64)
        for ri, s in enumerate(alive_rows):
            for ci, t in enumerate(alive_cols):
                if (t, s) in lam:
                    c[ri * n : (ri + 1) * n, ci * n : (ci + 1) * n] = (
                        _lambda_mult_matrix(field, lam[(t, s)], n).a
                    )
        cmat = Matrix(field, c)
        l = left_kernel_basis(cmat)  # rows: coker coordinates
        cokers[v] = (l, alive_rows)
        # T acts blockwise as multiplication by T on the free modules
        t_free = np.zeros((n * len(alive_rows),) * 2, dtype=np.int64)
        shift = _lambda_mult_matrix(field, [0, 1] + [0] * (n - 2), n).a if n > 1 else np.zeros((1, 1), dtype=np.int64)
        for ri in range(len(alive_rows)):
            t_free[ri * n : (ri + 1) * n, ri * n : (ri + 1) * n] = shift
        if l.rows:
            t_bar = solve(l.transpose(), (l @ Matrix(field, t_free)).transpose()).transpose()
        else:
            t_bar = Matrix.zeros(field, 0, 0)
        t_bars[v] = t_bar
    spaces = {}
    maps = {}
    for v in quiver.vertices:
        spaces[v] = LambdaModule(algebra, t_bars[v].transpose())
    for (i, j) in quiver.arrows:
        li, rows_i = cokers[i]
        lj, rows_j = cokers[j]
        # free-level inclusion of blocks alive at j into blocks alive at i
        e = np.zeros((n * len(rows_i), n * len(rows_j)), dtype=np.int64)
        for cj, s in enumerate(rows_j):
            ci = rows_i.index(s)
            e[ci * n : (ci + 1) * n, cj * n : (cj + 1) * n] = np.eye(n, dtype=np.int64)
        if li.rows and lj.rows:
            psi = solve(lj.transpose(), (li @ Matrix(field, e)).transpose()).transpose()
        else:
            psi = Matrix.zeros(field, li.rows, lj.rows)
        maps[(i, j)] = psi.transpose()
    return Representation(quiver, algebra, spaces, maps)


def relative_translate_candidate(x: Representation, seed: int = 0):
    """Candidate translate orbit members: decompose the right
    approximation of the dual transpose.  No correctness claims; the
    almost-split verifier is authoritative."""
    image = right_approx(dtr(x)).approx
    return [s.rep for s in indecompose(image, seed=seed).summands]


def _radical_maps(
    x: Representation, y: Representation, rad_end: RadicalData, compose
) -> HomSpace:
    """Basis of the maps h: x -> y with h . u (compose =
    HomSpace.precomposed) or u . h (compose = HomSpace.postcomposed) in
    the radical of rad_end's algebra for every u: y -> x; compose(homs, u)
    composes every h of a hom space with u.  Into an indecomposable C
    (y = C, h . u) or out of an indecomposable A (x = A, u . h) these are
    the non-split maps."""
    homs = hom_basis(x, y)
    if homs.dim == 0:
        return homs
    back = hom_basis(y, x)
    if back.dim == 0:
        return homs
    end = rad_end.algebra
    field = x.field
    rad_cols = rad_end.coeff_matrix
    # h in rad iff, for every u, the coordinates of compose(h, u) lie in
    # the radical span: project the coordinates to the quotient and
    # intersect the kernels over all u
    if rad_cols.cols:
        proj = left_kernel_basis(rad_cols)
    else:
        proj = Matrix.identity(field, end.dim)
    rows = []
    for u in back.basis:
        coords = end.solver().coords(compose(homs, u).basis_matrix())
        rows.append((proj @ coords).a)
    k = kernel_basis(Matrix(field, np.vstack(rows)))
    return homs.combinations(k)


def _is_split_epi(g: Morphism) -> bool:
    """Does the identity of C factor as g . s?"""
    return postcompose(g, g.target).coefficients([Morphism.identity(g.target)]) is not None


def _right_lifting(g: Morphism, test: Representation, rad_end_c: RadicalData) -> bool:
    """Every radical map test -> C factors through g: B -> C."""
    maps = _radical_maps(test, g.target, rad_end_c, HomSpace.precomposed)
    return not maps.dim or postcompose(g, test).coefficients(maps) is not None


def _left_lifting(f: Morphism, test: Representation, rad_end_a: RadicalData) -> bool:
    """Every radical map A -> test factors through f: A -> B."""
    maps = _radical_maps(f.source, test, rad_end_a, HomSpace.postcomposed)
    return not maps.dim or precompose(f, test).coefficients(maps) is not None


def is_right_almost_split(g: Morphism, tests, rad_end_c: RadicalData = None) -> bool:
    """g: B -> C is right almost split over the test objects: not a split
    epimorphism, and every non-split-epi map X -> C from a test object
    factors through g.  Non-split-epis into an indecomposable C form the
    radical subspace, so the factoring check runs on a radical basis."""
    if _is_split_epi(g):
        return False
    if rad_end_c is None:
        rad_end_c = radical(end_algebra(g.target))
    return all(_right_lifting(g, test, rad_end_c) for test in tests)


def is_left_almost_split(f: Morphism, tests, rad_end_a: RadicalData = None) -> bool:
    """Dual: f: A -> B is not a split monomorphism and every non-split-mono
    A -> X factors as h' . f."""
    a = f.source
    if precompose(f, a).coefficients([Morphism.identity(a)]) is not None:
        return False
    if rad_end_a is None:
        rad_end_a = radical(end_algebra(a))
    return all(_left_lifting(f, test, rad_end_a) for test in tests)


@dataclass
class ARSequence:
    a: Representation
    b: Representation
    c: Representation
    f: Morphism  # a -> b
    g: Morphism  # b -> c
    verified: bool = False
    middle_parts: tuple = ()  # catalog indices of the middle summands


def sequence_is_exact_nonsplit(seq: ARSequence) -> bool:
    f, g = seq.f, seq.g
    if not all(
        f.components[v].rank() == seq.a.dim(v) for v in seq.a.quiver.vertices
    ):
        return False
    if not all(
        g.components[v].rank() == seq.c.dim(v) for v in seq.c.quiver.vertices
    ):
        return False
    if not (g @ f).is_zero():
        return False
    if seq.a.total_dim() + seq.c.total_dim() != seq.b.total_dim():
        return False
    return not _is_split_epi(g)


def verify_ar_sequence(
    seq: ARSequence, tests, rng=None, random_tests: int = 20, dim_caps=None
) -> bool:
    """Full almost-split verification: exactness, non-splitness, the two
    lifting properties against the given tests, and factorization of all
    radical maps from/to extra random subspace representations."""
    if not sequence_is_exact_nonsplit(seq):
        seq.verified = False
        return False
    rad_c = radical(end_algebra(seq.c))
    rad_a = radical(end_algebra(seq.a))
    if not is_right_almost_split(seq.g, tests, rad_end_c=rad_c):
        seq.verified = False
        return False
    if not is_left_almost_split(seq.f, tests, rad_end_a=rad_a):
        seq.verified = False
        return False
    if random_tests:
        rng = rng if rng is not None else np.random.default_rng(0)
        quiver = seq.c.quiver
        caps = dim_caps or {v: 3 for v in quiver.poset.points} | {STAR: 5}
        for _ in range(random_tests):
            rnd = random_subspace_representation(quiver, seq.c.algebra, caps, rng)
            if not (
                _right_lifting(seq.g, rnd, rad_c) and _left_lifting(seq.f, rnd, rad_a)
            ):
                seq.verified = False
                return False
    seq.verified = True
    return True


class Catalog:
    """Finite list of pairwise non-isomorphic indecomposables with mesh
    data and cached hom/radical information."""

    def __init__(self, quiver: QuiverStar, algebra: LambdaAlgebra):
        self.quiver = quiver
        self.algebra = algebra
        self.objects: list[Representation] = []
        self.projective: list[bool] = []
        self.meshes: dict[int, ARSequence] = {}
        self.left_maps: dict[int, tuple[Morphism, tuple]] = {}
        self._fps: dict = {}
        self._homs: dict = {}
        self._rad_ends: dict = {}
        self._end_algs: dict = {}
        self._irr_cache: dict = {}

    def __len__(self):
        return len(self.objects)

    def add(self, rep: Representation, projective=False) -> int:
        idx = len(self.objects)
        self.objects.append(rep)
        self.projective.append(projective)
        self._fps.setdefault(fingerprint(rep), []).append(idx)
        return idx

    def find_isomorphic(self, rep: Representation):
        fp = fingerprint(rep)
        for idx in self._fps.get(fp, ()):
            ok, _ = indecomposables_isomorphic(self.objects[idx], rep, rad_x=self.rad_end(idx))
            if ok:
                return idx
        return None

    def hom(self, i: int, j: int) -> HomSpace:
        key = (i, j)
        if key not in self._homs:
            self._homs[key] = hom_basis(self.objects[i], self.objects[j])
        return self._homs[key]

    def end_alg(self, i: int) -> EndAlgebra:
        if i not in self._end_algs:
            self._end_algs[i] = EndAlgebra(self.hom(i, i))
        return self._end_algs[i]

    def rad_end(self, i: int) -> RadicalData:
        if i not in self._rad_ends:
            self._rad_ends[i] = radical(self.end_alg(i))
        return self._rad_ends[i]

    def rad_space(self, i: int, j: int) -> HomSpace:
        """Basis of rad(objects[i], objects[j]): all homs when i != j,
        the endomorphism radical when i == j."""
        if i == j:
            return self.rad_end(i).radical
        return self.hom(i, j)

    def rad_square_span(self, i: int, j: int) -> Matrix:
        """Flattened span of rad^2(objects[i], objects[j]): the composites
        t . u, u outer and t inner."""
        spans = []
        for w in range(len(self.objects)):
            first = self.rad_space(i, w)
            second = self.rad_space(w, j)
            if second.dim:
                spans += [second.precomposed(u) for u in first.basis]
        homs = HomSpace.joined(self.objects[i], self.objects[j], spans)
        return column_space_basis(homs.basis_matrix())

    def irreducible_lifts(self, i: int, j: int):
        """Morphism lifts of a basis of rad/rad^2 from objects[i] to
        objects[j], deterministic.  Cached per catalog size since rad^2
        grows as objects are admitted."""
        key = (i, j, len(self.objects))
        if key not in self._irr_cache:
            rad = self.rad_space(i, j)
            lifts = []
            if rad.dim:
                picked = independent_columns(self.rad_square_span(i, j), rad.basis_matrix())
                lifts = [rad.basis[k] for k in picked]
            self._irr_cache[key] = lifts
        return self._irr_cache[key]

    def irreducible_dims(self):
        dims = {}
        for i in range(len(self.objects)):
            for j in range(len(self.objects)):
                lifts = self.irreducible_lifts(i, j)
                if lifts:
                    dims[(i, j)] = len(lifts)
        return dims

    def max_length(self) -> int:
        return max((x.total_dim() for x in self.objects), default=0)

    def members(self):
        return list(self.objects)


def _assemble_right_mesh(catalog: Catalog, c_idx: int):
    """Candidate minimal right almost split map into objects[c_idx]:
    one copy of objects[z] per irreducible lift z -> c, stacked."""
    parts = []
    lifts = []
    for z in range(len(catalog.objects)):
        for h in catalog.irreducible_lifts(z, c_idx):
            parts.append(z)
            lifts.append(h)
    if not parts:
        return None
    ds = direct_sum([catalog.objects[z] for z in parts])
    c = catalog.objects[c_idx]
    comps = {}
    for v in catalog.quiver.vertices:
        cols = [h.components[v].a for h in lifts]
        comps[v] = Matrix(c.field, np.hstack(cols))
    g = Morphism(ds.rep, c, comps)
    return g, tuple(parts)


def build_catalog(
    quiver: QuiverStar,
    algebra: LambdaAlgebra,
    budget: int = 200,
    seed: int = 0,
    random_mesh_tests: int = 20,
) -> Catalog:
    """Closure process over projective seeds, translate candidates and
    verified meshes.  Raises BudgetExceededError if the closure does not
    stabilize within the round budget."""
    rng = np.random.default_rng(seed)
    catalog = Catalog(quiver, algebra)
    for p in indecomposable_projectives(quiver, algebra):
        catalog.add(p, projective=True)

    def admit(rep, _depth=0) -> bool:
        if rep.total_dim() == 0:
            return False
        new = False
        for s in indecompose(rep, seed=int(rng.integers(0, 2**31))).summands:
            if catalog.find_isomorphic(s.rep) is None:
                catalog.add(s.rep, projective=False)
                new = True
        return new

    translate_done = set()
    socle_done = set()
    mesh_scope = {}  # catalog size a mesh was last verified against
    for round_no in range(budget):
        changed = False
        # discovery: radicals of projectives
        if round_no == 0:
            for idx, rep in enumerate(catalog.objects):
                if catalog.projective[idx]:
                    rad_rep, _ = rad_subrep(rep)
                    changed |= admit(rad_rep)
        # discovery: translate candidates and socle quotients
        for idx in range(len(catalog.objects)):
            rep = catalog.objects[idx]
            if not catalog.projective[idx] and idx not in translate_done:
                translate_done.add(idx)
                approx_rep = right_approx(dtr(rep)).approx
                changed |= admit(approx_rep)
            if idx not in socle_done:
                socle_done.add(idx)
                soc, soc_incl = socle_subrep(rep)
                if 0 < soc.total_dim():
                    quo, _ = quotient_rep(
                        rep, {v: soc_incl.components[v] for v in quiver.vertices}
                    )
                    if quo.total_dim():
                        changed |= admit(right_approx(quo).approx)
        # mesh assembly for every non-projective whose mesh is missing or
        # was verified against a smaller catalog
        for c_idx in range(len(catalog.objects)):
            if catalog.projective[c_idx]:
                continue
            stale = mesh_scope.get(c_idx, -1) < len(catalog.objects)
            if c_idx in catalog.meshes and not stale:
                continue
            assembled = _assemble_right_mesh(catalog, c_idx)
            if assembled is None:
                continue
            g, parts = assembled
            c = catalog.objects[c_idx]
            if not all(
                g.components[v].rank() == c.dim(v) for v in quiver.vertices
            ):
                catalog.meshes.pop(c_idx, None)
                continue
            a_rep, f = kernel_subrep(g)
            if a_rep.total_dim() == 0:
                catalog.meshes.pop(c_idx, None)
                continue
            changed |= admit(a_rep)
            if catalog.find_isomorphic(a_rep) is None:
                catalog.meshes.pop(c_idx, None)
                continue  # kernel decomposable: data not yet complete
            seq = ARSequence(a_rep, g.source, c, f, g, middle_parts=parts)
            if verify_ar_sequence(
                seq,
                catalog.members(),
                rng=rng,
                random_tests=random_mesh_tests,
            ):
                catalog.meshes[c_idx] = seq
                mesh_scope[c_idx] = len(catalog.objects)
                changed = True
            else:
                catalog.meshes.pop(c_idx, None)
                mesh_scope.pop(c_idx, None)
        done = all(
            (catalog.projective[i] or i in catalog.meshes)
            and (catalog.projective[i] or mesh_scope.get(i) == len(catalog.objects))
            for i in range(len(catalog.objects))
        )
        if done and not changed:
            break
    else:
        raise BudgetExceededError(
            f"catalog closure did not stabilize within {budget} rounds; "
            f"{len(catalog.objects)} objects, "
            f"{len(catalog.meshes)} verified meshes"
        )
    _build_left_maps(catalog, rng)
    return catalog


def _build_left_maps(catalog: Catalog, rng):
    """A verified left almost split map out of every object, for the
    projective chase: assembled from irreducible lifts out of the object."""
    for z in range(len(catalog.objects)):
        parts = []
        lifts = []
        for w in range(len(catalog.objects)):
            for h in catalog.irreducible_lifts(z, w):
                parts.append(w)
                lifts.append(h)
        obj = catalog.objects[z]
        if not parts:
            catalog.left_maps[z] = (None, ())
            continue
        ds = direct_sum([catalog.objects[w] for w in parts])
        comps = {}
        for v in catalog.quiver.vertices:
            rows = [h.components[v].a for h in lifts]
            comps[v] = Matrix(obj.field, np.vstack(rows))
        f = Morphism(obj, ds.rep, comps)
        if not is_left_almost_split(
            f, catalog.members(), rad_end_a=catalog.rad_end(z)
        ):
            raise InternalContractViolation(
                f"assembled left almost split map out of object {z} failed verification"
            )
        catalog.left_maps[z] = (f, tuple(parts))


def export_quiver(catalog: Catalog) -> str:
    """DOT text: nodes carry dimension vectors and block invariants,
    solid arrows carry irreducible-map multiplicities, dashed edges
    connect mesh ends to their translates."""
    lines = ["digraph ar_quiver {"]
    for i, x in enumerate(catalog.objects):
        dims = ",".join(str(x.dim(v)) for v in catalog.quiver.vertices)
        blocks = "|".join(
            "".join(map(str, block_invariants(x.spaces[v]))) or "0"
            for v in catalog.quiver.vertices
        )
        shape = ", shape=box" if catalog.projective[i] else ""
        lines.append(f'  n{i} [label="({dims}) [{blocks}]"{shape}];')
    dims_map = catalog.irreducible_dims()
    for (i, j), mult in sorted(dims_map.items()):
        attr = f' [label="{mult}"]' if mult > 1 else ""
        lines.append(f"  n{i} -> n{j}{attr};")
    for c_idx, seq in sorted(catalog.meshes.items()):
        a_idx = catalog.find_isomorphic(seq.a)
        if a_idx is not None:
            lines.append(f"  n{c_idx} -> n{a_idx} [style=dashed, arrowhead=empty];")
    lines.append("}")
    return "\n".join(lines)

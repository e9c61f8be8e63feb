"""Almost-split machinery and catalog construction.

The catalog is built by a closure process: seed with the indecomposable
projectives, discover new indecomposables as summands of radicals of
projectives, of translate candidates (the right approximation of the dual
transpose, which is the relative translate Mimo tau Cok of Ringel and
Schmidmeier up to projective-injective summands), of mesh kernels and of
socle-quotient approximations, and for every known non-projective object
assemble a candidate almost-split sequence from lifts of irreducible maps.
A candidate counts as verified only with an exact certificate, the socle
criterion of Auslander-Reiten theory: it is exact and non-split, its
kernel is a summand of the translate candidate of its end C, and every
radical endomorphism of C factors through its right map.  Such a sequence
stays almost split whatever objects are admitted later.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .approx import right_approx
from .decomp import (
    end_radical,
    fingerprint,
    indecompose,
    indecomposables_isomorphic,
)
from .errors import (
    BudgetExceededError,
    ClosureStalledError,
    HasProjectiveSummandError,
    InternalContractViolation,
)
from .ffmat import (
    Matrix,
    _cokernel_coords,
    _matmul_mod,
    _wrap,
    independent_columns,
    kernel_basis,
    kron,
)
from .lambdamod import LambdaAlgebra, LambdaModule, block_invariants, quotient_module
from .posetrep import (
    HomSpace,
    Morphism,
    QuiverStar,
    Representation,
    _kernel_frames,
    direct_sum,
    end_algebra,
    hom_basis,
    kernel_subrep,
    postcompose,
    precompose,
    quotient_rep,
    subrep_from_bases,
)


def _projective_sum(quiver: QuiverStar, algebra: LambdaAlgebra, verts) -> Representation:
    """P(verts[0]) + P(verts[1]) + ... in the layout of `direct_sum`: at
    each vertex v the free module on the blocks k with verts[k] <= v, in
    order, and on each arrow the selection of the source's blocks among
    the target's, tensored with the identity of Lambda."""
    alive = {v: [k for k, i in enumerate(verts) if quiver.leq(i, v)] for v in quiver.vertices}
    spaces = {v: LambdaModule.free(algebra, len(ks)) for v, ks in alive.items()}
    ident = np.eye(algebra.n, dtype=np.int64)
    maps = {
        (s, t): _wrap(algebra.field, kron(np.equal.outer(alive[t], alive[s]).astype(np.int64), ident))
        for (s, t) in quiver.arrows
    }
    return Representation(quiver, algebra, spaces, maps)


def indecomposable_projectives(quiver: QuiverStar, algebra: LambdaAlgebra):
    """One projective P(i) per vertex: the free rank-one module at every
    vertex above i, zero elsewhere, with identity arrows."""
    return [_projective_sum(quiver, algebra, [i]) for i in quiver.vertices]


def _rad_span(x: Representation, v) -> Matrix:
    """Columns spanning rad(x)_v: T times the space plus the images of
    the arrows into v."""
    cols = [x.spaces[v].t.a] + [x.arrow_maps[a].a for a in x.quiver.arrows_into(v)]
    return _wrap(x.field, np.hstack(cols))


def rad_subrep(x: Representation):
    """The radical subrepresentation: T times the space plus the images of
    incoming arrows, at each vertex."""
    return subrep_from_bases(x, {v: _rad_span(x, v) for v in x.quiver.vertices})


def socle_subrep(x: Representation):
    """The largest semisimple subrepresentation: vectors killed by T and
    by all outgoing arrows, the kernel of [T_v; X_a for a out of v]."""
    arrows = {v: [x.arrow_maps[a].a for a in x.quiver.arrows_from(v)] for v in x.quiver.vertices}
    stacks = {v: _wrap(x.field, np.vstack([x.spaces[v].t.a, *arrows[v]])) for v in arrows}
    return _kernel_frames(x, stacks)[:2]


def top_complement(x: Representation, v) -> Matrix:
    """Deterministic basis lifting top(x) at vertex v: standard basis
    vectors completing rad(x)_v."""
    ident = Matrix.identity(x.field, x.dim(v))
    return ident.take_columns(independent_columns(_rad_span(x, v), ident))


def projective_cover(x: Representation):
    """Minimal projective cover.

    Returns (cover morphism pi, list of (vertex, generator column) per
    projective block).  The domain of pi is the direct sum of one P(i)
    per chosen top generator at vertex i, in vertex order.
    """
    quiver = x.quiver
    algebra = x.algebra
    n = algebra.n
    blocks = []  # (vertex, generator column in x)
    for v in quiver.vertices:
        tops = top_complement(x, v)
        for j in range(tops.cols):
            blocks.append((v, tops.column(j)))
    p0 = _projective_sum(quiver, algebra, [v for v, _ in blocks])
    comps = {}
    for w in quiver.vertices:
        t = x.spaces[w].t
        cols = [np.zeros((x.dim(w), 0), dtype=np.int64)]
        for (v, gen) in blocks:
            if quiver.leq(v, w):
                # the image g of the free generator, then Tg, ..., T^(n-1)g
                g = x.composite_map(v, w) @ gen
                cols.append(g.a)
                for _ in range(n - 1):
                    g = t @ g
                    cols.append(g.a)
        comps[w] = Matrix(x.field, np.hstack(cols))
    pi = Morphism(p0, x, comps)
    if not pi.is_epi():
        raise InternalContractViolation("projective cover is not surjective")
    return pi, blocks


def dtr(x: Representation) -> Representation:
    """Dual of the transpose of a minimal projective presentation.

    Computes P1 -> P0 -> x -> 0 via projective covers.  At a vertex v,
    P0_v is one n-row slab (basis 1, T, ..., T^(n-1)) per P0 block alive
    at v, in block order, the layout of `direct_sum`.  So the image of
    the s-th P1 generator, read at its vertex, holds in slab t the
    coefficients lam[:, s, t] of the ring element by which the
    presentation sends block s to block t.  Hom(-, algebra) turns each
    element into multiplication on the opposite projectives, the lower
    triangular block whose [i, j] entry is lam[i - j, s, t]; the result
    is the vertex-wise cokernel of that transpose, dualized back.  Raises
    HasProjectiveSummandError when x has a projective direct summand.
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
    _, blocks1 = projective_cover(k_rep)
    b_verts = [v for v, _ in blocks0]  # P0 block vertices
    a_verts = [v for v, _ in blocks1]  # P1 block vertices
    lam = np.zeros((n, len(a_verts), len(b_verts)), dtype=np.int64)
    for s, (av, gen) in enumerate(blocks1):
        alive = [t for t, bv in enumerate(b_verts) if quiver.leq(bv, av)]
        lam[:, s, alive] = (k_incl.components[av] @ gen).a.reshape(-1, n).T
    # a P0 block hit by no relation is a projective summand
    for t, bv in enumerate(b_verts):
        if not lam[:, :, t].any():
            raise HasProjectiveSummandError(
                f"projective summand attached at vertex {bv!r}"
            )
    # the transpose presentation: [s, i, t, j] = lam[i - j, s, t] for i >= j
    shift = np.subtract.outer(np.arange(n), np.arange(n))
    pres = (lam[shift] * (shift >= 0)[:, :, None, None]).transpose(2, 0, 3, 1)
    cokers = {}
    spaces = {}
    for v in quiver.vertices:
        rows = [s for s, av in enumerate(a_verts) if quiver.leq(v, av)]
        cols = [t for t, bv in enumerate(b_verts) if quiver.leq(v, bv)]
        c = pres[rows][:, :, cols].reshape(n * len(rows), n * len(cols))
        coker, frame = quotient_module(LambdaModule.free(algebra, len(rows)), Matrix(field, c))
        cokers[v] = (frame, rows)
        # the dual of the cokernel: T acts by the transpose
        spaces[v] = LambdaModule(algebra, coker.t.transpose())
    maps = {}
    for (i, j) in quiver.arrows:
        (li, _), rows_i = cokers[i]
        frame_j, rows_j = cokers[j]
        # free-level inclusion of blocks alive at j into blocks alive at i
        selection = np.equal.outer(rows_i, rows_j).astype(np.int64)
        e = kron(selection, np.eye(n, dtype=np.int64))
        # psi: coker_j -> coker_i with psi . lj = li . e, transposed
        psi = _cokernel_coords(frame_j, _matmul_mod(li.a, e, field.p))
        maps[(i, j)] = _wrap(field, psi.T.copy())
    return Representation(quiver, algebra, spaces, maps)


def _radical_maps(end: Representation, test: Representation, into: bool) -> HomSpace:
    """Basis of the maps h: test -> end (into) or h: end -> test with
    h . u (into) or u . h in rad End(end) for every u the other way.
    Into or out of an indecomposable end these are the non-split maps."""
    rad = end_radical(end)
    x, y = (test, end) if into else (end, test)
    homs, back = hom_basis(x, y), hom_basis(y, x)
    compose = HomSpace.precomposed if into else HomSpace.postcomposed
    # h in rad iff, for every u, compose(h, u) lies in the radical: its
    # End/J coordinates vanish, so intersect the kernels over all u
    rows = [np.zeros((0, homs.dim), dtype=np.int64)]
    rows += [rad.quotient_coords(compose(homs, u)) for u in back.basis]
    k = kernel_basis(Matrix(x.field, np.vstack(rows)))
    return homs.combinations(k)


def _splits(h: Morphism, into: bool) -> bool:
    """Is h: B -> C a split epi (into: the identity of C factors as
    h . s) or h: A -> B a split mono (the identity of A factors as s . h)?"""
    end = h.target if into else h.source
    through = postcompose if into else precompose
    return through(h, end).coefficients([Morphism.identity(end)]) is not None


def _lifting(h: Morphism, test: Representation, into: bool) -> bool:
    """Every radical map test -> C factors through h: B -> C (into), or
    every radical map A -> test factors through h: A -> B."""
    maps = _radical_maps(h.target if into else h.source, test, into)
    through = postcompose if into else precompose
    return not maps.dim or through(h, test).coefficients(maps) is not None


def is_right_almost_split(g: Morphism, tests) -> bool:
    """g: B -> C is right almost split over the test objects: not a split
    epimorphism, and every non-split-epi map X -> C from a test object
    factors through g.  Non-split-epis into an indecomposable C form the
    radical subspace, so the factoring check runs on a radical basis."""
    return not _splits(g, True) and all(_lifting(g, test, True) for test in tests)


def is_left_almost_split(f: Morphism, tests) -> bool:
    """Dual: f: A -> B is not a split monomorphism and every non-split-mono
    A -> X factors as h' . f."""
    return not _splits(f, False) and all(_lifting(f, test, False) for test in tests)


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
    return (
        f.is_mono()
        and g.is_epi()
        and (g @ f).is_zero()
        and seq.a.total_dim() + seq.c.total_dim() == seq.b.total_dim()
        and not _splits(g, True)
    )


def verify_ar_sequence(seq: ARSequence, tests) -> bool:
    """Full almost-split verification against exactly the given test
    objects: exactness, non-splitness and the two lifting properties.
    Sets seq.verified to the verdict and returns it."""
    seq.verified = (
        sequence_is_exact_nonsplit(seq)
        and is_right_almost_split(seq.g, tests)
        and is_left_almost_split(seq.f, tests)
    )
    return seq.verified


class Catalog:
    """Finite list of pairwise non-isomorphic indecomposables with mesh
    data and cached hom spaces; End and rad End are memoized per object."""

    def __init__(self, quiver: QuiverStar, algebra: LambdaAlgebra):
        self.quiver = quiver
        self.algebra = algebra
        self.objects: list[Representation] = []
        self.projective: list[bool] = []
        self.meshes: dict[int, ARSequence] = {}
        # z -> (lifts, parts): the left almost split map out of objects[z]
        # one part at a time, lifts[k]: objects[z] -> objects[parts[k]];
        # ((), ()) when no irreducible map leaves objects[z]
        self.left_maps: dict[int, tuple[tuple[Morphism, ...], tuple[int, ...]]] = {}
        self._fps: dict = {}
        self._homs: dict = {}
        self._rad_squares: dict = {}  # (i, j) -> (rad^2 basis, size covered, lifts or None)

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
            ok, _ = indecomposables_isomorphic(self.objects[idx], rep)
            if ok:
                return idx
        return None

    def hom(self, i: int, j: int) -> HomSpace:
        key = (i, j)
        if key not in self._homs:
            x, y = self.objects[i], self.objects[j]
            self._homs[key] = end_algebra(x).space if i == j else hom_basis(x, y)
        return self._homs[key]

    def rad_space(self, i: int, j: int) -> HomSpace:
        """Basis of rad(objects[i], objects[j]): all homs when i != j,
        the endomorphism radical when i == j."""
        if i == j:
            return end_radical(self.objects[i]).radical
        return self.hom(i, j)

    def rad_square_span(self, i: int, j: int) -> Matrix:
        """`*` block of a basis of the span of rad^2(objects[i], objects[j])
        through the catalog: the composites t . u, u: objects[i] -> w and
        t: w -> objects[j] radical.  Kept per pair with the catalog size
        it covers and the irreducible lifts, and extended only through
        the objects admitted since, one middle object at a time until it
        spans all of rad."""
        basis, size, lifts = self._rad_squares.get((i, j), (None, 0, None))
        if basis is not None and size == len(self.objects):
            return basis
        x, y = self.objects[i], self.objects[j]
        rad = self.rad_space(i, j).dim
        grown = HomSpace(x, y, ()) if basis is None else HomSpace.from_flat(x, y, basis)
        for w in range(size, len(self.objects)):
            if grown.dim == rad:
                break  # rad^2 = rad: no composite can extend the span
            first, second = self.rad_space(i, w), self.rad_space(w, j)
            if first.dim and second.dim:
                grown = HomSpace.joined(x, y, [grown, first.composites(second)]).pivots()
        grown = grown.star_block()
        if basis is not None and grown.cols != basis.cols:
            lifts = None  # the bases are reduced: same span iff same dimension
        self._rad_squares[(i, j)] = (grown, len(self.objects), lifts)
        return grown

    def irreducible_lifts(self, i: int, j: int):
        """Morphism lifts of a basis of rad/rad^2 from objects[i] to
        objects[j], deterministic: the candidate pivots of
        rref(rad^2 | rad).  They depend only on the span of rad^2, so
        they are kept in its `_rad_squares` entry."""
        rad = self.rad_space(i, j)
        if not rad.dim:
            return []
        basis = self.rad_square_span(i, j)
        lifts = self._rad_squares[(i, j)][2]
        if lifts is None:
            lifts = [rad.basis[k] for k in independent_columns(basis, rad.star_block())]
            self._rad_squares[(i, j)] = (basis, len(self.objects), lifts)
        return lifts

    def irreducible_maps(self, i: int, into: bool):
        """(lifts, parts): the irreducible lifts objects[parts[k]] ->
        objects[i] (into) or objects[i] -> objects[parts[k]], in index
        order of the other end."""
        pairs = [
            (h, k)
            for k in range(len(self.objects))
            for h in (self.irreducible_lifts(k, i) if into else self.irreducible_lifts(i, k))
        ]
        return tuple(h for h, _ in pairs), tuple(k for _, k in pairs)

    def max_length(self) -> int:
        return max((x.total_dim() for x in self.objects), default=0)

    def members(self):
        return list(self.objects)


def _assemble_right_mesh(catalog: Catalog, c_idx: int):
    """Candidate minimal right almost split map into objects[c_idx]:
    one copy of objects[z] per irreducible lift z -> c, stacked."""
    lifts, parts = catalog.irreducible_maps(c_idx, True)
    if not parts:
        return None
    ds = direct_sum([catalog.objects[z] for z in parts])
    c = catalog.objects[c_idx]
    comps = {}
    for v in catalog.quiver.vertices:
        cols = [h.components[v].a for h in lifts]
        comps[v] = Matrix(c.field, np.hstack(cols))
    g = Morphism(ds.rep, c, comps)
    return g, parts


def is_certified_mesh(catalog: Catalog, c_idx: int, seq: ARSequence, translate) -> bool:
    """Exact certificate that seq, ending in objects[c_idx], is almost
    split (the socle criterion, Auslander-Reiten-Smalo Ch. V 2, relative
    to the subcategory): seq is exact and non-split, its kernel is the
    catalog object at one of the indices `translate` of the summands of
    right_approx(dtr(C)), and every radical endomorphism of C factors
    through seq.g.  Membership rather than equality, since the
    approximation need not be minimal: its extra summands are
    projective-injective, so they start no non-split sequence."""
    return (
        catalog.find_isomorphic(seq.a) in translate
        and sequence_is_exact_nonsplit(seq)
        and postcompose(seq.g, seq.c).coefficients(catalog.rad_space(c_idx, c_idx)) is not None
    )


def build_catalog(
    quiver: QuiverStar, algebra: LambdaAlgebra, budget: int = 200, seed: int = 0
) -> Catalog:
    """Closure process over projective seeds, translate candidates and
    meshes certified by is_certified_mesh; a certified mesh is final.
    Raises BudgetExceededError if the closure does not stabilize within
    the round budget, and ClosureStalledError as soon as a round admits
    no object and certifies no mesh while some non-projective object
    has none: discovery is then done and mesh assembly and certification
    depend only on the catalog, so every later round would repeat it."""
    rng = np.random.default_rng(seed)
    catalog = Catalog(quiver, algebra)
    for p in indecomposable_projectives(quiver, algebra):
        catalog.add(p, projective=True)
    # I(*): every object maps into copies of it, so discovery must reach it;
    # End = Lambda is local, so it needs no split
    injective = Representation.constant(quiver, LambdaModule.free(algebra))
    if catalog.find_isomorphic(injective) is None:
        catalog.add(injective)

    def admit(rep) -> list:
        """Catalog indices of the summands of rep, admitting new ones."""
        if rep.total_dim() == 0:
            return []
        indices = []
        for s in indecompose(rep, seed=int(rng.integers(0, 2**31))).summands:
            idx = catalog.find_isomorphic(s.rep)
            indices.append(catalog.add(s.rep) if idx is None else idx)
        return indices

    translates = {}  # non-projective C -> summands of right_approx(dtr(C))
    visited = 0  # objects[:visited] have had their discovery step
    for round_no in range(budget):
        size, meshes = len(catalog), len(catalog.meshes)
        # discovery: radicals of projectives
        if round_no == 0:
            for idx, rep in enumerate(catalog.objects):
                if catalog.projective[idx]:
                    admit(rad_subrep(rep)[0])
        # discovery: translate candidates and socle quotients, once per
        # object; what it admits waits for the next round
        first, visited = visited, len(catalog)
        for idx in range(first, visited):
            rep = catalog.objects[idx]
            if not catalog.projective[idx]:
                translates[idx] = admit(right_approx(dtr(rep)).approx)
            soc, soc_incl = socle_subrep(rep)
            if 0 < soc.total_dim():
                quo, _ = quotient_rep(rep, soc_incl.components)
                if quo.total_dim():
                    admit(right_approx(quo).approx)
        # mesh assembly for every non-projective without a certified mesh
        for c_idx in range(len(catalog.objects)):
            if catalog.projective[c_idx] or c_idx in catalog.meshes:
                continue
            assembled = _assemble_right_mesh(catalog, c_idx)
            if assembled is None:
                continue
            g, parts = assembled
            if not g.is_epi():
                continue
            a_rep, f = kernel_subrep(g)
            admit(a_rep)
            seq = ARSequence(a_rep, g.source, g.target, f, g, middle_parts=parts)
            # an object admitted by this round's discovery has no translate
            # yet, so its mesh waits for the next round
            if is_certified_mesh(catalog, c_idx, seq, translates.get(c_idx, ())):
                seq.verified = True
                catalog.meshes[c_idx] = seq
        if len(catalog) == size:
            open_ends = [
                i for i in range(size) if not (catalog.projective[i] or i in catalog.meshes)
            ]
            if not open_ends:
                break
            if len(catalog.meshes) == meshes:
                raise ClosureStalledError(
                    f"catalog closure stalled in round {round_no + 1}: {size} objects, "
                    f"{meshes} verified meshes; no certified mesh ends at {open_ends}"
                )
    else:
        raise BudgetExceededError(
            f"catalog closure did not stabilize within {budget} rounds; "
            f"{len(catalog.objects)} objects, "
            f"{len(catalog.meshes)} verified meshes"
        )
    _build_left_maps(catalog)
    return catalog


def _through_left(source: Representation, target: Representation, spans, lifts) -> HomSpace:
    """The maps source -> target that factor through the left map
    (lifts[k]: source -> W_k)_k with the second factor from spans[k],
    maps W_k -> target: the join over k of spans[k] . lifts[k], in order.
    The one place this join is written."""
    return HomSpace.joined(
        source, target, [homs.precomposed(h) for homs, h in zip(spans, lifts)]
    )


def _is_left_almost_split_in_catalog(catalog: Catalog, z: int, parts, lifts) -> bool:
    """Is f = (lifts[k]: objects[z] -> objects[parts[k]])_k, a map into
    the direct sum of the parts, left almost split over the catalog?

    The maps objects[z] -> T that factor through f span through_f(T),
    `_through_left` over the catalog's cached hom spaces.  f passes when
    the identity of objects[z] is not in through_f(objects[z]) (f is not
    a split mono) and through_f(T) contains rad_space(z, t) for every
    catalog object T.  This is the verdict of
    is_left_almost_split(f, catalog.members()) only because the catalog
    objects are pairwise non-isomorphic, certified indecomposables: then
    the radical maps objects[z] -> T are all of Hom for T != objects[z]
    and rad End(objects[z]) for T equal to it, which is what rad_space
    holds."""
    for t in range(len(catalog.objects)):
        spans = [catalog.hom(w, t) for w in parts]
        through = _through_left(catalog.objects[z], catalog.objects[t], spans, lifts)
        if t == z and through.coefficients([Morphism.identity(catalog.objects[z])]) is not None:
            return False
        if through.coefficients(catalog.rad_space(z, t)) is None:
            return False
    return True


def _build_left_maps(catalog: Catalog):
    """A verified left almost split map out of every object, for the
    projective chase: assembled from irreducible lifts out of the object
    and checked by _is_left_almost_split_in_catalog."""
    for z in range(len(catalog.objects)):
        lifts, parts = catalog.irreducible_maps(z, False)
        if parts and not _is_left_almost_split_in_catalog(catalog, z, parts, lifts):
            raise InternalContractViolation(
                f"assembled left almost split map out of object {z} failed verification"
            )
        catalog.left_maps[z] = (lifts, parts)


def export_quiver(catalog: Catalog) -> str:
    """DOT text: nodes carry dimension vectors and block invariants,
    solid arrows carry irreducible-map multiplicities, dashed edges
    connect mesh ends to their translates.  The multiplicity of z -> w
    is the number of lifts to w in the left map out of z, which holds
    one per irreducible lift, so no rad^2 span is computed."""
    lines = ["digraph ar_quiver {"]
    for i, x in enumerate(catalog.objects):
        dims = ",".join(str(x.dim(v)) for v in catalog.quiver.vertices)
        blocks = "|".join(
            "".join(map(str, block_invariants(x.spaces[v]))) or "0"
            for v in catalog.quiver.vertices
        )
        shape = ", shape=box" if catalog.projective[i] else ""
        lines.append(f'  n{i} [label="({dims}) [{blocks}]"{shape}];')
    for i, (_, parts) in sorted(catalog.left_maps.items()):
        for j, mult in sorted(Counter(parts).items()):
            attr = f' [label="{mult}"]' if mult > 1 else ""
            lines.append(f"  n{i} -> n{j}{attr};")
    for c_idx, seq in sorted(catalog.meshes.items()):
        a_idx = catalog.find_isomorphic(seq.a)
        if a_idx is not None:
            lines.append(f"  n{c_idx} -> n{a_idx} [style=dashed, arrowhead=empty];")
    lines.append("}")
    return "\n".join(lines)

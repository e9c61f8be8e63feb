"""Constructive splitting: the projective chase and the invariant-subspace
pipeline.

The chase extracts a direct summand from a nonzero subspace
representation by starting with any nonzero map from a projective and
repeatedly factoring through verified left almost split maps until a
split monomorphism appears; composites of radical maps between the
finitely many indecomposables vanish after 2^m - 1 steps (m the maximal
length), so the walk terminates within that bound.  Every summand is a
direct summand of the input x itself, so the whole chase runs in x's
coordinates: what remains to be split is the image of one idempotent of
x, and no complement is built.  Every object it meets is a subspace
representation, so it works on `*` blocks: its hom spaces are
star-form `HomSpace`s, lifted on the first read of `basis`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .artheory import Catalog, _through_left
from .decomp import Decomposition, Summand
from .errors import (
    ChaseExhaustedError,
    InternalContractViolation,
    NotInvariantError,
    NotNestedError,
)
from .examples import example_quiver
from .ffmat import (
    Matrix,
    _matmul_mod,
    _wrap,
    column_space_basis,
    kernel_basis,
    span_frame,
)
from .lambdamod import LambdaModule
from .posetrep import (
    STAR,
    HomSpace,
    Morphism,
    Representation,
    hom_basis,
    subspace_representation,
)
from .sampling import intersect_spans


class _HomCache:
    """Bases of Hom(Z, x) and Hom(x, Z) for each catalog object Z, cut to
    what remains of x, each solved only when the chase first reads it.

    What remains is the image of one idempotent `keep` of x, id_x at the
    start; `restrict(f, q)` splits off the summand with inclusion f and
    retraction q: keep <- keep - f . q.  A first read solves the entry by
    `hom_basis` against x; a read of an entry older than the latest split
    cuts it once, however many splits it missed:
    - forward: R <- R . kernel_basis((Q . R)_*), Q the retractions split
      off, stacked: 1 - keep = F . Q with F the inclusions side by side,
      injective, so (1 - keep) . h and Q . h vanish together.  A product
      of reduced kernel bases is the reduced kernel basis of the stacked
      system, so one cut gives the basis of one cut per split;
    - backward: B <- the pivot columns of (B . keep)_*.  A column
      dependent on those before it stays dependent after precomposition,
      so the pivots compose too.
    Entries are star-form `HomSpace`s (the constructor raises ValueError
    naming the first point of x whose composite to `*` is not injective),
    and a read of `basis` lifts the other vertices.  The content digest of
    `perfbench/layertrace.py` reads every entry (a traced run solves and
    lifts them all), and Tier-1 tests check these attributes:
    - `catalog`: the Catalog the chase runs against;
    - `current`: x, the Representation being decomposed;
    - `forward`: dict, catalog index z -> HomSpace from objects[z] to x;
    - `backward`: dict, catalog index z -> HomSpace from x to objects[z].
    """

    def __init__(self, catalog: Catalog, x: Representation):
        bad = next((v for v, frame in x.top_frames().items() if frame is None), None)
        if bad is not None:
            raise ValueError(f"not a subspace representation: {bad} -> * is not injective")
        self.catalog = catalog
        self.current = x
        self.remaining = x.total_dim()  # of the image of keep
        self.splits = 0
        self.keep = Morphism.identity(x)
        self._split = np.zeros((0, x.dim(STAR)), dtype=np.int64)  # Q_*
        objs = catalog.objects
        self.forward = _Cut(self, self._cut_forward, lambda z: hom_basis(objs[z], x))
        self.backward = _Cut(self, self._cut_backward, lambda z: hom_basis(x, objs[z]))

    def restrict(self, f: Morphism, q: Morphism):
        """Split off the summand f spans, q its retraction (q . f = id and
        f . q . keep = f . q); the entries follow when they are next read."""
        x, p = self.current, self.current.field.p
        keep = {}
        for v in x.quiver.vertices:
            e = _matmul_mod(f.components[v].a, q.components[v].a, p)
            keep[v] = _wrap(x.field, (self.keep.components[v].a - e) % p)
        self.keep = Morphism(x, x, keep)
        self._split = np.vstack([self._split, q.components[STAR].a])
        self.remaining -= f.source.total_dim()
        self.splits += 1

    def _cut_forward(self, homs):
        # the `*` rows of Q . h_j, laid out as `HomSpace.postcomposed` lays them
        c, k, field = homs.source.dim(STAR), homs.dim, self.current.field
        stack = homs.star_block().a.reshape(c, -1, k)
        rows = _matmul_mod(self._split, stack, field.p).reshape(-1, k)
        return homs.combinations(kernel_basis(_wrap(field, rows)))

    def _cut_backward(self, homs):
        cols = column_space_basis(homs.precomposed(self.keep).star_block())
        return HomSpace.from_flat(self.current, homs.target, cols, star=True)


class _Cut(dict):
    """Catalog index -> (HomSpace, splits seen); a read returns the space,
    cut to what remains."""

    def __init__(self, cache, cut, solve):
        super().__init__(dict.fromkeys(range(len(cache.catalog.objects))))
        self.cache, self.cut, self.solve = cache, cut, solve

    def __getitem__(self, z):
        homs, seen = dict.__getitem__(self, z) or (self.solve(z), 0)
        if seen < self.cache.splits and homs.dim:
            homs = self.cut(homs)
        dict.__setitem__(self, z, (homs, self.cache.splits))
        return homs


def split_off_summand(x: Representation, catalog: Catalog, hom_cache: _HomCache = None):
    """Extract a summand of what remains of a subspace representation x:
    all of x, or with a cache of x the image of its `keep`.

    Returns (catalog index, mono, retraction, steps) where mono embeds
    the catalog object into x, retraction . mono = id and
    mono . retraction . keep = mono . retraction; steps lists the walk,
    one dict per object visited, the last with "split": True.  Raises
    ValueError when nothing remains, or when x is not a subspace
    representation and no cache is given.  The walk holds every map as
    the star form of its own span and lifts only the pair it returns.
    """
    cache = hom_cache or _HomCache(catalog, x)
    if cache.current is not x:
        raise InternalContractViolation("the hom cache describes another representation")
    if not cache.remaining:
        raise ValueError("cannot split a summand off the zero representation")
    m_len = catalog.max_length()
    bound = 2**m_len - 1
    objs = range(len(catalog.objects))
    start = next((z for z in objs if catalog.projective[z] and cache.forward[z].dim), None)
    if start is None:
        raise InternalContractViolation(
            "no projective maps into a nonzero representation"
        )
    maps = _one_maps(cache.forward[start])
    # prefer a starting map that already splits (the trivial case)
    for h in maps:
        q = _find_retraction(h, cache, start)
        if q is not None:
            return start, h.basis[0], q, [{"object": start, "split": True}]
    current, f = start, maps[0]
    # running composite of the chosen radical maps from the starting
    # projective; keeping f . composite nonzero is what makes the
    # radical-chain bound terminate the walk
    obj = catalog.objects[start]
    composite = _one_maps(HomSpace(obj, obj, [Morphism.identity(obj)]))[0]
    steps = []
    while True:
        lifts, parts = catalog.left_maps[current]
        if not parts:
            raise InternalContractViolation(
                f"no left almost split map out of object {current}"
            )
        comps = _factor_through_left(f, lifts, parts, cache)
        chosen = None
        for w_pos in sorted(range(len(parts)), key=lambda t: parts[t]):
            comp = comps[w_pos]
            if comp.star_block().is_zero():
                continue
            extended = composite.postcomposed(lifts[w_pos])
            if not extended.composites(comp).star_block().is_zero():
                chosen = (parts[w_pos], comp, extended)
                break
        if chosen is None:
            raise InternalContractViolation("factorization through the left map vanished")
        steps.append({"object": current, "split": False, "next": chosen[0]})
        current, f, composite = chosen
        if len(steps) > bound:
            raise ChaseExhaustedError(
                f"chase exceeded the step bound 2^{m_len} - 1 = {bound}"
            )
        q = _find_retraction(f, cache, current)
        if q is not None:
            steps.append({"object": current, "split": True})
            return current, f.basis[0], q, steps


def _one_maps(homs: HomSpace) -> list:
    """The spanning maps of a star-form space, each as its own span."""
    x, y, star = homs.source, homs.target, homs.star_block()
    return [HomSpace.from_flat(x, y, star.column(j), star=True) for j in range(homs.dim)]


def _find_retraction(f: HomSpace, cache: _HomCache, z: int):
    """Some q in the span of `cache.backward[z]` (maps x -> objects[z] =
    f.source) with q . f = id for the map f spans, or None; solved at
    `*`.  A split mono is a mono, and a map between subspace
    representations is one exactly when it is injective at `*`, so a map
    that is not (its `*` block, read as a (dim source_*, dim target_*)
    array, is f_*^T) has none and the backward space is not read."""
    c, r = f.source.dim(STAR), f.target.dim(STAR)
    if Matrix(f.source.field, f.star_block().a.reshape(c, r)).rank() != c:
        return None
    backward = cache.backward[z]
    coeffs = f.composites(backward).coefficients([Morphism.identity(f.source)])
    return None if coeffs is None else backward.element(coeffs.a[:, 0])


def _factor_through_left(f: HomSpace, lifts, parts, cache):
    """Solve f = sum_k h'_k . lifts[k] at `*` with each h'_k built from
    the cached forward homs of objects[parts[k]]; returns the h'_k, each
    as its own span."""
    spans = [cache.forward[w] for w in parts]
    composites = _through_left(f.source, f.target, spans, lifts)
    if not composites.dim:
        raise InternalContractViolation("left map has no middle homs to factor through")
    c = composites.coefficients(f)
    if c is None:
        raise InternalContractViolation("map does not factor through the left almost split map")
    offsets = np.cumsum([0] + [homs.dim for homs in spans])
    return [
        homs.combinations(c.submatrix(slice(offsets[pos], offsets[pos + 1]), slice(None)))
        for pos, homs in enumerate(spans)
    ]


def decompose_full(x: Representation, catalog: Catalog) -> Decomposition:
    """Repeated summand extraction until nothing remains.

    Summand representations are the catalog objects themselves, with the
    inclusions and projections the chase returns, maps into and out of
    x.  The trace list is attached to the certificate.  Raises ValueError,
    before solving any hom space, when x is not a subspace representation.
    """
    cache = _HomCache(catalog, x)
    summands, traces, classes = [], [], []
    while cache.remaining:
        idx, f, q, steps = split_off_summand(x, catalog, hom_cache=cache)
        summands.append(Summand(rep=catalog.objects[idx], inclusion=f, projection=q))
        traces.append(steps)
        classes.append(idx)
        cache.restrict(f, q)
    return Decomposition(x, summands, {"method": "chase", "traces": traces, "classes": classes})


@dataclass
class SubspaceConfig:
    """A nilpotent operator of index <= 2 with three invariant subspaces,
    the smallest contained in the other two."""

    v: LambdaModule
    v1: Matrix
    v2: Matrix
    v3: Matrix

    def validate(self):
        """NotInvariantError for the first column of each subspace that T
        moves out of it, then NotNestedError for the first column of v1
        outside v2 and v3, read off one `span_frame` per subspace."""
        spans = {1: self.v1, 2: self.v2, 3: self.v3}
        frames = {j: span_frame(span) for j, span in spans.items()}
        tests = [(NotInvariantError, j, span, self.v.t @ span) for j, span in spans.items()]
        tests += [(NotNestedError, j, self.v1, self.v1) for j in (2, 3)]
        problems = []
        for error, j, cols, w in tests:
            pivots, u = frames[j]
            out = np.flatnonzero(_matmul_mod(u.a[len(pivots) :], w.a, u.field.p).any(axis=0))
            if out.size:
                problems.append(error(j, cols.column(int(out[0]))))
        return problems


def from_invariant_subspaces(cfg: SubspaceConfig) -> Representation:
    """Representation on the example quiver: total space at the top, the
    three subspaces with inclusion arrows below."""
    problems = cfg.validate()
    if problems:
        raise problems[0]
    spans = {"1": cfg.v1, "2": cfg.v2, "3": cfg.v3}
    rep, _ = subspace_representation(example_quiver(), cfg.v, spans)
    if not rep.is_subspace_rep():
        raise InternalContractViolation("subspace construction produced a non-mono arrow")
    return rep


@dataclass
class SubspaceReport:
    multiplicities: dict  # catalog index -> count
    compatible: bool
    details: list  # per-subspace tuples (j, dim, sum of intersection dims)
    decomposition: Decomposition


def invariant_subspace_report(cfg: SubspaceConfig, catalog: Catalog) -> SubspaceReport:
    """Decompose the configuration and verify that each subspace is the
    direct sum of its intersections with the summand supports."""
    rep = from_invariant_subspaces(cfg)
    decomp = decompose_full(rep, catalog)
    field = rep.field
    mults = {}
    for cls in decomp.certificate["classes"]:
        mults[cls] = mults.get(cls, 0) + 1
    supports = [
        column_space_basis(s.inclusion.components[STAR]) for s in decomp.summands
    ]
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
        ok = sum(inter_dims) == vj.cols and union.cols == vj.cols
        compatible &= ok
        details.append((j, vj.cols, sum(inter_dims)))
    return SubspaceReport(mults, compatible, details, decomp)


def harada_sai_check(catalog: Catalog):
    """The radical filtration of the catalog, exactly, against the
    Harada-Sai bound: composites of 2^m - 1 radical maps between
    indecomposables of length at most m vanish.

    It is read off the catalog's left almost split maps, trusted as the
    chase trusts them.  A left map (lifts[k]: Z -> W_k) gives
    rad(Z, -) = sum_k Hom(W_k, -) . lifts[k], so
    rad^(k+1)(Z, T) = sum_k rad^k(W_k, T) . lifts[k], from
    rad^1 = `rad_space`.  Each layer is reduced by `column_space_basis`,
    so every basis column is a nonzero composite of k radical maps.

    Returns (counterexample, (witness, wlen), layers).  `layers` holds
    the total dimensions of rad^1, rad^2, ..., ending at the first zero
    one, rad^L.  witness is a basis column of layer wlen, the number of
    nonzero layers (L - 1) capped at m - 1, or None when wlen is 0.
    counterexample is None, or a basis column of the layer `layers` ends
    at instead: a nonzero one with the dimension of the layer before it
    (the filtration never vanishes), or a nonzero layer 2^m - 1."""
    m_len = catalog.max_length()
    bound = 2**m_len - 1
    objs = range(len(catalog))
    layer = {(z, t): catalog.rad_space(z, t) for z in objs for t in objs}
    layers, kept = [], []  # kept[k - 1] is rad^k, for k < m
    counterexample = None
    while True:
        layers.append(sum(homs.dim for homs in layer.values()))
        if len(layers) < m_len:
            kept.append(layer)
        if not layers[-1]:
            break
        if (len(layers) > 1 and layers[-1] == layers[-2]) or len(layers) == bound:
            counterexample = _first_column(layer)
            break
        prev, layer = layer, {}
        for (z, t), homs in prev.items():
            # rad being an ideal, rad^(k+1)(Z, T) lies in rad^k(Z, T)
            if homs.dim:
                lifts, parts = catalog.left_maps[z]
                spans = [prev[w, t] for w in parts]
                homs = _through_left(homs.source, homs.target, spans, lifts)
                cols = column_space_basis(homs.star_block())
                homs = HomSpace.from_flat(homs.source, homs.target, cols, star=True)
            layer[z, t] = homs
    wlen = min(sum(1 for d in layers if d), m_len - 1)
    witness = _first_column(kept[wlen - 1]) if wlen else None
    return counterexample, (witness, wlen), layers


def _first_column(layer):
    """The first basis column of the first nonzero pair of a layer."""
    return next(homs.basis[0] for homs in layer.values() if homs.dim)

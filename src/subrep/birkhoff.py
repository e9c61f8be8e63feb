"""Constructive splitting: the projective chase and the invariant-subspace
pipeline.

The chase extracts a direct summand from a nonzero subspace
representation by starting with any nonzero map from a projective and
repeatedly factoring through verified left almost split maps until a
split monomorphism appears; composites of radical maps between the
finitely many indecomposables vanish after 2^m - 1 steps (m the maximal
length), so the walk terminates within that bound.  Every object it
meets is a subspace representation, so it works on `*` blocks: its hom
spaces are star-form `HomSpace`s, lifted on the first read of `basis`.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

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
    split_by_retraction,
    subspace_representation,
)
from .sampling import intersect_spans


@dataclass
class ChaseTrace:
    steps: list = dataclass_field(default_factory=list)
    outcome: str = ""

    def __len__(self):
        return len(self.steps)


class _HomCache:
    """Bases of Hom(catalog object, current) and Hom(current, catalog
    object), each solved only when the chase first reads it.

    A first read solves the entry by `hom_basis` against the original
    input.  `restrict` only records its step; a read replays, for that
    entry alone, the steps it has not yet seen, with the operations an
    eager cache would run, so every basis is the same.  Entries are
    star-form `HomSpace`s (every target is a subspace representation; the
    constructor raises ValueError naming the first point of x whose
    composite to `*` is not injective): replays run on the `*` blocks,
    and a read of `basis` lifts the other vertices.  The content digest
    of `perfbench/layertrace.py` reads every entry (a traced run solves
    and lifts them all), and Tier-1 tests check these attributes:
    - `catalog`: the Catalog the chase runs against;
    - `current`: the Representation still to be decomposed;
    - `forward`: dict, catalog index z -> HomSpace from
      catalog.objects[z] to `current`;
    - `backward`: dict, catalog index z -> HomSpace from `current` to
      catalog.objects[z].
    """

    def __init__(self, catalog: Catalog, x: Representation):
        bad = next((v for v, frame in x.top_frames().items() if frame is None), None)
        if bad is not None:
            raise ValueError(f"not a subspace representation: {bad} -> * is not injective")
        self.catalog = catalog
        self.current = x
        self.steps = []  # (q, comp_incl, comp_proj, complement) per restrict
        objs = catalog.objects
        self.forward = _Replayed(self, _forward_step, lambda z: hom_basis(objs[z], x))
        self.backward = _Replayed(self, _backward_step, lambda z: hom_basis(x, objs[z]))

    def restrict(self, q: Morphism, comp_incl: Morphism, comp_proj: Morphism, complement):
        """Pass to the complement of the summand a retraction q splits off
        the current object; the entries follow when they are next read."""
        self.steps.append((q, comp_incl, comp_proj, complement))
        self.current = complement


class _Replayed(dict):
    """Catalog index -> (HomSpace, steps seen); a read returns the space."""

    def __init__(self, cache, step, solve):
        super().__init__(dict.fromkeys(range(len(cache.catalog.objects))))
        self.steps, self.step, self.solve = cache.steps, step, solve

    def __getitem__(self, z):
        homs, seen = dict.__getitem__(self, z) or (self.solve(z), 0)
        for args in self.steps[seen:]:
            homs = self.step(homs, *args)
        dict.__setitem__(self, z, (homs, len(self.steps)))
        return homs


def _forward_step(homs, q, comp_incl, comp_proj, complement):
    """Forward homs killed by the idempotent e = f . q, corestricted to
    the complement.  f is mono, so e . h and q . h vanish together, and
    the kernel is read off the `*` blocks of q . h."""
    if homs.dim:
        homs = homs.combinations(kernel_basis(homs.postcomposed(q).star_block()))
    return homs.postcomposed(comp_proj)


def _backward_step(homs, q, comp_incl, comp_proj, complement):
    """Backward homs restricted along the inclusion of the complement."""
    homs = homs.precomposed(comp_incl)
    if homs.dim:
        cols = column_space_basis(homs.star_block())
        homs = HomSpace.from_flat(complement, homs.target, cols, star=True)
    return homs


def split_off_summand(x: Representation, catalog: Catalog, hom_cache: _HomCache = None):
    """Extract a summand of a nonzero subspace representation.

    Returns (catalog index, mono, retraction, trace) where mono embeds
    the catalog object into x and retraction splits it.  Raises
    ValueError when x is not a subspace representation and no cache is
    given.  The walk holds every map as the star form of its own span and
    lifts only the pair it returns.
    """
    if x.total_dim() == 0:
        raise ValueError("cannot split a summand off the zero representation")
    cache = hom_cache or _HomCache(catalog, x)
    if cache.current is not x:
        raise InternalContractViolation("the hom cache describes another representation")
    m_len = catalog.max_length()
    bound = 2**m_len - 1
    trace = ChaseTrace()
    start = None
    for z in range(len(catalog.objects)):
        if catalog.projective[z] and cache.forward[z].dim:
            start = z
            break
    if start is None:
        raise InternalContractViolation(
            "no projective maps into a nonzero representation"
        )
    current = start
    maps = _one_maps(cache.forward[start])
    # prefer a starting map that already splits (the trivial case)
    for h in maps:
        q = _find_retraction(h, cache.backward[start]) if _mono_at_star(h) else None
        if q is not None:
            trace.steps.append({"object": start, "split": True})
            trace.outcome = "split"
            return start, h.basis[0], q, trace
    f = maps[0]
    # running composite of the chosen radical maps from the starting
    # projective; keeping f . composite nonzero is what makes the
    # radical-chain bound terminate the walk
    obj = catalog.objects[start]
    composite = _one_maps(HomSpace(obj, obj, [Morphism.identity(obj)]))[0]
    while True:
        if len(trace.steps) > bound:
            raise ChaseExhaustedError(
                f"chase exceeded the step bound 2^{m_len} - 1 = {bound}"
            )
        # split test: q . f = id for q in the backward hom space; a split
        # mono is a mono, so a map that is not injective at `*` goes
        # straight to the factorization and its backward space is not read
        q = _find_retraction(f, cache.backward[current]) if _mono_at_star(f) else None
        if q is not None:
            trace.steps.append({"object": current, "split": True})
            trace.outcome = "split"
            return current, f.basis[0], q, trace
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
        trace.steps.append({"object": current, "split": False, "next": chosen[0]})
        current, f, composite = chosen


def _one_maps(homs: HomSpace) -> list:
    """The spanning maps of a star-form space, each as its own span."""
    x, y, star = homs.source, homs.target, homs.star_block()
    return [HomSpace.from_flat(x, y, star.column(j), star=True) for j in range(homs.dim)]


def _mono_at_star(f: HomSpace) -> bool:
    """The map f spans is injective at `*`: necessary for it to be mono,
    and for maps between subspace representations also sufficient.  Its
    `*` block read as a (dim source_*, dim target_*) array is f_*^T."""
    c, r = f.source.dim(STAR), f.target.dim(STAR)
    return Matrix(f.source.field, f.star_block().a.reshape(c, r)).rank() == c


def _find_retraction(f: HomSpace, backward: HomSpace):
    """Some q in the span of `backward` (maps f.target -> f.source) with
    q . f = id for the map f spans, or None; solved at `*`."""
    c = f.composites(backward).coefficients([Morphism.identity(f.source)])
    return None if c is None else backward.element(c.a[:, 0])


def _factor_through_left(f: HomSpace, lifts, parts, cache):
    """Solve f = sum_k h'_k . lifts[k] at `*` with each h'_k built from
    the cached forward homs of objects[parts[k]]; returns the h'_k, each
    as its own span."""
    spans = [cache.forward[w] for w in parts]
    composites = HomSpace.joined(
        f.source,
        f.target,
        [homs.precomposed(h) for homs, h in zip(spans, lifts)],
    )
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

    Summand representations are the catalog objects themselves; the
    inclusions/projections are composed back to the original x.  The
    trace list is attached to the certificate.  Raises ValueError, before
    solving any hom space, when x is not a subspace representation.
    """
    summands = []
    traces = []
    incl = Morphism.identity(x)
    proj = Morphism.identity(x)
    current = x
    classes = []
    cache = _HomCache(catalog, x)
    while current.total_dim():
        idx, f, q, trace = split_off_summand(current, catalog, hom_cache=cache)
        traces.append(trace)
        classes.append(idx)
        res = split_by_retraction(current, f, q)
        summands.append(
            Summand(rep=catalog.objects[idx], inclusion=incl @ f, projection=q @ proj)
        )
        cache.restrict(q, res.complement_incl, res.complement_proj, res.complement)
        incl = incl @ res.complement_incl
        proj = res.complement_proj @ proj
        current = res.complement
    cert = {
        "method": "chase",
        "traces": [t.steps for t in traces],
        "classes": classes,
    }
    return Decomposition(x, summands, cert)


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
                homs = _through_left(catalog, z, t, lambda w, s: prev[w, s], catalog.left_maps[z])
                cols = column_space_basis(homs.star_block())
                homs = HomSpace.from_flat(homs.source, homs.target, cols, star=True)
            layer[z, t] = homs
    wlen = min(sum(1 for d in layers if d), m_len - 1)
    witness = _first_column(kept[wlen - 1]) if wlen else None
    return counterexample, (witness, wlen), layers


def _first_column(layer):
    """The first basis column of the first nonzero pair of a layer."""
    return next(homs.basis[0] for homs in layer.values() if homs.dim)

"""Constructive splitting: the projective chase, the decomposition read
off the tops of the hom spaces, and the invariant-subspace pipeline.

There are three ways to decompose a representation: `decomp.indecompose`
(idempotents; any representation, no catalog), `decompose_full` (the
chase) and `decompose_top` (no walk: the split monos Z -> x are the maps
outside rad(Z, x), read off Hom(Z, x) through Z's left almost split
map, and the result certifies itself).  The last two need a catalog and
a subspace representation; `invariant_subspace_report` uses
`decompose_top`.

The chase extracts a direct summand from a nonzero subspace
representation by starting with any nonzero map from a projective and
repeatedly factoring through verified left almost split maps until a
split monomorphism appears; composites of radical maps between the
finitely many indecomposables vanish after 2^m - 1 steps (m the maximal
length), so the walk terminates within that bound.  Every summand is a
direct summand of the input x itself, so the whole chase runs in x's
coordinates: what remains to be split is the image of one idempotent of
x, and no complement is built.  Every object it meets is a subspace
representation, so its hom spaces are star-form `HomSpace`s and every
product, solve and cut it makes is on `*` blocks; a read of `basis`
lifts a space into a memo and changes none of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .artheory import Catalog, _through_left
from .decomp import Decomposition, Summand
from .errors import (
    ChaseExhaustedError,
    InternalContractViolation,
    NoSolutionError,
    NotInvariantError,
    NotNestedError,
)
from .examples import example_quiver
from .ffmat import Matrix, _matmul_mod, _wrap, span_frame
from .lambdamod import LambdaModule
from .posetrep import (
    STAR,
    HomSpace,
    Morphism,
    Representation,
    hom_basis,
    subspace_representation,
)


def _require_subspace(x: Representation):
    """ValueError naming the first point of x whose composite to `*` is
    not injective, before any hom space into x is solved."""
    bad = next((v for v, frame in x.top_frames().items() if frame is None), None)
    if bad is not None:
        raise ValueError(f"not a subspace representation: {bad} -> * is not injective")


class _HomCache:
    """Bases of Hom(Z, x) and Hom(x, Z) for each catalog object Z, cut to
    what remains of x, each solved only when the chase first reads it.

    What remains is the image of one idempotent `keep` of x, id_x at the
    start; `restrict(f, q)` splits off the summand with inclusion f and
    retraction q: keep <- keep - f . q and gone <- gone + f . q, so gone
    is 1 - keep.  A first read solves the entry by `hom_basis` against x;
    a read of an entry older than the latest split cuts it once, however
    many splits it missed:
    - forward: R <- R . relations(gone . R).  With Q the retractions split
      off, stacked, gone = F . Q with F (the inclusions side by side)
      injective, so the system has the null space, hence the reduced kernel
      basis, of Q . R: the basis that one cut per split gives;
    - backward: B <- the pivots of B . keep.  A column dependent on those
      before it stays dependent after precomposition, so pivots compose.
    Entries are star-form `HomSpace`s (the constructor raises ValueError
    naming the first point of x whose composite to `*` is not injective),
    and a read of `basis` lifts the other vertices into a memo.  The
    content digest of `perfbench/layertrace.py` reads every entry (a
    traced run solves and lifts them all), which changes none of the
    products the chase makes; Tier-1 tests check these attributes:
    - `catalog`: the Catalog the chase runs against;
    - `current`: x, the Representation being decomposed;
    - `forward`: dict, catalog index z -> HomSpace from objects[z] to x;
    - `backward`: dict, catalog index z -> HomSpace from x to objects[z].
    """

    def __init__(self, catalog: Catalog, x: Representation):
        _require_subspace(x)
        self.catalog = catalog
        self.current = x
        self.remaining = x.total_dim()  # of the image of keep
        self.splits = 0
        self.keep, self.gone = Morphism.identity(x), Morphism.zero(x, x)
        objs = catalog.objects
        self.forward = _Cut(self, self._cut_forward, lambda z: hom_basis(objs[z], x))
        self.backward = _Cut(self, self._cut_backward, lambda z: hom_basis(x, objs[z]))

    def restrict(self, f: Morphism, q: Morphism):
        """Split off the summand f spans, q its retraction (q . f = id and
        f . q . keep = f . q); the entries follow when they are next read."""
        x, p = self.current, self.current.field.p
        keep, gone = {}, {}
        for v in x.quiver.vertices:
            e = _matmul_mod(f.components[v].a, q.components[v].a, p)
            keep[v] = _wrap(x.field, (self.keep.components[v].a - e) % p)
            gone[v] = _wrap(x.field, (self.gone.components[v].a + e) % p)
        self.keep, self.gone = Morphism(x, x, keep), Morphism(x, x, gone)
        self.remaining -= f.source.total_dim()
        self.splits += 1

    def _cut_forward(self, homs):
        return homs.combinations(homs.postcomposed(self.gone).relations())

    def _cut_backward(self, homs):
        return homs.precomposed(self.keep).pivots()


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
    forward = cache.forward[start]
    maps = [forward.take([j]) for j in range(forward.dim)]  # each map its own span
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
    composite = HomSpace(obj, obj, [Morphism.identity(obj)])
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
            if comp.is_zero():
                continue
            extended = composite.postcomposed(lifts[w_pos])
            if not extended.composites(comp).is_zero():
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


def _find_retraction(f: HomSpace, cache: _HomCache, z: int):
    """Some q in the span of `cache.backward[z]` (maps x -> objects[z] =
    f.source) with q . f = id for the map f spans, or None; solved at
    `*`.  A split mono is a mono, and a map between subspace
    representations is one exactly when it is injective at `*`, so a map
    that is not has none and the backward space is not read."""
    if f.star_map([1]).rank() != f.source.dim(STAR):
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


def decompose_top(x: Representation, catalog: Catalog) -> Decomposition:
    """The summands of x read off the tops of the hom spaces Hom(Z, x),
    with no walk.

    For a catalog object Z with left almost split map (lifts[k]: Z -> W_k),
    rad(Z, x) = sum_k Hom(W_k, x) . lifts[k] (`_through_left`), and a map
    Z -> x is a split mono exactly when it lies outside rad(Z, x).  For
    each Z the inclusions are the columns of `hom_basis(Z, x)` independent
    modulo rad(Z, x): with End Z / J = k, one per copy of Z in x.  Side by
    side they make Phi: sum_i Z_i -> x, and the row blocks of Phi_*^-1,
    from one `span_frame`, lifted into the Z_i are the projections.

    Only objects that fit in x at every vertex can be summands, so only
    their hom spaces are searched.  The result certifies itself: the
    picked objects' dimension vectors sum to x's and Phi_* has full rank,
    so each Phi_v, injective since Phi_* is and x and the Z_i are subspace
    representations, is an isomorphism.  A wrong or missing left map, or
    an object with dim End Z / J > 1, fails one of the two, which raises
    InternalContractViolation.  Raises ValueError, before solving any
    hom space, when x is not a subspace representation.  The certificate
    holds the catalog index and the `hom_basis` column of each summand.
    """
    _require_subspace(x)
    objs, homs = catalog.objects, {}

    def hom(z):
        """Hom(objs[z], x), solved on first use."""
        if z not in homs:
            homs[z] = hom_basis(objs[z], x)
        return homs[z]

    classes, picks, inclusions = [], [], []
    for z, obj in enumerate(objs):
        # Hom from an object that does not fit is solved only when a left
        # map goes through it
        if any(obj.dim(v) > x.dim(v) for v in x.quiver.vertices) or not hom(z).dim:
            continue
        h, (lifts, parts) = hom(z), catalog.left_maps[z]
        chosen = h.independent_of(_through_left(obj, x, [hom(w) for w in parts], lifts))
        if chosen:
            classes += [z] * len(chosen)
            picks += chosen
            inclusions += h.take(chosen).basis
    found = [sum(objs[z].dim(v) for z in classes) for v in x.quiver.vertices]
    if found != list(x.dim_vector()):
        raise InternalContractViolation(
            f"the picked summands have dimensions {found}, x has {list(x.dim_vector())}"
        )
    phi = [np.zeros((x.dim(STAR), 0), dtype=np.int64)] + [f.components[STAR].a for f in inclusions]
    pivots, inverse = span_frame(_wrap(x.field, np.hstack(phi)))
    if len(pivots) != x.dim(STAR):
        raise InternalContractViolation(f"Phi_* has rank {len(pivots)}, not {x.dim(STAR)}")
    offsets = np.cumsum([0] + [objs[z].dim(STAR) for z in classes])
    summands = []
    for i, (z, f) in enumerate(zip(classes, inclusions)):
        block = _wrap(x.field, inverse.a[offsets[i] : offsets[i + 1]])
        summands.append(Summand(objs[z], f, HomSpace.at_star(x, objs[z], [block]).basis[0]))
    return Decomposition(x, summands, {"method": "top", "classes": classes, "picks": picks})


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
    three subspaces with inclusion arrows below.  The construction fails
    exactly when `cfg.validate()` finds a problem, so the configuration
    is validated only then, to raise the first problem it reports."""
    spans = {"1": cfg.v1, "2": cfg.v2, "3": cfg.v3}
    try:
        rep, _ = subspace_representation(example_quiver(), cfg.v, spans)
    except NoSolutionError:
        raise cfg.validate()[0] from None
    return rep


@dataclass
class SubspaceReport:
    """`details` holds (j, dim V_j, sum_i dim (S_i)_j) per poset point j:
    V_j meets the support of iota_i(S_i) in iota_i((S_i)_j), so the last
    entry is the sum of the dimensions of V_j's intersections with the
    summand supports.  `compatible` is the decomposition's `check()`."""

    multiplicities: dict  # catalog index -> count
    compatible: bool
    details: list
    decomposition: Decomposition


def invariant_subspace_report(cfg: SubspaceConfig, catalog: Catalog) -> SubspaceReport:
    """Decompose the configuration by `decompose_top` and read the report
    off its summands.

    For any decomposition x = sum_i iota_i(S_i), V_j meets iota_i(S_i)_*
    in iota_i((S_i)_j), so V_j is the direct sum of those intersections
    and their dimensions are the summands' at j.  `compatible` is
    `Decomposition.check()` (pi_i iota_j = delta_ij and
    sum_i iota_i pi_i = id at every vertex), which implies the
    compatibility equations."""
    rep = from_invariant_subspaces(cfg)
    decomp = decompose_top(rep, catalog)
    mults = {}
    for cls in decomp.certificate["classes"]:
        mults[cls] = mults.get(cls, 0) + 1
    details = [
        (j, rep.dim(j), sum(s.rep.dim(j) for s in decomp.summands))
        for j in rep.quiver.poset.points
    ]
    return SubspaceReport(mults, decomp.check(), details, decomp)


def harada_sai_check(catalog: Catalog):
    """The radical filtration of the catalog, exactly, against the
    Harada-Sai bound: composites of 2^m - 1 radical maps between
    indecomposables of length at most m vanish.

    It is read off the catalog's left almost split maps, trusted as the
    chase trusts them.  A left map (lifts[k]: Z -> W_k) gives
    rad(Z, -) = sum_k Hom(W_k, -) . lifts[k], so
    rad^(k+1)(Z, T) = sum_k rad^k(W_k, T) . lifts[k], from
    rad^1 = `rad_space`.  Each layer is reduced to its pivot columns at
    `*` (`HomSpace.pivots`), so every basis column is a nonzero composite
    of k radical maps.

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
                homs = _through_left(homs.source, homs.target, spans, lifts).pivots()
            layer[z, t] = homs
    wlen = min(sum(1 for d in layers if d), m_len - 1)
    witness = _first_column(kept[wlen - 1]) if wlen else None
    return counterexample, (witness, wlen), layers


def _first_column(layer):
    """The first basis column of the first nonzero pair of a layer."""
    return next(homs.basis[0] for homs in layer.values() if homs.dim)

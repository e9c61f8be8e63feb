"""Constructive splitting: the projective chase and the invariant-subspace
pipeline.

The chase extracts a direct summand from a nonzero subspace
representation by starting with any nonzero map from a projective and
repeatedly factoring through verified left almost split maps until a
split monomorphism appears; composites of radical maps between the
finitely many indecomposables vanish after 2^m - 1 steps (m the maximal
length), so the walk terminates within that bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .artheory import Catalog
from .decomp import Decomposition, Summand
from .errors import (
    ChaseExhaustedError,
    InternalContractViolation,
    NoSolutionError,
    NotInvariantError,
    NotNestedError,
)
from .examples import example_quiver
from .ffmat import (
    Matrix,
    column_space_basis,
    kernel_basis,
    rref,
    solve,
)
from .lambdamod import LambdaModule, submodule
from .posetrep import (
    STAR,
    HomSpace,
    Morphism,
    Representation,
    hom_basis,
    split_by_retraction,
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
    object), updated cheaply when the current object shrinks to a
    complement.

    Attribute contract (the content digest of `perfbench/layertrace.py`
    reads all four, and Tier-1 tests check them):
    - `catalog`: the Catalog the chase runs against;
    - `current`: the Representation still to be decomposed;
    - `forward`: dict, catalog index z -> HomSpace from
      catalog.objects[z] to `current`;
    - `backward`: dict, catalog index z -> HomSpace from `current` to
      catalog.objects[z].
    """

    def __init__(self, catalog: Catalog, x: Representation):
        self.catalog = catalog
        self.current = x
        self.forward = {
            z: hom_basis(catalog.objects[z], x) for z in range(len(catalog.objects))
        }
        self.backward = {
            z: hom_basis(x, catalog.objects[z]) for z in range(len(catalog.objects))
        }

    def restrict(self, e: Morphism, comp_incl: Morphism, comp_proj: Morphism, complement):
        """Pass to the kernel of the idempotent e inside the current
        object: forward homs are those killed by e, corestricted;
        backward homs restrict along the inclusion."""
        for z, homs in self.forward.items():
            if homs.dim:
                homs = homs.combinations(kernel_basis(homs.postcomposed(e).basis_matrix()))
            self.forward[z] = homs.postcomposed(comp_proj)
        for z, homs in self.backward.items():
            homs = homs.precomposed(comp_incl)
            if homs.dim:
                flat = homs.basis_matrix()
                _, pivots, _ = rref(flat)
                homs = HomSpace.from_flat(complement, homs.target, flat.take_columns(pivots))
            self.backward[z] = homs
        self.current = complement


def split_off_summand(x: Representation, catalog: Catalog, hom_cache: _HomCache = None):
    """Extract a summand of a nonzero subspace representation.

    Returns (catalog index, mono, retraction, trace) where mono embeds
    the catalog object into x and retraction splits it.
    """
    if x.total_dim() == 0:
        raise ValueError("cannot split a summand off the zero representation")
    cache = hom_cache or _HomCache(catalog, x)
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
    # prefer a starting map that already splits (the trivial case)
    for h in cache.forward[start].basis:
        q = _find_retraction(h, cache.backward[start])
        if q is not None:
            trace.steps.append({"object": start, "split": True})
            trace.outcome = "split"
            return start, h, q, trace
    f = cache.forward[start].basis[0]
    # running composite of the chosen radical maps from the starting
    # projective; keeping f . composite nonzero is what makes the
    # radical-chain bound terminate the walk
    composite = Morphism.identity(catalog.objects[start])
    while True:
        if len(trace.steps) > bound:
            raise ChaseExhaustedError(
                f"chase exceeded the step bound 2^{m_len} - 1 = {bound}"
            )
        # split test: q . f = id for q in the backward hom space
        q = _find_retraction(f, cache.backward[current])
        if q is not None:
            trace.steps.append({"object": current, "split": True})
            trace.outcome = "split"
            return current, f, q, trace
        lass, parts = catalog.left_maps[current]
        if lass is None:
            raise InternalContractViolation(
                f"no left almost split map out of object {current}"
            )
        comps = _factor_through_left(f, lass, parts, cache)
        chosen = None
        for w_pos in sorted(range(len(parts)), key=lambda t: parts[t]):
            comp = comps[w_pos]
            if comp.is_zero():
                continue
            extended = _block_component(lass, parts, w_pos, catalog) @ composite
            if not (comp @ extended).is_zero():
                chosen = (parts[w_pos], comp, extended)
                break
        if chosen is None:
            raise InternalContractViolation("factorization through the left map vanished")
        trace.steps.append({"object": current, "split": False, "next": chosen[0]})
        current, f, composite = chosen


def _find_retraction(f: Morphism, backward: HomSpace):
    """Some q in the span of `backward` (maps f.target -> f.source) with
    q . f = id, or None."""
    c = backward.precomposed(f).coefficients([Morphism.identity(f.source)])
    return None if c is None else backward.element(c.a[:, 0])


def _factor_through_left(f: Morphism, lass: Morphism, parts, cache):
    """Solve f = h' . lass with h' built from the cached forward homs of
    the middle parts; returns the component of h' on each part."""
    spans = [cache.forward[w] for w in parts]
    composites = HomSpace.joined(
        f.source,
        f.target,
        [
            homs.precomposed(_block_component(lass, parts, pos, cache.catalog))
            for pos, homs in enumerate(spans)
        ],
    )
    if not composites.dim:
        raise InternalContractViolation("left map has no middle homs to factor through")
    c = composites.coefficients([f])
    if c is None:
        raise InternalContractViolation("map does not factor through the left almost split map")
    offsets = np.cumsum([0] + [homs.dim for homs in spans])
    return [
        homs.element(c.a[offsets[pos] : offsets[pos + 1], 0])
        for pos, homs in enumerate(spans)
    ]


def _block_component(lass: Morphism, parts, pos, catalog) -> Morphism:
    """Component z -> objects[parts[pos]] of the stacked left map."""
    src = lass.source
    part = catalog.objects[parts[pos]]
    comps = {}
    for v in src.quiver.vertices:
        off = 0
        for q in range(pos):
            off += catalog.objects[parts[q]].dim(v)
        d = part.dim(v)
        comps[v] = lass.components[v].submatrix(slice(off, off + d), slice(None))
    return Morphism(src, part, comps)


def decompose_full(x: Representation, catalog: Catalog) -> Decomposition:
    """Repeated summand extraction until nothing remains.

    Summand representations are the catalog objects themselves; the
    inclusions/projections are composed back to the original x.  The
    trace list is attached to the certificate.
    """
    summands = []
    traces = []
    incl = Morphism.identity(x)
    proj = Morphism.identity(x)
    current = x
    cache = _HomCache(catalog, x) if x.total_dim() else None
    while current.total_dim():
        idx, f, q, trace = split_off_summand(current, catalog, hom_cache=cache)
        traces.append(trace)
        res = split_by_retraction(current, f, q)
        summands.append(
            Summand(rep=catalog.objects[idx], inclusion=incl @ f, projection=q @ proj)
        )
        e = f @ q
        cache.restrict(e, res.complement_incl, res.complement_proj, res.complement)
        incl = incl @ res.complement_incl
        proj = res.complement_proj @ proj
        current = res.complement
    cert = {
        "method": "chase",
        "traces": [t.steps for t in traces],
        "classes": [catalog.find_isomorphic(s.rep) for s in summands],
    }
    return Decomposition(x, summands, cert)


def chase_class_multiset(decomp: Decomposition):
    return tuple(sorted(decomp.certificate["classes"]))


@dataclass
class SubspaceConfig:
    """A nilpotent operator of index <= 2 with three invariant subspaces,
    the smallest contained in the other two."""

    v: LambdaModule
    v1: Matrix
    v2: Matrix
    v3: Matrix

    def validate(self):
        problems = []
        spans = {1: self.v1, 2: self.v2, 3: self.v3}
        for j, span in spans.items():
            for col in range(span.cols):
                image = self.v.t @ span.column(col)
                try:
                    solve(span, image)
                except NoSolutionError:
                    problems.append(NotInvariantError(j, span.column(col)))
                    break
        for j in (2, 3):
            for col in range(self.v1.cols):
                try:
                    solve(spans[j], self.v1.column(col))
                except NoSolutionError:
                    problems.append(NotNestedError(j, self.v1.column(col)))
                    break
        return problems


def from_invariant_subspaces(cfg: SubspaceConfig) -> Representation:
    """Representation on the example quiver: total space at the top, the
    three subspaces with inclusion arrows below."""
    problems = cfg.validate()
    if problems:
        raise problems[0]
    algebra = cfg.v.algebra
    field = algebra.field
    quiver = example_quiver()
    spans = {
        "1": column_space_basis(cfg.v1),
        "2": column_space_basis(cfg.v2),
        "3": column_space_basis(cfg.v3),
        STAR: Matrix.identity(field, cfg.v.dim),
    }
    spaces = {}
    for v in quiver.vertices:
        mod, span = submodule(cfg.v, spans[v])
        spaces[v] = mod
        spans[v] = span
    spaces[STAR] = cfg.v
    maps = {}
    for (s, t) in quiver.arrows:
        if spans[t].cols:
            maps[(s, t)] = solve(spans[t], spans[s])
        else:
            maps[(s, t)] = Matrix.zeros(field, 0, spans[s].cols)
    rep = Representation(quiver, algebra, spaces, maps)
    if not rep.is_subspace_rep():
        raise InternalContractViolation("subspace construction produced a non-mono arrow")
    return rep


def subspace_data(rep: Representation) -> SubspaceConfig:
    """Extract the invariant-subspace data from a subspace representation
    on the example quiver."""
    spans = {v: column_space_basis(rep.composite_map(v, STAR)) for v in ("1", "2", "3")}
    return SubspaceConfig(rep.spaces[STAR], spans["1"], spans["2"], spans["3"])


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


def harada_sai_check(catalog: Catalog, samples: int, seed: int = 0):
    """Random composable chains of 2^m - 1 radical morphisms compose to
    zero.  Returns (None, witness) on success where witness is a nonzero
    radical chain of length < m, else (counterexample, witness)."""
    rng = np.random.default_rng(seed)
    m_len = catalog.max_length()
    bound = 2**m_len - 1
    field = catalog.algebra.field
    n_obj = len(catalog.objects)
    rad_bases = {}
    targets = {}
    for i in range(n_obj):
        outs = []
        for j in range(n_obj):
            homs = catalog.rad_space(i, j)
            if homs.dim:
                rad_bases[(i, j)] = homs
                outs.append(j)
        targets[i] = outs

    def random_radical(i, j):
        homs = rad_bases[(i, j)]
        while True:
            coeffs = rng.integers(0, field.p, size=homs.dim)
            if coeffs.any():
                return homs.element(coeffs)

    counterexample = None
    for _ in range(samples):
        z = int(rng.integers(0, n_obj))
        composite = None
        length = 0
        while length < bound:
            outs = targets[z]
            if not outs:
                break  # no radical maps out: composite cannot be extended
            nxt = int(outs[rng.integers(0, len(outs))])
            h = random_radical(z, nxt)
            composite = h if composite is None else h @ composite
            z = nxt
            length += 1
            if composite.is_zero():
                break  # stays zero for the remaining steps
        if length >= bound and composite is not None and not composite.is_zero():
            counterexample = composite
            break
    # non-vacuity: greedily extend nonzero radical chains from every start
    witness_len = 0
    witness = None
    for i in range(n_obj):
        for j in targets[i]:
            for h in rad_bases[(i, j)].basis:
                if h.is_zero():
                    continue
                cur, cur_len, z = h, 1, j
                improved = True
                while improved and cur_len < m_len - 1:
                    improved = False
                    for w in targets[z]:
                        # the first h2 . cur over the basis h2 that is nonzero
                        cands = rad_bases[(z, w)].precomposed(cur)
                        nonzero = np.flatnonzero(cands.basis_matrix().a.any(axis=0))
                        if nonzero.size:
                            cur, cur_len, z = cands.basis[nonzero[0]], cur_len + 1, w
                            improved = True
                            break
                if cur_len > witness_len:
                    witness_len, witness = cur_len, cur
    return counterexample, (witness, witness_len)

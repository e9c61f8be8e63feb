"""`dtr` reads its presentation off the layout of the projective cover.

The dual transpose used to rebuild the P0/P1 block offsets by hand: a
running offset per block alive at a vertex, a dict of coefficient lists
read entry by entry out of the composite P1 -> P0, and a block-by-block
fill of the transposed presentation with multiplication matrices.  That
construction is kept here as the reference, together with the
hand-built projectives and projective-cover components, and the library
must give the same bytes at nilpotency 1..4 and p = 2, 3 and 2^31 - 1 on
the simples and seeded random representations (most with a zero
vertex), on the catalog objects, and the same HasProjectiveSummandError message on x + P(i).
"""

import numpy as np
import pytest

from subrep.artheory import dtr, indecomposable_projectives, projective_cover, top_complement
from subrep.errors import HasProjectiveSummandError
from subrep.examples import example_quiver
from subrep.ffmat import Matrix, PrimeField, cokernel_frame, solve
from subrep.lambdamod import LambdaAlgebra, LambdaModule
from subrep.posetrep import Morphism, Representation, direct_sum, kernel_subrep
from subrep.repfile import serialize_representation
from subrep.sampling import random_representation, random_subspace_representation

QUIVER = example_quiver()
CAPS = {"1": 2, "2": 3, "3": 3, "*": 4}


# -- the hand-built construction -------------------------------------------


def _ref_projective_arrows(quiver, algebra, i):
    field = algebra.field
    n = algebra.n
    dims = {v: n if (v == i or quiver.leq(i, v)) else 0 for v in quiver.vertices}
    maps = {}
    for (s, t) in quiver.arrows:
        ds, dt = dims[s], dims[t]
        if ds == dt and ds:
            maps[(s, t)] = Matrix.identity(field, n)
        else:
            maps[(s, t)] = Matrix.zeros(field, dt, ds)
    return dims, maps


def _ref_cover_components(x):
    """(components of the cover P0 -> x, blocks), built block by block."""
    quiver = x.quiver
    field = x.field
    n = x.algebra.n
    blocks = []
    for v in quiver.vertices:
        tops = top_complement(x, v)
        for j in range(tops.cols):
            blocks.append((v, tops.column(j)))
    comps = {}
    for w in quiver.vertices:
        cols = []
        for (v, gen) in blocks:
            if not (v == w or quiver.leq(v, w)):
                cols.append(np.zeros((x.dim(w), 0), dtype=np.int64))
                continue
            image = x.composite_map(v, w) @ gen
            sub_cols = [image.a]
            for _ in range(n - 1):
                sub_cols.append((x.spaces[w].t @ Matrix(field, sub_cols[-1])).a)
            cols.append(np.hstack(sub_cols))
        comps[w] = Matrix(
            field,
            np.hstack(cols) if cols else np.zeros((x.dim(w), 0), dtype=np.int64),
        )
    return comps, blocks


def _ref_cover(x):
    comps, blocks = _ref_cover_components(x)
    projs = dict(zip(x.quiver.vertices, indecomposable_projectives(x.quiver, x.algebra)))
    parts = [projs[v] for v, _ in blocks]
    p0 = direct_sum(parts).rep if parts else Representation.zero(x.quiver, x.algebra)
    return Morphism(p0, x, comps), blocks


def _lambda_mult_matrix(field, coeffs, n):
    m = np.zeros((n, n), dtype=np.int64)
    for r, c in enumerate(coeffs):
        for s in range(n - r):
            m[r + s, s] = c
    return Matrix(field, m)


def _ref_dtr(x):
    quiver = x.quiver
    algebra = x.algebra
    field = algebra.field
    n = algebra.n
    if x.total_dim() == 0:
        return x
    pi0, blocks0 = _ref_cover(x)
    k_rep, k_incl = kernel_subrep(pi0)
    if k_rep.total_dim() == 0:
        raise HasProjectiveSummandError("the module is projective")
    pi1, blocks1 = _ref_cover(k_rep)
    d = k_incl @ pi1
    b_verts = [v for v, _ in blocks0]
    a_verts = [v for v, _ in blocks1]

    def offsets_at(verts_list, v):
        offs = {}
        o = 0
        for idx, bv in enumerate(verts_list):
            if quiver.leq(bv, v):
                offs[idx] = o
                o += n
        return offs

    lam = {}
    for s, av in enumerate(a_verts):
        offs1 = offsets_at(a_verts, av)
        offs0 = offsets_at(b_verts, av)
        col = d.components[av].column(offs1[s])
        for t, bv in enumerate(b_verts):
            if t in offs0:
                lam[(t, s)] = [int(col.a[offs0[t] + r, 0]) for r in range(n)]
    for t, bv in enumerate(b_verts):
        if not any(any(lam.get((t, s), ())) for s in range(len(a_verts))):
            raise HasProjectiveSummandError(f"projective summand attached at vertex {bv!r}")
    cokers = {}
    spaces = {}
    for v in quiver.vertices:
        alive_rows = [s for s, av in enumerate(a_verts) if quiver.leq(v, av)]
        alive_cols = [t for t, bv in enumerate(b_verts) if quiver.leq(v, bv)]
        c = np.zeros((n * len(alive_rows), n * len(alive_cols)), dtype=np.int64)
        for ri, s in enumerate(alive_rows):
            for ci, t in enumerate(alive_cols):
                if (t, s) in lam:
                    c[ri * n : (ri + 1) * n, ci * n : (ci + 1) * n] = _lambda_mult_matrix(
                        field, lam[(t, s)], n
                    ).a
        l = cokernel_frame(Matrix(field, c))[0]
        cokers[v] = (l, alive_rows)
        t_free = LambdaModule.free(algebra, len(alive_rows)).t
        spaces[v] = LambdaModule(algebra, solve(l.transpose(), (l @ t_free).transpose()))
    maps = {}
    for (i, j) in quiver.arrows:
        li, rows_i = cokers[i]
        lj, rows_j = cokers[j]
        e = np.zeros((n * len(rows_i), n * len(rows_j)), dtype=np.int64)
        for cj, s in enumerate(rows_j):
            ri = rows_i.index(s)
            e[ri * n : (ri + 1) * n, cj * n : (cj + 1) * n] = np.eye(n, dtype=np.int64)
        maps[(i, j)] = solve(lj.transpose(), (li @ Matrix(field, e)).transpose())
    return Representation(quiver, algebra, spaces, maps)


# -- the comparisons -------------------------------------------------------


def _outcome(f, x):
    """The serialized result of f(x), or the message it raised."""
    try:
        return serialize_representation(f(x))
    except HasProjectiveSummandError as exc:
        return f"HasProjectiveSummandError: {exc}"


def _same(a: Matrix, b: Matrix) -> bool:
    return a.a.shape == b.a.shape and a.a.tobytes() == b.a.tobytes()


def _simple(algebra, v):
    """k at the poset point v, zero elsewhere: never projective."""
    spaces = {w: LambdaModule.zero(algebra) for w in QUIVER.vertices}
    spaces[v] = LambdaModule.simple(algebra)
    field = algebra.field
    maps = {(s, t): Matrix.zeros(field, spaces[t].dim, spaces[s].dim) for s, t in QUIVER.arrows}
    return Representation(QUIVER, algebra, spaces, maps)


ALGEBRAS = [
    pytest.param(p, n, id=f"p={p}-n={n}") for p in (2, 3, 2**31 - 1) for n in (1, 2, 3, 4)
]


@pytest.mark.parametrize("p,n", ALGEBRAS)
def test_projectives_and_covers_match_hand_built(p, n):
    algebra = LambdaAlgebra(PrimeField(p), n)
    for i, proj in zip(QUIVER.vertices, indecomposable_projectives(QUIVER, algebra)):
        dims, maps = _ref_projective_arrows(QUIVER, algebra, i)
        assert {v: proj.dim(v) for v in QUIVER.vertices} == dims
        assert all(_same(proj.arrow_maps[a], maps[a]) for a in QUIVER.arrows)
    rng = np.random.default_rng(3000 * n + p % 1000)
    xs = [Representation.zero(QUIVER, algebra)]
    xs += [random_representation(QUIVER, algebra, CAPS, rng) for _ in range(4)]
    for x in xs:
        pi, blocks = projective_cover(x)
        comps, ref_blocks = _ref_cover_components(x)
        assert [v for v, _ in blocks] == [v for v, _ in ref_blocks]
        assert all(_same(g, h) for (_, g), (_, h) in zip(blocks, ref_blocks))
        assert all(_same(pi.components[v], comps[v]) for v in QUIVER.vertices)


@pytest.mark.parametrize("p,n", ALGEBRAS)
def test_dtr_matches_hand_built(p, n):
    algebra = LambdaAlgebra(PrimeField(p), n)
    rng = np.random.default_rng(4000 * n + p % 1000)
    xs = [_simple(algebra, v) for v in QUIVER.poset.points]
    xs += [random_representation(QUIVER, algebra, CAPS, rng) for _ in range(8)]
    xs += [random_subspace_representation(QUIVER, algebra, CAPS, rng) for _ in range(6)]
    xs.append(direct_sum(xs[-3:]).rep)
    computed = 0
    for x in xs:
        want = _outcome(_ref_dtr, x)
        assert _outcome(dtr, x) == want
        computed += not want.startswith("HasProjectiveSummandError")
    # the simples, and at n >= 2 most random inputs, have no projective summand
    assert computed >= (3 if n == 1 else 10)


@pytest.mark.parametrize("p,n", ALGEBRAS)
def test_projective_summand_message_matches_hand_built(p, n):
    algebra = LambdaAlgebra(PrimeField(p), n)
    rng = np.random.default_rng(5000 * n + p % 1000)
    x = random_subspace_representation(QUIVER, algebra, CAPS, rng)
    for proj in indecomposable_projectives(QUIVER, algebra):
        for y in (proj, direct_sum([x, proj]).rep, direct_sum([proj, x]).rep):
            want = _outcome(_ref_dtr, y)
            assert want.startswith("HasProjectiveSummandError")
            assert _outcome(dtr, y) == want


@pytest.mark.parametrize("which", [2, 3])
def test_dtr_of_catalog_objects_matches_hand_built(which, catalog_p2, catalog_p3):
    catalog = {2: catalog_p2, 3: catalog_p3}[which]
    for i, x in enumerate(catalog.objects):
        if not catalog.projective[i]:
            assert _outcome(dtr, x) == _outcome(_ref_dtr, x)

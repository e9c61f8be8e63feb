"""Every block matrix is laid out by `ffmat.block_diag`.

The free module, direct sums of modules and of representations, the
injective-envelope embedding and the doubly augmented arrows of `mimo_k`
used to place their blocks by hand, with zero matrices, running offsets
and slice assignment.  The hand-built layouts are kept here as the
reference, and the library's matrices must equal them byte for byte, at
nilpotency 1..4 and p = 2, 3 and 2^31 - 1, on rank 0, the zero module,
the zero representation and a summand that is zero at every poset point.
"""

import numpy as np
import pytest

from subrep.approx import mimo_k
from subrep.examples import example_quiver
from subrep.ffmat import CoordinateSolver, Matrix, PrimeField, kernel_basis
from subrep.lambdamod import (
    LambdaAlgebra,
    LambdaModule,
    direct_sum_modules,
    injective_envelope,
    jordan_basis,
    lift_through_mono,
    submodule,
)
from subrep.posetrep import STAR, Representation, direct_sum
from subrep.sampling import random_module, random_representation

QUIVER = example_quiver()
CAPS = {"1": 2, "2": 3, "3": 3, STAR: 4}


# -- the hand-built layouts ----------------------------------------------


def _ref_free(algebra, rank):
    n = algebra.n
    t = np.zeros((n * rank, n * rank), dtype=np.int64)
    for b in range(rank):
        for j in range(n - 1):
            t[b * n + j + 1, b * n + j] = 1
    return Matrix(algebra.field, t)


def _ref_block(algebra, size):
    t = np.zeros((size, size), dtype=np.int64)
    for j in range(size - 1):
        t[j + 1, j] = 1
    return Matrix(algebra.field, t)


def _ref_direct_sum_modules(mods):
    algebra = mods[0].algebra
    total = sum(m.dim for m in mods)
    t = np.zeros((total, total), dtype=np.int64)
    o = 0
    for m in mods:
        t[o : o + m.dim, o : o + m.dim] = m.t.a
        o += m.dim
    return LambdaModule(algebra, Matrix(algebra.field, t))


def _ref_injective_envelope(m):
    algebra = m.algebra
    field = algebra.field
    n = algebra.n
    j, sizes = jordan_basis(m)
    s = len(sizes)
    env = LambdaModule(algebra, _ref_free(algebra, s))
    emb_jordan = np.zeros((n * s, m.dim), dtype=np.int64)
    col = 0
    for b, d in enumerate(sizes):
        for r in range(d):
            emb_jordan[b * n + (n - d + r), col + r] = 1
        col += d
    to_jordan = CoordinateSolver(j)
    emb = Matrix(field, emb_jordan) @ to_jordan.coords(Matrix.identity(field, m.dim))
    return env, emb


def _ref_direct_sum(xs):
    """(arrow maps, inclusions, projections), the last two as lists of
    per-vertex dicts."""
    quiver = xs[0].quiver
    field = xs[0].field
    maps = {}
    for (s, t) in quiver.arrows:
        rows = sum(x.dim(t) for x in xs)
        cols = sum(x.dim(s) for x in xs)
        m = np.zeros((rows, cols), dtype=np.int64)
        ro = co = 0
        for x in xs:
            a = x.arrow_maps[(s, t)]
            m[ro : ro + a.rows, co : co + a.cols] = a.a
            ro += a.rows
            co += a.cols
        maps[(s, t)] = Matrix(field, m)
    inclusions = []
    projections = []
    offsets = {v: 0 for v in quiver.vertices}
    for x in xs:
        incl = {}
        proj = {}
        for v in quiver.vertices:
            d, dt = x.dim(v), sum(y.dim(v) for y in xs)
            o = offsets[v]
            im = np.zeros((dt, d), dtype=np.int64)
            pm = np.zeros((d, dt), dtype=np.int64)
            im[o : o + d] = np.eye(d, dtype=np.int64)
            pm[:, o : o + d] = np.eye(d, dtype=np.int64)
            incl[v] = Matrix(field, im)
            proj[v] = Matrix(field, pm)
            offsets[v] = o + d
        inclusions.append(incl)
        projections.append(proj)
    return maps, inclusions, projections


def _ref_mimo_k(x, k):
    """(spaces, arrow maps, structure-map components) of the doubly
    augmented representation, the envelope and sums built by hand too."""
    quiver = x.quiver
    field = x.field
    ker = kernel_basis(x.composite_map(k, STAR))
    ker_mod, kappa = submodule(x.spaces[k], ker)
    env, ebar = _ref_injective_envelope(ker_mod)
    e_k = lift_through_mono(kappa, ebar, x.spaces[k], env)
    d_env = env.dim

    def augmented(v):
        return not quiver.leq(v, k)

    maps = {}
    for (s, t) in quiver.arrows:
        a = x.arrow_maps[(s, t)]
        if not augmented(t):
            maps[(s, t)] = a
        elif not augmented(s):
            maps[(s, t)] = a.vstack(e_k @ x.composite_map(s, k))
        else:
            block = np.zeros((a.rows + d_env, a.cols + d_env), dtype=np.int64)
            block[: a.rows, : a.cols] = a.a
            block[a.rows :, a.cols :] = np.eye(d_env, dtype=np.int64)
            maps[(s, t)] = Matrix(field, block)
    comps = {}
    for v in quiver.vertices:
        d = x.dim(v)
        if augmented(v):
            proj = np.zeros((d, d + d_env), dtype=np.int64)
            proj[:, :d] = np.eye(d, dtype=np.int64)
            comps[v] = Matrix(field, proj)
        else:
            comps[v] = Matrix.identity(field, d)
    spaces = {
        v: _ref_direct_sum_modules([x.spaces[v], env]) if augmented(v) else x.spaces[v]
        for v in quiver.vertices
    }
    return spaces, maps, comps


# -- inputs ----------------------------------------------------------------


def _same(a: Matrix, b: Matrix) -> bool:
    return (
        a.field == b.field
        and a.a.dtype == b.a.dtype
        and a.a.shape == b.a.shape
        and a.a.tobytes() == b.a.tobytes()
    )


def _same_dicts(a, b):
    return a.keys() == b.keys() and all(_same(a[key], b[key]) for key in a)


def _zero_below_star(algebra):
    """Lambda at '*' and zero at every poset point."""
    field = algebra.field
    spaces = {v: LambdaModule.zero(algebra) for v in QUIVER.poset.points}
    spaces[STAR] = LambdaModule.free(algebra)
    maps = {(s, t): Matrix.zeros(field, spaces[t].dim, 0) for (s, t) in QUIVER.arrows}
    return Representation(QUIVER, algebra, spaces, maps)


def _representations(algebra, rng):
    reps = [Representation.zero(QUIVER, algebra), _zero_below_star(algebra)]
    reps += [random_representation(QUIVER, algebra, CAPS, rng) for _ in range(3)]
    return reps


ALGEBRAS = [
    pytest.param(p, n, id=f"p={p}-n={n}") for p in (2, 3, 2**31 - 1) for n in (1, 2, 3, 4)
]


# -- the comparisons -------------------------------------------------------


@pytest.mark.parametrize("p,n", ALGEBRAS)
def test_module_layouts_match_hand_built(p, n):
    algebra = LambdaAlgebra(PrimeField(p), n)
    rng = np.random.default_rng(1000 * n + p % 1000)
    for rank in range(4):
        assert _same(LambdaModule.free(algebra, rank).t, _ref_free(algebra, rank))
    for size in range(1, n + 1):
        assert _same(LambdaModule.block(algebra, size).t, _ref_block(algebra, size))
    zero = LambdaModule.zero(algebra)
    mods = [zero] + [random_module(algebra, d, rng) for d in range(6)]
    for parts in ([zero], [zero, zero], mods, mods[::-1], mods[1:3]):
        assert _same(direct_sum_modules(parts).t, _ref_direct_sum_modules(parts).t)
    for m in mods + [LambdaModule.free(algebra, 2)]:
        env, emb = injective_envelope(m)
        ref_env, ref_emb = _ref_injective_envelope(m)
        assert _same(env.t, ref_env.t) and _same(emb, ref_emb)


@pytest.mark.parametrize("p,n", ALGEBRAS)
def test_representation_layouts_match_hand_built(p, n):
    algebra = LambdaAlgebra(PrimeField(p), n)
    rng = np.random.default_rng(2000 * n + p % 1000)
    zero, below_star, *rand = _representations(algebra, rng)
    lists = [[zero], [below_star], [zero, below_star], rand]
    for xs in lists + [[rand[0], zero, below_star, rand[1]]]:
        ds = direct_sum(xs)
        maps, inclusions, projections = _ref_direct_sum(xs)
        assert _same_dicts(ds.rep.arrow_maps, maps)
        for i in range(len(xs)):
            assert _same_dicts(ds.inclusions[i].components, inclusions[i])
            assert _same_dicts(ds.projections[i].components, projections[i])
    for x in [zero, below_star, *rand]:
        for k in QUIVER.poset.points:
            res = mimo_k(x, k)
            spaces, maps, comps = _ref_mimo_k(x, k)
            assert all(_same(res.approx.spaces[v].t, spaces[v].t) for v in QUIVER.vertices)
            assert _same_dicts(res.approx.arrow_maps, maps)
            assert _same_dicts(res.structure_map.components, comps)

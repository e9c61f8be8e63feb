"""Hom spaces, kernels, images and idempotents from fewer eliminations.

`hom_basis` into a subspace representation solves for the component at
'*' only and lifts it; `kernel_subrep`, `split_by_retraction` and
`image_subrep` read everything off one rref of each component;
`decomp._crt_idempotents` evaluates each interpolant once on the total
matrix.  The earlier constructions are kept here as the reference: the
full hom system (equivariance at every vertex, naturality on every
arrow), `subrep_from_bases` with a `CoordinateSolver` per vertex for the
projections, and one `eval_matrix` per vertex.  The library's results
must equal them byte for byte at nilpotency 1..4 and p = 2, 3 and
2^31 - 1, on seeded subspace and general representations, with zero
vertices, non-subspace targets and non-idempotent maps included.
"""

import numpy as np
import pytest

from subrep.decomp import _crt_idempotents, indecompose
from subrep.examples import example_quiver
from subrep.ffmat import (
    CoordinateSolver,
    Matrix,
    Poly,
    PrimeField,
    column_space_basis,
    factor,
    kernel_basis,
    min_poly,
    poly_xgcd,
)
from subrep.lambdamod import LambdaAlgebra
from subrep.posetrep import (
    STAR,
    Morphism,
    Representation,
    direct_sum,
    end_algebra,
    hom_basis,
    image_subrep,
    kernel_subrep,
    split_by_retraction,
    subrep_from_bases,
)
from subrep.sampling import random_representation, random_subspace_representation

QUIVER = example_quiver()
CAPS = {"1": 2, "2": 3, "3": 3, STAR: 4}
ALGEBRAS = [(p, n) for p in (2, 3, 2**31 - 1) for n in (1, 2, 3, 4)]


# -- the references ------------------------------------------------------


def _ref_hom_flat(x, y):
    """Kernel of the full system, in `Morphism.flatten` coordinates."""
    verts = QUIVER.vertices
    offsets, total = {}, 0
    for v in verts:
        offsets[v] = total
        total += y.dim(v) * x.dim(v)
    rows = []
    for v in verts:
        blk = np.zeros((x.dim(v) * y.dim(v), total), dtype=np.int64)
        o = offsets[v]
        eye_x, eye_y = np.eye(x.dim(v), dtype=np.int64), np.eye(y.dim(v), dtype=np.int64)
        blk[:, o : o + x.dim(v) * y.dim(v)] = np.kron(x.spaces[v].t.a.T, eye_y) - np.kron(
            eye_x, y.spaces[v].t.a
        )
        rows.append(blk)
    for s, t in QUIVER.arrows:
        blk = np.zeros((y.dim(t) * x.dim(s), total), dtype=np.int64)
        ot, os_ = offsets[t], offsets[s]
        blk[:, ot : ot + x.dim(t) * y.dim(t)] = np.kron(
            x.arrow_maps[(s, t)].a.T, np.eye(y.dim(t), dtype=np.int64)
        )
        blk[:, os_ : os_ + x.dim(s) * y.dim(s)] -= np.kron(
            np.eye(x.dim(s), dtype=np.int64), y.arrow_maps[(s, t)].a
        )
        rows.append(blk)
    return kernel_basis(Matrix(x.field, np.vstack(rows)))


def _ref_is_subspace_rep(x):
    return all(m.rank() == m.cols for m in x.arrow_maps.values())


def _ref_kernel(f):
    return subrep_from_bases(f.source, {v: kernel_basis(m) for v, m in f.components.items()})


def _ref_image(f):
    sub, incl = subrep_from_bases(
        f.target, {v: column_space_basis(m) for v, m in f.components.items()}
    )
    core = {
        v: CoordinateSolver(incl.components[v]).coords(f.components[v]) for v in QUIVER.vertices
    }
    return sub, incl, Morphism(f.source, sub, core)


def _ref_complement_proj(x, e, comp_incl):
    field = x.field
    return {
        v: CoordinateSolver(comp_incl.components[v]).coords(
            Matrix.identity(field, x.dim(v)) - e.components[v]
        )
        for v in QUIVER.vertices
    }


def _ref_eval(poly, m):
    acc = Matrix.zeros(m.field, m.rows, m.cols)
    for c in reversed(poly.coeffs):
        acc = acc @ m + Matrix.identity(m.field, m.rows).scale(c)
    return acc


def _ref_idempotents(theta, factors, mp):
    out = []
    for irr, mult in factors:
        pk = Poly.one(mp.field)
        for _ in range(mult):
            pk = pk * irr
        qk = mp // pk
        _, u, _ = poly_xgcd(qk, pk)
        interp = (u * qk) % mp
        out.append({v: _ref_eval(interp, m) for v, m in theta.components.items()})
    return out


# -- comparisons ---------------------------------------------------------


def _same(a, b):
    return a.a.shape == b.a.shape and a.a.tobytes() == b.a.tobytes()


def _same_rep(x, y):
    return all(_same(x.spaces[v].t, y.spaces[v].t) for v in QUIVER.vertices) and all(
        _same(x.arrow_maps[a], y.arrow_maps[a]) for a in QUIVER.arrows
    )


def _same_map(f, g):
    return all(_same(f.components[v], g.components[v]) for v in QUIVER.vertices)


def _zero_at_points(algebra, rng):
    """A subspace representation that is zero at every poset point."""
    caps = {"1": 0, "2": 0, "3": 0, STAR: 3}
    return random_subspace_representation(QUIVER, algebra, caps, rng)


def _samples(p, n, seed):
    algebra = LambdaAlgebra(PrimeField(p), n)
    rng = np.random.default_rng(seed)
    subs = [random_subspace_representation(QUIVER, algebra, CAPS, rng) for _ in range(4)]
    subs += [_zero_at_points(algebra, rng), Representation.zero(QUIVER, algebra)]
    general = [random_representation(QUIVER, algebra, CAPS, rng) for _ in range(4)]
    return rng, subs, general


def _random_map(hs, rng):
    return hs.element(rng.integers(0, hs.source.field.p, size=hs.dim))


# -- tests ---------------------------------------------------------------


@pytest.mark.parametrize("p,n", ALGEBRAS)
def test_hom_basis_matches_full_system(p, n):
    _, subs, general = _samples(p, n, 7000 * n + p % 1000)
    reps = subs + general
    fallback = 0
    for y in reps:
        assert y.is_subspace_rep() == _ref_is_subspace_rep(y)
        fallback += not y.is_subspace_rep()
        for x in reps:
            assert _same(hom_basis(x, y).basis_matrix(), _ref_hom_flat(x, y))
    # the general samples exercise the full system
    assert fallback >= 2


@pytest.mark.parametrize("p,n", ALGEBRAS)
def test_kernel_and_image_match_subrep_from_bases(p, n):
    rng, subs, general = _samples(p, n, 8000 * n + p % 1000)
    reps = subs[:3] + general[:3]
    for x in reps:
        for y in reps:
            hs = hom_basis(x, y)
            for f in [_random_map(hs, rng) for _ in range(2)] + [Morphism.zero(x, y)]:
                ker, ker_incl = kernel_subrep(f)
                ref_ker, ref_ker_incl = _ref_kernel(f)
                assert _same_rep(ker, ref_ker) and _same_map(ker_incl, ref_ker_incl)
                img, img_incl, core = image_subrep(f)
                ref_img, ref_img_incl, ref_core = _ref_image(f)
                assert _same_rep(img, ref_img) and _same_map(img_incl, ref_img_incl)
                assert _same_map(core, ref_core)
                assert img_incl @ core == f


@pytest.mark.parametrize("p,n", ALGEBRAS)
def test_split_by_retraction_matches_coordinate_solver(p, n):
    _, subs, general = _samples(p, n, 9000 * n + p % 1000)
    pairs = []
    ds = direct_sum([subs[0], general[0], subs[4]])
    pairs += [(ds.rep, i, q) for i, q in zip(ds.inclusions, ds.projections)]
    for x in (subs[1], general[1]):
        d = indecompose(x, seed=1)
        pairs += [(x, s.inclusion, s.projection) for s in d.summands]
    assert len(pairs) >= 5
    for x, mono, retraction in pairs:
        res = split_by_retraction(x, mono, retraction)
        e = mono @ retraction
        ref_comp, ref_incl = _ref_kernel(e)
        assert _same_rep(res.complement, ref_comp)
        assert _same_map(res.complement_incl, ref_incl)
        ref_proj = _ref_complement_proj(x, e, ref_incl)
        assert all(_same(res.complement_proj.components[v], ref_proj[v]) for v in QUIVER.vertices)


@pytest.mark.parametrize("p,n", ALGEBRAS)
def test_crt_idempotents_match_per_vertex_evaluation(p, n):
    rng, subs, general = _samples(p, n, 10000 * n + p % 1000)
    split = 0
    for x in subs[:4] + general + [direct_sum(subs[:2]).rep]:
        end = end_algebra(x)
        for _ in range(3):
            theta = end.element(rng.integers(0, p, size=end.dim))
            total = theta.total_matrix()
            mp = min_poly(total)
            factors = factor(mp, seed=0)
            split += len(factors) >= 2
            got = _crt_idempotents(theta, total, factors, mp)
            want = _ref_idempotents(theta, factors, mp)
            assert len(got) == len(want)
            for e, ref in zip(got, want):
                assert all(_same(e.components[v], ref[v]) for v in QUIVER.vertices)
    assert split

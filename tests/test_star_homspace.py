"""Hom spaces into subspace representations held as their `*` block.

Into a subspace representation y a morphism is determined by f_*, so
`hom_basis(x, y)` returns the star form of `HomSpace`: the `*` block
alone, the last dim x_* . dim y_* rows of the flat matrix.  The other
vertices, f_v = L_v f_* X_v, are lifted on the first read of
`basis_matrix()` or `basis`; `dim` and `star_block()` never lift.  The
eager lift `hom_basis` made before is kept here as the reference
(`_eager_hom_basis`).  On every ordered pair of `fixtures/catalog_p2`
objects and on seeded subspace representations at p = 3 and 2^31 - 1,
the lifted basis must equal it byte for byte, and compositions,
combinations, elements and solves must agree on the two forms, with
each product of the star form made by one `_matmul_mod` call.
"""

import numpy as np
import pytest

from subrep import posetrep
from subrep.examples import example_quiver
from subrep.ffmat import Matrix, PrimeField, _matmul_mod, kernel_basis, kron
from subrep.lambdamod import LambdaAlgebra, equivariance_system
from subrep.posetrep import STAR, HomSpace, direct_sum, hom_basis
from subrep.sampling import random_representation, random_subspace_representation


def _eager_hom_basis(x, y):
    """`hom_basis` into a subspace representation y as it was: solve at
    `*`, then lift every column at once, in flat form."""
    frames, field, p, points = y.top_frames(), x.field, x.field.p, x.quiver.poset.points
    c, r = x.dim(STAR), y.dim(STAR)
    xs = {v: x.composite_map(v, STAR).a.T for v in points}
    rows = [equivariance_system(x.spaces[STAR], y.spaces[STAR])]
    rows += [kron(xs[v], frames[v][1].a) for v in points]
    k = kernel_basis(Matrix(field, np.vstack(rows))).a
    m = k.shape[1]
    parts = []
    for v in points:
        fx = _matmul_mod(xs[v], k.reshape(c, r * m), p).reshape(x.dim(v), r, m)
        parts.append(_matmul_mod(frames[v][0].a, fx, p).reshape(x.dim(v) * y.dim(v), m))
    parts.append(k)
    return HomSpace.from_flat(x, y, Matrix(field, np.concatenate(parts)))


def _same(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _random_coeffs(field, rows, cols, rng):
    return Matrix(field, rng.integers(0, field.p, size=(rows, cols)))


def _pairs_p2(catalog):
    objs = catalog.objects
    return [(x, y) for x in objs for y in objs]


def _seeded_pairs(p, count=6):
    algebra = LambdaAlgebra(PrimeField(p), 2)
    rng = np.random.default_rng(p % 1000)
    caps = {"1": 2, "2": 3, "3": 3, "*": 4}
    quiver = example_quiver()
    reps = [random_subspace_representation(quiver, algebra, caps, rng) for _ in range(count)]
    return [(x, y) for x in reps for y in reps]


def _inputs(p, request):
    if p == 2:
        return _pairs_p2(request.getfixturevalue("catalog_p2"))
    return _seeded_pairs(p)


@pytest.mark.parametrize("p", [2, 3, 2**31 - 1])
def test_lazy_lift_matches_the_eager_lift(p, request, monkeypatch):
    lifts = []
    real_lift = posetrep._lift
    monkeypatch.setattr(posetrep, "_lift", lambda *args: lifts.append(args) or real_lift(*args))
    for x, y in _inputs(p, request):
        homs, eager = hom_basis(x, y), _eager_hom_basis(x, y)
        flat = eager.basis_matrix().a
        # dim and the `*` block are read without a lift
        assert homs.dim == eager.dim
        _same(homs.star_block().a, flat[flat.shape[0] - x.dim(STAR) * y.dim(STAR) :])
        assert not lifts
        _same(homs.basis_matrix().a, flat)
        assert len(lifts) == 1
        assert homs.basis == eager.basis and len(lifts) == 1
        lifts.clear()


@pytest.mark.parametrize("p", [2, 3, 2**31 - 1])
def test_both_forms_agree(p, request):
    rng = np.random.default_rng(7)
    field = PrimeField(p)
    for x, y in _inputs(p, request):
        # a fresh star-form space per use: one that has been lifted
        # composes in flat form
        star, flat = lambda: hom_basis(x, y), _eager_hom_basis(x, y)
        k = flat.dim
        ends_y, ends_x = _eager_hom_basis(y, y), _eager_hom_basis(x, x)
        g = ends_y.element(rng.integers(0, p, size=ends_y.dim))
        f = ends_x.element(rng.integers(0, p, size=ends_x.dim))
        coeffs = _random_coeffs(field, k, 3, rng)
        pairs = [
            (star().postcomposed(g), flat.postcomposed(g)),
            (star().precomposed(f), flat.precomposed(f)),
            (star().combinations(coeffs), flat.combinations(coeffs)),
            (star().composites(hom_basis(y, y)), flat.composites(_eager_hom_basis(y, y))),
            (HomSpace.joined(x, y, [star(), star()]), HomSpace.joined(x, y, [flat, flat])),
        ]
        for got, want in pairs:
            _same(got.star_block().a, want.star_block().a)
            _same(got.basis_matrix().a, want.basis_matrix().a)
        coords = rng.integers(0, p, size=k)
        assert star().element(coords) == flat.element(coords)
        targets = [flat.element(c) for c in coeffs.a.T]
        for space in (star, lambda: flat):
            for given in (targets, star().combinations(coeffs), flat.combinations(coeffs)):
                _same(space().coefficients(given).a, flat.coefficients(targets).a)
        if k:
            # the last basis map lies outside the span of the others
            head = Matrix(field, np.eye(k, dtype=np.int64)[:, : k - 1])
            for space in (star().combinations(head), flat.combinations(head)):
                assert space.coefficients([flat.basis[-1]]) is None


def test_postcomposed_into_a_non_subspace_target_is_flat(catalog_p2):
    """g . h is held at `*` only when g.target is a subspace
    representation; otherwise the space is lifted and composed flat."""
    algebra, quiver = catalog_p2.algebra, catalog_p2.quiver
    rng = np.random.default_rng(3)
    caps = {"1": 2, "2": 3, "3": 3, "*": 3}
    w = next(
        w
        for w in (random_representation(quiver, algebra, caps, rng) for _ in range(50))
        if not w.is_subspace_rep()
    )
    for x in catalog_p2.objects[:6]:
        for y in catalog_p2.objects[:6]:
            total = direct_sum([y, w])
            incl = total.inclusions[0]
            star, flat = hom_basis(x, y), _eager_hom_basis(x, y)
            got = star.postcomposed(incl)
            _same(got.basis_matrix().a, flat.postcomposed(incl).basis_matrix().a)
            assert got.basis == tuple(incl @ h for h in flat.basis)


def test_star_products_each_make_one_matmul_mod_call(catalog_p2, monkeypatch):
    calls = []

    def recording(a, b, p):
        out = _matmul_mod(a, b, p)
        calls.append(out)
        return out

    monkeypatch.setattr(posetrep, "_matmul_mod", recording)
    objs = catalog_p2.objects
    rng = np.random.default_rng(11)
    checked = 0
    for x in objs[::3]:
        for y in objs[::2]:
            star = hom_basis(x, y)
            if not star.dim:
                continue
            g = hom_basis(y, y).element(rng.integers(0, 2, size=hom_basis(y, y).dim))
            f = hom_basis(x, x).element(rng.integers(0, 2, size=hom_basis(x, x).dim))
            coeffs = _random_coeffs(x.field, star.dim, 2, rng)
            for op in (
                lambda: star.postcomposed(g),
                lambda: star.precomposed(f),
                lambda: star.combinations(coeffs),
                lambda: star.composites(hom_basis(y, y)),
            ):
                calls.clear()
                got = op().star_block().a
                # one product, and the `*` block is what it returned
                assert len(calls) == 1
                assert calls[0].size == got.size
                assert sorted(calls[0].ravel()) == sorted(got.ravel())
                checked += 1
            # the lift is two products per poset point; after it the
            # space composes flat, one product per vertex, and what it
            # derives is flat already
            calls.clear()
            star.basis_matrix()
            assert len(calls) == 2 * len(x.quiver.poset.points)
            calls.clear()
            derived = star.postcomposed(g)
            assert len(calls) == len(x.quiver.vertices)
            calls.clear()
            derived.basis_matrix()
            assert not calls
    assert checked > 50

"""Hom spaces into subspace representations held as their `*` block.

Into a subspace representation y a morphism is determined by f_*, so a
`HomSpace` into y holds and computes on its `*` block alone, the last
dim x_* . dim y_* rows of the flat matrix; `hom_basis(x, y)` returns
that block.  The other vertices, f_v = L_v f_* X_v, are lifted on the
first read of `basis_matrix()` or `basis` into a memo that no other
method reads: `dim` and `star_block()` never lift, and a lifted space
still composes at `*`.  The eager lift `hom_basis` made before is kept
here as the reference (`_eager_hom_basis`), and its compositions,
combinations and solves are computed flat, with `is_subspace_rep`
patched to say no target is a subspace representation.  On every
ordered pair of `fixtures/catalog_p2` objects and on seeded subspace
representations at p = 3 and 2^31 - 1, the lifted basis must equal it
byte for byte, and compositions, combinations, elements and solves must
agree on the two forms, with each product of the star form made by one
`_matmul_mod` call.
"""

import numpy as np
import pytest

from subrep import birkhoff, posetrep
from subrep.examples import example_quiver
from subrep.ffmat import Matrix, PrimeField, _matmul_mod, kernel_basis, kron
from subrep.lambdamod import LambdaAlgebra, equivariance_system
from subrep.posetrep import (
    STAR,
    HomSpace,
    Morphism,
    Representation,
    _flat_size,
    direct_sum,
    hom_basis,
)
from subrep.sampling import random_representation, random_subspace_representation
from oracles import flat_span
from test_birkhoff import _chase_inputs


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
    return flat_span(x, y, Matrix(field, np.concatenate(parts)))


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


def _lifts(x, y):
    """Whether a lift has rows to fill: some vertex other than `*`."""
    return _flat_size(x, y) > x.dim(STAR) * y.dim(STAR)


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
        # a `*` block that is the whole flat matrix needs no lift
        _same(homs.basis_matrix().a, flat)
        assert len(lifts) == _lifts(x, y)
        assert homs.basis == eager.basis and len(lifts) == _lifts(x, y)
        lifts.clear()


@pytest.mark.parametrize("p", [2, 3, 2**31 - 1])
def test_both_forms_agree(p, request, monkeypatch):
    rng = np.random.default_rng(7)
    field = PrimeField(p)
    for x, y in _inputs(p, request):
        with monkeypatch.context() as m:
            # no target is a subspace representation: every space is flat
            m.setattr(Representation, "is_subspace_rep", lambda rep: False)
            flat, ends_y = _eager_hom_basis(x, y), _eager_hom_basis(y, y)
            ends_x = _eager_hom_basis(x, x)
            k = flat.dim
            g = ends_y.element(rng.integers(0, p, size=ends_y.dim))
            f = ends_x.element(rng.integers(0, p, size=ends_x.dim))
            coeffs = _random_coeffs(field, k, 3, rng)
            head = Matrix(field, np.eye(k, dtype=np.int64)[:, : k - 1])
            targets = [flat.element(c) for c in coeffs.a.T]
            ops = [
                lambda s, ends: s.postcomposed(g),
                lambda s, ends: s.precomposed(f),
                lambda s, ends: s.combinations(coeffs),
                lambda s, ends: s.composites(ends),
                lambda s, ends: HomSpace.joined(x, y, [s, s]),
            ]
            wants = [op(flat, ends_y) for op in ops]
            want_coeffs, flat_combos = flat.coefficients(targets), flat.combinations(coeffs)
            # the last basis map lies outside the span of the others
            assert not k or flat.combinations(head).coefficients([flat.basis[-1]]) is None
        # the flat combinations, held as their `*` block like a fresh space
        flat_combos = HomSpace.from_flat(x, y, flat_combos.star_block())
        # a space that has been lifted computes exactly as a fresh one
        lifted = hom_basis(x, y)
        lifted.basis
        for star in (hom_basis(x, y), lifted):
            for op, want in zip(ops, wants):
                got = op(star, hom_basis(y, y))
                _same(got.star_block().a, want.star_block().a)
                _same(got.basis_matrix().a, want.basis_matrix().a)
            coords = rng.integers(0, p, size=k)
            assert star.element(coords) == flat.element(coords)
            for given in (targets, star.combinations(coeffs), flat_combos):
                _same(star.coefficients(given).a, want_coeffs.a)
            assert not k or star.combinations(head).coefficients([flat.basis[-1]]) is None


@pytest.mark.parametrize("p", [2, 3, 2**31 - 1])
def test_element_lifts_only_its_one_column(p, request, monkeypatch):
    """Into a subspace representation, `element` lifts the one `*` column
    of its combination, not the whole space, and gets the combination."""
    rng = np.random.default_rng(5)
    blocks = []
    real_lift = posetrep._lift
    monkeypatch.setattr(posetrep, "_lift", lambda *args: blocks.append(args[2]) or real_lift(*args))
    checked = 0
    for x, y in _inputs(p, request):
        homs = hom_basis(x, y)
        if not homs.dim:
            continue
        coords = rng.integers(0, p, size=homs.dim)
        got = homs.element(coords)
        assert [b.shape[1] for b in blocks] == [1] * _lifts(x, y)
        want = Morphism.zero(x, y)
        for c, h in zip(coords, homs.basis):
            want = want + h.scale(c)
        assert got == want
        checked += _lifts(x, y)
        blocks.clear()
    assert checked > 5


@pytest.mark.parametrize("p", [2, 3, 2**31 - 1])
def test_building_star_spaces_reads_no_flat_size(p, request, monkeypatch):
    """A star-form space is held as the `*` block it is given: solving,
    composing, combining, cutting and joining call `_flat_size` zero
    times (only a lift asks whether there is more to fill)."""
    rng = np.random.default_rng(9)
    sizes = []
    real_size = posetrep._flat_size
    monkeypatch.setattr(posetrep, "_flat_size", lambda *args: sizes.append(args) or real_size(*args))
    for x, y in _inputs(p, request)[::3]:
        ends_x, ends_y = hom_basis(x, x), hom_basis(y, y)
        g = ends_y.element(rng.integers(0, p, size=ends_y.dim))
        f = ends_x.element(rng.integers(0, p, size=ends_x.dim))
        sizes.clear()
        homs = hom_basis(x, y)
        assert not sizes
        coeffs = _random_coeffs(x.field, homs.dim, 2, rng)
        built = [
            homs.postcomposed(g),
            homs.precomposed(f),
            homs.composites(ends_y),
            homs.combinations(coeffs),
            homs.pivots(),
            homs.reduced(),
            homs.take([0] * homs.dim),
            HomSpace.joined(x, y, [homs, homs]),
            ends_y.composites(ends_y).reduced(),
        ]
        homs.coefficients(built[3])
        homs.relations(), homs.matrix([1] * homs.dim), homs.is_zero()
        assert all(space.target.is_subspace_rep() for space in built)
        assert not sizes


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


def test_matrix_and_from_matrices_read_each_other_in_both_forms(catalog_p2):
    """`matrix` is the `*` component of a map into a subspace
    representation and the block-diagonal total matrix of a map into any
    other, and `from_matrices` reads either back as the same map, also
    between representations of different dimension vectors."""
    algebra, quiver = catalog_p2.algebra, catalog_p2.quiver
    rng = np.random.default_rng(5)
    caps = {"1": 2, "2": 3, "3": 3, "*": 3}
    samples = (random_representation(quiver, algebra, caps, rng) for _ in range(60))
    reps = list(catalog_p2.objects[::4]) + [w for w in samples if not w.is_subspace_rep()][:3]
    forms = {True: 0, False: 0}
    for x in reps:
        for y in reps:
            homs = hom_basis(x, y)
            if not homs.dim:
                continue
            coords = rng.integers(0, 2, size=homs.dim)
            h, m, star = homs.element(coords), homs.matrix(coords), y.is_subspace_rep()
            _same(m.a, (h.components[STAR] if star else h.total_matrix()).a)
            assert HomSpace.from_matrices(x, y, [m]).basis == (h,)
            forms[star] += 1
    assert forms[True] > 10 and forms[False] > 10


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
            ends_y = hom_basis(y, y)
            ops = (
                lambda: star.postcomposed(g),
                lambda: star.precomposed(f),
                lambda: star.combinations(coeffs),
                lambda: star.composites(ends_y),
            )
            for op in ops:
                calls.clear()
                got = op().star_block().a
                # one product, and the `*` block is what it returned
                assert len(calls) == 1
                assert calls[0].size == got.size
                assert sorted(calls[0].ravel()) == sorted(got.ravel())
                checked += 1
            # the lift is two products per poset point, and after it every
            # product is still one product at `*`
            calls.clear()
            star.basis_matrix()
            assert len(calls) == 2 * len(x.quiver.poset.points) * _lifts(x, y)
            for op in ops:
                calls.clear()
                derived = op()
                assert len(calls) == 1
            # what it derives lifts on its own read
            calls.clear()
            derived.basis_matrix()
            assert len(calls) == 2 * len(x.quiver.poset.points) * _lifts(x, y)
    assert checked > 50


def _chase_counting(x, catalog, monkeypatch, read):
    """`decompose_full(x)` and its number of `_matmul_mod` calls outside
    `_lift`.  With `read`, every space the chase's hom cache holds has its
    `basis` read after each split, as the content digest of a traced run
    reads them (it also solves the entries not yet read)."""
    counted, lifting = [0], [0]

    def lift(*args, real=posetrep._lift):
        lifting[0] += 1
        try:
            return real(*args)
        finally:
            lifting[0] -= 1

    def matmul(*args):
        counted[0] += not lifting[0]
        return _matmul_mod(*args)

    def restrict(cache, f, q, real=birkhoff._HomCache.restrict):
        real(cache, f, q)
        for entries in (cache.forward, cache.backward) if read else ():
            for entry in filter(None, dict.values(entries)):
                entry[0].basis

    with monkeypatch.context() as m:
        m.setattr(posetrep, "_lift", lift)
        m.setattr(posetrep, "_matmul_mod", matmul)
        m.setattr(birkhoff, "_matmul_mod", matmul)
        m.setattr(birkhoff._HomCache, "restrict", restrict)
        d = birkhoff.decompose_full(x, catalog)
    return d, counted[0]


@pytest.mark.parametrize("p", [2, 3])
def test_reading_the_hom_cache_changes_no_chase_product(p, request, monkeypatch):
    """A read of `basis` fills a memo and nothing else: the chase gives
    the same certificate and maps, with the same products, whether or
    not every cached space was lifted after each split."""
    catalog = request.getfixturevalue(f"catalog_p{p}")
    for x in _chase_inputs(catalog):
        plain, plain_calls = _chase_counting(x, catalog, monkeypatch, read=False)
        read, read_calls = _chase_counting(x, catalog, monkeypatch, read=True)
        assert read.certificate == plain.certificate
        for got, want in zip(read.summands, plain.summands, strict=True):
            assert got.inclusion == want.inclusion and got.projection == want.projection
        assert read_calls == plain_calls

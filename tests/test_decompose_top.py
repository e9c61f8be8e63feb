"""`birkhoff.decompose_top`: the summands read off the tops of Hom(Z, x).

It must find the chase's and the idempotent split's classes, pass
`Decomposition.check()`, and raise `InternalContractViolation` or fail
`check()` on a catalog whose left maps or objects are wrong, rather than
give a wrong answer.
"""

from functools import lru_cache

import numpy as np
import pytest

from subrep import birkhoff
from subrep.artheory import Catalog, build_catalog
from subrep.birkhoff import decompose_full, decompose_top, from_invariant_subspaces
from subrep.decomp import block_counts, fits_in, indecompose, iso_class_multiset
from subrep.errors import InternalContractViolation
from subrep.ffmat import Matrix, PrimeField
from subrep.lambdamod import LambdaAlgebra, LambdaModule
from subrep.posetrep import (
    STAR,
    Poset,
    QuiverStar,
    Representation,
    direct_sum,
    end_algebra,
    subspace_representation,
)
from subrep.examples import example_quiver
from subrep.sampling import (
    random_representation,
    random_subspace_config,
    random_subspace_representation,
)

from oracles import chase_class_multiset, reference_block_counts
from test_birkhoff import _chase_inputs


def _assert_same_classes(x, catalog):
    top = decompose_top(x, catalog)
    assert top.check()
    assert top.object is x
    picked = top.certificate["classes"]
    assert all(s.rep is catalog.objects[z] for s, z in zip(top.summands, picked))
    classes = chase_class_multiset(top)
    assert classes == chase_class_multiset(decompose_full(x, catalog))
    assert classes == iso_class_multiset(indecompose(x), catalog.objects)


@pytest.mark.parametrize("p", [2, 3])
def test_decompose_top_finds_the_classes_of_the_chase_and_of_idempotents(p, request):
    catalog = request.getfixturevalue(f"catalog_p{p}")
    for x in _chase_inputs(catalog):
        _assert_same_classes(x, catalog)


@lru_cache(maxsize=None)
def _one_point_catalog(p, n):
    return build_catalog(QuiverStar(Poset(["1"], [])), LambdaAlgebra(PrimeField(p), n))


def _one_point_inputs(p, n):
    # S(n): one subspace of a k[T]/T^n-module
    catalog = _one_point_catalog(p, n)
    rng = np.random.default_rng(10 * p + n)
    caps = {"1": 2 * n, STAR: 3 * n}
    return [random_subspace_representation(catalog.quiver, catalog.algebra, caps, rng) for _ in range(6)]


@pytest.mark.parametrize("p,n", [(p, n) for p in (2, 3) for n in (3, 4)])
def test_decompose_top_on_one_point_catalogs(p, n):
    catalog = _one_point_catalog(p, n)
    for x in _one_point_inputs(p, n):
        _assert_same_classes(x, catalog)


def _catalog_like(catalog, objects, left_maps):
    """A catalog over the same quiver and algebra with the given objects
    and left maps, unverified."""
    out = Catalog(catalog.quiver, catalog.algebra)
    for obj in objects:
        out.add(obj)
    out.left_maps = dict(left_maps)
    return out


def _refused(x, catalog) -> bool:
    try:
        return not decompose_top(x, catalog).check()
    except InternalContractViolation:
        return True


def test_decompose_top_refuses_a_left_map_with_a_lift_dropped(catalog_p2):
    # without the lift Z -> W, the irreducible map itself leaves the
    # computed radical of Hom(Z, W), so x = W + Z gets one pick too many
    objs = catalog_p2.objects
    cases = 0
    for z, (lifts, parts) in catalog_p2.left_maps.items():
        for k in range(len(parts)):
            dropped = (lifts[:k] + lifts[k + 1 :], parts[:k] + parts[k + 1 :])
            bad = _catalog_like(catalog_p2, objs, {**catalog_p2.left_maps, z: dropped})
            x = direct_sum([objs[parts[k]], objs[z]]).rep
            assert _refused(x, bad), (z, k)
            cases += 1
    assert cases == sum(len(parts) for _, parts in catalog_p2.left_maps.values()) > 0


def test_decompose_top_refuses_a_catalog_with_an_object_removed(catalog_p2):
    objs = catalog_p2.objects
    for gone in range(len(objs)):
        keep = [z for z in range(len(objs)) if z != gone]
        index = {z: i for i, z in enumerate(keep)}
        left_maps = {}
        for z in keep:
            lifts, parts = catalog_p2.left_maps[z]
            kept = [(h, index[w]) for h, w in zip(lifts, parts) if w != gone]
            left_maps[index[z]] = (tuple(h for h, _ in kept), tuple(w for _, w in kept))
        bad = _catalog_like(catalog_p2, [objs[z] for z in keep], left_maps)
        assert _refused(objs[gone], bad), gone


def test_decompose_top_refuses_a_catalog_with_an_object_listed_twice(catalog_p2):
    objs = catalog_p2.objects
    for twice in range(len(objs)):
        left_maps = {**catalog_p2.left_maps, len(objs): catalog_p2.left_maps[twice]}
        bad = _catalog_like(catalog_p2, objs + [objs[twice]], left_maps)
        assert _refused(objs[twice], bad), twice


def test_decompose_top_raises_when_phi_is_singular(catalog_p2, monkeypatch):
    # each pick repeated in place of the next: the dimensions still add up,
    # but Phi_* is singular, which the certificate refuses
    from subrep import posetrep

    real = posetrep.HomSpace.independent_of

    def repeated(self, prefix):
        picks = real(self, prefix)
        return picks[:1] * len(picks)

    monkeypatch.setattr(posetrep.HomSpace, "independent_of", repeated)
    objs = catalog_p2.objects
    for z in range(len(objs)):
        x = direct_sum([objs[z], objs[z]]).rep
        with pytest.raises(InternalContractViolation, match="rank"):
            decompose_top(x, catalog_p2)


def test_decompose_top_with_phi_inverse_transposed_fails_check(catalog_p2, catalog_p3, monkeypatch):
    real_span_frame = birkhoff.span_frame

    def transposed(m):
        pivots, u = real_span_frame(m)
        return pivots, u.transpose()

    monkeypatch.setattr(birkhoff, "span_frame", transposed)
    caught = 0
    for catalog in (catalog_p2, catalog_p3):
        for x in _chase_inputs(catalog):
            d = decompose_top(x, catalog)
            phi = np.hstack([np.zeros((x.dim(STAR), 0), dtype=np.int64)] + [
                s.inclusion.components[STAR].a for s in d.summands
            ])
            inverse = real_span_frame(Matrix(x.field, phi))[1]
            # a symmetric inverse is its own transpose, and only then
            if inverse != inverse.transpose():
                assert not d.check()
                caught += 1
    assert caught >= 20


def test_decompose_top_raises_on_an_object_with_end_mod_radical_not_k():
    # four lines of F_4^2, as subspaces of F_2^4 (n = 1): F_4 e1, F_4 e2,
    # F_4 (e1 + e2) and F_4 (e1 + w e2), w^2 = w + 1.  End = F_4, a field
    # of dimension 2, so rad(Z, Z) = 0 whatever the left map says and every
    # map Z -> Z but 0 is an isomorphism: two picks for one copy of Z
    f2 = PrimeField(2)
    algebra = LambdaAlgebra(f2, 1)
    quiver = QuiverStar(Poset(["1", "2", "3", "4"], []))
    lines = {
        "1": [[1, 0, 0, 0], [0, 1, 0, 0]],
        "2": [[0, 0, 1, 0], [0, 0, 0, 1]],
        "3": [[1, 0, 1, 0], [0, 1, 0, 1]],
        "4": [[1, 0, 0, 1], [0, 1, 1, 1]],
    }
    spans = {v: Matrix(f2, np.array(cols).T) for v, cols in lines.items()}
    z, _ = subspace_representation(quiver, LambdaModule.free(algebra, 4), spans)
    assert z.is_subspace_rep() and end_algebra(z).dim == 2
    catalog = Catalog(quiver, algebra)
    catalog.add(z)
    catalog.left_maps[0] = ((), ())
    with pytest.raises(InternalContractViolation):
        decompose_top(z, catalog)


def test_decompose_top_solves_hom_spaces_only_from_objects_that_fit(catalog_p2, monkeypatch):
    # no catalog object fits in the zero representation, so nothing is
    # solved; into one object Z, Hom is solved from the objects that fit
    # in Z and from the parts of their left maps, each once
    calls, real = [], birkhoff.hom_basis

    def counting_hom_basis(source, target):
        calls.append(source)
        return real(source, target)

    monkeypatch.setattr(birkhoff, "hom_basis", counting_hom_basis)
    zero = Representation.zero(catalog_p2.quiver, catalog_p2.algebra)
    d = decompose_top(zero, catalog_p2)
    assert d.summands == [] and d.check()
    assert d.certificate == {"method": "top", "classes": [], "picks": []}
    assert calls == []
    objs = catalog_p2.objects
    by_dimension = by_counts = 0
    for z, x in enumerate(objs):
        calls.clear()
        assert decompose_top(x, catalog_p2).certificate["classes"] == [z]
        fits = [w for w, obj in enumerate(objs) if fits_in(obj, x)]
        assert z in fits
        solved = [next(w for w, obj in enumerate(objs) if obj is source) for source in calls]
        assert len(set(solved)) == len(solved)
        parts = set(fits).union(*(catalog_p2.left_maps[w][1] for w in fits))
        assert set(fits) <= set(solved) <= parts
        # one that does not fit is solved only as a part of the left map of
        # an object that fits and has maps into x
        candidates = [w for w in fits if real(objs[w], x).dim]
        assert all(
            w in fits or any(w in catalog_p2.left_maps[c][1] for c in candidates)
            for w in solved
        )
        by_dimension += sum(_by_dimension(obj, x) for obj in objs)
        by_counts += len(fits)
    # the block counts are sharper than the dimensions
    assert by_counts < by_dimension


def test_block_counts_match_the_jordan_types(catalog_p2, catalog_p3):
    # every catalog object, S(1)-S(4) at p = 2 and 3, and random
    # representations, by subspaces or not, up to p = 2^31 - 1
    reps = catalog_p2.objects + catalog_p3.objects
    for p in (2, 3):
        for n in (1, 2, 3, 4):
            reps += _one_point_catalog(p, n).objects
    rng = np.random.default_rng(44)
    caps = {"1": 2, "2": 3, "3": 3, STAR: 5}
    for p in (2, 3, 2**31 - 1):
        algebra = LambdaAlgebra(PrimeField(p), 2)
        for _ in range(10):
            reps.append(random_subspace_representation(example_quiver(), algebra, caps, rng))
        reps.append(random_representation(example_quiver(), algebra, caps, rng))
    assert any(not x.is_subspace_rep() for x in reps)
    for x in reps:
        want = reference_block_counts(x)
        assert block_counts(x) == want
        assert block_counts(x) is block_counts(x) and x._block_counts is not None
        assert len(want) == x.algebra.n * (len(x.quiver.vertices) + len(x.quiver.poset.points))


@pytest.mark.parametrize("p", [2, 3])
def test_block_counts_add_on_direct_sums(p, request):
    objs = request.getfixturevalue(f"catalog_p{p}").objects
    for a in objs:
        for b in objs[::3]:
            ab = direct_sum([a, b]).rep
            assert block_counts(ab) == tuple(i + j for i, j in zip(block_counts(a), block_counts(b)))
            assert fits_in(a, ab) and fits_in(b, ab)


def test_block_counts_of_the_zero_representation(catalog_p2):
    zero = Representation.zero(catalog_p2.quiver, catalog_p2.algebra)
    assert block_counts(zero) == (0,) * 14
    assert not any(fits_in(obj, zero) for obj in catalog_p2.objects)


def _by_dimension(z, x):
    """No dimension of z exceeds x's, which `fits_in` implies."""
    return all(z.dim(v) <= x.dim(v) for v in x.quiver.vertices)


def _assert_same_with_the_dimension_filter(x, catalog, monkeypatch):
    filtered = decompose_top(x, catalog)
    with monkeypatch.context() as m:
        m.setattr(birkhoff, "fits_in", _by_dimension)
        unfiltered = decompose_top(x, catalog)
    assert filtered.certificate == unfiltered.certificate
    assert len(filtered.summands) == len(unfiltered.summands)
    for s, t in zip(filtered.summands, unfiltered.summands):
        assert s.rep is t.rep
        assert s.inclusion == t.inclusion and s.projection == t.projection


@pytest.mark.parametrize("p", [2, 3])
def test_block_count_filter_gives_the_dimension_filter_decomposition(p, request, monkeypatch):
    catalog = request.getfixturevalue(f"catalog_p{p}")
    for x in _chase_inputs(catalog):
        _assert_same_with_the_dimension_filter(x, catalog, monkeypatch)
    for n in (3, 4):
        for x in _one_point_inputs(p, n):
            _assert_same_with_the_dimension_filter(x, _one_point_catalog(p, n), monkeypatch)


def test_block_count_filter_gives_the_same_reports(catalog_p2, monkeypatch):
    rng = np.random.default_rng(44)
    for _ in range(200):
        x = from_invariant_subspaces(random_subspace_config(PrimeField(2), 10, rng))
        _assert_same_with_the_dimension_filter(x, catalog_p2, monkeypatch)

"""The two exact memos of the idempotent split and its classification.

`decomp._crt_interpolants` factors each minimal polynomial once, keyed on
its field and coefficients, and keeps its CRT interpolants; the cached
results must equal `ffmat.factor` and interpolants computed afresh, and
`indecompose` must hand out the same bytes with a cold and a warm cache.

`Catalog.find_isomorphic` remembers each hit on the object it matched,
keyed on the query's exact content: a repeated query runs no isomorphism
test, also from a fresh `Catalog` over the same objects, and a miss is
never remembered.
"""

import json
import os

import numpy as np
import pytest

import subrep.artheory as artheory
from subrep.artheory import Catalog
from subrep.decomp import _crt_interpolants, indecompose
from subrep.examples import example_quiver
from subrep.ffmat import Matrix, Poly, PrimeField, factor, min_poly, poly_xgcd
from subrep.lambdamod import LambdaAlgebra
from subrep.posetrep import STAR, Representation, direct_sum, end_algebra
from subrep.repfile import load_catalog, serialize_representation
from subrep.sampling import random_representation, random_subspace_representation

QUIVER = example_quiver()
CAPS = {"1": 2, "2": 3, "3": 3, STAR: 4}
PRIMES = (2, 3, 2**31 - 1)
FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def _inputs(p, seed):
    algebra = LambdaAlgebra(PrimeField(p), 2)
    rng = np.random.default_rng(seed)
    subs = [random_subspace_representation(QUIVER, algebra, CAPS, rng) for _ in range(3)]
    general = [random_representation(QUIVER, algebra, CAPS, rng) for _ in range(2)]
    return subs + general + [direct_sum(subs[:2]).rep]


def _fresh_interpolants(mp, factors):
    """u_k q_k mod mp for each factor q_k^m_k, q_k = mp / q_k^m_k."""
    out = []
    for irr, mult in factors:
        pk = Poly.one(mp.field)
        for _ in range(mult):
            pk = pk * irr
        qk = mp // pk
        _, u, _ = poly_xgcd(qk, pk)
        out.append((u * qk) % mp)
    return tuple(out)


@pytest.mark.parametrize("p", PRIMES)
def test_cached_factors_and_interpolants_match_a_fresh_computation(p):
    """On the minimal polynomials of random endomorphisms, and on one
    made to have three coprime factors, the cache returns `factor` and
    the interpolants computed afresh, and their values on theta are
    orthogonal idempotents summing to the identity."""
    field = PrimeField(p)
    rng = np.random.default_rng(p % 1000)
    thetas = [Matrix(field, np.diag([0, 1, 1, 2 % p, 3 % p]))]
    for x in _inputs(p, 7):
        end = end_algebra(x)
        thetas += [end.element(rng.integers(0, p, size=end.dim)).total_matrix() for _ in range(3)]
    split = 0
    for theta in thetas:
        mp = min_poly(theta)
        factors, interpolants = _crt_interpolants(field, mp.coeffs)
        assert factors == tuple(factor(mp))
        if len(factors) < 2:
            assert interpolants is None
            continue
        split += 1
        assert interpolants == _fresh_interpolants(mp, factors)
        # a second lookup is a hit on the same tuple
        hits = _crt_interpolants.cache_info().hits
        assert _crt_interpolants(field, mp.coeffs)[1] is interpolants
        assert _crt_interpolants.cache_info().hits == hits + 1
        values = [e.eval_matrix(theta) for e in interpolants]
        total = Matrix.zeros(field, theta.rows, theta.cols)
        for i, e in enumerate(values):
            total = total + e
            for j, f in enumerate(values):
                assert e @ f == (e if i == j else Matrix.zeros(field, e.rows, e.cols))
        assert total == Matrix.identity(field, theta.rows)
    assert split >= 2


def _bytes(d):
    return (
        json.dumps(d.certificate, default=str),
        [serialize_representation(s.rep) for s in d.summands],
        [s.inclusion.flatten().tobytes() for s in d.summands],
        [s.projection.flatten().tobytes() for s in d.summands],
    )


@pytest.mark.parametrize("p", PRIMES)
def test_indecompose_is_the_same_with_a_cold_and_a_warm_cache(p):
    hits = 0
    for x in _inputs(p, 5):
        for seed in (0, 3):
            _crt_interpolants.cache_clear()
            cold = _bytes(indecompose(x, seed=seed))
            warm = _bytes(indecompose(x, seed=seed))
            hits += _crt_interpolants.cache_info().hits
            assert cold == warm
    assert hits


# -- the catalog's remembered hits ---------------------------------------


@pytest.fixture
def counted(monkeypatch):
    """Counts the isomorphism tests `Catalog.find_isomorphic` runs."""
    calls = []
    real = artheory.indecomposables_isomorphic

    def counting(x, y):
        calls.append((x, y))
        return real(x, y)

    monkeypatch.setattr(artheory, "indecomposables_isomorphic", counting)
    return calls


def _objects():
    """The catalog_p2 objects, loaded afresh: no remembered hits."""
    return load_catalog(os.path.join(FIXTURES, "catalog_p2")).objects


def _summands(objects, picks, seed=0):
    """The summands the idempotent split cuts out of a direct sum of the
    picked objects: isomorphic to them, and in other bases."""
    return [s.rep for s in indecompose(direct_sum([objects[i] for i in picks]).rep, seed).summands]


def _catalog(objects):
    catalog = Catalog(objects[0].quiver, objects[0].algebra)
    for obj in objects:
        catalog.add(obj)
    return catalog


def _copy(x):
    return Representation(x.quiver, x.algebra, x.spaces, x.arrow_maps)


def test_a_repeated_query_runs_no_isomorphism_test(counted):
    objects = _objects()
    catalog = _catalog(objects)
    queries = _summands(objects, (8, 22, 24))
    first = [catalog.find_isomorphic(q) for q in queries]
    assert sorted(first) == [8, 22, 24]
    assert len(counted) == 3
    # the same content again, as the same objects and as fresh copies
    assert [catalog.find_isomorphic(q) for q in queries] == first
    assert [catalog.find_isomorphic(_copy(q)) for q in queries] == first
    assert len(counted) == 3


def test_a_miss_is_not_remembered(counted):
    objects = _objects()
    catalog = _catalog(objects[:20])
    query = _copy(_summands(objects, (22,))[0])
    assert catalog.find_isomorphic(query) is None
    assert catalog.find_isomorphic(query) is None
    idx = catalog.add(objects[22])
    assert catalog.find_isomorphic(query) == idx
    assert catalog.find_isomorphic(_copy(query)) == idx
    # the query after the miss ran the isomorphism test
    assert [(x, y) for x, y in counted if x is objects[22] and y is query] == [(objects[22], query)]


def test_a_hit_is_remembered_by_the_object_for_a_fresh_catalog(counted):
    """`iso_class_multiset` builds a new `Catalog` over the same reference
    objects on every call: a hit made through one is kept by the object."""
    objects = _objects()
    queries = _summands(objects, (0, 9, 9))
    first = [_catalog(objects).find_isomorphic(q) for q in queries]
    assert sorted(first) == [0, 9, 9]
    tests = len(counted)
    assert tests
    assert [_catalog(objects).find_isomorphic(_copy(q)) for q in queries] == first
    assert len(counted) == tests

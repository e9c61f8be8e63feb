"""The chase searches for a retraction only on maps injective at `*`.

A split mono is a mono, and a map that is not injective at `*` is not
mono, so `split_off_summand` sends such a map straight to the
factorization through the left almost split map without reading (and so
without solving) its backward hom space.  The loop that searches for a
retraction at every step is kept here as `_ref_split_off_summand`.
`decompose_full` must give byte for byte the same certificate,
inclusions and projections with either loop: on the chase inputs of
`test_birkhoff.py` at p = 2 and 3, on every object of both shipped
catalogs (each chases to its own index) and on S(3) at p = 2^31 - 1.
The gated chase solves the same forward spaces and no backward space
the reference does not, and fewer of them on each of the seeded sums.
"""

import json

import pytest

from subrep import birkhoff
from subrep.artheory import build_catalog
from subrep.birkhoff import (
    ChaseTrace,
    _factor_through_left,
    _find_retraction,
    _HomCache,
    decompose_full,
)
from subrep.errors import ChaseExhaustedError
from subrep.ffmat import PrimeField
from subrep.lambdamod import LambdaAlgebra
from subrep.posetrep import Morphism, Poset, QuiverStar, direct_sum
from test_birkhoff import _chase_inputs


def _ref_split_off_summand(x, catalog, hom_cache):
    """`split_off_summand` with a retraction search on every map."""
    cache = hom_cache
    bound = 2 ** catalog.max_length() - 1
    trace = ChaseTrace()
    start = next(
        z for z in range(len(catalog.objects)) if catalog.projective[z] and cache.forward[z].dim
    )
    for h in cache.forward[start].basis:
        q = _find_retraction(h, cache.backward[start])
        if q is not None:
            trace.steps.append({"object": start, "split": True})
            trace.outcome = "split"
            return start, h, q, trace
    current, f = start, cache.forward[start].basis[0]
    composite = Morphism.identity(catalog.objects[start])
    while True:
        if len(trace.steps) > bound:
            raise ChaseExhaustedError(f"chase exceeded the step bound {bound}")
        q = _find_retraction(f, cache.backward[current])
        if q is not None:
            trace.steps.append({"object": current, "split": True})
            trace.outcome = "split"
            return current, f, q, trace
        lifts, parts = catalog.left_maps[current]
        comps = _factor_through_left(f, lifts, parts, cache)
        chosen = None
        for w_pos in sorted(range(len(parts)), key=lambda t: parts[t]):
            extended = lifts[w_pos] @ composite
            if not comps[w_pos].is_zero() and not (comps[w_pos] @ extended).is_zero():
                chosen = (parts[w_pos], comps[w_pos], extended)
                break
        trace.steps.append({"object": current, "split": False, "next": chosen[0]})
        current, f, composite = chosen


def _chase(x, catalog, monkeypatch, reference):
    """decompose_full(x) with the library's or the reference loop, as
    (bytes of the result, forward indices solved, backward indices
    solved)."""
    forward, backward = [], []

    def counted(space, solved):
        def solve(z, real=space.solve):
            solved.append(z)
            return real(z)

        space.solve = solve

    class Counting(_HomCache):
        def __init__(self, catalog, x):
            super().__init__(catalog, x)
            counted(self.forward, forward)
            counted(self.backward, backward)

    with monkeypatch.context() as m:
        m.setattr(birkhoff, "_HomCache", Counting)
        if reference:
            m.setattr(birkhoff, "split_off_summand", _ref_split_off_summand)
        d = decompose_full(x, catalog)
    maps = [(s.inclusion.flatten(), s.projection.flatten()) for s in d.summands]
    out = json.dumps(d.certificate, sort_keys=True).encode() + b"".join(
        a.tobytes() + str(a.shape).encode() for pair in maps for a in pair
    )
    return out, sorted(forward), sorted(backward)


def _assert_matches_reference(x, catalog, monkeypatch):
    """Returns how many backward spaces the gated chase and the reference
    solve."""
    got, forward, backward = _chase(x, catalog, monkeypatch, reference=False)
    want, ref_forward, ref_backward = _chase(x, catalog, monkeypatch, reference=True)
    assert got == want
    assert forward == ref_forward
    assert set(backward) <= set(ref_backward)
    return len(backward), len(ref_backward)


@pytest.mark.parametrize("p", [2, 3])
def test_chase_inputs_match_reference(p, request, monkeypatch):
    catalog = request.getfixturevalue(f"catalog_p{p}")
    for x in _chase_inputs(catalog):
        solved, ref_solved = _assert_matches_reference(x, catalog, monkeypatch)
        # each nonzero input here is a sum of two or more indecomposables
        assert solved < ref_solved or not x.total_dim()


@pytest.mark.parametrize("p", [2, 3])
def test_catalog_objects_chase_to_themselves(p, request, monkeypatch):
    catalog = request.getfixturevalue(f"catalog_p{p}")
    for z, x in enumerate(catalog.objects):
        _assert_matches_reference(x, catalog, monkeypatch)
        assert decompose_full(x, catalog).certificate["classes"] == [z]


def test_s3_at_a_large_prime_matches_reference(monkeypatch):
    algebra = LambdaAlgebra(PrimeField(2**31 - 1), 3)
    catalog = build_catalog(QuiverStar(Poset(["1"], [])), algebra)
    objs = catalog.objects
    for x in list(objs) + [direct_sum(objs).rep, direct_sum([objs[-1], objs[0], objs[-1]]).rep]:
        _assert_matches_reference(x, catalog, monkeypatch)

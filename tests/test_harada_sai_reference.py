"""`harada_sai_check` reads the radical filtration of a catalog off its
left almost split maps.  The reference here composes through every
middle object instead: rad^(k+1)(i, j) = sum_w rad(w, j) . rad^k(i, w),
each layer reduced by `column_space_basis`.  The two must give the same
table of total dimensions on S(1)-S(4) and on the example poset at
n = 1, at p = 2 and 3, and the shipped fixtures keep their pinned
table.  Left maps mutated on a copy must change the table or fail."""

import copy
from functools import lru_cache

import pytest

from subrep.artheory import build_catalog
from subrep.birkhoff import harada_sai_check
from subrep.examples import example_quiver
from subrep.ffmat import PrimeField, column_space_basis
from subrep.lambdamod import LambdaAlgebra
from subrep.posetrep import HomSpace, Morphism, Poset, QuiverStar

from oracles import flat_span

# both fixtures: rad^19 != 0 and rad^20 = 0, 42 arrows in rad/rad^2
FIXTURE_LAYERS = [
    899, 857, 797, 723, 637, 549, 459, 375, 295, 227,
    169, 123, 85, 57, 37, 23, 13, 7, 3, 1, 0,
]
S4_LAYERS = [
    1186, 1152, 1104, 1042, 968, 888, 800, 710, 621, 537, 454, 378, 309, 249,
    195, 151, 114, 84, 59, 41, 27, 17, 10, 6, 3, 1, 0,
]


def _reference_layers(catalog):
    """Total dimensions of rad^1, rad^2, ... through every middle object,
    up to the first zero layer (or past the Harada-Sai bound)."""
    objs = range(len(catalog))
    rad = {(i, j): catalog.rad_space(i, j) for i in objs for j in objs}
    layer = dict(rad)
    layers = []
    while True:
        layers.append(sum(homs.dim for homs in layer.values()))
        if not layers[-1] or len(layers) >= 2 ** catalog.max_length():
            return layers
        grown = {}
        for i in objs:
            for j in objs:
                x, y = catalog.objects[i], catalog.objects[j]
                spans = [
                    layer[i, w].composites(rad[w, j])
                    for w in objs
                    if layer[i, w].dim and rad[w, j].dim
                ]
                flat = column_space_basis(HomSpace.joined(x, y, spans).basis_matrix())
                grown[i, j] = flat_span(x, y, flat)
        layer = grown


@lru_cache(maxsize=None)
def _catalog(p, n, poset):
    quiver = QuiverStar(Poset(["1"], [])) if poset == "one" else example_quiver()
    return build_catalog(quiver, LambdaAlgebra(PrimeField(p), n))


CASES = [(p, n, "one") for p in (2, 3) for n in (1, 2, 3, 4)]
CASES += [(p, 1, "example") for p in (2, 3)]


@pytest.mark.parametrize("p,n,poset", CASES)
def test_table_matches_reference(p, n, poset):
    catalog = _catalog(p, n, poset)
    counterexample, (witness, wlen), layers = harada_sai_check(catalog)
    assert counterexample is None
    assert layers == _reference_layers(catalog)
    assert layers[-1] == 0 and all(layers[:-1])
    # layer 1 less layer 2 counts the arrows of the quiver
    arrows = sum(len(parts) for _, parts in catalog.left_maps.values())
    assert layers[0] - (layers[1] if len(layers) > 1 else 0) == arrows
    m = catalog.max_length()
    assert wlen == min(len(layers) - 1, m - 1)
    assert witness is not None and not witness.is_zero()
    if (poset, n) == ("one", 4):
        assert (layers, m) == (S4_LAYERS, 10)


@pytest.mark.parametrize("p", [2, 3])
def test_fixture_tables_pinned(p, request):
    catalog = request.getfixturevalue(f"catalog_p{p}")
    counterexample, (witness, wlen), layers = harada_sai_check(catalog)
    assert counterexample is None
    assert layers == FIXTURE_LAYERS
    assert wlen == 10 and not witness.is_zero()


def _with_left_map(catalog, z, left):
    mutated = copy.copy(catalog)
    mutated.left_maps = dict(catalog.left_maps)
    mutated.left_maps[z] = left
    return mutated


@pytest.mark.parametrize("p", [2, 3])
def test_dropped_lift_changes_table(p, request):
    catalog = request.getfixturevalue(f"catalog_p{p}")
    z = next(z for z, (_, parts) in catalog.left_maps.items() if len(parts) > 1)
    lifts, parts = catalog.left_maps[z]
    _, _, layers = harada_sai_check(_with_left_map(catalog, z, (lifts[:-1], parts[:-1])))
    assert layers != FIXTURE_LAYERS
    # the left maps of the catalog itself are untouched
    assert harada_sai_check(catalog)[2] == FIXTURE_LAYERS


@pytest.mark.parametrize("p", [2, 3])
def test_identity_left_map_is_a_counterexample(p, request):
    catalog = request.getfixturevalue(f"catalog_p{p}")
    for z in (0, 12, 24):
        ident = Morphism.identity(catalog.objects[z])
        mutated = _with_left_map(catalog, z, ((ident,), (z,)))
        counterexample, _, layers = harada_sai_check(mutated)
        # rad(z, -) composed with the identity forever: a nonzero layer
        # repeats the one before it, long before the bound 2^11 - 1
        assert counterexample is not None and not counterexample.is_zero()
        assert layers[-1] == layers[-2] > 0
        assert len(layers) <= len(FIXTURE_LAYERS)


def test_nonzero_layer_at_the_bound_is_a_counterexample(catalog_p2):
    # with m taken as 2 the bound is 3, and rad^3 of the fixture is not 0
    short = copy.copy(catalog_p2)
    short.max_length = lambda: 2
    counterexample, (witness, wlen), layers = harada_sai_check(short)
    assert counterexample is not None and not counterexample.is_zero()
    assert layers == FIXTURE_LAYERS[:3]
    assert wlen == 1 and not witness.is_zero()

"""S(n) as an external oracle: subspace representations of the one-point
poset over k[T]/T^n form the invariant-subspace category of Ringel and
Schmidmeier ("Invariant subspaces of nilpotent linear operators I", J.
reine angew. Math. 614, 2008), with 2, 5, 10 and 20 indecomposables for
n = 1, ..., 4 over any field."""

from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from subrep.artheory import build_catalog, verify_ar_sequence
from subrep.birkhoff import decompose_full
from subrep.cli import main
from subrep.decomp import indecompose, iso_class_multiset
from subrep.ffmat import PrimeField
from subrep.lambdamod import LambdaAlgebra
from subrep.posetrep import Poset, QuiverStar
from subrep.sampling import random_subspace_representation

from oracles import chase_class_multiset, tau_orbits

ONE_POSET = Path(__file__).resolve().parent.parent / "fixtures" / "posets" / "one.poset"
COUNTS = {1: 2, 2: 5, 3: 10, 4: 20}
CASES = [(2, n) for n in (1, 2, 3, 4)] + [(3, n) for n in (1, 2, 3)]


@lru_cache(maxsize=None)
def s_catalog(p, n):
    return build_catalog(QuiverStar(Poset(["1"], [])), LambdaAlgebra(PrimeField(p), n))


@pytest.mark.parametrize("p,n", CASES)
def test_object_count(p, n):
    assert len(s_catalog(p, n)) == COUNTS[n]


@pytest.mark.parametrize("p,n", CASES)
def test_projectives_and_meshes(p, n):
    catalog = s_catalog(p, n)
    assert sum(catalog.projective) == 2
    assert len(catalog.meshes) == COUNTS[n] - 2
    assert all(seq.verified for seq in catalog.meshes.values())


@pytest.mark.parametrize("p,n", CASES)
def test_meshes_pass_lifting_tests(p, n, lifting_tests):
    catalog = s_catalog(p, n)
    rng = np.random.default_rng(n)
    for seq in catalog.meshes.values():
        assert verify_ar_sequence(seq, lifting_tests(catalog, rng))


# tau_S^6 = 1 on S(n) (Ringel and Schmidmeier, "The Auslander-Reiten
# translation in submodule categories", Trans. AMS 360, 2008): objects per
# tau-orbit length, none of them on a chain that ends
TAU_ORBITS = {2: {3: 3}, 3: {2: 2, 6: 6}, 4: {3: 6, 6: 12}}


@pytest.mark.parametrize("p,n", [(p, n) for p in (2, 3) for n in (2, 3, 4)])
def test_tau_has_order_dividing_6(p, n):
    periodic, ends = tau_orbits(s_catalog(p, n))
    assert periodic == TAU_ORBITS[n] and ends == []
    assert all(6 % length == 0 for length in periodic)


def test_catalog_command_on_poset_fixture(capsys):
    argv = ["catalog", "--poset", str(ONE_POSET), "--field", "3", "--nilpotency", "3"]
    assert main(argv) == 0
    table = capsys.readouterr().out
    assert "objects\t10" in table
    assert "projectives\t2" in table
    assert "verified_meshes\t8" in table


@pytest.mark.parametrize("p,n", [(2, 3), (3, 3), (2, 4)])
def test_chase_agrees_with_idempotent_split(p, n):
    # criterion 6 on a poset the code was not written for
    catalog = s_catalog(p, n)
    rng = np.random.default_rng(100 * p + n)
    for _ in range(10):
        x = random_subspace_representation(
            catalog.quiver, catalog.algebra, {"1": 6, "*": 8}, rng
        )
        chase = decompose_full(x, catalog)
        assert chase.check()
        classes = chase_class_multiset(chase)
        assert None not in classes
        for seed in (0, 1):
            assert iso_class_multiset(indecompose(x, seed=seed), catalog.objects) == classes

import numpy as np
import pytest

from subrep.birkhoff import (
    SubspaceConfig,
    chase_class_multiset,
    decompose_full,
    from_invariant_subspaces,
    harada_sai_check,
    invariant_subspace_report,
    split_off_summand,
    subspace_data,
)
from subrep.decomp import indecompose, indecomposables_isomorphic, iso_class_multiset
from subrep.errors import NotInvariantError, NotNestedError
from subrep.examples import (
    all_free_representation,
    example_quiver,
    twisted_pair_representation,
)
from subrep.ffmat import Matrix, PrimeField
from subrep.lambdamod import LambdaAlgebra, LambdaModule
from subrep.posetrep import Representation, direct_sum
from subrep.sampling import random_subspace_config, random_subspace_representation

F2 = PrimeField(2)
L2 = LambdaAlgebra(F2, 2)


def test_split_projective_immediately(catalog_p2):
    m = all_free_representation(L2)
    idx, mono, retraction, trace = split_off_summand(m, catalog_p2)
    assert catalog_p2.projective[idx]
    assert len(trace.steps) == 1 and trace.steps[0]["split"]
    assert (retraction @ mono).is_zero() is False
    from subrep.posetrep import Morphism

    assert retraction @ mono == Morphism.identity(catalog_p2.objects[idx])


def test_split_m_plus_n_bounded(catalog_p2):
    m = all_free_representation(L2)
    n = twisted_pair_representation(L2)
    both = direct_sum([m, n]).rep
    bound = 2 ** catalog_p2.max_length() - 1
    idx, mono, retraction, trace = split_off_summand(both, catalog_p2)
    assert len(trace.steps) <= bound
    assert catalog_p2.find_isomorphic(catalog_p2.objects[idx]) == idx


def test_decompose_full_zero(catalog_p2):
    d = decompose_full(Representation.zero(example_quiver(), L2), catalog_p2)
    assert d.summands == [] and d.check()


def test_decompose_full_zero_solves_no_hom_space(catalog_p2, monkeypatch):
    # the hom cache is built at the first split, and a zero input has none
    from subrep import birkhoff

    calls = []

    def counting_hom_basis(source, target, real=birkhoff.hom_basis):
        calls.append((source, target))
        return real(source, target)

    monkeypatch.setattr(birkhoff, "hom_basis", counting_hom_basis)
    zero = Representation.zero(catalog_p2.quiver, catalog_p2.algebra)
    assert decompose_full(zero, catalog_p2).summands == []
    assert calls == []
    # the same counter sees the cache of a nonzero input
    decompose_full(all_free_representation(L2), catalog_p2)
    assert len(calls) == 2 * len(catalog_p2)


def test_decompose_full_multiset(catalog_p2):
    m = all_free_representation(L2)
    n = twisted_pair_representation(L2)
    x = direct_sum([n, n, m]).rep
    d = decompose_full(x, catalog_p2)
    assert d.check()
    mi = catalog_p2.find_isomorphic(m)
    ni = catalog_p2.find_isomorphic(n)
    assert chase_class_multiset(d) == tuple(sorted((mi, ni, ni)))


def test_decompose_full_agrees_with_idempotent_method(catalog_p2, catalog_p3):
    rng = np.random.default_rng(17)
    for catalog, p in ((catalog_p2, 2), (catalog_p3, 3)):
        algebra = LambdaAlgebra(PrimeField(p), 2)
        caps = {"1": 2, "2": 4, "3": 4, "*": 6}
        for _ in range(8):
            x = random_subspace_representation(example_quiver(), algebra, caps, rng)
            d_chase = decompose_full(x, catalog)
            assert d_chase.check()
            d_idem = indecompose(x, seed=23)
            assert chase_class_multiset(d_chase) == iso_class_multiset(
                d_idem, catalog.objects
            )


def test_chase_traces_within_bound(catalog_p2):
    rng = np.random.default_rng(19)
    bound = 2 ** catalog_p2.max_length() - 1
    caps = {"1": 3, "2": 5, "3": 5, "*": 7}
    for _ in range(10):
        x = random_subspace_representation(example_quiver(), L2, caps, rng)
        d = decompose_full(x, catalog_p2)
        for steps in d.certificate["traces"]:
            assert len(steps) <= bound


def test_from_invariant_subspaces_full():
    m = all_free_representation(L2)
    cfg = subspace_data(m)
    rep = from_invariant_subspaces(cfg)
    ok, _ = indecomposables_isomorphic(m, rep)
    assert ok


def test_from_invariant_subspaces_zero_subspaces(catalog_p2):
    v = LambdaModule(L2, Matrix.zeros(F2, 2, 2))
    empty = Matrix.zeros(F2, 2, 0)
    cfg = SubspaceConfig(v, empty, empty, empty)
    rep = from_invariant_subspaces(cfg)
    assert rep.dim_vector() == (0, 0, 0, 2)
    d = decompose_full(rep, catalog_p2)
    assert len(d.summands) == 2
    classes = chase_class_multiset(d)
    assert classes[0] == classes[1]  # two copies of the simple at the top


def test_not_nested_rejected():
    free2 = LambdaModule.free(L2, 2)
    # v1 = first generator's socle, v2 = second free summand: not nested
    v1 = Matrix(F2, [[0], [1], [0], [0]])
    v2 = Matrix(F2, [[0, 0], [0, 0], [1, 0], [0, 1]])
    v3 = Matrix.identity(F2, 4)
    cfg = SubspaceConfig(free2, v1, v2, v3)
    with pytest.raises(NotNestedError) as exc:
        from_invariant_subspaces(cfg)
    assert exc.value.which == 2


def test_not_invariant_rejected():
    free = LambdaModule.free(L2)
    # span{e} is not T-invariant in the free module
    v2 = Matrix(F2, [[1], [0]])
    cfg = SubspaceConfig(free, Matrix.zeros(F2, 2, 0), v2, Matrix.identity(F2, 2))
    with pytest.raises(NotInvariantError) as exc:
        from_invariant_subspaces(cfg)
    assert exc.value.which == 2
    assert exc.value.vector is not None


def test_subspace_roundtrip(catalog_p2):
    rng = np.random.default_rng(21)
    caps = {"1": 2, "2": 4, "3": 4, "*": 5}
    for _ in range(10):
        x = random_subspace_representation(example_quiver(), L2, caps, rng)
        rep = from_invariant_subspaces(subspace_data(x))
        from subrep.decomp import is_isomorphic

        ok, _ = is_isomorphic(x, rep)
        assert ok


def test_invariant_subspace_report_named(catalog_p2):
    m = all_free_representation(L2)
    rpt = invariant_subspace_report(subspace_data(m), catalog_p2)
    mi = catalog_p2.find_isomorphic(m)
    assert rpt.multiplicities == {mi: 1}
    assert rpt.compatible


def test_invariant_subspace_report_empty(catalog_p2):
    cfg = SubspaceConfig(
        LambdaModule.zero(L2),
        Matrix.zeros(F2, 0, 0),
        Matrix.zeros(F2, 0, 0),
        Matrix.zeros(F2, 0, 0),
    )
    rpt = invariant_subspace_report(cfg, catalog_p2)
    assert rpt.multiplicities == {} and rpt.compatible


def test_invariant_subspace_report_random(catalog_p2):
    rng = np.random.default_rng(22)
    for _ in range(25):
        cfg = random_subspace_config(F2, 8, rng)
        rpt = invariant_subspace_report(cfg, catalog_p2)
        assert rpt.compatible, rpt.details
        assert sum(rpt.multiplicities.values()) == len(rpt.decomposition.summands)


def test_harada_sai(catalog_p2):
    counterexample, (witness, wlen) = harada_sai_check(catalog_p2, samples=300, seed=5)
    assert counterexample is None
    assert witness is not None and not witness.is_zero()
    assert 1 <= wlen < catalog_p2.max_length()


def test_harada_sai_chain_length_one_nonzero(catalog_p2):
    # the bound is not vacuous below the threshold: some single radical
    # map is nonzero
    _, (witness, wlen) = harada_sai_check(catalog_p2, samples=1, seed=6)
    assert wlen >= 1


def test_hom_cache_attribute_contract(catalog_p2, monkeypatch):
    # the benchmark digests _HomCache.catalog/current/forward/backward and
    # HomSpace.source/target/basis; a rename must fail here
    from subrep import birkhoff
    from subrep.artheory import Catalog
    from subrep.posetrep import HomSpace, Morphism

    seen = []

    def check(cache):
        assert isinstance(cache.catalog, Catalog) and cache.catalog is catalog_p2
        assert isinstance(cache.current, Representation)
        indices = list(range(len(catalog_p2.objects)))
        assert sorted(cache.forward) == indices and sorted(cache.backward) == indices
        for z in indices:
            fwd, bwd = cache.forward[z], cache.backward[z]
            assert isinstance(fwd, HomSpace) and isinstance(bwd, HomSpace)
            assert fwd.source is catalog_p2.objects[z] and fwd.target is cache.current
            assert bwd.source is cache.current and bwd.target is catalog_p2.objects[z]
            for space in (fwd, bwd):
                assert isinstance(space.basis, tuple) and len(space.basis) == space.dim
                assert all(isinstance(h, Morphism) for h in space.basis)
                assert all(
                    h.source is space.source and h.target is space.target for h in space.basis
                )
        seen.append(cache.current)

    class Recording(birkhoff._HomCache):
        def __init__(self, catalog, x):
            super().__init__(catalog, x)
            check(self)

        def restrict(self, e, comp_incl, comp_proj, complement):
            super().restrict(e, comp_incl, comp_proj, complement)
            assert self.current is complement
            check(self)

    monkeypatch.setattr(birkhoff, "_HomCache", Recording)
    x = direct_sum([twisted_pair_representation(L2), all_free_representation(L2)]).rep
    d = decompose_full(x, catalog_p2)
    assert d.check()
    # one check after construction and one after each restrict, ending on zero
    assert len(seen) == len(d.summands) + 1
    assert seen[0] is x and seen[-1].total_dim() == 0

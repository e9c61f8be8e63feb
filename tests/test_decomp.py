import numpy as np

from subrep.decomp import (
    evaluation_iso_check,
    fingerprint,
    hom_image_span_check,
    indecompose,
    indecomposables_isomorphic,
    is_isomorphic,
    is_local,
    iso_class_multiset,
    radical,
)
from subrep.examples import (
    all_free_representation,
    example_quiver,
    twisted_pair_representation,
)
from subrep.ffmat import Matrix, PrimeField
from subrep.lambdamod import LambdaAlgebra, LambdaModule
from subrep.posetrep import (
    Morphism,
    Representation,
    direct_sum,
    end_algebra,
    hom_basis,
)
from subrep.sampling import (
    random_invertible,
    random_representation,
    random_subspace_representation,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
L2 = LambdaAlgebra(F2, 2)


def simple_at_star(algebra):
    q = example_quiver()
    zero = LambdaModule.zero(algebra)
    f = algebra.field
    return Representation(
        q,
        algebra,
        {"1": zero, "2": zero, "3": zero, "*": LambdaModule.simple(algebra)},
        {
            ("1", "2"): Matrix.zeros(f, 0, 0),
            ("1", "3"): Matrix.zeros(f, 0, 0),
            ("2", "*"): Matrix.zeros(f, 1, 0),
            ("3", "*"): Matrix.zeros(f, 1, 0),
        },
    )


def test_radical_of_field_is_zero():
    rep = simple_at_star(L2)
    rad = radical(end_algebra(rep))
    assert rad.quotient_dim == 1 and len(rad.radical_basis) == 0


def test_radical_of_all_free():
    # End is the truncated polynomial algebra: radical is spanned by the
    # T-action endomorphism, dimension 1
    m = all_free_representation(L2)
    rad = radical(end_algebra(m))
    assert len(rad.radical_basis) == 1
    gen = rad.radical_basis[0]
    assert (gen @ gen).is_zero() and not gen.is_zero()


def test_radical_of_matrix_algebra_is_zero():
    m = simple_at_star(L2)
    two = direct_sum([m, m]).rep
    e = end_algebra(two)
    assert e.dim == 4  # 2x2 matrices over F_2
    rad = radical(e)
    assert rad.quotient_dim == 4 and not rad.radical_basis


def test_radical_of_mixed_sum_contains_cross_maps():
    m = all_free_representation(L2)
    n = twisted_pair_representation(L2)
    both = direct_sum([m, n]).rep
    e = end_algebra(both)
    rad = radical(e)
    hom_mn = hom_basis(m, n).dim
    hom_nm = hom_basis(n, m).dim
    # rad = cross maps in both directions + radicals of the two ends
    assert e.dim - rad.quotient_dim >= hom_mn + hom_nm
    assert rad.quotient_dim == 2  # one copy of F_2 per summand
    # J^(dim) = 0 witnessed inside the verifier; double-check squares here
    for b in rad.radical_basis:
        power = b
        for _ in range(e.dim):
            power = power @ b
        assert power.is_zero()


def test_locality():
    assert is_local(end_algebra(all_free_representation(L2)))
    assert is_local(end_algebra(twisted_pair_representation(L2)))
    assert is_local(end_algebra(simple_at_star(L2)))
    m = all_free_representation(L2)
    assert not is_local(end_algebra(direct_sum([m, m]).rep))


def test_indecompose_single():
    m = all_free_representation(L2)
    d = indecompose(m, seed=1)
    assert len(d.summands) == 1
    assert d.summands[0].inclusion == Morphism.identity(m)
    assert d.check()


def test_indecompose_zero():
    d = indecompose(Representation.zero(example_quiver(), L2), seed=0)
    assert d.summands == [] and d.check()


def test_indecompose_m_plus_n():
    m = all_free_representation(L2)
    n = twisted_pair_representation(L2)
    both = direct_sum([m, n]).rep
    d = indecompose(both, seed=3)
    assert len(d.summands) == 2
    assert d.check()
    dims = sorted(s.rep.dim_vector() for s in d.summands)
    assert dims == [(1, 3, 3, 4), (2, 2, 2, 2)]
    for s in d.summands:
        ref = m if s.rep.dim_vector() == (2, 2, 2, 2) else n
        ok, witness = indecomposables_isomorphic(ref, s.rep)
        assert ok and witness.is_valid()


def test_indecompose_double():
    m = all_free_representation(L2)
    both = direct_sum([m, m]).rep
    d = indecompose(both, seed=4)
    assert len(d.summands) == 2
    assert d.check()
    for s in d.summands:
        ok, _ = indecomposables_isomorphic(m, s.rep)
        assert ok


def test_is_isomorphic_basic():
    m = all_free_representation(L2)
    n = twisted_pair_representation(L2)
    ok, witness = is_isomorphic(m, m)
    assert ok and witness.is_valid()
    assert all(
        witness.components[v].rank() == m.dim(v) for v in m.quiver.vertices
    )
    ok, _ = is_isomorphic(m, n)
    assert not ok


def test_is_isomorphic_after_base_change():
    rng = np.random.default_rng(5)
    n = twisted_pair_representation(L2)
    for _ in range(200):
        comps = {}
        gs = {v: random_invertible(F2, n.dim(v), rng) for v in n.quiver.vertices}
        spaces = {}
        maps = {}
        from subrep.ffmat import solve

        for v in n.quiver.vertices:
            ginv = solve(gs[v], Matrix.identity(F2, n.dim(v)))
            spaces[v] = LambdaModule(L2, gs[v] @ n.spaces[v].t @ ginv)
        for (s, t) in n.quiver.arrows:
            ginv = solve(gs[s], Matrix.identity(F2, n.dim(s)))
            maps[(s, t)] = gs[t] @ n.arrow_maps[(s, t)] @ ginv
        twisted = Representation(n.quiver, L2, spaces, maps)
        assert twisted.validate() == []
        ok, witness = indecomposables_isomorphic(n, twisted)
        assert ok
        assert witness.is_valid()


def test_krull_schmidt_seed_stability():
    rng = np.random.default_rng(6)
    caps = {"1": 2, "2": 3, "3": 3, "*": 4}
    reference = [all_free_representation(L2), twisted_pair_representation(L2)]
    for _ in range(15):
        x = random_subspace_representation(example_quiver(), L2, caps, rng)
        base = None
        for seed in range(5):
            d = indecompose(x, seed=seed)
            assert d.check()
            dims = d.dim_multiset()
            if base is None:
                base = dims
            else:
                assert dims == base


def test_indecompose_random_reps_with_validation():
    rng = np.random.default_rng(7)
    for p in (2, 3):
        algebra = LambdaAlgebra(PrimeField(p), 2)
        for _ in range(10):
            x = random_representation(
                example_quiver(), algebra, {"1": 3, "2": 3, "3": 3, "*": 3}, rng
            )
            d = indecompose(x, seed=11)
            assert d.check()
            assert sum(s.rep.total_dim() for s in d.summands) == x.total_dim()
            for s in d.summands:
                assert is_local(end_algebra(s.rep))


def test_fingerprint_distinguishes():
    m = all_free_representation(L2)
    n = twisted_pair_representation(L2)
    assert fingerprint(m) != fingerprint(n)
    assert fingerprint(m) == fingerprint(all_free_representation(L2))


def test_iso_class_multiset():
    m = all_free_representation(L2)
    n = twisted_pair_representation(L2)
    both = direct_sum([m, n, n]).rep
    d = indecompose(both, seed=8)
    classes = iso_class_multiset(d, [m, n])
    assert classes == (0, 1, 1)


def test_hom_image_span_check():
    m = all_free_representation(L2)
    n = twisted_pair_representation(L2)
    zero = Representation.zero(example_quiver(), L2)
    assert hom_image_span_check([m, n], zero) is None
    assert hom_image_span_check([m, n], m) is None
    assert hom_image_span_check([m, n], direct_sum([m, n]).rep) is None
    # a single summand cannot cover the other type's top space
    assert hom_image_span_check([], n) is not None


def test_evaluation_iso_check_identity_cases():
    m = all_free_representation(L2)
    n = twisted_pair_representation(L2)
    total = direct_sum([m, n]).rep
    assert evaluation_iso_check([m, n], total) is None
    assert (
        evaluation_iso_check([m, n], Representation.zero(example_quiver(), L2))
        is None
    )
    assert evaluation_iso_check([m, n], m) is None
    assert evaluation_iso_check([m, n], direct_sum([m, m, n]).rep) is None


def test_fingerprint_is_memoized():
    m = twisted_pair_representation(L2)
    assert m._fingerprint is None
    first = fingerprint(m)
    assert m._fingerprint is first and fingerprint(m) is first
    # a fresh copy of the same data computes the same value
    copy = Representation(m.quiver, m.algebra, m.spaces, m.arrow_maps)
    assert fingerprint(copy) == first

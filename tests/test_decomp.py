import numpy as np
import pytest

from subrep.decomp import (
    fingerprint,
    indecompose,
    indecomposables_isomorphic,
    is_local,
    iso_class_multiset,
    quotient_is_division_ring,
    radical,
)
from subrep.errors import InternalContractViolation
from subrep.examples import example_quiver
from subrep.ffmat import Matrix, PrimeField, independent_columns
from subrep.lambdamod import LambdaAlgebra, LambdaModule
from subrep.posetrep import (
    HomSpace,
    Morphism,
    Poset,
    QuiverStar,
    Representation,
    direct_sum,
    end_algebra,
    hom_basis,
    subspace_representation,
)
from subrep.sampling import (
    random_invertible,
    random_representation,
    random_subspace_representation,
)

from oracles import (
    all_free_representation,
    dim_multiset,
    evaluation_iso_check,
    hom_image_span_check,
    is_isomorphic,
    twisted_pair_representation,
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
    assert rad.quotient_dim == 1 and len(rad.radical.basis) == 0


def test_radical_of_all_free():
    # End is the truncated polynomial algebra: radical is spanned by the
    # T-action endomorphism, dimension 1
    m = all_free_representation(L2)
    rad = radical(end_algebra(m))
    assert len(rad.radical.basis) == 1
    gen = rad.radical.basis[0]
    assert (gen @ gen).is_zero() and not gen.is_zero()


def test_quotient_coords_rejects_a_map_outside_end():
    # End(all free) = Lambda, spanned by 1 and T at every vertex; a matrix
    # unit at every vertex is no combination of them
    m = all_free_representation(L2)
    rad = radical(end_algebra(m))
    assert rad.quotient_coords(HomSpace(m, m, [Morphism.identity(m)])).any()
    unit = Matrix(F2, [[1, 0], [0, 0]])
    outside = Morphism(m, m, {v: unit for v in m.quiver.vertices})
    with pytest.raises(InternalContractViolation):
        rad.quotient_coords(HomSpace(m, m, [outside]))


def test_radical_of_matrix_algebra_is_zero():
    m = simple_at_star(L2)
    two = direct_sum([m, m]).rep
    e = end_algebra(two)
    assert e.dim == 4  # 2x2 matrices over F_2
    rad = radical(e)
    assert rad.quotient_dim == 4 and not rad.radical.basis


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
    for b in rad.radical.basis:
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
            dims = dim_multiset(d)
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


def test_end_and_radical_are_solved_once_per_object(monkeypatch):
    # End(x) and rad End(x) are memoized on x: repeated end_algebra,
    # end_radical, is_local and catalog lookups solve Hom(x, x) and the
    # radical once
    from subrep import decomp, posetrep
    from subrep.artheory import Catalog
    from subrep.decomp import end_radical

    x = twisted_pair_representation(L2)
    copy = Representation(x.quiver, x.algebra, x.spaces, x.arrow_maps)
    calls = {"hom(x, x)": 0, "radical": 0}

    def counting_hom_basis(source, target, real=posetrep.hom_basis):
        calls["hom(x, x)"] += source is x and target is x
        return real(source, target)

    def counting_radical(end, real=decomp.radical):
        calls["radical"] += 1
        return real(end)

    for module in (posetrep, decomp):
        monkeypatch.setattr(module, "hom_basis", counting_hom_basis)
    monkeypatch.setattr(decomp, "radical", counting_radical)
    catalog = Catalog(x.quiver, x.algebra)
    catalog.add(x)
    for _ in range(3):
        assert end_algebra(x) is end_algebra(x)
        assert end_radical(x) is end_radical(x)
        assert is_local(end_algebra(x))
        assert catalog.find_isomorphic(copy) == 0
        assert catalog.hom(0, 0) is end_algebra(x).space
    assert calls == {"hom(x, x)": 1, "radical": 1}
    assert end_radical(x).algebra is end_algebra(x)


# locality certificate: the Frobenius-kernel test against enumeration


def _division_ring_by_enumeration(end, rad):
    """Reference: End/J is a division ring iff every nonzero combination
    of a complement of J in End is invertible (p^q combinations)."""
    field = end.rep.field
    p, q = field.p, rad.quotient_dim
    if q == 0:
        return False
    comp = independent_columns(rad.coeff_matrix, Matrix.identity(field, end.dim))
    ops = [end.basis[i].total_matrix() for i in comp]
    n = ops[0].rows
    for code in range(1, p**q):
        acc = Matrix.zeros(field, n, n)
        rest = code
        for op in ops:
            rest, digit = divmod(rest, p)
            acc = acc + op.scale(digit)
        if acc.rank() < n:
            return False
    return True


def test_division_ring_test_matches_enumeration():
    rng = np.random.default_rng(21)
    seen = {True: 0, False: 0}
    for p in (2, 3):
        algebra = LambdaAlgebra(PrimeField(p), 2)
        caps = {"1": 2, "2": 2, "3": 2, "*": 3}
        samples = [random_representation(example_quiver(), algebra, caps, rng) for _ in range(12)]
        samples += [
            random_subspace_representation(example_quiver(), algebra, caps, rng)
            for _ in range(12)
        ]
        # decomposable ones: End/J is a product of at least two factors
        samples += [direct_sum(samples[i : i + 2]).rep for i in range(0, 8, 2)]
        for x in samples:
            end = end_algebra(x)
            if end.dim == 0:
                continue
            rad = radical(end)
            if p**rad.quotient_dim > 2**12:
                continue
            expected = _division_ring_by_enumeration(end, rad)
            assert quotient_is_division_ring(end, rad) == expected
            seen[expected] += 1
    assert seen[True] and seen[False]


FOUR_POINTS = QuiverStar(Poset(("1", "2", "3", "4"), []))


def quadratic_field_configuration(field):
    """Four subspaces of k^2 + k^2 over the four-point antichain: the two
    summands, the graph of 1 and the graph of the companion matrix C of
    an irreducible quadratic, so End = k[C] = F_{p^2}."""
    p = field.p
    if p == 2:
        c = [[0, 1], [1, 1]]  # x^2 + x + 1
    else:
        r = next(r for r in range(2, p) if pow(r, (p - 1) // 2, p) == p - 1)
        c = [[0, r], [1, 0]]  # x^2 - r, r a non-residue
    eye, zero = np.eye(2, dtype=np.int64), np.zeros((2, 2), dtype=np.int64)
    spans = {
        "1": Matrix(field, np.vstack([eye, zero])),
        "2": Matrix(field, np.vstack([zero, eye])),
        "3": Matrix(field, np.vstack([eye, eye])),
        "4": Matrix(field, np.vstack([eye, np.array(c)])),
    }
    algebra = LambdaAlgebra(field, 1)
    top = LambdaModule(algebra, Matrix.zeros(field, 4, 4))
    return subspace_representation(FOUR_POINTS, top, spans)[0]


@pytest.mark.parametrize("p", [2, 3, 5, 2**31 - 1])
def test_quadratic_field_end_is_a_division_ring(p):
    x = quadratic_field_configuration(PrimeField(p))
    end = end_algebra(x)
    rad = radical(end)
    assert end.dim == 2 and rad.quotient_dim == 2
    assert quotient_is_division_ring(end, rad)
    # End/J = M_2(F_{p^2}) for the double: not commutative
    double = end_algebra(direct_sum([x, x]).rep)
    double_rad = radical(double)
    assert double_rad.quotient_dim == 8
    assert not quotient_is_division_ring(double, double_rad)
    if p**8 <= 2**16:
        assert _division_ring_by_enumeration(end, rad)
        assert not _division_ring_by_enumeration(double, double_rad)


# p = 2^31 - 1 and nilpotency 3

P31_L2 = LambdaAlgebra(PrimeField(2**31 - 1), 2)


@pytest.mark.parametrize(
    "parts",
    [("free",), ("twisted",), ("free", "twisted")],
)
def test_indecompose_large_prime(parts):
    make = {"free": all_free_representation, "twisted": twisted_pair_representation}
    pieces = [make[name](P31_L2) for name in parts]
    x = direct_sum(pieces).rep
    d = indecompose(x, seed=0)
    assert d.check()
    assert dim_multiset(d) == tuple(sorted(z.dim_vector() for z in pieces))
    leaves = [step for step in d.certificate["trace"] if "leaf" in step]
    assert len(leaves) == len(pieces)
    for s in d.summands:
        assert is_local(end_algebra(s.rep))
    for s, z in zip(sorted(d.summands, key=lambda s: s.rep.dim_vector()),
                    sorted(pieces, key=lambda z: z.dim_vector())):
        assert indecomposables_isomorphic(z, s.rep)[0]


def test_indecompose_nilpotency_3():
    rng = np.random.default_rng(23)
    for p in (2, 3):
        algebra = LambdaAlgebra(PrimeField(p), 3)
        caps = {"1": 2, "2": 3, "3": 3, "*": 4}
        for _ in range(6):
            x = random_subspace_representation(example_quiver(), algebra, caps, rng)
            d = indecompose(x, seed=2)
            assert d.check()
            assert sum(s.rep.total_dim() for s in d.summands) == x.total_dim()
            for s in d.summands:
                assert is_local(end_algebra(s.rep))
            assert dim_multiset(indecompose(x, seed=5)) == dim_multiset(d)

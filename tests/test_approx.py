import numpy as np
import pytest

from subrep.approx import (
    ApproxResult,
    left_approx,
    mimo_k,
    right_approx,
)
from subrep.errors import UnknownVertexError
from subrep.examples import example_quiver
from subrep.ffmat import Matrix, PrimeField, column_space_basis
from subrep.lambdamod import LambdaAlgebra, LambdaModule, socle
from subrep.posetrep import (
    Morphism,
    Poset,
    QuiverStar,
    Representation,
    hom_basis,
)
from subrep.sampling import random_representation, random_subspace_representation

from oracles import all_free_representation, verify_left_approx, verify_right_approx

F2 = PrimeField(2)
L2 = LambdaAlgebra(F2, 2)
ONE_POINT = QuiverStar(Poset(("1",), []))


def one_point_rep(x1: LambdaModule, xstar: LambdaModule, arrow: Matrix):
    return Representation(
        ONE_POINT, L2, {"1": x1, "*": xstar}, {("1", "*"): arrow}
    )


def test_left_approx_on_subspace_rep_is_iso():
    m = all_free_representation(L2)
    res = left_approx(m)
    assert res.kind == "left"
    assert res.approx.dim_vector() == m.dim_vector()
    assert res.approx.is_subspace_rep()
    for v in m.quiver.vertices:
        assert res.structure_map.components[v].rank() == m.dim(v)


def test_left_approx_image_of_t():
    # one-point poset, arrow = multiplication by T on the free module:
    # the image is the socle, so the approximation has dims (1, 2)
    free = LambdaModule.free(L2)
    x = one_point_rep(free, free, free.t)
    res = left_approx(x)
    assert res.approx.dim("1") == 1
    assert res.approx.dim("*") == 2
    expected = column_space_basis(free.t)
    assert socle(free) == expected  # image of T = socle for one free block
    assert res.structure_map.is_valid()


def test_left_approx_images_along_composites():
    # vertex images are im(map to top) and composites of arrows
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = random_representation(
            example_quiver(), L2, {"1": 2, "2": 3, "3": 3, "*": 4}, rng
        )
        res = left_approx(x)
        assert res.approx.is_subspace_rep()
        assert res.structure_map.is_valid()
        for v in x.quiver.vertices:
            assert res.approx.dim(v) == x.composite_map(v, "*").rank()


def test_mimo_forces_mono_on_one_point():
    # x = (k -> 0): kernel is everything, envelope is free of rank 1,
    # result is (k -> Lambda) with the socle embedding
    x = one_point_rep(
        LambdaModule.simple(L2), LambdaModule.zero(L2), Matrix.zeros(F2, 0, 1)
    )
    res = mimo_k(x, "1")
    assert res.approx.dim_vector() == (1, 2)
    arrow = res.approx.arrow_maps[("1", "*")]
    assert arrow.rank() == 1
    assert (res.approx.spaces["*"].t @ arrow).is_zero()  # lands in the socle
    assert res.structure_map.is_valid()


def test_mimo_identity_when_already_mono():
    m = all_free_representation(L2)
    for k in ("1", "2", "3"):
        res = mimo_k(m, k)
        assert res.approx.dim_vector() == m.dim_vector()
        assert res.structure_map == Morphism.identity(m)


def test_mimo_unknown_vertex():
    m = all_free_representation(L2)
    with pytest.raises(UnknownVertexError):
        mimo_k(m, "7")
    with pytest.raises(UnknownVertexError):
        mimo_k(m, "*")


def test_mimo_3_shape_matches_worked_example():
    # on the example quiver, adjoining at vertex 3 augments vertices 2 and *
    # by the envelope of ker(X_3 -> X_*) and leaves 1, 3 unchanged
    rng = np.random.default_rng(6)
    for _ in range(20):
        x = random_representation(
            example_quiver(), L2, {"1": 2, "2": 2, "3": 2, "*": 2}, rng
        )
        ker_dim = x.dim("3") - x.composite_map("3", "*").rank()
        from subrep.ffmat import kernel_basis
        from subrep.lambdamod import injective_envelope, submodule

        kb = kernel_basis(x.composite_map("3", "*"))
        ker_mod, _ = submodule(x.spaces["3"], kb)
        env, _ = injective_envelope(ker_mod)
        res = mimo_k(x, "3")
        assert res.approx.dim("1") == x.dim("1")
        assert res.approx.dim("3") == x.dim("3")
        assert res.approx.dim("2") == x.dim("2") + env.dim
        assert res.approx.dim("*") == x.dim("*") + env.dim
        assert res.approx.validate() == []
        # the arrow out of vertex 3 becomes injective
        a = res.approx.arrow_maps[("3", "*")]
        assert a.rank() == a.cols


def test_right_approx_fixes_subspace_reps():
    m = all_free_representation(L2)
    res = right_approx(m)
    assert res.approx.dim_vector() == m.dim_vector()
    assert res.structure_map == Morphism.identity(m)


def test_right_approx_produces_subspace_rep():
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = random_representation(
            example_quiver(), L2, {"1": 4, "2": 4, "3": 4, "*": 4}, rng
        )
        res = right_approx(x)
        assert res.approx.validate() == []
        assert res.approx.is_subspace_rep()
        assert res.structure_map.is_valid()


def test_right_approx_idempotent():
    rng = np.random.default_rng(8)
    for _ in range(20):
        x = random_representation(
            example_quiver(), L2, {"1": 3, "2": 3, "3": 3, "*": 3}, rng
        )
        r1 = right_approx(x).approx
        r2 = right_approx(r1)
        assert r2.approx.dim_vector() == r1.dim_vector()
        assert r2.structure_map == Morphism.identity(r1)


def test_mimo_mono_progression_in_extension_order():
    # applying the adjunction from the top label downwards makes the arrow
    # out of the processed vertex injective at each stage
    rng = np.random.default_rng(9)
    for _ in range(20):
        x = random_representation(
            example_quiver(), L2, {"1": 3, "2": 3, "3": 3, "*": 3}, rng
        )
        current = x
        for k in reversed(x.quiver.poset.points):
            current = mimo_k(current, k).approx
            comp = current.composite_map(k, "*")
            assert comp.rank() == comp.cols


def test_mimo_projection_retracts_coordinate_inclusion():
    # the projection restricted to the original coordinates is the identity:
    # composing the structure map with the coordinate inclusion of x gives 1_x
    rng = np.random.default_rng(13)
    for _ in range(15):
        x = random_representation(
            example_quiver(), L2, {"1": 3, "2": 3, "3": 3, "*": 3}, rng
        )
        for k in ("1", "2", "3"):
            res = mimo_k(x, k)
            incl_components = {}
            for v in x.quiver.vertices:
                d = x.dim(v)
                da = res.approx.dim(v)
                block = np.zeros((da, d), dtype=np.int64)
                block[:d, :] = np.eye(d, dtype=np.int64)
                incl_components[v] = Matrix(F2, block)
            incl = Morphism(x, res.approx, incl_components)
            assert res.structure_map @ incl == Morphism.identity(x)


def test_factorization_right():
    rng = np.random.default_rng(10)
    caps = {"1": 2, "2": 3, "3": 3, "*": 4}
    tests = [
        random_subspace_representation(example_quiver(), L2, caps, rng)
        for _ in range(6)
    ] + [all_free_representation(L2)]
    for _ in range(10):
        x = random_representation(
            example_quiver(), L2, {"1": 3, "2": 3, "3": 3, "*": 3}, rng
        )
        res = right_approx(x)
        assert verify_right_approx(res, tests) is None


def test_factorization_right_vacuous_and_identity():
    m = all_free_representation(L2)
    res = right_approx(m)
    zero = Representation.zero(m.quiver, L2)
    assert verify_right_approx(res, [zero]) is None
    assert verify_right_approx(res, [m]) is None


def test_factorization_failure_names_test_and_map():
    # a zero structure map factors nothing: the first basis map fails
    m = all_free_representation(L2)
    right = ApproxResult(m, Morphism.zero(m, m), "right")
    test, h = verify_right_approx(right, [m])
    assert test is m and h == hom_basis(m, m).basis[0]
    left = ApproxResult(m, Morphism.zero(m, m), "left")
    test, h = verify_left_approx(left, [m])
    assert test is m and h == hom_basis(m, m).basis[0]


def test_factorization_left():
    rng = np.random.default_rng(11)
    caps = {"1": 2, "2": 3, "3": 3, "*": 4}
    tests = [
        random_subspace_representation(example_quiver(), L2, caps, rng)
        for _ in range(6)
    ]
    for _ in range(10):
        x = random_representation(
            example_quiver(), L2, {"1": 3, "2": 3, "3": 3, "*": 3}, rng
        )
        res = left_approx(x)
        assert verify_left_approx(res, tests) is None


def test_different_linear_extension_gives_isomorphic_result():
    # swap the roles of vertices 2 and 3 via the mirrored poset; the right
    # approximations have equal dimension data vertex-by-vertex under the
    # relabeling (full isomorphism is checked in the decomposition tests)
    rng = np.random.default_rng(12)
    poset_a = Poset(("1", "2", "3"), [("1", "2"), ("1", "3")])
    poset_b = Poset(("1", "3", "2"), [("1", "2"), ("1", "3")])
    qa, qb = QuiverStar(poset_a), QuiverStar(poset_b)
    for _ in range(10):
        x = random_representation(qa, L2, {"1": 3, "2": 3, "3": 3, "*": 3}, rng)
        y = Representation(qb, L2, x.spaces, x.arrow_maps)
        ra = right_approx(x).approx
        rb = right_approx(y).approx
        assert sorted(ra.dim_vector()) == sorted(rb.dim_vector())
        assert ra.total_dim() == rb.total_dim()


def test_right_approx_nilpotency_3():
    rng = np.random.default_rng(24)
    for p in (2, 3):
        algebra = LambdaAlgebra(PrimeField(p), 3)
        quiver = example_quiver()
        tests = [
            random_subspace_representation(quiver, algebra, {"1": 2, "2": 3, "3": 3, "*": 4}, rng)
            for _ in range(4)
        ] + [all_free_representation(algebra)]
        for _ in range(5):
            x = random_representation(quiver, algebra, {"1": 3, "2": 3, "3": 3, "*": 3}, rng)
            res = right_approx(x)
            assert res.approx.validate() == []
            assert res.approx.is_subspace_rep()
            assert res.structure_map.is_valid()
            assert verify_right_approx(res, tests) is None
            assert right_approx(res.approx).structure_map == Morphism.identity(res.approx)

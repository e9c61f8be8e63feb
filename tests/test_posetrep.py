from collections import Counter
from itertools import chain, combinations
from pathlib import Path

import numpy as np
import pytest

from subrep.errors import NoSolutionError, NotARetractionError, NotComparableError
from subrep.examples import example_quiver
from subrep.ffmat import CoordinateSolver, Matrix, PrimeField
from subrep.lambdamod import LambdaAlgebra, LambdaModule, block_invariants
from subrep.posetrep import (
    STAR,
    HomSpace,
    Morphism,
    Poset,
    QuiverStar,
    Representation,
    direct_sum,
    end_algebra,
    hom_basis,
    image_subrep,
    kernel_subrep,
    quotient_rep,
    split_by_retraction,
    subrep_from_bases,
)
from subrep.repfile import parse_representation, read_text
from subrep.sampling import random_representation

from oracles import (
    all_free_representation,
    reference_closure,
    reference_poset,
    twisted_pair_representation,
    walked_path_problems,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

F2 = PrimeField(2)
F3 = PrimeField(3)
L2 = LambdaAlgebra(F2, 2)


def test_poset_closure_and_covers():
    p = Poset(("1", "2", "3"), [("1", "2"), ("1", "3")])
    assert p.leq("1", "1") and p.leq("1", "2") and not p.leq("2", "3")
    assert p.covers() == (("1", "2"), ("1", "3"))
    assert set(p.maximal_elements()) == {"2", "3"}


def test_poset_rejects_bad_orders():
    with pytest.raises(ValueError):
        Poset(("a", "b"), [("a", "b"), ("b", "a")])
    with pytest.raises(ValueError):
        Poset(("b", "a"), [("a", "b")])  # stored order not a linear extension
    with pytest.raises(ValueError):
        Poset(("*",), [])


@pytest.mark.parametrize(
    "relations, message",
    [
        ([("1", "2"), ("1", "9")], "relation 1<9 mentions unknown point '9'"),
        ([("9", "1")], "relation 9<1 mentions unknown point '9'"),
        ([("8", "9"), ("1", "7")], "relation 8<9 mentions unknown points '8' and '9'"),
        ([("9", "9")], "relation 9<9 mentions unknown point '9'"),
    ],
)
def test_poset_names_only_the_unknown_points(relations, message):
    with pytest.raises(ValueError) as got:
        Poset(("1", "2", "3"), relations)
    assert str(got.value) == message
    with pytest.raises(ValueError) as want:
        reference_poset(("1", "2", "3"), relations)
    assert str(want.value) == message


def _random_relations(rng):
    """Points and relations on 1-6 points: mostly increasing pairs, some
    decreasing ones (cycles and orders the points do not extend), and now
    and then an unknown point, the label '*' or a duplicate label."""
    n = int(rng.integers(1, 7))
    points = [str(i) for i in rng.permutation(10)[:n]]
    pairs = []
    for _ in range(int(rng.integers(0, 2 * n + 1))):
        i, j = sorted(rng.integers(0, n, size=2))
        pairs.append((points[j], points[i]) if rng.random() < 0.05 else (points[i], points[j]))
    odd = rng.random()
    if odd < 0.01:
        pairs.append((points[0], "x"))
    elif odd < 0.02:
        points.append("*")
    elif odd < 0.03:
        points.append(points[0])
    return points, pairs


def test_poset_matches_the_fixpoint_closure():
    """`Poset` closes its order in one pass over the points; the fixpoint
    loop of `oracles.reference_poset` gives the same order, covers,
    maximal elements and errors.  The reference names the antisymmetry
    pair in set order; `Poset` names the first pair (a, b) in point order
    with a <= b <= a in the reference closure."""
    rng = np.random.default_rng(40)
    built = rejected = 0
    for _ in range(4000):
        points, pairs = _random_relations(rng)
        try:
            want = reference_poset(points, pairs)
        except ValueError as exc:
            rejected += 1
            with pytest.raises(ValueError) as got:
                Poset(points, pairs)
            if str(exc).startswith("antisymmetry"):
                le = reference_closure({(x, x) for x in points} | set(pairs))
                a, b = next(
                    (a, b) for a in points for b in points if a != b and (a, b) in le and (b, a) in le
                )
                assert str(got.value) == f"antisymmetry fails on {a!r}, {b!r}"
            else:
                assert str(got.value) == str(exc)
            continue
        built += 1
        poset = Poset(points, pairs)
        assert (poset.le, poset.covers(), poset.maximal_elements()) == want
    assert built > 3000 and rejected > 500


def test_quiver_star_arrows():
    q = example_quiver()
    assert q.vertices == ("1", "2", "3", "*")
    assert set(q.arrows) == {("1", "2"), ("1", "3"), ("2", "*"), ("3", "*")}
    assert q.leq("1", "*") and q.leq("*", "*") and not q.leq("*", "1")


def test_chain_poset_quiver():
    q = QuiverStar(Poset(("a", "b"), [("a", "b")]))
    assert q.arrows == (("a", "b"), ("b", "*"))


def test_validate_zero_and_named():
    q = example_quiver()
    assert Representation.zero(q, L2).validate() == []
    m = all_free_representation(L2)
    assert m.validate() == []
    n = twisted_pair_representation(L2)
    assert n.validate() == []
    assert n.dim_vector() == (1, 3, 3, 4)
    assert block_invariants(n.spaces["*"]) == (2, 2)


def test_validate_reports_equivariance_failure():
    m = all_free_representation(L2)
    # break one t-matrix: identity is not nilpotent-compatible with arrows
    spaces = dict(m.spaces)
    spaces["2"] = LambdaModule(L2, Matrix.zeros(F2, 2, 2))
    broken = Representation(m.quiver, L2, spaces, m.arrow_maps)
    problems = broken.validate()
    assert problems and all("equivariant" in p for p in problems)


def test_validate_reports_commutativity_failure():
    n = twisted_pair_representation(L2)
    maps = dict(n.arrow_maps)
    # swap the (1,3) column for another equivariant choice that breaks
    # the square: Tf instead of Te+Tf - Tf... use zero map
    maps[("1", "3")] = Matrix.zeros(F2, 3, 1)
    broken = Representation(n.quiver, L2, n.spaces, maps)
    problems = broken.validate()
    assert any("commute" in p for p in problems)


def _scaled(x, arrows, c):
    """x with the matrices of `arrows` multiplied by c: shapes and
    T-equivariance survive, path commutativity may not."""
    maps = dict(x.arrow_maps)
    maps.update((a, x.arrow_maps[a].scale(c)) for a in arrows)
    return Representation(x.quiver, x.algebra, x.spaces, maps)


def _fixture_variants(p):
    """Every shipped object and mesh kernel at p with one or two arrows
    scaled by each c in F_p."""
    for path in sorted(FIXTURES.glob(f"catalog_p{p}/*.rep")):
        x = parse_representation(read_text(str(path)))
        arrows = x.quiver.arrows
        for chosen in [(a,) for a in arrows] + list(combinations(arrows, 2)):
            for c in range(p):
                yield _scaled(x, chosen, c)


# posets with parallel paths: the diamond, the crown, the claw, the Y and the M
OTHER_POSETS = (
    Poset(("1", "2", "3", "4"), [("1", "2"), ("1", "3"), ("2", "4"), ("3", "4")]),
    Poset(("1", "2", "3", "4"), [("1", "3"), ("1", "4"), ("2", "3"), ("2", "4")]),
    Poset(("1", "2", "3", "4"), [("1", "2"), ("1", "3"), ("1", "4")]),
    Poset(("1", "2", "3", "4"), [("1", "2"), ("2", "3"), ("2", "4")]),
    Poset(("1", "2", "3", "4"), [("1", "3"), ("2", "3"), ("2", "4")]),
)


def _random_variants(p, count):
    """`count` seeded random representations of each poset above at p,
    each with one arrow at a time scaled by each c in F_p."""
    algebra = LambdaAlgebra(PrimeField(p), 2)
    rng = np.random.default_rng(p)
    for poset in OTHER_POSETS:
        q = QuiverStar(poset)
        caps = dict.fromkeys(q.vertices, 3)
        for _ in range(count):
            x = random_representation(q, algebra, caps, rng)
            for arrow in q.arrows:
                for c in range(p):
                    yield _scaled(x, [arrow], c)


@pytest.mark.parametrize("p", [2, 3])
def test_validate_checks_paths_as_the_walk_does(p):
    """The arrow-wise check of `validate` reports the problems of walking
    every path (`oracles.walked_path_problems`), on representations that
    can fail path commutativity only."""
    failing = 0
    for x in chain(_fixture_variants(p), _random_variants(p, 15)):
        want = walked_path_problems(x)
        assert Counter(x.validate()) == Counter(want)
        failing += bool(want)
    assert failing > 100


def test_composite_map():
    m = all_free_representation(L2)
    assert m.composite_map("1", "1") == Matrix.identity(F2, 2)
    assert m.composite_map("1", "*") == Matrix.identity(F2, 2)
    with pytest.raises(NotComparableError):
        m.composite_map("2", "3")
    with pytest.raises(NotComparableError):
        m.composite_map("*", "1")


def test_composite_chain_product():
    rng = np.random.default_rng(0)
    q = QuiverStar(Poset(("a", "b"), [("a", "b")]))
    zero = Matrix.zeros(F2, 1, 1)
    one = LambdaModule(L2, zero)
    a = Matrix(F2, [[1]])
    b = Matrix(F2, [[1]])
    rep = Representation(
        q,
        L2,
        {"a": one, "b": one, "*": one},
        {("a", "b"): a, ("b", "*"): b},
    )
    assert rep.composite_map("a", "*") == b @ a


def test_is_subspace_rep():
    assert all_free_representation(L2).is_subspace_rep()
    assert twisted_pair_representation(L2).is_subspace_rep()
    q = example_quiver()
    one = LambdaModule.simple(L2)
    zero = LambdaModule.zero(L2)
    rep = Representation(
        q,
        L2,
        {"1": one, "2": one, "3": zero, "*": zero},
        {
            ("1", "2"): Matrix.identity(F2, 1),
            ("1", "3"): Matrix.zeros(F2, 0, 1),
            ("2", "*"): Matrix.zeros(F2, 0, 1),
            ("3", "*"): Matrix.zeros(F2, 0, 0),
        },
    )
    assert rep.validate() == []
    assert not rep.is_subspace_rep()  # nonzero space mapped by a zero arrow


def test_hom_zero_source():
    q = example_quiver()
    zero = Representation.zero(q, L2)
    m = all_free_representation(L2)
    assert hom_basis(zero, m).dim == 0


def test_end_of_all_free_has_dim_two():
    # solving the commutation system by hand: an endomorphism is a single
    # Lambda-linear map used at all four vertices, so End = Lambda
    m = all_free_representation(L2)
    hs = hom_basis(m, m)
    assert hs.dim == 2
    for f in hs.basis:
        assert f.is_valid()


def test_hom_additivity():
    m = all_free_representation(L2)
    two = direct_sum([m, m]).rep
    assert hom_basis(m, two).dim == 2 * hom_basis(m, m).dim
    n = twisted_pair_representation(L2)
    both = direct_sum([m, n]).rep
    assert (
        hom_basis(both, m).dim
        == hom_basis(m, m).dim + hom_basis(n, m).dim
    )


def test_direct_sum_dims_and_projections():
    m = all_free_representation(L2)
    n = twisted_pair_representation(L2)
    ds = direct_sum([n, m])
    assert ds.rep.dim_vector() == (3, 5, 5, 6)
    assert ds.rep.validate() == []
    for i, inc in enumerate(ds.inclusions):
        for j, proj in enumerate(ds.projections):
            comp = proj @ inc
            if i == j:
                assert comp == Morphism.identity([n, m][i])
            else:
                assert comp.is_zero()
    # socle invariants of summands union to invariants of the sum
    total = block_invariants(ds.rep.spaces["*"])
    parts = sorted(
        block_invariants(n.spaces["*"]) + block_invariants(m.spaces["*"]),
        reverse=True,
    )
    assert total == tuple(parts)


def test_direct_sum_single():
    m = all_free_representation(L2)
    ds = direct_sum([m])
    assert ds.inclusions[0] == Morphism.identity(m)


def test_split_by_retraction_roundtrip():
    m = all_free_representation(L2)
    n = twisted_pair_representation(L2)
    ds = direct_sum([m, n])
    res = split_by_retraction(ds.rep, ds.inclusions[0], ds.projections[0])
    assert res.summand.dim_vector() == m.dim_vector()
    assert res.complement.dim_vector() == n.dim_vector()
    assert res.complement.validate() == []
    # [mono | complement_incl]: summand + complement -> x is an isomorphism
    both = direct_sum([res.summand, res.complement]).rep
    iso = Morphism(
        both,
        ds.rep,
        {
            v: res.summand_incl.components[v].hstack(res.complement_incl.components[v])
            for v in ds.rep.quiver.vertices
        },
    )
    assert all(c.rank() == ds.rep.dim(v) for v, c in iso.components.items())
    assert iso.is_valid()
    # orthogonality of the two projections
    assert (res.complement_proj @ res.summand_incl).is_zero()
    assert res.complement_proj @ res.complement_incl == Morphism.identity(res.complement)


def test_split_by_retraction_zero_summand():
    m = all_free_representation(L2)
    zero = Representation.zero(m.quiver, L2)
    mono = Morphism.zero(zero, m)
    retraction = Morphism.zero(m, zero)
    res = split_by_retraction(m, mono, retraction)
    assert res.complement.dim_vector() == m.dim_vector()


def test_split_by_retraction_rejects_bad_pair():
    m = all_free_representation(L2)
    with pytest.raises(NotARetractionError):
        split_by_retraction(m, Morphism.zero(m, m), Morphism.zero(m, m))


def test_dimension_vector_is_read_once(monkeypatch):
    # the vertex dimensions are recorded at construction; dim, dim_vector
    # and total_dim do not ask the vertex modules again
    m = twisted_pair_representation(L2)
    copy = Representation(m.quiver, m.algebra, m.spaces, m.arrow_maps)
    reads = []
    real = LambdaModule.dim

    monkeypatch.setattr(LambdaModule, "dim", property(lambda self: reads.append(1) or real.fget(self)))
    expected = m.dim_vector()
    reads.clear()
    for _ in range(3):
        assert copy.dim_vector() == expected
        assert tuple(copy.dim(v) for v in copy.quiver.vertices) == expected
        assert copy.total_dim() == sum(expected)
    assert reads == []


def test_end_algebra_simple_at_star():
    q = example_quiver()
    zero = LambdaModule.zero(L2)
    rep = Representation(
        q,
        L2,
        {"1": zero, "2": zero, "3": zero, "*": LambdaModule.simple(L2)},
        {
            ("1", "2"): Matrix.zeros(F2, 0, 0),
            ("1", "3"): Matrix.zeros(F2, 0, 0),
            ("2", "*"): Matrix.zeros(F2, 1, 0),
            ("3", "*"): Matrix.zeros(F2, 1, 0),
        },
    )
    e = end_algebra(rep)
    assert e.dim == 1


def test_end_algebra_all_free_structure():
    # End is commutative of dimension 2 with one nilpotent generator
    m = all_free_representation(L2)
    e = end_algebra(m)
    assert e.dim == 2
    # commutativity
    a, b = e.element([1, 0]), e.element([0, 1])
    assert a @ b == b @ a
    # one basis combination squares to zero: the T-action endomorphism
    found_nilpotent = False
    for coords in ([1, 0], [0, 1], [1, 1]):
        f = e.element(coords)
        if not f.is_zero() and (f @ f).is_zero():
            found_nilpotent = True
    assert found_nilpotent


def test_end_algebra_double():
    m = all_free_representation(L2)
    two = direct_sum([m, m]).rep
    assert end_algebra(two).dim == 4 * end_algebra(m).dim


def test_composition_bilinear_associative():
    rng = np.random.default_rng(42)
    m = all_free_representation(L2)
    n = twisted_pair_representation(L2)
    hmn = hom_basis(m, n)
    hnm = hom_basis(n, m)
    for f in hmn.basis[:3]:
        assert f.is_valid()
        for g in hnm.basis[:3]:
            fg = f @ g
            assert fg.is_valid()
            for h in hmn.basis[:3]:
                assert ((f @ g) @ h).components["*"] == (f @ (g @ h)).components["*"]


def test_kernel_image_quotient_subreps():
    m = all_free_representation(L2)
    n = twisted_pair_representation(L2)
    hs = hom_basis(n, m)
    assert hs.dim > 0
    f = hs.basis[0]
    ker, ker_incl = kernel_subrep(f)
    assert ker.validate() == []
    assert (f @ ker_incl).is_zero()
    img, img_incl, img_core = image_subrep(f)
    assert img.validate() == [] and img_incl @ img_core == f
    assert img.is_subspace_rep() or True  # images inside subspace reps stay valid
    quo, proj = quotient_rep(n, {v: ker_incl.components[v] for v in n.quiver.vertices})
    assert quo.validate() == []
    assert proj.is_valid()
    assert (proj @ ker_incl).is_zero()
    for v in n.quiver.vertices:
        assert quo.dim(v) == n.dim(v) - ker.dim(v)


def test_subspace_closure_under_operations():
    # subspace property is closed under direct sums and split summands
    m = all_free_representation(L2)
    n = twisted_pair_representation(L2)
    ds = direct_sum([m, n])
    assert ds.rep.is_subspace_rep()
    res = split_by_retraction(ds.rep, ds.inclusions[1], ds.projections[1])
    assert res.summand.is_subspace_rep()
    assert res.complement.is_subspace_rep()


def test_hom_basis_large_prime_entries():
    # negating T and every arrow of the twisted pair puts p - 1 into every
    # nonzero entry; the hom system then carries entries near +-p before
    # reduction
    field = PrimeField(2**31 - 1)
    alg = LambdaAlgebra(field, 2)
    neg = field.p - 1
    x = twisted_pair_representation(alg)
    y = Representation(
        x.quiver,
        alg,
        {v: LambdaModule(alg, x.spaces[v].t.scale(neg)) for v in x.quiver.vertices},
        {a: m.scale(neg) for a, m in x.arrow_maps.items()},
    )
    assert (y.spaces["*"].t.a == neg).any() and (y.arrow_maps[("1", "2")].a == neg).any()
    for src, tgt in ((y, y), (x, y), (y, x)):
        hs = hom_basis(src, tgt)
        for f in hs.basis:
            for m in f.components.values():
                assert m.a.dtype == np.int64
                assert ((m.a >= 0) & (m.a < field.p)).all()
            assert f.is_valid()
        assert hs.basis_matrix().rank() == hs.dim
    # y is x up to a ring automorphism and a sign per vertex, so End(y)
    # has the dimension of End(x) and contains the identity
    end_y = hom_basis(y, y)
    assert end_y.dim == hom_basis(x, x).dim
    ident = Morphism.identity(y).flatten().reshape(-1, 1)
    # coords raises NoSolutionError outside the span
    assert CoordinateSolver(end_y.basis_matrix()).coords(Matrix(field, ident)).cols == 1


# HomSpace.coefficients: the one solver behind the split and factoring tests


def test_coefficients_zero_object_and_empty_maps():
    zero = Representation.zero(example_quiver(), L2)
    ident = Morphism.identity(zero)
    # the identity of the zero object lies in the empty span: split both ways
    assert HomSpace(zero, zero, ()).coefficients([ident]) == Matrix.zeros(F2, 0, 1)
    assert hom_basis(zero, zero).postcomposed(ident).coefficients([ident]) is not None
    assert hom_basis(zero, zero).precomposed(ident).coefficients([ident]) is not None
    m = twisted_pair_representation(L2)
    # an empty list of maps always factors, even through an empty span
    assert HomSpace(m, m, ()).coefficients([]) == Matrix.zeros(F2, 0, 0)
    assert hom_basis(m, zero).postcomposed(Morphism.zero(zero, m)).coefficients([]) is not None


def test_coefficients_identity_split_epi_and_mono():
    m = twisted_pair_representation(L2)
    ident = Morphism.identity(m)
    for span in (hom_basis(m, m).postcomposed(ident), hom_basis(m, m).precomposed(ident)):
        c = span.coefficients([ident])
        assert c is not None and span.element(c.a[:, 0]) == ident
    # the zero map of a nonzero object is neither split epi nor split mono
    zero_map = Morphism.zero(m, m)
    assert hom_basis(m, m).postcomposed(zero_map).coefficients([ident]) is None
    assert hom_basis(m, m).precomposed(zero_map).coefficients([ident]) is None
    assert ident.is_mono() and ident.is_epi()
    assert not zero_map.is_mono() and not zero_map.is_epi()


@pytest.mark.parametrize("p", [2, 2**31 - 1])
def test_coefficients_recombine_targets(p):
    field = PrimeField(p)
    m = twisted_pair_representation(LambdaAlgebra(field, 2))
    homs = hom_basis(m, m)
    rng = np.random.default_rng(3)
    coords = rng.integers(0, p, size=(homs.dim, 3))
    coords[:, 0] = p - 1  # every term at the int64 edge
    targets = [homs.element(coords[:, j]) for j in range(3)]
    for f in targets:
        assert f.is_valid()
        assert all(((c.a >= 0) & (c.a < p)).all() for c in f.components.values())
    c = homs.coefficients(targets)
    assert c == Matrix(field, coords)  # a basis: the coefficients are unique


# batched arithmetic on the flat coordinate matrix of a HomSpace


def _negated(x):
    """x with T and every arrow negated (all paths of the example quiver
    have length 2, so squares still commute): entries p - 1 where x has 1."""
    neg = x.field.p - 1
    return Representation(
        x.quiver,
        x.algebra,
        {v: LambdaModule(x.algebra, x.spaces[v].t.scale(neg)) for v in x.quiver.vertices},
        {a: m.scale(neg) for a, m in x.arrow_maps.items()},
    )


def _sample_reps(p):
    from subrep.sampling import random_subspace_representation

    alg = LambdaAlgebra(PrimeField(p), 2)
    rng = np.random.default_rng(11)
    twisted = twisted_pair_representation(alg)
    # vertex 1 is zero-dimensional; dims differ from the others, so the
    # vertex blocks of the homs between them are not square
    sparse = random_subspace_representation(
        example_quiver(), alg, {"1": 0, "2": 2, "3": 3, "*": 5}, rng
    )
    return rng, [twisted, _negated(twisted), all_free_representation(alg), sparse]


def _combination(homs, coords):
    acc = Morphism.zero(homs.source, homs.target)
    for c, h in zip(coords, homs.basis):
        acc = acc + h.scale(int(c))
    return acc


@pytest.mark.parametrize("p", [2, 3, 2**31 - 1])
def test_batched_composition_matches_per_morphism(p):
    rng, reps = _sample_reps(p)
    assert 0 in reps[-1].dim_vector()
    for x, y, z in ((reps[0], reps[1], reps[3]), (reps[3], reps[2], reps[1]), (reps[1], reps[1], reps[1])):
        homs = hom_basis(x, y)
        assert homs.dim
        # maps with every coefficient p - 1 carry entries near p
        g = _combination(hom_basis(y, z), [p - 1] * hom_basis(y, z).dim)
        f = _combination(hom_basis(z, x), [p - 1] * hom_basis(z, x).dim)
        post = homs.postcomposed(g)
        pre = homs.precomposed(f)
        assert (post.source, post.target, pre.source, pre.target) == (x, z, z, y)
        assert post.basis == tuple(g @ h for h in homs.basis)
        assert pre.basis == tuple(h @ f for h in homs.basis)
        for span in (post, pre):
            a = span.basis_matrix().a
            assert a.dtype == np.int64 and ((a >= 0) & (a < p)).all()
            assert all(h.is_valid() for h in span.basis)
        coords = rng.integers(0, p, size=(homs.dim, 3))
        coords[:, 0] = p - 1
        coords[:, 1] = 0  # all-zero coefficients: the zero morphism
        combos = homs.combinations(Matrix(PrimeField(p), coords))
        for j in range(3):
            ref = _combination(homs, coords[:, j])
            assert combos.basis[j] == ref == homs.element(coords[:, j])
        assert combos.basis[1] == Morphism.zero(x, y)


def test_homspace_flat_layout_round_trip():
    _, reps = _sample_reps(3)
    for x, y in ((reps[0], reps[3]), (reps[3], reps[0]), (reps[2], reps[2])):
        homs = hom_basis(x, y)
        flat = homs.basis_matrix()
        assert flat.a.shape == (sum(x.dim(v) * y.dim(v) for v in x.quiver.vertices), homs.dim)
        # columns are the flattened basis morphisms, and the reverse
        assert [h.flatten().tolist() for h in homs.basis] == flat.a.T.tolist()
        assert HomSpace(x, y, homs.basis).basis_matrix() == flat
        assert HomSpace.from_flat(x, y, homs._held()).basis == homs.basis
        joined = HomSpace.joined(x, y, [homs, homs])
        assert joined.basis == homs.basis + homs.basis


def test_batched_composition_empty_span():
    _, reps = _sample_reps(2)
    x, y = reps[0], reps[3]
    field = x.field
    empty = HomSpace(x, y, ())
    size = sum(x.dim(v) * y.dim(v) for v in x.quiver.vertices)
    assert empty.basis_matrix() == Matrix.zeros(field, size, 0)
    post = empty.postcomposed(Morphism.identity(y))
    pre = empty.precomposed(Morphism.identity(x))
    for span in (post, pre):
        assert span.dim == 0 and span.basis == ()
        assert span.basis_matrix() == Matrix.zeros(field, size, 0)
    assert empty.element([]) == Morphism.zero(x, y)
    zeros = empty.combinations(Matrix.zeros(field, 0, 2))
    assert zeros.basis == (Morphism.zero(x, y), Morphism.zero(x, y))
    assert HomSpace.joined(x, y, []).basis_matrix() == empty.basis_matrix()
    # the zero object: every block is empty
    zero = Representation.zero(x.quiver, x.algebra)
    homs = hom_basis(zero, y)
    assert homs.postcomposed(Morphism.identity(y)).basis_matrix().a.shape == (0, homs.dim)


@pytest.mark.parametrize("p", [2, 3])
def test_subrep_from_bases_rejects_a_span_not_invariant_at_one_vertex(p):
    """Free rank one at every vertex, zero at 1, everything at 2 and '*':
    every arrow closes up, so only the span at 3 decides.  span{Tg} is
    invariant there, span{g} is not."""
    field = PrimeField(p)
    x = all_free_representation(LambdaAlgebra(field, 2))
    full = Matrix.identity(field, 2)
    bases = {"1": Matrix.zeros(field, 2, 0), "2": full, STAR: full}
    sub, incl = subrep_from_bases(x, bases | {"3": Matrix(field, [[0], [1]])})
    assert sub.dim_vector() == (0, 2, 1, 2) and sub.validate() == [] and incl.is_valid()
    with pytest.raises(NoSolutionError):
        subrep_from_bases(x, bases | {"3": Matrix(field, [[1], [0]])})


@pytest.mark.parametrize("p", [2, 3])
def test_quotient_rep_rejects_bases_an_arrow_maps_out_of_the_span(p):
    """Free rank one at every vertex with identity arrows, span{Tg} at
    each vertex: invariant everywhere and closed under the arrows.  With
    zero at 2 instead, the arrow 1 -> 2 carries Tg out of the span there,
    so it induces no map on the quotients."""
    field = PrimeField(p)
    x = all_free_representation(LambdaAlgebra(field, 2))
    socle = {v: Matrix(field, [[0], [1]]) for v in x.quiver.vertices}
    quo, proj = quotient_rep(x, socle)
    assert quo.dim_vector() == (1, 1, 1, 1) and quo.validate() == [] and proj.is_valid()
    assert all(m == Matrix.identity(field, 1) for m in quo.arrow_maps.values())
    with pytest.raises(NoSolutionError):
        quotient_rep(x, socle | {"2": Matrix.zeros(field, 2, 0)})

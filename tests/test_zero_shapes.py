"""Zero and near-zero representations: inputs where a space, a span, a
kernel, a complement or a radical is zero.

`ffmat` accepts empty shapes and returns what the general formula gives,
so none of these paths has a special case of its own; these tests pin
the results on the inputs that meet the empty shapes.
"""

import pytest

from subrep.approx import (
    left_approx,
    mimo_k,
    right_approx,
)
from subrep.artheory import _radical_maps, dtr
from subrep.birkhoff import decompose_full
from subrep.decomp import (
    indecompose,
    indecomposables_isomorphic,
    is_local,
    radical,
)
from subrep.errors import HasProjectiveSummandError, NoSolutionError
from subrep.examples import example_quiver
from subrep.ffmat import (
    Matrix,
    PrimeField,
    cokernel_frame,
    kernel_basis,
    kernel_frame,
    span_frame,
)
from subrep.lambdamod import (
    LambdaAlgebra,
    LambdaModule,
    injective_envelope,
    jordan_basis,
    jordan_chains,
    quotient_module,
    submodule,
)
from subrep.posetrep import (
    STAR,
    HomSpace,
    Morphism,
    Representation,
    direct_sum,
    end_algebra,
    hom_basis,
    image_subrep,
    kernel_subrep,
    quotient_rep,
    split_by_retraction,
    subrep_from_bases,
    subspace_representation,
)
from subrep.sampling import intersect_spans

from oracles import (
    all_free_representation,
    evaluation_iso_check,
    verify_left_approx,
    verify_right_approx,
)

QUIVER = example_quiver()


def _algebra(p):
    return LambdaAlgebra(PrimeField(p), 2)


def _zero_bases(x):
    return {v: Matrix.zeros(x.field, x.dim(v), 0) for v in x.quiver.vertices}


def _full_bases(x):
    return {v: Matrix.identity(x.field, x.dim(v)) for v in x.quiver.vertices}


def _simple_at_star(algebra):
    zero = LambdaModule.zero(algebra)
    spaces = {v: zero for v in QUIVER.poset.points} | {STAR: LambdaModule.simple(algebra)}
    maps = {(s, t): Matrix.zeros(algebra.field, spaces[t].dim, 0) for s, t in QUIVER.arrows}
    return Representation(QUIVER, algebra, spaces, maps)


@pytest.fixture(params=[2, 3])
def catalog(request, catalog_p2, catalog_p3):
    return {2: catalog_p2, 3: catalog_p3}[request.param]


def _obj_003(catalog):
    """The projective at '*': zero at every poset point."""
    x = catalog.objects[3]
    assert catalog.projective[3] and x.dim_vector() == (0, 0, 0, 2)
    return x


# ffmat's callers on empty shapes


@pytest.mark.parametrize("p", [2, 3])
def test_lambda_module_empty_shapes(p):
    algebra = _algebra(p)
    field = algebra.field
    zero = LambdaModule.zero(algebra)
    assert jordan_chains(zero) == []
    assert jordan_basis(zero) == (Matrix.zeros(field, 0, 0), ())
    env, emb = injective_envelope(zero)
    assert env.dim == 0 and emb == Matrix.zeros(field, 0, 0)
    free = LambdaModule.free(algebra, 2)
    sub, span = submodule(free, Matrix.zeros(field, 4, 0))
    assert sub == zero and span == Matrix.zeros(field, 4, 0)
    quo, (proj, _) = quotient_module(free, Matrix.identity(field, 4))
    assert quo == zero and proj == Matrix.zeros(field, 0, 4)
    quo, (proj, _) = quotient_module(free, Matrix.zeros(field, 4, 0))
    assert quo == free and proj == Matrix.identity(field, 4)


@pytest.mark.parametrize("p", [2, 3, 5, 2**31 - 1])
def test_intersect_spans_with_an_empty_span(p):
    """An empty span on either side, also beside dependent columns or
    before a further span, meets every span in zero."""
    field = PrimeField(p)
    none, full = Matrix.zeros(field, 4, 0), Matrix.identity(field, 4)
    twice = Matrix(field, [[1, 1], [0, 0], [1, 1], [0, 0]])
    for spans in (
        [none, full],
        [full, none],
        [none, none],
        [none, twice],
        [twice, none],
        [full, none, full],
        [none, full, twice],
    ):
        assert intersect_spans(field, spans) == none


@pytest.mark.parametrize("p", [2, 3, 5, 2**31 - 1])
def test_kernel_frame_empty_shapes(p):
    field = PrimeField(p)
    for rows, cols in ((0, 0), (3, 0), (0, 3)):
        k, free = kernel_frame(Matrix.zeros(field, rows, cols))
        assert k == Matrix.identity(field, cols) and list(free) == list(range(cols))
        assert k == kernel_basis(Matrix.zeros(field, rows, cols))
        proj, free = cokernel_frame(Matrix.zeros(field, rows, cols))
        assert proj == Matrix.identity(field, rows) and list(free) == list(range(rows))
    k, free = kernel_frame(Matrix.identity(field, 3))
    assert k == Matrix.zeros(field, 3, 0) and list(free) == []
    k, free = kernel_frame(Matrix(field, [[0, 1, 1], [0, 0, 0]]))
    assert list(free) == [0, 2] and k == Matrix(field, [[1, 0], [0, -1], [0, 1]])


@pytest.mark.parametrize("p", [2, 3, 5, 2**31 - 1])
def test_span_frame_empty_shapes(p):
    """No columns: no pivots and U = I_d, so only the zero vector is in
    the span.  No rows: U is 0 x 0."""
    field = PrimeField(p)
    pivots, u = span_frame(Matrix.zeros(field, 3, 0))
    assert pivots == [] and u == Matrix.identity(field, 3)
    for cols in (3, 0):
        pivots, u = span_frame(Matrix.zeros(field, 0, cols))
        assert pivots == [] and u == Matrix.zeros(field, 0, 0)


@pytest.mark.parametrize("p", [2, 3])
def test_top_frames_of_zero_vertices(p):
    algebra = _algebra(p)
    x = _simple_at_star(algebra)
    frames = x.top_frames()
    assert set(frames) == set(QUIVER.poset.points) and x.is_subspace_rep()
    for left, coker in frames.values():
        assert left.a.shape == (0, 1) and coker == Matrix.identity(x.field, 1)
    zero = Representation.zero(QUIVER, algebra)
    assert all(f[0].a.shape == f[1].a.shape == (0, 0) for f in zero.top_frames().values())
    # a nonzero space with a zero arrow has no left inverse there
    spaces = dict(x.spaces) | {"2": LambdaModule.simple(algebra)}
    maps = dict(x.arrow_maps) | {
        ("1", "2"): Matrix.zeros(x.field, 1, 0),
        ("2", STAR): Matrix.zeros(x.field, 1, 1),
    }
    bad = Representation(QUIVER, algebra, spaces, maps)
    assert bad.validate() == [] and bad.top_frames()["2"] is None
    assert bad.top_frames()["3"] is not None and not bad.is_subspace_rep()


@pytest.mark.parametrize("p", [2, 3])
def test_kernel_and_image_of_maps_with_zero_vertices(p):
    x = _simple_at_star(_algebra(p))
    zero = Representation.zero(QUIVER, x.algebra)
    for f in (Morphism.identity(x), Morphism.zero(x, x), Morphism.zero(x, zero)):
        ker, incl = kernel_subrep(f)
        img, img_incl, core = image_subrep(f)
        assert incl.is_valid() and img_incl.is_valid() and core.is_valid()
        assert ker.total_dim() + img.total_dim() == 1
        assert img_incl @ core == f and (f @ incl).is_zero()


@pytest.mark.parametrize("p", [2, 3])
def test_coefficients_over_an_empty_span(p):
    x = all_free_representation(_algebra(p))
    empty = HomSpace(x, x, ())
    assert empty.coefficients([Morphism.zero(x, x)] * 2) == Matrix.zeros(x.field, 0, 2)
    assert empty.coefficients([]) == Matrix.zeros(x.field, 0, 0)
    assert empty.coefficients([Morphism.identity(x)]) is None


@pytest.mark.parametrize("p", [2, 3])
def test_subspace_representation_with_zero_spans(p):
    algebra = _algebra(p)
    field = algebra.field
    top = LambdaModule.free(algebra, 2)
    t_span = Matrix(field, [[0], [1], [0], [0]])  # T e, killed by T
    none = Matrix.zeros(field, 4, 0)
    for spans, dims in (
        ({"1": none, "2": t_span, "3": none}, (0, 1, 0, 4)),
        ({"1": none, "2": none, "3": none}, (0, 0, 0, 4)),
    ):
        rep, incls = subspace_representation(QUIVER, top, spans)
        assert rep.dim_vector() == dims and rep.validate() == [] and rep.is_subspace_rep()
        assert rep.arrow_maps[("1", "3")] == Matrix.zeros(field, 0, 0)
        assert rep.arrow_maps[("1", "2")] == Matrix.zeros(field, dims[1], 0)
        assert rep.arrow_maps[("3", STAR)] == Matrix.zeros(field, 4, 0)
    # spans that are not nested raise, also when the larger span is zero
    spans = {"1": t_span, "2": none, "3": t_span}
    with pytest.raises(NoSolutionError):
        subspace_representation(QUIVER, top, spans)


@pytest.mark.parametrize("p", [2, 3])
def test_subrep_from_bases_with_zero_bases(p):
    x = all_free_representation(_algebra(p))
    field = x.field
    full, zero = _full_bases(x), _zero_bases(x)
    # zero at 1 and 2: the arrow 1 -> 2 lands in a zero space
    sub, incl = subrep_from_bases(x, zero | {"3": full["3"], STAR: full[STAR]})
    assert sub.dim_vector() == (0, 0, 2, 2) and sub.validate() == [] and incl.is_valid()
    assert sub.arrow_maps[("1", "2")] == Matrix.zeros(field, 0, 0)
    assert sub.arrow_maps[("2", STAR)] == Matrix.zeros(field, 2, 0)
    assert sub.arrow_maps[("3", STAR)] == Matrix.identity(field, 2)
    # zero everywhere: the zero subrepresentation
    sub, incl = subrep_from_bases(x, zero)
    assert sub.is_zero() and incl.is_valid()
    assert all(m.a.shape == (0, 0) for m in sub.arrow_maps.values())


@pytest.mark.parametrize("p", [2, 3])
def test_subrep_from_bases_rejects_a_span_leaving_through_a_zero_vertex(p):
    """The span at 2 is all of X_2, but the arrow 2 -> * maps it into the
    zero span chosen at '*'."""
    x = all_free_representation(_algebra(p))
    with pytest.raises(NoSolutionError):
        subrep_from_bases(x, _zero_bases(x) | {"2": _full_bases(x)["2"]})


@pytest.mark.parametrize("p", [2, 3])
def test_quotient_rep_by_zero_and_full_bases(p):
    x = all_free_representation(_algebra(p))
    field = x.field
    full, zero = _full_bases(x), _zero_bases(x)
    # by zero: the quotient is x, the projection the identity
    quo, proj = quotient_rep(x, zero)
    assert quo.arrow_maps == x.arrow_maps and proj == Morphism.identity(x)
    # by everything at 2 and '*': the quotient is zero there
    quo, proj = quotient_rep(x, zero | {"2": full["2"], STAR: full[STAR]})
    assert quo.dim_vector() == (2, 0, 2, 0) and quo.validate() == [] and proj.is_valid()
    assert quo.arrow_maps[("2", STAR)] == Matrix.zeros(field, 0, 0)
    assert quo.arrow_maps[("1", "2")] == Matrix.zeros(field, 0, 2)
    assert quo.arrow_maps[("1", "3")] == Matrix.identity(field, 2)
    # by everything: the zero representation
    quo, proj = quotient_rep(x, full)
    assert quo.is_zero() and proj.is_valid()
    assert all(proj.components[v].a.shape == (0, 2) for v in x.quiver.vertices)


def test_split_by_retraction_with_zero_complement(catalog):
    for x in (_obj_003(catalog), catalog.objects[0]):
        ident = Morphism.identity(x)
        res = split_by_retraction(x, ident, ident)
        assert res.complement.is_zero()
        for v in x.quiver.vertices:
            assert res.complement_incl.components[v] == Matrix.zeros(x.field, x.dim(v), 0)
            assert res.complement_proj.components[v] == Matrix.zeros(x.field, 0, x.dim(v))


def test_split_by_retraction_with_zero_vertices(catalog):
    """Split P(*) (zero below '*') off P(*) + P(2)."""
    ds = direct_sum([_obj_003(catalog), catalog.objects[1]])
    res = split_by_retraction(ds.rep, ds.inclusions[0], ds.projections[0])
    assert res.complement.dim_vector() == catalog.objects[1].dim_vector()
    assert res.complement_proj @ res.complement_incl == Morphism.identity(res.complement)
    assert (res.complement_proj @ ds.inclusions[0]).is_zero()


# approximations, translates and decompositions of objects with zero vertices


def test_approximations_of_obj_003(catalog):
    """P(*) is a subspace representation, so every approximation returns it
    with the identity as structure map."""
    x = _obj_003(catalog)
    results = [left_approx(x), right_approx(x)] + [mimo_k(x, v) for v in x.quiver.poset.points]
    for res in results:
        assert res.approx.dim_vector() == x.dim_vector()
        assert res.approx.arrow_maps == x.arrow_maps
        assert res.structure_map == Morphism.identity(x)
    assert verify_left_approx(results[0], catalog.objects) is None
    assert verify_right_approx(results[1], catalog.objects) is None


def test_dtr_with_zero_vertices(catalog):
    with pytest.raises(HasProjectiveSummandError):
        dtr(_obj_003(catalog))
    zero_vertex = 0
    for i, x in enumerate(catalog.objects):
        if catalog.projective[i] or 0 not in x.dim_vector():
            continue
        y = dtr(x)
        assert y.validate() == []
        zero_vertex += 0 in y.dim_vector()
    assert zero_vertex  # some cokernel is zero


def test_evaluation_iso_check_with_zero_hom_spaces(catalog):
    """The relation system of the evaluation check on inputs with zero
    spaces: the zero representation (every Hom(M_j, x) and every block
    column is empty, so a vertex has no relation rows), P(*) (zero at
    every poset point, and Hom(M_j, P(*)) is zero for most j), and a
    failing pair with one zero Hom(M_j, x)."""
    members = catalog.members()
    zero = Representation.zero(QUIVER, catalog.algebra)
    assert evaluation_iso_check(members, zero) is None
    x = _obj_003(catalog)
    assert any(hom_basis(m, x).dim == 0 for m in members)
    assert evaluation_iso_check(members, x) is None
    assert evaluation_iso_check([x], x) is None
    assert evaluation_iso_check([], zero) is None


def test_evaluation_iso_check_fails_with_a_zero_hom_space(catalog_p2):
    x = catalog_p2.objects[5]
    m = [catalog_p2.objects[0], catalog_p2.objects[9]]
    assert [hom_basis(z, x).dim for z in m] == [0, 2]
    assert evaluation_iso_check(m, x) == "3"


def test_radical_maps_with_a_zero_hom_space(catalog):
    """No maps back: the radical maps are all of Hom, the zero space when
    Hom itself is zero (objects z, w with Hom(w, z) = 0 != Hom(z, w),
    and the zero representation)."""
    objs = catalog.objects
    zero = Representation.zero(QUIVER, catalog.algebra)
    pairs = [(z, w) for z in range(len(objs)) for w in range(len(objs)) if z != w]
    z, w = next((z, w) for z, w in pairs if catalog.hom(z, w).dim and not catalog.hom(w, z).dim)
    for end, test, into in (
        (objs[w], objs[z], True),
        (objs[z], objs[w], False),
        (objs[z], objs[w], True),
        (_obj_003(catalog), zero, True),
        (_obj_003(catalog), zero, False),
    ):
        x, y = (test, end) if into else (end, test)
        got, want = _radical_maps(end, test, into), hom_basis(x, y)
        assert got.dim == want.dim and got.basis_matrix() == want.basis_matrix()


def test_is_local_and_radical_of_small_endomorphism_algebras():
    algebra = _algebra(2)
    end0 = end_algebra(Representation.zero(QUIVER, algebra))
    assert end0.dim == 0 and not is_local(end0)
    rad = radical(end0)
    assert rad.quotient_dim == 0 and rad.radical.dim == 0
    end1 = end_algebra(_simple_at_star(algebra))
    assert end1.dim == 1 and is_local(end1)
    rad = radical(end1)
    assert rad.quotient_dim == 1 and rad.radical.dim == 0


@pytest.mark.parametrize("p", [2, 3])
def test_isomorphism_with_zero_radical(p):
    """End(S(*)) = k: its radical is zero."""
    s = _simple_at_star(_algebra(p))
    ok, witness = indecomposables_isomorphic(s, s)
    assert ok and witness.components[STAR].rank() == 1


def test_decompositions_of_objects_with_zero_vertices(catalog):
    x = direct_sum([_obj_003(catalog), catalog.objects[2], catalog.objects[1]]).rep
    want = sorted([3, 2, 1])
    for seed in (0, 7):
        d = indecompose(x, seed=seed)
        assert d.check()
        assert sorted(catalog.find_isomorphic(s.rep) for s in d.summands) == want
    d = decompose_full(x, catalog)
    assert d.check() and sorted(d.certificate["classes"]) == want
    d = decompose_full(_obj_003(catalog), catalog)
    assert d.certificate["classes"] == [3]
    d = decompose_full(Representation.zero(QUIVER, catalog.algebra), catalog)
    assert d.summands == [] and d.certificate["classes"] == [] and d.check()

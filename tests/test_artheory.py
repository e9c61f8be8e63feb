import numpy as np
import pytest

from subrep.artheory import (
    ARSequence,
    dtr,
    export_quiver,
    indecomposable_projectives,
    is_left_almost_split,
    is_right_almost_split,
    rad_subrep,
    relative_translate_candidate,
    sequence_is_exact_nonsplit,
    socle_subrep,
    verify_ar_sequence,
)
from subrep.decomp import indecompose, indecomposables_isomorphic, is_local
from subrep.errors import HasProjectiveSummandError
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
)

F2 = PrimeField(2)
L2 = LambdaAlgebra(F2, 2)


def simple_at_star(algebra=L2):
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


def test_projectives_shapes():
    projs = indecomposable_projectives(example_quiver(), L2)
    assert len(projs) == 4
    dims = [p.dim_vector() for p in projs]
    assert dims == [(2, 2, 2, 2), (0, 2, 0, 2), (0, 0, 2, 2), (0, 0, 0, 2)]
    for p in projs:
        assert p.validate() == []
        assert p.is_subspace_rep()
    # the projective at the bottom point is the all-free representation
    ok, _ = indecomposables_isomorphic(projs[0], all_free_representation(L2))
    assert ok


def test_rad_subrep_of_projectives():
    projs = indecomposable_projectives(example_quiver(), L2)
    rad_star, _ = rad_subrep(projs[3])
    assert rad_star.dim_vector() == (0, 0, 0, 1)
    rad_m, _ = rad_subrep(projs[0])
    assert rad_m.dim_vector() == (1, 2, 2, 2)


def test_socle_subrep_of_subspace_rep_sits_at_star():
    n = twisted_pair_representation(L2)
    soc, _ = socle_subrep(n)
    assert soc.dim_vector() == (0, 0, 0, 2)  # kernel of T on the total space


def test_dtr_of_simple_at_star():
    d = dtr(simple_at_star())
    assert d.validate() == []
    assert d.dim_vector() == (1, 1, 1, 1)
    assert is_local(end_algebra(d))


def test_dtr_rejects_projectives():
    projs = indecomposable_projectives(example_quiver(), L2)
    for p in projs:
        with pytest.raises(HasProjectiveSummandError):
            dtr(p)
    n = twisted_pair_representation(L2)
    with pytest.raises(HasProjectiveSummandError):
        dtr(direct_sum([projs[1], n]).rep)


def test_dtr_additive_on_direct_sums():
    s = simple_at_star()
    n = twisted_pair_representation(L2)
    d_sum = dtr(direct_sum([s, n]).rep)
    d_parts = direct_sum([dtr(s), dtr(n)]).rep
    from subrep.decomp import is_isomorphic

    ok, _ = is_isomorphic(d_sum, d_parts)
    assert ok


def test_dtr_output_can_leave_subspace_category():
    # witness: the translate of the twisted pair has a non-injective arrow
    found = False
    for x in (twisted_pair_representation(L2), simple_at_star()):
        d = dtr(x)
        if not d.is_subspace_rep():
            found = True
    assert found


def test_translate_candidate_on_subspace_translate():
    # when dtr lands in the subspace category already, the approximation
    # changes nothing and the candidate is dtr itself
    s = simple_at_star()
    d = dtr(s)
    assert d.is_subspace_rep()
    cands = relative_translate_candidate(s)
    assert len(cands) == 1
    ok, _ = indecomposables_isomorphic(d, cands[0])
    assert ok


def test_translate_candidate_rejects_projective():
    projs = indecomposable_projectives(example_quiver(), L2)
    with pytest.raises(HasProjectiveSummandError):
        relative_translate_candidate(projs[0])


def test_split_epi_rejected_by_right_almost_split():
    m = all_free_representation(L2)
    ident = Morphism.identity(m)
    assert not is_right_almost_split(ident, [m])


def test_split_mono_rejected_by_left_almost_split():
    m = all_free_representation(L2)
    ident = Morphism.identity(m)
    assert not is_left_almost_split(ident, [m])


def test_degenerate_map_to_simple_rejected():
    s = simple_at_star()
    zero_rep = Representation.zero(s.quiver, L2)
    g = Morphism.zero(zero_rep, s)
    # not a split epi; the identity is split epi so it is excluded, and
    # radical maps from the simple to itself vanish, but radical covers
    # from other catalog objects cannot factor through the zero object
    projs = indecomposable_projectives(example_quiver(), L2)
    assert not is_right_almost_split(g, projs + [s])
    # with no covering test objects the property holds vacuously
    assert is_right_almost_split(g, [s])


def test_catalog_counts(catalog_p2):
    assert len(catalog_p2.objects) == 25
    n_proj = sum(catalog_p2.projective)
    assert n_proj == 4
    assert len(catalog_p2.meshes) == 25 - 4


def test_catalog_contains_named_members(catalog_p2):
    m = all_free_representation(L2)
    n = twisted_pair_representation(L2)
    mi = catalog_p2.find_isomorphic(m)
    ni = catalog_p2.find_isomorphic(n)
    assert mi is not None and catalog_p2.projective[mi]
    assert ni is not None
    assert catalog_p2.objects[ni].dim_vector() == (1, 3, 3, 4)


def test_catalog_duplicates_rejected(catalog_p2):
    # pairwise non-isomorphic
    for i in range(len(catalog_p2.objects)):
        for j in range(i + 1, len(catalog_p2.objects)):
            ok, _ = indecomposables_isomorphic(
                catalog_p2.objects[i], catalog_p2.objects[j]
            )
            assert not ok


def test_mesh_exactness_and_dim_additivity(catalog_p2):
    for c_idx, seq in catalog_p2.meshes.items():
        assert seq.verified
        assert sequence_is_exact_nonsplit(seq)
        da = np.array(seq.a.dim_vector())
        db = np.array(seq.b.dim_vector())
        dc = np.array(seq.c.dim_vector())
        assert (da + dc == db).all()


def test_mesh_ends_inside_catalog(catalog_p2):
    for c_idx, seq in catalog_p2.meshes.items():
        assert catalog_p2.find_isomorphic(seq.a) is not None
        for part in seq.middle_parts:
            assert 0 <= part < len(catalog_p2.objects)


def test_unique_mesh_per_end(catalog_p2):
    # two verified meshes ending at the same object have isomorphic left
    # ends and middles: check the stored mesh against a freshly assembled one
    from subrep.artheory import _assemble_right_mesh
    from subrep.posetrep import kernel_subrep

    count = 0
    for c_idx, seq in list(catalog_p2.meshes.items())[:5]:
        assembled = _assemble_right_mesh(catalog_p2, c_idx)
        g, parts = assembled
        a_rep, f = kernel_subrep(g)
        ok, _ = indecomposables_isomorphic(seq.a, a_rep) if len(
            indecompose(a_rep, seed=0).summands
        ) == 1 else (False, None)
        assert ok
        assert sorted(parts) == sorted(seq.middle_parts)
        count += 1
    assert count == 5


def test_mutated_mesh_fails_verification(catalog_p2):
    # replace the middle by a wrong sum: at least one lifting must fail
    rng = np.random.default_rng(13)
    c_idx, seq = next(iter(sorted(catalog_p2.meshes.items())))
    m = all_free_representation(L2)
    wrong_middle = direct_sum([seq.a, catalog_p2.objects[3]]).rep
    ds = direct_sum([seq.a, catalog_p2.objects[3]])
    f_wrong = ds.inclusions[0]
    # surjection onto c cannot even exist in general; build g by solving,
    # fall back to zero: verification must reject either way
    g_wrong = Morphism.zero(wrong_middle, seq.c)
    bad = ARSequence(seq.a, wrong_middle, seq.c, f_wrong, g_wrong)
    assert not verify_ar_sequence(bad, catalog_p2.members(), rng=rng, random_tests=0)


def test_split_sequence_rejected(catalog_p2):
    a = catalog_p2.objects[5]
    c = catalog_p2.objects[6]
    ds = direct_sum([a, c])
    seq = ARSequence(a, ds.rep, c, ds.inclusions[0], ds.projections[1])
    assert not sequence_is_exact_nonsplit(seq)
    assert not verify_ar_sequence(seq, catalog_p2.members(), random_tests=0)


def test_left_maps_cover_catalog(catalog_p2):
    for z in range(len(catalog_p2.objects)):
        lass, parts = catalog_p2.left_maps[z]
        assert lass is not None, f"object {z} lacks a left almost split map"
        assert lass.is_valid()


def test_radical_chain_monotone(catalog_p2):
    # rad^2 <= rad <= Hom dimension-wise over a sample of pairs
    for i in (0, 4, 9, 22):
        for j in (0, 7, 22, 24):
            hom_dim = catalog_p2.hom(i, j).dim
            rad_dim = catalog_p2.rad_space(i, j).dim
            sq_dim = catalog_p2.rad_square_span(i, j).cols
            assert sq_dim <= rad_dim <= hom_dim
            if i != j:
                assert rad_dim == hom_dim  # non-isomorphic indecomposables


def test_export_quiver(catalog_p2):
    dot = export_quiver(catalog_p2)
    assert dot.startswith("digraph")
    assert dot.count("n0 ") >= 1
    # 25 nodes
    assert sum(1 for line in dot.splitlines() if "[label=" in line and "->" not in line) == 25
    # connectedness: every node appears in some arrow line
    arrow_lines = [l for l in dot.splitlines() if "->" in l and "dashed" not in l]
    mentioned = set()
    for l in arrow_lines:
        body = l.strip().rstrip(";")
        left, right = body.split("->")
        mentioned.add(left.strip())
        mentioned.add(right.split("[")[0].strip().rstrip(";"))
    for i in range(25):
        assert f"n{i}" in mentioned


def test_export_empty_catalog():
    from subrep.artheory import Catalog

    dot = export_quiver(Catalog(example_quiver(), L2))
    assert dot.splitlines()[0] == "digraph ar_quiver {"
    assert dot.splitlines()[-1] == "}"


def test_translate_candidates_stay_in_catalog(catalog_p2):
    for c_idx in list(catalog_p2.meshes)[:6]:
        c = catalog_p2.objects[c_idx]
        for cand in relative_translate_candidate(c):
            assert catalog_p2.find_isomorphic(cand) is not None

"""The layers under the catalog build: batched composites of two hom
spans, the incremental rad^2 span, the trace-form stage of `radical` and
the left-map check on the catalog's cached spaces.  Each is checked
against the direct computation it replaces."""

import numpy as np
import pytest

from subrep.artheory import (
    Catalog,
    _is_left_almost_split_in_catalog,
    is_left_almost_split,
)
from subrep.decomp import radical
from subrep.examples import example_quiver
from subrep.ffmat import (
    Matrix,
    PrimeField,
    char_poly,
    column_space_basis,
    kernel_basis,
)
from subrep.lambdamod import LambdaAlgebra, LambdaModule
from subrep.posetrep import (
    HomSpace,
    Morphism,
    Representation,
    direct_sum,
    end_algebra,
)
from subrep.sampling import random_representation, random_subspace_representation

QUIVER = example_quiver()
P31 = 2**31 - 1


def _rep_with_dims(algebra, dims):
    """A representation with the given vertex dimensions; only its shape
    matters to the span arithmetic below."""
    field = algebra.field
    spaces = {
        v: LambdaModule(algebra, Matrix.zeros(field, d, d)) for v, d in zip(QUIVER.vertices, dims)
    }
    maps = {(s, t): Matrix.zeros(field, spaces[t].dim, spaces[s].dim) for s, t in QUIVER.arrows}
    return Representation(QUIVER, algebra, spaces, maps)


def _random_span(source, target, k, rng, fill=None):
    p = source.field.p
    rows = sum(source.dim(v) * target.dim(v) for v in QUIVER.vertices)
    flat = rng.integers(0, p, size=(rows, k)) if fill is None else np.full((rows, k), fill)
    return HomSpace.from_flat(source, target, Matrix(source.field, flat))


def _joined_precomposed(first, second):
    """The span the batched product replaces: second . u for each u of
    first, joined in order."""
    return HomSpace.joined(
        first.source, second.target, [second.precomposed(u) for u in first.basis]
    )


def _exact_composites(first, second):
    """t . u with Python-int products, column i*k2 + j = t_j . u_i."""
    p = first.source.field.p
    cols = []
    for u in first.basis:
        for t in second.basis:
            parts = [
                (
                    (t.components[v].a.astype(object) @ u.components[v].a.astype(object)) % p
                ).flatten(order="F")
                for v in QUIVER.vertices
            ]
            cols.append(np.concatenate(parts).astype(np.int64))
    rows = sum(first.source.dim(v) * second.target.dim(v) for v in QUIVER.vertices)
    return np.stack(cols, axis=1) if cols else np.zeros((rows, 0), dtype=np.int64)


@pytest.mark.parametrize("p", [2, 3, P31])
def test_composites_match_joined_precomposed(p):
    algebra = LambdaAlgebra(PrimeField(p), 2)
    rng = np.random.default_rng(p % 1000)
    # vertex 1: y is zero; vertex 2: x is zero; vertex 3: w is zero
    x = _rep_with_dims(algebra, (2, 0, 1, 3))
    w = _rep_with_dims(algebra, (1, 2, 0, 3))
    y = _rep_with_dims(algebra, (0, 1, 2, 3))
    cases = [(3, 2, None), (1, 1, None), (0, 2, None), (2, 0, None), (0, 0, None)]
    # all entries p - 1: at p = 2^31 - 1 the products at * (dim w = 3)
    # overflow int64, so _matmul_mod takes its object-dtype path
    cases.append((2, 3, p - 1))
    for k1, k2, fill in cases:
        first = _random_span(x, w, k1, rng, fill)
        second = _random_span(w, y, k2, rng, fill)
        got = first.composites(second)
        assert got.source is x and got.target is y
        assert got.dim == k1 * k2
        assert got.basis_matrix() == _joined_precomposed(first, second).basis_matrix()
        assert np.array_equal(got.basis_matrix().a, _exact_composites(first, second))


@pytest.mark.parametrize("p", [2, 3])
def test_composites_on_fixture_catalog_triples(p, request):
    catalog = request.getfixturevalue(f"catalog_p{p}")
    n = len(catalog)
    checked = 0
    for i in range(n):
        for w in range(n):
            first = catalog.rad_space(i, w)
            if not first.dim:
                continue
            for j in range(n):
                second = catalog.rad_space(w, j)
                if second.dim:
                    got = first.composites(second).basis_matrix()
                    assert got == _joined_precomposed(first, second).basis_matrix()
                    checked += 1
    assert checked > 1000


def _rad_square_from_scratch(catalog, i, j):
    """The `*` rows of every composite through the catalog, reduced at
    once: catalog objects are subspace representations, so the kept span
    is its `*` block."""
    x, y = catalog.objects[i], catalog.objects[j]
    spans = [
        catalog.rad_space(i, w).composites(catalog.rad_space(w, j))
        for w in range(len(catalog))
    ]
    return column_space_basis(HomSpace.joined(x, y, spans).star_block())


@pytest.mark.parametrize("p", [2, 3])
def test_incremental_rad_square_matches_rebuild(p, request):
    """Grow a catalog one object at a time and after every addition
    compare the kept span of every pair with a rebuild over all objects."""
    shipped = request.getfixturevalue(f"catalog_p{p}")
    catalog = Catalog(shipped.quiver, shipped.algebra)
    for idx, obj in enumerate(shipped.objects):
        catalog.add(obj, projective=shipped.projective[idx])
        for i in range(len(catalog)):
            for j in range(len(catalog)):
                kept = catalog.rad_square_span(i, j).star_block()
                fresh = _rad_square_from_scratch(catalog, i, j)
                assert kept.rank() == fresh.rank() == kept.hstack(fresh).rank()
    # the lifts read from the kept spans are the shipped irreducible maps
    for z, (_, parts) in shipped.left_maps.items():
        got = [w for w in range(len(catalog)) for _ in catalog.irreducible_lifts(z, w)]
        assert tuple(got) == parts


@pytest.mark.parametrize("p", [2, 3])
def test_saturated_rad_square_forms_no_composites(p, request, monkeypatch):
    """A pair whose kept span already equals rad forms no composite when
    the catalog grows, and every kept basis is byte for byte the one
    reduced from all composites at once."""
    shipped = request.getfixturevalue(f"catalog_p{p}")
    catalog = Catalog(shipped.quiver, shipped.algebra)
    formed = []

    def counting_composites(first, second, real=HomSpace.composites):
        formed.append((first, second))
        return real(first, second)

    monkeypatch.setattr(HomSpace, "composites", counting_composites)
    saturated = set()
    for idx, obj in enumerate(shipped.objects):
        catalog.add(obj, projective=shipped.projective[idx])
        for i in range(len(catalog)):
            for j in range(len(catalog)):
                before = len(formed)
                kept = catalog.rad_square_span(i, j).star_block()
                if (i, j) in saturated:
                    assert len(formed) == before
                elif kept.cols == catalog.rad_space(i, j).dim:
                    saturated.add((i, j))
    assert len(saturated) > len(catalog) ** 2 // 2
    monkeypatch.undo()
    for i in range(len(catalog)):
        for j in range(len(catalog)):
            kept, fresh = catalog.rad_square_span(i, j).star_block(), _rad_square_from_scratch(catalog, i, j)
            assert kept.a.shape == fresh.a.shape and kept.a.tobytes() == fresh.a.tobytes()


# the trace-form stage of `radical`


def _sigma_reference(op, k_power):
    """The former per-product stage entry: the coefficient of
    x^(n - k_power) in the characteristic polynomial."""
    cp = char_poly(op)
    idx = op.rows - k_power
    return cp.coeffs[idx] if 0 <= idx < len(cp.coeffs) else 0


def _radical_reference(end):
    """The former `radical` chain: one characteristic polynomial of every
    product at every stage.  Returns the final coefficient matrix."""
    x = end.rep
    field = x.field
    n = x.total_dim()
    coeff = Matrix.identity(field, end.dim)
    k = 1
    while k <= n and coeff.cols:
        ops = [h.total_matrix() for h in end.space.combinations(coeff).basis]
        system = np.zeros((len(ops), len(ops)), dtype=np.int64)
        for r, y in enumerate(ops):
            for c, b in enumerate(ops):
                system[r, c] = _sigma_reference(b @ y, k)
        coeff = column_space_basis(coeff @ kernel_basis(Matrix(field, system)))
        k *= field.p
    return coeff


def _random_ends(p, count, seed):
    algebra = LambdaAlgebra(PrimeField(p), 2)
    rng = np.random.default_rng(seed)
    caps = {"1": 2, "2": 2, "3": 2, "*": 3}
    reps = [random_representation(QUIVER, algebra, caps, rng) for _ in range(count)]
    reps += [random_subspace_representation(QUIVER, algebra, caps, rng) for _ in range(count)]
    reps.append(direct_sum(reps[:2]).rep)
    return [end_algebra(x) for x in reps if x.total_dim()]


@pytest.mark.parametrize("p", [2, 3, 5, P31])
def test_trace_form_stage_matches_sigma_loop(p):
    ends = _random_ends(p, 6, seed=p % 97)
    assert any(end.dim > 1 for end in ends)
    for end in ends:
        ops = [h.total_matrix() for h in end.space.basis]
        expected = np.array(
            [[_sigma_reference(b @ y, 1) for b in ops] for y in ops], dtype=np.int64
        )
        assert np.array_equal(-end.space.trace_form() % p, expected)
        assert radical(end).coeff_matrix == _radical_reference(end)


# the left-map check on cached catalog spaces


def _assembled(catalog, z, parts, lifts):
    obj = catalog.objects[z]
    target = direct_sum([catalog.objects[w] for w in parts]).rep
    comps = {
        v: Matrix(obj.field, np.vstack([h.components[v].a for h in lifts]))
        for v in catalog.quiver.vertices
    }
    return Morphism(obj, target, comps)


def _both_verdicts(catalog, z, parts, lifts):
    f = _assembled(catalog, z, parts, lifts)
    full = is_left_almost_split(f, catalog.members())
    return _is_left_almost_split_in_catalog(catalog, z, parts, lifts), full


@pytest.mark.parametrize("p", [2, 3])
def test_left_map_check_agrees_with_is_left_almost_split(p, request):
    catalog = request.getfixturevalue(f"catalog_p{p}")
    dropped = split_mono = 0
    for z in range(len(catalog)):
        lifts, parts = map(list, catalog.left_maps[z])
        assert _both_verdicts(catalog, z, parts, lifts) == (True, True)
        # a part repeated keeps every factorization: still left almost
        # split, only not minimal
        assert _both_verdicts(catalog, z, parts + parts[:1], lifts + lifts[:1]) == (True, True)
        # the identity as an extra part makes f a split mono
        ident = Morphism.identity(catalog.objects[z])
        assert _both_verdicts(catalog, z, parts + [z], lifts + [ident]) == (False, False)
        split_mono += 1
        # one irreducible map dropped no longer factors through the rest
        if len(parts) > 1:
            assert _both_verdicts(catalog, z, parts[:-1], lifts[:-1]) == (False, False)
            dropped += 1
    assert dropped >= 10 and split_mono == len(catalog)

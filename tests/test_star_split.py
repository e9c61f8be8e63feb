"""The idempotent split at `*`, and each part's End read off its parent's.

On a subspace representation `decomp.indecompose` draws theta at `*`
only: theta_* X_v = X_v theta_v with every X_v injective, so the minimal
polynomial of theta_* is that of the total matrix, and its idempotents
are lifted from `*`.  A part P = im(incl . proj) gets End(P) =
proj . End . incl, reduced by `ffmat.kernel_basis_of_span` to the basis
`hom_basis(P, P)` returns, and a part whose End its own factor q^m
generates (dim End(P) = m deg q) starts as a certified leaf.  Checked
here: the new primitive against `kernel_basis` at p = 2, 3, 5 and
2^31 - 1, with dependent, empty and zero-row spanning sets; every part's
End against `hom_basis(part, part)`, byte for byte, on the example poset
at n = 1..4, S(n) sums and general representations; the minimal
polynomial at `*`; the factor-certified parts against `is_local`; and one
`hom_basis` call per `indecompose` input.
"""

from functools import lru_cache

import numpy as np
import pytest

import subrep.decomp as decomp
import subrep.posetrep as posetrep
from subrep.artheory import build_catalog
from subrep.decomp import indecompose, is_local
from subrep.examples import example_quiver
from subrep.ffmat import (
    Matrix,
    PrimeField,
    factor,
    kernel_basis,
    kernel_basis_of_span,
    min_poly,
)
from subrep.lambdamod import LambdaAlgebra
from subrep.posetrep import STAR, Poset, QuiverStar, direct_sum, end_algebra, hom_basis
from subrep.sampling import random_representation, random_subspace_representation

QUIVER = example_quiver()
CAPS = {"1": 2, "2": 3, "3": 3, STAR: 4}
CORPUS_CAPS = {"1": 4, "2": 8, "3": 8, STAR: 10}
PRIMES = (2, 3, 2**31 - 1)


def _same(a, b):
    return a.a.shape == b.a.shape and a.a.tobytes() == b.a.tobytes()


def _inputs(p, n, seed):
    algebra = LambdaAlgebra(PrimeField(p), n)
    rng = np.random.default_rng(seed)
    subs = [random_subspace_representation(QUIVER, algebra, CAPS, rng) for _ in range(3)]
    general = [random_representation(QUIVER, algebra, CAPS, rng) for _ in range(3)]
    return subs + general + [direct_sum([subs[0], general[0]]).rep]


@lru_cache(maxsize=None)
def _s_objects(n):
    one = QuiverStar(Poset(["1"], []))
    return tuple(build_catalog(one, LambdaAlgebra(PrimeField(2), n)).objects)


def _s_sums(n):
    objs = _s_objects(n)
    return [direct_sum([a, b]).rep for a, b in zip(objs, objs[1:])] + [direct_sum(objs[:3]).rep]


@pytest.fixture
def splits(monkeypatch):
    """(part, irreducible, multiplicity) of every part `indecompose` cuts
    off, in order: `_crt_idempotents` hands out one idempotent per factor
    and `image_subrep` turns it into the part."""
    factor_of, seen = {}, []
    crt, image = decomp._crt_idempotents, decomp.image_subrep

    def recording_crt(x, theta, interpolants):
        idems = crt(x, theta, interpolants)
        mp = min_poly(theta)
        factors = decomp._crt_interpolants(mp.field, mp.coeffs)[0]
        factor_of.update({id(e): f for e, f in zip(idems, factors)})
        return idems

    def recording_image(e):
        out = image(e)
        seen.append((out[0], *factor_of.pop(id(e))))
        return out

    monkeypatch.setattr(decomp, "_crt_idempotents", recording_crt)
    monkeypatch.setattr(decomp, "image_subrep", recording_image)
    return seen


# -- the primitive ------------------------------------------------------------


@pytest.mark.parametrize("p", (2, 3, 5, 2**31 - 1))
def test_kernel_basis_of_span_is_the_kernel_basis(p):
    field = PrimeField(p)
    rng = np.random.default_rng(3000 + p % 1000)
    checked = 0
    for rows, cols in [(0, 5), (5, 5), (2, 7), (4, 9), (3, 3), (6, 4), (1, 12), (3, 0)]:
        for _ in range(4):
            system = Matrix(field, rng.integers(0, p, size=(rows, cols)))
            if rows and rng.integers(0, 2):
                # a dependent system: its last row repeats the first
                system = system.vstack(Matrix(field, system.a[:1]))
            want = kernel_basis(system)
            d = want.cols
            spans = [
                want,
                # dependent: more columns than the dimension, or zero columns
                want @ Matrix(field, np.hstack([rng.integers(0, p, size=(d, 3)), np.eye(d)])),
                want.hstack(Matrix.zeros(field, cols, 2)).hstack(want.scale(p - 1)),
                # the same space in another basis, columns reversed
                (want @ Matrix(field, np.triu(rng.integers(1, p, size=(d, d))))).take_columns(
                    range(d - 1, -1, -1)
                ),
            ]
            for span in spans:
                assert _same(kernel_basis_of_span(span), want)
                checked += 1
    assert checked >= 100


@pytest.mark.parametrize("p", (2, 3, 5, 2**31 - 1))
def test_kernel_basis_of_span_empty_shapes(p):
    field = PrimeField(p)
    # no spanning vectors: the zero space, the kernel of I_L
    for dim in (0, 1, 4):
        got = kernel_basis_of_span(Matrix.zeros(field, dim, 0))
        assert got.a.shape == (dim, 0)
        assert _same(got, kernel_basis(Matrix.identity(field, dim)))
    # no coordinates: every system has 0 columns, and the kernel basis is 0 x 0
    for k in (0, 3):
        got = kernel_basis_of_span(Matrix.zeros(field, 0, k))
        assert got.a.shape == (0, 0)
        assert _same(got, kernel_basis(Matrix.zeros(field, 2, 0)))
    # zero spanning vectors span the zero space too
    assert _same(kernel_basis_of_span(Matrix.zeros(field, 3, 2)), Matrix.zeros(field, 3, 0))


# -- the split ----------------------------------------------------------------


def _part_ends_match(inputs, splits):
    parts = 0
    for x in inputs:
        for seed in (0, 1):
            splits.clear()
            indecompose(x, seed)
            for part, _, _ in splits:
                got, want = part._end.space, hom_basis(part, part)
                assert _same(got._held(), want._held())
                assert _same(got.basis_matrix(), want.basis_matrix())
                parts += 1
    return parts


@pytest.mark.parametrize("p", PRIMES)
def test_part_ends_equal_hom_basis_on_the_example_poset(p, splits):
    inputs = [x for n in (1, 2, 3, 4) for x in _inputs(p, n, 3100 * n + p % 1000)]
    assert _part_ends_match(inputs, splits) >= 50


def test_part_ends_equal_hom_basis_on_s_n_sums(splits):
    inputs = [x for n in (1, 2, 3, 4) for x in _s_sums(n)]
    assert _part_ends_match(inputs, splits) >= 50


def test_part_ends_equal_hom_basis_on_general_inputs(splits):
    inputs = []
    for p in (2, 3):
        algebra = LambdaAlgebra(PrimeField(p), 2)
        rng = np.random.default_rng(3200 + p)
        inputs += [random_representation(QUIVER, algebra, CORPUS_CAPS, rng) for _ in range(3)]
    assert not any(x.is_subspace_rep() for x in inputs)
    assert _part_ends_match(inputs, splits) >= 10


@pytest.mark.parametrize("p", PRIMES)
def test_min_poly_at_star_is_the_total_min_poly(p):
    checked = 0
    for n in (1, 2, 3):
        algebra = LambdaAlgebra(PrimeField(p), n)
        rng = np.random.default_rng(3300 * n + p % 1000)
        for _ in range(4):
            x = random_subspace_representation(QUIVER, algebra, CAPS, rng)
            ends = end_algebra(x)
            for _ in range(3):
                theta = ends.element(rng.integers(0, p, size=ends.dim))
                star = theta.components[STAR]
                assert min_poly(star) == min_poly(theta.total_matrix())
                checked += x.dim(STAR) > 0
    assert checked >= 20


@pytest.mark.parametrize("p", (2, 3))
def test_factor_certified_parts_are_local(p, splits, monkeypatch):
    # every node's loop starts with end_algebra(node); the min_poly calls
    # that follow, up to the next node, are its split attempts
    events = []
    ends, min_poly_ = decomp.end_algebra, decomp.min_poly
    monkeypatch.setattr(decomp, "end_algebra", lambda x: events.append(x) or ends(x))
    monkeypatch.setattr(decomp, "min_poly", lambda m: events.append(None) or min_poly_(m))
    certified = 0
    inputs = [x for n in (2, 3) for x in _inputs(p, n, 3400 * n + p)]
    algebra = LambdaAlgebra(PrimeField(p), 2)
    rng = np.random.default_rng(3450 + p)
    inputs += [random_subspace_representation(QUIVER, algebra, CORPUS_CAPS, rng) for _ in range(3)]
    for x in inputs:
        for seed in range(3):
            splits.clear()
            events.clear()
            d = indecompose(x, seed)
            for part, irr, mult in splits:
                if part._end.dim > 1 and part._end.dim == mult * irr.degree():
                    certified += 1
                    # a leaf as it stands, with no split attempt computed
                    assert any(s.rep is part for s in d.summands)
                    start = next(i for i, e in enumerate(events) if e is part)
                    assert events[start + 1 : start + 2] != [None]
                    assert is_local(ends(part))
    assert certified >= 10


def test_indecompose_solves_one_hom_space_per_input(monkeypatch):
    calls = []
    solve = posetrep.hom_basis

    def counting(x, y):
        calls.append((x, y))
        return solve(x, y)

    monkeypatch.setattr(posetrep, "hom_basis", counting)
    algebra = LambdaAlgebra(PrimeField(3), 2)
    rng = np.random.default_rng(3500)
    inputs = [random_subspace_representation(QUIVER, algebra, CORPUS_CAPS, rng) for _ in range(3)]
    inputs += [random_representation(QUIVER, algebra, CAPS, rng) for _ in range(3)]
    parts = 0
    for x in inputs:
        calls.clear()
        d = indecompose(x, 0)
        parts += len(d.summands)
        assert calls == [(x, x)]
    assert parts >= 2 * len(inputs)


def test_factor_makes_a_generator_only_for_an_equal_degree_split(monkeypatch):
    field = PrimeField(3)
    made = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: made.append(seed) or default_rng(seed))
    x = min_poly(Matrix(field, [[0, 1], [2, 0]]))  # x^2 + 1, irreducible over F_3
    assert factor(x) == [(x, 1)] and made == []
    # (x^2 + 1)^2 (x - 1): squarefree parts of distinct degrees, no split
    cube = x * x * min_poly(Matrix(field, [[1]]))
    assert len(factor(cube)) == 2 and made == []
    # x (x - 1) (x - 2): three linear factors, one equal-degree split
    split = min_poly(Matrix(field, np.diag([0, 1, 2])))
    assert [f.degree() for f, _ in factor(split)] == [1, 1, 1] and made == [0]

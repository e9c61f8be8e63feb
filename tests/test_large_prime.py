"""Property tests at p = 2^31 - 1, where the int64 guards of `_matmul_mod`
and the numpy elimination apply: the Lambda-module constructions against
their defining identities, and both approximations against their
factorization properties."""

import numpy as np
import pytest

from subrep.approx import left_approx, right_approx
from subrep.artheory import indecomposable_projectives
from subrep.examples import example_quiver
from subrep.ffmat import Matrix, PrimeField, column_space_basis
from subrep.lambdamod import (
    LambdaAlgebra,
    block_invariants,
    injective_envelope,
    lift_through_mono,
    quotient_module,
    socle,
    submodule,
)
from subrep.posetrep import hom_basis
from subrep.sampling import (
    random_invariant_subspace,
    random_module,
    random_representation,
    random_subspace_representation,
)

from oracles import (
    all_free_representation,
    is_injective_module,
    verify_left_approx,
    verify_right_approx,
)

P31 = PrimeField(2**31 - 1)
QUIVER = example_quiver()


def _modules(n, count, seed):
    """Seeded random modules over k[T]/T^n with a random invariant
    subspace of each."""
    algebra = LambdaAlgebra(P31, n)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        m = random_module(algebra, int(rng.integers(1, 7)), rng)
        sub = random_invariant_subspace(m, Matrix.identity(P31, m.dim), m.dim, rng)
        out.append((m, sub))
    return out


def _same_span(a, b):
    return a.rank() == b.rank() == a.hstack(b).rank()


@pytest.mark.parametrize("n", [2, 3])
def test_submodule_is_equivariant_inclusion(n):
    for m, sub in _modules(n, 8, seed=n):
        mod, span = submodule(m, sub)
        assert _same_span(span, sub) and span.rank() == span.cols == mod.dim
        assert m.t @ span == span @ mod.t


@pytest.mark.parametrize("n", [2, 3])
def test_quotient_module_is_exact(n):
    for m, sub in _modules(n, 8, seed=10 + n):
        q, (proj, _) = quotient_module(m, sub)
        assert proj @ m.t == q.t @ proj
        # 0 -> sub -> m -> q -> 0: proj is onto and its kernel is the span
        assert proj.rank() == q.dim == m.dim - sub.rank()
        assert (proj @ sub).is_zero()


@pytest.mark.parametrize("n", [2, 3])
def test_injective_envelope_is_essential_mono(n):
    for m, _ in _modules(n, 8, seed=20 + n):
        env, emb = injective_envelope(m)
        assert is_injective_module(env)
        assert len(block_invariants(env)) == len(block_invariants(m))
        assert emb @ m.t == env.t @ emb
        assert emb.rank() == m.dim
        # emb restricts to an isomorphism of socles
        assert _same_span(column_space_basis(emb @ socle(m)), socle(env))


@pytest.mark.parametrize("n", [2, 3])
def test_lift_through_mono_composes_back(n):
    for b, sub in _modules(n, 8, seed=30 + n):
        a, a_to_b = submodule(b, sub)
        env, a_to_i = injective_envelope(a)
        e = lift_through_mono(a_to_b, a_to_i, b, env)
        assert e @ a_to_b == a_to_i
        assert e @ b.t == env.t @ e


def _approx_inputs(seed):
    algebra = LambdaAlgebra(P31, 2)
    rng = np.random.default_rng(seed)
    caps = {"1": 2, "2": 3, "3": 3, "*": 4}
    tests = [random_subspace_representation(QUIVER, algebra, caps, rng) for _ in range(4)]
    tests += indecomposable_projectives(QUIVER, algebra) + [all_free_representation(algebra)]
    xs = [
        random_representation(QUIVER, algebra, {"1": 3, "2": 3, "3": 3, "*": 3}, rng)
        for _ in range(5)
    ]
    return tests, xs


def test_right_approx_factors_every_test_map():
    tests, xs = _approx_inputs(40)
    maps = 0
    for x in xs:
        res = right_approx(x)
        assert res.approx.is_subspace_rep() and res.structure_map.is_valid()
        assert verify_right_approx(res, tests) is None
        maps += sum(hom_basis(t, x).dim for t in tests)
    assert maps  # the check is not vacuous


def test_left_approx_factors_every_test_map():
    tests, xs = _approx_inputs(41)
    maps = 0
    for x in xs:
        res = left_approx(x)
        assert res.approx.is_subspace_rep() and res.structure_map.is_valid()
        assert verify_left_approx(res, tests) is None
        maps += sum(hom_basis(x, t).dim for t in tests)
    assert maps


@pytest.mark.parametrize("n", [2, 3])
def test_random_representation_commutes(n):
    # the sampler adds a random kernel combination to a particular
    # solution; a plain int64 product of kernel columns and coefficients
    # near 2^31 overflows and gives arrows that do not commute
    algebra = LambdaAlgebra(P31, n)
    rng = np.random.default_rng(4000 * n + 647)
    caps = {"1": 2, "2": 3, "3": 3, "*": 4}
    for _ in range(30):
        assert random_representation(QUIVER, algebra, caps, rng).validate() == []

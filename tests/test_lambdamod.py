import itertools

import numpy as np
import pytest

from subrep.errors import InternalContractViolation, NoSolutionError
from subrep.ffmat import Matrix, PrimeField, kernel_basis, solve
from subrep.lambdamod import (
    LambdaAlgebra,
    LambdaModule,
    block_invariants,
    direct_sum_modules,
    injective_envelope,
    jordan_basis,
    lift_through_mono,
    quotient_module,
    socle,
    submodule,
)

from oracles import is_equivariant, is_injective_module

F2 = PrimeField(2)
F3 = PrimeField(3)
L2 = LambdaAlgebra(F2, 2)
L3_2 = LambdaAlgebra(F3, 2)


def random_nilpotent_module(algebra, dim, rng):
    """Random module: random block sizes conjugated by a random invertible."""
    field = algebra.field
    sizes = []
    while sum(sizes) < dim:
        sizes.append(int(rng.integers(1, min(algebra.n, dim - sum(sizes)) + 1)))
    base = direct_sum_modules(
        [LambdaModule.block(algebra, s) for s in sizes]
        or [LambdaModule.zero(algebra)]
    )
    while True:
        g = Matrix(field, rng.integers(0, field.p, size=(dim, dim)))
        if g.rank() == dim:
            break
    ginv = solve(g, Matrix.identity(field, dim))
    return LambdaModule(algebra, g @ base.t @ ginv)


def test_rejects_non_nilpotent():
    with pytest.raises(ValueError):
        LambdaModule(L2, Matrix.identity(F2, 2))


@pytest.mark.parametrize("n", [1, 2, 3, 10**9])
def test_nilpotency_check_is_exact_at_any_bound(n):
    """t^n = 0 is checked with min(n, dim) products; the verdict is that
    of t^n itself: the shift of size d satisfies it exactly when d <= n."""
    algebra = LambdaAlgebra(F2, n)
    for d in range(1, 5):
        shift = Matrix(F2, np.eye(d, k=-1, dtype=np.int64))
        if d <= n:
            assert LambdaModule(algebra, shift).dim == d
        else:
            with pytest.raises(ValueError, match=f"t\\^{n} = 0"):
                LambdaModule(algebra, shift)
        with pytest.raises(ValueError):
            LambdaModule(algebra, Matrix.identity(F2, d))


def test_block_invariants_examples():
    one_block = LambdaModule(L2, Matrix(F2, [[0, 0], [1, 0]]))
    assert block_invariants(one_block) == (2,)
    trivial = LambdaModule(L2, Matrix.zeros(F2, 2, 2))
    assert block_invariants(trivial) == (1, 1)
    # total space of the 4-dimensional module with two free blocks
    free2 = LambdaModule.free(L2, 2)
    assert free2.dim == 4 and block_invariants(free2) == (2, 2)


def test_block_invariants_isomorphism_invariant():
    rng = np.random.default_rng(2)
    for _ in range(500):
        algebra = LambdaAlgebra(PrimeField(int(rng.choice([2, 3, 5]))), int(rng.choice([2, 3])))
        dim = int(rng.integers(1, 7))
        m = random_nilpotent_module(algebra, dim, rng)
        field = algebra.field
        while True:
            g = Matrix(field, rng.integers(0, field.p, size=(dim, dim)))
            if g.rank() == dim:
                break
        ginv = solve(g, Matrix.identity(field, dim))
        conj = LambdaModule(algebra, g @ m.t @ ginv)
        assert block_invariants(m) == block_invariants(conj)


def test_socle():
    free = LambdaModule.free(L2)
    s = socle(free)
    # socle of the free module is the image of T: spanned by (0,1)
    assert s.cols == 1 and (free.t @ s).is_zero()
    expected = kernel_basis(free.t)
    assert s == expected
    assert socle(LambdaModule.simple(L2)).cols == 1
    assert socle(LambdaModule.zero(L2)).cols == 0


def test_jordan_basis_shapes():
    rng = np.random.default_rng(3)
    for _ in range(100):
        algebra = LambdaAlgebra(PrimeField(int(rng.choice([2, 3]))), int(rng.choice([2, 3])))
        m = random_nilpotent_module(algebra, int(rng.integers(0, 7)), rng)
        j, sizes = jordan_basis(m)
        assert sum(sizes) == m.dim
        assert j.rank() == m.dim
        assert tuple(sorted(sizes, reverse=True)) == block_invariants(m)


def test_injective_envelope_simple():
    m = LambdaModule.simple(L2)
    env, emb = injective_envelope(m)
    assert block_invariants(env) == (2,)
    # the simple embeds as the socle: image killed by T, nonzero
    assert emb.rank() == 1 and (env.t @ emb).is_zero()


def test_injective_envelope_free_is_identity_up_to_iso():
    m = LambdaModule.free(L2)
    env, emb = injective_envelope(m)
    assert env.dim == 2 and emb.rank() == 2
    assert is_equivariant(emb, m, env)


def test_injective_envelope_mixed():
    m = direct_sum_modules([LambdaModule.simple(L2), LambdaModule.free(L2)])
    env, emb = injective_envelope(m)
    assert block_invariants(env) == (2, 2)
    assert emb.rank() == m.dim
    assert is_equivariant(emb, m, env)


def test_injective_envelope_random_mono_equivariant():
    rng = np.random.default_rng(4)
    for _ in range(120):
        algebra = LambdaAlgebra(PrimeField(int(rng.choice([2, 3, 5]))), int(rng.choice([2, 3])))
        m = random_nilpotent_module(algebra, int(rng.integers(0, 9)), rng)
        env, emb = injective_envelope(m)
        assert is_injective_module(env)
        assert emb.rank() == m.dim
        assert is_equivariant(emb, m, env)
        # socle goes to socle bijectively (essential extension, part 1)
        s = socle(m)
        if s.cols:
            image_soc = emb @ s
            assert image_soc.rank() == s.cols
            assert (env.t @ image_soc).is_zero()
        assert socle(env).cols == socle(m).cols


def all_vectors(field, dim):
    for tup in itertools.product(range(field.p), repeat=dim):
        if any(tup):
            yield Matrix(field, [[c] for c in tup])


def test_essentiality_brute_force():
    # every nonzero cyclic submodule of env meets emb(m): p=2, dim env <= 6
    rng = np.random.default_rng(5)
    for _ in range(25):
        m = random_nilpotent_module(L2, int(rng.integers(1, 4)), rng)
        env, emb = injective_envelope(m)
        if env.dim > 6:
            continue
        image = emb
        for v in all_vectors(F2, env.dim):
            sub = v.hstack(env.t @ v)  # cyclic submodule span
            # brute-force intersection: nonzero vector in both spans
            joint = image.hstack(sub)
            inter_dim = image.rank() + sub.rank() - joint.rank()
            assert inter_dim > 0


def test_lift_through_mono_identity_case():
    b = LambdaModule.free(L2)
    i_mod = LambdaModule.free(L2)
    a_to_i = Matrix.identity(F2, 2)
    e = lift_through_mono(Matrix.identity(F2, 2), a_to_i, b, i_mod)
    assert e == a_to_i


def test_lift_through_mono_socle_extension():
    # socle(Lambda) -> Lambda extended by the identity
    free = LambdaModule.free(L2)
    s = socle(free)
    sub, incl = submodule(free, s)
    e = lift_through_mono(incl, incl, free, free)
    assert e @ incl == incl
    assert is_equivariant(e, free, free)


def test_lift_through_mono_zero_target():
    free = LambdaModule.free(L2)
    s = socle(free)
    sub, incl = submodule(free, s)
    zero_map = Matrix.zeros(F2, 2, 1)
    e = lift_through_mono(incl, zero_map, free, free)
    assert (e @ incl).is_zero()
    assert is_equivariant(e, free, free)


def test_lift_through_mono_random():
    rng = np.random.default_rng(7)
    for _ in range(80):
        algebra = LambdaAlgebra(PrimeField(int(rng.choice([2, 3]))), 2)
        field = algebra.field
        a = random_nilpotent_module(algebra, int(rng.integers(1, 4)), rng)
        env_a, emb_a = injective_envelope(a)
        i_mod, a_to_i = injective_envelope(a)
        e = lift_through_mono(emb_a, a_to_i, env_a, i_mod)
        assert e @ emb_a == a_to_i
        assert is_equivariant(e, env_a, i_mod)


def test_non_injective_target_raises():
    # extending the socle inclusion along itself into the simple module
    # cannot be equivariant when the target is not injective
    free = LambdaModule.free(L2)
    s = socle(free)
    sub, incl = submodule(free, s)
    simple = LambdaModule.simple(L2)
    nonzero_to_simple = Matrix(F2, [[1]])
    with pytest.raises(InternalContractViolation):
        lift_through_mono(incl, nonzero_to_simple, free, simple)


@pytest.mark.parametrize("p", [2, 3, 2**31 - 1])
def test_submodule_rejects_a_span_that_is_not_invariant(p):
    field = PrimeField(p)
    free = LambdaModule.free(LambdaAlgebra(field, 2))
    # span{g}: T g = Tg leaves it
    with pytest.raises(NoSolutionError):
        submodule(free, Matrix(field, [[1], [0]]))
    # the socle span{Tg}, given twice: one basis column, on which T is 0
    sub, span = submodule(free, Matrix(field, [[0, 0], [1, 2]]))
    assert span == Matrix(field, [[0], [1]]) and sub.t == Matrix.zeros(field, 1, 1)


@pytest.mark.parametrize("p", [2, 3, 2**31 - 1])
def test_quotient_module_rejects_a_span_that_is_not_invariant(p):
    field = PrimeField(p)
    free = LambdaModule.free(LambdaAlgebra(field, 2))
    # span{g}: T g = Tg leaves it, so T induces no operator on the quotient
    with pytest.raises(NoSolutionError):
        quotient_module(free, Matrix(field, [[1], [0]]))
    # by the socle span{Tg}, given twice: the simple quotient
    quo, _ = quotient_module(free, Matrix(field, [[0, 0], [1, 2]]))
    assert quo.t == Matrix.zeros(field, 1, 1)

"""The vec(f) convention has one writer each: `ffmat.kron`, the
T-equivariance system `lambdamod.equivariance_system` and the per-vertex
view `posetrep._flat_rows` of flat hom coordinates.

`np.kron` stays here as the reference: `kron` must equal it, and
`equivariance_system` must equal t_src^T kron I - I kron t_dst built
with it, at p = 2, 3 and 2^31 - 1, nilpotency 1..4, zero-dimensional
modules included.  Its kernel must be exactly the T-equivariant maps,
whose dimension is sum min(a, b) over the block sizes a of the source
and b of the target.
"""

import numpy as np
import pytest

from subrep.examples import example_quiver
from subrep.ffmat import Matrix, PrimeField, kernel_basis, kron
from subrep.lambdamod import LambdaAlgebra, LambdaModule, block_invariants, equivariance_system
from subrep.posetrep import (
    STAR,
    Morphism,
    Representation,
    _flat_rows,
    _flat_size,
    hom_basis,
    morphism_from_flat,
)
from subrep.sampling import random_module, random_representation

PRIMES = [2, 3, 2**31 - 1]
SHAPES = [(0, 0), (0, 3), (2, 0), (1, 1), (2, 3), (4, 1), (3, 5)]


@pytest.mark.parametrize("p", PRIMES)
def test_kron_equals_numpy_kron(p):
    rng = np.random.default_rng(p % 1000)
    for sa in SHAPES:
        for sb in SHAPES:
            a = rng.integers(0, p, size=sa, dtype=np.int64)
            b = rng.integers(0, p, size=sb, dtype=np.int64)
            got = kron(a, b)
            assert got.dtype == np.int64
            assert np.array_equal(got, np.kron(a, b))
            # products of reduced entries stay below p^2 < 2^62
            assert got.size == 0 or got.max() < p * p


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_equivariance_system_equals_kron_reference(p, n):
    algebra = LambdaAlgebra(PrimeField(p), n)
    rng = np.random.default_rng(10 * n + p % 7)
    mods = [LambdaModule.zero(algebra), LambdaModule.free(algebra)]
    mods += [random_module(algebra, d, rng) for d in (1, 3, 5)]
    for src in mods:
        for dst in mods:
            eye_src = np.eye(src.dim, dtype=np.int64)
            eye_dst = np.eye(dst.dim, dtype=np.int64)
            ref = np.kron(src.t.a.T, eye_dst) - np.kron(eye_src, dst.t.a)
            got = equivariance_system(src, dst)
            assert got.shape == (src.dim * dst.dim, src.dim * dst.dim)
            assert np.array_equal(got, ref)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_equivariance_system_kernel_is_the_equivariant_maps(p, n):
    field = PrimeField(p)
    algebra = LambdaAlgebra(field, n)
    rng = np.random.default_rng(20 * n + p % 11)
    mods = [LambdaModule.zero(algebra)] + [random_module(algebra, d, rng) for d in (1, 2, 4)]
    for src in mods:
        for dst in mods:
            k = kernel_basis(Matrix(field, equivariance_system(src, dst)))
            sizes = [(a, b) for a in block_invariants(src) for b in block_invariants(dst)]
            assert k.cols == sum(min(a, b) for a, b in sizes)
            for j in range(k.cols):
                f = Matrix(field, k.a[:, j].reshape((dst.dim, src.dim), order="F"))
                assert f @ src.t == dst.t @ f


@pytest.mark.parametrize("p", PRIMES)
def test_morphism_from_flat_inverts_flatten(p):
    field = PrimeField(p)
    algebra = LambdaAlgebra(field, 2)
    quiver = example_quiver()
    rng = np.random.default_rng(p % 13)
    caps = {"1": 1, "2": 2, "3": 2, STAR: 3}
    reps = [Representation.constant(quiver, LambdaModule.zero(algebra))]
    reps += [random_representation(quiver, algebra, caps, rng) for _ in range(6)]
    assert any(0 in x.dim_vector() and x.total_dim() for x in reps)
    for x in reps:
        for y in reps:
            # any components, morphisms or not, and every hom basis element
            comps = {
                v: Matrix(field, rng.integers(0, p, size=(y.dim(v), x.dim(v))))
                for v in quiver.vertices
            }
            maps = [Morphism(x, y, comps)] + list(hom_basis(x, y).basis)
            for f in maps:
                assert morphism_from_flat(x, y, f.flatten()) == f
            slices = [rows for _, rows, _, _ in _flat_rows(x, y)]
            assert [s.start for s in slices] == [0] + [s.stop for s in slices[:-1]]
            assert slices[-1].stop == _flat_size(x, y)

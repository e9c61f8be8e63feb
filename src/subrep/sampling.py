"""Seeded random generators for modules, representations and subspace data.

Everything takes an explicit numpy Generator so that all randomized tests
and verification sweeps are reproducible.
"""

from __future__ import annotations

import numpy as np

from .errors import NoSolutionError
from .ffmat import Matrix, _matmul_mod, _wrap, column_space_basis, kernel_basis, kron, solve
from .lambdamod import LambdaAlgebra, LambdaModule, direct_sum_modules, equivariance_system
from .posetrep import STAR, QuiverStar, Representation, subspace_representation


def random_invertible(field, n, rng) -> Matrix:
    while True:
        g = Matrix(field, rng.integers(0, field.p, size=(n, n)))
        if g.rank() == n:
            return g


def random_module(algebra: LambdaAlgebra, dim: int, rng) -> LambdaModule:
    """Random block sizes conjugated by a random change of basis."""
    if dim == 0:
        return LambdaModule.zero(algebra)
    sizes = []
    while sum(sizes) < dim:
        sizes.append(int(rng.integers(1, min(algebra.n, dim - sum(sizes)) + 1)))
    base = direct_sum_modules([LambdaModule.block(algebra, s) for s in sizes])
    g = random_invertible(algebra.field, dim, rng)
    ginv = solve(g, Matrix.identity(algebra.field, dim))
    return LambdaModule(algebra, g @ base.t @ ginv)


def random_invariant_subspace(
    module: LambdaModule, ambient: Matrix, max_dim: int, rng
) -> Matrix:
    """Basis of a random T-invariant subspace of the given ambient span,
    of dimension at most max_dim.  The ambient span must be invariant."""
    field = module.algebra.field
    if ambient.cols == 0 or max_dim == 0:
        return Matrix.zeros(field, module.dim, 0)
    for gens in range(int(rng.integers(0, max_dim + 1)), -1, -1):
        if gens == 0:
            return Matrix.zeros(field, module.dim, 0)
        coeffs = Matrix(field, rng.integers(0, field.p, size=(ambient.cols, gens)))
        vectors = ambient @ coeffs
        cols = [vectors]
        for _ in range(module.algebra.n - 1):
            cols.append(module.t @ cols[-1])
        span = column_space_basis(_wrap(field, np.hstack([c.a for c in cols])))
        if span.cols <= max_dim:
            return span
    return Matrix.zeros(field, module.dim, 0)


def intersect_spans(field, spans):
    """Basis of the intersection of column spans (all in the same ambient)."""
    current = spans[0]
    for other in spans[1:]:
        stacked = current.hstack(other.scale(-1))
        k = kernel_basis(stacked)
        current = column_space_basis(current @ Matrix(field, k.a[: current.cols]))
    return current


def random_subspace_representation(
    quiver: QuiverStar, algebra: LambdaAlgebra, dim_caps, rng
) -> Representation:
    """Random subspace representation: nested invariant subspaces of a
    random module at the top.  dim_caps maps vertices to dimension caps."""
    field = algebra.field
    star = random_module(algebra, int(dim_caps[STAR]), rng)
    spans = {STAR: Matrix.identity(field, star.dim)}
    for v in reversed(quiver.poset.points):
        above = [spans[t] for (s, t) in quiver.arrows_from(v)]
        ambient = intersect_spans(field, above) if above else spans[STAR]
        spans[v] = random_invariant_subspace(star, ambient, int(dim_caps[v]), rng)
    return subspace_representation(quiver, star, spans)[0]


def random_representation(quiver: QuiverStar, algebra: LambdaAlgebra, dim_caps, rng) -> Representation:
    """Random representation (not necessarily by subspaces).

    Spaces are random modules; arrow matrices are sampled one arrow at a
    time as random solutions of the equivariance and path-commutativity
    constraints accumulated so far.  Resamples, up to 100 times, when a
    constraint system becomes inconsistent.
    """
    field = algebra.field
    p = field.p
    for _ in range(100):
        dims = {v: int(rng.integers(0, int(dim_caps[v]) + 1)) for v in quiver.vertices}
        spaces = {v: random_module(algebra, dims[v], rng) for v in quiver.vertices}
        comp = {v: {v: Matrix.identity(field, dims[v])} for v in quiver.vertices}
        maps = {}
        for (s, t) in quiver.arrows:
            ds, dt = dims[s], dims[t]
            rows = [equivariance_system(spaces[s], spaces[t])]
            rhs = [np.zeros((ds * dt, 1), dtype=np.int64)]
            for u in quiver.vertices:
                if s in comp[u] and t in comp[u]:
                    rows.append(kron(comp[u][s].a.T, np.eye(dt, dtype=np.int64)))
                    rhs.append(comp[u][t].a.reshape(-1, 1, order="F"))
            system = Matrix(field, np.vstack(rows))
            target = Matrix(field, np.vstack(rhs))
            try:
                particular = solve(system, target)
            except NoSolutionError:
                break
            k = kernel_basis(system)
            vec = particular.a[:, 0]
            if k.cols:
                coeffs = rng.integers(0, p, size=(k.cols, 1))
                vec = (vec + _matmul_mod(k.a, coeffs, p)[:, 0]) % p
            m = Matrix(field, vec.reshape((dt, ds), order="F"))
            maps[(s, t)] = m
            for u in quiver.vertices:
                if s in comp[u] and t not in comp[u]:
                    comp[u][t] = m @ comp[u][s]
        else:
            return Representation(quiver, algebra, spaces, maps)
    raise NoSolutionError("could not sample a commuting representation")


def random_subspace_config(field, max_dim, rng):
    """Random valid invariant-subspace configuration (nilpotency index 2)."""
    from .birkhoff import SubspaceConfig

    algebra = LambdaAlgebra(field, 2)
    dim = int(rng.integers(0, max_dim + 1))
    v = random_module(algebra, dim, rng)
    full = Matrix.identity(field, dim)
    v2 = random_invariant_subspace(v, full, dim, rng)
    v3 = random_invariant_subspace(v, full, dim, rng)
    inter = intersect_spans(field, [v2, v3]) if dim else Matrix.zeros(field, 0, 0)
    v1 = random_invariant_subspace(v, inter, inter.cols, rng)
    return SubspaceConfig(v, v1, v2, v3)

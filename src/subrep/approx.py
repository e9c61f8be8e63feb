"""Left and right approximations of representations by subspace systems.

The right approximation adjoins, vertex by vertex, the injective envelope
of the kernel of the composite map to the top, forcing every arrow to
become injective; the left approximation replaces each vertex space by
its image in the top space.  Both come with structure maps through which
every test map from/to a subspace representation factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnknownVertexError
from .ffmat import Matrix, column_space_basis, kernel_basis, solve
from .lambdamod import (
    direct_sum_modules,
    injective_envelope,
    lift_through_mono,
    submodule,
)
from .posetrep import (
    STAR,
    Morphism,
    Representation,
    hom_basis,
    postcompose,
    precompose,
)


@dataclass
class ApproxResult:
    approx: Representation
    structure_map: Morphism  # r: approx -> x for right/mimo, l: x -> approx for left
    kind: str  # "left" | "right" | "mimo"


def left_approx(x: Representation) -> ApproxResult:
    """Replace each vertex space by its image inside the top space.

    The result has inclusion arrows, hence is a subspace representation;
    the structure map collects the corestricted composites to the top and
    the identity at the top.
    """
    quiver = x.quiver
    field = x.field
    star_mod = x.spaces[STAR]
    images = {}
    incls = {}
    for v in quiver.vertices:
        comp = x.composite_map(v, STAR)
        mod, span = submodule(star_mod, column_space_basis(comp))
        images[v] = mod
        incls[v] = span  # basis of im X_{v*} inside X_*
    maps = {}
    for (s, t) in quiver.arrows:
        if incls[t].cols:
            maps[(s, t)] = solve(incls[t], incls[s])
        else:
            maps[(s, t)] = Matrix.zeros(field, 0, incls[s].cols)
    approx = Representation(quiver, x.algebra, images, maps)
    comps = {}
    for v in quiver.vertices:
        comp = x.composite_map(v, STAR)
        if incls[v].cols:
            comps[v] = solve(incls[v], comp)
        else:
            comps[v] = Matrix.zeros(field, 0, x.dim(v))
    structure = Morphism(x, approx, comps)
    return ApproxResult(approx, structure, "left")


def mimo_k(x: Representation, k) -> ApproxResult:
    """Adjoin the injective envelope of ker(X_{k*}) above vertex k.

    Vertices i <= k keep their spaces; every other vertex i gets
    X_i + I_k, where (I_k, ebar) is the injective envelope of the kernel
    and e_k extends ebar along the inclusion ker -> X_k.  Arrows follow
    the three-case formula; the structure map kills the new coordinates.
    """
    quiver = x.quiver
    if k not in quiver.vertices or k == STAR:
        raise UnknownVertexError(f"{k!r} is not a poset vertex")
    field = x.field
    comp_to_star = x.composite_map(k, STAR)
    ker = kernel_basis(comp_to_star)
    ker_mod, kappa = submodule(x.spaces[k], ker)
    env, ebar = injective_envelope(ker_mod)
    e_k = lift_through_mono(kappa, ebar, x.spaces[k], env)
    d_env = env.dim

    def augmented(v):
        return not quiver.leq(v, k)

    spaces = {}
    for v in quiver.vertices:
        spaces[v] = (
            direct_sum_modules([x.spaces[v], env]) if augmented(v) else x.spaces[v]
        )
    maps = {}
    for (s, t) in quiver.arrows:
        a = x.arrow_maps[(s, t)]
        if not augmented(t):
            maps[(s, t)] = a
        elif not augmented(s):
            maps[(s, t)] = a.vstack(e_k @ x.composite_map(s, k))
        else:
            block = np.zeros((a.rows + d_env, a.cols + d_env), dtype=np.int64)
            block[: a.rows, : a.cols] = a.a
            block[a.rows :, a.cols :] = np.eye(d_env, dtype=np.int64)
            maps[(s, t)] = Matrix(field, block)
    approx = Representation(quiver, x.algebra, spaces, maps)
    comps = {}
    for v in quiver.vertices:
        d = x.dim(v)
        if augmented(v):
            proj = np.zeros((d, d + d_env), dtype=np.int64)
            proj[:, :d] = np.eye(d, dtype=np.int64)
            comps[v] = Matrix(field, proj)
        else:
            comps[v] = Matrix.identity(field, d)
    structure = Morphism(approx, x, comps)
    return ApproxResult(approx, structure, "mimo")


def right_approx(x: Representation) -> ApproxResult:
    """Compose the envelope adjunction over every poset vertex, from the
    top of the stored linear extension down to the bottom.  All arrows of
    the result are monomorphisms, so it is a subspace representation."""
    current = x
    structure = Morphism.identity(x)
    for k in reversed(x.quiver.poset.points):
        step = mimo_k(current, k)
        structure = structure @ step.structure_map
        current = step.approx
    return ApproxResult(current, structure, "right")


def _first_unfactored(tests, homs_from, span_from):
    """The first (test, h) with h in the basis of homs_from(test) but not
    in the span span_from(test); None when every such map lies in it."""
    for test in tests:
        homs = homs_from(test)
        if homs.dim == 0:
            continue
        span = span_from(test)
        if span.coefficients(homs) is None:
            return test, next(h for h in homs.basis if span.coefficients([h]) is None)
    return None


def verify_right_approx(res: ApproxResult, tests):
    """Check the factorization property of r: R(x) -> x.

    For every test object F and every h: F -> x, some h': F -> R(x)
    satisfies r . h' = h.  Returns None when all pass, else the failing
    (test, morphism) pair.
    """
    r = res.structure_map
    return _first_unfactored(
        tests, lambda t: hom_basis(t, r.target), lambda t: postcompose(r, t)
    )


def verify_left_approx(res: ApproxResult, tests):
    """Dual factorization check for l: x -> L(x): every h: x -> F factors
    as h' . l.  Returns None when all pass, else the failing pair."""
    l = res.structure_map
    return _first_unfactored(
        tests, lambda t: hom_basis(l.source, t), lambda t: precompose(l, t)
    )

"""Left and right approximations of representations by subspace systems.

The right approximation adjoins, vertex by vertex, the injective envelope
of the kernel of the composite map to the top, forcing every arrow to
become injective; the left approximation replaces each vertex space by
its image in the top space.  Both come with structure maps through which
every test map from/to a subspace representation factors.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UnknownVertexError
from .ffmat import Matrix, _matmul_mod, _wrap, block_diag, kernel_frame
from .lambdamod import (
    LambdaModule,
    direct_sum_modules,
    injective_envelope,
    lift_through_mono,
)
from .posetrep import (
    STAR,
    Morphism,
    Representation,
    image_subrep,
)


@dataclass
class ApproxResult:
    approx: Representation
    structure_map: Morphism  # r: approx -> x for right/mimo, l: x -> approx for left
    kind: str  # "left" | "right" | "mimo"


def left_approx(x: Representation) -> ApproxResult:
    """Replace each vertex space by its image inside the top space: the
    image of the composites v -> '*' in the constant representation at
    the top.  It has inclusion arrows, hence is a subspace representation;
    the structure map is the corestriction."""
    top = Representation.constant(x.quiver, x.spaces[STAR])
    composites = {v: x.composite_map(v, STAR) for v in x.quiver.vertices}
    approx, _, structure = image_subrep(Morphism(x, top, composites))
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
    # the kernel K, with K[F] = I, carries T_k[F] K (`posetrep._kernel_frames`)
    kappa, free = kernel_frame(x.composite_map(k, STAR))
    t_ker = _matmul_mod(x.spaces[k].t.a[free], kappa.a, field.p)
    env, ebar = injective_envelope(LambdaModule(x.algebra, _wrap(field, t_ker)))
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
            maps[(s, t)] = block_diag(field, [a, Matrix.identity(field, d_env)])
    approx = Representation(quiver, x.algebra, spaces, maps)
    comps = {}
    for v in quiver.vertices:
        comps[v] = Matrix.identity(field, x.dim(v))
        if augmented(v):
            # [I | 0]: the envelope block has no rows
            comps[v] = block_diag(field, [comps[v], Matrix.zeros(field, 0, d_env)])
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


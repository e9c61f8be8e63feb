"""Exact toolkit for subspace representations of finite posets over
truncated polynomial rings k[T]/T^n, with prime-field coefficients.

Core layers: exact linear algebra (ffmat), module structure theory
(lambdamod), representations of the augmented quiver (posetrep),
approximations by subspace systems (approx), Krull-Schmidt decomposition
(decomp), almost-split machinery and catalogs (artheory), the projective
chase and the invariant-subspace pipeline (birkhoff), text formats
(repfile) and a CLI (cli).
"""

__version__ = "0.1.0"

from .approx import ApproxResult, left_approx, mimo_k, right_approx
from .artheory import (
    ARSequence,
    Catalog,
    build_catalog,
    dtr,
    export_quiver,
    indecomposable_projectives,
    is_left_almost_split,
    is_right_almost_split,
    verify_ar_sequence,
)
from .birkhoff import (
    SubspaceConfig,
    decompose_full,
    from_invariant_subspaces,
    harada_sai_check,
    invariant_subspace_report,
    split_off_summand,
)
from .decomp import (
    Decomposition,
    RadicalData,
    indecompose,
    radical,
)
from .ffmat import (
    Matrix,
    Poly,
    PrimeField,
    char_poly,
    factor,
    kernel_basis,
    min_poly,
    rref,
    solve,
)
from .lambdamod import (
    LambdaAlgebra,
    LambdaModule,
    block_invariants,
    injective_envelope,
    lift_through_mono,
    socle,
)
from .posetrep import (
    EndAlgebra,
    HomSpace,
    Morphism,
    Poset,
    QuiverStar,
    Representation,
    direct_sum,
    end_algebra,
    example_poset,
    hom_basis,
    split_by_retraction,
)
from .repfile import (
    load_catalog,
    parse_representation,
    parse_subspace_config,
    save_catalog,
    serialize_representation,
    serialize_subspace_config,
)

"""Distinguished representations on the worked-example quiver.

The example poset has three points with 1 < 2 and 1 < 3, so a subspace
representation is a system V_1 <= V_2, V_1 <= V_3 of T-invariant
subspaces of the total space at '*'.
"""

from __future__ import annotations

from .ffmat import Matrix
from .lambdamod import LambdaAlgebra, LambdaModule
from .posetrep import QuiverStar, Representation, example_poset


def example_quiver() -> QuiverStar:
    return QuiverStar(example_poset())


def all_free_representation(algebra: LambdaAlgebra) -> Representation:
    """I(*): the rank-one free module at every vertex with identity arrows.

    This is the indecomposable projective attached to the bottom point,
    the unique catalog member whose space at vertex 1 has dimension n.
    """
    return Representation.constant(example_quiver(), LambdaModule.free(algebra))


def twisted_pair_representation(algebra: LambdaAlgebra) -> Representation:
    """The exceptional indecomposable with dimension vector (1, 3, 3, 4).

    Total space Lambda + Lambda with basis (e, Te, f, Tf); the three
    subspaces are span{Te}, span{Te, f, Tf} and span{e+f, Te+Tf, Tf}.
    Only defined for nilpotency bound 2.
    """
    if algebra.n != 2:
        raise ValueError("this representation lives over nilpotency bound 2")
    field = algebra.field
    quiver = example_quiver()
    total = LambdaModule.free(algebra, 2)
    # span{Te}
    x1 = LambdaModule(algebra, Matrix.zeros(field, 1, 1))
    # basis (Te, f, Tf)
    x2 = LambdaModule(algebra, Matrix(field, [[0, 0, 0], [0, 0, 0], [0, 1, 0]]))
    # basis (e+f, T(e+f), Tf)
    x3 = LambdaModule(algebra, Matrix(field, [[0, 0, 0], [1, 0, 0], [0, 0, 0]]))
    spaces = {"1": x1, "2": x2, "3": x3, "*": total}
    maps = {
        ("1", "2"): Matrix(field, [[1], [0], [0]]),
        ("1", "3"): Matrix(field, [[0], [1], [-1]]),
        ("2", "*"): Matrix(field, [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]),
        ("3", "*"): Matrix(field, [[1, 0, 0], [0, 1, 0], [1, 0, 0], [0, 1, 1]]),
    }
    return Representation(quiver, algebra, spaces, maps)

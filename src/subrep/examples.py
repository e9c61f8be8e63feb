"""The worked-example quiver.

The example poset has three points with 1 < 2 and 1 < 3, so a subspace
representation is a system V_1 <= V_2, V_1 <= V_3 of T-invariant
subspaces of the total space at '*'.
"""

from __future__ import annotations

from .posetrep import QuiverStar, example_poset


def example_quiver() -> QuiverStar:
    return QuiverStar(example_poset())

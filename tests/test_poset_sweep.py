"""No short catalogs on the small posets.

At n = 1 the indecomposable subspace representations of a poset P of
finite type correspond to the positive roots of its Tits form
q(x) = x_0^2 + sum x_i^2 + sum_{i<j comparable} x_i x_j - x_0 sum x_i,
minus the |P| roots (0; e_i), which have no space at '*' (Drozd 1974,
Kleiner 1972).  Over every poset with 3 or 4 points, up to isomorphism,
`build_catalog` at p = 2 must either find that many objects or raise
ClosureStalledError; it must never return fewer.  The 4-antichain has
infinite type and is never built.  The V poset (1 < 3, 2 < 3) and the
N poset (1 < 2, 3 < 2, 3 < 4) lack a least point, so they need the I(*)
seed, and they close with 5 and 8 objects.  No catalog that closes has
a periodic tau-orbit: every tau-chain ends at a projective (measured).
"""

import itertools
from functools import lru_cache

import numpy as np
import pytest

from subrep.artheory import build_catalog
from subrep.errors import ClosureStalledError
from subrep.ffmat import PrimeField
from subrep.lambdamod import LambdaAlgebra
from subrep.posetrep import Poset, QuiverStar

from oracles import tau_orbits


def _canonical(size, rel):
    return min(
        tuple(sorted((perm[a], perm[b]) for a, b in rel))
        for perm in itertools.permutations(range(size))
    )


def _posets(size):
    """One strict order relation per isomorphism class of posets on
    range(size), each with a < b only for a < b as integers, so range(size)
    is a linear extension (every poset has one)."""
    pairs = list(itertools.combinations(range(size), 2))
    found = {}
    for mask in range(2 ** len(pairs)):
        rel = {pair for i, pair in enumerate(pairs) if mask >> i & 1}
        transitive = all(
            (a, c) in rel for (a, b), (b2, c) in itertools.product(rel, rel) if b == b2
        )
        if transitive:
            found.setdefault(_canonical(size, rel), rel)
    return list(found.values())


def _root_count(size, rel):
    """Positive roots of the Tits form with x_0 > 0, in the smallest box
    [0, b]^(1 + size) whose count does not change when b grows by 2."""

    def count(bound):
        grid = np.indices((bound + 1,) * (size + 1)).reshape(size + 1, -1)
        x0, xs = grid[0], grid[1:]
        q = x0 * x0 + (xs * xs).sum(axis=0) - x0 * xs.sum(axis=0)
        q += sum(xs[a] * xs[b] for a, b in rel)
        # q(0) = 0, and the (0; e_i) are the only roots with x_0 = 0 here
        return int(np.count_nonzero(q == 1)) - size

    bound = 2
    while count(bound) != count(bound + 2):
        bound += 2
    return count(bound)


SWEEP = [(size, rel) for size in (3, 4) for rel in _posets(size) if size == 3 or rel]
V = _canonical(3, {(0, 2), (1, 2)})
N = _canonical(4, {(0, 1), (2, 1), (2, 3)})
MUST_CLOSE = {(3, V): 5, (4, N): 8}


def _name(case):
    size, rel = case
    return f"{size}:" + (",".join(f"{a + 1}<{b + 1}" for a, b in sorted(rel)) or "antichain")


def test_sweep_covers_every_small_poset_of_finite_type():
    # 5 posets on 3 points and 16 on 4, less the 4-antichain
    assert len(SWEEP) == 20
    keys = {(size, _canonical(size, rel)) for size, rel in SWEEP}
    assert len(keys) == 20 and set(MUST_CLOSE) <= keys


def test_root_counts_of_known_posets():
    # D_4 (the 3-antichain) has 12 positive roots, 9 of them with x_0 > 0
    assert _root_count(3, set()) == 9
    # a chain: one flag with V_* = k per final segment of the points
    assert _root_count(3, {(0, 1), (0, 2), (1, 2)}) == 4
    assert _root_count(3, {(0, 2), (1, 2)}) == 5
    assert _root_count(4, {(0, 1), (2, 1), (2, 3)}) == 8


@lru_cache(maxsize=None)
def _catalog(size, rel):
    """The n = 1 catalog at p = 2 of the poset with strict order `rel` (a
    frozenset) on `size` points, or None when its closure stalls."""
    labels = [str(i + 1) for i in range(size)]
    poset = Poset(labels, [(labels[a], labels[b]) for a, b in rel])
    try:
        return build_catalog(QuiverStar(poset), LambdaAlgebra(PrimeField(2), 1))
    except ClosureStalledError:
        return None


@pytest.mark.parametrize("case", SWEEP, ids=_name)
def test_catalog_has_the_root_count_or_stalls(case):
    size, rel = case
    key = (size, _canonical(size, rel))
    roots = _root_count(size, rel)
    catalog = _catalog(size, frozenset(rel))
    if catalog is None:
        assert key not in MUST_CLOSE
        return
    assert len(catalog) == roots == MUST_CLOSE.get(key, roots)


def test_no_tau_orbit_is_periodic():
    # a pin, measured on the 13 catalogs that close: every tau-chain ends
    # at a projective
    closed = 0
    for size, rel in SWEEP:
        catalog = _catalog(size, frozenset(rel))
        if catalog is None:
            continue
        closed += 1
        periodic, ends = tau_orbits(catalog)
        assert periodic == {}, _name((size, rel))
        assert all(end is not None and catalog.projective[end] for end in ends)
    assert closed == 13

"""The chase on `*` blocks, in the input's coordinates, against the
full-flat chase and the replaying cache it replaced.

Every object of the chase is a subspace representation, so `birkhoff`
holds each hom space of its cache, and each map it walks through, as
the `*` block alone: one product per composition, kernels, solves and
column bases on the `*` rows, and a full morphism only for the pair a
split returns.  The chase before that change is kept here, written out
in full and calling none of the library's chase helpers: a lazy cache of
flat hom spaces (the lifted `hom_basis` bases) whose replay steps compose
whole flat spaces with the idempotent e = f . q, the factorization over
`HomSpace.joined` of flat composites, and the step loop on `Morphism`s.
`decompose_full` must give byte for byte the same certificate,
inclusions and projections: on the chase inputs of `test_birkhoff.py`
at p = 2 and 3, on every object of both shipped catalogs (each chases to
its own index) and on S(3) at p = 2^31 - 1.  It must solve the same
forward spaces, and no backward space the reference does not.

The chase builds no complement: its cache keeps Hom(Z, x) and Hom(x, Z)
and cuts them to what remains.  On the same inputs every read of that
cache is checked against `_ReplayedCache`, the star-form cache that
followed each complement built by `split_by_retraction` and replayed
every split into every space it read.
"""

import json

import numpy as np
import pytest

from subrep import birkhoff
from subrep.artheory import build_catalog
from subrep.birkhoff import decompose_full
from subrep.ffmat import PrimeField, column_space_basis, kernel_basis
from subrep.lambdamod import LambdaAlgebra
from subrep.posetrep import (
    STAR,
    HomSpace,
    Morphism,
    Poset,
    QuiverStar,
    Representation,
    direct_sum,
    hom_basis,
    split_by_retraction,
)
from test_birkhoff import _chase_inputs


def _flat_hom(x, y):
    """Hom(x, y) as one flat coordinate matrix, every vertex solved."""
    return HomSpace.from_flat(x, y, hom_basis(x, y).basis_matrix())


def _forward_step(homs, e, comp_incl, comp_proj, complement):
    if homs.dim:
        homs = homs.combinations(kernel_basis(homs.postcomposed(e).basis_matrix()))
    return homs.postcomposed(comp_proj)


def _backward_step(homs, e, comp_incl, comp_proj, complement):
    homs = homs.precomposed(comp_incl)
    if homs.dim:
        homs = HomSpace.from_flat(complement, homs.target, column_space_basis(homs.basis_matrix()))
    return homs


class _FlatCache:
    """An entry is solved on its first read against the input and replays
    the splits it has not yet seen; `solved` lists the first reads."""

    def __init__(self, catalog, x):
        objs = catalog.objects
        self.solve = {
            "forward": lambda z: _flat_hom(objs[z], x),
            "backward": lambda z: _flat_hom(x, objs[z]),
        }
        self.step = {"forward": _forward_step, "backward": _backward_step}
        self.entries, self.steps = {}, []
        self.solved = {"forward": [], "backward": []}

    def read(self, direction, z):
        if (direction, z) not in self.entries:
            self.solved[direction].append(z)
            self.entries[direction, z] = (self.solve[direction](z), 0)
        homs, seen = self.entries[direction, z]
        for step in self.steps[seen:]:
            homs = self.step[direction](homs, *step)
        self.entries[direction, z] = (homs, len(self.steps))
        return homs


def _find_retraction(f, backward):
    c = backward.precomposed(f).coefficients([Morphism.identity(f.source)])
    return None if c is None else backward.element(c.a[:, 0])


def _retraction(f, cache, z):
    if f.components[STAR].rank() != f.source.dim(STAR):
        return None  # not mono, so not split mono
    return _find_retraction(f, cache.read("backward", z))


def _factor_through_left(f, lifts, parts, cache):
    spans = [cache.read("forward", w) for w in parts]
    composites = HomSpace.joined(
        f.source, f.target, [homs.precomposed(h) for homs, h in zip(spans, lifts)]
    )
    c = composites.coefficients([f])
    assert c is not None
    offsets = np.cumsum([0] + [homs.dim for homs in spans])
    return [homs.element(c.a[offsets[k] : offsets[k + 1], 0]) for k, homs in enumerate(spans)]


def _split_off_summand(catalog, cache):
    bound = 2 ** catalog.max_length() - 1
    start = next(
        z for z in range(len(catalog)) if catalog.projective[z] and cache.read("forward", z).dim
    )
    for h in cache.read("forward", start).basis:
        q = _retraction(h, cache, start)
        if q is not None:
            return start, h, q, [{"object": start, "split": True}]
    current, f = start, cache.read("forward", start).basis[0]
    composite = Morphism.identity(catalog.objects[start])
    steps = []
    while True:
        assert len(steps) <= bound
        q = _retraction(f, cache, current)
        if q is not None:
            steps.append({"object": current, "split": True})
            return current, f, q, steps
        lifts, parts = catalog.left_maps[current]
        comps = _factor_through_left(f, lifts, parts, cache)
        for k in sorted(range(len(parts)), key=lambda t: parts[t]):
            extended = lifts[k] @ composite
            if not comps[k].is_zero() and not (comps[k] @ extended).is_zero():
                break
        else:
            raise AssertionError("factorization through the left map vanished")
        steps.append({"object": current, "split": False, "next": parts[k]})
        current, f, composite = parts[k], comps[k], extended


def _reference(x, catalog):
    """(certificate, [(inclusion, projection)], solved) of the flat chase."""
    cache = _FlatCache(catalog, x)
    traces, classes, maps = [], [], []
    incl = proj = Morphism.identity(x)
    current = x
    while current.total_dim():
        idx, f, q, steps = _split_off_summand(catalog, cache)
        traces.append(steps)
        classes.append(idx)
        res = split_by_retraction(current, f, q)
        maps.append((incl @ f, q @ proj))
        cache.steps.append((f @ q, res.complement_incl, res.complement_proj, res.complement))
        incl, proj = incl @ res.complement_incl, res.complement_proj @ proj
        current = res.complement
    cert = {"method": "chase", "traces": traces, "classes": classes}
    return cert, maps, cache.solved


class _ReplayedCache:
    """The chase's hom cache before it ran in the input's coordinates:
    star-form spaces into and out of the current complement, each solved
    on its first read against the input and replaying, on each later
    read, the splits it has not yet seen."""

    def __init__(self, catalog, x):
        objs = catalog.objects
        self.solve = {
            "forward": lambda z: hom_basis(objs[z], x),
            "backward": lambda z: hom_basis(x, objs[z]),
        }
        self.step = {"forward": _star_forward_step, "backward": _star_backward_step}
        self.entries, self.steps = {}, []

    def read(self, direction, z):
        homs, seen = self.entries.get((direction, z)) or (self.solve[direction](z), 0)
        for step in self.steps[seen:]:
            homs = self.step[direction](homs, *step)
        self.entries[direction, z] = (homs, len(self.steps))
        return homs


def _star_forward_step(homs, q, comp_incl, comp_proj, complement):
    if homs.dim:
        homs = homs.combinations(kernel_basis(homs.postcomposed(q).star_block()))
    return homs.postcomposed(comp_proj)


def _star_backward_step(homs, q, comp_incl, comp_proj, complement):
    homs = homs.precomposed(comp_incl)
    if homs.dim:
        cols = column_space_basis(homs.star_block())
        homs = HomSpace.from_flat(complement, homs.target, cols)
    return homs


class _CheckedReads:
    """A read of the library's entry also reads the replayed one, and
    asserts it is the same space carried to the input by `carry`."""

    def __init__(self, entries, replayed, direction, carry):
        self.entries, self.replayed = entries, replayed
        self.direction, self.carry = direction, carry

    def __getitem__(self, z):
        homs = self.entries[z]
        want = self.carry(self.replayed.read(self.direction, z))
        # lifted copies: the comparison must not change what the chase reads
        got = HomSpace.from_flat(homs.source, homs.target, homs.star_block())
        want = HomSpace.from_flat(want.source, want.target, want.star_block())
        assert got.source is want.source and got.target is want.target
        a, b = got.basis_matrix().a, want.basis_matrix().a
        assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
        return homs


def _library(x, catalog, monkeypatch):
    """The same triple from `decompose_full`, its solves counted.  Every
    read of its cache is checked against `_ReplayedCache`, whose
    complements are built by `split_by_retraction`: forward[z] must be
    incl . (replayed entry) and backward[z] (replayed entry) . proj, byte
    for byte, with incl and proj the complement's maps into and out of x."""
    solved = {"forward": [], "backward": []}

    class Checked(birkhoff._HomCache):
        def __init__(self, catalog, x):
            super().__init__(catalog, x)
            for direction in solved:
                space = getattr(self, direction)

                def solve(z, real=space.solve, direction=direction):
                    solved[direction].append(z)
                    return real(z)

                space.solve = solve
            self.replayed, self.complement = _ReplayedCache(catalog, x), x
            self.incl = self.proj = Morphism.identity(x)
            self.forward = _CheckedReads(
                self.forward, self.replayed, "forward", lambda h: h.postcomposed(self.incl)
            )
            self.backward = _CheckedReads(
                self.backward, self.replayed, "backward", lambda h: h.precomposed(self.proj)
            )

        def restrict(self, f, q):
            super().restrict(f, q)
            q_k = q @ self.incl
            res = split_by_retraction(self.complement, self.proj @ f, q_k)
            self.replayed.steps.append(
                (q_k, res.complement_incl, res.complement_proj, res.complement)
            )
            self.complement = res.complement
            self.incl = self.incl @ res.complement_incl
            self.proj = res.complement_proj @ self.proj

    with monkeypatch.context() as m:
        m.setattr(birkhoff, "_HomCache", Checked)
        d = decompose_full(x, catalog)
    return d.certificate, [(s.inclusion, s.projection) for s in d.summands], solved


def _bytes(cert, maps):
    arrays = [a.flatten() for pair in maps for a in pair]
    return json.dumps(cert, sort_keys=True).encode() + b"".join(
        a.tobytes() + str(a.shape).encode() for a in arrays
    )


def _assert_matches_reference(x, catalog, monkeypatch):
    cert, maps, solved = _library(x, catalog, monkeypatch)
    with monkeypatch.context() as m:
        # a `HomSpace` into a subspace representation computes at `*`;
        # with no target one, every space of the reference computes flat
        m.setattr(Representation, "is_subspace_rep", lambda rep: False)
        ref_cert, ref_maps, ref_solved = _reference(x, catalog)
    assert _bytes(cert, maps) == _bytes(ref_cert, ref_maps)
    assert sorted(solved["forward"]) == sorted(ref_solved["forward"])
    assert set(solved["backward"]) <= set(ref_solved["backward"])
    return cert


@pytest.mark.parametrize("p", [2, 3])
def test_chase_inputs_match_reference(p, request, monkeypatch):
    catalog = request.getfixturevalue(f"catalog_p{p}")
    for x in _chase_inputs(catalog):
        _assert_matches_reference(x, catalog, monkeypatch)


@pytest.mark.parametrize("p", [2, 3])
def test_catalog_objects_chase_to_themselves(p, request, monkeypatch):
    catalog = request.getfixturevalue(f"catalog_p{p}")
    assert len(catalog) == 25
    for z, x in enumerate(catalog.objects):
        assert _assert_matches_reference(x, catalog, monkeypatch)["classes"] == [z]


def test_s3_at_a_large_prime_matches_reference(monkeypatch):
    algebra = LambdaAlgebra(PrimeField(2**31 - 1), 3)
    catalog = build_catalog(QuiverStar(Poset(["1"], [])), algebra)
    objs = catalog.objects
    for x in list(objs) + [direct_sum(objs).rep, direct_sum([objs[-1], objs[0], objs[-1]]).rep]:
        _assert_matches_reference(x, catalog, monkeypatch)

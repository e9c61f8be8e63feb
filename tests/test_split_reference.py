"""Local leaves certified by their own failed split.

`decomp.indecompose` splits a representation with a random endomorphism
theta whose minimal polynomial has two coprime factors.  An attempt that
fails, with deg minpoly(theta) = dim End, proves End = k[theta], which is
k[x]/(q^m) and so local; from then on the loop computes nothing and
certifies the leaf at the attempt where it would have tested `is_local`,
drawing the same random numbers.  The loop that tests `is_local` at its
first attempt >= 7 with nonzero coordinates, whatever came before, is
kept here as `_ref_indecompose`, with its own copy of the earlier
idempotents (each CRT interpolant evaluated on the block-diagonal total
matrix of theta) and `hom_basis` solved for every part, where the
library works at `*` on subspace representations, reads each part's End
off its parent's and starts a part whose End its own factor generates as
a certified leaf.  The library must match it byte for byte (certificate,
summands, inclusions, projections) at seeds 0-4, on seeded general and
subspace representations of the example poset at p = 2, 3 and
2^31 - 1, on subspace representations of the corpus size at p = 3 and
on S(n) objects and their sums at n = 1..4.
Every leaf certified by a generator must also pass `is_local` (the
radical oracle); a local End that no single element generates must
still be certified through `is_local`; and a non-local End never looks
generated.
"""

import json
from functools import lru_cache

import numpy as np
import pytest

import subrep.decomp as decomp
from subrep.artheory import build_catalog
from subrep.decomp import (
    SPLIT_BUDGET,
    Decomposition,
    Summand,
    end_radical,
    indecompose,
    is_local,
)
from subrep.errors import BudgetExceededError
from subrep.examples import example_quiver
from subrep.ffmat import Poly, PrimeField, _wrap, factor, min_poly, poly_xgcd
from subrep.lambdamod import LambdaAlgebra
from subrep.posetrep import (
    STAR,
    Morphism,
    Poset,
    QuiverStar,
    direct_sum,
    end_algebra,
    image_subrep,
)
from subrep.repfile import serialize_representation
from subrep.sampling import random_representation, random_subspace_representation

from oracles import dim_multiset

QUIVER = example_quiver()
CAPS = {"1": 2, "2": 3, "3": 3, STAR: 4}
# the criterion-6 caps of the corpus
CORPUS_CAPS = {"1": 4, "2": 8, "3": 8, STAR: 10}
PRIMES = (2, 3, 2**31 - 1)
SEEDS = range(5)


def _ref_crt_idempotents(theta, total, factors, mp):
    """Each interpolant evaluated once on the total matrix, cut into the
    vertex blocks."""
    x = theta.source
    ends = zip(x.quiver.vertices, x.dim_vector(), np.cumsum(x.dim_vector()))
    blocks = [(v, slice(o - d, o)) for v, d, o in ends]
    out = []
    for irr, mult in factors:
        pk = Poly.one(mp.field)
        for _ in range(mult):
            pk = pk * irr
        qk = mp // pk
        _, u, _ = poly_xgcd(qk, pk)
        e = ((u * qk) % mp).eval_matrix(total).a
        out.append(Morphism(x, x, {v: _wrap(mp.field, e[b, b].copy()) for v, b in blocks}))
    return out


def _ref_indecompose(x, seed=0):
    """Split attempts that test `is_local` once, at the first failed
    attempt >= 7, however the attempts before it failed."""
    rng = np.random.default_rng(seed)
    trace = []
    summands = []

    def recurse(rep, incl, proj):
        if rep.total_dim() == 0:
            return
        ends = end_algebra(rep)
        if ends.dim == 1:
            trace.append({"dims": rep.dim_vector(), "leaf": "end-dim-1"})
            summands.append(Summand(rep, incl, proj))
            return
        locality_checked = False
        for attempt in range(SPLIT_BUDGET):
            coords = rng.integers(0, rep.field.p, size=ends.dim)
            if not coords.any():
                continue
            theta = ends.element(coords)
            total = theta.total_matrix()
            mp = min_poly(total)
            rng.integers(0, 2**31)  # the draw `indecompose` makes on every attempt
            factors = factor(mp)
            if len(factors) >= 2:
                idems = _ref_crt_idempotents(theta, total, factors, mp)
                trace.append(
                    {
                        "dims": rep.dim_vector(),
                        "split": [f.coeffs for f, _ in factors],
                        "attempt": attempt,
                    }
                )
                for e in idems:
                    part, part_incl, part_proj = image_subrep(e)
                    recurse(part, incl @ part_incl, part_proj @ proj)
                return
            if attempt >= 7 and not locality_checked:
                locality_checked = True
                if is_local(ends):
                    trace.append({"dims": rep.dim_vector(), "leaf": "local"})
                    summands.append(Summand(rep, incl, proj))
                    return
        raise BudgetExceededError("reference split loop ran out of attempts")

    recurse(x, Morphism.identity(x), Morphism.identity(x))
    return Decomposition(x, summands, {"seed": seed, "method": "idempotent", "trace": trace})


def _bytes(d):
    """Everything a decomposition hands out, as bytes."""
    return (
        json.dumps(d.certificate, default=str),
        [serialize_representation(s.rep) for s in d.summands],
        [s.inclusion.flatten().tobytes() for s in d.summands],
        [s.projection.flatten().tobytes() for s in d.summands],
    )


def _example_inputs(p, n, seed):
    algebra = LambdaAlgebra(PrimeField(p), n)
    rng = np.random.default_rng(seed)
    subs = [random_subspace_representation(QUIVER, algebra, CAPS, rng) for _ in range(3)]
    general = [random_representation(QUIVER, algebra, CAPS, rng) for _ in range(3)]
    return subs + general + [direct_sum([subs[0], general[0]]).rep]


@lru_cache(maxsize=None)
def _s_objects(n):
    """The indecomposables of S(n) over F_2."""
    one = QuiverStar(Poset(["1"], []))
    return tuple(build_catalog(one, LambdaAlgebra(PrimeField(2), n)).objects)


def _s_inputs(n):
    objs = list(_s_objects(n))
    sums = [direct_sum([a, b]).rep for a, b in zip(objs, objs[1:])]
    sums.append(direct_sum(objs[:3]).rep)
    return objs + sums


def _leaves(d):
    """The summands certified local (End of dimension > 1), in order: the
    trace lists its leaves in the order the summands were found."""
    kinds = [t["leaf"] for t in d.certificate["trace"] if "leaf" in t]
    return [s.rep for kind, s in zip(kinds, d.summands) if kind == "local"]


@pytest.fixture
def radical_checked(monkeypatch):
    """The representations `indecompose` asks `is_local` about."""
    seen = []

    def recording(end):
        seen.append(end.rep)
        return is_local(end)

    monkeypatch.setattr(decomp, "is_local", recording)
    return seen


def _no_generator(x):
    """End(x) = k + J with J^2 = 0 and dim End >= 3: every theta = a + j
    has (theta - a)^2 = 0, so deg minpoly(theta) <= 2 < dim End."""
    rad = end_radical(x)
    js = rad.radical.basis
    return (
        end_algebra(x).dim >= 3
        and rad.quotient_dim == 1
        and all((a @ b).is_zero() for a in js for b in js)
    )


@pytest.mark.parametrize("p", PRIMES)
def test_indecompose_matches_reference_on_example_poset(p):
    for n in (1, 2, 3, 4):
        for x in _example_inputs(p, n, 1900 * n + p % 1000):
            for seed in SEEDS:
                assert _bytes(indecompose(x, seed)) == _bytes(_ref_indecompose(x, seed))


def test_indecompose_matches_reference_on_corpus_inputs():
    algebra = LambdaAlgebra(PrimeField(3), 2)
    for rng in map(np.random.default_rng, SEEDS):
        for _ in range(2):
            x = random_subspace_representation(QUIVER, algebra, CORPUS_CAPS, rng)
            for seed in SEEDS:
                assert _bytes(indecompose(x, seed)) == _bytes(_ref_indecompose(x, seed))


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_indecompose_matches_reference_on_s_n(n):
    for x in _s_inputs(n):
        for seed in SEEDS:
            assert _bytes(indecompose(x, seed)) == _bytes(_ref_indecompose(x, seed))


@pytest.mark.parametrize("p", PRIMES)
def test_generated_leaves_pass_the_radical_oracle(p, radical_checked):
    generated = 0
    inputs = [x for n in (2, 3) for x in _example_inputs(p, n, 1950 * n + p % 1000)]
    if p == 2:
        inputs += _s_inputs(3) + _s_inputs(4)
    for x in inputs:
        for seed in SEEDS:
            for leaf in _leaves(indecompose(x, seed)):
                if any(leaf is r for r in radical_checked):
                    continue
                generated += 1
                assert is_local(end_algebra(leaf))
    assert generated >= 5


def test_local_leaf_without_a_generator_certifies_through_is_local(
    catalog_p3, radical_checked
):
    algebra = catalog_p3.algebra
    rng = np.random.default_rng(1903)
    samples = [
        random_subspace_representation(QUIVER, algebra, CORPUS_CAPS, rng) for _ in range(3)
    ]
    ungenerated = 0
    for x in list(catalog_p3.objects) + samples:
        for seed in SEEDS:
            for leaf in _leaves(indecompose(x, seed)):
                if _no_generator(leaf):
                    ungenerated += 1
                    assert any(leaf is r for r in radical_checked)
    # objects 8, 16 and 24 of the catalog at least, at every seed
    assert ungenerated >= 15


@pytest.mark.parametrize("p", (2, 3))
def test_non_local_end_never_looks_generated(p, request):
    catalog = request.getfixturevalue(f"catalog_p{p}")
    objs = catalog.objects
    rng = np.random.default_rng(1904 + p)
    pairs = [(objs[i], objs[i]) for i in (0, 8, 22)]
    pairs += [(objs[i], objs[i + 1]) for i in range(0, 24, 3)]
    for a, b in pairs:
        x = direct_sum([a, b]).rep
        ends = end_algebra(x)
        assert not is_local(ends)
        # the criterion itself: a theta that does not split has a smaller
        # minimal polynomial than End
        for _ in range(20):
            coords = rng.integers(0, p, size=ends.dim)
            mp = min_poly(ends.element(coords).total_matrix())
            if len(factor(mp)) < 2:
                assert mp.degree() < ends.dim
        # and the split loop cuts x in two, never taking it for a leaf
        for seed in SEEDS:
            d = indecompose(x, seed)
            assert dim_multiset(d) == tuple(sorted([a.dim_vector(), b.dim_vector()]))
            assert d.check()

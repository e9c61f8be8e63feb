import os

import numpy as np
import pytest

from subrep.birkhoff import (
    SubspaceConfig,
    decompose_full,
    from_invariant_subspaces,
    harada_sai_check,
    invariant_subspace_report,
    split_off_summand,
)
from subrep.decomp import indecompose, indecomposables_isomorphic, iso_class_multiset
from subrep.errors import NotInvariantError, NotNestedError
from subrep.examples import example_quiver
from subrep.ffmat import Matrix, PrimeField, kernel_basis, rref
from subrep.lambdamod import LambdaAlgebra, LambdaModule
from subrep.posetrep import (
    HomSpace,
    Morphism,
    Representation,
    direct_sum,
    hom_basis,
    split_by_retraction,
)
from subrep.sampling import (
    random_representation,
    random_subspace_config,
    random_subspace_representation,
)

from oracles import (
    all_free_representation,
    chase_class_multiset,
    subspace_data,
    twisted_pair_representation,
)

F2 = PrimeField(2)
L2 = LambdaAlgebra(F2, 2)
CONFIGS = os.path.join(os.path.dirname(__file__), "..", "fixtures", "configs")
FIVE_SUMMANDS = os.path.join(CONFIGS, "five_summands.sub")


def test_split_projective_immediately(catalog_p2):
    m = all_free_representation(L2)
    idx, mono, retraction, steps = split_off_summand(m, catalog_p2)
    assert catalog_p2.projective[idx]
    assert len(steps) == 1 and steps[0]["split"]
    assert (retraction @ mono).is_zero() is False
    from subrep.posetrep import Morphism

    assert retraction @ mono == Morphism.identity(catalog_p2.objects[idx])


def test_split_m_plus_n_bounded(catalog_p2):
    m = all_free_representation(L2)
    n = twisted_pair_representation(L2)
    both = direct_sum([m, n]).rep
    bound = 2 ** catalog_p2.max_length() - 1
    idx, mono, retraction, steps = split_off_summand(both, catalog_p2)
    assert len(steps) <= bound
    assert catalog_p2.find_isomorphic(catalog_p2.objects[idx]) == idx


def test_decompose_full_zero(catalog_p2):
    d = decompose_full(Representation.zero(example_quiver(), L2), catalog_p2)
    assert d.summands == [] and d.check()


def test_decompose_full_zero_solves_no_hom_space(catalog_p2, monkeypatch):
    # the hom cache solves a space only when the chase reads it, and the
    # chase never runs on a zero input
    from subrep import birkhoff

    calls = []

    def counting_hom_basis(source, target, real=birkhoff.hom_basis):
        calls.append((source, target))
        return real(source, target)

    monkeypatch.setattr(birkhoff, "hom_basis", counting_hom_basis)
    zero = Representation.zero(catalog_p2.quiver, catalog_p2.algebra)
    assert decompose_full(zero, catalog_p2).summands == []
    assert calls == []
    # the same counter sees the cache of a nonzero input: the free module
    # is projective object 0, so the chase reads Hom(P_0, x), finds a
    # retraction in Hom(x, P_0) and solves nothing else
    x = all_free_representation(L2)
    decompose_full(x, catalog_p2)
    p0 = catalog_p2.objects[0]
    assert len(calls) == 2 < 2 * len(catalog_p2)
    assert calls[0][0] is p0 and calls[0][1] is x
    assert calls[1][0] is x and calls[1][1] is p0


def test_chase_rejects_a_non_subspace_input_before_solving(catalog_p2, monkeypatch):
    # the chase holds its hom spaces at `*`, which determines a map only
    # into a subspace representation: decompose_full, and split_off_summand
    # without a cache, name the first point whose composite to `*` is not
    # injective, before any hom space is solved
    from subrep import birkhoff
    from subrep.posetrep import STAR

    calls = []
    monkeypatch.setattr(birkhoff, "hom_basis", lambda *args: calls.append(args))
    rng = np.random.default_rng(5)
    caps = {"1": 2, "2": 3, "3": 3, "*": 4}
    seen = 0
    while seen < 6:
        x = random_representation(example_quiver(), L2, caps, rng)
        points = x.quiver.poset.points
        bad = [v for v in points if x.composite_map(v, STAR).rank() < x.dim(v)]
        if not bad:
            continue
        seen += 1
        for run in (decompose_full, split_off_summand):
            with pytest.raises(ValueError, match=f"{bad[0]} -> \\* is not injective"):
                run(x, catalog_p2)
    assert calls == []


def test_decompose_full_multiset(catalog_p2):
    m = all_free_representation(L2)
    n = twisted_pair_representation(L2)
    x = direct_sum([n, n, m]).rep
    d = decompose_full(x, catalog_p2)
    assert d.check()
    mi = catalog_p2.find_isomorphic(m)
    ni = catalog_p2.find_isomorphic(n)
    assert chase_class_multiset(d) == tuple(sorted((mi, ni, ni)))


def test_decompose_full_agrees_with_idempotent_method(catalog_p2, catalog_p3):
    rng = np.random.default_rng(17)
    for catalog, p in ((catalog_p2, 2), (catalog_p3, 3)):
        algebra = LambdaAlgebra(PrimeField(p), 2)
        caps = {"1": 2, "2": 4, "3": 4, "*": 6}
        for _ in range(8):
            x = random_subspace_representation(example_quiver(), algebra, caps, rng)
            d_chase = decompose_full(x, catalog)
            assert d_chase.check()
            d_idem = indecompose(x, seed=23)
            assert chase_class_multiset(d_chase) == iso_class_multiset(
                d_idem, catalog.objects
            )


def test_chase_traces_within_bound(catalog_p2):
    rng = np.random.default_rng(19)
    bound = 2 ** catalog_p2.max_length() - 1
    caps = {"1": 3, "2": 5, "3": 5, "*": 7}
    for _ in range(10):
        x = random_subspace_representation(example_quiver(), L2, caps, rng)
        d = decompose_full(x, catalog_p2)
        for steps in d.certificate["traces"]:
            assert len(steps) <= bound


def test_from_invariant_subspaces_full():
    m = all_free_representation(L2)
    cfg = subspace_data(m)
    rep = from_invariant_subspaces(cfg)
    ok, _ = indecomposables_isomorphic(m, rep)
    assert ok


def test_from_invariant_subspaces_zero_subspaces(catalog_p2):
    v = LambdaModule(L2, Matrix.zeros(F2, 2, 2))
    empty = Matrix.zeros(F2, 2, 0)
    cfg = SubspaceConfig(v, empty, empty, empty)
    rep = from_invariant_subspaces(cfg)
    assert rep.dim_vector() == (0, 0, 0, 2)
    d = decompose_full(rep, catalog_p2)
    assert len(d.summands) == 2
    classes = chase_class_multiset(d)
    assert classes[0] == classes[1]  # two copies of the simple at the top


def test_not_nested_rejected():
    free2 = LambdaModule.free(L2, 2)
    # v1 = first generator's socle, v2 = second free summand: not nested
    v1 = Matrix(F2, [[0], [1], [0], [0]])
    v2 = Matrix(F2, [[0, 0], [0, 0], [1, 0], [0, 1]])
    v3 = Matrix.identity(F2, 4)
    cfg = SubspaceConfig(free2, v1, v2, v3)
    with pytest.raises(NotNestedError) as exc:
        from_invariant_subspaces(cfg)
    assert exc.value.which == 2


def test_not_invariant_rejected():
    free = LambdaModule.free(L2)
    # span{e} is not T-invariant in the free module
    v2 = Matrix(F2, [[1], [0]])
    cfg = SubspaceConfig(free, Matrix.zeros(F2, 2, 0), v2, Matrix.identity(F2, 2))
    with pytest.raises(NotInvariantError) as exc:
        from_invariant_subspaces(cfg)
    assert exc.value.which == 2
    assert exc.value.vector is not None


def test_subspace_roundtrip(catalog_p2):
    rng = np.random.default_rng(21)
    caps = {"1": 2, "2": 4, "3": 4, "*": 5}
    for _ in range(10):
        x = random_subspace_representation(example_quiver(), L2, caps, rng)
        rep = from_invariant_subspaces(subspace_data(x))
        from oracles import is_isomorphic

        ok, _ = is_isomorphic(x, rep)
        assert ok


def test_invariant_subspace_report_named(catalog_p2):
    m = all_free_representation(L2)
    rpt = invariant_subspace_report(subspace_data(m), catalog_p2)
    mi = catalog_p2.find_isomorphic(m)
    assert rpt.multiplicities == {mi: 1}
    assert rpt.compatible


def test_invariant_subspace_report_empty(catalog_p2):
    cfg = SubspaceConfig(
        LambdaModule.zero(L2),
        Matrix.zeros(F2, 0, 0),
        Matrix.zeros(F2, 0, 0),
        Matrix.zeros(F2, 0, 0),
    )
    rpt = invariant_subspace_report(cfg, catalog_p2)
    assert rpt.multiplicities == {} and rpt.compatible


def test_invariant_subspace_report_random(catalog_p2):
    rng = np.random.default_rng(22)
    for _ in range(25):
        cfg = random_subspace_config(F2, 8, rng)
        rpt = invariant_subspace_report(cfg, catalog_p2)
        assert rpt.compatible, rpt.details
        assert sum(rpt.multiplicities.values()) == len(rpt.decomposition.summands)


def test_harada_sai(catalog_p2):
    counterexample, (witness, wlen), _ = harada_sai_check(catalog_p2)
    assert counterexample is None
    assert witness is not None and not witness.is_zero()
    assert 1 <= wlen < catalog_p2.max_length()


def test_harada_sai_chain_length_one_nonzero(catalog_p2):
    # the bound is not vacuous below the threshold: some single radical
    # map is nonzero
    _, (witness, wlen), _ = harada_sai_check(catalog_p2)
    assert wlen >= 1


def test_hom_cache_attribute_contract(catalog_p2, monkeypatch):
    # the benchmark digests _HomCache.catalog/current/forward/backward and
    # HomSpace.source/target/basis; a rename must fail here.  The chase
    # runs in x's coordinates, so `current` is x before and after every split
    from subrep import birkhoff
    from subrep.artheory import Catalog
    from subrep.posetrep import HomSpace, Morphism

    x = direct_sum([twisted_pair_representation(L2), all_free_representation(L2)]).rep
    seen = []

    def check(cache):
        assert isinstance(cache.catalog, Catalog) and cache.catalog is catalog_p2
        assert isinstance(cache.current, Representation) and cache.current is x
        indices = list(range(len(catalog_p2.objects)))
        assert sorted(cache.forward) == indices and sorted(cache.backward) == indices
        for z in indices:
            fwd, bwd = cache.forward[z], cache.backward[z]
            assert isinstance(fwd, HomSpace) and isinstance(bwd, HomSpace)
            assert fwd.source is catalog_p2.objects[z] and fwd.target is x
            assert bwd.source is x and bwd.target is catalog_p2.objects[z]
            for space in (fwd, bwd):
                assert isinstance(space.basis, tuple) and len(space.basis) == space.dim
                assert all(isinstance(h, Morphism) for h in space.basis)
                assert all(
                    h.source is space.source and h.target is space.target for h in space.basis
                )
        seen.append(cache.remaining)

    class Recording(birkhoff._HomCache):
        def __init__(self, catalog, x):
            super().__init__(catalog, x)
            check(self)

        def restrict(self, f, q):
            super().restrict(f, q)
            check(self)

    monkeypatch.setattr(birkhoff, "_HomCache", Recording)
    d = decompose_full(x, catalog_p2)
    assert d.check()
    # one check after construction and one after each split, ending on nothing left
    assert len(seen) == len(d.summands) + 1
    assert seen[0] == x.total_dim() and seen[-1] == 0


def _eager_hom_caches(catalog, x, steps):
    """Reference for the lazy `_HomCache`: an eager cache that solves all
    2 x len(catalog) spaces up front and restricts every one to the
    complement each split leaves, built as its own representation.
    Yields (forward, backward) before the first step and after each one."""
    objs = catalog.objects
    forward = {z: hom_basis(objs[z], x) for z in range(len(objs))}
    backward = {z: hom_basis(x, objs[z]) for z in range(len(objs))}
    yield dict(forward), dict(backward)
    for q, comp_incl, comp_proj, complement in steps:
        for z, homs in forward.items():
            # killed by the retraction q, so by the idempotent f . q
            if homs.dim:
                homs = homs.combinations(kernel_basis(homs.postcomposed(q).basis_matrix()))
            forward[z] = homs.postcomposed(comp_proj)
        for z, homs in backward.items():
            homs = homs.precomposed(comp_incl)
            if homs.dim:
                flat = homs.basis_matrix()
                _, pivots, _ = rref(flat)
                homs = HomSpace.from_flat(complement, homs.target, flat.take_columns(pivots))
            backward[z] = homs
        yield dict(forward), dict(backward)


def _chase_splits(catalog, x, monkeypatch):
    """The (inclusion, retraction) pairs, maps into and out of x, that the
    chase's cache splits off, in order, while decomposing x."""
    from subrep import birkhoff

    splits = []

    class Recording(birkhoff._HomCache):
        def restrict(self, f, q):
            splits.append((f, q))
            super().restrict(f, q)

    with monkeypatch.context() as m:
        m.setattr(birkhoff, "_HomCache", Recording)
        decompose_full(x, catalog)
    return splits


def _complements(x, splits):
    """The complements the splits leave, each built by
    `split_by_retraction` from the one before: yields, per split, the
    eager cache's step (retraction, complement inclusion and projection,
    complement) and the complement's inclusion into and projection from x."""
    incl = proj = Morphism.identity(x)
    current = x
    for f, q in splits:
        q_k = q @ incl
        res = split_by_retraction(current, proj @ f, q_k)
        current = res.complement
        incl, proj = incl @ res.complement_incl, res.complement_proj @ proj
        yield (q_k, res.complement_incl, res.complement_proj, current), incl, proj


def _chase_inputs(catalog):
    """The chase inputs of tests/test_golden.py, then larger seeded
    subspace representations."""
    quiver, algebra = catalog.quiver, catalog.algebra
    caps = {"1": 2, "2": 3, "3": 3, "*": 5}
    rng = np.random.default_rng(1000 + algebra.field.p)
    golden = [random_subspace_representation(quiver, algebra, caps, rng) for _ in range(14)]
    rng = np.random.default_rng(13)
    caps = {"1": 2, "2": 3, "3": 3, "*": 7}
    larger = [random_subspace_representation(quiver, algebra, caps, rng) for _ in range(6)]
    return [Representation.zero(quiver, algebra)] + golden + larger


def _assert_same_space(lazy, eager):
    assert lazy.source is eager.source and lazy.target is eager.target
    a, b = lazy.basis_matrix().a, eager.basis_matrix().a
    assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("p", [2, 3])
def test_lazy_hom_cache_matches_eager(p, request, monkeypatch):
    # the lazy cache keeps x and cuts its spaces to what remains; read
    # through the complement's inclusion and projection, the eager spaces
    # are the same bytes.  One lazy cache is read in full after every
    # split, so each read cuts after one split; the other is read at
    # random, so reads solve late and cut after several splits at once
    from subrep.birkhoff import _HomCache

    catalog = request.getfixturevalue(f"catalog_p{p}")
    rng = np.random.default_rng(p)
    for x in _chase_inputs(catalog):
        splits = _chase_splits(catalog, x, monkeypatch)
        complements = list(_complements(x, splits))
        maps = [(Morphism.identity(x), Morphism.identity(x))] + [c[1:] for c in complements]
        eager = _eager_hom_caches(catalog, x, [c[0] for c in complements])
        every, sampled = _HomCache(catalog, x), _HomCache(catalog, x)
        for i, ((forward, backward), (incl, proj)) in enumerate(zip(eager, maps)):
            if i:
                every.restrict(*splits[i - 1])
                sampled.restrict(*splits[i - 1])
            last = i == len(splits)
            for z in forward:
                fwd, bwd = forward[z].postcomposed(incl), backward[z].precomposed(proj)
                _assert_same_space(every.forward[z], fwd)
                _assert_same_space(every.backward[z], bwd)
                if last or rng.random() < 0.3:
                    _assert_same_space(sampled.forward[z], fwd)
                if last or rng.random() < 0.3:
                    _assert_same_space(sampled.backward[z], bwd)


def test_lazy_hom_cache_solves_once_and_cuts_at_most_once_per_split(catalog_p2, monkeypatch):
    from subrep import birkhoff

    n, m = twisted_pair_representation(L2), all_free_representation(L2)
    x = direct_sum([n, n, m]).rep
    splits = _chase_splits(catalog_p2, x, monkeypatch)
    assert len(splits) >= 3
    objs = catalog_p2.objects
    solved, cuts = {}, []

    def index(obj):
        return next(z for z, o in enumerate(objs) if o is obj)

    def counting_hom_basis(source, target, real=birkhoff.hom_basis):
        homs = real(source, target)
        key = ("forward", index(source)) if target is x else ("backward", index(target))
        assert key not in solved
        solved[key] = homs.dim
        return homs

    def counting(direction, real):
        def cut(self, homs):
            assert homs.dim  # a zero space has nothing to cut
            obj = homs.source if direction == "forward" else homs.target
            cuts.append((direction, index(obj), self.splits))
            return real(self, homs)

        return cut

    monkeypatch.setattr(birkhoff, "hom_basis", counting_hom_basis)
    for direction in ("forward", "backward"):
        name = f"_cut_{direction}"
        real = getattr(birkhoff._HomCache, name)
        monkeypatch.setattr(birkhoff._HomCache, name, counting(direction, real))
    cache = birkhoff._HomCache(catalog_p2, x)
    assert solved == {}

    def read_all(zs):
        for z in zs:
            cache.forward[z], cache.backward[z]

    early, late = range(0, len(objs), 2), range(1, len(objs), 2)
    read_all(early)  # before any split: solved, nothing to cut
    assert cuts == []
    cache.restrict(*splits[0])
    cache.restrict(*splits[1])
    read_all(early)  # one cut for splits 0 and 1
    read_all(early)  # nothing new
    read_all(late)  # solved late, then one cut
    cache.restrict(*splits[2])
    read_all(early)  # one cut for split 2
    read_all(late)
    entries = [(d, z) for z in range(len(objs)) for d in ("forward", "backward")]
    assert sorted(solved) == sorted(entries)
    for entry in entries:
        seen = [s for d, z, s in cuts if (d, z) == entry]
        # a space solved nonzero is cut once for both first splits, and
        # again after the third unless the first cut left nothing
        assert seen == ([2, 3] if solved[entry] else [])[: len(seen)]
        assert bool(seen) == bool(solved[entry])
    assert any(s == 3 for _, _, s in cuts)


def test_split_off_summand_rejects_a_cache_of_another_representation(catalog_p2):
    # the cache is kept in x's coordinates, so it serves x alone, before
    # and after its splits
    from subrep.birkhoff import _HomCache
    from subrep.errors import InternalContractViolation

    def make():
        return direct_sum([twisted_pair_representation(L2), all_free_representation(L2)]).rep

    x = make()
    # a cache of an equal representation that is not x
    with pytest.raises(InternalContractViolation):
        split_off_summand(x, catalog_p2, hom_cache=_HomCache(catalog_p2, make()))
    # a cache of x after a split serves neither the complement nor a copy of x
    cache = _HomCache(catalog_p2, x)
    _, f, q, _ = split_off_summand(x, catalog_p2, hom_cache=cache)
    cache.restrict(f, q)
    for other in (split_by_retraction(x, f, q).complement, make()):
        with pytest.raises(InternalContractViolation):
            split_off_summand(other, catalog_p2, hom_cache=cache)
    split_off_summand(x, catalog_p2, hom_cache=cache)


@pytest.mark.parametrize("p", [2, 3])
def test_split_off_summand_splits_what_remains_of_its_cache(p, request):
    # each summand lies in what the splits before it left: retraction .
    # mono = id and mono . retraction . keep = mono . retraction; once
    # nothing remains, keep is zero and there is nothing to split
    from subrep.birkhoff import _HomCache

    catalog = request.getfixturevalue(f"catalog_p{p}")
    for x in _chase_inputs(catalog):
        cache = _HomCache(catalog, x)
        while cache.remaining:
            keep = cache.keep
            idx, mono, retraction, _ = split_off_summand(x, catalog, hom_cache=cache)
            assert mono.source is catalog.objects[idx] and mono.target is x
            assert retraction @ mono == Morphism.identity(mono.source)
            e = mono @ retraction
            assert e @ keep == e
            cache.restrict(mono, retraction)
        assert cache.keep.is_zero()
        with pytest.raises(ValueError):
            split_off_summand(x, catalog, hom_cache=cache)


def test_the_chase_builds_no_complement(catalog_p2, catalog_p3, monkeypatch):
    # the chase runs in x's coordinates: it builds no complement
    # representation (split_by_retraction refuses), composes no morphism,
    # and solves top frames of the input and of catalog objects only
    from subrep import birkhoff, posetrep
    from subrep.repfile import parse_subspace_config, read_text

    def refuse(*args):
        raise AssertionError("the chase built a complement or composed a morphism")

    runs = [(decompose_full, x, c) for c in (catalog_p2, catalog_p3) for x in _chase_inputs(c)]
    five = parse_subspace_config(read_text(FIVE_SUMMANDS))
    runs.append((invariant_subspace_report, five, catalog_p2))
    for p, catalog in ((2, catalog_p2), (3, catalog_p3)):
        rng = np.random.default_rng(27 + p)
        configs = [random_subspace_config(PrimeField(p), 10, rng) for _ in range(10)]
        runs += [(invariant_subspace_report, cfg, catalog) for cfg in configs]
    real_top_frames = posetrep.Representation.top_frames
    framed_inputs = 0
    for run, arg, catalog in runs:
        framed = []

        def top_frames(rep):
            if rep._top is None:
                framed.append(rep)
            return real_top_frames(rep)

        with monkeypatch.context() as m:
            m.setattr(posetrep, "split_by_retraction", refuse)
            m.setattr(birkhoff, "split_by_retraction", refuse, raising=False)
            m.setattr(posetrep.Morphism, "__matmul__", refuse)
            m.setattr(posetrep.Representation, "top_frames", top_frames)
            result = run(arg, catalog)
        d = result if run is decompose_full else result.decomposition
        assert d.check()
        assert all(rep is d.object or any(rep is o for o in catalog.objects) for rep in framed)
        framed_inputs += any(rep is d.object for rep in framed)
    # the report builds its input, so its frames are solved under the patch
    assert framed_inputs >= 21


def test_validate_reports_each_kind_with_its_first_witness():
    """Free of rank two, T e0 = e1 and T e2 = e3.  Each span reports its
    first column that T moves out (v1: e2, v3: e0, not the later e2), then
    v1 its first column outside v2 (e2) and outside v3 (e1)."""
    e = Matrix.identity(F2, 4)

    def cols(*idx):
        return e.take_columns(idx)

    cfg = SubspaceConfig(LambdaModule.free(L2, 2), cols(1, 2), cols(1, 3, 0), cols(3, 0, 2))
    got = [(type(p), p.which, p.vector) for p in cfg.validate()]
    assert got == [
        (NotInvariantError, 1, cols(2)),
        (NotInvariantError, 3, cols(0)),
        (NotNestedError, 2, cols(2)),
        (NotNestedError, 3, cols(1)),
    ]

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


def test_split_projective_immediately(catalog_p2):
    m = all_free_representation(L2)
    idx, mono, retraction, trace = split_off_summand(m, catalog_p2)
    assert catalog_p2.projective[idx]
    assert len(trace.steps) == 1 and trace.steps[0]["split"]
    assert (retraction @ mono).is_zero() is False
    from subrep.posetrep import Morphism

    assert retraction @ mono == Morphism.identity(catalog_p2.objects[idx])


def test_split_m_plus_n_bounded(catalog_p2):
    m = all_free_representation(L2)
    n = twisted_pair_representation(L2)
    both = direct_sum([m, n]).rep
    bound = 2 ** catalog_p2.max_length() - 1
    idx, mono, retraction, trace = split_off_summand(both, catalog_p2)
    assert len(trace.steps) <= bound
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
    # HomSpace.source/target/basis; a rename must fail here
    from subrep import birkhoff
    from subrep.artheory import Catalog
    from subrep.posetrep import HomSpace, Morphism

    seen = []

    def check(cache):
        assert isinstance(cache.catalog, Catalog) and cache.catalog is catalog_p2
        assert isinstance(cache.current, Representation)
        indices = list(range(len(catalog_p2.objects)))
        assert sorted(cache.forward) == indices and sorted(cache.backward) == indices
        for z in indices:
            fwd, bwd = cache.forward[z], cache.backward[z]
            assert isinstance(fwd, HomSpace) and isinstance(bwd, HomSpace)
            assert fwd.source is catalog_p2.objects[z] and fwd.target is cache.current
            assert bwd.source is cache.current and bwd.target is catalog_p2.objects[z]
            for space in (fwd, bwd):
                assert isinstance(space.basis, tuple) and len(space.basis) == space.dim
                assert all(isinstance(h, Morphism) for h in space.basis)
                assert all(
                    h.source is space.source and h.target is space.target for h in space.basis
                )
        seen.append(cache.current)

    class Recording(birkhoff._HomCache):
        def __init__(self, catalog, x):
            super().__init__(catalog, x)
            check(self)

        def restrict(self, e, comp_incl, comp_proj, complement):
            super().restrict(e, comp_incl, comp_proj, complement)
            assert self.current is complement
            check(self)

    monkeypatch.setattr(birkhoff, "_HomCache", Recording)
    x = direct_sum([twisted_pair_representation(L2), all_free_representation(L2)]).rep
    d = decompose_full(x, catalog_p2)
    assert d.check()
    # one check after construction and one after each restrict, ending on zero
    assert len(seen) == len(d.summands) + 1
    assert seen[0] is x and seen[-1].total_dim() == 0


def _eager_hom_caches(catalog, x, steps):
    """Reference for the lazy `_HomCache`: the eager cache it replaced,
    which solved all 2 x len(catalog) spaces up front and restricted every
    one at every step.  Yields (forward, backward) before the first step
    and after each one."""
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


def _chase_steps(catalog, x, monkeypatch):
    """The restrict steps, in order, that the chase's cache takes while
    decomposing x."""
    from subrep import birkhoff

    steps = []

    class Recording(birkhoff._HomCache):
        def restrict(self, *step):
            steps.append(step)
            super().restrict(*step)

    with monkeypatch.context() as m:
        m.setattr(birkhoff, "_HomCache", Recording)
        decompose_full(x, catalog)
    return steps


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
    # one lazy cache is read in full after every split, so each read
    # replays one step; the other is read at random, so reads solve late
    # and replay several steps at once
    from subrep.birkhoff import _HomCache

    catalog = request.getfixturevalue(f"catalog_p{p}")
    rng = np.random.default_rng(p)
    for x in _chase_inputs(catalog):
        steps = _chase_steps(catalog, x, monkeypatch)
        every, sampled = _HomCache(catalog, x), _HomCache(catalog, x)
        for i, (forward, backward) in enumerate(_eager_hom_caches(catalog, x, steps)):
            if i:
                every.restrict(*steps[i - 1])
                sampled.restrict(*steps[i - 1])
            last = i == len(steps)
            for z in forward:
                _assert_same_space(every.forward[z], forward[z])
                _assert_same_space(every.backward[z], backward[z])
                if last or rng.random() < 0.3:
                    _assert_same_space(sampled.forward[z], forward[z])
                if last or rng.random() < 0.3:
                    _assert_same_space(sampled.backward[z], backward[z])


def test_lazy_hom_cache_solves_once_and_replays_each_step_once(catalog_p2, monkeypatch):
    from subrep import birkhoff

    n, m = twisted_pair_representation(L2), all_free_representation(L2)
    x = direct_sum([n, n, m]).rep
    steps = _chase_steps(catalog_p2, x, monkeypatch)
    assert len(steps) >= 3
    objs = catalog_p2.objects
    solved, replayed = [], []

    def index(obj):
        return next(z for z, o in enumerate(objs) if o is obj)

    def counting_hom_basis(source, target, real=birkhoff.hom_basis):
        solved.append(("forward", index(source)) if target is x else ("backward", index(target)))
        return real(source, target)

    def counting(direction, real):
        def step(homs, *args):
            obj = homs.source if direction == "forward" else homs.target
            i = next(i for i, s in enumerate(steps) if s[0] is args[0])
            replayed.append((direction, index(obj), i))
            return real(homs, *args)

        return step

    monkeypatch.setattr(birkhoff, "hom_basis", counting_hom_basis)
    monkeypatch.setattr(birkhoff, "_forward_step", counting("forward", birkhoff._forward_step))
    monkeypatch.setattr(birkhoff, "_backward_step", counting("backward", birkhoff._backward_step))
    cache = birkhoff._HomCache(catalog_p2, x)
    assert solved == []

    def read_all(zs):
        for z in zs:
            cache.forward[z], cache.backward[z]

    early, late = range(0, len(objs), 2), range(1, len(objs), 2)
    read_all(early)  # before any step: solved, nothing to replay
    assert replayed == []
    cache.restrict(*steps[0])
    cache.restrict(*steps[1])
    read_all(early)  # steps 0 and 1, each once
    read_all(early)  # nothing new
    read_all(late)  # solved late, then steps 0 and 1
    cache.restrict(*steps[2])
    read_all(early)  # step 2 only
    read_all(late)
    entries = [(d, z) for z in range(len(objs)) for d in ("forward", "backward")]
    assert sorted(solved) == sorted(entries)
    for d, z in entries:
        assert [i for dd, zz, i in replayed if (dd, zz) == (d, z)] == [0, 1, 2]
    assert len(replayed) == 3 * len(entries)


def test_split_off_summand_rejects_a_cache_of_another_representation(catalog_p2):
    from subrep.birkhoff import _HomCache
    from subrep.errors import InternalContractViolation

    def make():
        return direct_sum([twisted_pair_representation(L2), all_free_representation(L2)]).rep

    x = make()
    # a cache of an equal representation that is not x
    with pytest.raises(InternalContractViolation):
        split_off_summand(x, catalog_p2, hom_cache=_HomCache(catalog_p2, make()))
    # a cache of x that has already moved on to a complement
    cache = _HomCache(catalog_p2, x)
    _, f, q, _ = split_off_summand(x, catalog_p2, hom_cache=cache)
    res = split_by_retraction(x, f, q)
    cache.restrict(f @ q, res.complement_incl, res.complement_proj, res.complement)
    with pytest.raises(InternalContractViolation):
        split_off_summand(x, catalog_p2, hom_cache=cache)
    split_off_summand(res.complement, catalog_p2, hom_cache=cache)


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

"""Hom spaces, subrepresentations, kernels, images and idempotents from
fewer eliminations.

`hom_basis` into a subspace representation solves for the component at
'*' only and lifts it; `kernel_subrep`, `split_by_retraction` and
`image_subrep` read everything off one rref of each component;
`subrep_from_bases`, `subspace_representation`, `left_approx`,
`socle_subrep` and `SubspaceConfig.validate` read coordinates and
membership off one `span_frame` per vertex or subspace;
`decomp._crt_idempotents` evaluates each interpolant once, on the `*`
component of a subspace representation (and lifts it) or on the total
matrix of any other; `quotient_module` and `quotient_rep` read the induced maps off
one `cokernel_frame` per vertex, and `quotient_is_division_ring` the
End/J coordinates off the radical's.  The earlier constructions are
kept here as the reference: the full hom system (equivariance at every
vertex, naturality on every arrow), `submodule` plus one `solve` per
arrow for subrepresentations, one `solve` per vertex for the left
approximation's structure map, one `solve` per column for `validate`, a
`CoordinateSolver` per vertex for the projections, one `eval_matrix`
per vertex, a column basis, its left kernel and one `solve` per vertex
and per arrow for quotients, and a complement of the radical chosen by
`independent_columns` with its own `CoordinateSolver` for End/J.  The
references call none of the constructions they check.  The library's
results must equal them byte for byte (End/J: the same locality verdict)
at nilpotency 1..4 and p = 2, 3 and 2^31 - 1, on seeded subspace and
general representations, with zero vertices, the zero representation,
non-subspace targets and non-idempotent maps included.
"""

import numpy as np
import pytest

from subrep.approx import left_approx
from subrep.artheory import socle_subrep
from subrep.birkhoff import SubspaceConfig
from subrep.decomp import (
    _crt_idempotents,
    end_radical,
    indecompose,
    quotient_is_division_ring,
)
from subrep.errors import NoSolutionError, NotInvariantError, NotNestedError
from subrep.examples import example_quiver
from subrep.ffmat import (
    CoordinateSolver,
    Matrix,
    Poly,
    PrimeField,
    _matmul_mod,
    column_space_basis,
    factor,
    independent_columns,
    kernel_basis,
    min_poly,
    poly_xgcd,
    solve,
    span_frame,
)
from subrep.lambdamod import LambdaAlgebra, LambdaModule, quotient_module
from subrep.posetrep import (
    STAR,
    HomSpace,
    Morphism,
    Representation,
    direct_sum,
    end_algebra,
    hom_basis,
    image_subrep,
    kernel_subrep,
    quotient_rep,
    split_by_retraction,
    subrep_from_bases,
    subspace_representation,
)
from subrep.sampling import (
    random_invariant_subspace,
    random_module,
    random_representation,
    random_subspace_config,
    random_subspace_representation,
)

QUIVER = example_quiver()
CAPS = {"1": 2, "2": 3, "3": 3, STAR: 4}
ALGEBRAS = [(p, n) for p in (2, 3, 2**31 - 1) for n in (1, 2, 3, 4)]


# -- the references ------------------------------------------------------


def _ref_hom_flat(x, y):
    """Kernel of the full system, in `Morphism.flatten` coordinates."""
    verts = QUIVER.vertices
    offsets, total = {}, 0
    for v in verts:
        offsets[v] = total
        total += y.dim(v) * x.dim(v)
    rows = []
    for v in verts:
        blk = np.zeros((x.dim(v) * y.dim(v), total), dtype=np.int64)
        o = offsets[v]
        eye_x, eye_y = np.eye(x.dim(v), dtype=np.int64), np.eye(y.dim(v), dtype=np.int64)
        blk[:, o : o + x.dim(v) * y.dim(v)] = np.kron(x.spaces[v].t.a.T, eye_y) - np.kron(
            eye_x, y.spaces[v].t.a
        )
        rows.append(blk)
    for s, t in QUIVER.arrows:
        blk = np.zeros((y.dim(t) * x.dim(s), total), dtype=np.int64)
        ot, os_ = offsets[t], offsets[s]
        blk[:, ot : ot + x.dim(t) * y.dim(t)] = np.kron(
            x.arrow_maps[(s, t)].a.T, np.eye(y.dim(t), dtype=np.int64)
        )
        blk[:, os_ : os_ + x.dim(s) * y.dim(s)] -= np.kron(
            np.eye(x.dim(s), dtype=np.int64), y.arrow_maps[(s, t)].a
        )
        rows.append(blk)
    return kernel_basis(Matrix(x.field, np.vstack(rows)))


def _ref_is_subspace_rep(x):
    return all(m.rank() == m.cols for m in x.arrow_maps.values())


def _ref_submodule(m, basis):
    span = column_space_basis(basis)
    return LambdaModule(m.algebra, solve(span, m.t @ span)), span


def _ref_subrep_from_bases(x, bases):
    spaces, incls = {}, {}
    for v in QUIVER.vertices:
        spaces[v], incls[v] = _ref_submodule(x.spaces[v], bases[v])
    maps = {(s, t): solve(incls[t], x.arrow_maps[(s, t)] @ incls[s]) for s, t in QUIVER.arrows}
    sub = Representation(QUIVER, x.algebra, spaces, maps)
    return sub, Morphism(sub, x, incls)


def _ref_subspace_representation(top, spans):
    spaces = {STAR: top}
    incls = {STAR: Matrix.identity(top.algebra.field, top.dim)}
    for v in QUIVER.poset.points:
        spaces[v], incls[v] = _ref_submodule(top, spans[v])
    maps = {(s, t): solve(incls[t], incls[s]) for s, t in QUIVER.arrows}
    return Representation(QUIVER, top.algebra, spaces, maps), incls


def _ref_left_approx(x):
    images = {v: column_space_basis(x.composite_map(v, STAR)) for v in QUIVER.poset.points}
    approx, incls = _ref_subspace_representation(x.spaces[STAR], images)
    comps = {v: solve(incls[v], x.composite_map(v, STAR)) for v in QUIVER.vertices}
    return approx, Morphism(x, approx, comps)


def _ref_socle(x):
    bases = {}
    for v in QUIVER.vertices:
        rows = [x.spaces[v].t.a] + [x.arrow_maps[a].a for a in QUIVER.arrows_from(v)]
        bases[v] = kernel_basis(Matrix(x.field, np.vstack(rows)))
    return _ref_subrep_from_bases(x, bases)


def _ref_validate(cfg):
    problems = []
    spans = {1: cfg.v1, 2: cfg.v2, 3: cfg.v3}
    for j, span in spans.items():
        for col in range(span.cols):
            try:
                solve(span, cfg.v.t @ span.column(col))
            except NoSolutionError:
                problems.append(NotInvariantError(j, span.column(col)))
                break
    for j in (2, 3):
        for col in range(cfg.v1.cols):
            try:
                solve(spans[j], cfg.v1.column(col))
            except NoSolutionError:
                problems.append(NotNestedError(j, cfg.v1.column(col)))
                break
    return problems


def _ref_quotient_module(m, sub_basis):
    span = column_space_basis(sub_basis)
    proj = kernel_basis(span.transpose()).transpose()  # rows vanish on the span
    # induced operator q with q . proj = proj . t
    q = solve(proj.transpose(), (proj @ m.t).transpose()).transpose()
    return LambdaModule(m.algebra, q), proj


def _ref_quotient_rep(x, sub_bases):
    spaces, projs = {}, {}
    for v in QUIVER.vertices:
        spaces[v], projs[v] = _ref_quotient_module(x.spaces[v], sub_bases[v])
    maps = {}
    for s, t in QUIVER.arrows:
        rhs = projs[t] @ x.arrow_maps[(s, t)]
        maps[(s, t)] = solve(projs[s].transpose(), rhs.transpose()).transpose()
    quo = Representation(QUIVER, x.algebra, spaces, maps)
    return quo, Morphism(x, quo, projs)


def _ref_quotient_is_division_ring(end, rad):
    field = end.rep.field
    p = field.p
    q = rad.quotient_dim
    if q == 0:
        return False
    x = end.rep
    flat = end.space.basis_matrix()
    comp_idx = independent_columns(rad.coeff_matrix, Matrix.identity(field, end.dim))
    comp = HomSpace.from_flat(x, x, flat.take_columns(comp_idx))
    # coordinates over complement | radical; the first q are those in End/J
    solver = CoordinateSolver(comp.basis_matrix().hstack(rad.radical.basis_matrix()))
    table = np.empty((q, q, q), dtype=np.int64)  # [i, j, :] = e_i e_j
    for i, b in enumerate(comp.basis):
        table[i] = solver.coords(comp.postcomposed(b).basis_matrix()).a[:q].T
    if not np.array_equal(table, table.transpose(1, 0, 2)):
        return False
    by_left = table.reshape(q, q * q)

    def times(u, v):
        left = _matmul_mod(u, by_left, p).reshape(-1, q, q)
        return _matmul_mod(v[:, None, :], left, p)[:, 0, :]

    basis = np.eye(q, dtype=np.int64)
    power, square, e = None, basis, p
    while e:
        if e & 1:
            power = square if power is None else times(power, square)
        e >>= 1
        if e:
            square = times(square, square)
    return q - Matrix(field, power - basis).rank() == 1


def _ref_kernel(f):
    return _ref_subrep_from_bases(
        f.source, {v: kernel_basis(m) for v, m in f.components.items()}
    )


def _ref_image(f):
    sub, incl = _ref_subrep_from_bases(
        f.target, {v: column_space_basis(m) for v, m in f.components.items()}
    )
    core = {
        v: CoordinateSolver(incl.components[v]).coords(f.components[v]) for v in QUIVER.vertices
    }
    return sub, incl, Morphism(f.source, sub, core)


def _ref_complement_proj(x, e, comp_incl):
    field = x.field
    return {
        v: CoordinateSolver(comp_incl.components[v]).coords(
            Matrix.identity(field, x.dim(v)) - e.components[v]
        )
        for v in QUIVER.vertices
    }


def _ref_eval(poly, m):
    acc = Matrix.zeros(m.field, m.rows, m.cols)
    for c in reversed(poly.coeffs):
        acc = acc @ m + Matrix.identity(m.field, m.rows).scale(c)
    return acc


def _ref_idempotents(theta, factors, mp):
    out = []
    for irr, mult in factors:
        pk = Poly.one(mp.field)
        for _ in range(mult):
            pk = pk * irr
        qk = mp // pk
        _, u, _ = poly_xgcd(qk, pk)
        interp = (u * qk) % mp
        out.append({v: _ref_eval(interp, m) for v, m in theta.components.items()})
    return out


# -- comparisons ---------------------------------------------------------


def _same(a, b):
    return a.a.shape == b.a.shape and a.a.tobytes() == b.a.tobytes()


def _same_rep(x, y):
    return all(_same(x.spaces[v].t, y.spaces[v].t) for v in QUIVER.vertices) and all(
        _same(x.arrow_maps[a], y.arrow_maps[a]) for a in QUIVER.arrows
    )


def _same_map(f, g):
    return all(_same(f.components[v], g.components[v]) for v in QUIVER.vertices)


def _zero_at_points(algebra, rng):
    """A subspace representation that is zero at every poset point."""
    caps = {"1": 0, "2": 0, "3": 0, STAR: 3}
    return random_subspace_representation(QUIVER, algebra, caps, rng)


def _samples(p, n, seed):
    algebra = LambdaAlgebra(PrimeField(p), n)
    rng = np.random.default_rng(seed)
    subs = [random_subspace_representation(QUIVER, algebra, CAPS, rng) for _ in range(4)]
    subs += [_zero_at_points(algebra, rng), Representation.zero(QUIVER, algebra)]
    general = [random_representation(QUIVER, algebra, CAPS, rng) for _ in range(4)]
    return rng, subs, general


def _random_map(hs, rng):
    return hs.element(rng.integers(0, hs.source.field.p, size=hs.dim))


# -- tests ---------------------------------------------------------------


@pytest.mark.parametrize("p,n", ALGEBRAS)
def test_hom_basis_matches_full_system(p, n):
    _, subs, general = _samples(p, n, 7000 * n + p % 1000)
    reps = subs + general
    fallback = 0
    for y in reps:
        assert y.is_subspace_rep() == _ref_is_subspace_rep(y)
        fallback += not y.is_subspace_rep()
        for x in reps:
            assert _same(hom_basis(x, y).basis_matrix(), _ref_hom_flat(x, y))
    # the general samples exercise the full system
    assert fallback >= 2


@pytest.mark.parametrize("p,n", ALGEBRAS)
def test_kernel_and_image_match_subrep_from_bases(p, n):
    rng, subs, general = _samples(p, n, 8000 * n + p % 1000)
    reps = subs[:3] + general[:3]
    for x in reps:
        for y in reps:
            hs = hom_basis(x, y)
            for f in [_random_map(hs, rng) for _ in range(2)] + [Morphism.zero(x, y)]:
                ker, ker_incl = kernel_subrep(f)
                ref_ker, ref_ker_incl = _ref_kernel(f)
                assert _same_rep(ker, ref_ker) and _same_map(ker_incl, ref_ker_incl)
                img, img_incl, core = image_subrep(f)
                ref_img, ref_img_incl, ref_core = _ref_image(f)
                assert _same_rep(img, ref_img) and _same_map(img_incl, ref_img_incl)
                assert _same_map(core, ref_core)
                assert img_incl @ core == f


@pytest.mark.parametrize("p,n", ALGEBRAS)
def test_split_by_retraction_matches_coordinate_solver(p, n):
    _, subs, general = _samples(p, n, 9000 * n + p % 1000)
    pairs = []
    ds = direct_sum([subs[0], general[0], subs[4]])
    pairs += [(ds.rep, i, q) for i, q in zip(ds.inclusions, ds.projections)]
    for x in (subs[1], general[1]):
        d = indecompose(x, seed=1)
        pairs += [(x, s.inclusion, s.projection) for s in d.summands]
    assert len(pairs) >= 5
    for x, mono, retraction in pairs:
        res = split_by_retraction(x, mono, retraction)
        e = mono @ retraction
        ref_comp, ref_incl = _ref_kernel(e)
        assert _same_rep(res.complement, ref_comp)
        assert _same_map(res.complement_incl, ref_incl)
        ref_proj = _ref_complement_proj(x, e, ref_incl)
        assert all(_same(res.complement_proj.components[v], ref_proj[v]) for v in QUIVER.vertices)


@pytest.mark.parametrize("p,n", ALGEBRAS)
def test_crt_idempotents_match_per_vertex_evaluation(p, n):
    rng, subs, general = _samples(p, n, 10000 * n + p % 1000)
    split = {True: 0, False: 0}  # by path: `*` plus lift, total matrix
    for x in subs[:4] + general + [direct_sum(subs[:2]).rep]:
        end, star = end_algebra(x), x.is_subspace_rep()
        for _ in range(3):
            theta = end.element(rng.integers(0, p, size=end.dim))
            total = theta.total_matrix()
            mp = min_poly(total)
            if star:
                assert min_poly(theta.components[STAR]) == mp
            factors = factor(mp, seed=0)
            split[star] += len(factors) >= 2
            at = theta.components[STAR] if star else total
            got = _crt_idempotents(x, at, factors, mp)
            want = _ref_idempotents(theta, factors, mp)
            assert len(got) == len(want)
            for e, ref in zip(got, want):
                assert all(_same(e.components[v], ref[v]) for v in QUIVER.vertices)
    assert split[True] and split[False]


def _outcome(build, *args):
    """build(*args), or NoSolutionError when it raises that."""
    try:
        return build(*args)
    except NoSolutionError:
        return NoSolutionError


def _random_columns(field, rows, cols, rng):
    return Matrix(field, rng.integers(0, field.p, size=(rows, cols)))


def _problems(problems):
    return [(type(e), e.which, e.vector.a.shape, e.vector.a.tobytes()) for e in problems]


@pytest.mark.parametrize("p,n", ALGEBRAS)
def test_subrep_from_bases_matches_solve_per_arrow(p, n):
    rng, subs, general = _samples(p, n, 11000 * n + p % 1000)
    accepted = rejected = 0
    for x in subs + general:
        field = x.field
        candidates = [{v: _random_columns(field, x.dim(v), 2, rng) for v in QUIVER.vertices}]
        for y in (subs[0], general[0]):
            # images of maps into x (dependent columns), kernels of maps out of x
            candidates.append(_random_map(hom_basis(y, x), rng).components)
            out = _random_map(hom_basis(x, y), rng).components
            candidates.append({v: kernel_basis(m) for v, m in out.items()})
        for bases in candidates:
            got = _outcome(subrep_from_bases, x, bases)
            want = _outcome(_ref_subrep_from_bases, x, bases)
            if want is NoSolutionError:
                assert got is NoSolutionError
                rejected += 1
            else:
                assert _same_rep(got[0], want[0]) and _same_map(got[1], want[1])
                accepted += 1
    assert accepted and rejected


@pytest.mark.parametrize("p,n", ALGEBRAS)
def test_subspace_representation_matches_solve_per_arrow(p, n):
    rng, subs, general = _samples(p, n, 12000 * n + p % 1000)
    rejected = 0
    for x in subs + general:
        top = x.spaces[STAR]
        # the images of the composites are invariant and nested; in the
        # general samples their columns are dependent
        images = {v: x.composite_map(v, STAR) for v in QUIVER.poset.points}
        shuffled = {v: _random_columns(x.field, top.dim, 1, rng) for v in QUIVER.poset.points}
        for spans in (images, shuffled):
            got = _outcome(subspace_representation, QUIVER, top, spans)
            want = _outcome(_ref_subspace_representation, top, spans)
            if want is NoSolutionError:
                assert got is NoSolutionError
                rejected += 1
                continue
            assert _same_rep(got[0], want[0])
            assert all(_same(got[1][v], want[1][v]) for v in QUIVER.vertices)
    assert rejected


@pytest.mark.parametrize("p,n", ALGEBRAS)
def test_left_approx_and_socle_match_solve_per_vertex(p, n):
    _, subs, general = _samples(p, n, 13000 * n + p % 1000)
    for x in subs + general:
        res = left_approx(x)
        approx, structure = _ref_left_approx(x)
        assert _same_rep(res.approx, approx) and _same_map(res.structure_map, structure)
        soc, soc_incl = socle_subrep(x)
        ref_soc, ref_incl = _ref_socle(x)
        assert _same_rep(soc, ref_soc) and _same_map(soc_incl, ref_incl)


@pytest.mark.parametrize("p,n", ALGEBRAS)
def test_validate_matches_solve_per_column(p, n):
    rng, subs, general = _samples(p, n, 14000 * n + p % 1000)
    configs = [random_subspace_config(PrimeField(p), 4, rng) for _ in range(3)]
    for x in subs + general:
        v, d = x.spaces[STAR], x.dim(STAR)
        spans = [x.composite_map(u, STAR) for u in ("1", "2", "3")]
        configs.append(SubspaceConfig(v, *spans))
        configs.append(SubspaceConfig(v, *(_random_columns(x.field, d, 2, rng) for _ in range(3))))
        configs.append(SubspaceConfig(v, _random_columns(x.field, d, 1, rng), *spans[1:]))
    module = random_module(LambdaAlgebra(PrimeField(p), n), 3, rng)
    configs.append(SubspaceConfig(module, *(_random_columns(module.t.field, 3, 0, rng),) * 3))
    kinds = set()
    for cfg in configs:
        got = _problems(cfg.validate())
        assert got == _problems(_ref_validate(cfg))
        kinds.update(kind for kind, *_ in got)
    # at n = 1, T = 0 leaves every subspace invariant
    assert kinds == {NotNestedError} | ({NotInvariantError} if n > 1 else set())


@pytest.mark.parametrize("p,n", ALGEBRAS)
def test_quotient_module_matches_solve(p, n):
    algebra = LambdaAlgebra(PrimeField(p), n)
    rng = np.random.default_rng(15000 * n + p % 1000)
    accepted = rejected = 0
    for d in range(6):
        m = random_module(algebra, d, rng)
        ident = Matrix.identity(algebra.field, d)
        power = ident
        subs = [_random_columns(algebra.field, d, k, rng) for k in range(3)]
        subs += [random_invariant_subspace(m, ident, d, rng) for _ in range(2)]
        for _ in range(n):
            power = power @ m.t
            subs += [power, kernel_basis(power)]  # T^k: dependent columns, invariant
        for sub in subs:
            got = _outcome(quotient_module, m, sub)
            want = _outcome(_ref_quotient_module, m, sub)
            if want is NoSolutionError:
                assert got is NoSolutionError
                rejected += 1
            else:
                assert _same(got[0].t, want[0].t) and _same(got[1][0], want[1])
                accepted += 1
    # at n = 1, T = 0 leaves every subspace invariant
    assert accepted and (rejected or n == 1)


@pytest.mark.parametrize("p,n", ALGEBRAS)
def test_quotient_rep_matches_solve_per_arrow(p, n):
    rng, subs, general = _samples(p, n, 16000 * n + p % 1000)
    accepted = rejected = 0
    for x in subs + general:
        field = x.field
        candidates = [{v: _random_columns(field, x.dim(v), 1, rng) for v in QUIVER.vertices}]
        # everything at the points, nothing at '*': the arrows into '*' leave it
        full = {v: Matrix.identity(field, x.dim(v)) for v in QUIVER.vertices}
        candidates.append(full | {STAR: Matrix.zeros(field, x.dim(STAR), 0)})
        for y in (subs[0], general[0]):
            # images of maps into x (dependent columns), kernels of maps out of x
            candidates.append(_random_map(hom_basis(y, x), rng).components)
            out = _random_map(hom_basis(x, y), rng).components
            candidates.append({v: kernel_basis(m) for v, m in out.items()})
        for bases in candidates:
            got = _outcome(quotient_rep, x, bases)
            want = _outcome(_ref_quotient_rep, x, bases)
            if want is NoSolutionError:
                assert got is NoSolutionError
                rejected += 1
            else:
                assert _same_rep(got[0], want[0]) and _same_map(got[1], want[1])
                accepted += 1
    assert accepted and rejected


@pytest.mark.parametrize("p,n", ALGEBRAS)
def test_is_local_matches_complement_solver(p, n):
    """End/J read off the radical's cokernel frame gives the same
    locality as the complement picked by `independent_columns`, the same
    projection as the left kernel of the radical coordinates, and the
    same radical membership as the `span_frame` of them."""
    rng, subs, general = _samples(p, n, 17000 * n + p % 1000)
    reps = subs + general
    reps += [s.rep for x in (subs[1], general[1]) for s in indecompose(x, seed=1).summands]
    seen = set()
    for x in reps:
        end, rad = end_algebra(x), end_radical(x)
        local = quotient_is_division_ring(end, rad)
        assert local == _ref_quotient_is_division_ring(end, rad)
        seen.add(local)
        assert _same(rad.frame[0], kernel_basis(rad.coeff_matrix.transpose()).transpose())
        # random elements, and radical ones
        field, r = x.field, rad.coeff_matrix.cols
        coeffs = Matrix(field, rng.integers(0, p, size=(end.dim, 3))).hstack(
            rad.coeff_matrix @ Matrix(field, rng.integers(0, p, size=(r, 2)))
        )
        elements = end.space.combinations(coeffs)
        in_rad = ~rad.quotient_coords(elements).any(axis=0)
        coords = CoordinateSolver(end.space.basis_matrix()).coords(elements.basis_matrix())
        pivots, u = span_frame(rad.coeff_matrix)
        assert np.array_equal(in_rad, ~(u @ coords).a[len(pivots) :].any(axis=0))
    assert seen == {True, False}

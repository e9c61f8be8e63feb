"""Posets, the augmented quiver, representations, morphisms and hom spaces.

A representation assigns a k[T]/T^n-module to every vertex of the
augmented quiver (the poset plus a largest point "*") and a T-equivariant
matrix to every arrow (Hasse covers plus maximal -> *), such that parallel
paths commute.  Subspace representations are those where every arrow
matrix has full column rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NoSolutionError,
    NotARetractionError,
    NotComparableError,
    UnknownVertexError,
)
from .ffmat import (
    CoordinateSolver,
    Matrix,
    _matmul_mod,
    _wrap,
    block_diag,
    column_space_basis,
    kernel_basis,
    solve,
)
from .lambdamod import (
    LambdaAlgebra,
    LambdaModule,
    direct_sum_modules,
    quotient_module,
    submodule,
)

STAR = "*"


class Poset:
    """Finite poset; the order of `points` is a stored linear extension."""

    __slots__ = ("points", "le", "_covers")

    def __init__(self, points, relations):
        points = tuple(str(x) for x in points)
        if STAR in points:
            raise ValueError("the label '*' is reserved for the added top")
        if len(set(points)) != len(points):
            raise ValueError("duplicate point labels")
        le = {(x, x) for x in points}
        le.update((str(a), str(b)) for a, b in relations)
        for a, b in le:
            if a not in points or b not in points:
                raise ValueError(f"relation mentions unknown point {a!r} or {b!r}")
        # reflexive-transitive closure
        changed = True
        while changed:
            changed = False
            for a, b in list(le):
                for c, d in list(le):
                    if b == c and (a, d) not in le:
                        le.add((a, d))
                        changed = True
        for a, b in le:
            if a != b and (b, a) in le:
                raise ValueError(f"antisymmetry fails on {a!r}, {b!r}")
        index = {x: i for i, x in enumerate(points)}
        for a, b in le:
            if index[a] > index[b]:
                raise ValueError("point order is not a linear extension of the order")
        self.points = points
        self.le = frozenset(le)
        covers = []
        for a in points:
            for b in points:
                if a != b and (a, b) in le:
                    if not any(
                        c != a and c != b and (a, c) in le and (c, b) in le
                        for c in points
                    ):
                        covers.append((a, b))
        self._covers = tuple(sorted(covers, key=lambda e: (index[e[0]], index[e[1]])))

    def leq(self, a, b) -> bool:
        return (a, b) in self.le

    def covers(self):
        return self._covers

    def maximal_elements(self):
        return tuple(
            a for a in self.points if not any(a != b and self.leq(a, b) for b in self.points)
        )

    def __eq__(self, other):
        return (
            isinstance(other, Poset)
            and other.points == self.points
            and other.le == self.le
        )

    def __hash__(self):
        return hash((self.points, self.le))

    def __repr__(self):
        rels = " ".join(f"{a}<{b}" for a, b in self._covers)
        return f"Poset({' '.join(self.points)}; {rels})"


def example_poset() -> Poset:
    """The worked example: three points with 1 < 2 and 1 < 3."""
    return Poset(("1", "2", "3"), [("1", "2"), ("1", "3")])


class QuiverStar:
    """The poset with one largest point '*' adjoined.

    Arrows are the Hasse covers of the poset plus one arrow from each
    maximal element to '*'.
    """

    __slots__ = ("poset", "vertices", "arrows", "_index")

    def __init__(self, poset: Poset):
        self.poset = poset
        self.vertices = poset.points + (STAR,)
        arrows = list(poset.covers())
        arrows.extend((m, STAR) for m in poset.maximal_elements())
        self.arrows = tuple(arrows)
        self._index = {v: i for i, v in enumerate(self.vertices)}

    def leq(self, a, b) -> bool:
        if a not in self._index or b not in self._index:
            raise UnknownVertexError(f"unknown vertex {a!r} or {b!r}")
        if b == STAR:
            return True
        if a == STAR:
            return False
        return self.poset.leq(a, b)

    def index(self, v) -> int:
        if v not in self._index:
            raise UnknownVertexError(f"unknown vertex {v!r}")
        return self._index[v]

    def linear_extension(self):
        return self.vertices

    def arrows_from(self, v):
        return tuple(a for a in self.arrows if a[0] == v)

    def arrows_into(self, v):
        return tuple(a for a in self.arrows if a[1] == v)

    def __eq__(self, other):
        return isinstance(other, QuiverStar) and other.poset == self.poset

    def __hash__(self):
        return hash(self.poset)

    def __repr__(self):
        return f"QuiverStar({self.poset!r})"


class Representation:
    """Vertex modules plus arrow matrices on the augmented quiver.

    Not mutated after construction, so derived data is memoized on the
    instance on first use: `_paths` by `composite_map`, `_fingerprint` by
    `decomp.fingerprint`."""

    __slots__ = ("quiver", "algebra", "spaces", "arrow_maps", "_paths", "_fingerprint")

    def __init__(self, quiver: QuiverStar, algebra: LambdaAlgebra, spaces, arrow_maps):
        self.quiver = quiver
        self.algebra = algebra
        self.spaces = dict(spaces)
        self.arrow_maps = dict(arrow_maps)
        self._paths = None
        self._fingerprint = None
        for v in quiver.vertices:
            if v not in self.spaces:
                raise ValueError(f"missing space at vertex {v!r}")
        for a in quiver.arrows:
            if a not in self.arrow_maps:
                raise ValueError(f"missing matrix for arrow {a[0]}->{a[1]}")

    @classmethod
    def zero(cls, quiver, algebra):
        spaces = {v: LambdaModule.zero(algebra) for v in quiver.vertices}
        maps = {a: Matrix.zeros(algebra.field, 0, 0) for a in quiver.arrows}
        return cls(quiver, algebra, spaces, maps)

    @property
    def field(self):
        return self.algebra.field

    def dim(self, v) -> int:
        return self.spaces[v].dim

    def dim_vector(self):
        return tuple(self.spaces[v].dim for v in self.quiver.vertices)

    def total_dim(self) -> int:
        return sum(self.spaces[v].dim for v in self.quiver.vertices)

    def is_zero(self) -> bool:
        return self.total_dim() == 0

    def validate(self):
        """Returns a list of violation strings; empty means valid."""
        problems = []
        for (s, t), m in self.arrow_maps.items():
            if m.rows != self.dim(t) or m.cols != self.dim(s):
                problems.append(
                    f"arrow {s}->{t}: matrix is {m.rows}x{m.cols}, expected {self.dim(t)}x{self.dim(s)}"
                )
                continue
            if m @ self.spaces[s].t != self.spaces[t].t @ m:
                problems.append(f"arrow {s}->{t}: matrix is not T-equivariant")
        if problems:
            return problems
        # path commutativity: composite along every path between two
        # vertices must agree
        for i in self.quiver.vertices:
            reached = {}
            self._walk_paths(i, i, Matrix.identity(self.field, self.dim(i)), reached, problems)
        return problems

    def _walk_paths(self, start, v, acc, reached, problems):
        for (s, t) in self.quiver.arrows_from(v):
            m = self.arrow_maps[(s, t)] @ acc
            if t in reached:
                if reached[t] != m:
                    problems.append(
                        f"paths from {start} to {t} do not commute (last arrow {s}->{t})"
                    )
            else:
                reached[t] = m
                self._walk_paths(start, t, m, reached, problems)

    def composite_map(self, i, j) -> Matrix:
        """The map X_i -> X_j along any path; identity when i = j."""
        if i == j:
            return Matrix.identity(self.field, self.dim(i))
        if not self.quiver.leq(i, j):
            raise NotComparableError(f"{i!r} is not below {j!r}")
        if self._paths is None:
            self._paths = {}
        key = (i, j)
        if key not in self._paths:
            # follow any path of covers; commutativity makes the choice moot
            for (s, t) in self.quiver.arrows_from(i):
                if t == j:
                    self._paths[key] = self.arrow_maps[(s, t)]
                    break
                if self.quiver.leq(t, j):
                    self._paths[key] = self.composite_map(t, j) @ self.arrow_maps[(s, t)]
                    break
            else:
                raise NotComparableError(f"no path from {i!r} to {j!r}")
        return self._paths[key]

    def is_subspace_rep(self) -> bool:
        """True iff every arrow matrix has full column rank."""
        return all(m.rank() == m.cols for m in self.arrow_maps.values())

    def __repr__(self):
        dims = ",".join(str(self.dim(v)) for v in self.quiver.vertices)
        return f"Representation(dims=({dims}) over {self.algebra})"


class Morphism:
    """A natural, vertex-wise T-equivariant map between representations."""

    __slots__ = ("source", "target", "components")

    def __init__(self, source: Representation, target: Representation, components):
        self.source = source
        self.target = target
        self.components = dict(components)

    @classmethod
    def identity(cls, x: Representation):
        return cls(
            x, x, {v: Matrix.identity(x.field, x.dim(v)) for v in x.quiver.vertices}
        )

    @classmethod
    def zero(cls, source, target):
        return cls(
            source,
            target,
            {
                v: Matrix.zeros(source.field, target.dim(v), source.dim(v))
                for v in source.quiver.vertices
            },
        )

    def component(self, v) -> Matrix:
        return self.components[v]

    def is_valid(self) -> bool:
        for v in self.source.quiver.vertices:
            f = self.components[v]
            if f.rows != self.target.dim(v) or f.cols != self.source.dim(v):
                return False
            if f @ self.source.spaces[v].t != self.target.spaces[v].t @ f:
                return False
        for (s, t) in self.source.quiver.arrows:
            lhs = self.components[t] @ self.source.arrow_maps[(s, t)]
            rhs = self.target.arrow_maps[(s, t)] @ self.components[s]
            if lhs != rhs:
                return False
        return True

    def __matmul__(self, other: "Morphism") -> "Morphism":
        """Composition self . other."""
        return Morphism(
            other.source,
            self.target,
            {
                v: self.components[v] @ other.components[v]
                for v in self.source.quiver.vertices
            },
        )

    def __add__(self, other):
        return Morphism(
            self.source,
            self.target,
            {v: self.components[v] + other.components[v] for v in self.components},
        )

    def __sub__(self, other):
        return Morphism(
            self.source,
            self.target,
            {v: self.components[v] - other.components[v] for v in self.components},
        )

    def scale(self, c):
        return Morphism(
            self.source, self.target, {v: m.scale(c) for v, m in self.components.items()}
        )

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.components.values())

    def flatten(self) -> np.ndarray:
        """Stacked entries in vertex order; the coordinate vector used by
        hom-space bases."""
        parts = [
            self.components[v].a.flatten(order="F")
            for v in self.source.quiver.vertices
        ]
        return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)

    def total_matrix(self) -> Matrix:
        """Block-diagonal matrix on the direct sum of all vertex spaces."""
        return block_diag(
            self.source.field,
            [self.components[v] for v in self.source.quiver.vertices],
        )

    def rank(self) -> int:
        return sum(self.components[v].rank() for v in self.components)

    def __eq__(self, other):
        return isinstance(other, Morphism) and all(
            other.components[v] == self.components[v] for v in self.components
        )

    def __repr__(self):
        return f"Morphism({self.source!r} -> {self.target!r})"


def morphism_from_flat(x, y, vec) -> Morphism:
    """Inverse of Morphism.flatten; `vec` is an int64 vector already
    reduced mod p."""
    comps = {}
    o = 0
    for v in x.quiver.vertices:
        r, c = y.dim(v), x.dim(v)
        # column-major (r, c) is the transpose of row-major (c, r)
        comps[v] = _wrap(x.field, vec[o : o + r * c].reshape((c, r)).T.copy())
        o += r * c
    return Morphism(x, y, comps)


class HomSpace:
    """A span of morphisms source -> target, held as one flat coordinate
    matrix: column j is the j-th spanning morphism flattened in
    `Morphism.flatten` order (vertex by vertex, each component
    column-major).  The columns may be dependent (a list of composites,
    say); `hom_basis` returns an actual basis.

    `source`, `target` and `basis` (the spanning morphisms, built from
    the columns on first read) are the public contract: the content
    digest of `perfbench/layertrace.py` reads exactly these three.

    Composing every element with one map costs one product per vertex.
    The rows of vertex v, read as a (dim source_v, dim target_v, k)
    array, hold the transposed components h_1^T, ..., h_k^T, so g . h_j
    for all j is g times that stack, and h_j . f for all j is f^T times
    the same rows read as [h_1^T | ... | h_k^T].
    """

    __slots__ = ("source", "target", "_flat", "_basis")

    def __init__(self, source: Representation, target: Representation, basis):
        """The span of the morphisms in `basis`, in order."""
        self.source = source
        self.target = target
        self._basis = tuple(basis)
        if self._basis:
            # components are reduced, so the stacked copy is too
            flat = np.stack([m.flatten() for m in self._basis], axis=1)
        else:
            flat = np.zeros((_flat_size(source, target), 0), dtype=np.int64)
        self._flat = _wrap(source.field, flat)

    @classmethod
    def from_flat(cls, source, target, flat: Matrix) -> "HomSpace":
        """The span of the columns of `flat` (reduced, `flatten` order)."""
        hs = object.__new__(cls)
        hs.source = source
        hs.target = target
        hs._flat = flat
        hs._basis = None
        return hs

    @classmethod
    def joined(cls, source, target, spaces) -> "HomSpace":
        """All spanning columns of `spaces` (spans source -> target), in
        order."""
        cols = [s._flat.a for s in spaces]
        if not cols:
            return cls(source, target, ())
        return cls.from_flat(source, target, _wrap(source.field, np.hstack(cols)))

    @property
    def basis(self) -> tuple:
        if self._basis is None:
            cols = self._flat.a.T
            self._basis = tuple(
                morphism_from_flat(self.source, self.target, cols[j])
                for j in range(self.dim)
            )
        return self._basis

    @property
    def dim(self):
        return self._flat.cols

    def basis_matrix(self) -> Matrix:
        """Columns are the flattened spanning morphisms."""
        return self._flat

    def postcomposed(self, g: Morphism) -> "HomSpace":
        """The span of g . h over the spanning h, in order; g: target -> z."""
        x, z = self.source, g.target
        a, k, p = self._flat.a, self.dim, x.field.p
        parts = []
        o = 0
        for v in x.quiver.vertices:
            c, r = x.dim(v), self.target.dim(v)
            # [l, i, j] = h_j[i, l]; g_v @ stack is [l, i', j] = (g_v h_j)[i', l]
            stack = a[o : o + r * c].reshape(c, r, k)
            parts.append(_matmul_mod(g.components[v].a, stack, p).reshape(c * z.dim(v), k))
            o += r * c
        return HomSpace.from_flat(x, z, _wrap(x.field, np.concatenate(parts)))

    def precomposed(self, f: Morphism) -> "HomSpace":
        """The span of h . f over the spanning h, in order; f: w -> source."""
        w, y = f.source, self.target
        a, k, p = self._flat.a, self.dim, w.field.p
        parts = []
        o = 0
        for v in w.quiver.vertices:
            c, r = self.source.dim(v), y.dim(v)
            # [l, i*k + j] = h_j[i, l]; f_v^T times it is (h_j f_v)^T
            side = a[o : o + r * c].reshape(c, r * k)
            parts.append(_matmul_mod(f.components[v].a.T, side, p).reshape(w.dim(v) * r, k))
            o += r * c
        return HomSpace.from_flat(w, y, _wrap(w.field, np.concatenate(parts)))

    def combinations(self, coeffs: Matrix) -> "HomSpace":
        """The span of the combinations sum_i coeffs[i, j] basis[i], one
        per column j of coeffs."""
        p = self.source.field.p
        return HomSpace.from_flat(
            self.source,
            self.target,
            _wrap(self.source.field, _matmul_mod(self._flat.a, coeffs.a, p)),
        )

    def element(self, coords) -> Morphism:
        """The combination sum coords[i] basis[i]."""
        p = self.source.field.p
        c = np.asarray(coords, dtype=np.int64).reshape(-1, 1) % p
        vec = _matmul_mod(self._flat.a, c, p)[:, 0]
        return morphism_from_flat(self.source, self.target, vec)

    def coefficients(self, targets):
        """Coefficients of each target morphism over the spanning list: a
        dim x len(targets) Matrix with free coefficients 0, or None when
        some target lies outside the span.  `targets` is a list of
        morphisms or a HomSpace (its spanning columns).  An empty span
        holds only the zero map."""
        if not isinstance(targets, HomSpace):
            targets = HomSpace(self.source, self.target, targets)
        rhs = targets.basis_matrix()
        if not self.dim:
            return Matrix.zeros(rhs.field, 0, rhs.cols) if rhs.is_zero() else None
        try:
            return solve(self._flat, rhs)
        except NoSolutionError:
            return None


def _flat_size(x: Representation, y: Representation) -> int:
    """Length of a flattened morphism x -> y."""
    return sum(y.dim(v) * x.dim(v) for v in x.quiver.vertices)


def hom_basis(x: Representation, y: Representation) -> HomSpace:
    """Basis of the space of morphisms x -> y.

    Solves the linear system consisting of T-equivariance at every vertex
    and naturality for every arrow, in the flattened coordinates of
    morphism_from_flat.  Deterministic.
    """
    field = x.field
    verts = x.quiver.vertices
    arrows = x.quiver.arrows
    dx = {v: x.dim(v) for v in verts}
    dy = {v: y.dim(v) for v in verts}
    offsets = {}
    total = 0
    for v in verts:
        offsets[v] = total
        total += dy[v] * dx[v]
    # one row block per vertex (dx*dy rows) and per arrow s -> t (dy_t*dx_s
    # rows), skipping the empty ones
    height = sum(dx[v] * dy[v] for v in verts) + sum(dy[t] * dx[s] for s, t in arrows)
    if height == 0:
        k = Matrix.identity(field, total)
    else:
        system = np.zeros((height, total), dtype=np.int64)

        def block(r, v, d1, d2):
            # rows r .. r + d1*d2 and the columns of vec(f_v), viewed as
            # [i, k, j, l] = (row r + i*d2 + k, column j*dy_v + l), where
            # A kron B is [i, k, j, l] = A[i, j] B[k, l]: A kron I fills
            # [:, k, :, k] and I kron B fills [i, :, i, :]
            o = offsets[v]
            return system[r : r + d1 * d2, o : o + dx[v] * dy[v]].reshape(
                d1, d2, dx[v], dy[v]
            )

        r = 0
        for v in verts:
            n = dx[v] * dy[v]
            if n == 0:
                continue
            # f tx - ty f = 0  ->  (tx^T kron I - I kron ty) vec(f) = 0
            b = block(r, v, dx[v], dy[v])
            ks, js = np.arange(dy[v]), np.arange(dx[v])
            b[:, ks, :, ks] = x.spaces[v].t.a.T
            b[js, :, js, :] -= y.spaces[v].t.a
            r += n
        for (s, t) in arrows:
            n = dy[t] * dx[s]
            if n == 0:
                continue
            # f_t X_a - Y_a f_s = 0: (X_a^T kron I) vec(f_t) - (I kron Y_a) vec(f_s)
            if dx[t]:
                ks = np.arange(dy[t])
                block(r, t, dx[s], dy[t])[:, ks, :, ks] = x.arrow_maps[(s, t)].a.T
            if dy[s]:
                js = np.arange(dx[s])
                block(r, s, dx[s], dy[t])[js, :, js, :] = -y.arrow_maps[(s, t)].a
            r += n
        k = kernel_basis(Matrix(field, system))
    return HomSpace.from_flat(x, y, k)


def postcompose(g: Morphism, x: Representation) -> HomSpace:
    """The maps x -> g.target that factor through g, spanned by g . h over
    a basis h of Hom(x, g.source)."""
    return hom_basis(x, g.source).postcomposed(g)


def precompose(f: Morphism, x: Representation) -> HomSpace:
    """The maps f.source -> x that factor through f, spanned by h . f over
    a basis h of Hom(f.target, x)."""
    return hom_basis(f.target, x).precomposed(f)


class EndAlgebra:
    """End(x) over the basis of the hom space `space` = Hom(x, x), with
    (lazily computed) structure constants."""

    __slots__ = ("space", "_table", "_id_coords", "_solver")

    def __init__(self, space: HomSpace):
        self.space = space
        self._table = None
        self._id_coords = None
        self._solver = None

    @property
    def rep(self) -> Representation:
        return self.space.source

    @property
    def basis(self) -> tuple:
        return self.space.basis

    @property
    def dim(self):
        return self.space.dim

    def solver(self):
        if self._solver is None:
            self._solver = CoordinateSolver(self.space.basis_matrix())
        return self._solver

    def coords(self, f: Morphism) -> np.ndarray:
        vec = Matrix(self.rep.field, f.flatten().reshape(-1, 1))
        return self.solver().coords(vec).a[:, 0]

    def structure_constants(self) -> np.ndarray:
        """table[i, j, :] = coordinates of basis[i] . basis[j]."""
        if self._table is None:
            n = self.dim
            table = np.zeros((n, n, n), dtype=np.int64)
            for i, f in enumerate(self.basis):
                # column j: coordinates of f . basis[j]
                products = self.space.postcomposed(f).basis_matrix()
                table[i] = self.solver().coords(products).a.T
            self._table = table
        return self._table

    def identity_coords(self) -> np.ndarray:
        if self._id_coords is None:
            self._id_coords = self.coords(Morphism.identity(self.rep))
        return self._id_coords

    def element(self, coords) -> Morphism:
        return self.space.element(coords)


def end_algebra(x: Representation) -> EndAlgebra:
    return EndAlgebra(hom_basis(x, x))


@dataclass
class DirectSum:
    rep: Representation
    inclusions: list
    projections: list


def direct_sum(xs) -> DirectSum:
    """Block-diagonal direct sum with canonical inclusions/projections."""
    if not xs:
        raise ValueError("direct_sum of an empty list needs a quiver; use Representation.zero")
    quiver = xs[0].quiver
    algebra = xs[0].algebra
    field = algebra.field
    for x in xs:
        if x.quiver != quiver or x.algebra != algebra:
            raise ValueError("summands live over different quivers or algebras")
    spaces = {
        v: direct_sum_modules([x.spaces[v] for x in xs]) for v in quiver.vertices
    }
    maps = {}
    for (s, t) in quiver.arrows:
        rows = sum(x.dim(t) for x in xs)
        cols = sum(x.dim(s) for x in xs)
        m = np.zeros((rows, cols), dtype=np.int64)
        ro = co = 0
        for x in xs:
            a = x.arrow_maps[(s, t)]
            m[ro : ro + a.rows, co : co + a.cols] = a.a
            ro += a.rows
            co += a.cols
        maps[(s, t)] = Matrix(field, m)
    total = Representation(quiver, algebra, spaces, maps)
    inclusions = []
    projections = []
    offsets = {v: 0 for v in quiver.vertices}
    for x in xs:
        incl = {}
        proj = {}
        for v in quiver.vertices:
            d, dt = x.dim(v), total.dim(v)
            o = offsets[v]
            im = np.zeros((dt, d), dtype=np.int64)
            pm = np.zeros((d, dt), dtype=np.int64)
            im[o : o + d] = np.eye(d, dtype=np.int64)
            pm[:, o : o + d] = np.eye(d, dtype=np.int64)
            incl[v] = Matrix(field, im)
            proj[v] = Matrix(field, pm)
            offsets[v] = o + d
        inclusions.append(Morphism(x, total, incl))
        projections.append(Morphism(total, x, proj))
    return DirectSum(total, inclusions, projections)


def subrep_from_bases(x: Representation, bases) -> tuple:
    """Subrepresentation spanned by given per-vertex column bases.

    The spans must be T-invariant and closed under the arrow maps; raises
    NoSolutionError otherwise.  Returns (rep, inclusion morphism).
    """
    field = x.field
    spaces = {}
    incls = {}
    for v in x.quiver.vertices:
        mod, span = submodule(x.spaces[v], bases[v])
        spaces[v] = mod
        incls[v] = span
    maps = {}
    for (s, t) in x.quiver.arrows:
        image = x.arrow_maps[(s, t)] @ incls[s]
        if incls[t].cols:
            maps[(s, t)] = solve(incls[t], image)
        else:
            maps[(s, t)] = Matrix.zeros(field, 0, incls[s].cols)
            if not image.is_zero():
                raise NoSolutionError("spans are not closed under the arrow maps")
    sub = Representation(x.quiver, x.algebra, spaces, maps)
    incl = Morphism(sub, x, incls)
    return sub, incl


def kernel_subrep(f: Morphism) -> tuple:
    """Vertex-wise kernel of a morphism as a subrepresentation of the source."""
    bases = {v: kernel_basis(f.components[v]) for v in f.source.quiver.vertices}
    return subrep_from_bases(f.source, bases)


def image_subrep(f: Morphism) -> tuple:
    """Vertex-wise image of a morphism as a subrepresentation of the target."""
    bases = {v: column_space_basis(f.components[v]) for v in f.source.quiver.vertices}
    return subrep_from_bases(f.target, bases)


def quotient_rep(x: Representation, sub_bases) -> tuple:
    """Quotient of x by the subrepresentation spanned by sub_bases.

    Returns (quotient representation, projection morphism).
    """
    field = x.field
    spaces = {}
    projs = {}
    for v in x.quiver.vertices:
        mod, proj = quotient_module(x.spaces[v], sub_bases[v])
        spaces[v] = mod
        projs[v] = proj
    maps = {}
    for (s, t) in x.quiver.arrows:
        # induced map q with q . proj_s = proj_t . arrow
        rhs = projs[t] @ x.arrow_maps[(s, t)]
        if projs[s].rows:
            maps[(s, t)] = solve(
                projs[s].transpose(), rhs.transpose()
            ).transpose()
        else:
            maps[(s, t)] = Matrix.zeros(field, spaces[t].dim, 0)
    quo = Representation(x.quiver, x.algebra, spaces, maps)
    return quo, Morphism(x, quo, projs)


@dataclass
class SplitResult:
    summand: Representation
    summand_incl: Morphism
    summand_proj: Morphism
    complement: Representation
    complement_incl: Morphism
    complement_proj: Morphism
    iso_witness: Morphism


def split_by_retraction(x: Representation, mono: Morphism, retraction: Morphism) -> SplitResult:
    """Split x along an idempotent e = mono . retraction.

    `retraction . mono` must be the identity of mono.source.  The summand
    is mono.source transported into x; the complement is carried by
    ker(e) with restricted maps.  iso_witness is the isomorphism
    summand + complement -> x given by the two inclusions.
    """
    ident = retraction @ mono
    if ident != Morphism.identity(mono.source):
        raise NotARetractionError("retraction . mono is not the identity")
    e = mono @ retraction  # idempotent endomorphism of x
    complement, comp_incl = kernel_subrep(e)
    field = x.field
    # complement projection: coordinates of (1 - e) v in the kernel basis
    comp_proj_components = {}
    for v in x.quiver.vertices:
        kb = comp_incl.components[v]
        one_minus_e = Matrix.identity(field, x.dim(v)) - e.components[v]
        if kb.cols == 0:
            comp_proj_components[v] = Matrix.zeros(field, 0, x.dim(v))
        else:
            comp_proj_components[v] = CoordinateSolver(kb).coords(one_minus_e)
    comp_proj = Morphism(x, complement, comp_proj_components)
    summand = mono.source
    ds = direct_sum([summand, complement])
    # iso: summand + complement -> x via [mono | comp_incl]
    iso = Morphism(
        ds.rep,
        x,
        {
            v: mono.components[v].hstack(comp_incl.components[v])
            for v in x.quiver.vertices
        },
    )
    return SplitResult(summand, mono, retraction, complement, comp_incl, comp_proj, iso)

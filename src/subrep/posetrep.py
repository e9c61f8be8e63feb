"""Posets, the augmented quiver, representations, morphisms and hom spaces.

A representation assigns a k[T]/T^n-module to every vertex of the
augmented quiver (the poset plus a largest point "*") and a T-equivariant
matrix to every arrow (Hasse covers plus maximal -> *), such that parallel
paths commute.  Subspace representations are those where every arrow
matrix, equivalently every composite v -> '*', has full column rank; a
morphism into one is determined by its component at '*' (see `hom_basis`),
so a `HomSpace` into one holds and computes on that component alone.
How a `HomSpace` lays out its coordinates is this module's decision:
other modules read and combine hom spaces through its methods only.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    NoSolutionError,
    NotARetractionError,
    NotComparableError,
    UnknownVertexError,
)
from .ffmat import (
    Matrix,
    _cokernel_coords,
    _matmul_mod,
    _span_coords,
    _wrap,
    block_diag,
    cokernel_frame,
    column_space_basis,
    independent_columns,
    kernel_basis,
    kernel_basis_of_span,
    kernel_frame,
    kron,
    rref,
    solve,
    span_frame,
)
from .lambdamod import (
    LambdaAlgebra,
    LambdaModule,
    direct_sum_modules,
    equivariance_system,
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
        # errors name the first offender in the order given, never in set order
        relations = [(str(a), str(b)) for a, b in relations]
        for a, b in relations:
            unknown = [x for x in dict.fromkeys((a, b)) if x not in points]
            if unknown:
                names = " and ".join(map(repr, unknown))
                plural = "s" if len(unknown) > 1 else ""
                raise ValueError(f"relation {a}<{b} mentions unknown point{plural} {names}")
        le = {(x, x) for x in points} | set(relations)
        # transitive closure (Warshall): paths through the points up to c
        for c in points:
            le |= {(a, b) for a in points for b in points if (a, c) in le and (c, b) in le}
        for a in points:
            for b in points:
                if a != b and (a, b) in le and (b, a) in le:
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
        self._covers = tuple(covers)

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

    Not mutated after construction, so the vertex dimensions are read
    once, into `_dims`, and derived data is memoized on the instance:
    `_paths` by `composite_map`, `_top` and `_subspace` (read by
    `is_subspace_rep`) by `top_frames`, `_end` by `end_algebra` or, on a
    part it splits off, by `decomp.indecompose`, `_fingerprint` by
    `decomp.fingerprint`, `_block_counts` by `decomp.block_counts`,
    `_radical` by `end_radical`, and `_matched`, the content keys
    (`content_key`) of the queries `Catalog.find_isomorphic` certified
    isomorphic to this object, by that method."""

    __slots__ = ("quiver", "algebra", "spaces", "arrow_maps", "_dims", "_paths", "_top",
                 "_subspace", "_end", "_fingerprint", "_block_counts", "_radical", "_matched")

    def __init__(self, quiver: QuiverStar, algebra: LambdaAlgebra, spaces, arrow_maps):
        self.quiver = quiver
        self.algebra = algebra
        self.spaces = dict(spaces)
        self.arrow_maps = dict(arrow_maps)
        self._paths = self._top = self._end = self._fingerprint = self._radical = None
        self._block_counts = self._matched = None
        for v in quiver.vertices:
            if v not in self.spaces:
                raise ValueError(f"missing space at vertex {v!r}")
        self._dims = {v: self.spaces[v].dim for v in quiver.vertices}
        for a in quiver.arrows:
            if a not in self.arrow_maps:
                raise ValueError(f"missing matrix for arrow {a[0]}->{a[1]}")

    @classmethod
    def zero(cls, quiver, algebra):
        return cls.constant(quiver, LambdaModule.zero(algebra))

    @classmethod
    def constant(cls, quiver, module):
        """`module` at every vertex, the identity on every arrow."""
        ident = Matrix.identity(module.algebra.field, module.dim)
        spaces = dict.fromkeys(quiver.vertices, module)
        return cls(quiver, module.algebra, spaces, dict.fromkeys(quiver.arrows, ident))

    @property
    def field(self):
        return self.algebra.field

    def dim(self, v) -> int:
        return self._dims[v]

    def dim_vector(self):
        return tuple(self._dims.values())

    def total_dim(self) -> int:
        return sum(self._dims.values())

    def is_zero(self) -> bool:
        return self.total_dim() == 0

    def content_key(self):
        """The exact content: the field, the dimension vector and the bytes
        of every T_v and arrow matrix, in quiver order.  Equal keys mean
        equal representations of the same quiver."""
        return (
            self.field.p,
            self.dim_vector(),
            tuple(self.spaces[v].t.a.tobytes() for v in self.quiver.vertices),
            tuple(self.arrow_maps[a].a.tobytes() for a in self.quiver.arrows),
        )

    def validate(self):
        """Returns a list of violation strings; empty means valid.  Every
        arrow matrix must have the shape of its end spaces and be
        T-equivariant, and for each vertex i and arrow a: s -> t with
        i <= s, X_a composite_map(i, s) must equal composite_map(i, t),
        which by induction on path length makes parallel paths commute."""
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
        path = self.composite_map
        for i in self.quiver.vertices:
            for (s, t) in self.quiver.arrows:
                if self.quiver.leq(i, s) and self.arrow_maps[(s, t)] @ path(i, s) != path(i, t):
                    problems.append(f"paths from {i} to {t} do not commute (last arrow {s}->{t})")
        return problems

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

    def top_frames(self) -> dict:
        """{v: (L_v, C_v)} over the poset points from the `span_frame` of
        Y_v, the composite v -> '*': L_v Y_v = I and the rows of C_v are a
        basis of the left kernel of Y_v; None where Y_v is not injective."""
        if self._top is None:
            self._top = {}
            for v in self.quiver.poset.points:
                pivots, u = span_frame(self.composite_map(v, STAR))
                d = len(pivots)
                frame = (_wrap(self.field, u.a[:d].copy()), _wrap(self.field, u.a[d:].copy()))
                self._top[v] = frame if d == self.dim(v) else None
            self._subspace = None not in self._top.values()
        return self._top

    def is_subspace_rep(self) -> bool:
        """True iff every arrow, equivalently every composite v -> '*', is injective."""
        if self._top is None:
            self.top_frames()  # sets `_subspace` too
        return self._subspace

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

    def scale(self, c):
        return Morphism(
            self.source, self.target, {v: m.scale(c) for v, m in self.components.items()}
        )

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.components.values())

    def is_mono(self) -> bool:
        """Injective at every vertex."""
        return all(
            self.components[v].rank() == self.source.dim(v) for v in self.source.quiver.vertices
        )

    def is_epi(self) -> bool:
        """Surjective at every vertex."""
        return all(
            self.components[v].rank() == self.target.dim(v) for v in self.source.quiver.vertices
        )

    def flatten(self) -> np.ndarray:
        """vec(f_v) stacked in vertex order (see `_flat_rows`); the
        coordinate vector used by hom-space bases."""
        parts = [self.components[v].a.flatten(order="F") for v in self.source.quiver.vertices]
        return np.concatenate(parts)

    def total_matrix(self) -> Matrix:
        """Block-diagonal matrix on the direct sum of all vertex spaces."""
        return block_diag(
            self.source.field,
            [self.components[v] for v in self.source.quiver.vertices],
        )

    def __eq__(self, other):
        return isinstance(other, Morphism) and all(
            other.components[v] == self.components[v] for v in self.components
        )

    def __repr__(self):
        return f"Morphism({self.source!r} -> {self.target!r})"


def _flat_rows(x: Representation, y: Representation, star=False):
    """(v, rows, dim x_v, dim y_v) per vertex v, in order: the slice
    `rows` of a flattened morphism x -> y holds vec(f_v).  With `star`
    only v = `*`, whose rows are all of a star-form `HomSpace`."""
    o = 0
    for v in (STAR,) if star else x.quiver.vertices:
        c, r = x.dim(v), y.dim(v)
        yield v, slice(o, o + r * c), c, r
        o += r * c


def morphism_from_flat(x, y, vec) -> Morphism:
    """Inverse of Morphism.flatten; `vec` is an int64 vector already
    reduced mod p."""
    comps = {
        v: _wrap(x.field, vec[rows].reshape((c, r)).T.copy()) for v, rows, c, r in _flat_rows(x, y)
    }
    return Morphism(x, y, comps)


class HomSpace:
    """A span of morphisms source -> target, held as one coordinate
    matrix in the form its target fixes.  Flat: column j is the j-th
    spanning morphism flattened in `Morphism.flatten` order
    (`_flat_rows`).  Star, into a subspace representation y: the `*`
    block, the last dim source_* . dim target_* rows, as there
    f_v = L_v f_* X_v (`y.top_frames()`), so every other row is a linear
    image of the `*` rows, with the same kernel, pivots and solutions;
    every product, solve and reduction uses the `*` block alone, and
    `basis` lifts the rest into a memo nothing else reads.  The columns
    may be dependent (a list of composites, say); `hom_basis` returns an
    actual basis.  This layout is known to this module alone: other
    modules read coordinates only through the methods, and `star_block`,
    `basis_matrix` and `from_flat` serve tests and this module.

    `source`, `target` and `basis` (the spanning morphisms, built from
    the columns on first read) are the public contract: the content
    digest of `perfbench/layertrace.py` reads exactly these three.

    Composing every element with one map costs one product per vertex,
    one at `*`.  The rows of vertex v, read as a (dim source_v,
    dim target_v, k) array, hold the transposed components h_1^T, ...,
    h_k^T, so g . h_j for all j is g times that stack, and h_j . f for
    all j is f^T times the same rows read as [h_1^T | ... | h_k^T].
    """

    __slots__ = ("source", "target", "_flat", "_star", "_basis")

    def __init__(self, source: Representation, target: Representation, basis):
        """The span of the morphisms in `basis`, in order, with their flat
        columns kept, so that `basis_matrix()` lifts nothing."""
        basis = tuple(basis)
        if basis:
            flat = _wrap(source.field, np.stack([m.flatten() for m in basis], axis=1))
        else:
            flat = Matrix.zeros(source.field, _flat_size(source, target), 0)
        self.source, self.target, self._basis, self._star, self._flat = source, target, basis, None, flat
        if target.is_subspace_rep():
            self._star = self.star_block()

    @classmethod
    def from_flat(cls, source, target, held: Matrix) -> "HomSpace":
        """The span of the reduced columns of `held`, in the form `target` fixes:
        `*` blocks into a subspace representation, else flattened morphisms."""
        hs = object.__new__(cls)
        hs.source, hs.target, hs._basis = source, target, None
        hs._star, hs._flat = (held, None) if target.is_subspace_rep() else (None, held)
        return hs

    @classmethod
    def from_matrices(cls, source, target, mats) -> "HomSpace":
        """The span of the maps whose forms, as `matrix` gives them, are `mats`."""
        if target.is_subspace_rep():
            cols = [m.a.flatten(order="F") for m in mats]
        else:
            # the vertex blocks of m.a.T, read row by row, are the vec(f_v) in vertex order
            at = [np.repeat(np.arange(len(r.dim_vector())), r.dim_vector()) for r in (source, target)]
            cols = [m.a.T[at[0][:, None] == at[1]] for m in mats]
        return cls.from_flat(source, target, _wrap(source.field, np.stack(cols, axis=1)))

    @classmethod
    def joined(cls, source, target, spaces) -> "HomSpace":
        """All spanning columns of `spaces` (spans source -> target), in order."""
        if not spaces:
            return cls(source, target, ())
        cols = [s._held().a for s in spaces]
        return cls.from_flat(source, target, _wrap(source.field, np.hstack(cols)))

    @property
    def basis(self) -> tuple:
        if self._basis is None:
            x, y = self.source, self.target
            self._basis = tuple(morphism_from_flat(x, y, col) for col in self.basis_matrix().a.T)
        return self._basis

    @property
    def dim(self):
        return (self._flat if self._star is None else self._star).cols

    def basis_matrix(self) -> Matrix:
        """Columns are the flattened spanning morphisms, lifted from the
        `*` block on first read, unless no other vertex has rows to fill."""
        if self._flat is None:
            x, y, star = self.source, self.target, self._star
            self._flat = star if _flat_size(x, y) == star.rows else _wrap(x.field, _lift(x, y, star.a))
        return self._flat

    def star_block(self) -> Matrix:
        """The `*` rows of `basis_matrix()`: column j is vec(h_j at `*`)."""
        if self._star is None:
            a, n = self._flat.a, self.source.dim(STAR) * self.target.dim(STAR)
            return _wrap(self.source.field, a[a.shape[0] - n :])
        return self._star

    def _held(self) -> Matrix:
        """What it computes on: the `*` block into a subspace representation."""
        return self._flat if self._star is None else self._star

    def is_zero(self) -> bool:
        """True iff every spanning map is zero."""
        return self._held().is_zero()

    def take(self, idx) -> "HomSpace":
        """The spanning maps at the indices `idx`, in order, as one span."""
        return HomSpace.from_flat(self.source, self.target, self._held().take_columns(idx))

    def pivots(self) -> "HomSpace":
        """A basis of the span: its pivot columns in order, found on the held rows."""
        return HomSpace.from_flat(self.source, self.target, column_space_basis(self._held()))

    def relations(self) -> Matrix:
        """The reduced kernel basis of the relations sum c[i] basis[i] = 0."""
        return kernel_basis(self._held())

    def reduced(self) -> "HomSpace":
        """The span in the basis `hom_basis` gives it (`ffmat.kernel_basis_of_span`)."""
        return HomSpace.from_flat(self.source, self.target, kernel_basis_of_span(self._held()))

    def independent_of(self, prefix: "HomSpace") -> list:
        """Indices of the spanning maps outside the span of `prefix` and of those before them."""
        return independent_columns(prefix._held(), self._held())

    def postcomposed(self, g: Morphism) -> "HomSpace":
        """The span of g . h over the spanning h, in order; g: target -> z."""
        x, y, z, k = self.source, self.target, g.target, self.dim
        star = z.is_subspace_rep()
        a, p = (self.star_block() if star else self.basis_matrix()).a, x.field.p
        # [l, i, j] = h_j[i, l]; g_v times it is [l, i', j] = (g_v h_j)[i', l]
        parts = [
            _matmul_mod(g.components[v].a, a[rows].reshape(c, r, k), p).reshape(c * z.dim(v), k)
            for v, rows, c, r in _flat_rows(x, y, star)
        ]
        return HomSpace.from_flat(x, z, _wrap(x.field, np.concatenate(parts)))

    def precomposed(self, f: Morphism) -> "HomSpace":
        """The span of h . f over the spanning h, in order; f: w -> source."""
        w, y = f.source, self.target
        a, k, p = self._held().a, self.dim, w.field.p
        # [l, i*k + j] = h_j[i, l]; f_v^T times it is (h_j f_v)^T
        parts = [
            _matmul_mod(f.components[v].a.T, a[rows].reshape(c, r * k), p).reshape(w.dim(v) * r, k)
            for v, rows, c, r in _flat_rows(self.source, y, self._star is not None)
        ]
        return HomSpace.from_flat(w, y, _wrap(w.field, np.concatenate(parts)))

    def composites(self, second: "HomSpace") -> "HomSpace":
        """The span of t . u over the spanning u of self (x -> w, outer
        loop) and t of second (w -> y, inner loop): column i*k2 + j is
        t_j . u_i, the columns of `second.precomposed(u_i)` joined in
        order.  One product per vertex: the u rows read as (dim x_v, k1,
        dim w_v) times the t rows read as (dim w_v, dim y_v * k2)."""
        x, w, y = self.source, self.target, second.target
        star, p, k1, k2 = y.is_subspace_rep(), x.field.p, self.dim, second.dim
        u, t = (self.star_block(), second._star) if star else (self.basis_matrix(), second.basis_matrix())
        # vertices where x or y is zero contribute no rows
        parts = [np.zeros((0, k1 * k2), dtype=np.int64)]
        for (_, ru, c, m), (_, rt, _, r) in zip(_flat_rows(x, w, star), _flat_rows(w, y, star)):
            if c and r:
                # [l, i, q] = u_i[q, l] times [q, s*k2 + j] = t_j[s, q] is
                # [l, i, s, j] = (t_j u_i)[s, l], reordered to rows (l, s)
                stack = u.a[ru].reshape(c, m, k1).transpose(0, 2, 1)
                side = t.a[rt].reshape(m, r * k2)
                prod = _matmul_mod(stack.reshape(c * k1, m), side, p).reshape(c, k1, r, k2)
                parts.append(prod.transpose(0, 2, 1, 3).reshape(c * r, k1 * k2))
        return HomSpace.from_flat(x, y, _wrap(x.field, np.concatenate(parts)))

    def combinations(self, coeffs: Matrix) -> "HomSpace":
        """The span of the combinations sum_i coeffs[i, j] basis[i], one
        per column j of coeffs."""
        a = _matmul_mod(self._held().a, coeffs.a, self.source.field.p)
        return HomSpace.from_flat(self.source, self.target, _wrap(self.source.field, a))

    def element(self, coords) -> Morphism:
        """The combination sum coords[i] basis[i], as the one column of a
        span: into a subspace representation only that column is lifted."""
        return self.combinations(Matrix(self.source.field, np.reshape(coords, (-1, 1)))).basis[0]

    def matrix(self, coords) -> Matrix:
        """The map sum coords[i] basis[i] in the form `from_matrices` reads: its
        `*` component into a subspace representation, else its total matrix."""
        if self._star is None:
            return self.element(coords).total_matrix()
        x, y = self.source, self.target
        vec = _matmul_mod(self._star.a, Matrix(x.field, np.reshape(coords, (-1, 1))).a, x.field.p)
        return _wrap(x.field, vec.reshape(x.dim(STAR), y.dim(STAR)).T.copy())

    def coefficients(self, targets):
        """Coefficients of each target morphism over the spanning list: a
        dim x len(targets) Matrix with free coefficients 0, or None when
        some target lies outside the span.  `targets` is a list of
        morphisms or a HomSpace (its spanning columns); into a subspace
        representation only the `*` rows are solved.  An empty span
        holds only the zero map."""
        if not isinstance(targets, HomSpace):
            targets = HomSpace(self.source, self.target, targets)
        try:
            return solve(self._held(), targets._held())
        except NoSolutionError:
            return None

    def trace_form(self) -> np.ndarray:
        """[r, c] = tr(b_c b_r) over the spanning endomorphisms.  Maps are
        block diagonal on the total space, so tr(b y) = sum_v <vec b_v,
        vec y_v^T>: the flat rows with each vertex block transposed,
        against the flat rows."""
        x = self.source
        perm = [np.arange(r.start, r.stop).reshape(d, d).T.ravel() for _, r, d, _ in _flat_rows(x, x)]
        flat = self.basis_matrix().a
        return _matmul_mod(flat[np.concatenate(perm)].T, flat, x.field.p)


def _lift(x: Representation, y: Representation, k: np.ndarray) -> np.ndarray:
    """The flat columns of the morphisms x -> y whose `*` blocks are the
    columns of k, y a subspace representation: f_v = L_v f_* X_v."""
    frames, p, r, m = y.top_frames(), x.field.p, y.dim(STAR), k.shape[1]
    stack = k.reshape(x.dim(STAR), r * m)
    parts = []
    for v in x.quiver.poset.points:
        # [l, i, j] = f_j[i, l]; X_v^T times it is f_j X_v, L_v times that f_v
        fx = _matmul_mod(x.composite_map(v, STAR).a.T, stack, p).reshape(x.dim(v), r, m)
        parts.append(_matmul_mod(frames[v][0].a, fx, p).reshape(x.dim(v) * y.dim(v), m))
    parts.append(k)
    return np.concatenate(parts)


def _flat_size(x: Representation, y: Representation) -> int:
    """Length of a flattened morphism x -> y."""
    return sum(map(operator.mul, x._dims.values(), y._dims.values()))


def hom_basis(x: Representation, y: Representation) -> HomSpace:
    """Basis of the space of morphisms x -> y.

    Into a subspace representation y, f_v is L_v f_* X_v (`top_frames`),
    X_v the composite v -> '*', so only vec(f_*) is solved
    for: T-equivariance at '*' and (X_v^T kron C_v) vec(f_*) = 0 at each
    poset point, and the kernel is returned in star form.  As '*' is last
    and f -> f_* injective, its lift is the kernel basis of the full
    system, which other targets get:
    T-equivariance at every vertex and naturality for every arrow, in the
    flattened coordinates of morphism_from_flat.
    """
    if y.is_subspace_rep():
        frames = y.top_frames()
        rows = [equivariance_system(x.spaces[STAR], y.spaces[STAR])]
        rows += [kron(x.composite_map(v, STAR).a.T, frames[v][1].a) for v in x.quiver.poset.points]
        return HomSpace.from_flat(x, y, kernel_basis(Matrix(x.field, np.vstack(rows))))
    dx, dy, arrows, total = x.dim, y.dim, x.quiver.arrows, _flat_size(x, y)
    # one row block per vertex (T-equivariance) and per arrow s -> t
    # (f_t X_a - Y_a f_s = 0), in the columns of vec(f_s) and vec(f_t)
    system = np.zeros((total + sum(dy(t) * dx(s) for s, t in arrows), total), dtype=np.int64)
    cols = {}
    for v, rows, _, _ in _flat_rows(x, y):
        system[rows, rows] = equivariance_system(x.spaces[v], y.spaces[v])
        cols[v] = rows
    r = total
    for (s, t) in arrows:
        n = dy(t) * dx(s)
        system[r : r + n, cols[t]] = kron(x.arrow_maps[(s, t)].a.T, np.eye(dy(t), dtype=np.int64))
        system[r : r + n, cols[s]] = -kron(np.eye(dx(s), dtype=np.int64), y.arrow_maps[(s, t)].a)
        r += n
    return HomSpace.from_flat(x, y, kernel_basis(Matrix(x.field, system)))


class EndAlgebra:
    """End(x) over the basis of the hom space `space` = Hom(x, x)."""

    __slots__ = ("space",)

    def __init__(self, space: HomSpace):
        self.space = space

    @property
    def rep(self) -> Representation:
        return self.space.source

    @property
    def basis(self) -> tuple:
        return self.space.basis

    @property
    def dim(self):
        return self.space.dim

    def element(self, coords) -> Morphism:
        return self.space.element(coords)


def end_algebra(x: Representation) -> EndAlgebra:
    """End(x), memoized on x."""
    if x._end is None:
        x._end = EndAlgebra(hom_basis(x, x))
    return x._end


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
    maps = {a: block_diag(field, [x.arrow_maps[a] for x in xs]) for a in quiver.arrows}
    total = Representation(quiver, algebra, spaces, maps)
    inclusions = []
    projections = []
    for i, x in enumerate(xs):
        incl = {}
        proj = {}
        for v in quiver.vertices:
            # every other summand is a block with no rows: it only shifts I
            blocks = [Matrix.zeros(field, 0, y.dim(v)) for y in xs]
            blocks[i] = Matrix.identity(field, x.dim(v))
            proj[v] = block_diag(field, blocks)
            incl[v] = proj[v].transpose()
        inclusions.append(Morphism(x, total, incl))
        projections.append(Morphism(total, x, proj))
    return DirectSum(total, inclusions, projections)


def subspace_representation(quiver: QuiverStar, top: LambdaModule, spans) -> tuple:
    """The representation with `top` at '*' and, at each poset point v,
    the submodule of `top` spanned by spans[v]; every arrow is the
    inclusion of its source span into its target span.

    The spans must be T-invariant and nested along the arrows; raises
    NoSolutionError otherwise.  Returns (rep, {v: basis of the space at v
    inside top}): `subrep_from_bases` of the constant representation.
    """
    bases = {**spans, STAR: Matrix.identity(top.algebra.field, top.dim)}
    rep, incl = subrep_from_bases(Representation.constant(quiver, top), bases)
    return rep, incl.components


def subrep_from_bases(x: Representation, bases) -> tuple:
    """Subrepresentation spanned by given per-vertex column bases.

    With (P_v, U_v) the `span_frame` of bases[v], the basis at v is
    B_v = bases[v][:, P_v] and the arrow a = s -> t carries the first
    |P_t| rows of U_t X_a B_s (T_v likewise at v); the other rows vanish
    when the spans are T-invariant and closed under the arrow maps, and
    NoSolutionError is raised otherwise.  Returns (rep, inclusion morphism)."""
    p, verts = x.field.p, x.quiver.vertices
    frames = {v: span_frame(bases[v]) for v in verts}
    incls = {v: bases[v].take_columns(frames[v][0]) for v in verts}
    sub = _restricted(x, lambda t, s, a: _span_coords(frames[t], _matmul_mod(a, incls[s].a, p)))
    return sub, Morphism(sub, x, incls)


def _restricted(x: Representation, cut) -> Representation:
    """Operator cut(v, v, T_v) at each vertex v and cut(t, s, X_a) on each
    arrow s -> t; `cut` returns a new reduced array."""
    field, verts = x.field, x.quiver.vertices
    spaces = {v: LambdaModule(x.algebra, _wrap(field, cut(v, v, x.spaces[v].t.a))) for v in verts}
    maps = {(s, t): _wrap(field, cut(t, s, x.arrow_maps[(s, t)].a)) for s, t in x.quiver.arrows}
    return Representation(x.quiver, x.algebra, spaces, maps)


def _kernel_frames(x: Representation, mats) -> tuple:
    """The subrepresentation of x on the kernels K_v of mats[v], which the
    maps of x must preserve, plus the free coordinates F_v of each K_v
    (`ffmat.kernel_frame`): K_v[F_v] is the identity, so the kernel
    carries T[F_v] K_v at v and X_a[F_t] K_s on a = s -> t."""
    p = x.field.p
    incl, free = {}, {}
    for v in x.quiver.vertices:
        incl[v], free[v] = kernel_frame(mats[v])
    sub = _restricted(x, lambda t, s, a: _matmul_mod(a[free[t]], incl[s].a, p))
    return sub, Morphism(sub, x, incl), free


def kernel_subrep(f: Morphism) -> tuple:
    """Vertex-wise kernel of a morphism as a subrepresentation of the source."""
    return _kernel_frames(f.source, f.components)[:2]


def image_subrep(f: Morphism) -> tuple:
    """Vertex-wise image of f: x -> y as a subrepresentation of y:
    (rep, inclusion, corestriction) with f = inclusion . corestriction.
    With pivot columns P_v and nonzero rows R_v of rref(f_v),
    f_v = f_v[:, P_v] R_v: the inclusion is f_v[:, P_v], the
    corestriction R_v, and the image carries R_v T_v[:, P_v] and
    R_t X_a[:, P_s]."""
    x, p = f.source, f.source.field.p
    rows, pivots = {}, {}
    for v in x.quiver.vertices:
        r, piv, rank = rref(f.components[v])
        rows[v], pivots[v] = r.a[:rank].copy(), list(piv)
    sub = _restricted(x, lambda t, s, a: _matmul_mod(rows[t], a[:, pivots[s]], p))
    incl = {v: f.components[v].take_columns(pivots[v]) for v in x.quiver.vertices}
    cores = {v: _wrap(x.field, rows[v]) for v in x.quiver.vertices}
    return sub, Morphism(sub, f.target, incl), Morphism(x, sub, cores)


def quotient_rep(x: Representation, sub_bases) -> tuple:
    """Quotient of x by the subrepresentation spanned by sub_bases.

    With (P_v, free_v) the `cokernel_frame` of sub_bases[v], the quotient
    carries the q with q P_s = P_t X_a on a = s -> t (T_v likewise at v);
    NoSolutionError when the spans are not invariant.  Returns (quotient
    representation, projection morphism with components P_v).
    """
    p, verts = x.field.p, x.quiver.vertices
    frames = {v: cokernel_frame(sub_bases[v]) for v in verts}
    quo = _restricted(x, lambda t, s, a: _cokernel_coords(frames[s], _matmul_mod(frames[t][0].a, a, p)))
    return quo, Morphism(x, quo, {v: frames[v][0] for v in verts})


@dataclass
class SplitResult:
    summand: Representation
    summand_incl: Morphism
    summand_proj: Morphism
    complement: Representation
    complement_incl: Morphism
    complement_proj: Morphism


def split_by_retraction(x: Representation, mono: Morphism, retraction: Morphism) -> SplitResult:
    """Split x along an idempotent e = mono . retraction.

    `retraction . mono` must be the identity of mono.source.  The summand
    is mono.source transported into x; the complement is carried by
    ker(e) with restricted maps; [mono | complement_incl] is an
    isomorphism summand + complement -> x.
    """
    ident = retraction @ mono
    if ident != Morphism.identity(mono.source):
        raise NotARetractionError("retraction . mono is not the identity")
    e = mono @ retraction  # idempotent endomorphism of x
    complement, comp_incl, free = _kernel_frames(x, e.components)
    # complement projection: coordinates of (1 - e) v in the kernel basis,
    # which are its entries at the free coordinates
    comp_proj = {}
    for v in x.quiver.vertices:
        one_minus_e = np.eye(x.dim(v), dtype=np.int64) - e.components[v].a
        comp_proj[v] = Matrix(x.field, one_minus_e[free[v]])
    comp_proj = Morphism(x, complement, comp_proj)
    return SplitResult(mono.source, mono, retraction, complement, comp_incl, comp_proj)

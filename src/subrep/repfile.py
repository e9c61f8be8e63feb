"""Text file formats: representations, subspace configurations, posets,
catalogs.

Representation files are line-oriented: a header fixing the field, the
nilpotency bound and the poset (points in linear-extension order plus
cover relations), one `vertex` section per vertex including `*` with the
operator matrix, and one `arrow` section per quiver arrow.  Matrices act
on column vectors, so a map from a d-dimensional space to an
e-dimensional one is written as e rows of d entries.  Matrices with no
entries occupy no lines.  `#` starts a comment; serialization is
canonical, so parse -> serialize -> parse is the identity.  A poset file
is the poset lines of that header alone, and all three formats share one
reader per section.
"""

from __future__ import annotations

import json
import os
import secrets

import numpy as np

from .errors import ParseError
from .ffmat import Matrix, PrimeField
from .lambdamod import LambdaAlgebra, LambdaModule
from .posetrep import Morphism, Poset, QuiverStar, Representation


def write_atomic(path, text):
    """Write `text` to `path` through a temporary file in the same
    directory, so readers see the old file or the new one, never a
    partial one.  The file gets the permissions `open(path, "w")` would
    give it (0o666 less the umask).  No OSError names the temporary file."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".{os.path.basename(path)}.{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def read_text(path, what="input file"):
    """The contents of `path`; a file that cannot be read is a
    ParseError naming it."""
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {what} {path}: {exc.strerror or exc}") from None


class _Lines:
    def __init__(self, text):
        self.items = []
        for no, raw in enumerate(text.splitlines(), start=1):
            body = raw.split("#", 1)[0].strip()
            if body:
                self.items.append((no, body))
        self.pos = 0

    def peek(self):
        return self.items[self.pos] if self.pos < len(self.items) else (None, None)

    def next(self, what):
        if self.pos >= len(self.items):
            raise ParseError(f"unexpected end of file, expected {what}")
        item = self.items[self.pos]
        self.pos += 1
        return item

    def done(self):
        return self.pos >= len(self.items)


def _read_keyword(lines, keyword):
    no, body = lines.next(keyword)
    parts = body.split()
    if parts[0] != keyword:
        raise ParseError(f"expected {keyword!r}, found {parts[0]!r}", line=no)
    return no, parts[1:]


def _at(lines, keyword):
    """Whether the next line starts with `keyword`."""
    body = lines.peek()[1]
    return body is not None and body.split()[0] == keyword


def _read_row(lines, cols, field, what):
    """The next line as `cols` integers in [0, p)."""
    no, body = lines.next(f"a row of {what}")
    entries = body.split()
    if len(entries) != cols:
        raise ParseError(
            f"{what}: expected {cols} entries, found {len(entries)}", line=no
        )
    try:
        row = [int(e) for e in entries]
    except ValueError:
        raise ParseError(f"{what}: non-integer entry", line=no)
    if any(not 0 <= e < field.p for e in row):
        raise ParseError(f"{what}: entry out of range [0, {field.p})", line=no)
    return row


def _read_matrix(lines, rows, cols, field, what):
    if rows * cols == 0:
        return Matrix.zeros(field, rows, cols)
    return Matrix(field, [_read_row(lines, cols, field, what) for _ in range(rows)])


# one reader per section, shared by `.rep`, `.sub` and `.poset` files


def _read_field(lines):
    """`field <p>`."""
    no, args = _read_keyword(lines, "field")
    try:
        return PrimeField(int(args[0]))
    except (IndexError, ValueError) as exc:
        raise ParseError(f"bad field modulus: {exc}", line=no)


def _read_poset(lines):
    """A `points` line in linear-extension order, then any number of
    `covers` lines of a<b tokens."""
    no, points = _read_keyword(lines, "points")
    covers = []
    while _at(lines, "covers"):
        no, items = _read_keyword(lines, "covers")
        for item in items:
            if "<" not in item:
                raise ParseError(f"cover relation {item!r} must look like a<b", line=no)
            a, b = item.split("<", 1)
            covers.append((a, b))
    try:
        return Poset(points, covers)
    except ValueError as exc:
        raise ParseError(str(exc), line=no)


def _dimension(token, no):
    """`token` as a dimension, an integer >= 0."""
    try:
        dim = int(token)
    except ValueError:
        raise ParseError(f"bad dimension {token!r}", line=no)
    if dim < 0:
        raise ParseError(f"dimension must be >= 0, found {dim}", line=no)
    return dim


def _read_module(lines, algebra, dim, what):
    """The `t` section of a `dim`-dimensional module: nothing when dim is
    0, else `t` and dim rows; an operator with t^n != 0 is a ParseError."""
    if not dim:
        return LambdaModule.zero(algebra)
    no, _ = _read_keyword(lines, "t")
    t = _read_matrix(lines, dim, dim, algebra.field, what)
    try:
        return LambdaModule(algebra, t)
    except ValueError as exc:
        raise ParseError(f"{what}: {exc}", line=no)


def _expect_end(lines):
    if not lines.done():
        no, body = lines.peek()
        raise ParseError(f"trailing content {body!r}", line=no)


def _matrix_lines(m: Matrix):
    """The rows of m, one line each; a matrix with no entries has none."""
    return [" ".join(map(str, row)) for row in m.tolist()] if m.rows * m.cols else []


def _module_lines(module):
    return ["t", *_matrix_lines(module.t)] if module.dim else []


def parse_poset(text: str) -> Poset:
    """A `.poset` file: the poset lines of a `.rep` header."""
    lines = _Lines(text)
    poset = _read_poset(lines)
    _expect_end(lines)
    return poset


def parse_representation(text: str) -> Representation:
    lines = _Lines(text)
    field = _read_field(lines)
    no, args = _read_keyword(lines, "nilpotency")
    try:
        algebra = LambdaAlgebra(field, int(args[0]))
    except (IndexError, ValueError) as exc:
        raise ParseError(f"bad nilpotency bound: {exc}", line=no)
    quiver = QuiverStar(_read_poset(lines))
    spaces = {}
    for v in quiver.vertices:
        no, args = _read_keyword(lines, "vertex")
        if len(args) != 3 or args[1] != "dim":
            raise ParseError("vertex line must be: vertex <label> dim <d>", line=no)
        if args[0] != v:
            raise ParseError(
                f"vertex sections must follow the linear extension; expected {v!r}, found {args[0]!r}",
                line=no,
            )
        spaces[v] = _read_module(lines, algebra, _dimension(args[2], no), f"t-matrix at {v}")
    maps = {}
    for (s, t) in quiver.arrows:
        no, args = _read_keyword(lines, "arrow")
        if len(args) != 1 or "->" not in args[0]:
            raise ParseError("arrow line must be: arrow <src>-><dst>", line=no)
        src, dst = args[0].split("->", 1)
        if (src, dst) != (s, t):
            raise ParseError(
                f"arrow sections must follow quiver order; expected {s}->{t}, found {src}->{dst}",
                line=no,
            )
        maps[(s, t)] = _read_matrix(
            lines, spaces[t].dim, spaces[s].dim, field, f"arrow {s}->{t}"
        )
    _expect_end(lines)
    rep = Representation(quiver, algebra, spaces, maps)
    problems = rep.validate()
    if problems:
        raise ParseError("representation does not validate: " + "; ".join(problems))
    return rep


def serialize_representation(rep: Representation) -> str:
    poset = rep.quiver.poset
    out = [
        f"field {rep.field.p}",
        f"nilpotency {rep.algebra.n}",
        "points " + " ".join(poset.points),
        "covers " + " ".join(f"{a}<{b}" for a, b in poset.covers()),
    ]
    for v in rep.quiver.vertices:
        out.append(f"vertex {v} dim {rep.dim(v)}")
        out += _module_lines(rep.spaces[v])
    for (s, t) in rep.quiver.arrows:
        out.append(f"arrow {s}->{t}")
        out += _matrix_lines(rep.arrow_maps[(s, t)])
    return "\n".join(out) + "\n"


def parse_subspace_config(text: str):
    """A `.sub` file: field, `dim`, the operator (n = 2) and three
    `subspace` sections of basis vectors, one per line."""
    from .birkhoff import SubspaceConfig

    lines = _Lines(text)
    field = _read_field(lines)
    no, args = _read_keyword(lines, "dim")
    dim = _dimension(" ".join(args), no)
    module = _read_module(lines, LambdaAlgebra(field, 2), dim, "t-matrix")
    vecs = []
    for name in ("v1", "v2", "v3"):
        no, args = _read_keyword(lines, "subspace")
        if args != [name]:
            raise ParseError(f"expected 'subspace {name}'", line=no)
        rows = []
        while not lines.done() and not _at(lines, "subspace"):
            rows.append(_read_row(lines, dim, field, f"basis vector of {name}"))
        vecs.append(Matrix(field, np.array(rows, dtype=np.int64).reshape(len(rows), dim).T))
    _expect_end(lines)
    return SubspaceConfig(module, *vecs)


def serialize_subspace_config(cfg) -> str:
    out = [f"field {cfg.v.algebra.field.p}", f"dim {cfg.v.dim}", *_module_lines(cfg.v)]
    for name, basis in (("v1", cfg.v1), ("v2", cfg.v2), ("v3", cfg.v3)):
        out.append(f"subspace {name}")
        out += _matrix_lines(basis.transpose())
    return "\n".join(out) + "\n"


# catalog directories


def _morphisms_payload(source, morphisms):
    """Payload of morphisms out of `source`: at each vertex their
    components stacked, in order, into one matrix.  A mesh map is one
    morphism; a left almost split map is its lifts, in parts order."""
    payload = {}
    for v in source.quiver.vertices:
        a = np.vstack([m.components[v].a for m in morphisms])
        payload[v] = {"rows": a.shape[0], "cols": a.shape[1], "data": a.tolist()}
    return payload


def _morphisms_from_payload(payload, source, targets):
    """The morphisms source -> targets[k] whose stacked components
    `payload` holds; each matrix must have the rows of all the targets
    and the columns of the source."""
    blocks = {}
    for v in source.quiver.vertices:
        item = payload[v]
        dims = [w.dim(v) for w in targets]
        shape = (sum(dims), source.dim(v))
        if (item["rows"], item["cols"]) != shape:
            raise ValueError(
                f"matrix at {v} is {item['rows']}x{item['cols']}, expected {shape[0]}x{shape[1]}"
            )
        arr = np.array(item["data"], dtype=np.int64).reshape(shape)
        blocks[v] = np.split(arr, np.cumsum(dims)[:-1])
    return tuple(
        Morphism(source, w, {v: Matrix(source.field, blocks[v][k]) for v in blocks})
        for k, w in enumerate(targets)
    )


def save_catalog(catalog, directory):
    """Write the catalog into `directory`, each file atomically; the
    index `catalog.json` comes last."""
    names = []
    for i, rep in enumerate(catalog.objects):
        name = f"obj_{i:03d}.rep"
        write_atomic(os.path.join(directory, name), serialize_representation(rep))
        names.append(name)
    meshes = []
    for c_idx, seq in sorted(catalog.meshes.items()):
        name = f"mesh_a_{c_idx:03d}.rep"
        write_atomic(os.path.join(directory, name), serialize_representation(seq.a))
        meshes.append(
            {
                "end": c_idx,
                "kernel_file": name,
                "parts": list(seq.middle_parts),
                "f": _morphisms_payload(seq.a, [seq.f]),
                "g": _morphisms_payload(seq.b, [seq.g]),
                "verified": seq.verified,
            }
        )
    left = []
    for z, (lifts, parts) in sorted(catalog.left_maps.items()):
        left.append(
            {
                "object": z,
                "parts": list(parts),
                "matrix": _morphisms_payload(catalog.objects[z], lifts) if lifts else None,
            }
        )
    meta = {
        "field": catalog.algebra.field.p,
        "nilpotency": catalog.algebra.n,
        "points": list(catalog.quiver.poset.points),
        "covers": [list(c) for c in catalog.quiver.poset.covers()],
        "objects": names,
        "projective": list(catalog.projective),
        "meshes": meshes,
        "left_maps": left,
        "max_length": catalog.max_length(),
    }
    write_atomic(os.path.join(directory, "catalog.json"), json.dumps(meta, indent=1))


def load_catalog(directory):
    """Read a catalog directory written by `save_catalog`.  A missing
    directory or file, and a `catalog.json` that is not valid JSON or
    lacks the expected structure, one left-map entry per object
    included, raise ParseError."""
    text = read_text(os.path.join(directory, "catalog.json"), "catalog index")
    try:
        return _catalog_from_meta(json.loads(text), directory)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise ParseError(f"malformed catalog {directory}: {type(exc).__name__}: {exc}") from None


def _object_index(value, catalog, what):
    """`value` as an index into catalog.objects; anything outside
    [0, len(objects)) is a ValueError, negative indices included."""
    count = len(catalog.objects)
    if not 0 <= value < count:
        raise ValueError(f"{what} {value!r} is not an object index in [0, {count})")
    return value


def _catalog_from_meta(meta, directory):
    from .artheory import ARSequence, Catalog
    from .posetrep import direct_sum

    field = PrimeField(meta["field"])
    algebra = LambdaAlgebra(field, meta["nilpotency"])
    poset = Poset(meta["points"], [tuple(c) for c in meta["covers"]])
    quiver = QuiverStar(poset)
    catalog = Catalog(quiver, algebra)

    def read_rep(name, what):
        rep = parse_representation(read_text(os.path.join(directory, name), what))
        if rep.quiver != quiver or rep.algebra != algebra:
            raise ValueError(f"{what} {name} lives over another quiver or algebra than the index")
        return rep

    for name, proj in zip(meta["objects"], meta["projective"], strict=True):
        catalog.add(read_rep(name, "catalog object"), projective=proj)
    for mesh in meta["meshes"]:
        a_rep = read_rep(mesh["kernel_file"], "catalog mesh")
        parts = tuple(_object_index(i, catalog, "mesh part") for i in mesh["parts"])
        end = _object_index(mesh["end"], catalog, "mesh end")
        middle = direct_sum([catalog.objects[i] for i in parts]).rep
        c_rep = catalog.objects[end]
        (f,) = _morphisms_from_payload(mesh["f"], a_rep, [middle])
        (g,) = _morphisms_from_payload(mesh["g"], middle, [c_rep])
        catalog.meshes[end] = ARSequence(
            a_rep, middle, c_rep, f, g, verified=mesh["verified"], middle_parts=parts
        )
    for item in meta["left_maps"]:
        z = _object_index(item["object"], catalog, "left map object")
        if z in catalog.left_maps:
            raise ValueError(f"object {z} has two left-map entries")
        parts = tuple(_object_index(w, catalog, "left map part") for w in item["parts"])
        targets = [catalog.objects[w] for w in parts]
        lifts = _morphisms_from_payload(item["matrix"], catalog.objects[z], targets) if parts else ()
        catalog.left_maps[z] = (lifts, parts)
    missing = [z for z in range(len(catalog.objects)) if z not in catalog.left_maps]
    if missing:
        raise ValueError(f"objects {missing} have no left-map entry")
    return catalog

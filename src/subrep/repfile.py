"""Text file formats: representations, subspace configurations, catalogs.

Representation files are line-oriented: a header fixing the field, the
nilpotency bound and the poset (points in linear-extension order plus
cover relations), one `vertex` section per vertex including `*` with the
operator matrix, and one `arrow` section per quiver arrow.  Matrices act
on column vectors, so a map from a d-dimensional space to an
e-dimensional one is written as e rows of d entries.  Matrices with no
entries occupy no lines.  `#` starts a comment; serialization is
canonical, so parse -> serialize -> parse is the identity.
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
    give it (0o666 less the umask)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".{os.path.basename(path)}.{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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


def _read_matrix(lines, rows, cols, field, what):
    if rows * cols == 0:
        return Matrix.zeros(field, rows, cols)
    data = []
    for _ in range(rows):
        no, body = lines.next(f"matrix row of {what}")
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
        data.append(row)
    return Matrix(field, data)


def parse_representation(text: str) -> Representation:
    lines = _Lines(text)
    no, args = _read_keyword(lines, "field")
    try:
        field = PrimeField(int(args[0]))
    except (IndexError, ValueError) as exc:
        raise ParseError(f"bad field modulus: {exc}", line=no)
    no, args = _read_keyword(lines, "nilpotency")
    try:
        algebra = LambdaAlgebra(field, int(args[0]))
    except (IndexError, ValueError) as exc:
        raise ParseError(f"bad nilpotency bound: {exc}", line=no)
    no, points = _read_keyword(lines, "points")
    no, cover_args = _read_keyword(lines, "covers")
    covers = []
    for item in cover_args:
        if "<" not in item:
            raise ParseError(f"cover relation {item!r} must look like a<b", line=no)
        a, b = item.split("<", 1)
        covers.append((a, b))
    try:
        poset = Poset(points, covers)
    except ValueError as exc:
        raise ParseError(str(exc), line=no)
    quiver = QuiverStar(poset)
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
        try:
            dim = int(args[2])
        except ValueError:
            raise ParseError("bad vertex dimension", line=no)
        if dim < 0:
            raise ParseError("vertex dimension must be >= 0", line=no)
        if dim:
            _read_keyword(lines, "t")
        t = _read_matrix(lines, dim, dim, field, f"t-matrix at {v}")
        try:
            spaces[v] = LambdaModule(algebra, t)
        except ValueError as exc:
            raise ParseError(f"vertex {v}: {exc}", line=no)
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
    if not lines.done():
        no, body = lines.peek()
        raise ParseError(f"trailing content {body!r}", line=no)
    rep = Representation(quiver, algebra, spaces, maps)
    problems = rep.validate()
    if problems:
        raise ParseError("representation does not validate: " + "; ".join(problems))
    return rep


def serialize_representation(rep: Representation) -> str:
    out = []
    out.append(f"field {rep.field.p}")
    out.append(f"nilpotency {rep.algebra.n}")
    out.append("points " + " ".join(rep.quiver.poset.points))
    out.append(
        "covers " + " ".join(f"{a}<{b}" for a, b in rep.quiver.poset.covers())
    )
    for v in rep.quiver.vertices:
        d = rep.dim(v)
        out.append(f"vertex {v} dim {d}")
        if d:
            out.append("t")
            for row in rep.spaces[v].t.tolist():
                out.append(" ".join(map(str, row)))
    for (s, t) in rep.quiver.arrows:
        out.append(f"arrow {s}->{t}")
        m = rep.arrow_maps[(s, t)]
        if m.rows * m.cols:
            for row in m.tolist():
                out.append(" ".join(map(str, row)))
    return "\n".join(out) + "\n"


def parse_subspace_config(text: str):
    from .birkhoff import SubspaceConfig

    lines = _Lines(text)
    no, args = _read_keyword(lines, "field")
    try:
        field = PrimeField(int(args[0]))
    except (IndexError, ValueError) as exc:
        raise ParseError(f"bad field modulus: {exc}", line=no)
    no, args = _read_keyword(lines, "dim")
    try:
        dim = int(args[0])
    except (IndexError, ValueError):
        raise ParseError("bad dimension", line=no)
    if dim:
        _read_keyword(lines, "t")
    t = _read_matrix(lines, dim, dim, field, "t-matrix")
    algebra = LambdaAlgebra(field, 2)
    try:
        module = LambdaModule(algebra, t)
    except ValueError as exc:
        raise ParseError(str(exc))
    vecs = {}
    for name in ("v1", "v2", "v3"):
        no, args = _read_keyword(lines, "subspace")
        if args != [name]:
            raise ParseError(f"expected 'subspace {name}'", line=no)
        rows = []
        while not lines.done():
            _, body = lines.peek()
            if body.startswith("subspace"):
                break
            no2, body = lines.next("basis vector")
            entries = body.split()
            if len(entries) != dim:
                raise ParseError(
                    f"basis vector must have {dim} entries", line=no2
                )
            rows.append([int(e) for e in entries])
        basis = (
            Matrix(field, np.array(rows, dtype=np.int64).T)
            if rows
            else Matrix.zeros(field, dim, 0)
        )
        vecs[name] = basis
    if not lines.done():
        no, body = lines.peek()
        raise ParseError(f"trailing content {body!r}", line=no)
    return SubspaceConfig(module, vecs["v1"], vecs["v2"], vecs["v3"])


def serialize_subspace_config(cfg) -> str:
    out = [f"field {cfg.v.algebra.field.p}", f"dim {cfg.v.dim}"]
    if cfg.v.dim:
        out.append("t")
        for row in cfg.v.t.tolist():
            out.append(" ".join(map(str, row)))
    for name, basis in (("v1", cfg.v1), ("v2", cfg.v2), ("v3", cfg.v3)):
        out.append(f"subspace {name}")
        for col in range(basis.cols):
            out.append(" ".join(str(int(v)) for v in basis.a[:, col]))
    return "\n".join(out) + "\n"


# catalog directories


def _morphism_payload(m: Morphism):
    return {
        v: {
            "rows": m.components[v].rows,
            "cols": m.components[v].cols,
            "data": m.components[v].tolist(),
        }
        for v in m.source.quiver.vertices
    }


def _morphism_from_payload(payload, source, target):
    field = source.field
    comps = {}
    for v in source.quiver.vertices:
        item = payload[v]
        arr = np.array(item["data"], dtype=np.int64).reshape(
            (item["rows"], item["cols"])
        )
        comps[v] = Matrix(field, arr)
    return Morphism(source, target, comps)


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
                "f": _morphism_payload(seq.f),
                "g": _morphism_payload(seq.g),
                "verified": seq.verified,
            }
        )
    left = []
    for z, (morph, parts) in sorted(catalog.left_maps.items()):
        left.append(
            {
                "object": z,
                "parts": list(parts),
                "matrix": _morphism_payload(morph) if morph is not None else None,
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
    lacks the expected structure, raise ParseError."""
    text = read_text(os.path.join(directory, "catalog.json"), "catalog index")
    try:
        return _catalog_from_meta(json.loads(text), directory)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise ParseError(f"malformed catalog {directory}: {type(exc).__name__}: {exc}") from None


def _catalog_from_meta(meta, directory):
    from .artheory import ARSequence, Catalog
    from .posetrep import direct_sum

    field = PrimeField(meta["field"])
    algebra = LambdaAlgebra(field, meta["nilpotency"])
    poset = Poset(meta["points"], [tuple(c) for c in meta["covers"]])
    quiver = QuiverStar(poset)
    catalog = Catalog(quiver, algebra)
    for name, proj in zip(meta["objects"], meta["projective"]):
        rep = parse_representation(read_text(os.path.join(directory, name), "catalog object"))
        catalog.add(rep, projective=proj)
    for mesh in meta["meshes"]:
        a_rep = parse_representation(
            read_text(os.path.join(directory, mesh["kernel_file"]), "catalog mesh")
        )
        parts = tuple(mesh["parts"])
        middle = direct_sum([catalog.objects[i] for i in parts]).rep
        c_rep = catalog.objects[mesh["end"]]
        f = _morphism_from_payload(mesh["f"], a_rep, middle)
        g = _morphism_from_payload(mesh["g"], middle, c_rep)
        catalog.meshes[mesh["end"]] = ARSequence(
            a_rep, middle, c_rep, f, g, verified=mesh["verified"], middle_parts=parts
        )
    for item in meta["left_maps"]:
        z = item["object"]
        parts = tuple(item["parts"])
        if item["matrix"] is None:
            catalog.left_maps[z] = (None, parts)
            continue
        target = direct_sum([catalog.objects[i] for i in parts]).rep
        morph = _morphism_from_payload(item["matrix"], catalog.objects[z], target)
        catalog.left_maps[z] = (morph, parts)
    return catalog

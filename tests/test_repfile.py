import hashlib
import json
import os
import shutil

import numpy as np
import pytest

from subrep.artheory import build_catalog
from subrep.birkhoff import decompose_full
from subrep.decomp import indecompose, iso_class_multiset
from subrep.errors import ParseError
from subrep.examples import example_quiver
from subrep.ffmat import PrimeField
from subrep.lambdamod import LambdaAlgebra
from subrep.posetrep import Poset, QuiverStar
from subrep.repfile import (
    load_catalog,
    parse_poset,
    parse_representation,
    parse_subspace_config,
    save_catalog,
    serialize_representation,
    serialize_subspace_config,
)
from subrep.sampling import (
    random_subspace_config,
    random_representation,
    random_subspace_representation,
)

from oracles import all_free_representation, chase_class_multiset, twisted_pair_representation

F2 = PrimeField(2)
L2 = LambdaAlgebra(F2, 2)


def test_roundtrip_named():
    for rep in (all_free_representation(L2), twisted_pair_representation(L2)):
        text = serialize_representation(rep)
        back = parse_representation(text)
        assert serialize_representation(back) == text
        assert back.dim_vector() == rep.dim_vector()
        assert all(
            back.arrow_maps[a] == rep.arrow_maps[a] for a in rep.quiver.arrows
        )


def test_roundtrip_random():
    rng = np.random.default_rng(31)
    for p in (2, 3, 5):
        algebra = LambdaAlgebra(PrimeField(p), 2)
        for _ in range(10):
            rep = random_representation(
                example_quiver(), algebra, {"1": 2, "2": 3, "3": 2, "*": 3}, rng
            )
            text = serialize_representation(rep)
            assert serialize_representation(parse_representation(text)) == text


def test_roundtrip_zero_dims():
    from subrep.posetrep import Representation

    rep = Representation.zero(example_quiver(), L2)
    text = serialize_representation(rep)
    back = parse_representation(text)
    assert back.total_dim() == 0


def test_comments_and_blank_lines_ignored():
    rep = all_free_representation(L2)
    text = serialize_representation(rep)
    noisy = "# header comment\n\n" + text.replace(
        "field 2", "field 2  # the binary field"
    )
    assert parse_representation(noisy).dim_vector() == rep.dim_vector()


def test_parse_error_messages():
    rep = all_free_representation(L2)
    text = serialize_representation(rep)
    with pytest.raises(ParseError):
        parse_representation(text.replace("field 2", "field 4"))
    with pytest.raises(ParseError) as exc:
        parse_representation(text.replace("0 1\n", "0 1 1\n", 1))
    assert "line" in str(exc.value)
    with pytest.raises(ParseError):
        parse_representation(text + "garbage\n")
    # non-commuting square is reported as a validation failure
    n = twisted_pair_representation(L2)
    bad = serialize_representation(n).replace(
        "arrow 1->3\n0\n1\n1\n", "arrow 1->3\n0\n0\n0\n"
    )
    with pytest.raises(ParseError) as exc:
        parse_representation(bad)
    assert "commute" in str(exc.value) or "validate" in str(exc.value)


def test_entry_range_enforced():
    rep = all_free_representation(L2)
    text = serialize_representation(rep)
    with pytest.raises(ParseError):
        parse_representation(text.replace("0 1", "0 2", 1))


def test_subspace_roundtrip():
    rng = np.random.default_rng(32)
    for _ in range(20):
        cfg = random_subspace_config(F2, 6, rng)
        text = serialize_subspace_config(cfg)
        back = parse_subspace_config(text)
        assert serialize_subspace_config(back) == text
        assert back.v.t == cfg.v.t


def test_subspace_parse_error():
    with pytest.raises(ParseError):
        parse_subspace_config("field 2\ndim 1\nt\n0\nsubspace v1\n0 1\n")


def test_save_catalog_writes_atomically(catalog_p2, tmp_path, monkeypatch):
    from subrep import repfile

    written = []
    real = repfile.write_atomic

    def recording(path, text):
        written.append(os.path.basename(path))
        real(path, text)

    monkeypatch.setattr(repfile, "write_atomic", recording)
    out = tmp_path / "cat"
    repfile.save_catalog(catalog_p2, str(out))
    # every file goes through the atomic writer, the index last, and no
    # temporary file is left behind
    assert sorted(written) == sorted(os.listdir(out))
    assert written[-1] == "catalog.json"
    assert not [n for n in os.listdir(out) if n.endswith(".tmp")]
    # the permissions a plain open() gives, not a private temporary file's
    plain = tmp_path / "plain.txt"
    plain.write_text("x")
    assert os.stat(out / "catalog.json").st_mode == os.stat(plain).st_mode
    assert len(repfile.load_catalog(str(out)).objects) == len(catalog_p2.objects)


def _saved_and_loaded(quiver, p, n, directory):
    built = build_catalog(quiver, LambdaAlgebra(PrimeField(p), n))
    save_catalog(built, str(directory))
    return built, load_catalog(str(directory))


ONE_POINT = QuiverStar(Poset(["1"], []))


@pytest.mark.parametrize(
    "quiver,p,n",
    [(example_quiver(), 2, 2), (example_quiver(), 3, 2), (ONE_POINT, 3, 1)],
    ids=["example-p2", "example-p3", "S1-p3"],
)
def test_left_maps_roundtrip(tmp_path, quiver, p, n):
    """The stacked left-map matrices of catalog.json cut back into the
    builder's lifts; S(1) has an object with no irreducible map out."""
    built, loaded = _saved_and_loaded(quiver, p, n, tmp_path)
    assert loaded.left_maps.keys() == built.left_maps.keys()
    for z, (lifts, parts) in built.left_maps.items():
        got_lifts, got_parts = loaded.left_maps[z]
        assert got_parts == parts and got_lifts == lifts
        assert all(h.target is loaded.objects[w] for h, w in zip(got_lifts, parts))
    assert (((), ()) in built.left_maps.values()) == (n == 1)


def test_chase_on_loaded_s1_catalog(tmp_path):
    """The chase against a loaded catalog holding a ((), ()) left map."""
    _, catalog = _saved_and_loaded(ONE_POINT, 3, 1, tmp_path)
    rng = np.random.default_rng(31)
    for _ in range(5):
        x = random_subspace_representation(ONE_POINT, catalog.algebra, {"1": 3, "*": 4}, rng)
        chase = decompose_full(x, catalog)
        assert chase.check()
        assert iso_class_multiset(indecompose(x), catalog.objects) == chase_class_multiset(chase)


@pytest.mark.parametrize("which", ["mesh", "left map"])
def test_misshaped_catalog_matrix_is_parse_error(misshaped_catalog, which):
    with pytest.raises(ParseError, match="expected"):
        load_catalog(misshaped_catalog(which))


@pytest.mark.parametrize("name", ["mesh_a_004.rep", "obj_005.rep"])
def test_catalog_file_over_another_field_is_parse_error(tmp_path, name):
    """A mesh kernel or object file of the p = 3 catalog copied into the
    p = 2 one fails the load with a parse error that names the file."""
    path = tmp_path / "swapped"
    shutil.copytree(os.path.join(FIXTURES, "catalog_p2"), path)
    shutil.copy(os.path.join(FIXTURES, "catalog_p3", name), path / name)
    with pytest.raises(ParseError, match=f"malformed catalog .*: ValueError: .* {name} "):
        load_catalog(str(path))


# every shipped `.rep`, `.sub` and `.poset` file

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
FIXTURE_DIGEST = "21adb47a64c0f1628d25147c766c9d9648ea98309f1e3bde870e23f0921dfd41"


def _fixture_paths(suffix):
    return sorted(
        os.path.relpath(os.path.join(d, name), FIXTURES)
        for d, _, names in os.walk(FIXTURES)
        for name in names
        if name.endswith(suffix)
    )


def _read_fixture(name):
    with open(os.path.join(FIXTURES, name)) as fh:
        return fh.read()


def _matrix_entry(m):
    return [list(m.a.shape), m.tolist()]


def _fixture_digest():
    """SHA-256 over what every fixture parses to, written out from the
    parsed objects' arrays and labels, never through a serializer."""
    h = hashlib.sha256()

    def put(name, value):
        h.update(json.dumps([name, value]).encode())
        h.update(b"\0")

    for name in _fixture_paths(".rep"):
        rep = parse_representation(_read_fixture(name))
        poset = rep.quiver.poset
        put(name, [
            rep.field.p, rep.algebra.n, list(poset.points), sorted(poset.le),
            [_matrix_entry(rep.spaces[v].t) for v in rep.quiver.vertices],
            [_matrix_entry(rep.arrow_maps[a]) for a in rep.quiver.arrows],
        ])
    for name in _fixture_paths(".sub"):
        cfg = parse_subspace_config(_read_fixture(name))
        put(name, [cfg.v.algebra.field.p, cfg.v.algebra.n]
            + [_matrix_entry(m) for m in (cfg.v.t, cfg.v1, cfg.v2, cfg.v3)])
    for name in _fixture_paths(".poset"):
        poset = parse_poset(_read_fixture(name))
        put(name, [list(poset.points), sorted(poset.le)])
    return h.hexdigest()


def test_fixtures_parse_to_the_recorded_objects():
    # recorded with the readers that `.rep`, `.sub` and `.poset` files had
    # before they shared one set of section readers
    assert len(_fixture_paths(".rep")) == 92
    assert len(_fixture_paths(".sub")) == 2 and len(_fixture_paths(".poset")) == 3
    assert _fixture_digest() == FIXTURE_DIGEST


def test_poset_fixtures():
    assert parse_poset(_read_fixture("posets/one.poset")) == Poset(["1"], [])
    assert parse_poset(_read_fixture("posets/antichain3.poset")) == Poset(["1", "2", "3"], [])
    v = Poset(["1", "2", "3"], [("1", "3"), ("2", "3")])
    assert parse_poset(_read_fixture("posets/v.poset")) == v
    # covers may spread over several lines, or be left out
    assert parse_poset("points 1 2 3\ncovers 1<3\ncovers 2<3\n") == v
    assert parse_poset("points 1 2 3\n") == Poset(["1", "2", "3"], [])


@pytest.mark.parametrize("name", _fixture_paths(".rep") + _fixture_paths(".sub"))
def test_fixture_text_roundtrip(name):
    text = _read_fixture(name)
    if name.endswith(".sub"):
        assert serialize_subspace_config(parse_subspace_config(text)) == text
    else:
        assert serialize_representation(parse_representation(text)) == text

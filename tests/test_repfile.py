import os

import numpy as np
import pytest

from subrep.errors import ParseError
from subrep.examples import (
    all_free_representation,
    example_quiver,
    twisted_pair_representation,
)
from subrep.ffmat import PrimeField
from subrep.lambdamod import LambdaAlgebra
from subrep.repfile import (
    parse_representation,
    parse_subspace_config,
    serialize_representation,
    serialize_subspace_config,
)
from subrep.sampling import (
    random_subspace_config,
    random_representation,
)

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

import json
import os
import shutil

import numpy as np
import pytest

from subrep.cli import main
from subrep.errors import InternalContractViolation
from subrep.examples import (
    all_free_representation,
    twisted_pair_representation,
)
from subrep.ffmat import Matrix, PrimeField
from subrep.lambdamod import LambdaAlgebra, LambdaModule
from subrep.posetrep import direct_sum
from subrep.repfile import (
    serialize_representation,
    serialize_subspace_config,
)
from subrep.birkhoff import SubspaceConfig, subspace_data

F2 = PrimeField(2)
L2 = LambdaAlgebra(F2, 2)
CATALOG_P2 = os.path.join(os.path.dirname(__file__), "..", "fixtures", "catalog_p2")


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_validate_ok(tmp_path, capsys):
    path = write(tmp_path, "m.rep", serialize_representation(all_free_representation(L2)))
    assert main(["validate", path]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_validate_non_commuting(tmp_path, capsys):
    n = twisted_pair_representation(L2)
    bad = serialize_representation(n).replace(
        "arrow 1->3\n0\n1\n1\n", "arrow 1->3\n0\n0\n0\n"
    )
    path = write(tmp_path, "bad.rep", bad)
    assert main(["validate", path]) == 2  # caught at parse time with line info
    err = capsys.readouterr().err
    assert "1->3" in err or "commute" in err or "validate" in err


def test_field_flag_only_where_used(tmp_path, capsys):
    # decompose and birkhoff take the field from their input file
    path = write(tmp_path, "m.rep", serialize_representation(all_free_representation(L2)))
    with pytest.raises(SystemExit) as exc:
        main(["decompose", path, "--field", "3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["birkhoff", path, "--field", "3"])
    assert exc.value.code == 2
    assert "--field" in capsys.readouterr().err


def test_validate_malformed(tmp_path, capsys):
    path = write(tmp_path, "bad.rep", "field 2\nnilpotency 2\npoints 1\ncovers\nvertex 1 dim 1\nt\n0 0\n")
    assert main(["validate", path]) == 2
    assert "line" in capsys.readouterr().err


def test_approx_right_on_subspace_member(tmp_path, capsys):
    m = all_free_representation(L2)
    path = write(tmp_path, "m.rep", serialize_representation(m))
    out = tmp_path / "out"
    assert main(["approx", path, "--kind", "right", "--out", str(out)]) == 0
    produced = (out / "approx_right.rep").read_text()
    assert produced == serialize_representation(m)  # identity on members
    payload = json.loads((out / "approx_right_map.json").read_text())
    assert payload["kind"] == "right"


def test_approx_mimo_dims(tmp_path, capsys):
    # a representation with a kernel at vertex 3 gets augmented at 2 and *
    from subrep.posetrep import Representation
    from subrep.examples import example_quiver

    zero = LambdaModule.zero(L2)
    simple = LambdaModule.simple(L2)
    rep = Representation(
        example_quiver(),
        L2,
        {"1": zero, "2": zero, "3": simple, "*": zero},
        {
            ("1", "2"): Matrix.zeros(F2, 0, 0),
            ("1", "3"): Matrix.zeros(F2, 1, 0),
            ("2", "*"): Matrix.zeros(F2, 0, 0),
            ("3", "*"): Matrix.zeros(F2, 0, 1),
        },
    )
    path = write(tmp_path, "x.rep", serialize_representation(rep))
    out = tmp_path / "out"
    assert main(["approx", path, "--kind", "mimo", "--vertex", "3", "--out", str(out)]) == 0
    table = capsys.readouterr().out
    # kernel is the simple, envelope is 2-dimensional: dims (0, 2, 1, 2)
    assert "0\t2\t1\t2" in table


def test_approx_left_inclusions(tmp_path, capsys):
    n = twisted_pair_representation(L2)
    path = write(tmp_path, "n.rep", serialize_representation(n))
    out = tmp_path / "out"
    assert main(["approx", path, "--kind", "left", "--out", str(out)]) == 0
    assert "subspace_rep\tTrue" in capsys.readouterr().out


def test_decompose_both_methods_agree(tmp_path, capsys):
    m = all_free_representation(L2)
    n = twisted_pair_representation(L2)
    both = direct_sum([m, n]).rep
    path = write(tmp_path, "both.rep", serialize_representation(both))
    out1 = tmp_path / "idem"
    assert main(["decompose", path, "--method", "idempotent", "--out", str(out1)]) == 0
    table1 = capsys.readouterr().out
    assert "(1,3,3,4)\t1" in table1 and "(2,2,2,2)\t1" in table1
    assert (out1 / "summand_000.rep").exists() and (out1 / "summand_001.rep").exists()
    cert = json.loads((out1 / "certificate.json").read_text())
    assert cert["seed"] == 0 and cert["method"] == "idempotent"
    assert sorted(map(tuple, cert["summand_dims"])) == [(1, 3, 3, 4), (2, 2, 2, 2)]
    assert main(
        ["decompose", path, "--method", "chase", "--catalog", CATALOG_P2]
    ) == 0
    table2 = capsys.readouterr().out
    assert table1.strip().splitlines()[-2:] == table2.strip().splitlines()[-2:]


def test_decompose_empty(tmp_path, capsys):
    from subrep.posetrep import Representation
    from subrep.examples import example_quiver

    path = write(
        tmp_path,
        "zero.rep",
        serialize_representation(Representation.zero(example_quiver(), L2)),
    )
    assert main(["decompose", path]) == 0
    out = capsys.readouterr().out
    assert out.strip() == "dim_vector\tmultiplicity"


def test_decompose_seeds_agree(tmp_path, capsys):
    n = twisted_pair_representation(L2)
    both = direct_sum([n, n]).rep
    path = write(tmp_path, "x.rep", serialize_representation(both))
    tables = []
    for seed in ("1", "2"):
        assert main(["decompose", path, "--seed", seed]) == 0
        tables.append(capsys.readouterr().out)
    assert tables[0] == tables[1]


def test_arquiver(tmp_path, capsys):
    dot_path = tmp_path / "quiver.dot"
    assert main(["arquiver", "--catalog", CATALOG_P2, "--dot", str(dot_path)]) == 0
    dot = dot_path.read_text()
    assert dot.startswith("digraph")
    assert sum(1 for l in dot.splitlines() if "label=" in l and "->" not in l) == 25


def test_birkhoff_named(tmp_path, capsys):
    m = all_free_representation(L2)
    cfg = subspace_data(m)
    path = write(tmp_path, "m.sub", serialize_subspace_config(cfg))
    assert main(["birkhoff", path, "--catalog", CATALOG_P2]) == 0
    out = capsys.readouterr().out
    assert "(2,2,2,2)\t1" in out
    assert "compatible\tTrue" in out


@pytest.mark.parametrize("name", ["five_summands.sub", "zero.sub"])
def test_birkhoff_config_fixtures(name, capsys):
    # the configurations the CI smoke step runs: five summands, and the
    # zero one (dim 0, three empty subspaces)
    path = os.path.join(os.path.dirname(CATALOG_P2), "configs", name)
    assert main(["birkhoff", path, "--catalog", CATALOG_P2]) == 0
    assert "compatible\tTrue" in capsys.readouterr().out


def test_birkhoff_invalid_invariance(tmp_path, capsys):
    free = LambdaModule.free(L2)
    cfg = SubspaceConfig(
        free,
        Matrix.zeros(F2, 2, 0),
        Matrix(F2, [[1], [0]]),  # not invariant
        Matrix.identity(F2, 2),
    )
    path = write(tmp_path, "bad.sub", serialize_subspace_config(cfg))
    assert main(["birkhoff", path, "--catalog", CATALOG_P2]) == 1
    assert "v2" in capsys.readouterr().err


def test_check_harada_sai(capsys):
    assert main(
        ["check", "harada-sai", "--samples", "50", "--catalog", CATALOG_P2]
    ) == 0
    out = capsys.readouterr().out
    assert "ok" in out and "bound" in out


def test_check_hom_span(capsys):
    assert main(
        ["check", "hom-span", "--samples", "3", "--catalog", CATALOG_P2, "--seed", "7"]
    ) == 0
    assert "failures\t0" in capsys.readouterr().out


def test_check_evaluation(capsys):
    assert main(
        ["check", "evaluation", "--samples", "2", "--catalog", CATALOG_P2, "--seed", "8"]
    ) == 0
    assert "failures\t0" in capsys.readouterr().out


def test_catalog_command_small_budget_fails(tmp_path, capsys):
    assert main(
        ["catalog", "--poset", "example", "--field", "2", "--budget", "1"]
    ) == 3
    assert "budget" in capsys.readouterr().err.lower()


def test_catalog_command_poset_file(tmp_path, capsys):
    # one-point poset: five indecomposables over k[T]/T^2
    path = write(tmp_path, "poset.txt", "points 1\ncovers\n")
    out = tmp_path / "cat"
    assert main(
        ["catalog", "--poset", path, "--field", "2", "--out", str(out), "--verify",
         "--mesh-tests", "5"]
    ) == 0
    table = capsys.readouterr().out
    assert "objects\t5" in table
    assert "FAIL" not in table


# unreadable inputs exit 2 with one "parse error:" line, never a traceback


def _assert_parse_error(capsys, argv, needle):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and err.count("\n") == 1
    assert needle in err


def test_missing_input_file(tmp_path, capsys):
    missing = str(tmp_path / "absent.rep")
    _assert_parse_error(capsys, ["validate", missing], "absent.rep")
    _assert_parse_error(capsys, ["birkhoff", str(tmp_path / "absent.sub")], "absent.sub")


def test_missing_catalog_directory(tmp_path, capsys):
    path = write(tmp_path, "m.rep", serialize_representation(all_free_representation(L2)))
    argv = ["decompose", path, "--method", "chase", "--catalog", str(tmp_path / "nowhere")]
    _assert_parse_error(capsys, argv, "catalog.json")


def test_missing_catalog_index(tmp_path, capsys):
    (tmp_path / "cat").mkdir()
    _assert_parse_error(capsys, ["arquiver", "--catalog", str(tmp_path / "cat")], "catalog.json")


@pytest.mark.parametrize(
    "text", ['{"field": 2', "{}", "[1, 2]", '{"field": 4, "nilpotency": 2}']
)
def test_malformed_catalog_index(tmp_path, capsys, text):
    cat = tmp_path / "cat"
    cat.mkdir()
    (cat / "catalog.json").write_text(text)
    _assert_parse_error(capsys, ["arquiver", "--catalog", str(cat)], "malformed catalog")


@pytest.mark.parametrize("which", ["mesh", "left map"])
def test_chase_on_misshaped_catalog_exits_2(misshaped_catalog, capsys, which):
    path = os.path.join(CATALOG_P2, "obj_010.rep")
    argv = ["decompose", path, "--method", "chase", "--catalog", misshaped_catalog(which)]
    _assert_parse_error(capsys, argv, "expected")


def _tamper_object_24_parts(meta):
    # the left map's parts [10, 12, 23] counted from the end
    item = next(m for m in meta["left_maps"] if m["object"] == 24)
    assert item["parts"] == [10, 12, 23]
    item["parts"] = [w - 25 for w in item["parts"]]


def _tamper_mesh_end(meta):
    meta["meshes"][0]["end"] = 25


def _tamper_left_map_object(meta):
    meta["left_maps"][0]["object"] = -1


def _object_14_left_map(meta):
    return next(m for m in meta["left_maps"] if m["object"] == 14)


def _drop_left_map_14(meta):
    meta["left_maps"].remove(_object_14_left_map(meta))


def _repeat_left_map_14(meta):
    meta["left_maps"].append(_object_14_left_map(meta))


def _short_projective(meta):
    meta["projective"].pop()


OUT_OF_RANGE = "is not an object index in [0, 25)"


@pytest.mark.parametrize(
    "tamper, message",
    [
        pytest.param(tamper, message, id=tamper.__name__)
        for tamper, message in [
            (_tamper_object_24_parts, OUT_OF_RANGE),
            (_tamper_mesh_end, OUT_OF_RANGE),
            (_tamper_left_map_object, OUT_OF_RANGE),
            (_drop_left_map_14, "objects [14] have no left-map entry"),
            (_repeat_left_map_14, "object 14 has two left-map entries"),
            (_short_projective, "zip() argument 2 is shorter than argument 1"),
        ]
    ],
)
def test_catalog_index_out_of_range_exits_2(tmp_path, capsys, tamper, message):
    copy = tmp_path / "tampered"
    shutil.copytree(CATALOG_P2, copy)
    meta = json.loads((copy / "catalog.json").read_text())
    tamper(meta)
    (copy / "catalog.json").write_text(json.dumps(meta))
    path = os.path.join(CATALOG_P2, "obj_010.rep")
    argv = ["decompose", path, "--method", "chase", "--catalog", str(copy)]
    _assert_parse_error(capsys, argv, message)


def test_approx_requires_out(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "m.rep", serialize_representation(all_free_representation(L2)))
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["approx", path, "--kind", "left"])
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["m.rep"]


def test_python_dash_m_entry_point(tmp_path):
    import subprocess
    import sys

    path = write(tmp_path, "m.rep", serialize_representation(all_free_representation(L2)))
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-m", "subrep", "validate", path],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0 and run.stdout.strip() == "ok"


# inputs that name a bad field, poset or catalog exit 2, never a traceback

CATALOG_P2_ARGS = ["--catalog", CATALOG_P2]
F3_FREE = all_free_representation(LambdaAlgebra(PrimeField(3), 2))


def _sub_with_v2_row(row):
    """A p = 2 `.sub` file whose subspace v2 has the single basis row `row`."""
    return "field 2\ndim 2\nt\n0 0\n1 0\nsubspace v1\nsubspace v2\n" + row + "\nsubspace v3\n"


def test_sub_file_non_integer_entry(tmp_path, capsys):
    path = write(tmp_path, "bad.sub", _sub_with_v2_row("0 x"))
    _assert_parse_error(capsys, ["birkhoff", path, *CATALOG_P2_ARGS], "non-integer entry")


def test_sub_file_entry_out_of_range(tmp_path, capsys):
    # 5 used to be reduced to 1 at p = 2 and run through to exit 0
    path = write(tmp_path, "big.sub", _sub_with_v2_row("0 5"))
    _assert_parse_error(capsys, ["birkhoff", path, *CATALOG_P2_ARGS], "out of range [0, 2)")


def test_poset_file_points_not_a_linear_extension(tmp_path, capsys):
    path = write(tmp_path, "poset.txt", "points 2 1\ncovers 1<2\n")
    _assert_parse_error(capsys, ["catalog", "--poset", path], "linear extension")


@pytest.mark.parametrize("field", ["4", "1", str(2**31 + 11), "two"])
def test_catalog_bad_field_exits_2(capsys, field):
    with pytest.raises(SystemExit) as exc:
        main(["catalog", "--field", field])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--field" in err and "Traceback" not in err


@pytest.mark.parametrize("nilpotency", ["0", "-1", "two"])
def test_catalog_bad_nilpotency_exits_2(capsys, nilpotency):
    with pytest.raises(SystemExit) as exc:
        main(["catalog", "--nilpotency", nilpotency])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert "--nilpotency" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "what,samples",
    [("hom-span", "-1"), ("evaluation", "-3"), ("harada-sai", "0"), ("hom-span", "few")],
)
def test_check_bad_samples_exits_2(capsys, what, samples):
    with pytest.raises(SystemExit) as exc:
        main(["check", what, "--samples", samples, "--catalog", CATALOG_P2])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("usage:") and captured.out == ""
    assert "--samples" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("vertex", [[], ["--vertex", "9"], ["--vertex", "*"]])
def test_approx_mimo_vertex_usage_errors_exit_2(tmp_path, capsys, vertex):
    path = write(tmp_path, "m.rep", serialize_representation(all_free_representation(L2)))
    out = tmp_path / "out"
    assert main(["approx", path, "--kind", "mimo", *vertex, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error:") and captured.err.count("\n") == 1
    assert "--vertex" in captured.err and captured.out == ""
    assert not out.exists()


def test_approx_mimo_contract_violation_exits_3(tmp_path, capsys, monkeypatch):
    # main holds the one exit-code table: a contract violation inside
    # mimo_k exits 3, as it does from left_approx and right_approx
    def broken(rep, vertex):
        raise InternalContractViolation("broken mimo")

    monkeypatch.setattr("subrep.cli.mimo_k", broken)
    path = write(tmp_path, "m.rep", serialize_representation(all_free_representation(L2)))
    out = tmp_path / "out"
    assert main(["approx", path, "--kind", "mimo", "--vertex", "3", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "budget/contract error: broken mimo\n" and captured.out == ""
    assert not out.exists()


def test_birkhoff_catalog_field_mismatch(tmp_path, capsys):
    path = write(tmp_path, "m3.sub", serialize_subspace_config(subspace_data(F3_FREE)))
    _assert_parse_error(capsys, ["birkhoff", path, *CATALOG_P2_ARGS], "F3[T]/T^2")


def test_chase_catalog_field_mismatch(tmp_path, capsys):
    path = write(tmp_path, "m3.rep", serialize_representation(F3_FREE))
    argv = ["decompose", path, "--method", "chase", *CATALOG_P2_ARGS]
    _assert_parse_error(capsys, argv, "F2[T]/T^2")


def test_chase_catalog_poset_mismatch(tmp_path, capsys):
    from subrep.posetrep import Poset, QuiverStar, Representation

    zero = Representation.zero(QuiverStar(Poset(["1"], [])), L2)
    path = write(tmp_path, "zero.rep", serialize_representation(zero))
    argv = ["decompose", path, "--method", "chase", *CATALOG_P2_ARGS]
    _assert_parse_error(capsys, argv, "Poset(1; )")

"""The traffic probe of `tools/traffic.py` against the library it wraps.

The probe rebinds `ffmat._rref_inplace`, `ffmat._pack_rows`, `ffmat.factor`,
`decomp._crt_interpolants`, `Catalog.find_isomorphic`,
`indecomposables_isomorphic` and `posetrep.hom_basis` under every alias.
A rename in the library must fail here: `restore` leaves every module and
class as it was, the counts it takes on real items add up, and the
workload's output check, which runs after `restore`, adds nothing to them.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "traffic.py"


def _load():
    """tools/traffic.py by file: tools is a script directory."""
    spec = importlib.util.spec_from_file_location("_tools_traffic", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


traffic = _load()


@pytest.fixture
def lib():
    # the modules already imported, not a fresh import: other tests hold them
    return traffic.workloads.Library()


def _namespaces(lib):
    """Every attribute of every loaded subrep module and of every class
    they define, by identity."""
    spaces = {}
    for name, module in lib.loaded_modules():
        spaces[name] = dict(vars(module))
        for cls_name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__:
                spaces[f"{name}.{cls_name}"] = dict(vars(cls))
    return spaces


def _assert_unchanged(before, after):
    assert after.keys() == before.keys()
    for space, attrs in before.items():
        assert after[space].keys() == attrs.keys(), space
        changed = [a for a, v in attrs.items() if after[space][a] is not v]
        assert not changed, (space, changed)


def test_install_then_restore_leaves_every_attribute(lib):
    before = _namespaces(lib)
    probe = traffic.Probe(lib)
    probe.install()
    try:
        installed = _namespaces(lib)
    finally:
        probe.restore()
    rebound = {
        (space, attr)
        for space, attrs in before.items()
        for attr, value in attrs.items()
        if installed[space][attr] is not value
    }
    assert {
        ("ffmat", "_rref_inplace"),
        ("ffmat", "_pack_rows"),
        ("ffmat", "factor"),
        ("decomp", "factor"),
        ("decomp", "_crt_interpolants"),
        ("artheory.Catalog", "find_isomorphic"),
        ("decomp", "indecomposables_isomorphic"),
        ("artheory", "indecomposables_isomorphic"),
        ("posetrep", "hom_basis"),
        ("decomp", "hom_basis"),
    } <= rebound
    _assert_unchanged(before, _namespaces(lib))


@pytest.mark.parametrize("name, items", [("subspaces_p2", 3), ("corpus_p3", 1)])
def test_counts_of_real_items_add_up(lib, name, items):
    wl = traffic.workloads.WORKLOADS[name](lib, traffic.ROOT)
    before = _namespaces(lib)
    probe = traffic.probe_items(lib, wl, wl.make_inputs(0, items))
    _assert_unchanged(before, _namespaces(lib))
    counts = probe.summary()
    eliminations, layers = counts["eliminations"], counts["layers"]
    assert eliminations["calls"] > 0
    assert sum(b["calls"] for b in eliminations["by_bucket"]) == eliminations["calls"]
    assert {b["cells"] for b in eliminations["by_bucket"]} <= set(traffic.BUCKETS)
    assert layers.keys() == set(traffic.LAYERS)
    assert layers["hom_basis"]["calls"] > 0
    for layer, row in layers.items():
        assert row["distinct"] <= row["calls"], layer
    if name == "corpus_p3":
        # each summand of the chase and of five splits is classified
        assert layers["find_isomorphic"]["calls"] > 0


class _CheckEliminates:
    """A workload whose item is one elimination and whose output check
    runs one more."""

    name = "check_eliminates"

    def __init__(self, lib):
        self.lib = lib
        self.checked = 0

    def run(self, m):
        return self.lib.ffmat.rref(m)

    def check(self, m, out):
        self.checked += 1
        _, pivots, _ = self.lib.ffmat.rref(m)
        return [] if pivots == out[1] else ["pivots differ"]


def test_the_output_check_adds_nothing(lib):
    wl = _CheckEliminates(lib)
    field = lib.ffmat.PrimeField(2)
    matrix = lib.ffmat.Matrix
    inputs = [matrix(field, [[1, 1], [0, 1]]), matrix(field, [[1, 0]])]
    counts = traffic.probe_items(lib, wl, inputs).summary()
    assert wl.checked == len(inputs)
    assert counts["eliminations"]["calls"] == len(inputs)
    buckets = counts["eliminations"]["by_bucket"]
    rows = [(b["p"], b["cells"], b["path"], b["calls"]) for b in buckets]
    assert rows == [(2, "1-4", "lists", 2)]
    assert all(row["calls"] == 0 for row in counts["layers"].values())

"""The benchmark's layer tracer against the library it traces.

`perfbench/layertrace.py` rebinds every name in its `TRACED` list and
digests the arguments of each traced call, hom spaces and the chase's
hom cache among them.  A rename in the library must fail here, not only
in `perfbench/run.py --self-test`: every traced name resolves,
`install` followed by `uninstall` leaves every module and class as it
was, and the digest reads a star-form hom space, a lifted one and a
`_HomCache` alike.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    """A perfbench module by file: perfbench is a script directory."""
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layertrace, workloads = _load("layertrace"), _load("workloads")


@pytest.fixture
def lib():
    # the modules already imported, not a fresh import: other tests hold them
    return workloads.Library()


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


def test_every_traced_name_resolves(lib):
    for module, attr in layertrace.TRACED:
        owner = getattr(lib, module)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{module}.{attr}"


def test_install_then_uninstall_restores_every_attribute(lib):
    before = _namespaces(lib)
    tracer = layertrace.Tracer(lib)
    tracer.install()
    try:
        assert lib.birkhoff.decompose_full is not before["birkhoff"]["decompose_full"]
    finally:
        tracer.uninstall()
    after = _namespaces(lib)
    assert after.keys() == before.keys()
    for space, attrs in before.items():
        assert after[space].keys() == attrs.keys(), space
        changed = [a for a, v in attrs.items() if after[space][a] is not v]
        assert not changed, (space, changed)


def test_digest_reads_star_and_lifted_spaces_and_the_hom_cache(lib, catalog_p2):
    x, y = catalog_p2.objects[10], catalog_p2.objects[24]
    star, lifted = lib.posetrep.hom_basis(x, y), lib.posetrep.hom_basis(x, y)
    lifted.basis
    cache = lib.birkhoff._HomCache(catalog_p2, x)
    digests = []
    for obj in (star, lifted, cache):
        digest = layertrace._Digest(lib)
        digest.add(obj)
        digests.append(digest.digest())
    # the content, not the form it is held in
    assert digests[0] == digests[1] != digests[2]

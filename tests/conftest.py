import json
import os
import shutil

import numpy as np
import pytest

from subrep.artheory import build_catalog
from subrep.examples import example_quiver
from subrep.ffmat import PrimeField
from subrep.lambdamod import LambdaAlgebra
from subrep.posetrep import STAR
from subrep.repfile import load_catalog
from subrep.sampling import random_subspace_representation

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def _catalog(p):
    path = os.path.join(FIXTURES, f"catalog_p{p}")
    if os.path.isdir(path):
        return load_catalog(path)
    return build_catalog(example_quiver(), LambdaAlgebra(PrimeField(p), 2), seed=0)


@pytest.fixture(scope="session")
def catalog_p2():
    return _catalog(2)


@pytest.fixture(scope="session")
def catalog_p3():
    return _catalog(3)


@pytest.fixture
def lifting_tests():
    """Factory: catalog.members() followed by `count` random subspace
    representations drawn from rng (a fresh default_rng(0) when None),
    of dimension at most 3 at each poset point and 5 at `*`: test objects
    for `verify_ar_sequence` beyond the catalog."""

    def draw(catalog, rng=None, count=20):
        rng = rng if rng is not None else np.random.default_rng(0)
        caps = {v: 3 for v in catalog.quiver.poset.points} | {STAR: 5}
        return catalog.members() + [
            random_subspace_representation(catalog.quiver, catalog.algebra, caps, rng)
            for _ in range(count)
        ]

    return draw


@pytest.fixture
def misshaped_catalog(tmp_path):
    """Factory: a copy of fixtures/catalog_p2 in which the `*` component
    of the first mesh's g ("mesh") or of object 24's left map ("left
    map") has lost its last row, its row count lowered to match."""

    def make(which):
        path = tmp_path / "misshaped"
        shutil.copytree(os.path.join(FIXTURES, "catalog_p2"), path)
        index = path / "catalog.json"
        meta = json.loads(index.read_text())
        if which == "mesh":
            item = meta["meshes"][0]["g"]["*"]
        else:
            item = next(m for m in meta["left_maps"] if m["object"] == 24)["matrix"]["*"]
        item["data"].pop()
        item["rows"] -= 1
        index.write_text(json.dumps(meta))
        return str(path)

    return make

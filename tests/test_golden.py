"""Golden outputs: SHA-256 digests of seeded results that must not change.

A refactor that claims "same results" must keep these digests.  Each
category hashes the exact bytes of one kind of output, at p = 2 and 3,
over the catalog objects (16 of the 25 have a zero vertex) and over
seeded random inputs:
- chase: `decompose_full` certificates with every inclusion and projection;
- idempotent: `indecompose` traces and serialized summands at seeds 0 and 7,
  with inclusions and projections;
- approx: `left_approx`, `right_approx` and every `mimo_k`, with their
  structure maps;
- dtr: `dtr` of every non-projective catalog object;
- birkhoff: `invariant_subspace_report` on seeded subspace configurations;
- dot: `export_quiver` of the catalog.

The digests were recorded before the zero-dimension special cases around
`ffmat`'s solvers were removed; the dot digest before the DOT arrows
were read off the stored left maps.  A change that alters one on purpose must
say so and record the new digest.
"""

import hashlib
import json

import numpy as np
import pytest

from subrep.approx import left_approx, mimo_k, right_approx
from subrep.artheory import dtr, export_quiver
from subrep.birkhoff import decompose_full, invariant_subspace_report
from subrep.decomp import indecompose
from subrep.examples import example_quiver
from subrep.posetrep import Representation
from subrep.repfile import serialize_representation
from subrep.sampling import (
    random_representation,
    random_subspace_config,
    random_subspace_representation,
)

SUBSPACE_CAPS = {"1": 2, "2": 3, "3": 3, "*": 5}
GENERAL_CAPS = {"1": 2, "2": 2, "3": 2, "*": 3}


def _morphism(m) -> str:
    comps = [(v, m.components[v]) for v in m.source.quiver.vertices]
    return json.dumps([[v, c.a.shape, c.tolist()] for v, c in comps])


def _inputs(catalog, seed):
    """The zero representation followed by seeded subspace representations
    (chase and idempotent inputs) or general ones (approximation inputs)."""
    rng = np.random.default_rng(seed)
    quiver, algebra = catalog.quiver, catalog.algebra
    zero = Representation.zero(quiver, algebra)
    subs = [random_subspace_representation(quiver, algebra, SUBSPACE_CAPS, rng) for _ in range(14)]
    general = [random_representation(quiver, algebra, GENERAL_CAPS, rng) for _ in range(12)]
    return [zero] + subs, [zero] + general


def golden_digests(catalog) -> dict:
    p = catalog.algebra.field.p
    subs, general = _inputs(catalog, 1000 + p)
    hashes = {k: hashlib.sha256() for k in ("chase", "idempotent", "approx", "dtr", "birkhoff", "dot")}

    def put(kind, text):
        hashes[kind].update(text.encode())
        hashes[kind].update(b"\0")

    for x in subs:
        d = decompose_full(x, catalog)
        put("chase", json.dumps(d.certificate, default=str))
        for s in d.summands:
            put("chase", _morphism(s.inclusion) + _morphism(s.projection))
    for x in subs + catalog.objects:
        for seed in (0, 7):
            d = indecompose(x, seed=seed)
            put("idempotent", json.dumps(d.certificate, default=str))
            for s in d.summands:
                put("idempotent", serialize_representation(s.rep))
                put("idempotent", _morphism(s.inclusion) + _morphism(s.projection))
    for x in general + catalog.objects:
        results = [left_approx(x), right_approx(x)]
        results += [mimo_k(x, v) for v in x.quiver.poset.points]
        for res in results:
            put("approx", res.kind + serialize_representation(res.approx))
            put("approx", _morphism(res.structure_map))
    for i, x in enumerate(catalog.objects):
        if not catalog.projective[i]:
            put("dtr", serialize_representation(dtr(x)))
    rng = np.random.default_rng(2000 + p)
    for _ in range(30):
        cfg = random_subspace_config(catalog.algebra.field, 6, rng)
        report = invariant_subspace_report(cfg, catalog)
        put("birkhoff", json.dumps(sorted(report.multiplicities.items())))
        put("birkhoff", json.dumps([report.compatible, report.details]))
        put("birkhoff", json.dumps(report.decomposition.certificate, default=str))
    put("dot", export_quiver(catalog))
    return {k: h.hexdigest() for k, h in hashes.items()}


GOLDEN = {
    2: {
        "chase": "b48fefded1fc5176e336b44273b63998025207dccf41d4b4d93fd3648d896750",
        "idempotent": "0a6b4574186faf2c92341762e1e538649b77499620de340cbb93708cf81cd107",
        "approx": "080b019ac7b7a4f8dd3a1beb307890cc253ef7fa2a9eb1e8b3b22f5b0f41db42",
        "dtr": "68f28dbd8b00dd84942393a87a6a622a9db45d1bd2b2d7df43e4f03e48737068",
        "birkhoff": "c9f1a5b7ff4753c003eda33af13f94ce1609362f934a7482d8590e6645d297ee",
        "dot": "b456ce499a2bf169948d11c1426d1ac03d092b60d4727ad0c1f9153571a622ad",
    },
    3: {
        "chase": "2988477ae31b48f07e067119fd3beb5f3020480e09f7d168e1623c320a73088a",
        "idempotent": "0ab8f156d89892e78bae70a607bc488aa0ea7ec8bbec952a3b27681bee316cb9",
        "approx": "9cb46c4ef4539530fc3c965ddafcb01091808b956bdc3e30525824e974af36a7",
        "dtr": "4a035d8170d0ce6809a78cf6589bd8c297816ea5e8d624035e75c2fc26f4678e",
        "birkhoff": "4d479997221d63effdfaa442a27c0584e6cdde267a11c4de2a08aad8fc82b349",
        "dot": "b456ce499a2bf169948d11c1426d1ac03d092b60d4727ad0c1f9153571a622ad",
    },
}


@pytest.mark.parametrize("p", [2, 3])
def test_golden_digests(p, catalog_p2, catalog_p3):
    catalog = {2: catalog_p2, 3: catalog_p3}[p]
    assert catalog.quiver == example_quiver()
    assert golden_digests(catalog) == GOLDEN[p]

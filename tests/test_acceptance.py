"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

All checks are exact (counts, isomorphism, linear-algebra identities);
there are no numeric tolerances anywhere.  Criteria 6 and 8 share one
corpus: the traces recorded while decomposing it feed the step-bound
check.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from subrep.approx import right_approx
from subrep.artheory import build_catalog, indecomposable_projectives, verify_ar_sequence
from subrep.birkhoff import (
    decompose_full,
    harada_sai_check,
    invariant_subspace_report,
)
from subrep.decomp import indecompose, iso_class_multiset
from subrep.examples import example_quiver
from subrep.ffmat import PrimeField
from subrep.lambdamod import LambdaAlgebra, block_invariants
from subrep.posetrep import hom_basis
from subrep.repfile import save_catalog
from subrep.sampling import (
    random_representation,
    random_subspace_config,
    random_subspace_representation,
)

from oracles import (
    all_free_representation,
    chase_class_multiset,
    evaluation_iso_check,
    hom_image_span_check,
    twisted_pair_representation,
    verify_right_approx,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

_STATE = {}


def _report(num, ok, desc):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def _built_catalog(p):
    key = f"catalog_p{p}"
    if key not in _STATE:
        _STATE[key] = build_catalog(
            example_quiver(), LambdaAlgebra(PrimeField(p), 2), seed=0
        )
    return _STATE[key]


def test_criterion_1_catalog_count():
    t0 = time.time()
    counts = {}
    for p in (2, 3):
        catalog = _built_catalog(p)
        counts[p] = len(catalog.objects)
    ok = counts[2] == 25 and counts[3] == 25
    _report(
        1,
        ok,
        f"catalog closure gives {counts[2]} objects at p=2 and {counts[3]} at p=3 "
        f"(expected 25 each; {time.time() - t0:.0f}s)",
    )


def test_criterion_2_named_members():
    catalog = _built_catalog(2)
    algebra = catalog.algebra
    m = all_free_representation(algebra)
    n = twisted_pair_representation(algebra)
    mi = catalog.find_isomorphic(m)
    ni = catalog.find_isomorphic(n)
    ok = mi is not None and ni is not None
    ok = ok and catalog.objects[mi].dim_vector() == (2, 2, 2, 2)
    ok = ok and catalog.objects[ni].dim_vector() == (1, 3, 3, 4)
    ok = ok and block_invariants(catalog.objects[ni].spaces["*"]) == (2, 2)
    _report(2, ok, f"members isomorphic to the two named objects found at indices {mi}, {ni}")


def test_criterion_3_property_suite():
    catalog = _built_catalog(2)
    algebra = catalog.algebra
    m = all_free_representation(algebra)
    n = twisted_pair_representation(algebra)
    mi = catalog.find_isomorphic(m)
    ni = catalog.find_isomorphic(n)
    passed = 0
    for i, y in enumerate(catalog.objects):
        star_ok = len(block_invariants(y.spaces["*"])) <= 2
        cyclic_ok = i == ni or (
            len(block_invariants(y.spaces["2"])) <= 1
            and len(block_invariants(y.spaces["3"])) <= 1
        )
        dim1_ok = i == mi or y.dim("1") <= 1
        if star_ok and cyclic_ok and dim1_ok:
            passed += 1
    _report(3, passed == 25, f"{passed}/25 objects satisfy all three structural properties")


def test_criterion_4_mesh_verification(lifting_tests):
    catalog = _built_catalog(2)
    rng = np.random.default_rng(4)
    non_projectives = [
        i for i in range(len(catalog.objects)) if not catalog.projective[i]
    ]
    verified = 0
    for c_idx in non_projectives:
        seq = catalog.meshes.get(c_idx)
        if seq is None:
            continue
        if verify_ar_sequence(seq, lifting_tests(catalog, rng, 20)):
            verified += 1
    ok = verified == len(non_projectives)
    _report(
        4,
        ok,
        f"{verified}/{len(non_projectives)} non-projective objects head verified "
        "almost-split sequences (25 catalog tests + 20 random subspace objects each)",
    )


def test_criterion_5_approximation_suite():
    catalog = _built_catalog(2)
    algebra = catalog.algebra
    quiver = catalog.quiver
    rng = np.random.default_rng(5)
    caps = {v: 4 for v in quiver.vertices}
    good = 0
    for _ in range(100):
        x = random_representation(quiver, algebra, caps, rng)
        res = right_approx(x)
        if not res.approx.is_subspace_rep():
            continue
        if verify_right_approx(res, catalog.members()) is None:
            good += 1
    _report(
        5,
        good == 100,
        f"{good}/100 random representations: approximation lands in the subspace "
        "category and every test map factors through it",
    )


def test_criterion_6_decomposition_cross_validation():
    t0 = time.time()
    rng = np.random.default_rng(6)
    caps = {"1": 4, "2": 8, "3": 8, "*": 10}
    agree = 0
    total = 0
    traces = []
    for p in (2, 3):
        catalog = _built_catalog(p)
        algebra = catalog.algebra
        quiver = catalog.quiver
        for _ in range(250):
            total += 1
            x = random_subspace_representation(quiver, algebra, caps, rng)
            d_chase = decompose_full(x, catalog)
            traces.extend(d_chase.certificate["traces"])
            chase_classes = chase_class_multiset(d_chase)
            seed_classes = set()
            for seed in range(5):
                d = indecompose(x, seed=seed)
                seed_classes.add(iso_class_multiset(d, catalog.objects))
            if len(seed_classes) == 1 and seed_classes.pop() == chase_classes:
                agree += 1
    _STATE["criterion6_traces"] = traces
    _STATE["criterion6_bound"] = 2 ** _built_catalog(2).max_length() - 1
    elapsed = time.time() - t0
    ok = agree == total and elapsed < 900
    _report(
        6,
        ok,
        f"{agree}/{total} random subspace representations: chase and idempotent "
        f"decompositions agree, summands all lie in the catalog, multisets are "
        f"stable over 5 seeds ({elapsed:.0f}s)",
    )


def test_criterion_7_harada_sai():
    catalog = _built_catalog(2)
    m = catalog.max_length()
    counterexample, (witness, wlen), layers = harada_sai_check(catalog)
    ok = counterexample is None and witness is not None and 1 <= wlen < m
    _report(
        7,
        ok,
        f"the radical filtration of the catalog vanishes at rad^{len(layers)}, below "
        f"2^{m}-1 (total dimensions {','.join(map(str, layers))}); a nonzero "
        f"chain of length {wlen} < {m} witnesses non-vacuity",
    )


def test_criterion_8_chase_bound():
    traces = _STATE.get("criterion6_traces")
    bound = _STATE.get("criterion6_bound")
    assert traces is not None, "criterion 6 must run first"
    worst = max(len(t) for t in traces)
    ok = all(len(t) <= bound for t in traces)
    _report(
        8,
        ok,
        f"all {len(traces)} chase traces stayed within the step bound "
        f"{bound} (worst observed: {worst})",
    )


def test_criterion_9_invariant_subspace_reports():
    catalog = _built_catalog(2)
    rng = np.random.default_rng(9)
    good = 0
    for _ in range(200):
        cfg = random_subspace_config(catalog.algebra.field, 10, rng)
        report = invariant_subspace_report(cfg, catalog)
        if report.compatible:
            good += 1
    _report(
        9,
        good == 200,
        f"{good}/200 random invariant-subspace configurations decompose with "
        "every subspace equal to the direct sum of its intersections with the summands",
    )


def test_criterion_10_span_and_evaluation():
    catalog = _built_catalog(2)
    algebra = catalog.algebra
    quiver = catalog.quiver
    rng = np.random.default_rng(10)
    caps = {"1": 2, "2": 4, "3": 4, "*": 6}
    summands = catalog.members()
    span_good = 0
    for _ in range(100):
        x = random_subspace_representation(quiver, algebra, caps, rng)
        if hom_image_span_check(summands, x) is None:
            span_good += 1
    pair_homs = {
        (i, j): catalog.hom(j, i)
        for i in range(len(summands))
        for j in range(len(summands))
    }
    eval_good = 0
    for _ in range(50):
        x = random_subspace_representation(quiver, algebra, caps, rng)
        if evaluation_iso_check(summands, x, pair_homs=pair_homs) is None:
            eval_good += 1
    # the exact fact both samples follow from: the catalog holds a
    # generator, every indecomposable projective
    projectives = indecomposable_projectives(quiver, algebra)
    found = sum(catalog.find_isomorphic(p) is not None for p in projectives)
    ok = found == len(projectives) and span_good == 100 and eval_good == 50
    _report(
        10,
        ok,
        f"{found}/{len(projectives)} indecomposable projectives in the catalog; "
        f"{span_good}/100 objects generated by catalog homs; {eval_good}/50 "
        "evaluation maps bijective (exact dimension equality)",
    )


@pytest.mark.parametrize("p", [2, 3])
def test_catalog_fixtures_regenerate(p, tmp_path):
    # the seed-0 catalogs built above, saved again, are the shipped
    # fixtures byte for byte
    out = tmp_path / f"catalog_p{p}"
    save_catalog(_built_catalog(p), str(out))
    shipped = FIXTURES / f"catalog_p{p}"
    names = sorted(f.name for f in shipped.iterdir())
    assert sorted(f.name for f in out.iterdir()) == names
    for name in names:
        assert (out / name).read_bytes() == (shipped / name).read_bytes(), name

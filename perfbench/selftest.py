"""Self-tests of the benchmark, run by `python3 perfbench/run.py --self-test`.

1. `BENCHMARK.json` lists exactly the workloads and metrics, with their
   units, that the command reports.
2. Each workload's checker accepts a correct output and reports
   deliberately wrong ones (a catalog missing an object, a classification
   with one index swapped, an incompatible report, ...) as failures.
3. Two traced runs with the same seed report identical per-layer counts
   (everything but self times and the tracing overhead).
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import layertrace
import workloads

TRACE_SEED = 1
TRACE_TIMEOUT_S = 900


def _expect(results, name, problems, should_fail):
    ok = bool(problems) == should_fail
    results.append(ok)
    detail = "; ".join(str(p) for p in problems)[:160] if problems else "no problems"
    print(f"{'PASS' if ok else 'FAIL'} {name} ({detail})")


def benchmark_file_matches(root: Path, end_to_end_units, results):
    bench = json.loads((root / "BENCHMARK.json").read_text())
    listed = [w["name"] for w in bench["workloads"]]
    problems = [] if listed == list(workloads.WORKLOADS) else [listed]
    _expect(results, "BENCHMARK.json lists every workload", problems, False)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    problems = [] if e2e == end_to_end_units else [e2e]
    _expect(results, "BENCHMARK.json lists the end-to-end metrics", problems, False)
    layers = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    want = layertrace.per_layer_metric_specs()
    problems = [] if layers == want else [set(layers) ^ set(want)]
    _expect(results, "BENCHMARK.json lists the per-layer metrics", problems, False)


def checkers_catch_wrong_answers(root: Path, results):
    lib = workloads.import_library(root / "src")

    cat = workloads.CatalogP2(lib, root)
    good = cat.reference()  # the shipped catalog stands in for a build
    _expect(results, "catalog_p2 accepts the reference catalog", cat.check(0, good), False)
    short = copy.copy(good)
    short.objects, short.projective = good.objects[:-1], good.projective[:-1]
    _expect(results, "catalog_p2 rejects a catalog missing one object", cat.check(0, short), True)
    twice = copy.copy(good)
    twice.objects = good.objects[:-1] + [good.objects[0]]
    _expect(results, "catalog_p2 rejects an object listed twice", cat.check(0, twice), True)
    unverified = copy.copy(good)
    unverified.meshes = dict(good.meshes)
    first = min(unverified.meshes)
    unverified.meshes[first] = copy.copy(good.meshes[first])
    unverified.meshes[first].verified = False
    _expect(results, "catalog_p2 rejects an unverified mesh", cat.check(0, unverified), True)

    corpus = workloads.CorpusP3(lib, root)
    [x] = corpus.make_inputs(0, 1)
    chase, classes = corpus.run(x)
    _expect(results, "corpus_p3 accepts a real item", corpus.check(x, (chase, classes)), False)
    swapped = list(classes[2])
    swapped[0] = (swapped[0] + 1) % len(corpus.catalog.objects)
    wrong = classes[:2] + [tuple(sorted(swapped))] + classes[3:]
    _expect(
        results,
        "corpus_p3 rejects a classification with one index swapped",
        corpus.check(x, (chase, wrong)),
        True,
    )
    long_chase = copy.copy(chase)
    bound = 2 ** corpus.catalog.max_length() - 1
    long_chase.certificate = dict(chase.certificate, traces=[[None] * (bound + 1)])
    _expect(
        results,
        "corpus_p3 rejects a chase trace over the step bound",
        corpus.check(x, (long_chase, classes)),
        True,
    )

    subspaces = workloads.SubspacesP2(lib, root)
    cfg = subspaces.make_inputs(0, workloads.SUBSPACE_MAX_DIM + 1)[-1]
    report = subspaces.run(cfg)
    _expect(results, "subspaces_p2 accepts a real report", subspaces.check(cfg, report), False)
    incompatible = copy.copy(report)
    incompatible.compatible = False
    _expect(
        results,
        "subspaces_p2 rejects an incompatible report",
        subspaces.check(cfg, incompatible),
        True,
    )
    miscounted = copy.copy(report)
    miscounted.multiplicities = dict(report.multiplicities)
    some_class = next(iter(miscounted.multiplicities))
    miscounted.multiplicities[some_class] += 1
    _expect(
        results,
        "subspaces_p2 rejects multiplicities that miscount the summands",
        subspaces.check(cfg, miscounted),
        True,
    )


def _traced_counts(root: Path, workload: str, seed: int):
    cmd = [
        sys.executable,
        str(root / "perfbench" / "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--trace",
        "1",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=TRACE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {
        name: m["value"]
        for name, m in metrics.items()
        if not name.endswith(".self_s") and name != "trace.overhead"
    }


def traced_counts_repeat(root: Path, results):
    for workload in workloads.WORKLOADS:
        first = _traced_counts(root, workload, TRACE_SEED)
        second = _traced_counts(root, workload, TRACE_SEED)
        differ = sorted(k for k in first if first[k] != second.get(k))
        _expect(
            results,
            f"{workload} traced twice at seed {TRACE_SEED} repeats all {len(first)} counts",
            [f"{k}: {first[k]} vs {second.get(k)}" for k in differ],
            False,
        )


def main(root: Path, end_to_end_units) -> int:
    results = []
    benchmark_file_matches(root, end_to_end_units, results)
    checkers_catch_wrong_answers(root, results)
    traced_counts_repeat(root, results)
    print(f"{sum(results)} of {len(results)} self-tests passed")
    return 0 if all(results) else 1

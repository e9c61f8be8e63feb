"""Eliminations of benchmark workloads, by size and by packing path.

    python3 tools/rref_paths.py --workload corpus_p3 --seed 0
    python3 tools/rref_paths.py --workload catalog_p2 corpus_p3 subspaces_p2 --crossover
    python3 tools/rref_paths.py --workload corpus_p3 --src ../parent/src

Runs the items of each `perfbench` workload, as many as a 25 s benchmark
run times, with `ffmat._rref_inplace` wrapped and nothing else traced,
and prints one JSON object: per workload, the calls and seconds of each
prime and each rows * cols bucket, split by the path taken: `packed`
(F_2/F_3 rows packed by numpy's packbits, seen by a call to it), `lists`
(F_2/F_3 rows packed from `a.tolist()`, no packbits call), `numpy` (every
other prime) and `empty` (zero rows or columns).

`--crossover` also reduces each F_2/F_3 input the runs made once more on
each packing path (best of five per input) and reports, per prime, the
largest list size that minimises their total over all the workloads
given: the crossover the constants are set from.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

BENCH_SECONDS = 25.0
# upper ends of the rows * cols buckets; the last bucket is open
EDGES = (0, 4, 8, 12, 16, 24, 32, 40, 64, 100, 400)
REPEATS = 5


def bucket(cells):
    lower = 0
    for edge in EDGES:
        if cells <= edge:
            return f"{lower}-{edge}" if lower < edge else str(edge)
        lower = edge + 1
    return f">{EDGES[-1]}"


def run_workload(name, seed, src, capture):
    """(items, calls, seconds, captured inputs, ffmat) of the run's timed
    items."""
    lib = workloads.import_library(src)
    cls = workloads.WORKLOADS[name]
    wl = cls(lib, ROOT)
    inputs = wl.make_inputs(seed, max(cls.min_items, round(BENCH_SECONDS / cls.item_s)))
    wl.warm_up()
    ffmat = lib.ffmat
    inner = ffmat._rref_inplace
    packbits = np.packbits
    calls = defaultdict(int)
    seconds = defaultdict(float)
    captured = []
    packed = []

    def counted_packbits(*args, **kwargs):
        packed.append(1)
        return packbits(*args, **kwargs)

    def counted(a, p):
        if capture and p in (2, 3):
            captured.append((a.copy(), p))
        before = len(packed)
        t0 = time.perf_counter()
        out = inner(a, p)
        dt = time.perf_counter() - t0
        if p not in (2, 3):
            path = "numpy"
        elif a.size == 0:
            path = "empty"
        else:
            path = "packed" if len(packed) > before else "lists"
        key = (p, bucket(a.size), path)
        calls[key] += 1
        seconds[key] += dt
        return out

    ffmat._rref_inplace = counted
    np.packbits = counted_packbits
    try:
        for inp in inputs:
            out = wl.run(inp)
            problems = wl.check(inp, out)
            if problems:
                raise SystemExit(f"{name}: item failed: {problems}")
    finally:
        ffmat._rref_inplace = inner
        np.packbits = packbits
    return len(inputs), calls, seconds, captured, ffmat


def best_time(fn, a, p):
    best = float("inf")
    for _ in range(REPEATS):
        b = a.copy()
        t0 = time.perf_counter()
        fn(b, p)
        best = min(best, time.perf_counter() - t0)
    return best


def crossover(ffmat, captured):
    """Per prime: seconds on each path by size (printed up to 800 entries),
    and the list size that minimises their total."""
    out = {}
    for p in sorted({p for _, p in captured}):
        name = f"GF{p}_LIST_CELLS"
        kept = getattr(ffmat, name)
        per_cells = defaultdict(lambda: [0, 0.0, 0.0])
        try:
            for a, q in captured:
                if q != p or a.size == 0:
                    continue
                entry = per_cells[a.size]
                setattr(ffmat, name, a.size)
                entry[1] += best_time(ffmat._rref_inplace, a, p)
                setattr(ffmat, name, a.size - 1)
                entry[2] += best_time(ffmat._rref_inplace, a, p)
                entry[0] += 1
        finally:
            setattr(ffmat, name, kept)
        sizes = sorted(per_cells)
        total = sum(per_cells[c][2] for c in sizes)  # all packed
        best, best_total = 0, total
        for c in sizes:
            total += per_cells[c][1] - per_cells[c][2]
            if total < best_total:
                best, best_total = c, total
        out[f"p{p}"] = {
            "best_list_cells": best,
            "seconds_at_best": round(best_total, 4),
            "seconds_all_packed": round(sum(per_cells[c][2] for c in sizes), 4),
            "by_cells": {
                str(c): {
                    "calls": per_cells[c][0],
                    "lists_s": round(per_cells[c][1], 5),
                    "packed_s": round(per_cells[c][2], 5),
                }
                for c in sizes
                if c <= 2 * EDGES[-1]
            },
        }
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument(
        "--workload", required=True, nargs="+", choices=sorted(workloads.WORKLOADS)
    )
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--src", type=Path, default=ROOT / "src")
    ap.add_argument("--crossover", action="store_true")
    args = ap.parse_args(argv)
    result = {"seed": args.seed, "workloads": {}}
    captured = []
    order = {b: i for i, b in enumerate(map(bucket, EDGES + (EDGES[-1] + 1,)))}
    for name in args.workload:
        items, calls, seconds, inputs, ffmat = run_workload(
            name, args.seed, args.src.resolve(), args.crossover
        )
        captured += inputs
        result["list_cells"] = {
            f"p{p}": getattr(ffmat, f"GF{p}_LIST_CELLS", None) for p in (2, 3)
        }
        result["workloads"][name] = {
            "items": items,
            "calls": sum(calls.values()),
            "seconds": round(sum(seconds.values()), 4),
            "by_bucket": [
                {"p": p, "cells": b, "path": path, "calls": calls[p, b, path],
                 "seconds": round(seconds[p, b, path], 4)}
                for p, b, path in sorted(calls, key=lambda k: (k[0], order[k[1]], k[2]))
            ],
        }
    if args.crossover:
        result["crossover"] = crossover(ffmat, captured)
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()

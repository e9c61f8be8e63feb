"""Exact traffic of benchmark workloads: eliminations and repeated calls.

    python3 tools/traffic.py --workload corpus_p3 --seed 0
    python3 tools/traffic.py --workload catalog_p2 corpus_p3 subspaces_p2 --crossover
    python3 tools/traffic.py --workload corpus_p3 --src ../parent/src

Runs the items of each `perfbench` workload, as many as a 25 s benchmark
run times, after its warm-up, under one `Probe`, and prints one JSON
object.  Per workload, `eliminations` holds the calls and seconds of
`ffmat._rref_inplace` per prime and rows * cols bucket, by the path
taken: `packed` (F_2/F_3 rows packed by the word codec, seen by a call
to `ffmat._pack_rows`), `lists` (packed from `a.tolist()`), `numpy`
(other primes) or `empty` (no entries).  `layers` holds the calls, the
distinct exact inputs among them and the inclusive seconds inside them
of `ffmat.factor`, the misses of `decomp._crt_interpolants` that split
(timed without their `factor`), `Catalog.find_isomorphic`, the
`indecomposables_isomorphic` calls (`iso_tests`) and `posetrep.hom_basis`;
a representation is keyed on its `content_key()`.  Every alias of a
wrapped name is rebound, and restored before the workload's output check
runs, so the check's own work is not counted.

`--crossover` also reduces each F_2/F_3 input the runs made once more on
each packing path (best of five per input) and reports the smallest list
size that minimises their total over all the workloads given, per prime
and over both primes together: the last is the crossover that
`ffmat.LIST_CELLS` is set from.
"""

import argparse
import bisect
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

BENCH_SECONDS = 25.0
# upper ends of the rows * cols buckets, named in BUCKETS; the last is open
EDGES = (0, 4, 8, 12, 16, 24, 32, 40, 64, 100, 400)
BUCKETS = ["0"] + [f"{lo + 1}-{hi}" for lo, hi in zip(EDGES, EDGES[1:])]
BUCKETS.append(f">{EDGES[-1]}")
REPEATS = 5
LAYERS = ("factor", "crt_interpolants", "find_isomorphic", "iso_tests", "hom_basis")


def content_keys(*reps):
    return tuple(rep.content_key() for rep in reps)


class Probe:
    """Counters for one library's traffic and the wrappers that fill them:
    `install` rebinds every wrapped name, `restore` puts each back.  A
    copy of every F_2/F_3 elimination input goes to the list `captured`,
    if one is given."""

    def __init__(self, lib, captured=None):
        self.lib = lib
        self.captured = captured
        self.eliminations = defaultdict(lambda: [0, 0.0])  # (p, bucket, path): calls, s
        self.keys = {layer: Counter() for layer in LAYERS}
        self.seconds = dict.fromkeys(LAYERS, 0.0)
        self.packed_calls = 0
        self.patched = []

    def add(self, layer, key, seconds):
        self.keys[layer][key] += 1
        self.seconds[layer] += seconds

    def rebind(self, owner, name, fake):
        """Point `owner.name` and every alias of it in the loaded subrep
        modules at `fake`."""
        real = getattr(owner, name)
        aliases = [(owner, name)] + [
            (module, alias)
            for _, module in self.lib.loaded_modules()
            for alias, value in vars(module).items()
            if value is real
        ]
        for target, alias in dict.fromkeys(aliases):
            self.patched.append((target, alias, real))
            setattr(target, alias, fake)

    def wrap(self, layer, real, key):
        """`real`, each call counted in `layer` under key(*its arguments)."""

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = real(*args, **kwargs)
            self.add(layer, key(*args, **kwargs), time.perf_counter() - t0)
            return out

        return wrapper

    def install(self):
        lib = self.lib
        real_rref, real_pack = lib.ffmat._rref_inplace, lib.ffmat._pack_rows
        cached = lib.decomp._crt_interpolants

        def pack_rows(a, p):
            self.packed_calls += 1
            return real_pack(a, p)

        def rref(a, p):
            if self.captured is not None and p in (2, 3):
                self.captured.append((a.copy(), p))
            before = self.packed_calls
            t0 = time.perf_counter()
            out = real_rref(a, p)
            dt = time.perf_counter() - t0
            if p not in (2, 3):
                path = "numpy"
            elif a.size == 0:
                path = "empty"
            else:
                path = "packed" if self.packed_calls > before else "lists"
            entry = self.eliminations[p, bisect.bisect_left(EDGES, a.size), path]
            entry[0] += 1
            entry[1] += dt
            return out

        def crt(field, coeffs):
            misses, factored = cached.cache_info().misses, self.seconds["factor"]
            t0 = time.perf_counter()
            out = cached(field, coeffs)
            if cached.cache_info().misses > misses and out[1] is not None:
                dt = time.perf_counter() - t0 - (self.seconds["factor"] - factored)
                self.add("crt_interpolants", (field.p, coeffs), dt)
            return out

        self.rebind(lib.ffmat, "_rref_inplace", rref)
        self.rebind(lib.decomp, "_crt_interpolants", crt)
        self.rebind(lib.ffmat, "_pack_rows", pack_rows)
        for layer, owner, name, key in (
            ("factor", lib.ffmat, "factor", lambda f, seed=0: (f.field.p, f.coeffs)),
            ("iso_tests", lib.decomp, "indecomposables_isomorphic", content_keys),
            ("hom_basis", lib.posetrep, "hom_basis", content_keys),
            ("find_isomorphic", lib.artheory.Catalog, "find_isomorphic",
             lambda _, rep: content_keys(rep)),
        ):
            self.rebind(owner, name, self.wrap(layer, getattr(owner, name), key))

    def restore(self):
        while self.patched:
            owner, name, real = self.patched.pop()
            setattr(owner, name, real)

    def summary(self):
        counts = sorted(self.eliminations.items())
        return {
            "eliminations": {
                "calls": sum(n for _, (n, _) in counts),
                "seconds": round(sum(s for _, (_, s) in counts), 4),
                "by_bucket": [
                    {"p": p, "cells": BUCKETS[b], "path": path, "calls": n,
                     "seconds": round(s, 4)}
                    for (p, b, path), (n, s) in counts
                ],
            },
            "layers": {
                layer: {"calls": sum(keys.values()), "distinct": len(keys),
                        "seconds": round(self.seconds[layer], 4)}
                for layer, keys in self.keys.items()
            },
        }


def probe_items(lib, wl, inputs, captured=None):
    """The probe of the inputs run through workload `wl` of `lib`; every
    output is checked after the probe is removed."""
    probe = Probe(lib, captured)
    probe.install()
    try:
        outputs = [wl.run(inp) for inp in inputs]
    finally:
        probe.restore()
    for inp, out in zip(inputs, outputs):
        problems = wl.check(inp, out)
        if problems:
            raise SystemExit(f"{wl.name}: item failed: {problems}")
    return probe


def run_workload(name, seed, src, captured):
    """(result, ffmat) of one workload, imported afresh from `src`."""
    lib = workloads.import_library(src)
    cls = workloads.WORKLOADS[name]
    wl = cls(lib, ROOT)
    inputs = wl.make_inputs(seed, max(cls.min_items, round(BENCH_SECONDS / cls.item_s)))
    wl.warm_up()
    probe = probe_items(lib, wl, inputs, captured)
    return {"items": len(inputs), **probe.summary()}, lib.ffmat


def best_time(fn, a, p):
    best = float("inf")
    for _ in range(REPEATS):
        b = a.copy()
        t0 = time.perf_counter()
        fn(b, p)
        best = min(best, time.perf_counter() - t0)
    return best


def best_cutoff(per_cells):
    """The smallest list size that minimises the total seconds over
    `per_cells` (size: [calls, lists_s, packed_s]), with that total and
    the total when every input is packed."""
    sizes = sorted(per_cells)
    all_packed = total = sum(per_cells[c][2] for c in sizes)
    best, best_total = 0, total
    for c in sizes:
        total += per_cells[c][1] - per_cells[c][2]
        if total < best_total:
            best, best_total = c, total
    return {
        "best_list_cells": best,
        "seconds_at_best": round(best_total, 4),
        "seconds_all_packed": round(all_packed, 4),
    }


def crossover(ffmat, captured):
    """Seconds on each path by prime and size (printed up to 800 entries),
    and the list size that minimises their total per prime and over both."""
    per_cells = defaultdict(lambda: [0, 0.0, 0.0])  # (p, cells): calls, lists_s, packed_s
    kept = ffmat.LIST_CELLS
    try:
        for a, p in captured:
            if a.size:
                entry = per_cells[p, a.size]
                entry[0] += 1
                for path, cells in ((1, a.size), (2, a.size - 1)):
                    ffmat.LIST_CELLS = cells
                    entry[path] += best_time(ffmat._rref_inplace, a, p)
    finally:
        ffmat.LIST_CELLS = kept
    out, both = {}, defaultdict(lambda: [0, 0.0, 0.0])
    for p in sorted({p for p, _ in per_cells}):
        own = {c: entry for (q, c), entry in per_cells.items() if q == p}
        for c, entry in own.items():
            both[c] = [x + y for x, y in zip(both[c], entry)]
        out[f"p{p}"] = {
            **best_cutoff(own),
            "by_cells": {
                str(c): {"calls": n, "lists_s": round(lists_s, 5),
                         "packed_s": round(packed_s, 5)}
                for c, (n, lists_s, packed_s) in sorted(own.items())
                if c <= 2 * EDGES[-1]
            },
        }
    out["both"] = best_cutoff(both)
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
    src, captured = args.src.resolve(), [] if args.crossover else None
    for name in args.workload:
        result["workloads"][name], ffmat = run_workload(name, args.seed, src, captured)
    result["list_cells"] = ffmat.LIST_CELLS
    if args.crossover:
        result["crossover"] = crossover(ffmat, captured)
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()

"""Repeated exact work in benchmark workloads: calls against distinct inputs.

    python3 tools/repeats.py --workload corpus_p3 --seed 0
    python3 tools/repeats.py --workload catalog_p2 corpus_p3 subspaces_p2
    python3 tools/repeats.py --workload corpus_p3 --src ../parent/src

Runs the items of each `perfbench` workload, as many as a 25 s benchmark
run times, after its warm-up, with four layers wrapped and nothing else
traced, and prints one JSON object: per workload and layer, the calls,
the distinct exact inputs among them and the wall seconds inside them.

- `factor`: `ffmat.factor`, keyed on the polynomial's field and
  coefficients.
- `crt_interpolants`: each computation of the CRT interpolants of one
  minimal polynomial, keyed on it.  Where `decomp._crt_interpolants`
  exists these are its cache misses that split, timed without the
  `factor` inside them; otherwise they are the calls of
  `decomp._crt_idempotents`, timed with the evaluation on theta.
- `find_isomorphic`: `Catalog.find_isomorphic` queries, keyed on the
  query's exact content (field, dimension vector, T_v and arrow bytes),
  and `iso_tests`, the `indecomposables_isomorphic` calls they made.
- `hom_basis`: `posetrep.hom_basis`, keyed on the content of source and
  target.

Seconds are inclusive (a `find_isomorphic` query's include its
`hom_basis` calls) and not normalised by the benchmark's speed probe.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

BENCH_SECONDS = 25.0


def content(rep):
    """The exact content of a representation, as bytes and tuples."""
    q = rep.quiver
    return (
        rep.field.p,
        tuple(rep.dim(v) for v in q.vertices),
        tuple(rep.spaces[v].t.a.tobytes() for v in q.vertices),
        tuple(rep.arrow_maps[a].a.tobytes() for a in q.arrows),
    )


class Layer:
    def __init__(self, source):
        self.source = source
        self.keys = Counter()
        self.seconds = 0.0

    def add(self, key, seconds):
        self.keys[key] += 1
        self.seconds += seconds

    def summary(self):
        return {
            "calls": sum(self.keys.values()),
            "distinct": len(self.keys),
            "seconds": round(self.seconds, 4),
            "source": self.source,
        }


def replace_everywhere(lib, real, fake):
    """Point every alias of `real` in the loaded subrep modules at `fake`;
    returns the (module, name, real) triples to restore."""
    patched = []
    for _, module in lib.loaded_modules():
        for name, value in list(vars(module).items()):
            if value is real:
                setattr(module, name, fake)
                patched.append((module, name, real))
    return patched


def instrument(lib):
    """Wrap the four layers; returns (layers, restore)."""
    ffmat, decomp, artheory, posetrep = lib.ffmat, lib.decomp, lib.artheory, lib.posetrep
    cached = getattr(decomp, "_crt_interpolants", None)
    layers = {
        "factor": Layer("ffmat.factor"),
        "crt_interpolants": Layer(
            "decomp._crt_interpolants misses that split, without factor"
            if cached is not None
            else "decomp._crt_idempotents calls, evaluation included"
        ),
        "find_isomorphic": Layer("artheory.Catalog.find_isomorphic"),
        "iso_tests": Layer("decomp.indecomposables_isomorphic from find_isomorphic"),
        "hom_basis": Layer("posetrep.hom_basis"),
    }
    patched = []

    def timed(layer, key, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        layers[layer].add(key, time.perf_counter() - t0)
        return out

    real_factor = ffmat.factor

    def factor(f, seed=0):
        return timed("factor", (f.field.p, f.coeffs), real_factor, f, seed)

    real_hom = posetrep.hom_basis

    def hom_basis(x, y):
        return timed("hom_basis", (content(x), content(y)), real_hom, x, y)

    real_iso = artheory.indecomposables_isomorphic

    def iso(x, y):
        return timed("iso_tests", (content(x), content(y)), real_iso, x, y)

    real_find = artheory.Catalog.find_isomorphic

    def find_isomorphic(self, rep):
        return timed("find_isomorphic", content(rep), real_find, self, rep)

    if cached is not None:

        def crt(field, coeffs):
            misses, factored = cached.cache_info().misses, layers["factor"].seconds
            t0 = time.perf_counter()
            out = cached(field, coeffs)
            dt = time.perf_counter() - t0
            if cached.cache_info().misses > misses and out[1] is not None:
                layers["crt_interpolants"].add(
                    (field.p, coeffs), dt - (layers["factor"].seconds - factored)
                )
            return out

        patched += replace_everywhere(lib, cached, crt)
    else:
        real_idem = decomp._crt_idempotents

        def crt(x, theta, factors, mp):
            return timed("crt_interpolants", (mp.field.p, mp.coeffs), real_idem, x, theta, factors, mp)

        patched += replace_everywhere(lib, real_idem, crt)
    patched += replace_everywhere(lib, real_factor, factor)
    patched += replace_everywhere(lib, real_hom, hom_basis)
    patched += replace_everywhere(lib, real_iso, iso)
    artheory.Catalog.find_isomorphic = find_isomorphic

    def restore():
        artheory.Catalog.find_isomorphic = real_find
        for module, name, real in patched:
            setattr(module, name, real)

    return layers, restore


def run_workload(name, seed, src):
    lib = workloads.import_library(src)
    cls = workloads.WORKLOADS[name]
    wl = cls(lib, ROOT)
    inputs = wl.make_inputs(seed, max(cls.min_items, round(BENCH_SECONDS / cls.item_s)))
    wl.warm_up()
    layers, restore = instrument(lib)
    t0 = time.perf_counter()
    try:
        outputs = [wl.run(inp) for inp in inputs]
    finally:
        restore()
    wall = time.perf_counter() - t0
    for inp, out in zip(inputs, outputs):
        problems = wl.check(inp, out)
        if problems:
            raise SystemExit(f"{name}: item failed: {problems}")
    return {
        "items": len(inputs),
        "wall_s": round(wall, 3),
        "layers": {k: layer.summary() for k, layer in layers.items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument(
        "--workload", required=True, nargs="+", choices=sorted(workloads.WORKLOADS)
    )
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--src", type=Path, default=ROOT / "src")
    args = ap.parse_args(argv)
    result = {"seed": args.seed, "workloads": {}}
    for name in args.workload:
        result["workloads"][name] = run_workload(name, args.seed, args.src.resolve())
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()

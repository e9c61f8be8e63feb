"""Benchmark of the subrep toolkit: one command per workload run.

    python3 perfbench/run.py --workload catalog_p2 --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

Each run is one process, one thread and a closed loop: an item starts
only after the previous one finished.  Inputs come from `--seed` and are
generated before the timed phase.  The number of items is fixed by
`--seconds` and the workload's nominal item cost (about `--seconds` of
work at the baseline), so a faster program does the same work in less
time and `wall_s` shows it.  Outputs are checked exactly after the timed
phase; a failed check or an exception counts as a failed item, the run
goes on, and the command exits with 1.

`--trace 0` reports the end-to-end metrics: set-up time (median of
several fresh imports, loads, input generations and warm-ups), wall and
CPU time of the timed phase, items per second, median and (with at
least 100 items) 90th-percentile item latency, the failure ratio and peak
memory.  Times are in seconds at a fixed reference speed: each is divided
by the slowdown that speedprobe.py sampled while it was measured, and the
value as measured is printed next to it.  `--trace 1` runs a fixed number of items traced and untraced
and reports per-layer calls, distinct inputs and self time (see
layertrace.py).  Sanity line: `--workload catalog_p2 --seed 0 --trace 1`
reports posetrep.hom_basis.calls = 9652 and .distinct = 5018.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the line before it holds the
machine description.  Without the library sources next to this
directory the command exits with 2 and prints no result.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import gc
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import layertrace
import speedprobe
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# set-up is repeated at least this often and for at least this long; the
# median is reported, so that a slow moment of the machine does not decide it
SETUP_REPEATS = 5
SETUP_MIN_S = 2.0
TAIL_MIN_ITEMS = 100  # p90 needs at least ten samples beyond it
MAX_REPORTED_FAILURES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true", help="run the benchmark's own tests")
    args = ap.parse_args(argv)
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    return args


def run_items(wl, inputs, probe=None):
    """Closed loop over the inputs.  Returns (outputs, errors, per-item
    latencies, wall seconds, CPU seconds), without the time a speed probe
    took; an item that raises keeps its traceback and the loop goes on."""

    def excluded():
        return (probe.excluded_wall, probe.excluded_cpu) if probe else (0.0, 0.0)

    outputs, errors, latencies = [], [], []
    ex_wall0, ex_cpu0 = excluded()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    for inp in inputs:
        t0, ex0 = time.perf_counter(), excluded()[0]
        try:
            outputs.append(wl.run(inp))
            errors.append(None)
        except Exception:  # a failing item is counted, not fatal
            outputs.append(None)
            errors.append(traceback.format_exc(limit=3))
        latencies.append(time.perf_counter() - t0 - (excluded()[0] - ex0))
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    ex_wall, ex_cpu = excluded()
    return outputs, errors, latencies, wall - (ex_wall - ex_wall0), cpu - (ex_cpu - ex_cpu0)


def check_items(wl, inputs, outputs, errors):
    """Exact output checks, outside any timed region.  Returns the number
    of failed items and prints what failed."""
    failed = 0
    for k, (inp, out, err) in enumerate(zip(inputs, outputs, errors)):
        if err is None:
            try:
                problems = wl.check(inp, out)
            except Exception:  # a checker crash is a failed item too
                problems = [traceback.format_exc(limit=3)]
        else:
            problems = [err]
        if problems:
            failed += 1
            if failed <= MAX_REPORTED_FAILURES:
                for p in problems:
                    print(f"  item {k} FAILED: {p}", file=sys.stderr)
    if failed > MAX_REPORTED_FAILURES:
        print(f"  ({failed - MAX_REPORTED_FAILURES} more failed items not shown)", file=sys.stderr)
    return failed


def measure(cls, seed, seconds):
    """Untraced run: several timed set-ups, the timed phase, checks."""
    n = max(cls.min_items, round(seconds / cls.item_s))
    setups = []
    with speedprobe.SpeedProbe() as setup_probe:
        while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_MIN_S:
            t0, ex0 = time.perf_counter(), setup_probe.excluded_wall
            lib = workloads.import_library(SRC)
            wl = cls(lib, ROOT)
            inputs = wl.make_inputs(seed, n)
            wl.warm_up()
            setups.append(time.perf_counter() - t0 - (setup_probe.excluded_wall - ex0))
    gc.collect()  # leave no garbage of earlier set-ups to the timed phase
    with speedprobe.SpeedProbe() as probe:
        outputs, errors, lat, wall, cpu = run_items(wl, inputs, probe)
    failed = check_items(wl, inputs, outputs, errors)
    setup_slow, _ = setup_probe.slowdown()
    slow, cpu_slow = probe.slowdown()
    # (as measured, factor by which the machine was slower than the reference)
    measured = {
        "setup_s": (statistics.median(setups), setup_slow),
        "wall_s": (wall, slow),
        "cpu_s": (cpu, cpu_slow),
        "items_per_s": (n / wall, 1 / slow),
        "item_p50_ms": (statistics.median(lat) * 1000, slow),
    }
    notes = {"setup_s": f"median of {len(setups)}", "item_p50_ms": f"n={n}"}
    metrics = {
        k: (v / s, END_TO_END_UNITS[k], f"measured {v:.6g} {notes.get(k, '')}")
        for k, (v, s) in measured.items()
    }
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["peak_rss_mb"] = (rss, "MB", "")
    extra = {}
    if n >= TAIL_MIN_ITEMS:
        p90 = statistics.quantiles(lat, n=10)[-1] * 1000
        extra["item_p90_ms"] = (p90 / slow, "ms", f"measured {p90:.6g} n={n}")
    extra["fail_ratio"] = (failed / n, "ratio", f"{failed} of {n} items failed")
    extra["slowdown"] = (
        slow,
        "x",
        f"timed phase, CPU {cpu_slow:.3f}, {len(probe.samples)} samples; set-up {setup_slow:.3f}",
    )
    return n, failed, metrics, extra


def measure_traced(cls, seed):
    """Traced run of a fixed number of items: the traced pass gives the
    per-layer metrics, an untraced pass over the same items the overhead."""
    n = cls.trace_items
    lib = workloads.import_library(SRC)
    tracer = layertrace.Tracer(lib)
    tracer.install()
    try:
        tracer.active = True
        wl = cls(lib, ROOT)
        tracer.active = False
        setup_layers = tracer.layer_metrics()
        tracer.reset()
        inputs = wl.make_inputs(seed, n)
        wl.warm_up()
        tracer.active = True
        outputs, errors, _, traced_wall, _ = run_items(wl, inputs)
        tracer.active = False
        layers = tracer.layer_metrics()
        _, _, _, plain_wall, _ = run_items(wl, inputs)
    finally:
        tracer.active = False
        tracer.uninstall()
    failed = check_items(wl, inputs, outputs, errors)
    for key in ("calls", "distinct", "self_s"):
        name = f"repfile.load_catalog.{key}"
        layers[name] = setup_layers[name]
    layers["trace.overhead"] = traced_wall / plain_wall
    units = {name: unit for name, unit, _ in layertrace.per_layer_metric_specs()}
    return n, failed, {k: (layers[k], units[k], "") for k in units}, {}


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _git_commit():
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args):
    """Machine and source description, recorded next to the timings."""
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((SRC / "subrep").glob("*.py"))
    )
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(),
        "src_lines": src_lines,
    }


def main(argv=None):
    args = parse_args(argv)
    if args.self_test:
        import selftest

        return selftest.main(ROOT, END_TO_END_UNITS)
    if not (SRC / "subrep" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    if args.trace:
        n, failed, metrics, extra = measure_traced(cls, args.seed)
    else:
        n, failed, metrics, extra = measure(cls, args.seed, args.seconds)
    print(f"{args.workload} seed={args.seed} trace={args.trace} items={n}")
    for name, (value, unit, note) in {**metrics, **extra}.items():
        print(f"  {name:<44} {value:>14.6g} {unit:<6} {note}")
    print(json.dumps({"meta": metadata(args)}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": n,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

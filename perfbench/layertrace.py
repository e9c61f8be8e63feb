"""Per-layer tracing of the subrep library from outside it.

`Tracer.install` wraps the public functions that the benchmark reports on
and rebinds every module-level alias of each one: modules such as
`decomp`, `birkhoff`, `artheory` and `approx` import `hom_basis`,
`kernel_basis` and friends with `from .x import f`, so patching only the
defining module would miss most calls.  Methods and classes are patched
on the class, which every alias shares.

While `active` is true each wrapped call records a span (layer id, parent
span, start, end, wrapper overhead) in flat arrays, plus an exact content
digest of its arguments.  Self time is computed afterwards as a span's
duration minus the time its child spans cover, so a layer is charged
only for the work it does itself.  Wrapper bookkeeping (digesting the
arguments) is kept out of both the span and its parent's self time.
"""

from __future__ import annotations

import functools
import hashlib
import statistics
import time
from array import array
from collections import defaultdict

import numpy as np

# (module, attribute) of every traced callable.  A dotted attribute is a
# method patched on its class; a class name traces its construction.
TRACED = (
    ("ffmat", "rref"),
    ("ffmat", "kernel_basis"),
    ("ffmat", "solve"),
    ("ffmat", "column_space_basis"),
    ("ffmat", "CoordinateSolver"),
    ("ffmat", "min_poly"),
    ("ffmat", "char_poly"),
    ("ffmat", "factor"),
    ("posetrep", "hom_basis"),
    ("posetrep", "end_algebra"),
    ("posetrep", "split_by_retraction"),
    ("posetrep", "kernel_subrep"),
    ("decomp", "indecompose"),
    ("decomp", "radical"),
    ("decomp", "is_local"),
    ("decomp", "fingerprint"),
    ("decomp", "indecomposables_isomorphic"),
    ("decomp", "iso_class_multiset"),
    ("artheory", "verify_ar_sequence"),
    ("artheory", "dtr"),
    ("artheory", "Catalog.find_isomorphic"),
    ("artheory", "Catalog.irreducible_lifts"),
    ("approx", "right_approx"),
    ("birkhoff", "decompose_full"),
    ("birkhoff", "split_off_summand"),
    ("birkhoff", "invariant_subspace_report"),
    ("lambdamod", "block_invariants"),
    ("lambdamod", "injective_envelope"),
    ("lambdamod", "submodule"),
    ("repfile", "load_catalog"),
)

# Counts derived from arguments and results rather than from spans.
DERIVED = (
    ("ffmat.Matrix.count", "count", "lower"),
    ("ffmat.kernel_basis.cells_p50", "cells", "lower"),
    ("posetrep.hom_basis.unknowns_p50", "count", "lower"),
    ("decomp.split_attempts", "count", "lower"),
    ("decomp.split_yield", "ratio", "higher"),
    ("birkhoff.chase_steps", "count", "lower"),
    ("birkhoff.chase_steps_max", "count", "lower"),
    ("trace.overhead", "ratio", "lower"),
)


def layer_names():
    return [f"{module}.{attr}" for module, attr in TRACED]


def per_layer_metric_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for name in layer_names():
        specs += [
            (f"{name}.calls", "count", "lower"),
            (f"{name}.distinct", "count", "lower"),
            (f"{name}.self_s", "s", "lower"),
        ]
    return specs + list(DERIVED)


class _Digest:
    """Exact content digest: prime, shapes and entries of every matrix or
    representation reachable from the arguments, never object identity."""

    def __init__(self, lib):
        self.h = hashlib.blake2b(digest_size=16)
        self.lib = lib

    def add(self, obj):
        lib = self.lib
        h = self.h
        if obj is None or isinstance(obj, (bool, int, float, str, np.integer)):
            h.update(repr(obj).encode())
        elif isinstance(obj, lib.ffmat.Matrix):
            h.update(b"M%d%r" % (obj.field.p, obj.a.shape))
            h.update(obj.a.tobytes())
        elif isinstance(obj, np.ndarray):
            h.update(b"A%r%s" % (obj.shape, obj.dtype.str.encode()))
            h.update(np.ascontiguousarray(obj).tobytes())
        elif isinstance(obj, (list, tuple)):
            h.update(b"L%d" % len(obj))
            for item in obj:
                self.add(item)
        elif isinstance(obj, dict):
            h.update(b"D%d" % len(obj))
            for k in sorted(obj, key=repr):
                self.add(k)
                self.add(obj[k])
        elif isinstance(obj, lib.ffmat.PrimeField):
            h.update(b"F%d" % obj.p)
        elif isinstance(obj, lib.ffmat.Poly):
            h.update(b"P%d" % obj.field.p)
            self.add(tuple(int(c) for c in obj.coeffs))
        elif isinstance(obj, lib.lambdamod.LambdaAlgebra):
            h.update(b"G%d,%d" % (obj.field.p, obj.n))
        elif isinstance(obj, lib.lambdamod.LambdaModule):
            h.update(b"N%d" % obj.algebra.n)
            self.add(obj.t)
        elif isinstance(obj, lib.posetrep.QuiverStar):
            h.update(b"Q")
            self.add(list(obj.vertices))
            self.add(list(obj.arrows))
        elif isinstance(obj, lib.posetrep.Representation):
            h.update(b"R")
            self.add(obj.algebra)
            self.add(obj.quiver)
            for v in obj.quiver.vertices:
                self.add(obj.spaces[v])
            for a in obj.quiver.arrows:
                self.add(obj.arrow_maps[a])
        elif isinstance(obj, lib.posetrep.Morphism):
            h.update(b"H")
            self.add(obj.source)
            self.add(obj.target)
            for v in obj.source.quiver.vertices:
                self.add(obj.components[v])
        elif isinstance(obj, lib.posetrep.EndAlgebra):
            h.update(b"E")
            self.add(obj.rep)
            self.add(obj.basis)
        elif isinstance(obj, lib.posetrep.HomSpace):
            h.update(b"S")
            self.add(obj.source)
            self.add(obj.target)
            self.add(obj.basis)
        elif isinstance(obj, lib.decomp.RadicalData):
            h.update(b"J")
            self.add(obj.algebra)
            self.add(obj.coeff_matrix)
        elif isinstance(obj, lib.decomp.Decomposition):
            h.update(b"X")
            self.add(obj.object)
            self.add(obj.summands)
        elif isinstance(obj, lib.decomp.Summand):
            self.add((obj.rep, obj.inclusion, obj.projection))
        elif isinstance(obj, lib.artheory.ARSequence):
            h.update(b"Z")
            self.add((obj.a, obj.b, obj.c, obj.f, obj.g))
        elif isinstance(obj, lib.artheory.Catalog):
            h.update(b"C")
            self.add(obj.objects)
            self.add(obj.projective)
        elif isinstance(obj, lib.birkhoff.SubspaceConfig):
            h.update(b"B")
            self.add((obj.v, obj.v1, obj.v2, obj.v3))
        elif isinstance(obj, lib.birkhoff._HomCache):
            h.update(b"K")
            self.add((obj.catalog, obj.current, obj.forward, obj.backward))
        elif isinstance(obj, np.random.Generator):
            h.update(repr(obj.bit_generator.state).encode())
        else:
            raise TypeError(f"no content digest for {type(obj).__name__}")

    def digest(self):
        return self.h.digest()


def _args_key(lib, args, kwargs):
    d = _Digest(lib)
    d.add(args)
    d.add(kwargs)
    return d.digest()


class Tracer:
    """Span recorder for the subrep layers.  Install once per process;
    record only while `active` is true."""

    def __init__(self, lib):
        self.lib = lib
        self.active = False
        self.names = layer_names()
        self._undo = []
        self._hooks = {
            "ffmat.kernel_basis": self._after_kernel_basis,
            "posetrep.hom_basis": self._after_hom_basis,
            "decomp.indecompose": self._after_indecompose,
            "birkhoff.decompose_full": self._after_decompose_full,
        }
        self.reset()

    def reset(self):
        """Drop everything recorded so far."""
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_overhead = array("d")
        self._stack = []
        self.keys = defaultdict(set)
        self.alias_calls = defaultdict(int)
        self.matrix_count = 0
        self.kernel_cells = []
        self.hom_unknowns = []
        self.split_successes = 0
        self.chase_steps = []

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap every traced callable and count Matrix constructions;
        `uninstall` restores the originals."""
        lib = self.lib
        for layer_id, (module_name, attr) in enumerate(TRACED):
            module = getattr(lib, module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, meth, self._wrap(layer_id, getattr(cls, meth), module_name))
                continue
            target = getattr(module, attr)
            if isinstance(target, type):
                wrapper = self._wrap(layer_id, target.__init__, module_name, skip_self=True)
                self._patch(target, "__init__", wrapper)
                continue
            # every subrep module that holds this function gets a wrapper
            # of its own, so calls can be attributed to the importing module
            for holder_name, holder in lib.loaded_modules():
                if getattr(holder, attr, None) is target:
                    self._patch(holder, attr, self._wrap(layer_id, target, holder_name))
        matrix = lib.ffmat.Matrix
        original_init = matrix.__init__
        tracer = self

        def counting_init(self_, field, data):
            if tracer.active:
                tracer.matrix_count += 1
            original_init(self_, field, data)

        self._patch(matrix, "__init__", counting_init)

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap(self, layer_id, fn, via, skip_self=False):
        tracer = self
        lib = self.lib
        hook = self._hooks.get(self.names[layer_id])
        alias = (layer_id, via)
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            t0 = perf()
            key_args = args[1:] if skip_self else args
            tracer.keys[layer_id].add(_args_key(lib, key_args, kwargs))
            tracer.alias_calls[alias] += 1
            stack = tracer._stack
            sid = len(tracer.span_layer)
            tracer.span_layer.append(layer_id)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            tracer.span_overhead.append(0.0)
            stack.append(sid)
            t1 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = perf()
                stack.pop()
                tracer.span_start[sid] = t1
                tracer.span_end[sid] = t2
            if hook is not None:
                hook(args, kwargs, result)
            tracer.span_overhead[sid] = (t1 - t0) + (perf() - t2)
            return result

        return traced

    # -- argument and result hooks ------------------------------------

    def _after_kernel_basis(self, args, kwargs, result):
        m = args[0] if args else kwargs["m"]
        self.kernel_cells.append(m.rows * m.cols)

    def _after_hom_basis(self, args, kwargs, result):
        x, y = result.source, result.target
        self.hom_unknowns.append(sum(x.dim(v) * y.dim(v) for v in x.quiver.vertices))

    def _after_indecompose(self, args, kwargs, result):
        self.split_successes += sum(1 for step in result.certificate["trace"] if "split" in step)

    def _after_decompose_full(self, args, kwargs, result):
        self.chase_steps.extend(len(steps) for steps in result.certificate["traces"])

    # -- results ----------------------------------------------------------

    def self_times(self):
        """Per-layer self time: span duration minus the time covered by
        its child spans (children of one span never overlap: one thread)."""
        n = len(self.span_layer)
        covered = [0.0] * n
        parent = self.span_parent
        start, end, over = self.span_start, self.span_end, self.span_overhead
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += (end[i] - start[i]) + over[i]
        totals = [0.0] * len(self.names)
        for i in range(n):
            totals[self.span_layer[i]] += (end[i] - start[i]) - covered[i]
        return totals

    def layer_metrics(self):
        """Flat {metric name: value} of every per-layer metric except
        trace.overhead, which needs the untraced pass."""
        calls = [0] * len(self.names)
        for layer in self.span_layer:
            calls[layer] += 1
        selfs = self.self_times()
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[i]
            out[f"{name}.distinct"] = len(self.keys[i])
            out[f"{name}.self_s"] = selfs[i]
        min_poly = self.names.index("ffmat.min_poly")
        attempts = self.alias_calls[(min_poly, "decomp")]
        out["ffmat.Matrix.count"] = self.matrix_count
        out["ffmat.kernel_basis.cells_p50"] = _median(self.kernel_cells)
        out["posetrep.hom_basis.unknowns_p50"] = _median(self.hom_unknowns)
        out["decomp.split_attempts"] = attempts
        out["decomp.split_yield"] = self.split_successes / attempts if attempts else 0.0
        out["birkhoff.chase_steps"] = sum(self.chase_steps)
        out["birkhoff.chase_steps_max"] = max(self.chase_steps, default=0)
        return out


def _median(values):
    return statistics.median(values) if values else 0

"""The benchmark's workloads: seeded inputs, one item, exact output checks.

Each workload is built in two steps so that set-up can be timed and
traced in parts: the constructor does the algebra set-up or catalog load,
`make_inputs` generates every input from the seed with `subrep.sampling`
before anything is timed.  `run` is one item of the closed loop and
`check` returns the problems found in its output (empty when correct).
`item_s` is the nominal cost of one item on a 2-CPU 2.0 GHz Xeon; a run
of `--seconds` does round(seconds / item_s) items, at least `min_items`.

Why these three (the choice is what later changes are measured against):

catalog_p2   The only workload that fills `Catalog` caches instead of
             reading them, and the only one that runs closure, mesh
             assembly and `verify_ar_sequence`.  `hom_basis` repeats most
             here (9652 calls, 5018 distinct at seed 0), so a hom memo
             shows here; it runs at p = 2, so a GF(2) path shows here.
corpus_p3    Criterion-6 samples: the chase, five idempotent splits and
             classification.  Most of the `min_poly`/`factor`, `radical`,
             `is_local` and `fingerprint` work; at p = 3 an F_2-only
             change should leave it unchanged.
subspaces_p2 Invariant-subspace reports: the chase and span
             intersections with no idempotent splitting.  Its hom inputs
             are mostly distinct, so a hom memo should barely move it, and
             it has enough items per run for a tail percentile.
"""

from __future__ import annotations

import bisect
import importlib
import sys
from pathlib import Path

import numpy as np

LIBRARY_MODULES = (
    "ffmat",
    "lambdamod",
    "posetrep",
    "approx",
    "decomp",
    "artheory",
    "birkhoff",
    "repfile",
    "sampling",
    "examples",
)

# Criterion-6 dimension caps of a random subspace representation.
CORPUS_CAPS = {"1": 4, "2": 8, "3": 8, "*": 10}
# Upper ends of the first three ranges of dim V1 + dim V2 + dim V3 (0-20);
# under the generator the four ranges have probabilities 0.29, 0.22, 0.25
# and 0.25 (3000 samples).
CORPUS_DIM_EDGES = (8, 12, 16)
SUBSPACE_MAX_DIM = 10
CATALOG_SIZE = 25
CATALOG_PROJECTIVES = 4
CATALOG_MESHES = 21
# Seed of the untimed warm-up input, kept apart from the run seed so that
# set-up does the same work whatever the run seed is.
WARMUP_SEED = 20090331


class Library:
    """The subrep modules of one import."""

    def __init__(self):
        for name in LIBRARY_MODULES:
            setattr(self, name, importlib.import_module(f"subrep.{name}"))

    @staticmethod
    def loaded_modules():
        """(short name, module) of every loaded subrep module, the package
        itself included: each may hold an alias of a traced function."""
        return [
            (name.rpartition(".")[2], module)
            for name, module in list(sys.modules.items())
            if name == "subrep" or name.startswith("subrep.")
        ]


def import_library(src: Path) -> Library:
    """Import subrep afresh from `src`, dropping any earlier import, so
    that every timed set-up pays for the import."""
    for name in [n for n in sys.modules if n == "subrep" or n.startswith("subrep.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    return Library()


class CatalogP2:
    """One item: `build_catalog` over F_2 with n = 2 from scratch."""

    name = "catalog_p2"
    item_s = 17.5
    # one build is shorter than the slow phases of a shared machine, so a
    # run always times at least two
    min_items = 2
    trace_items = 1

    def __init__(self, lib: Library, root: Path):
        self.lib = lib
        self.root = root
        self.quiver = lib.examples.example_quiver()
        self.algebra = lib.lambdamod.LambdaAlgebra(lib.ffmat.PrimeField(2), 2)
        self._reference = None

    def make_inputs(self, seed: int, n: int):
        # item k builds with seed + k * 100000, so item 0 uses the run seed
        return [seed + k * 100_000 for k in range(n)]

    def warm_up(self):
        pass  # an item is a whole build; nothing is cached between items

    def run(self, build_seed):
        return self.lib.artheory.build_catalog(self.quiver, self.algebra, seed=build_seed)

    def reference(self):
        if self._reference is None:
            self._reference = self.lib.repfile.load_catalog(
                str(self.root / "fixtures" / "catalog_p2")
            )
        return self._reference

    def check(self, build_seed, catalog):
        problems = []
        if len(catalog.objects) != CATALOG_SIZE:
            problems.append(f"{len(catalog.objects)} objects, expected {CATALOG_SIZE}")
        if sum(catalog.projective) != CATALOG_PROJECTIVES:
            problems.append(
                f"{sum(catalog.projective)} projectives, expected {CATALOG_PROJECTIVES}"
            )
        verified = sum(1 for seq in catalog.meshes.values() if seq.verified)
        if len(catalog.meshes) != CATALOG_MESHES or verified != CATALOG_MESHES:
            problems.append(
                f"{verified} of {len(catalog.meshes)} meshes verified, expected {CATALOG_MESHES}"
            )
        ref = self.reference()
        matches = [ref.find_isomorphic(x) for x in catalog.objects]
        if None in matches or sorted(matches) != list(range(len(ref.objects))):
            problems.append(
                "built objects do not match the reference catalog one to one: "
                f"{matches}"
            )
        return problems


class CorpusP3:
    """One item: a criterion-6 sample at p = 3, decomposed by the chase and
    by the idempotent method at seeds 0-4, each result classified."""

    name = "corpus_p3"
    item_s = 0.95
    min_items = 1
    trace_items = 10
    idempotent_seeds = range(5)

    def __init__(self, lib: Library, root: Path):
        self.lib = lib
        self.catalog = lib.repfile.load_catalog(str(root / "fixtures" / "catalog_p3"))

    def make_inputs(self, seed: int, n: int):
        # An item's cost grows with dim V1 + dim V2 + dim V3 (correlation
        # 0.85), so every run takes equal numbers of samples from four ranges
        # of that sum that the generator hits about equally often; without
        # this the median item of a run moves with the seed.
        rng = np.random.default_rng(seed)
        quota = [n // 4 + (b < n % 4) for b in range(4)]
        out = []
        while len(out) < n:
            x = self._sample(rng)
            b = bisect.bisect_left(CORPUS_DIM_EDGES, x.dim("1") + x.dim("2") + x.dim("3"))
            if quota[b]:
                quota[b] -= 1
                out.append(x)
        return out

    def _sample(self, rng):
        cat = self.catalog
        return self.lib.sampling.random_subspace_representation(
            cat.quiver, cat.algebra, CORPUS_CAPS, rng
        )

    def warm_up(self):
        self.run(self._sample(np.random.default_rng(WARMUP_SEED)))

    def run(self, x):
        lib = self.lib
        chase = lib.birkhoff.decompose_full(x, self.catalog)
        classes = [
            lib.decomp.iso_class_multiset(
                lib.decomp.indecompose(x, seed=s), self.catalog.objects
            )
            for s in self.idempotent_seeds
        ]
        return chase, classes

    def check(self, x, out):
        chase, classes = out
        problems = []
        found = chase.certificate["classes"]
        if None in found:
            return [f"a chase summand matches no catalog object: {found}"]
        expected = tuple(sorted(found))
        for s, got in zip(self.idempotent_seeds, classes):
            if got != expected:
                problems.append(f"idempotent seed {s} gives {got}, the chase {expected}")
        if not chase.check():
            problems.append("chase decomposition fails Decomposition.check()")
        bound = 2 ** self.catalog.max_length() - 1
        longest = max((len(t) for t in chase.certificate["traces"]), default=0)
        if longest > bound:
            problems.append(f"a chase trace has {longest} steps, bound {bound}")
        return problems


class SubspacesP2:
    """One item: `invariant_subspace_report` on a random configuration of
    dimension at most 10 over F_2."""

    name = "subspaces_p2"
    item_s = 0.125
    min_items = 1
    trace_items = 100

    def __init__(self, lib: Library, root: Path):
        self.lib = lib
        self.catalog = lib.repfile.load_catalog(str(root / "fixtures" / "catalog_p2"))

    def make_inputs(self, seed: int, n: int):
        # Item k has dimension k mod 11: the uniform size mix of
        # sampling.random_subspace_config, balanced within every run, since
        # the report's cost grows steeply with the dimension.
        rng = np.random.default_rng(seed)
        return [self._config(k % (SUBSPACE_MAX_DIM + 1), rng) for k in range(n)]

    def _config(self, dim, rng):
        """sampling.random_subspace_config with the dimension given
        instead of drawn; every other draw is the same."""
        s = self.lib.sampling
        field = self.catalog.algebra.field
        matrix = self.lib.ffmat.Matrix
        algebra = self.lib.lambdamod.LambdaAlgebra(field, 2)
        v = s.random_module(algebra, dim, rng)
        full = matrix.identity(field, dim)
        v2 = s.random_invariant_subspace(v, full, dim, rng)
        v3 = s.random_invariant_subspace(v, full, dim, rng)
        inter = s.intersect_spans(field, [v2, v3]) if dim else matrix.zeros(field, 0, 0)
        v1 = s.random_invariant_subspace(v, inter, inter.cols, rng)
        return self.lib.birkhoff.SubspaceConfig(v, v1, v2, v3)

    def warm_up(self):
        self.run(self._config(SUBSPACE_MAX_DIM, np.random.default_rng(WARMUP_SEED)))

    def run(self, cfg):
        return self.lib.birkhoff.invariant_subspace_report(cfg, self.catalog)

    def check(self, cfg, report):
        problems = []
        if not report.compatible:
            problems.append(f"report is not compatible: {report.details}")
        if None in report.multiplicities:
            problems.append("a summand matches no catalog object")
        total = sum(report.multiplicities.values())
        summands = len(report.decomposition.summands)
        if total != summands:
            problems.append(f"multiplicities sum to {total}, {summands} summands")
        return problems


WORKLOADS = {w.name: w for w in (CatalogP2, CorpusP3, SubspacesP2)}

"""Command-line interface.

Exit codes: 0 ok, 1 domain violation, 2 parse error, 3 budget or
contract violation.  All randomized commands take --seed and default to
seed 0, so runs are reproducible.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .approx import left_approx, mimo_k, right_approx
from .artheory import build_catalog, export_quiver, verify_ar_sequence
from .birkhoff import (
    decompose_full,
    harada_sai_check,
    invariant_subspace_report,
)
from .decomp import (
    evaluation_iso_check,
    hom_image_span_check,
    indecompose,
)
from .errors import (
    BudgetExceededError,
    ChaseExhaustedError,
    InternalContractViolation,
    NotInvariantError,
    NotNestedError,
    ParseError,
    SubrepError,
)
from .examples import example_poset
from .ffmat import PrimeField
from .lambdamod import LambdaAlgebra
from .posetrep import Poset, QuiverStar
from .repfile import (
    load_catalog,
    parse_representation,
    parse_subspace_config,
    read_text,
    save_catalog,
    serialize_representation,
    write_atomic,
)
from .sampling import random_subspace_representation

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3


def _load_rep(path):
    return parse_representation(read_text(path))


def _get_catalog(args, algebra=None):
    if getattr(args, "catalog", None):
        return load_catalog(args.catalog)
    algebra = algebra or LambdaAlgebra(PrimeField(args.field), 2)
    quiver = QuiverStar(example_poset())
    print(
        f"building catalog for the example poset over F_{algebra.field.p} "
        "(pass --catalog to reuse a saved one)",
        file=sys.stderr,
    )
    return build_catalog(quiver, algebra, seed=getattr(args, "seed", 0))


def _parse_poset_file(path):
    points = None
    covers = []
    for no, raw in enumerate(read_text(path, "poset file").splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if parts[0] == "points":
            points = parts[1:]
        elif parts[0] == "covers":
            for item in parts[1:]:
                if "<" not in item:
                    raise ParseError(f"bad cover {item!r}", line=no)
                a, b = item.split("<", 1)
                covers.append((a, b))
        else:
            raise ParseError(f"unknown keyword {parts[0]!r}", line=no)
    if points is None:
        raise ParseError("poset file needs a 'points' line")
    return Poset(points, covers)


def cmd_validate(args):
    _load_rep(args.file)  # parsing validates; failures exit through main
    print("ok")
    return EXIT_OK


def cmd_approx(args):
    rep = _load_rep(args.file)
    if args.kind == "left":
        res = left_approx(rep)
    elif args.kind == "right":
        res = right_approx(rep)
    else:
        if args.vertex is None:
            print("--kind mimo requires --vertex", file=sys.stderr)
            return EXIT_DOMAIN
        try:
            res = mimo_k(rep, args.vertex)
        except SubrepError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_DOMAIN
    out = args.out or "."
    write_atomic(
        os.path.join(out, f"approx_{args.kind}.rep"),
        serialize_representation(res.approx),
    )
    payload = {
        "kind": res.kind,
        "structure_map": {
            v: res.structure_map.components[v].tolist()
            for v in rep.quiver.vertices
        },
        "direction": "approx->input" if res.kind in ("right", "mimo") else "input->approx",
    }
    write_atomic(
        os.path.join(out, f"approx_{args.kind}_map.json"), json.dumps(payload, indent=1)
    )
    dims = "\t".join(str(res.approx.dim(v)) for v in rep.quiver.vertices)
    print(f"vertex\t{chr(9).join(rep.quiver.vertices)}")
    print(f"dim\t{dims}")
    print(f"subspace_rep\t{res.approx.is_subspace_rep()}")
    return EXIT_OK


def cmd_decompose(args):
    rep = _load_rep(args.file)
    if args.method == "idempotent":
        decomp = indecompose(rep, seed=args.seed)
    else:
        if not rep.is_subspace_rep():
            print(
                "the chase requires a subspace representation "
                "(all arrow matrices injective); use --method idempotent",
                file=sys.stderr,
            )
            return EXIT_DOMAIN
        catalog = _get_catalog(args, rep.algebra)
        decomp = decompose_full(rep, catalog)
    table = {}
    for s in decomp.summands:
        key = "(" + ",".join(map(str, s.rep.dim_vector())) + ")"
        table[key] = table.get(key, 0) + 1
    if args.out:
        for i, s in enumerate(decomp.summands):
            write_atomic(
                os.path.join(args.out, f"summand_{i:03d}.rep"),
                serialize_representation(s.rep),
            )
        cert = dict(decomp.certificate)
        cert["summand_dims"] = [list(s.rep.dim_vector()) for s in decomp.summands]
        write_atomic(
            os.path.join(args.out, "certificate.json"),
            json.dumps(cert, indent=1, default=str),
        )
    print("dim_vector\tmultiplicity")
    for key in sorted(table):
        print(f"{key}\t{table[key]}")
    return EXIT_OK


def cmd_catalog(args):
    if args.poset == "example":
        poset = example_poset()
    else:
        poset = _parse_poset_file(args.poset)
    algebra = LambdaAlgebra(PrimeField(args.field), args.nilpotency)
    quiver = QuiverStar(poset)
    try:
        catalog = build_catalog(quiver, algebra, budget=args.budget, seed=args.seed)
    except BudgetExceededError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    if args.out:
        save_catalog(catalog, args.out)
    print(f"objects\t{len(catalog.objects)}")
    print(f"projectives\t{sum(catalog.projective)}")
    print(f"verified_meshes\t{len(catalog.meshes)}")
    print(f"max_length\t{catalog.max_length()}")
    if args.verify:
        rng = np.random.default_rng(args.seed)
        failures = 0
        for c_idx, seq in sorted(catalog.meshes.items()):
            ok = verify_ar_sequence(
                seq, catalog.members(), rng=rng, random_tests=args.mesh_tests
            )
            print(f"mesh\t{c_idx}\t{'ok' if ok else 'FAIL'}")
            failures += 0 if ok else 1
        if failures:
            print(f"{failures} meshes failed verification", file=sys.stderr)
            return EXIT_DOMAIN
    return EXIT_OK


def cmd_arquiver(args):
    catalog = load_catalog(args.catalog)
    dot = export_quiver(catalog)
    if args.dot:
        write_atomic(args.dot, dot + "\n")
    else:
        print(dot)
    return EXIT_OK


def cmd_birkhoff(args):
    cfg = parse_subspace_config(read_text(args.file))
    problems = cfg.validate()
    if problems:
        for p in problems:
            print(f"violation: {p}", file=sys.stderr)
        return EXIT_DOMAIN
    catalog = _get_catalog(args, cfg.v.algebra)
    report = invariant_subspace_report(cfg, catalog)
    print("catalog_index\tdim_vector\tmultiplicity")
    for idx in sorted(report.multiplicities):
        dims = "(" + ",".join(map(str, catalog.objects[idx].dim_vector())) + ")"
        print(f"{idx}\t{dims}\t{report.multiplicities[idx]}")
    for j, dim, inter in report.details:
        print(f"subspace\tv{j}\tdim={dim}\tsum_of_intersections={inter}")
    print(f"compatible\t{report.compatible}")
    return EXIT_OK if report.compatible else EXIT_DOMAIN


def cmd_check(args):
    catalog = _get_catalog(args)
    rng = np.random.default_rng(args.seed)
    quiver = catalog.quiver
    algebra = catalog.algebra
    caps = {v: 2 for v in quiver.poset.points} | {"*": 4}
    if args.what == "harada-sai":
        counterexample, (witness, wlen) = harada_sai_check(
            catalog, samples=args.samples, seed=args.seed
        )
        print(f"max_length\t{catalog.max_length()}")
        print(f"bound\t{2 ** catalog.max_length() - 1}")
        print(f"nonzero_chain_below_bound\t{wlen}")
        if counterexample is not None:
            print("counterexample found", file=sys.stderr)
            return EXIT_DOMAIN
        print("ok")
        return EXIT_OK
    summands = catalog.members()
    failures = 0
    for i in range(args.samples):
        x = random_subspace_representation(quiver, algebra, caps, rng)
        if args.what == "hom-span":
            bad = hom_image_span_check(summands, x)
        else:
            bad = evaluation_iso_check(summands, x)
        if bad is not None:
            failures += 1
            print(f"sample {i}: failed at {bad}", file=sys.stderr)
    print(f"samples\t{args.samples}")
    print(f"failures\t{failures}")
    if failures:
        return EXIT_DOMAIN
    print("ok")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="subrep",
        description="Exact toolkit for subspace representations of posets "
        "over truncated polynomial rings.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a representation file")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("approx", help="compute an approximation")
    p.add_argument("file")
    p.add_argument("--kind", choices=("left", "right", "mimo"), required=True)
    p.add_argument("--vertex", help="poset vertex for --kind mimo")
    p.add_argument("--out", help="output directory", default=None)
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("decompose", help="decompose into indecomposables")
    p.add_argument("file")
    p.add_argument("--method", choices=("idempotent", "chase"), default="idempotent")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--catalog", help="catalog directory for --method chase")
    p.add_argument("--out", help="write summand files here", default=None)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("catalog", help="build and verify a catalog")
    p.add_argument("--poset", default="example", help="'example' or a poset file")
    p.add_argument("--field", type=int, default=2)
    p.add_argument("--nilpotency", type=int, default=2)
    p.add_argument("--budget", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mesh-tests", type=int, default=20)
    p.add_argument("--out", help="save the catalog here", default=None)
    p.add_argument("--verify", action="store_true", help="re-run all lifting tests")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("arquiver", help="export the catalog graph as DOT")
    p.add_argument("--catalog", required=True)
    p.add_argument("--dot", help="output path; stdout when omitted")
    p.set_defaults(func=cmd_arquiver)

    p = sub.add_parser("birkhoff", help="decompose an invariant-subspace configuration")
    p.add_argument("file")
    p.add_argument("--catalog")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_birkhoff)

    p = sub.add_parser("check", help="finite-scale property checks")
    p.add_argument(
        "what",
        choices=("hom-span", "evaluation", "harada-sai"),
        help="hom-span: images of catalog homs cover random subspace "
        "representations; evaluation: the evaluation from the relation "
        "quotient is bijective; harada-sai: long radical chains vanish",
    )
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--catalog")
    p.add_argument("--field", type=int, default=2)
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (NotInvariantError, NotNestedError) as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (BudgetExceededError, ChaseExhaustedError, InternalContractViolation) as exc:
        print(f"budget/contract error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())

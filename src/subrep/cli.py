"""Command-line interface.

Exit codes: 0 ok (also when the reader closes stdout early), 1 domain
violation, 2 parse or usage error (an output path that cannot be written
included), 3 budget or contract violation (running out of memory
included).  All randomized commands take a non-negative --seed and
default to seed 0, so runs are reproducible.  `check` draws nothing at
random: its verdicts are exact, and it takes no --seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter

from . import __version__
from .approx import left_approx, mimo_k, right_approx
from .artheory import (
    build_catalog,
    export_quiver,
    indecomposable_projectives,
    verify_ar_sequence,
)
from .birkhoff import (
    decompose_full,
    harada_sai_check,
    invariant_subspace_report,
)
from .decomp import indecompose
from .errors import (
    BudgetExceededError,
    ChaseExhaustedError,
    InternalContractViolation,
    NotInvariantError,
    NotNestedError,
    ParseError,
    UnknownVertexError,
)
from .examples import example_poset, example_quiver
from .ffmat import PrimeField
from .lambdamod import LambdaAlgebra
from .posetrep import QuiverStar
from .repfile import (
    load_catalog,
    parse_poset,
    parse_representation,
    parse_subspace_config,
    read_text,
    save_catalog,
    serialize_representation,
    write_atomic,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_PARSE = 2
EXIT_USAGE = 2  # what argparse exits with on a bad command line
EXIT_BUDGET = 3


def _load_rep(path):
    return parse_representation(read_text(path))


def _get_catalog(args, algebra=None, quiver=None):
    """The catalog of `--catalog`, or one built for the input's algebra
    and quiver (default: k[T]/T^2 over --field on the example poset).  A
    saved catalog over another field, nilpotency or poset than the input
    is a ParseError."""
    if getattr(args, "catalog", None):
        catalog = load_catalog(args.catalog)
        if algebra is not None and (
            catalog.algebra != algebra or catalog.quiver != quiver
        ):
            raise ParseError(
                f"catalog {args.catalog} is over {catalog.algebra} on "
                f"{catalog.quiver.poset!r}, the input over {algebra} on {quiver.poset!r}"
            )
        return catalog
    algebra = algebra or LambdaAlgebra(args.field, 2)
    quiver = quiver or example_quiver()
    print(
        f"building catalog for {quiver.poset!r} over F_{algebra.field.p} "
        "(pass --catalog to reuse a saved one)",
        file=sys.stderr,
    )
    return build_catalog(quiver, algebra, seed=getattr(args, "seed", 0))


def _prime_field(text):
    """argparse type of --field: a prime p <= 2^31, as a PrimeField."""
    try:
        return PrimeField(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _at_least(low, what):
    """argparse type of an integer option that must be at least `low`."""

    def parse(text):
        n = int(text)  # argparse reports a ValueError as an invalid value
        if n < low:
            raise argparse.ArgumentTypeError(f"{what} must be at least {low}, got {n}")
        return n

    parse.__name__ = what  # argparse names the type in "invalid ... value"
    return parse


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
            print("usage error: --kind mimo requires --vertex", file=sys.stderr)
            return EXIT_USAGE
        try:
            res = mimo_k(rep, args.vertex)
        except UnknownVertexError as exc:
            print(f"usage error: --vertex {exc}", file=sys.stderr)
            return EXIT_USAGE
    write_atomic(
        os.path.join(args.out, f"approx_{args.kind}.rep"),
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
        os.path.join(args.out, f"approx_{args.kind}_map.json"), json.dumps(payload, indent=1)
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
        catalog = _get_catalog(args, rep.algebra, rep.quiver)
        decomp = decompose_full(rep, catalog)
    table = Counter("(" + ",".join(map(str, s.rep.dim_vector())) + ")" for s in decomp.summands)
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
        poset = parse_poset(read_text(args.poset, "poset file"))
    algebra = LambdaAlgebra(args.field, args.nilpotency)
    quiver = QuiverStar(poset)
    catalog = build_catalog(quiver, algebra, budget=args.budget, seed=args.seed)
    if args.out:
        save_catalog(catalog, args.out)
    print(f"objects\t{len(catalog.objects)}")
    print(f"projectives\t{sum(catalog.projective)}")
    print(f"verified_meshes\t{len(catalog.meshes)}")
    print(f"max_length\t{catalog.max_length()}")
    if args.verify:
        failures = 0
        for c_idx, seq in sorted(catalog.meshes.items()):
            ok = verify_ar_sequence(seq, catalog.members())
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
    catalog = _get_catalog(args, cfg.v.algebra, example_quiver())
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
    if args.what == "harada-sai":
        counterexample, (_, wlen), layers = harada_sai_check(catalog)
        print(f"max_length\t{catalog.max_length()}")
        print(f"bound\t{2 ** catalog.max_length() - 1}")
        print(f"nonzero_chain_below_bound\t{wlen}")
        print(f"radical_layers\t{','.join(map(str, layers))}")
        if counterexample is not None:
            print(f"counterexample found: radical layer {len(layers)} is nonzero", file=sys.stderr)
            return EXIT_DOMAIN
        print("ok")
        return EXIT_OK
    quiver, algebra = catalog.quiver, catalog.algebra
    missing = [
        v
        for v, proj in zip(quiver.vertices, indecomposable_projectives(quiver, algebra))
        if catalog.find_isomorphic(proj) is None
    ]
    for v in missing:
        print(f"no catalog object is isomorphic to P({v})", file=sys.stderr)
    if missing:
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
    p.add_argument("--out", help="output directory", required=True)
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("decompose", help="decompose into indecomposables")
    p.add_argument("file")
    p.add_argument("--method", choices=("idempotent", "chase"), default="idempotent")
    p.add_argument("--seed", type=_at_least(0, "seed"), default=0)
    p.add_argument("--catalog", help="catalog directory for --method chase")
    p.add_argument("--out", help="write summand files here", default=None)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("catalog", help="build and verify a catalog")
    p.add_argument("--poset", default="example", help="'example' or a poset file")
    p.add_argument("--field", type=_prime_field, default="2")
    p.add_argument("--nilpotency", type=_at_least(1, "nilpotency"), default=2)
    p.add_argument("--budget", type=_at_least(1, "budget"), default=200)
    p.add_argument("--seed", type=_at_least(0, "seed"), default=0)
    p.add_argument("--out", help="save the catalog here", default=None)
    p.add_argument("--verify", action="store_true", help="check each mesh against every object")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("arquiver", help="export the catalog graph as DOT")
    p.add_argument("--catalog", required=True)
    p.add_argument("--dot", help="output path; stdout when omitted")
    p.set_defaults(func=cmd_arquiver)

    p = sub.add_parser("birkhoff", help="decompose an invariant-subspace configuration")
    p.add_argument("file")
    p.add_argument("--catalog")
    p.add_argument("--seed", type=_at_least(0, "seed"), default=0)
    p.set_defaults(func=cmd_birkhoff)

    p = sub.add_parser("check", help="exact property checks of a catalog")
    p.add_argument(
        "what",
        choices=("generator", "harada-sai"),
        help="generator: every indecomposable projective P(i) is isomorphic to "
        "a catalog object, so the catalog objects generate every "
        "representation; harada-sai: the exact radical filtration of the "
        "catalog vanishes below the Harada-Sai bound",
    )
    # a saved catalog carries its own field
    source = p.add_mutually_exclusive_group()
    source.add_argument("--catalog")
    source.add_argument("--field", type=_prime_field, default="2")
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader gone away shows here, not at exit
        return code
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (NotInvariantError, NotNestedError) as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    # MemoryError: numpy's failed allocations, from a budget too large
    except (BudgetExceededError, ChaseExhaustedError, InternalContractViolation, MemoryError) as exc:
        print(f"budget/contract error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_BUDGET
    except BrokenPipeError:  # an OSError, so first: the reader closed stdout
        # what is left goes to devnull, so the flush at exit cannot fail too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except OSError as exc:  # an output path that cannot be written
        print(f"cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

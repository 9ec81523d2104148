"""Command-line front end emitting machine-checkable JSON reports.

Exit codes: 0 verified/success, 1 refuted, 2 inconclusive or cap hit,
3 usage error.  Reports are deterministic byte-for-byte for fixed inputs
at --jobs 1; timing is opt-in (--timing) so that default reports stay
reproducible.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from .classes import (
    builtin,
    check_self_similarity,
    enumerate_pair_types,
    parse_class_expr,
    verify_class_axioms,
)
from .config import ConfigCertificate, InterpretationMap, verify_configuration
from .errors import BudgetExceeded, FraisseError
from .limits import GenericModel, build_generic_model
from .ramsey import (
    box_ramsey_upper_bound,
    directions,
    find_monochromatic_box,
    random_point_coloring,
)
from .ranks import compute_rank_table, verify_dagger_base_case
from .structures import enumerate_structures

EXIT_VERIFIED = 0
EXIT_REFUTED = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3


def _emit(report: dict, args) -> None:
    if getattr(args, "timing", False):
        report["elapsed_seconds"] = round(time.time() - args._t0, 3)
    text = json.dumps(report, sort_keys=True, indent=2 if args.pretty else None)
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # The reader has gone (``fraisse ... | head``): point stdout at
        # devnull so the flush at exit cannot raise, and let the command
        # return its own exit code.
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())


def _report_exit(status: str) -> int:
    return {
        "verified": EXIT_VERIFIED,
        "refuted": EXIT_REFUTED,
        "inconclusive": EXIT_INCONCLUSIVE,
    }[status]


def _load_model(path: str) -> GenericModel:
    with open(path, "r", encoding="utf-8") as handle:
        return GenericModel.from_json(json.load(handle))


def _default_graph_target(level: int = 3, size_cap: int = 200) -> GenericModel:
    return build_generic_model(builtin("G"), level=level, size_cap=size_cap)


# -- subcommands --------------------------------------------------------------------


def cmd_enumerate(args) -> int:
    spec = parse_class_expr(args.class_expr)
    members = enumerate_structures(spec, args.n, budget=args.budget)
    _emit(
        {
            "command": "enumerate",
            "version": __version__,
            "class": spec.name,
            "n": args.n,
            "count": len(members),
            "structures": [m.to_json() for m in members],
        },
        args,
    )
    return EXIT_VERIFIED


AXIOMS = ("hereditary", "joint-embedding", "amalgamation", "strong-amalgamation")


def cmd_check_class(args) -> int:
    spec = parse_class_expr(args.class_expr)
    axioms = AXIOMS if args.axiom == "all" else (args.axiom,)
    reports = {}
    worst = EXIT_VERIFIED
    for axiom in axioms:
        report = verify_class_axioms(
            spec, args.bound, axiom.replace("-", "_"), budget=args.budget
        )
        reports[axiom] = report.to_json()
        worst = max(worst, _report_exit(report.status))
    _emit(
        {
            "command": "check-class",
            "version": __version__,
            "class": spec.name,
            "bound": args.bound,
            "reports": reports,
        },
        args,
    )
    return worst


def cmd_self_sim(args) -> int:
    spec = parse_class_expr(args.class_expr)
    report = check_self_similarity(spec, args.bound, budget=args.budget)
    _emit(
        {
            "command": "self-sim",
            "version": __version__,
            "class": spec.name,
            "bound": args.bound,
            "report": report.to_json(),
        },
        args,
    )
    return _report_exit(report.status)


def cmd_types(args) -> int:
    spec = parse_class_expr(args.class_expr)
    types = enumerate_pair_types(spec)
    _emit(
        {
            "command": "types",
            "version": __version__,
            "class": spec.name,
            "count": len(types),
            "types": [t.to_json() for t in types],
        },
        args,
    )
    return EXIT_VERIFIED


def cmd_generic_model(args) -> int:
    spec = parse_class_expr(args.class_expr)
    model = build_generic_model(spec, level=args.level, size_cap=args.size_cap)
    closed = model.meta.get("closed", True)
    _emit(
        {
            "command": "generic-model",
            "version": __version__,
            "class": spec.name,
            "level": args.level,
            "closed": closed,
            "model": model.to_json(),
        },
        args,
    )
    return EXIT_VERIFIED if closed else EXIT_INCONCLUSIVE


def cmd_verify_config(args) -> int:
    with open(args.config, "r", encoding="utf-8") as handle:
        interp = InterpretationMap.from_json(json.load(handle))
    target = _load_model(args.target)
    outcome = verify_configuration(
        interp, target, args.bound, budget=args.budget, jobs=args.jobs
    )
    if isinstance(outcome, ConfigCertificate):
        recheck = outcome.recheck()
        _emit(
            {
                "command": "verify-config",
                "version": __version__,
                "bound": args.bound,
                "verdict": "verified",
                "recheck": recheck.status,
                "certificate": outcome.to_json(),
            },
            args,
        )
        return EXIT_VERIFIED
    _emit(
        {
            "command": "verify-config",
            "version": __version__,
            "bound": args.bound,
            "verdict": outcome.status,
            "report": outcome.to_json(),
        },
        args,
    )
    return _report_exit(outcome.status)


def cmd_rank(args) -> int:
    spec = parse_class_expr(args.class_expr)
    if args.target:
        target = _load_model(args.target)
    else:
        target = _default_graph_target(level=args.level)
    results = compute_rank_table(spec, args.n, target, bound=args.bound)
    _emit(
        {
            "command": "rank",
            "version": __version__,
            "class": spec.name,
            "bound": args.bound,
            "results": [
                r.to_json(include_certificate=args.certificates) for r in results
            ],
        },
        args,
    )
    return EXIT_VERIFIED


def cmd_ramsey_box(args) -> int:
    try:
        bound = box_ramsey_upper_bound(args.k, args.colors, args.m, kind=args.kind)
    except OverflowError as exc:
        print(f"cap hit: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    report = {
        "command": "ramsey-box",
        "version": __version__,
        "k": args.k,
        "colors": args.colors,
        "m": args.m,
        "kind": args.kind,
        "directions": len(directions(args.k)),
        "bound": bound,
    }
    code = EXIT_VERIFIED
    if args.seed is not None:
        if args.kind != "point":
            print("--seed demos support kind 'point' only", file=sys.stderr)
            return EXIT_USAGE
        if bound > 16:
            print(f"bound {bound} too large for a coloring demo", file=sys.stderr)
            return EXIT_USAGE
        coloring = random_point_coloring(args.k, bound, args.colors, args.seed)
        witness = find_monochromatic_box(coloring, args.m)
        report["seed"] = args.seed
        report["witness"] = witness
        if witness is None:
            code = EXIT_REFUTED
    _emit(report, args)
    return code


def cmd_dagger(args) -> int:
    model = _load_model(args.target) if args.target else _default_graph_target()
    report = verify_dagger_base_case(model=model)
    _emit(
        {
            "command": "dagger",
            "version": __version__,
            "pair_types": report.details["a"]["identified_count"],
            "base_bound": report.details["c"]["lhs"],
            "claim_checked_to": 10,
            "report": report.to_json(),
        },
        args,
    )
    return _report_exit(report.status)


# -- argument parsing -----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fraisse", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, budget=True):
        p.add_argument("--pretty", action="store_true", help="indent JSON output")
        p.add_argument(
            "--timing", action="store_true", help="include elapsed time (non-reproducible)"
        )
        if budget:
            p.add_argument(
                "--budget",
                type=int,
                default=None,
                help="search node cap; in embedding and witness searches a node "
                "is a candidate value that survived forward filtering",
            )

    p = sub.add_parser("enumerate", help="members of a class at one size")
    p.add_argument("--class", dest="class_expr", required=True)
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("check-class", help="verify class axioms up to a bound")
    p.add_argument("--class", dest="class_expr", required=True)
    p.add_argument("--bound", type=int, default=3)
    p.add_argument("--axiom", choices=AXIOMS + ("all",), default="all")
    common(p)
    p.set_defaults(fn=cmd_check_class)

    p = sub.add_parser("self-sim", help="bounded self-similarity check")
    p.add_argument("--class", dest="class_expr", required=True)
    p.add_argument("--bound", type=int, default=3)
    common(p)
    p.set_defaults(fn=cmd_self_sim)

    p = sub.add_parser("types", help="quantifier-free pair types of a class")
    p.add_argument("--class", dest="class_expr", required=True)
    common(p, budget=False)
    p.set_defaults(fn=cmd_types)

    p = sub.add_parser("generic-model", help="close a finite limit approximation")
    p.add_argument("--class", dest="class_expr", required=True)
    p.add_argument("--level", type=int, default=2)
    p.add_argument("--size-cap", type=int, default=256)
    common(p, budget=False)
    p.set_defaults(fn=cmd_generic_model)

    p = sub.add_parser("verify-config", help="verify an interpretation map")
    p.add_argument("--config", required=True, help="interpretation JSON file")
    p.add_argument("--target", required=True, help="model JSON file")
    p.add_argument("--bound", type=int, default=3)
    p.add_argument("--jobs", type=int, default=1)
    common(p)
    p.set_defaults(fn=cmd_verify_config)

    p = sub.add_parser("rank", help="bracketed rank table against a graph target")
    p.add_argument("--class", dest="class_expr", required=True)
    p.add_argument("--n", type=int, default=2, help="largest tuple length")
    p.add_argument("--bound", type=int, default=3)
    p.add_argument("--level", type=int, default=3, help="target extension level")
    p.add_argument("--target", default=None, help="model JSON file (optional)")
    p.add_argument(
        "--certificates", action="store_true", help="embed full certificates"
    )
    common(p, budget=False)
    p.set_defaults(fn=cmd_rank)

    p = sub.add_parser("ramsey-box", help="box-Ramsey upper bounds and demos")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--colors", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--kind", choices=("point", "directed"), default="point")
    p.add_argument("--seed", type=int, default=None, help="run a coloring demo")
    common(p, budget=False)
    p.set_defaults(fn=cmd_ramsey_box)

    p = sub.add_parser("dagger", help="base-case counting facts")
    p.add_argument("--target", default=None, help="graph model JSON file (optional)")
    common(p, budget=False)
    p.set_defaults(fn=cmd_dagger)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    if getattr(args, "budget", None) is not None and args.budget < 0:
        print(f"error: budget {args.budget} < 0", file=sys.stderr)
        return EXIT_USAGE
    args._t0 = time.time()
    try:
        return args.fn(args)
    except BudgetExceeded as exc:
        print(f"cap hit: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (FraisseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

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
    direction_count,
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


def _load(path: str, cls):
    """``cls.from_json`` of the JSON file at ``path``.  A file whose shape
    ``from_json`` cannot read raises ``ValueError`` naming the file."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    try:
        return cls.from_json(data)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"{path}: malformed {cls.__name__} JSON ({exc!r})") from None


def _target(path: str | None, level: int = 3) -> GenericModel:
    """The model file at ``path``, or else the closed level-``level`` graph."""
    if path:
        return _load(path, GenericModel)
    return build_generic_model(builtin("G"), level=level, size_cap=200)


# -- subcommands --------------------------------------------------------------------
#
# Each takes the parsed arguments and the parsed ``--class`` (None for the
# commands without one) and returns ``(exit_code, fields)``: the report's
# own fields, or None once it has printed its one stderr line.


def cmd_enumerate(args, spec):
    members = enumerate_structures(spec, args.n, budget=args.budget)
    return EXIT_VERIFIED, {
        "n": args.n,
        "count": len(members),
        "structures": [m.to_json() for m in members],
    }


AXIOMS = ("hereditary", "joint-embedding", "amalgamation", "strong-amalgamation")


def cmd_check_class(args, spec):
    axioms = AXIOMS if args.axiom == "all" else (args.axiom,)
    reports = {
        axiom: verify_class_axioms(
            spec, args.bound, axiom.replace("-", "_"), budget=args.budget
        )
        for axiom in axioms
    }
    return max(_report_exit(r.status) for r in reports.values()), {
        "bound": args.bound,
        "reports": {axiom: r.to_json() for axiom, r in reports.items()},
    }


def cmd_self_sim(args, spec):
    report = check_self_similarity(spec, args.bound, budget=args.budget)
    return _report_exit(report.status), {"bound": args.bound, "report": report.to_json()}


def cmd_types(args, spec):
    types = enumerate_pair_types(spec)
    return EXIT_VERIFIED, {"count": len(types), "types": [t.to_json() for t in types]}


def cmd_generic_model(args, spec):
    model = build_generic_model(spec, level=args.level, size_cap=args.size_cap)
    closed = model.meta.get("closed", True)
    return EXIT_VERIFIED if closed else EXIT_INCONCLUSIVE, {
        "level": args.level,
        "closed": closed,
        "model": model.to_json(),
    }


def cmd_verify_config(args, spec):
    interp = _load(args.config, InterpretationMap)
    target = _load(args.target, GenericModel)
    outcome = verify_configuration(
        interp, target, args.bound, budget=args.budget, jobs=args.jobs
    )
    if isinstance(outcome, ConfigCertificate):
        return EXIT_VERIFIED, {
            "bound": args.bound,
            "verdict": "verified",
            "recheck": outcome.recheck().status,
            "certificate": outcome.to_json(),
        }
    return _report_exit(outcome.status), {
        "bound": args.bound,
        "verdict": outcome.status,
        "report": outcome.to_json(),
    }


def cmd_rank(args, spec):
    target = _target(args.target, level=args.level)
    results = compute_rank_table(spec, args.n, target, bound=args.bound)
    return EXIT_VERIFIED, {
        "bound": args.bound,
        "results": [r.to_json(include_certificate=args.certificates) for r in results],
    }


# The report prints direction_count(k), of about k / 2 decimal digits; 3**1000
# has 478, under the least limit Python sets on converting an int to text
# (640 digits), so every k up to the cap prints.
MAX_BOX_DIMENSION = 1000


def cmd_ramsey_box(args, spec):
    if args.k > MAX_BOX_DIMENSION:
        print(
            f"--k {args.k} above the largest dimension {MAX_BOX_DIMENSION}",
            file=sys.stderr,
        )
        return EXIT_USAGE, None
    bound = box_ramsey_upper_bound(args.k, args.colors, args.m, kind=args.kind)
    fields = {
        "k": args.k,
        "colors": args.colors,
        "m": args.m,
        "kind": args.kind,
        "directions": direction_count(args.k),
        "bound": bound,
    }
    if args.seed is None:
        return EXIT_VERIFIED, fields
    if args.kind != "point":
        print("--seed demos support kind 'point' only", file=sys.stderr)
        return EXIT_USAGE, None
    if bound > 16:
        print(f"bound {bound} too large for a coloring demo", file=sys.stderr)
        return EXIT_USAGE, None
    # the demo colors all bound**k points; any side of 2 or more passes 16**3
    # by k = 13, so a larger k is refused before the power is formed
    if bound > 1 and (args.k > 12 or bound**args.k > 16**3):
        print(
            f"box of {bound}**{args.k} points too large for a coloring demo",
            file=sys.stderr,
        )
        return EXIT_USAGE, None
    coloring = random_point_coloring(args.k, bound, args.colors, args.seed)
    witness = find_monochromatic_box(coloring, args.m)
    fields.update(seed=args.seed, witness=witness)
    return EXIT_REFUTED if witness is None else EXIT_VERIFIED, fields


def cmd_dagger(args, spec):
    report = verify_dagger_base_case(model=_target(args.target))
    facts = report.witness or report.details  # a refutation keeps them as its witness
    return _report_exit(report.status), {
        "pair_types": facts["a"]["identified_count"],
        "base_bound": facts["c"]["lhs"],
        "claim_checked_to": 10,
        "report": report.to_json(),
    }


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
        spec = parse_class_expr(args.class_expr) if "class_expr" in args else None
        code, fields = args.fn(args, spec)
        if fields is not None:
            report = {"command": args.command, "version": __version__, **fields}
            if spec is not None:
                report["class"] = spec.name
            _emit(report, args)
        return code
    except (BudgetExceeded, OverflowError) as exc:
        print(f"cap hit: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (FraisseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

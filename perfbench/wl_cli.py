"""Workload ``cli``: a user's session of ``fraisse`` subcommands.

Each command runs in its own ``python -m fraisse.cli`` process, one after
another.  Set-up builds the level-3 generic graph once and writes it, two
interpretation maps and a model file without its ``"spec"`` key.  The
session covers all nine subcommands, ``rank`` and ``dagger`` with and
without ``--target``, and ``rank --certificates`` (an 89 KB report).

Default reports must be byte-identical from run to run, so every
seed-independent report is also compared with ``cli_digests.json``
(regenerate with ``python3 perfbench/regen_digests.py``).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import harness
import oracles
from harness import Job, KnownFault
from oracles import require
from tracer import merge

DIGESTS = os.path.join(harness.HERE, "cli_digests.json")
SELF_SIM_CLASSES = ("E", "LO", "T", "G")
# Each command is a whole process start (about 0.35 s); sampling the short
# ones three times would triple the session, so every command runs once.
REPEAT_SHORT_JOBS = False


def setup(seed: int):
    import fraisse

    out = os.path.join(harness.OUT, f"cli-{os.getpid()}")
    os.makedirs(out, exist_ok=True)
    target = fraisse.build_generic_model(fraisse.builtin("G"), level=3, size_cap=200)
    ident = fraisse.identity_interpretation(fraisse.builtin("G"))
    files = {
        "target": target.to_json(),
        "identity": ident.to_json(),
        "product": fraisse.product_configuration(ident, ident).to_json(),
        "nospec": {k: v for k, v in target.to_json().items() if k != "spec"},
    }
    paths = {}
    for name, data in files.items():
        paths[name] = os.path.join(out, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as handle:
            json.dump(data, handle, sort_keys=True)
    # seeds of the three colouring demos
    demo_seeds = [seed * 3 + i for i in range(3)]
    return SimpleNamespace(fraisse=fraisse, out=out, paths=paths, demo_seeds=demo_seeds, tracer=None, child={})


def teardown(ctx) -> None:
    shutil.rmtree(ctx.out, ignore_errors=True)


def _run(ctx, argv):
    """Run one command; in the traced round, through the trace child."""
    env = harness.child_env()
    if ctx.tracer is None:
        cmd = [sys.executable, "-m", "fraisse.cli", *argv]
    else:
        trace_file = os.path.join(ctx.out, "trace.json")
        cmd = [sys.executable, os.path.join(harness.HERE, "trace_child.py"), trace_file, "--", *argv]
    proc = subprocess.run(cmd, capture_output=True, env=env, cwd=harness.ROOT, timeout=120)
    if ctx.tracer is not None:
        with open(trace_file, encoding="utf-8") as handle:
            snap = json.load(handle)
        snap["extra"]["cli.emit_bytes"] = len(proc.stdout)
        ctx.child = merge(ctx.child, snap)
    return proc


def trace_snapshot(ctx, tracer) -> dict:
    """The traced round: the children's snapshots (the worker itself calls
    no traced function in this workload)."""
    return merge(merge({}, tracer.snapshot()), ctx.child)


# -- checks ------------------------------------------------------------------------------


def _report(proc, code):
    require(proc.returncode == code, f"exit {proc.returncode}, want {code}: {proc.stderr[-300:]!r}")
    return json.loads(proc.stdout) if proc.stdout.strip() else None


def _digest_check(label, digests):
    def check(proc):
        want = digests.get(label)
        require(want is not None, f"{label}: no frozen digest (run perfbench/regen_digests.py)")
        require(hashlib.sha256(proc.stdout).hexdigest() == want, f"{label}: report differs from its frozen digest")

    return check


def _enumerate(expr, n):
    def facts(proc):
        report = _report(proc, 0)
        members = [oracles.Plain(s) for s in report["structures"]]
        require(report["count"] == len(members), "enumerate: count field")
        oracles.check_enumeration(expr, n, members, oracles.expected_count(expr, n))

    return facts


def _check_class(proc):
    report = _report(proc, 0)
    require(len(report["reports"]) == 4, "check-class: four axioms")
    require(all(r["status"] == "verified" for r in report["reports"].values()), "check-class: an axiom fails")


def _self_sim(expr):
    def facts(proc):
        holds = oracles.SELF_SIMILAR[expr]
        report = _report(proc, 0 if holds else 1)["report"]
        require(report["status"] == ("verified" if holds else "refuted"), f"self-sim {expr}")
        if expr == "E":
            oracles.check_e_refutation(report["witness"])

    return facts


def _types(expr):
    want = oracles.pair_type_count(expr)

    def facts(proc):
        report = _report(proc, 0)
        atoms = {tuple(t["atoms"]) for t in report["types"]}
        require(report["count"] == want == len(atoms), f"types {expr}: {report['count']}, want {want}")

    return facts


def _generic(expr, level, cap=None):
    layout = oracles.class_layout(expr)

    def facts(proc):
        report = _report(proc, 0 if cap is None else 2)
        model = oracles.Plain(report["model"])
        require(oracles.is_member(layout, model), f"generic-model {expr}: not a member")
        if cap is not None:
            require(report["closed"] is False and report["model"]["certified_level"] == -1, "capped model claims closure")
            require(model.size == cap, "capped model has the wrong size")
            return
        require(report["closed"] is True and report["model"]["certified_level"] == level, "model not closed")
        gaps = oracles.model_gaps(expr, model, level)
        require(gaps == 0, f"generic-model {expr}: {gaps} unrealized types")

    return facts


def _verify(index_expr, bound):
    def facts(proc):
        report = _report(proc, 0)
        require(report["verdict"] == "verified" and report["recheck"] == "verified", "verify-config: not verified")
        oracles.check_certificate(report["certificate"], index_expr, bound)

    return facts


def _rank(name, certificates=False):
    def facts(proc):
        report = _report(proc, 0)
        got = tuple(r["exact"] for r in report["results"])
        require(got == oracles.RANKS[name], f"rank {name}: {got}, want {oracles.RANKS[name]}")
        if certificates:
            for r in report["results"]:
                index = name if r["n"] == 1 else f"{name}^3"
                oracles.check_certificate(r["lower"]["certificate"], index, 3)

    return facts


def _ramsey_demo(ctx, k, colours, m, seed_index):
    def facts(proc):
        from fraisse.ramsey import random_point_coloring

        report = _report(proc, 0)
        require(report["directions"] == (3**k + 1) // 2, "ramsey-box: direction count")
        if k == 1:
            require(report["bound"] == colours * (m - 1) + 1, "ramsey-box: pigeonhole bound")
        colouring = random_point_coloring(k, report["bound"], colours, ctx.demo_seeds[seed_index])
        box = report["witness"]
        require(
            box is not None and oracles.point_box_is_mono(k, report["bound"], colouring.point_map, box),
            "ramsey-box: witness is not a monochromatic box",
        )

    return facts


def _ramsey_directed(proc):
    report = _report(proc, 0)
    # R(3, 3) <= R(2, 3) + R(3, 2) = 6 by the additive recurrence
    require(report["directions"] == 2 and report["bound"] == 6, "ramsey-box directed: bound")


def _dagger(proc):
    report = _report(proc, 0)
    details = report["report"]["details"]
    require(report["pair_types"] == 12 and details["a"]["raw_codes_realized"] == 16, "dagger: code counts")
    require(report["report"]["status"] == "verified", "dagger: not verified")


def _version(proc):
    require(proc.returncode == 0 and proc.stdout.strip(), "--version: no version")


def _usage_error(proc):
    require(proc.returncode == 3 and not proc.stdout, f"usage error: exit {proc.returncode}")


def _nospec(proc):
    """A model file without "spec" must end in exit 3 with a one-line
    message; exit 1 is the known fault."""
    if proc.returncode == 1:
        return KnownFault("verify-config-missing-spec", proc.stderr.decode(errors="replace")[-200:])
    return proc


def _check_nospec(proc):
    lines = proc.stderr.decode(errors="replace").strip().splitlines()
    require(proc.returncode == 3 and len(lines) == 1 and not proc.stdout, "missing spec: want exit 3 and one line")


# -- the session -----------------------------------------------------------------------------


def session(ctx):
    """(label, argv, facts check, seed-independent report) per command."""
    p = ctx.paths
    s = [str(x) for x in ctx.demo_seeds]
    t = ["--target", p["target"]]
    out = [("version", ["--version"], _version, True)]
    for expr, n in (("G", 3), ("G", 4), ("T", 4), ("E", 4), ("LO*G", 3), ("E^2", 3)):
        out.append((f"enumerate {expr} {n}", ["enumerate", "--class", expr, "--n", str(n)], _enumerate(expr, n), True))
    for expr, bound in (("LO", 3), ("G", 3), ("E", 3), ("LO*G", 2)):
        out.append((f"check-class {expr} {bound}", ["check-class", "--class", expr, "--bound", str(bound)], _check_class, True))
    for expr in SELF_SIM_CLASSES:
        out.append((f"self-sim {expr}", ["self-sim", "--class", expr, "--bound", "3"], _self_sim(expr), True))
    for expr in ("E^2", "G^2", "LO*G", "E^3"):
        out.append((f"types {expr}", ["types", "--class", expr], _types(expr), True))
    for expr in ("G", "E", "T"):
        out.append((f"generic-model {expr} 2", ["generic-model", "--class", expr, "--level", "2"], _generic(expr, 2), True))
    out.append(("generic-model LO 2 cap 16", ["generic-model", "--class", "LO", "--level", "2", "--size-cap", "16"],
                _generic("LO", 2, cap=16), True))
    for name, index, bound in (("identity", "G", 2), ("identity", "G", 3), ("identity", "G", 4), ("product", "G*G", 2)):
        out.append((f"verify-config {name} {bound}",
                    ["verify-config", "--config", p[name], "--bound", str(bound), *t], _verify(index, bound), True))
    for name in oracles.RANKS:
        out.append((f"rank {name} target", ["rank", "--class", name, "--n", "2", *t], _rank(name), True))
    out.append(("rank E target certificates", ["rank", "--class", "E", "--n", "2", "--certificates", *t],
                _rank("E", certificates=True), True))
    out.append(("rank G", ["rank", "--class", "G", "--n", "2"], _rank("G"), True))
    for i, (k, colours, m) in enumerate(((1, 2, 3), (2, 2, 2), (1, 3, 2))):
        out.append((f"ramsey-box {k} {colours} {m} seed", ["ramsey-box", "--k", str(k), "--colors", str(colours),
                    "--m", str(m), "--seed", s[i]], _ramsey_demo(ctx, k, colours, m, i), False))
    out.append(("ramsey-box directed 1 2 2", ["ramsey-box", "--k", "1", "--colors", "2", "--m", "2", "--kind", "directed"],
                _ramsey_directed, True))
    out.append(("dagger target", ["dagger", *t], _dagger, True))
    out.append(("dagger", ["dagger"], _dagger, True))
    out.append(("usage unknown class", ["enumerate", "--class", "Q", "--n", "3"], _usage_error, False))
    out.append(("usage demo too large", ["ramsey-box", "--k", "2", "--colors", "3", "--m", "2", "--seed", s[0]],
                _usage_error, False))
    return out


def jobs(ctx) -> list[Job]:
    with open(DIGESTS, encoding="utf-8") as handle:
        digests = json.load(handle)
    out = []
    for label, argv, facts, frozen in session(ctx):
        digest = _digest_check(label, digests) if frozen else None

        def check(proc, facts=facts, digest=digest):
            facts(proc)
            if digest is not None:
                digest(proc)

        out.append(Job(label, lambda argv=argv: _run(ctx, argv), check))
    out.append(
        Job(
            "verify-config missing spec",
            lambda: _nospec(_run(ctx, ["verify-config", "--config", ctx.paths["identity"], "--target", ctx.paths["nospec"]])),
            _check_nospec,
            fault="verify-config-missing-spec",
        )
    )
    return out

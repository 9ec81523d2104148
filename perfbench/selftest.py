"""The benchmark's own tests.

    python3 perfbench/selftest.py          # corruption tests, then one checked round per workload
    python3 perfbench/selftest.py --quick  # corruption tests only

The corruption tests take a right output from the program, damage it the
way a faulty change might (a dropped member, a flipped edge, a wrong rank,
a changed byte), and require the workload's check to reject it.  The
short mode then runs every workload once through ``run.py --once`` and
requires a correct result with only the known faults failing.  Last, the
benchmark must refuse to run, with no result, in a directory holding only
``BENCHMARK.json`` and ``perfbench/``.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import os
import shutil
import subprocess
import sys

import harness
import oracles

harness.use_checkout_sources()

import fraisse  # noqa: E402

# known faults kept as failed operations, per workload
EXPECTED_FAILED = {"catalogue": 0, "models": 0, "interpret": 1, "cli": 1}

failures: list[str] = []


def rejects(label: str, check, output) -> None:
    """The check must raise ``CheckFailed`` on the corrupted output."""
    try:
        check(output)
    except AssertionError:
        print(f"ok    {label}")
        return
    failures.append(label)
    print(f"FAIL  {label}: corrupted output accepted")


def accepts(label: str, check, output) -> None:
    try:
        check(output)
    except AssertionError as exc:
        failures.append(label)
        print(f"FAIL  {label}: right output rejected: {exc}")
        return
    print(f"ok    {label}")


def _flip(structure, name, pair, both=True):
    table = set(structure.relations[name])
    a, b = pair
    for t in ((a, b), (b, a)) if both else ((a, b),):
        table ^= {t}
    return structure.with_relations({name: table})


def test_oracles() -> None:
    for expr, counts in oracles.KNOWN_COUNTS.items():
        layout = oracles.class_layout(expr)
        upto = 4 if "*" in expr or "^" in expr else 5
        got = [oracles.burnside_count(layout, n) for n in range(1, upto + 1)]
        label = f"Burnside count of {expr} matches the known sequence"
        if got == counts[1 : upto + 1]:
            print(f"ok    {label}")
        else:
            failures.append(label)
            print(f"FAIL  {label}: {got}")


def test_catalogue() -> None:
    import wl_catalogue as wl

    ctx = wl.setup(1)
    jobs = {j.name: j for j in wl.jobs(ctx)}
    members = fraisse.enumerate_structures(fraisse.builtin("G"), 4)
    check = jobs["enumerate G 4"].check
    accepts("catalogue: G 4 members", check, members)
    rejects("catalogue: a dropped member", check, members[:-1])
    rejects("catalogue: an isomorphic duplicate", check, members[:-1] + [members[1].relabel([3, 2, 1, 0])])
    rejects("catalogue: a flipped edge (one direction)", check, members[:-1] + [_flip(members[-1], "E", (0, 1), both=False)])
    g24 = fraisse.enumerate_structures(fraisse.parse_class_expr("G^2"), 3)
    rejects("catalogue: G^2 3 against Burnside, one member short", jobs["enumerate G^2 3"].check, g24[1:])

    axiom = jobs["axiom G strong_amalgamation"]
    report = axiom.run()
    rejects("catalogue: an axiom reported refuted", axiom.check, dataclasses.replace(report, status="refuted"))
    selfsim = jobs["self-sim E"]
    report = selfsim.run()
    accepts("catalogue: E self-similarity refuted with its witness", selfsim.check, report)
    rejects("catalogue: E reported self-similar", selfsim.check, dataclasses.replace(report, status="verified"))
    witness = copy.deepcopy(report.witness)
    witness["p"]["E"] = [t for t in witness["p"]["E"] if t[0] == t[1]]
    rejects("catalogue: E witness without E(x, a)", selfsim.check, dataclasses.replace(report, witness=witness))
    types = jobs["types E^2"]
    rejects("catalogue: a dropped pair type", types.check, types.run()[1:])
    canon = jobs["canonical G 5"]
    forms = canon.run()
    swapped = [(b, a) for a, b in forms[1:]] + [(forms[0][0], forms[1][0])]
    rejects("catalogue: canonical form differs across labellings", canon.check, swapped)
    point = jobs["point box (2, 5, 2, 2)"]
    boxes = point.run()
    rejects("catalogue: a point box one index short", point.check, [b and [b[0], b[1][:1]] for b in boxes])
    rejects("catalogue: a missed point box", point.check, [None] * len(boxes))
    directed = jobs["directed box (1, 5, 2, 2)"]
    rejects("catalogue: a missed directed box", directed.check, [None] * len(directed.run()))


def test_models() -> None:
    import wl_models as wl

    ctx = wl.setup(1)
    jobs = {j.name: j for j in wl.jobs(ctx)}
    build = jobs["generic G L2 cap 200"]
    model = build.run()
    accepts("models: closed G level-2 model", build.check, model)
    # the closure's last point was added for a demand nothing else met
    shrunk = model.structure.induced_substructure(list(range(model.structure.size - 1)))
    rejects("models: a closed model missing its last witness", build.check,
            fraisse.GenericModel(shrunk, model.spec, 2, dict(model.meta)))
    capped = jobs["generic LO L2 cap 16"]
    lo = capped.run()
    rejects("models: a capped closure claiming closure", capped.check,
            fraisse.GenericModel(lo.structure, lo.spec, 2, dict(lo.meta, closed=True)))
    ext = jobs["extension G model L2 at 3"]
    report = ext.run(*ext.prepare())
    flipped = "verified" if report.status == "refuted" else "refuted"
    rejects("models: an extension verdict reversed", ext.check, dataclasses.replace(report, status=flipped))
    obox = jobs["order box 3,3"]
    box = obox.run()
    s = box.structure
    rejects("models: an order-box pair reversed", obox.check,
            fraisse.GenericModel(_flip(s, "<#0", (0, 1)), box.spec, -1, dict(box.meta)))
    ebox = jobs["box 2,4"]
    box = ebox.run()
    n = box.structure.size
    merged = box.structure.with_relations({"E#0": {(x, y) for x in range(n) for y in range(n)}})
    rejects("models: an equivalence with one class", ebox.check, dataclasses.replace(box, structure=merged))
    swapped = box.structure.with_relations({"E#0": box.structure.relations["E#1"], "E#1": box.structure.relations["E#0"]})
    rejects("models: two box relations swapped", ebox.check, dataclasses.replace(box, structure=swapped))


def test_interpret() -> None:
    import wl_interpret as wl

    ctx = wl.setup(1)
    jobs = {j.name: j for j in wl.jobs(ctx)}
    verify = jobs["verify identity b3"]
    cert = verify.run()
    accepts("interpret: identity certificate", verify.check, cert)
    bad = copy.copy(cert)
    bad.witnesses = [list(w) for w in cert.witnesses]
    s = next(i for i, st in enumerate(cert.structures) if st.relations["E"])
    a, b = next(iter(cert.structures[s].relations["E"]))
    bad.witnesses[s][b] = bad.witnesses[s][a]
    rejects("interpret: a witness that maps an edge onto one point", verify.check, bad)
    short = copy.copy(cert)
    short.structures, short.witnesses = cert.structures[1:], cert.witnesses[1:]
    rejects("interpret: a certificate missing a structure", verify.check, short)
    rank = jobs["rank table E"]
    results = rank.run()
    wrong = [dataclasses.replace(results[0], lower=0)] + results[1:]
    rejects("interpret: a wrong rank", rank.check, wrong)
    upper = jobs["upper G n2"]
    record = dict(upper.run())
    record["value"] = 4
    rejects("interpret: a wrong counting bound", upper.check, record)
    dagger = jobs["dagger"]
    report = dagger.run()
    details = copy.deepcopy(report.details)
    details["a"]["identified_count"] = 16
    rejects("interpret: dagger with raw codes as the identified count", dagger.check, dataclasses.replace(report, details=details))
    quad = jobs["quad E b3"]
    interp, cert = quad.run()
    merged = copy.copy(cert)
    merged.witnesses = [list(w) for w in cert.witnesses]
    i = next(
        i for i, st in enumerate(cert.structures)
        if st.size > 1 and any((0, 1) not in st.relations[name] for name in st.relations)
    )
    merged.witnesses[i][1] = merged.witnesses[i][0]
    rejects("interpret: a quad witness giving two points one tuple", quad.check, (interp, merged))
    orders = jobs["E into 4 orders"]
    interp, cert, record = orders.run()
    rejects("interpret: a wrong count of order patterns", orders.check,
            (interp, cert, dict(record, non_equality_pair_types=15)))


def _with(proc, **changes):
    fields = {"args": proc.args, "returncode": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
    return subprocess.CompletedProcess(**{**fields, **changes})


def test_cli() -> None:
    import wl_cli as wl

    ctx = wl.setup(1)
    try:
        jobs = {j.name: j for j in wl.jobs(ctx)}
        job = jobs["enumerate G 4"]
        proc = job.run()
        accepts("cli: enumerate G 4", job.check, proc)
        rejects("cli: a changed byte", job.check, _with(proc, stdout=proc.stdout.replace(b'"n": 4', b'"n":  4')))
        data = json.loads(proc.stdout)
        data["structures"] = data["structures"][1:]
        data["count"] -= 1
        rejects("cli: a dropped member", job.check, _with(proc, stdout=json.dumps(data, sort_keys=True).encode()))
        rejects("cli: a wrong exit code", job.check, _with(proc, returncode=1))
        rank = jobs["rank G"]
        proc = rank.run()
        data = json.loads(proc.stdout)
        data["results"][1]["exact"] = 4
        rejects("cli: a wrong rank", rank.check, _with(proc, stdout=json.dumps(data).encode()))
        nospec = jobs["verify-config missing spec"]
        outcome = nospec.run()
        label = "cli: the missing-spec fault shows as exit 1"
        if isinstance(outcome, harness.KnownFault):
            print(f"ok    {label}")
        else:
            accepts("cli: missing spec mended (exit 3, one line)", nospec.check, outcome)
        fixed = subprocess.CompletedProcess([], 3, b"", b"error: model JSON has no 'spec'\n")
        accepts("cli: a mended missing-spec run passes", nospec.check, fixed)
        rejects("cli: a traceback instead of one line", nospec.check,
                subprocess.CompletedProcess([], 3, b"", b"Traceback\n  boom\nKeyError\n"))
    finally:
        wl.teardown(ctx)


def test_short_mode() -> None:
    for workload in harness.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(harness.HERE, "run.py"), "--workload", workload,
             "--seed", "1", "--seconds", "1", "--once"],
            capture_output=True, text=True, cwd=harness.ROOT,
        )
        label = f"short mode: {workload} runs correct with its known faults only"
        result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
        if result and result["correct"] and result["failed"] == EXPECTED_FAILED[workload]:
            print(f"ok    {label}")
        else:
            failures.append(label)
            print(f"FAIL  {label}: {proc.returncode} {result} {proc.stderr[-500:]}")


def test_refuses_without_sources() -> None:
    bare = os.path.join(harness.OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(harness.HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(harness.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalogue", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=bare, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    label = "refuses to run, with no result, without the program's sources"
    if proc.returncode != 0 and not proc.stdout.strip():
        print(f"ok    {label}")
    else:
        failures.append(label)
        print(f"FAIL  {label}: exit {proc.returncode}, stdout {proc.stdout!r}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="corruption tests only")
    args = parser.parse_args()
    test_oracles()
    test_catalogue()
    test_models()
    test_interpret()
    test_cli()
    test_refuses_without_sources()
    if not args.quick:
        test_short_mode()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

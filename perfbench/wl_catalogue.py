"""Workload ``catalogue``: many small exhaustive searches on at most 5 points.

Enumeration up to isomorphism, the axiom suite, self-similarity, pair
types, canonical forms of seeded relabellings, and both box finders on
seeded colourings.  This is the traffic of ``structures`` (canonical form,
enumeration, validation) and of ``ClassSpec.admits`` on tiny structures.
"""

from __future__ import annotations

import itertools
import random
from types import SimpleNamespace

import oracles
from harness import Job
from oracles import require

ENUMERATIONS = [(c, n) for c in ("G", "T", "E", "LO") for n in (3, 4, 5)] + [
    (c, n) for c in ("LO*G", "E^2", "G^2", "LO^2") for n in (3, 4)
]
AXIOMS = ("hereditary", "joint_embedding", "strong_amalgamation")
PAIR_TYPES = ("E^2", "G^2", "LO^2", "T^2", "LO*G", "E^3", "G^3", "T^3")
RELABEL = (("G", 5), ("T", 5), ("E", 5), ("LO*G", 4), ("G^2", 4))
RELABELS_PER_CLASS = 12
# (k, side, colours, m, colourings) for the point finder; the k = 2 case
# runs the 2-d kernel.
POINT_BOXES = ((1, 6, 3, 2, 60), (2, 5, 2, 2, 60), (2, 6, 3, 2, 30), (3, 3, 2, 2, 30))
# (k, side, colours, m, colourings) for the directed finder.
DIRECTED_BOXES = ((1, 5, 2, 2, 30), (2, 3, 2, 2, 8))


def _random_member(rng, expr, n, fraisse):
    layout = oracles.class_layout(expr)
    spec = fraisse.parse_class_expr(expr)
    tables = {name: rng.choice(oracles.labelled_tables(kind, n)) for name, kind in layout}
    return fraisse.FiniteStructure.build(spec.signature, n, tables)


def _relabelled(fraisse, structure, perm):
    tables = {
        name: {tuple(perm[x] for x in t) for t in table}
        for name, table in structure.relations.items()
    }
    return fraisse.FiniteStructure.build(structure.signature, structure.size, tables)


def _at_most_one_p(fraisse):
    from fraisse.classes import MembershipPredicate

    sig = fraisse.Signature((("P", 1),))
    pred = MembershipPredicate(lambda s: len(s.relations["P"]) <= 1, ("P",), ("P",), "at-most-one-P")
    return fraisse.ClassSpec("P<=1", sig, (("P", frozenset()),), (pred,))


def setup(seed: int):
    import fraisse
    from fraisse.ramsey import BoxColoring

    rng = random.Random(seed)
    ctx = SimpleNamespace(fraisse=fraisse)
    ctx.enum_specs = {expr: fraisse.parse_class_expr(expr) for expr, _ in ENUMERATIONS}
    names = fraisse.BUILTIN_NAMES
    ctx.axiom_specs = [(n, fraisse.builtin(n)) for n in names] + [
        (f"{a}*{b}", fraisse.superpose(fraisse.builtin(a), fraisse.builtin(b)))
        for a, b in itertools.combinations_with_replacement(names, 2)
    ]
    ctx.refutable = _at_most_one_p(fraisse)
    ctx.selfsim_specs = {e: fraisse.parse_class_expr(e) for e in oracles.SELF_SIMILAR}
    ctx.type_specs = {e: fraisse.parse_class_expr(e) for e in PAIR_TYPES}
    ctx.relabel_inputs = {}
    for expr, n in RELABEL:
        pairs = []
        for _ in range(RELABELS_PER_CLASS):
            member = _random_member(rng, expr, n, fraisse)
            perm = list(range(n))
            rng.shuffle(perm)
            pairs.append((member, _relabelled(fraisse, member, perm)))
        ctx.relabel_inputs[expr, n] = pairs
    ctx.point_colourings = {}
    for spec in POINT_BOXES:
        k, side, colours, _, count = spec
        ctx.point_colourings[spec] = [
            BoxColoring(k, side, colours, [rng.randrange(colours) for _ in range(side**k)])
            for _ in range(count)
        ]
    ctx.directed_colourings = {}
    for spec in DIRECTED_BOXES:
        k, side, colours, _, count = spec
        size = side**k
        ctx.directed_colourings[spec] = [
            BoxColoring(
                k, side, colours, None,
                {(a, b): rng.randrange(colours) for a in range(size) for b in range(a, size)},
            )
            for _ in range(count)
        ]
    return ctx


# -- checks ------------------------------------------------------------------------


def _check_axiom(axiom):
    def check(report):
        require(report.status == "verified", f"{axiom}: {report.status}")
        require(report.bound == 3 and report.check == axiom, f"{axiom}: wrong report")

    return check


def _check_refutation(report):
    require(report.status == "refuted", "P<=1 joint embedding should be refuted")
    require(report.witness is not None, "refutation carries no witness")


def _check_selfsim(expr):
    def check(report):
        want = "verified" if oracles.SELF_SIMILAR[expr] else "refuted"
        require(report.status == want, f"self-sim {expr}: {report.status}, want {want}")
        if expr == "E":
            oracles.check_e_refutation(report.witness)

    return check


def _check_types(expr):
    layout = oracles.class_layout(expr)
    want = oracles.pair_type_count(expr)

    def check(types):
        require(len(types) == want, f"types {expr}: {len(types)}, want {want}")
        seen = set()
        for t in types:
            tables = {name: set() for name, _ in layout}
            for name, cell in t.atoms:
                tables[name].add(cell)
            require(
                all(oracles.kind_holds(kind, tables[name], 2) for name, kind in layout),
                f"types {expr}: a type is not realized by a member",
            )
            seen.add(frozenset(t.atoms))
        require(len(seen) == len(types), f"types {expr}: duplicate types")

    return check


def _check_relabel(pairs):
    def check(forms):
        for (member, moved), (f_member, f_moved) in zip(pairs, forms):
            require(oracles.same_structure(f_member, f_moved), "canonical form depends on labelling")
            require(oracles.iso_key(f_member) == oracles.iso_key(member), "canonical form is not isomorphic to its input")

    return check


def _check_point(spec, colourings):
    k, side, _, m, _ = spec

    def check(found):
        for colouring, box in zip(colourings, found):
            if box is None:
                require(not oracles.has_mono_point_box(k, side, colouring.point_map, m), "point finder missed a box")
                continue
            require(
                len(box) == k and all(len(set(s)) == m and all(0 <= x < side for x in s) for s in box),
                "point box has the wrong shape",
            )
            require(oracles.point_box_is_mono(k, side, colouring.point_map, box), "point box is not monochromatic")

    return check


def _check_directed(spec, colourings):
    k, side, _, m, _ = spec

    def check(found):
        for colouring, box in zip(colourings, found):
            if box is None:
                require(not oracles.has_mono_directed_box(k, side, colouring.pair_map, m), "directed finder missed a box")
                continue
            require(
                len(box) == k and all(len(set(s)) == m for s in box),
                "directed box has the wrong shape",
            )
            require(oracles.directed_box_is_mono(k, side, colouring.pair_map, box), "directed box is not constant")

    return check


# -- jobs ----------------------------------------------------------------------------


def jobs(ctx) -> list[Job]:
    f = ctx.fraisse
    out = []
    for expr, n in ENUMERATIONS:
        spec = ctx.enum_specs[expr]
        out.append(
            Job(
                f"enumerate {expr} {n}",
                lambda spec=spec, n=n: f.enumerate_structures(spec, n),
                lambda members, expr=expr, n=n: oracles.check_enumeration(
                    expr, n, members, oracles.expected_count(expr, n)
                ),
            )
        )
    for name, spec in ctx.axiom_specs:
        for axiom in AXIOMS:
            out.append(
                Job(
                    f"axiom {name} {axiom}",
                    lambda spec=spec, axiom=axiom: f.verify_class_axioms(spec, 3, axiom),
                    _check_axiom(axiom),
                )
            )
    out.append(
        Job(
            "axiom P<=1 joint_embedding",
            lambda: f.verify_class_axioms(ctx.refutable, 1, "joint_embedding"),
            _check_refutation,
        )
    )
    for expr, spec in ctx.selfsim_specs.items():
        out.append(
            Job(f"self-sim {expr}", lambda spec=spec: f.check_self_similarity(spec, 3), _check_selfsim(expr))
        )
    for expr, spec in ctx.type_specs.items():
        out.append(Job(f"types {expr}", lambda spec=spec: f.enumerate_pair_types(spec), _check_types(expr)))
    for (expr, n), pairs in ctx.relabel_inputs.items():
        out.append(
            Job(
                f"canonical {expr} {n}",
                lambda pairs=pairs: [(a.canonical_form(), b.canonical_form()) for a, b in pairs],
                _check_relabel(pairs),
            )
        )
    for spec, colourings in ctx.point_colourings.items():
        m = spec[3]
        out.append(
            Job(
                f"point box {spec[:4]}",
                lambda colourings=colourings, m=m: [f.find_monochromatic_box(c, m) for c in colourings],
                _check_point(spec, colourings),
            )
        )
    for spec, colourings in ctx.directed_colourings.items():
        m = spec[3]
        out.append(
            Job(
                f"directed box {spec[:4]}",
                lambda colourings=colourings, m=m: [f.find_monochromatic_directed_box(c, m) for c in colourings],
                _check_directed(spec, colourings),
            )
        )
    return out

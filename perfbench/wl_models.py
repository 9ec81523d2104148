"""Workload ``models``: building and certifying generic-limit approximations.

Closure of generic models (16 to 86 points), certification of the
extension property on seeded relabellings of the closed models, order
boxes up to 256 points and equivalence boxes up to 256 points.  This is
where the ``kernels`` demand scan and the ``limits`` closure do their work,
and where ``ClassSpec.admits`` runs a few times on large tables.
"""

from __future__ import annotations

import itertools
import random
from types import SimpleNamespace

import numpy as np

import oracles
from harness import Job
from oracles import require

# (class, level, size cap); LO and LO*G cannot close and stop at their cap.
CLOSURES = (
    ("G", 1, 200), ("G", 2, 200), ("G", 3, 200),
    ("E", 1, 200), ("E", 2, 200), ("E", 3, 200),
    ("T", 1, 200), ("T", 2, 200),
    ("G^2", 1, 64), ("E*G", 1, 64),
    ("LO", 1, 16), ("LO", 2, 16), ("LO", 2, 32), ("LO*G", 2, 16), ("LO*G", 2, 32),
)
# Extension checks of a closed model at a level: its own level, and a
# level above it that a small model may fail.
EXTENSION_CHECKS = tuple(
    (expr, level, level) for expr, level, cap in CLOSURES if not expr.startswith("LO")
) + (("G", 2, 3), ("E", 2, 3), ("T", 1, 2))
ORDER_BOXES = ((2, 4), (3, 3), (3, 4), (4, 3), (4, 4), (2, 8))
BOXES = ((1, 4), (2, 4), (2, 6), (3, 3), (3, 4), (1, 8))


def setup(seed: int):
    import fraisse

    rng = random.Random(seed)
    ctx = SimpleNamespace(fraisse=fraisse, models={}, gaps={})
    ctx.specs = {expr: fraisse.parse_class_expr(expr) for expr, _, _ in CLOSURES}
    # one seeded relabelling per extension check, drawn once the model's
    # size is known
    ctx.rng_state = {check: rng.random() for check in EXTENSION_CHECKS}
    return ctx


def _gaps(ctx, expr, level, model):
    """Unrealized consistent 1-types of a model, by the benchmark's own
    brute force; cached per built model (gaps do not depend on labels)."""
    key = (expr, model.structure.size, level)
    if key not in ctx.gaps:
        ctx.gaps[key] = oracles.model_gaps(expr, model.structure, level)
    return ctx.gaps[key]


def _check_closure(ctx, expr, level, cap):
    layout = oracles.class_layout(expr)

    def check(model):
        ctx.models[expr, level, cap] = model
        require(oracles.is_member(layout, model.structure), f"{expr} L{level}: model is not a member")
        closed = model.meta.get("closed")
        if expr.startswith("LO"):
            require(closed is False and model.certified_level == -1, f"{expr}: capped closure claims to be closed")
            require(model.structure.size == cap, f"{expr}: capped closure has {model.structure.size} points")
            return
        require(closed is True and model.certified_level == level, f"{expr} L{level}: not closed")
        gaps = _gaps(ctx, expr, level, model)
        require(gaps == 0, f"{expr} L{level}: {gaps} unrealized types in a closed model")

    return check


def _relabelled_model(ctx, expr, built_level, cap, seed_value):
    f = ctx.fraisse
    model = ctx.models[expr, built_level, cap]
    perm = list(range(model.structure.size))
    random.Random(seed_value).shuffle(perm)
    moved = model.structure.relabel(perm)
    return (f.GenericModel(moved, model.spec, model.certified_level, dict(model.meta)),)


def _check_extension(ctx, expr, built_level, level):
    def check(report):
        model = next(m for (e, lv, _), m in ctx.models.items() if e == expr and lv == built_level)
        gaps = _gaps(ctx, expr, level, model)
        want = "verified" if gaps == 0 else "refuted"
        require(report.status == want, f"{expr} model L{built_level} at level {level}: {report.status}, want {want}")

    return check


def _coordinates(k, side):
    """Row i is the i-th point of ``side**k`` in lexicographic order."""
    return np.array(list(itertools.product(range(side), repeat=k)), dtype=np.int64).reshape(-1, k)


def _check_order_box(k, side):
    coords = _coordinates(k, side)
    index = np.arange(len(coords))

    def check(model):
        s = model.structure
        require(s.size == side**k and model.certified_level == -1, f"order box {k},{side}: wrong size or level")
        for i, (name, _) in enumerate(s.signature.symbols):
            a = oracles.relation_matrix(s, name)
            require(oracles.is_strict_linear_order(a), f"order box {k},{side}: {name} is not a strict linear order")
            # coordinate i first, ties broken by the whole tuple
            c = coords[:, i]
            want = (c[:, None] < c[None, :]) | ((c[:, None] == c[None, :]) & (index[:, None] < index[None, :]))
            require((a == want).all(), f"order box {k},{side}: {name} is not the order of coordinate {i}")

    return check


def _check_box(m, n):
    coords = _coordinates(m + 1, n)

    def check(model):
        s = model.structure
        require(s.size == n ** (m + 1) and model.certified_level == n - 1, f"box {m},{n}: wrong size or level")
        for i, (name, _) in enumerate(s.signature.symbols):
            a = oracles.relation_matrix(s, name)
            require(oracles.equivalence_classes(a) == n, f"box {m},{n}: {name} is not an equivalence with {n} classes")
            c = coords[:, i]
            require((a == (c[:, None] == c[None, :])).all(), f"box {m},{n}: {name} is not equality of coordinate {i}")

    return check


def jobs(ctx) -> list[Job]:
    f = ctx.fraisse
    out = []
    for expr, level, cap in CLOSURES:
        spec = ctx.specs[expr]
        out.append(
            Job(
                f"generic {expr} L{level} cap {cap}",
                lambda spec=spec, level=level, cap=cap: f.build_generic_model(spec, level, cap),
                _check_closure(ctx, expr, level, cap),
            )
        )
    for check in EXTENSION_CHECKS:
        expr, built_level, level = check
        cap = next(c for e, lv, c in CLOSURES if e == expr and lv == built_level)
        out.append(
            Job(
                f"extension {expr} model L{built_level} at {level}",
                lambda model, level=level: f.check_extension_property(model, level),
                _check_extension(ctx, expr, built_level, level),
                prepare=lambda expr=expr, bl=built_level, cap=cap, s=ctx.rng_state[check]: _relabelled_model(
                    ctx, expr, bl, cap, s
                ),
            )
        )
    for k, side in ORDER_BOXES:
        out.append(
            Job(f"order box {k},{side}", lambda k=k, side=side: f.build_order_box_model(k, side), _check_order_box(k, side))
        )
    for m, n in BOXES:
        out.append(Job(f"box {m},{n}", lambda m=m, n=n: f.build_box_model(m, n), _check_box(m, n)))
    return out

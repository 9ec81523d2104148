"""Finite approximations of generic limits.

Infinite generic structures are replaced by finite models carrying a
*certified extension level* ``k``: every quantifier-free 1-type over at
most ``k`` points consistent with the class is realized by some point of
the model.  Three builders are provided:

* ``build_box_model(m, n)``: the grid ``n**(m+1)`` with ``E_i`` reading
  equality of coordinate ``i`` — a member of the m-fold superposition of
  equivalence relations, certified at level ``n - 1`` by construction.
* ``build_generic_model``: one-point-extension closure, the workhorse for
  graph-like classes, whose closure and certificate run the bitset demand
  scan of ``kernels`` on neighbour sets, at any level.  For order-like
  classes closure cannot terminate (density forces unbounded growth), so
  it stops at the size cap and returns the partial model flagged
  uncertified.
* ``build_order_box_model(k, side)``: ``side**k`` points carrying ``k``
  coordinate orders with lexicographic tie-breaking.  No finite set with
  a linear order can realize below-the-minimum types, so these models are
  never extension-certified; instead they are *age-universal*: every
  pattern of ``k`` linear orders on at most ``side`` points embeds, via
  an explicitly computable rank embedding.

Both boxes are built by the grid helpers ``equality_grid`` and
``order_grid``, which also build the pattern carriers of ``ranks``.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

from . import kernels
from .classes import (
    ClassSpec,
    _atoms_json,
    builtin,
    consistent_one_types,
    one_type,
    parse_class_expr,
    point_realizes,  # noqa: F401  (a named per-layer target of perfbench/tracer.py)
    power,
    verify_class_axioms,
)
from .errors import BoundExceeded, NotAmalgamation, NonBinarySignature
from .report import VerificationReport
from .structures import FiniteStructure


@dataclass
class GenericModel:
    """A finite structure standing in for a generic limit of its class."""

    structure: FiniteStructure
    spec: ClassSpec
    certified_level: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.spec.admits(self.structure):
            raise ValueError("model structure is not a member of its class")

    @property
    def size(self) -> int:
        return self.structure.size

    def to_json(self) -> dict:
        out = self.structure.to_json()
        out["certified_level"] = self.certified_level
        out["spec"] = self.spec.name
        if self.meta:
            out["meta"] = self.meta
        return out

    @classmethod
    def from_json(cls, data: dict) -> "GenericModel":
        for key in ("signature", "size", "relations", "spec", "certified_level"):
            if key not in data:
                raise ValueError(f"model JSON has no {key!r} key")
        structure = FiniteStructure.from_json(data)
        spec = parse_class_expr(data["spec"])
        return cls(
            structure, spec, int(data["certified_level"]), data.get("meta", {})
        )

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "GenericModel":
        return cls.from_json(json.loads(text))


# -- grids: box models and pattern carriers --------------------------------------


def _pair_tuples(size: int) -> list[list[tuple[int, int]]]:
    """``pairs[a][b] == (a, b)``: one tuple object per pair, shared by the
    relation tables of a grid."""
    return [[(a, b) for b in range(size)] for a in range(size)]


def equality_grid(points: list[tuple[int, ...]], spec: ClassSpec) -> FiniteStructure:
    """The structure on ``points`` where relation ``i`` of the spec holds
    between two points iff they agree at coordinate ``i``."""
    pairs = _pair_tuples(len(points))
    tables = {}
    for i, name in enumerate(spec.signature.names):
        blocks: dict[int, list[int]] = {}
        for p, point in enumerate(points):
            blocks.setdefault(point[i], []).append(p)
        tables[name] = frozenset(
            pairs[a][b] for block in blocks.values() for a in block for b in block
        )
    return FiniteStructure(spec.signature, len(points), tables)


def order_grid(points: list[tuple[int, ...]], spec: ClassSpec) -> FiniteStructure:
    """The structure on the distinct ``points`` where relation ``i`` of the
    spec orders points by coordinate ``i``, ties broken on the whole
    tuple."""
    pairs = _pair_tuples(len(points))
    tables = {}
    for i, name in enumerate(spec.signature.names):
        order = sorted(range(len(points)), key=lambda p: (points[p][i], points[p]))
        # frozen from a finished set, the table is sized to its contents:
        # half the memory of a frozenset grown tuple by tuple at 4**4 points
        tables[name] = frozenset(
            {pairs[a][b] for r, a in enumerate(order) for b in order[r + 1 :]}
        )
    return FiniteStructure(spec.signature, len(points), tables)


def grid_index(point: tuple[int, ...], side: int) -> int:
    """Position of ``point`` in the lexicographic list of ``range(side)**k``."""
    idx = 0
    for c in point:
        idx = idx * side + c
    return idx


def box_tuples(m: int, n: int) -> list[tuple[int, ...]]:
    """The (m+1)-tuples over range(n) in lexicographic order."""
    return list(itertools.product(range(n), repeat=m + 1))


def build_box_model(m: int, n: int, budget: int = 4096) -> GenericModel:
    """The box on ``n**(m+1)`` points: ``E_i`` holds iff coordinate ``i``
    agrees, for i < m.  Certified at level ``n - 1``: a type over at most
    n-1 points prescribes, per coordinate, one of at most n-1 values to
    hit or avoid, and the final coordinate supplies enough distinct
    realizers."""
    if m < 1 or n < 1:
        raise ValueError(f"need m, n >= 1, got {(m, n)}")
    if n ** (m + 1) > budget:
        raise BoundExceeded(f"box size {n ** (m + 1)} exceeds budget {budget}")
    spec = power(builtin("E"), m)
    return GenericModel(
        equality_grid(box_tuples(m, n), spec),
        spec,
        n - 1,
        meta={"builder": "box", "m": m, "n": n},
    )


def build_order_box_model(k: int, side: int, budget: int = 4096) -> GenericModel:
    """``side**k`` points with k linear orders: a <_i b iff a_i < b_i, ties
    broken lexicographically on the whole tuple.

    Finite order models are never extension-certified (no point lies below
    the minimum), so ``certified_level`` is -1; what these models offer is
    age-universality up to ``side`` points, witnessed constructively by
    ``order_box_embedding``.
    """
    if k < 1 or side < 1:
        raise ValueError(f"need k, side >= 1, got {(k, side)}")
    if side**k > budget:
        raise BoundExceeded(f"order box size {side ** k} exceeds budget {budget}")
    spec = power(builtin("LO"), k)
    return GenericModel(
        order_grid(list(itertools.product(range(side), repeat=k)), spec),
        spec,
        -1,
        meta={"builder": "order-box", "k": k, "side": side, "age_universal_upto": side},
    )


def order_box_embedding(structure: FiniteStructure, model: GenericModel) -> list[int]:
    """Embed a k-orders pattern into an order box by rank vectors.

    Point ``p`` goes to the tuple of its ranks in the k orders; distinct
    ranks make the coordinate comparison decide every pair, so the
    embedding is strong.  Requires ``structure.size <= side``.
    """
    if model.meta.get("builder") != "order-box":
        raise ValueError("target is not an order box")
    side = model.meta["side"]
    if structure.size > side:
        raise BoundExceeded(
            f"pattern has {structure.size} points, order box side is {side}"
        )
    names = list(model.spec.signature.names)
    if tuple(structure.signature.names) != tuple(names):
        raise NonBinarySignature(
            f"pattern signature {structure.signature.names} does not match "
            f"order box signature {tuple(names)}"
        )
    ranks = [
        [sum(1 for u in range(structure.size) if structure.holds(name, (u, v))) for name in names]
        for v in range(structure.size)
    ]
    return [grid_index(vec, side) for vec in ranks]


# -- the generic demand scan ------------------------------------------------------


def _unrealized_types(spec: ClassSpec, structure: FiniteStructure, subset: list[int]):
    """The class-consistent 1-types over ``subset`` that no point of the
    structure outside the subset realizes, in ``consistent_one_types``
    order.  The scan of the points stops once every type is realized."""
    types = list(consistent_one_types(spec, structure.induced_substructure(subset)))
    missing = set(types)
    for v in range(structure.size):
        if not missing:
            break
        if v not in subset:
            missing.discard(one_type(structure, subset, v))
    yield from (atoms for atoms in types if atoms in missing)


# -- extension-property certification ------------------------------------------


def _graph_like(spec: ClassSpec) -> bool:
    """Single binary symmetric irreflexive relation without transitivity:
    the case the bitset kernels handle."""
    if spec.predicates or len(spec.signature.symbols) != 1:
        return False
    (name, arity), = spec.signature.symbols
    props = spec.properties(name)
    return arity == 2 and props == frozenset({"symmetric", "irreflexive"})


def check_extension_property(model: GenericModel, level: int) -> VerificationReport:
    """Exhaustively verify that every spec-consistent quantifier-free
    1-type over at most ``level`` points of the model is realized."""
    structure, spec = model.structure, model.spec
    if level >= 0 and structure.size == 0:
        # not even the type over the empty set is realized
        return VerificationReport.refuted(
            "extension-property", {"subset": [], "reason": "empty model"}, bound=level
        )
    if _graph_like(spec):
        (name, _), = spec.signature.symbols
        rows = structure.bit_rows[name][0]
        for vmax in range(structure.size):
            missing = kernels.missing_graph_demands(rows, vmax, level)
            if missing:
                points, mask = missing[0]
                return VerificationReport.refuted(
                    "extension-property",
                    {"subset": list(points), "type_mask": mask},
                    bound=level,
                )
        return VerificationReport.verified_up_to("extension-property", level)
    # generic path, subsets size-major
    for size in range(level + 1):
        for subset in itertools.combinations(range(structure.size), size):
            atoms = next(_unrealized_types(spec, structure, list(subset)), None)
            if atoms is not None:
                return VerificationReport.refuted(
                    "extension-property",
                    {
                        "subset": list(subset),
                        "type": _atoms_json(structure.signature, atoms),
                    },
                    bound=level,
                )
    return VerificationReport.verified_up_to("extension-property", level)


# -- generic-model closure -------------------------------------------------------


def _hash_bits(a: int, b: int, salt: int = 0) -> int:
    """Deterministic pseudorandom integer from a point pair (splitmix-style)."""
    x = (a * 0x9E3779B97F4A7C15 ^ (b + 1) * 0xBF58476D1CE4E5B9 ^ salt) & (2**64 - 1)
    x = (x ^ (x >> 30)) * 0xD6E8FEB86659FD93 & (2**64 - 1)
    x = (x ^ (x >> 27)) * 0xD6E8FEB86659FD93 & (2**64 - 1)
    return (x ^ (x >> 31)) & 0xFFFF


def build_generic_model(
    spec: ClassSpec,
    level: int,
    size_cap: int,
    check_amalgamation: bool = True,
) -> GenericModel:
    """Close the empty structure under one-point extension demands.

    Demands are scanned grouped by the largest point they mention, so
    each is visited exactly once: realized demands stay realized when
    points are appended.  Fresh witness points relate to the demanding
    subset as the type prescribes; edges to all other points are chosen
    pseudorandomly (deterministically) for free classes, which drives the
    model toward quasi-randomness and makes the closure terminate, and by
    backtracking search for classes with transitive relations.

    On success the model self-certifies at ``level``.  If the cap is hit
    first the partial model is returned flagged uncertified
    (``certified_level == -1``) — unavoidable for order-like classes,
    where density makes true closure impossible.
    """
    if level < 0:
        raise ValueError(f"level {level} < 0")
    if size_cap < 0:
        raise ValueError(f"size cap {size_cap} < 0")
    if not spec.is_binary():
        raise NonBinarySignature("generic-model closure needs a binary signature")
    if check_amalgamation:
        bound = level + 1
        axiom_report = verify_class_axioms(spec, bound, "strong_amalgamation")
        if not axiom_report:
            raise NotAmalgamation(
                f"{spec.name} fails strong amalgamation at bound {bound}"
            )
    if size_cap == 0:
        # the type over the empty set is a demand at every level, and no
        # point may be added to realize it
        structure, closed = spec.empty_structure(), False
    elif _graph_like(spec):
        structure, closed = _close_graph(spec, level, size_cap)
    else:
        structure, closed = _close_generic(spec, level, size_cap)
    model = GenericModel(
        structure,
        spec,
        level if closed else -1,
        meta={
            "builder": "closure",
            "level": level,
            "size_cap": size_cap,
            "closed": closed,
        },
    )
    return model


def _close_graph(spec: ClassSpec, level: int, size_cap: int):
    rows: list[int] = []  # neighbour sets, grown one point at a time

    def add_point(forced: dict[int, int]) -> None:
        n = len(rows)
        rows.append(sum(1 << u for u in range(n) if forced.get(u, _hash_bits(u, n) & 1)))
        for u in range(n):
            rows[u] |= (rows[n] >> u & 1) << n

    add_point({})
    vmax, closed = 0, True
    while closed and vmax < len(rows):
        for points, mask in kernels.missing_graph_demands(rows, vmax, level):
            if len(rows) >= size_cap:
                closed = False
                break
            if not kernels.graph_demand_met(rows, points, mask):
                add_point({d: (mask >> bit) & 1 for bit, d in enumerate(points)})
        vmax += 1
    (name, _), = spec.signature.symbols
    edges = {(a, b) for a, row in enumerate(rows) for b in range(len(rows)) if row >> b & 1}
    return FiniteStructure.build(spec.signature, len(rows), {name: edges}), closed


def _close_generic(spec: ClassSpec, level: int, size_cap: int):
    structure = spec.empty_structure()
    vmax = -1  # the empty subset first: its types are the one-point members
    while vmax < structure.size:
        for subset in _subsets_with_max(vmax, level):
            # the scan reads the structure as it was before this subset's
            # witnesses: a witness realizes exactly the type it was added
            # for, never another type over the same subset
            for atoms in _unrealized_types(spec, structure, subset):
                if structure.size >= size_cap:
                    return structure, False
                grown = _add_witness(spec, structure, subset, atoms)
                if grown is None:
                    # the demand was consistent on the subset alone but
                    # has no completion against the whole model
                    return structure, False
                structure = grown
        vmax += 1
    if structure.size == 0:
        raise NotAmalgamation(f"{spec.name} admits no one-point structure")
    return structure, True


def _subsets_with_max(vmax: int, level: int):
    """The subsets of at most ``level`` points whose largest point is
    ``vmax``, size-major; for ``vmax == -1`` the empty subset."""
    if vmax < 0:
        yield []
        return
    for size in range(1, min(level, vmax + 1) + 1):
        for rest in itertools.combinations(range(vmax), size - 1):
            yield [*rest, vmax]


def _add_witness(spec, structure, subset, atoms):
    """Append one point realizing ``atoms`` over ``subset``, completing its
    relations to the rest of the model by backtracking (pseudorandom
    preference order), staying inside the class."""
    n = structure.size
    names = list(spec.signature.names)
    others = [v for v in range(n) if v not in subset]
    pair_options = {}
    for u in others:
        pair_options[u] = _pair_choice_list(spec, u, n)
    diag_options = _diag_choice_list(spec, n)
    translate = {i: p for i, p in enumerate(subset)}
    translate[len(subset)] = n
    forced = {
        name: {tuple(translate[x] for x in tup) for tup in tups}
        for name, tups in zip(names, atoms)
    }

    order = sorted(others, key=lambda u: _hash_bits(u, n, salt=1))

    def build(assignments):
        tables = {name: set(structure.relations[name]) | forced[name] for name in names}
        for chosen in assignments:
            for name, tups in chosen.items():
                tables[name] |= tups
        return structure.disjoint_union_universe(1).with_relations(tables)

    def rec(i, chosen):
        if i == len(order):
            for diag in diag_options:
                candidate = build(chosen + [diag])
                if spec.admits(candidate):
                    return candidate
            return None
        u = order[i]
        decided_points = set(subset) | set(order[: i + 1])
        for option in pair_options[u]:
            candidate = chosen + [option]
            if _partial_consistent(spec, structure, forced, candidate, decided_points):
                result = rec(i + 1, candidate)
                if result is not None:
                    return result
        return None

    return rec(0, [])


def _pair_choice_list(spec, u, new):
    """Locally admissible atom assignments between existing point u and
    the fresh point, per relation, hash-shuffled for genericity."""
    names = list(spec.signature.names)
    per_rel = []
    for name in names:
        props = spec.properties(name)
        options = []
        for fwd in (False, True):
            for back in (False, True):
                if "symmetric" in props and fwd != back:
                    continue
                if "trichotomous" in props and fwd == back:
                    continue
                tups = set()
                if fwd:
                    tups.add((new, u))
                if back:
                    tups.add((u, new))
                options.append(frozenset(tups))
        per_rel.append(options)
    combos = [
        {name: tups for name, tups in zip(names, combo)}
        for combo in itertools.product(*per_rel)
    ]
    combos.sort(
        key=lambda c: _hash_bits(
            u, new, salt=sum(hash(frozenset(v)) & 0xFF for v in c.values())
        )
    )
    return combos


def _diag_choice_list(spec, new):
    names = list(spec.signature.names)
    per_rel = []
    for name in names:
        props = spec.properties(name)
        if "irreflexive" in props or "trichotomous" in props:
            per_rel.append([frozenset()])
        elif "reflexive" in props:
            per_rel.append([frozenset({(new, new)})])
        else:
            per_rel.append([frozenset(), frozenset({(new, new)})])
    return [
        {name: tups for name, tups in zip(names, combo)}
        for combo in itertools.product(*per_rel)
    ]


def _partial_consistent(spec, structure, forced, chosen, decided_points):
    """Cheap transitivity screen on the decided pairs (full membership is
    checked at the end).

    ``decided_points`` are the old points whose pairs with the new point
    are fixed.  Besides ``(u, new), (new, w) => (u, w)``, a decided w must
    close the triangles through the new point: ``(new, u), (u, w) =>
    (new, w)`` and ``(w, u), (u, new) => (w, new)``.  Decided pairs never
    change, so a branch this rejects has no completion in the class.
    """
    n = structure.size
    for name in spec.signature.names:
        if "transitive" not in spec.properties(name):
            continue
        decided = _decided(name, forced, chosen)
        fwd = {u for u in range(n) if (n, u) in decided}
        back = {u for u in range(n) if (u, n) in decided}
        table = structure.relations[name]
        for u in back:
            for w in fwd:
                if u != w and (u, w) not in table:
                    return False
        for w in decided_points:
            if w not in fwd and any((u, w) in table for u in fwd):
                return False
            if w not in back and any((w, u) in table for u in back):
                return False
    return True


def _decided(name, forced, chosen):
    out = set(forced[name])
    for c in chosen:
        out |= c.get(name, set())
    return out

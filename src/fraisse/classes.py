"""Fraïssé-class specifications and bounded verification of their axioms.

A class is described by a decidable membership predicate on finite
structures: per-relation property sets (symmetric, trichotomous,
reflexive, irreflexive, transitive) plus optional custom predicates.
Built-ins:

========  =========================================  ===========
name      properties                                 relation
========  =========================================  ===========
``S``     (empty signature)                          --
``LO``    trichotomous, irreflexive, transitive      ``<``
``E``     symmetric, reflexive, transitive           ``E``
``G``     symmetric, irreflexive                     ``E``
``T``     trichotomous, irreflexive                  ``<``
``H_k``   symmetric, irreflexive, arity k            ``R``
========  =========================================  ===========

Free superposition takes the union signature (renaming colliding names
with ``#i`` suffixes) and requires each reduct to lie in its factor; the
``power`` convenience builds the iterated superposition of a class with
itself.

All axiom checks here are bounded and three-valued: ``verified`` always
means verified up to the stated bound.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    BudgetExceeded,
    NonBinarySignature,
    SignatureMismatch,
    TransitivityOnNonBinary,
    UnknownRelation,
)
from .report import VerificationReport
from .structures import (
    EMPTY_SIGNATURE,
    FiniteStructure,
    Signature,
    all_extension_tuples,
    enumerate_structures_upto,
    find_embeddings,
    one_point_extensions,
)

PROPERTIES = ("symmetric", "trichotomous", "reflexive", "irreflexive", "transitive")


def check_relation_property(
    structure: FiniteStructure, name: str, prop: str
) -> bool:
    """Does relation ``name`` have ``prop`` on this structure?

    symmetric      closed under all coordinate permutations;
    trichotomous   every distinct-entry tuple satisfies the relation under
                   exactly one coordinate permutation;
    reflexive      all constant tuples hold;
    irreflexive    no tuple with a repeated entry holds;
    transitive     (binary only) R(a,b) and R(b,c) imply R(a,c).
    """
    if name not in structure.signature:
        raise UnknownRelation(f"no relation named {name!r}")
    arity = structure.signature.arity(name)
    table = structure.relations[name]
    n = structure.size
    if prop == "symmetric":
        if arity == 2:
            return all((b, a) in table for a, b in table)
        return all(
            tuple(tup[i] for i in perm) in table
            for tup in table
            for perm in itertools.permutations(range(arity))
        )
    if prop == "trichotomous":
        if arity == 2:
            # exactly one orientation per pair: C(n, 2) off-diagonal tuples,
            # none of them with its reverse
            off = [(a, b) for a, b in table if a != b]
            return len(off) == n * (n - 1) // 2 and not any(
                (b, a) in table for a, b in off
            )
        for combo in itertools.combinations(range(n), arity):
            hits = sum(
                1 for perm in itertools.permutations(combo) if perm in table
            )
            if hits != 1:
                return False
        return True
    if prop == "reflexive":
        return all((a,) * arity in table for a in range(n))
    if prop == "irreflexive":
        if arity == 2:
            return all(a != b for a, b in table)
        return all(len(set(tup)) == len(tup) for tup in table)
    if prop == "transitive":
        if arity != 2:
            raise TransitivityOnNonBinary(f"{name!r} has arity {arity}")
        # successor sets as bitmasks: R(a, b) needs succ(b) within succ(a)
        succ = [0] * n
        for a, b in table:
            succ[a] |= 1 << b
        return all(not succ[b] & ~succ[a] for a, b in table)
    raise ValueError(f"unknown property {prop!r}")


@dataclass(frozen=True)
class MembershipPredicate:
    """A custom membership condition on the reduct to ``names``.

    ``fn`` receives the reduct renamed back to ``original_names`` (in the
    same order as ``names``) and must look relations up by name.
    """

    fn: Callable[[FiniteStructure], bool]
    names: tuple[str, ...]
    original_names: tuple[str, ...]
    label: str = "predicate"

    def holds(self, structure: FiniteStructure) -> bool:
        sub = structure.reduct(self.names)
        if self.names != self.original_names:
            sub = sub.rename_relations(dict(zip(self.names, self.original_names)))
        return bool(self.fn(sub))

    def renamed(self, mapping: dict[str, str]) -> "MembershipPredicate":
        return MembershipPredicate(
            self.fn,
            tuple(mapping.get(n, n) for n in self.names),
            self.original_names,
            self.label,
        )


@dataclass(frozen=True)
class ClassSpec:
    """A hereditary class of finite structures given by local properties
    (and optional custom predicates)."""

    name: str
    signature: Signature
    constraints: tuple[tuple[str, frozenset[str]], ...]
    predicates: tuple[MembershipPredicate, ...] = ()

    def __post_init__(self):
        declared = {n for n, _ in self.constraints}
        if declared != set(self.signature.names):
            raise SignatureMismatch(
                f"constraints for {sorted(declared)} do not cover signature "
                f"{list(self.signature.names)}"
            )

    def properties(self, name: str) -> frozenset[str]:
        for rel, props in self.constraints:
            if rel == name:
                return props
        raise UnknownRelation(f"no relation named {name!r}")

    def admits(self, structure: FiniteStructure) -> bool:
        if structure.signature != self.signature:
            return False
        for name, props in self.constraints:
            for prop in props:
                if not check_relation_property(structure, name, prop):
                    return False
        return all(pred.holds(structure) for pred in self.predicates)

    # -- one-point extension choices (drives enumeration and searches) ----

    def admits_extension(self, child: FiniteStructure) -> bool:
        """Membership of a one-point extension built from the
        :meth:`extension_choices` of a member: every relation keeps its
        properties by construction, so only the custom predicates are
        left to test."""
        return all(pred.holds(child) for pred in self.predicates)

    def extension_choices(
        self, parent: FiniteStructure, name: str
    ) -> Iterator[frozenset[tuple[int, ...]]]:
        """All assignments of the new tuples mentioning a fresh point under
        which ``name`` keeps its declared properties, for a ``parent`` on
        which it has them (a member of the class, say).

        Symmetry, trichotomy, reflexivity and irreflexivity each hold by
        construction: whole permutation orbits, one orientation per point
        set, the constant tuple forced, repeated entries left out.  Only
        what the construction cannot ensure is tested per choice:
        transitivity (:func:`_transitive_extension`), and the two pairs of
        properties it cannot meet at once.  A reflexive irreflexive
        relation has no choice at all, and one orientation per point set
        is never symmetric, so a symmetric trichotomous relation keeps
        only the choices closed under permutation.  Custom predicates
        are left to :meth:`admits_extension`.
        """
        props = self.properties(name)
        arity = self.signature.arity(name)
        if "transitive" in props and arity != 2:
            raise TransitivityOnNonBinary(f"{name!r} has arity {arity}")
        if "reflexive" in props and "irreflexive" in props:
            return
        forced: set[tuple[int, ...]] = set()
        open_tuples: list[tuple[int, ...]] = []
        for tup in all_extension_tuples(parent.size, arity):
            if len(set(tup)) != len(tup):
                if "irreflexive" in props:
                    continue
                if "reflexive" in props and len(set(tup)) == 1:
                    forced.add(tup)
                    continue
            open_tuples.append(tup)
        checks = []
        if "transitive" in props:
            checks.append(_transitive_extension(parent.relations[name], parent.size))
        if "symmetric" in props and "trichotomous" in props:
            checks.append(_closed_under_permutation)
        for chosen in _free_assignments(open_tuples, props):
            choice = frozenset(forced) | chosen
            if all(check(choice) for check in checks):
                yield choice

    # -- convenience -------------------------------------------------------

    def members_upto(self, bound: int, budget: int | None = None):
        return enumerate_structures_upto(self, bound, budget=budget)

    def empty_structure(self) -> FiniteStructure:
        return FiniteStructure.build(self.signature, 0)

    def is_binary(self) -> bool:
        return all(a == 2 for _, a in self.signature.symbols)


def _subset_choices(
    tuples: Sequence[tuple[int, ...]], props: frozenset[str]
) -> Iterator[set[tuple[int, ...]]]:
    """Subsets of the given tuples, whole permutation-orbits at a time if
    the relation is symmetric."""
    if "symmetric" in props:
        orbits: dict[tuple, list[tuple[int, ...]]] = {}
        for tup in tuples:
            orbits.setdefault(tuple(sorted(tup)), []).append(tup)
        units = sorted(orbits.values())
    else:
        units = [[t] for t in sorted(tuples)]
    for mask in itertools.product((False, True), repeat=len(units)):
        yield {t for unit, take in zip(units, mask) if take for t in unit}


# -- built-ins --------------------------------------------------------------


def _simple(name: str, rel: str, arity: int, props: Iterable[str]) -> ClassSpec:
    return ClassSpec(
        name,
        Signature(((rel, arity),)),
        ((rel, frozenset(props)),),
    )


def builtin(name: str) -> ClassSpec:
    """The built-in class with the given name (S, LO, E, G, T, H3, H4, ...)."""
    if name == "S":
        return ClassSpec("S", EMPTY_SIGNATURE, ())
    if name == "LO":
        return _simple("LO", "<", 2, ("trichotomous", "irreflexive", "transitive"))
    if name == "E":
        return _simple("E", "E", 2, ("symmetric", "reflexive", "transitive"))
    if name == "G":
        return _simple("G", "E", 2, ("symmetric", "irreflexive"))
    if name == "T":
        return _simple("T", "<", 2, ("trichotomous", "irreflexive"))
    if name.startswith("H") and name[1:].isdigit():
        k = int(name[1:])
        if k < 2:
            raise ValueError(f"hypergraph arity {k} < 2")
        return _simple(name, "R", k, ("symmetric", "irreflexive"))
    raise ValueError(f"unknown built-in class {name!r}")


BUILTIN_NAMES = ("S", "LO", "E", "G", "T", "H3")


# -- free superposition ------------------------------------------------------


def superpose(spec0: ClassSpec, spec1: ClassSpec) -> ClassSpec:
    """The free superposition: structures over the union signature whose
    reduct to each factor's signature lies in that factor.

    Colliding relation names are renamed with ``#0``/``#1`` suffixes.
    """
    collide = set(spec0.signature.names) & set(spec1.signature.names)
    map0 = {n: f"{n}#0" for n in collide}
    map1 = {n: f"{n}#1" for n in collide}
    return _combine([(spec0, map0), (spec1, map1)], f"{_atom(spec0)}*{_atom(spec1)}")


def power(spec: ClassSpec, k: int) -> ClassSpec:
    """The iterated superposition of ``spec`` with itself, ``k`` factors,
    with relations renamed ``name#0 .. name#k-1``."""
    if k < 1:
        raise ValueError(f"power {k} < 1")
    if k == 1:
        return spec
    factors = [
        (spec, {n: f"{n}#{i}" for n in spec.signature.names}) for i in range(k)
    ]
    return _combine(factors, f"{_atom(spec)}^{k}")


def _atom(spec: ClassSpec) -> str:
    return spec.name if _is_atomic_name(spec.name) else f"({spec.name})"


def _is_atomic_name(name: str) -> bool:
    return all(c.isalnum() for c in name)


def _combine(
    factors: list[tuple[ClassSpec, dict[str, str]]], name: str
) -> ClassSpec:
    sig = EMPTY_SIGNATURE
    constraints: list[tuple[str, frozenset[str]]] = []
    predicates: list[MembershipPredicate] = []
    for spec, mapping in factors:
        sig = sig.union(spec.signature.rename(mapping))
        constraints.extend(
            (mapping.get(rel, rel), props) for rel, props in spec.constraints
        )
        predicates.extend(p.renamed(mapping) for p in spec.predicates)
    return ClassSpec(name, sig, tuple(constraints), tuple(predicates))


# -- class-expression syntax for the CLI -------------------------------------


def parse_class_expr(text: str) -> ClassSpec:
    """Parse expressions like ``LO*G``, ``E^2``, ``(LO^2)*S``."""
    tokens = _tokenize(text)
    spec, rest = _parse_product(tokens)
    if rest:
        raise ValueError(f"trailing tokens {rest!r} in class expression {text!r}")
    return spec


def _tokenize(text: str) -> list[str]:
    out = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "*^()":
            out.append(c)
            i += 1
        elif c.isalnum():
            j = i
            while j < len(text) and text[j].isalnum():
                j += 1
            out.append(text[i:j])
            i = j
        else:
            raise ValueError(f"bad character {c!r} in class expression")
    return out


def _parse_product(tokens: list[str]) -> tuple[ClassSpec, list[str]]:
    spec, tokens = _parse_power(tokens)
    while tokens and tokens[0] == "*":
        rhs, tokens = _parse_power(tokens[1:])
        spec = superpose(spec, rhs)
    return spec, tokens


def _parse_power(tokens: list[str]) -> tuple[ClassSpec, list[str]]:
    spec, tokens = _parse_atom(tokens)
    if tokens and tokens[0] == "^":
        if len(tokens) < 2 or not tokens[1].isdigit():
            raise ValueError("expected integer after '^'")
        spec, tokens = power(spec, int(tokens[1])), tokens[2:]
    return spec, tokens


def _parse_atom(tokens: list[str]) -> tuple[ClassSpec, list[str]]:
    if not tokens:
        raise ValueError("unexpected end of class expression")
    if tokens[0] == "(":
        spec, rest = _parse_product(tokens[1:])
        if not rest or rest[0] != ")":
            raise ValueError("unbalanced parentheses")
        return spec, rest[1:]
    return builtin(tokens[0]), tokens[1:]


# -- axiom verification -------------------------------------------------------


def verify_class_axioms(
    spec: ClassSpec,
    bound: int,
    axiom: str,
    budget: int | None = None,
) -> VerificationReport:
    """Exhaustively check a class axiom over instances with parts of size
    at most ``bound``.

    Every amalgamation axiom runs one amalgam search over pairings of the
    two arms' private points: strong amalgamation (and joint embedding,
    over the empty base) accepts only the empty pairing, the disjoint
    union; plain amalgamation tries the fewest identifications first.  The
    search caps ``|C|`` at ``|B0| + |B1| - |A|`` (the strong disjoint-union
    size); a failure within this cap is reported as refuted with
    ``within_cap`` set, which for plain amalgamation is weaker than a true
    refutation.

    Every instance is counted, but the search runs once per isomorphism
    type of the diagram: the unordered pair of its arms' types over the
    base (:func:`_arm_key`).  Membership in a class without custom
    predicates is a conjunction of isomorphism-invariant properties, one
    relation at a time, and whether each relation of a candidate has a
    completion is decided exactly (:func:`_fill_relation`), so the verdict
    depends on the diagram's type alone.  For a class with
    predicates every arm is its own type.  Instances run in the same order
    either way, so a refutation names the same first failing instance.
    """
    if bound < 1:
        raise ValueError(f"bound {bound} < 1")
    if axiom == "hereditary":
        return _verify_hereditary(spec, bound, budget)
    if axiom in ("joint_embedding", "amalgamation", "strong_amalgamation"):
        return _verify_amalgamation(spec, bound, axiom, budget)
    raise ValueError(f"unknown axiom {axiom!r}")


def _verify_hereditary(spec, bound, budget) -> VerificationReport:
    checked = 0
    for member in spec.members_upto(bound, budget=budget):
        for size in range(member.size):
            for subset in itertools.combinations(range(member.size), size):
                checked += 1
                if not spec.admits(member.induced_substructure(subset)):
                    return VerificationReport.refuted(
                        "hereditary",
                        {"member": member, "subset": list(subset)},
                        bound=bound,
                    )
    return VerificationReport.verified_up_to("hereditary", bound, instances=checked)


def _verify_amalgamation(spec, bound, axiom, budget) -> VerificationReport:
    strong = axiom != "amalgamation"
    members = spec.members_upto(bound, budget=budget)
    bases = [spec.empty_structure()] if axiom == "joint_embedding" else members
    checked = 0
    for base in bases:
        arms = []
        for b in members:
            if b.size < base.size:
                continue
            for emb in find_embeddings(base, b, budget=budget):
                arms.append((b, emb.mapping))
        # A custom predicate may reject the one completion per relation that
        # the amalgam search commits to, so there each arm is its own type.
        if spec.predicates:
            keys = range(len(arms))
        else:
            keys = [_arm_key(b, f) for b, f in arms]
        # unordered pairs of arm types already amalgamated; the first
        # failure ends the check, so no failing pair is ever looked up again
        amalgamated = set()
        for i, ((b0, f0), key0) in enumerate(zip(arms, keys)):
            for (b1, f1), key1 in zip(arms[i:], keys[i:]):
                checked += 1
                pair = frozenset((key0, key1))
                if pair in amalgamated:
                    continue
                if _find_amalgam(spec, b0, f0, b1, f1, strong) is None:
                    return VerificationReport.refuted(
                        axiom,
                        {
                            "A": base,
                            "B0": b0,
                            "B1": b1,
                            "f0": list(f0),
                            "f1": list(f1),
                        },
                        bound=bound,
                        within_cap=True,
                        cap=b0.size + b1.size - base.size,
                    )
                amalgamated.add(pair)
    return VerificationReport.verified_up_to(axiom, bound, instances=checked)


def _arm_key(b, f):
    """The isomorphism type of the arm ``(B, f)`` over its base.

    The key is B's size and the least :meth:`~FiniteStructure.encode`, as
    an encoding slot, over the relabellings of B that put f's image first,
    in f's order, and its private points after.  Two arms over one base
    get equal keys exactly when an isomorphism of their B's carries one f
    to the other.
    """
    slots = b.encoding_slots()
    return b.size, min(slots[i] for i in _fixing_relabellings(b.size, tuple(f)))


@functools.lru_cache(maxsize=None)
def _fixing_relabellings(n, f):
    """The positions, in ``itertools.permutations(range(n))`` order, of the
    permutations with ``perm[f[i]] == i`` for every i."""
    return [
        i
        for i, perm in enumerate(itertools.permutations(range(n)))
        if all(perm[v] == label for label, v in enumerate(f))
    ]


def _find_amalgam(spec, b0, f0, b1, f1, strong):
    """Search for an amalgam C of B0 and B1 over the base they share.

    Tries pairings of B0's private points with B1's private points, fewest
    identifications first.  The empty pairing, the strong (disjoint)
    amalgam, comes first, and ``strong`` stops the search after it.
    """
    amalgam = _amalgam_candidate(spec, b0, f0, b1, f1, {})
    if amalgam is not None or strong:
        return amalgam
    x0 = [v for v in range(b0.size) if v not in f0]
    x1 = [v for v in range(b1.size) if v not in f1]
    for k in range(1, min(len(x0), len(x1)) + 1):
        for sub0 in itertools.combinations(x0, k):
            for sub1 in itertools.permutations(x1, k):
                pairing = dict(zip(sub1, sub0))
                amalgam = _amalgam_candidate(spec, b0, f0, b1, f1, pairing)
                if amalgam is not None:
                    return amalgam
    return None


def _amalgam_candidate(spec, b0, f0, b1, f1, pairing):
    """The amalgam candidate gluing B1 onto B0 through ``f1 -> f0`` and
    ``pairing`` (B1 point -> B0 point), or None.

    Point layout: B0 keeps its indices; the unglued points of B1 follow in
    increasing order.  Atoms must agree on the glued points; tuples inside
    either part are inherited, and only the tuples mixing the two private
    parts are open.  :func:`_fill_relation` completes them relation by
    relation, or finds that no completion keeps the relation's properties.
    The constraints cover the signature, so only the custom predicates are
    left to test at the end.
    """
    to_c = dict(zip(f1, f0))
    to_c.update(pairing)
    size = b0.size
    for v in range(b1.size):
        if v not in to_c:
            to_c[v] = size
            size += 1
    # f0 and f1 embed the same base, so only identified points can disagree
    glued = [*f1, *pairing] if pairing else ()
    tables = {}
    for name, arity in spec.signature.symbols:
        rel0, rel1 = b0.relations[name], b1.relations[name]
        for tup in itertools.product(glued, repeat=arity):
            if (tup in rel1) != (tuple(to_c[x] for x in tup) in rel0):
                return None
        tables[name] = set(rel0) | {tuple(to_c[x] for x in tup) for tup in rel1}
    candidate = b0.disjoint_union_universe(size - b0.size).with_relations(tables)
    private0 = frozenset(range(b0.size)).difference(to_c.values())
    for name, arity in spec.signature.symbols:
        free = _mixed_tuples(size, arity, private0, b0.size)
        candidate = _fill_relation(spec, candidate, name, free)
        if candidate is None:
            return None
    return candidate if all(p.holds(candidate) for p in spec.predicates) else None


@functools.lru_cache(maxsize=4096)
def _mixed_tuples(size: int, arity: int, private0: frozenset, first1: int) -> frozenset:
    """The ``arity``-tuples over ``range(size)`` that meet both private
    parts of an amalgam, ``private0`` and ``range(first1, size)``: the
    tuples neither part decides."""
    return frozenset(
        tup
        for tup in itertools.product(range(size), repeat=arity)
        if max(tup) >= first1 and not private0.isdisjoint(tup)
    )


def _fill_relation(spec, structure, name, free_tuples):
    """Complete one relation on its undecided tuples so that its properties
    hold, or None if no completion exists.

    The completion is built, not searched for.  Every free tuple meets
    both private parts, so none is constant and each permutation orbit is
    free or decided as a whole.  Without transitivity a free orbit is
    constrained by itself alone: leaving it out keeps symmetry and
    (ir)reflexivity, and a trichotomous relation takes the orbit's
    increasing tuple, so this completion works whenever any does.  A
    transitive relation contains the closure of its decided tuples, so a
    completion exists only if the closure adds free tuples alone, and the
    closure is then the least completion.  An order extends it linearly
    (Szpilrajn): points are ranked by their number of strict predecessors
    in the closure, which increases along it.
    """
    table = structure.relations[name]
    props = spec.properties(name)
    if "transitive" in props:
        n = structure.size
        succ = [0] * n
        for a, b in table:
            succ[a] |= 1 << b
        for k in range(n):  # Warshall on successor bitsets
            for a in range(n):
                if succ[a] >> k & 1:
                    succ[a] |= succ[k]
        closure = {(a, b) for a in range(n) for b in range(n) if succ[a] >> b & 1}
        added = closure - table
        if not added.issubset(free_tuples):
            return None
        if "trichotomous" in props:
            below = [0] * n
            for a, b in closure:
                if a != b:
                    below[b] += 1
            added = {(u, v) for u, v in free_tuples if (below[u], u) < (below[v], v)}
    elif "trichotomous" in props:
        added = {t for t in free_tuples if t == tuple(sorted(set(t)))}
    else:
        added = ()
    if added:
        structure = structure.with_relations({name: table | added})
    return structure if _relation_ok(spec, structure, name) else None


def _relation_ok(spec, structure, name) -> bool:
    return all(
        check_relation_property(structure, name, prop)
        for prop in spec.properties(name)
    )


def _transitive_extension(table, x):
    """``keep(choice)``: does a transitive relation with ``table`` on
    ``range(x)`` stay transitive with the tuples of ``choice`` added, all
    of which mention the new point x?

    A broken triangle R(a, b), R(b, c), not R(a, c) must involve x.
    Either R(a, b) is new, and then b's successors must lie within a's;
    or R(a, b) is old and c = x, and then every predecessor of b must be
    a predecessor of x.
    """
    succ = [0] * (x + 1)
    pred = [0] * x
    for a, b in table:
        succ[a] |= 1 << b
        pred[b] |= 1 << a

    def keep(choice):
        child = succ.copy()
        into = 0  # the predecessors of x
        for a, b in choice:
            child[a] |= 1 << b
            if b == x:
                into |= 1 << a
        if any(child[b] & ~child[a] for a, b in choice):
            return False
        return not any(pred[b] & ~into for b in range(x) if into >> b & 1)

    return keep


def _closed_under_permutation(choice) -> bool:
    return all(
        perm in choice for tup in choice for perm in itertools.permutations(tup)
    )


def _free_assignments(free_tuples, props) -> Iterator[set[tuple[int, ...]]]:
    """Assignments of the given tuples that respect the local properties:
    one orientation per point set if trichotomous, whole orbits if
    symmetric, any subset otherwise."""
    if "trichotomous" in props:
        groups: dict[frozenset, list] = {}
        rest = []
        for tup in free_tuples:
            if len(set(tup)) == len(tup):
                groups.setdefault(frozenset(tup), []).append(tup)
            else:
                rest.append(tup)
        units = sorted(sorted(g) for g in groups.values())
        for picks in itertools.product(*units):
            for extra in _subset_choices(rest, props):
                yield set(picks) | extra
        return
    yield from _subset_choices(free_tuples, props)


# -- property preservation under superposition -------------------------------


def check_property_preservation(
    spec0: ClassSpec, spec1: ClassSpec, prop: str, bound: int
) -> VerificationReport:
    """All members of the superposition (up to ``bound``) keep ``prop`` on
    every relation that declared it."""
    combined = superpose(spec0, spec1)
    declared = [
        name for name, props in combined.constraints if prop in props
    ]
    for member in combined.members_upto(bound):
        for name in declared:
            if not check_relation_property(member, name, prop):
                return VerificationReport.refuted(
                    f"preserves-{prop}",
                    {"member": member, "relation": name},
                    bound=bound,
                )
    return VerificationReport.verified_up_to(
        f"preserves-{prop}", bound, relations=declared
    )


# -- full relationality --------------------------------------------------------


def check_fully_relational(
    spec: ClassSpec, arity: int, witness_bound: int
) -> VerificationReport:
    """Every Boolean pattern over the arity-``arity`` relation symbols is
    realized on some distinct-entry tuple of some member up to the bound."""
    if arity < 1:
        raise ValueError(f"arity {arity} < 1")
    rels = [n for n, a in spec.signature.symbols if a == arity]
    realized = {
        tuple(member.holds(r, tup) for r in rels)
        for member in spec.members_upto(witness_bound)
        for tup in itertools.permutations(range(member.size), arity)
    }
    for pattern in itertools.product((False, True), repeat=len(rels)):
        if pattern not in realized:
            return VerificationReport.refuted(
                "fully-relational",
                {"pattern": dict(zip(rels, pattern))},
                bound=witness_bound,
            )
    return VerificationReport.verified_up_to(
        "fully-relational", witness_bound, patterns=2 ** len(rels)
    )


# -- quantifier-free pair types ------------------------------------------------


@dataclass(frozen=True)
class PairType:
    """A complete quantifier-free type of an ordered pair of distinct
    points: the truth assignment to all atoms R(x_i, x_j), i,j < 2,
    realized in some size-2 member."""

    signature: Signature
    atoms: frozenset[tuple[str, tuple[int, int]]]

    @classmethod
    def of(cls, structure: FiniteStructure, a: int, b: int) -> "PairType":
        """The type of ``(a, b)`` in a binary structure, by extension: the
        1-type of a over no point, then the 1-type of b over a."""
        atoms = frozenset(
            (name, tup)
            for name, over_none, over_a in zip(
                structure.signature.names,
                one_type(structure, (), a),
                one_type(structure, (a,), b),
            )
            for tup in over_none | over_a
        )
        return cls(structure.signature, atoms)

    def holds(self, name: str, i: int, j: int) -> bool:
        return (name, (i, j)) in self.atoms

    def star(self) -> "PairType":
        """The reversed type: atoms of the pair read in the other order."""
        return PairType(
            self.signature,
            frozenset((n, (1 - i, 1 - j)) for n, (i, j) in self.atoms),
        )

    def forward_bits(self) -> tuple[bool, ...]:
        """Truth values of R(x_0, x_1) per relation, in signature order."""
        return tuple(
            self.holds(name, 0, 1) for name in self.signature.names
        )

    def sort_key(self) -> tuple:
        return tuple(
            self.holds(name, i, j)
            for name in self.signature.names
            for i in (0, 1)
            for j in (0, 1)
        )

    def to_json(self) -> dict:
        return {
            "atoms": sorted(
                f"{name}(x{i},x{j})" for name, (i, j) in self.atoms
            )
        }


def enumerate_pair_types(spec: ClassSpec) -> list[PairType]:
    """All quantifier-free 2-types realized by distinct pairs in members of
    a binary-relational class, in deterministic order."""
    if not spec.is_binary():
        raise NonBinarySignature(
            f"pair types need a binary signature, got {spec.signature.symbols}"
        )
    # every 2-point member, as the admitted one-point extensions of the
    # admitted one-point members: membership is hereditary
    out = [
        PairType.of(pair, 0, 1)
        for _, point in one_point_extensions(spec, spec.empty_structure())
        if spec.admits_extension(point)
        for _, pair in one_point_extensions(spec, point)
        if spec.admits_extension(pair)
    ]
    out.sort(key=PairType.sort_key)
    return out


# -- the finitary self-similarity criterion -----------------------------------


def check_self_similarity(
    spec: ClassSpec, bound: int, budget: int | None = None
) -> VerificationReport:
    """Bounded check of the one-point-extension criterion for definable
    self-similarity.

    For every member C (size <= bound), subset A, complete non-algebraic
    quantifier-free 1-type p over A (consistent with membership of
    A+point), every tuple S of distinct points of C realizing p (the image
    of an embedded B, |S| <= bound-1), and every one-point extension
    pattern tau of the structure induced on S: some point realizing p and
    related to S by tau must exist, either in C already or in a one-point
    extension of C inside the class.  Refutations return the full witness
    tuple.
    """
    if bound < 2:
        raise ValueError(f"bound {bound} < 2")
    nodes = 0
    for c_struct in spec.members_upto(bound, budget=budget):
        n = c_struct.size
        # the points that may realize a type over parts of C: its own, then
        # the fresh point of each of C's one-point extensions in the class
        candidates = [(c_struct, v) for v in range(n)] + [
            (e, n) for _, e in one_point_extensions(spec, c_struct) if spec.admits_extension(e)
        ]
        for a_subset in _subsets(n):
            a_points = list(a_subset)
            a_struct = c_struct.induced_substructure(a_points)
            over_a = [(x, v, one_type(x, a_points, v)) for x, v in candidates if v not in a_subset]
            for p_atoms in consistent_one_types(spec, a_struct):
                realizing = [(x, v) for x, v, key in over_a if key == p_atoms]
                realizers = [v for _, v in realizing if v < n]
                for s_tuple in _image_tuples(realizers, bound - 1):
                    induced = c_struct.induced_substructure(s_tuple)
                    met = {one_type(x, s_tuple, v) for x, v in realizing if v not in s_tuple}
                    for tau in consistent_one_types(spec, induced):
                        nodes += 1
                        if budget is not None and nodes > budget:
                            raise BudgetExceeded(
                                f"self-similarity search exceeded {budget} nodes"
                            )
                        if tau not in met:
                            return VerificationReport.refuted(
                                "self-similarity",
                                {
                                    "C": c_struct,
                                    "A": a_points,
                                    "p": _atoms_json(c_struct.signature, p_atoms),
                                    "S": list(s_tuple),
                                    "tau": _atoms_json(c_struct.signature, tau),
                                },
                                bound=bound,
                            )
    return VerificationReport.verified_up_to("self-similarity", bound)


def _subsets(n: int):
    for size in range(n + 1):
        yield from itertools.combinations(range(n), size)


def _image_tuples(realizers: list[int], max_size: int):
    for size in range(min(len(realizers), max_size) + 1):
        yield from itertools.permutations(realizers, size)


def consistent_one_types(spec: ClassSpec, anchor: FiniteStructure):
    """The 1-types over ``anchor``, a member of the class, whose one-point
    extension stays in the class, keyed as :func:`one_type` keys them over
    the anchor's indexing (the fresh point is ``anchor.size``)."""
    for assignment, extended in one_point_extensions(spec, anchor):
        if spec.admits_extension(extended):
            yield assignment


def one_type(
    structure: FiniteStructure, points: Sequence[int], v: int
) -> tuple[frozenset[tuple[int, ...]], ...]:
    """The quantifier-free 1-type of ``v`` over the tuple ``points``, as a
    hashable key (Hodges, *Model Theory*, CUP 1993, §7.1).

    Per relation, in signature order: the tuples of
    ``all_extension_tuples(len(points), arity)`` that hold when index i
    reads ``points[i]`` and the last index reads ``v``.  This is the key
    :func:`consistent_one_types` yields, so a point realizes a type
    exactly when its key equals the type.
    """
    image = (*points, v)
    key = []
    for name, arity in structure.signature.symbols:
        table = structure.relations[name]
        tuples = all_extension_tuples(len(points), arity)
        key.append(frozenset([t for t in tuples if tuple([image[x] for x in t]) in table]))
    return tuple(key)


def point_realizes(
    structure: FiniteStructure, points: Sequence[int], v: int, atoms: tuple
) -> bool:
    """Does ``v`` relate to ``points`` exactly as the fresh point of the
    type ``atoms`` (index len(points)) does?

    The searches compare :func:`one_type` keys directly; this predicate
    stays because ``perfbench/tracer.py`` names ``limits.point_realizes``
    as a per-layer target."""
    return one_type(structure, points, v) == atoms


def _atoms_json(signature: Signature, atoms) -> dict:
    return {name: sorted(map(list, tuples)) for name, tuples in zip(signature.names, atoms)}


SELF_SIMILARITY_TABLE = {
    "LO": True,
    "G": True,
    "T": True,
    "H3": True,
    "E": False,
    "LO^2": True,
    "G^2": True,
}
"""Known verdicts of the self-similarity criterion for the built-ins,
re-validated by ``check_self_similarity`` in the test suite."""

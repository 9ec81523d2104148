"""Brute-force references for the fast searches.

``reference_evaluate`` is formula evaluation as it was before formulas
were compiled to closures: a walk of the formula tree for every tuple,
reading atoms with ``FiniteStructure.holds``.

``reference_witness`` and ``reference_embeddings`` are the searches
``config.search_witness`` and ``structures.find_embeddings`` used before
forward checking: each constraint is checked only once every coordinate
it reads is assigned, and every target point is tried at every level.
They are kept as test oracles: the fast searches must return the same
witness and the same embeddings in the same order, after visiting no
more nodes.  Each also returns its node count, so the tests can compare
it with a budget given to the fast search.

``reference_canonical_form`` is ``FiniteStructure.canonical_form`` as it
was before permutations were scored without building them: relabel by
every permutation, encode, keep the first least encoding.

``reference_arm_key`` is ``classes._arm_key`` before the encodings of all
relabellings were read off one lane table: it tries every order of the
arm's private points, after its base image in the arm's order, and keeps
the least encoding.

``reference_verify_amalgamation`` is the amalgamation check before it
decided one diagram per isomorphism type: it runs the amalgam search on
every instance, and every amalgam candidate ends with a full ``admits``.

``reference_extensions`` is the one-point extension step before each
relation's choices kept its properties by construction: every choice
that respects the local properties is built, and a full ``admits``
keeps the members.

``reference_fill_relation`` is ``classes._fill_relation`` before each
relation was completed by construction: a guess tailored to the declared
properties, then exhaustive search over the orbit-respecting assignments
of the free tuples.

``reference_point_realizes``, ``reference_pair_types`` and
``reference_check_self_similarity`` are the 1-type code before types were
keyed by ``classes.one_type``: a walk of the extension tuples for every
(point, type) pair, a full ``admits`` on every 2-point atom mask, and the
self-similarity loop that walked those tuples again for every (A, p, S,
tau) and every candidate point.  Types are passed as dicts from relation
name to tuples, as that code took them.

``reference_witness_graph`` is ``ranks.QuadConstruction.witness_graph``
before each pair's code was read from a table keyed by its atom bits: it
builds ``PairType.of`` for every pair and looks the type up in ``h``.
"""

from __future__ import annotations

import itertools

from fraisse.classes import (
    PairType,
    _free_assignments,
    _mixed_tuples,
    check_relation_property,
    consistent_one_types,
)
from fraisse.config import And, Atom, Const, Coord, Eq, Not, Or, formula_refs
from fraisse.errors import BudgetExceeded, NonBinarySignature, SignatureMismatch
from fraisse.report import VerificationReport
from fraisse.structures import (
    Embedding,
    FiniteStructure,
    Signature,
    all_extension_tuples,
    find_embeddings,
    one_point_extensions,
)


def reference_evaluate(formula, target, tuples, params):
    """The truth of ``formula`` in ``target``, slot i reading ``tuples[i]``
    and parameter j being ``params[j]``."""

    def resolve(ref):
        if isinstance(ref, Coord):
            return tuples[ref.slot][ref.coord]
        return params[ref.index]

    if isinstance(formula, Atom):
        return target.holds(formula.name, tuple(resolve(a) for a in formula.args))
    if isinstance(formula, Eq):
        return resolve(formula.left) == resolve(formula.right)
    if isinstance(formula, Not):
        return not reference_evaluate(formula.inner, target, tuples, params)
    if isinstance(formula, And):
        return all(reference_evaluate(p, target, tuples, params) for p in formula.parts)
    if isinstance(formula, Or):
        return any(reference_evaluate(p, target, tuples, params) for p in formula.parts)
    assert isinstance(formula, Const)
    return formula.value


def reference_witness(interp, target_structure, structure, budget=None):
    """``(witness or None, nodes)`` by plain backtracking over coordinates."""
    n = interp.tuple_length
    size = structure.size
    nvars = n * size
    msize = target_structure.size
    params = interp.parameters

    constraints = []
    for name, arity in structure.signature.symbols:
        formula = interp.formula(name)
        refs = [r for r in formula_refs(formula) if isinstance(r, Coord)]
        for tup in itertools.product(range(size), repeat=arity):
            needed = {tup[r.slot] * n + r.coord for r in refs}
            due = max(needed) if needed else -1
            constraints.append((due, formula, tup, structure.holds(name, tup)))
    due_map: dict[int, list] = {}
    for due, formula, tup, expected in constraints:
        due_map.setdefault(due, []).append((formula, tup, expected))
    for formula, tup, expected in due_map.get(-1, []):
        tuples = [(0,) * n] * max(1, size)
        if reference_evaluate(formula, target_structure, tuples, params) != expected:
            return None, 0

    assignment = [0] * nvars
    nodes = 0

    def rec(v):
        nonlocal nodes
        if v == nvars:
            return True
        for value in range(msize):
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetExceeded(f"witness search exceeded {budget} nodes")
            assignment[v] = value
            ok = True
            for formula, tup, expected in due_map.get(v, []):
                tuples = [tuple(assignment[e * n : (e + 1) * n]) for e in tup]
                if reference_evaluate(formula, target_structure, tuples, params) != expected:
                    ok = False
                    break
            if ok and rec(v + 1):
                return True
        return False

    if rec(0):
        return [tuple(assignment[e * n : (e + 1) * n]) for e in range(size)], nodes
    return None, nodes


def _extends_partial(source, target, partial, candidate):
    """Can ``candidate`` serve as the image of point ``len(partial)``?"""
    k = len(partial)
    trial = partial + [candidate]
    for name, arity in source.signature.symbols:
        for tup in itertools.product(range(k + 1), repeat=arity):
            if k not in tup:
                continue
            image = tuple(trial[x] for x in tup)
            if source.holds(name, tup) != target.holds(name, image):
                return False
    return True


def reference_embeddings(source, target, limit=None, budget=None):
    """``(embeddings, nodes)`` by plain backtracking over images."""
    if source.signature != target.signature:
        raise SignatureMismatch("embedding endpoints have different signatures")
    found: list[Embedding] = []
    nodes = 0

    def rec(partial, used):
        nonlocal nodes
        if len(partial) == source.size:
            found.append(Embedding(source, target, tuple(partial)))
            return limit is not None and len(found) >= limit
        for candidate in range(target.size):
            if candidate in used:
                continue
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetExceeded(f"embedding search exceeded {budget} nodes")
            if _extends_partial(source, target, partial, candidate):
                used.add(candidate)
                if rec(partial + [candidate], used):
                    return True
                used.discard(candidate)
        return False

    rec([], set())
    return found, nodes


def reference_canonical_form(structure):
    """The first relabelling, over all permutations in lexicographic
    order, with the least ``encode()``."""
    best = None
    best_key = None
    for perm in itertools.permutations(range(structure.size)):
        candidate = structure.relabel(perm)
        key = candidate.encode()
        if best_key is None or key < best_key:
            best, best_key = candidate, key
    return best


def reference_arm_key(b, f):
    """B's size and the least ``encode()`` of B relabelled with f's image
    first, in f's order, over every order of its private points."""
    n, k = b.size, len(f)
    private = [v for v in range(n) if v not in f]
    perm = [0] * n
    for i, v in enumerate(f):
        perm[v] = i

    def code(labels):
        for v, label in zip(private, labels):
            perm[v] = label
        return b.relabel(perm).encode()

    return n, min(map(code, itertools.permutations(range(k, n))))


def reference_verify_amalgamation(spec, bound, axiom):
    """``verify_class_axioms(spec, bound, axiom)`` for the three
    amalgamation axioms, searching every instance."""
    strong = axiom != "amalgamation"
    members = spec.members_upto(bound)
    bases = [spec.empty_structure()] if axiom == "joint_embedding" else members
    checked = 0
    for base in bases:
        arms = [
            (b, emb.mapping)
            for b in members
            if b.size >= base.size
            for emb in find_embeddings(base, b)
        ]
        for i, (b0, f0) in enumerate(arms):
            for b1, f1 in arms[i:]:
                checked += 1
                if not _reference_amalgam_exists(spec, b0, f0, b1, f1, strong):
                    return VerificationReport.refuted(
                        axiom,
                        {"A": base, "B0": b0, "B1": b1, "f0": list(f0), "f1": list(f1)},
                        bound=bound,
                        within_cap=True,
                        cap=b0.size + b1.size - base.size,
                    )
    return VerificationReport.verified_up_to(axiom, bound, instances=checked)


def _reference_amalgam_exists(spec, b0, f0, b1, f1, strong):
    pairings = [{}]
    if not strong:
        x0 = [v for v in range(b0.size) if v not in f0]
        x1 = [v for v in range(b1.size) if v not in f1]
        for k in range(1, min(len(x0), len(x1)) + 1):
            for sub0 in itertools.combinations(x0, k):
                for sub1 in itertools.permutations(x1, k):
                    pairings.append(dict(zip(sub1, sub0)))
    return any(
        _reference_candidate(spec, b0, f0, b1, f1, pairing) is not None
        for pairing in pairings
    )


def _reference_candidate(spec, b0, f0, b1, f1, pairing):
    to_c = dict(zip(f1, f0))
    to_c.update(pairing)
    size = b0.size
    for v in range(b1.size):
        if v not in to_c:
            to_c[v] = size
            size += 1
    glued = [*f1, *pairing]
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
        candidate = reference_fill_relation(spec, candidate, name, free)
        if candidate is None:
            return None
    return candidate if spec.admits(candidate) else None


def reference_fill_relation(spec, structure, name, free_tuples):
    """Choose the undecided tuples of one relation so its properties hold,
    or None: the guess first, then every assignment in turn."""

    def ok(candidate):
        return all(
            check_relation_property(candidate, name, prop)
            for prop in spec.properties(name)
        )

    if not free_tuples:
        return structure if ok(structure) else None
    props = spec.properties(name)
    guess = _guess_fill(spec, structure, name, free_tuples, props)
    if guess is not None and ok(guess):
        return guess
    for choice in _free_assignments(free_tuples, props):
        candidate = structure.with_relations(
            {name: structure.relations[name] | choice}
        )
        if ok(candidate):
            return candidate
    return None


def _guess_fill(spec, structure, name, free_tuples, props):
    arity = spec.signature.arity(name)
    table = set(structure.relations[name])
    if "transitive" in props and arity == 2:
        if "symmetric" in props:
            # relate across parts only through a common related point
            closure = _transitive_symmetric_closure(table, structure.size, props)
            added = closure.intersection(free_tuples)
            if closure - table - added:
                return None
            return structure.with_relations({name: table | added})
        # order by the number of related points below, one orientation per pair
        below = {
            v: sum(1 for u in range(structure.size) if (u, v) in table)
            for v in range(structure.size)
        }
        chosen = {(u, v) for u, v in free_tuples if (below[u], u) < (below[v], v)}
        return structure.with_relations({name: table | chosen})
    if "trichotomous" in props:
        chosen = set()
        seen = set()
        for tup in sorted(free_tuples):
            if len(set(tup)) != len(tup):
                continue
            key = frozenset(tup)
            if key not in seen:
                seen.add(key)
                chosen.add(tup)
        return structure.with_relations({name: table | chosen})
    return structure.with_relations({name: table})


def _transitive_symmetric_closure(table, size, props):
    rel = set(table)
    if "reflexive" in props:
        rel |= {(a, a) for a in range(size)}
    changed = True
    while changed:
        changed = False
        for a, b in list(rel):
            if (b, a) not in rel:
                rel.add((b, a))
                changed = True
            for c in range(size):
                if (b, c) in rel and (a, c) not in rel:
                    rel.add((a, c))
                    changed = True
    return rel


def reference_extensions(spec, parent):
    """The members among the one-point extensions of ``parent``, in
    ``one_point_extensions`` order."""
    names = list(spec.signature.names)
    base = parent.disjoint_union_universe(1)
    choice_lists = [_reference_choices(spec, parent, name) for name in names]
    children = []
    for combo in itertools.product(*choice_lists):
        child = base.with_relations(
            {name: base.relations[name] | chosen for name, chosen in zip(names, combo)}
        )
        if spec.admits(child):
            children.append(child)
    return children


def _reference_choices(spec, parent, name):
    props = spec.properties(name)
    forced = set()
    open_tuples = []
    for tup in all_extension_tuples(parent.size, spec.signature.arity(name)):
        if len(set(tup)) != len(tup):
            if "irreflexive" in props:
                continue
            if "reflexive" in props and len(set(tup)) == 1:
                forced.add(tup)
                continue
        open_tuples.append(tup)
    return [frozenset(forced) | chosen for chosen in _free_assignments(open_tuples, props)]


def reference_point_realizes(structure, points, v, atoms):
    """Does ``v`` relate to ``points`` exactly as the fresh point (index
    len(points)) of the type ``atoms``, a dict from relation name to
    tuples, does?"""
    k = len(points)
    to_model = {i: p for i, p in enumerate(points)}
    to_model[k] = v
    for name, arity in structure.signature.symbols:
        decided = atoms[name]
        for tup in all_extension_tuples(k, arity):
            image = tuple(to_model[x] for x in tup)
            if structure.holds(name, image) != (tup in decided):
                return False
    return True


def reference_pair_types(spec):
    """The pair types of a binary class: every atom mask over two points
    whose structure the class admits, sorted by ``PairType.sort_key``."""
    if not spec.is_binary():
        raise NonBinarySignature(
            f"pair types need a binary signature, got {spec.signature.symbols}"
        )
    cells = [(name, (i, j)) for name in spec.signature.names for i in (0, 1) for j in (0, 1)]
    out = []
    for mask in itertools.product((False, True), repeat=len(cells)):
        atoms = frozenset(c for c, keep in zip(cells, mask) if keep)
        tables = {name: set() for name in spec.signature.names}
        for name, cell in atoms:
            tables[name].add(cell)
        if spec.admits(FiniteStructure.build(spec.signature, 2, tables)):
            out.append(PairType(spec.signature, atoms))
    out.sort(key=PairType.sort_key)
    return out


def _reference_types(spec, anchor):
    names = spec.signature.names
    return [dict(zip(names, key)) for key in consistent_one_types(spec, anchor)]


def _reference_atoms_json(atoms):
    return {name: sorted(map(list, tuples)) for name, tuples in atoms.items()}


def reference_check_self_similarity(spec, bound, budget=None):
    """``(report, nodes)``: the self-similarity check with every (A, p, S,
    tau) tested by walking the tuples of each candidate point."""
    nodes = 0
    for c_struct in spec.members_upto(bound, budget=budget):
        extensions = [
            e for _, e in one_point_extensions(spec, c_struct) if spec.admits_extension(e)
        ]
        for size in range(c_struct.size + 1):
            for a_subset in itertools.combinations(range(c_struct.size), size):
                a_points = list(a_subset)
                a_struct = c_struct.induced_substructure(a_points)
                for p_atoms in _reference_types(spec, a_struct):
                    realizers = [
                        v
                        for v in range(c_struct.size)
                        if v not in a_subset
                        and reference_point_realizes(c_struct, a_points, v, p_atoms)
                    ]
                    for s_size in range(min(len(realizers), bound - 1) + 1):
                        for s_tuple in itertools.permutations(realizers, s_size):
                            induced = c_struct.induced_substructure(s_tuple)
                            for tau in _reference_types(spec, induced):
                                nodes += 1
                                if budget is not None and nodes > budget:
                                    raise BudgetExceeded(
                                        f"self-similarity search exceeded {budget} nodes"
                                    )

                                def realizes_both(structure, v):
                                    return reference_point_realizes(
                                        structure, a_points, v, p_atoms
                                    ) and reference_point_realizes(structure, s_tuple, v, tau)

                                taken = set(a_points) | set(s_tuple)
                                if any(
                                    realizes_both(c_struct, v)
                                    for v in range(c_struct.size)
                                    if v not in taken
                                ) or any(realizes_both(e, c_struct.size) for e in extensions):
                                    continue
                                report = VerificationReport.refuted(
                                    "self-similarity",
                                    {
                                        "C": c_struct,
                                        "A": a_points,
                                        "p": _reference_atoms_json(p_atoms),
                                        "S": list(s_tuple),
                                        "tau": _reference_atoms_json(tau),
                                    },
                                    bound=bound,
                                )
                                return report, nodes
    return VerificationReport.verified_up_to("self-similarity", bound), nodes


def reference_witness_graph(construction, structure):
    """The quad construction's witness pattern for ``structure``, with the
    type of every pair built by ``PairType.of``."""
    n = construction.n
    edges = set()
    for a in range(structure.size):
        for i, j in construction.column_pattern:
            edges.add((a * n + i, a * n + j))
    for a in range(structure.size):
        for b in range(a + 1, structure.size):
            code = construction.h[PairType.of(structure, a, b)][0]
            for i, j in code.edges:
                edges.add((a * n + i, b * n + j))
                edges.add((b * n + j, a * n + i))
    return FiniteStructure.build(
        Signature(((construction.edge_relation, 2),)),
        n * structure.size,
        {construction.edge_relation: edges},
    )

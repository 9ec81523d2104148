"""Brute-force references for the fast searches.

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
"""

from __future__ import annotations

import itertools

from fraisse.config import Coord, formula_refs
from fraisse.errors import BudgetExceeded, SignatureMismatch
from fraisse.structures import Embedding


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
        if formula.evaluate(target_structure, tuples, params) != expected:
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
                if formula.evaluate(target_structure, tuples, params) != expected:
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

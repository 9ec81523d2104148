"""The forward-checking search against the brute-force references.

``structures.forward_search`` drives both ``config.search_witness`` and
``structures.find_embeddings``.  Forward checking only removes candidate
values that no solution uses, so both must return exactly what the plain
backtracking searches of ``reference_search`` return (the same first
witness, the same embeddings in the same order) after visiting no more
nodes.  The node bound is checked by giving the fast search the
reference's node count as its budget: it must not run out.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraisse.classes import ClassSpec, builtin
from fraisse.config import (
    And,
    Atom,
    Const,
    Coord,
    Eq,
    InterpretationMap,
    Not,
    Or,
    Param,
    compile_formula,
    compose_configurations,
    identity_interpretation,
    make_parameter_free,
    product_configuration,
    search_witness,
    witness_violation,
)
from fraisse.errors import BudgetExceeded
from fraisse.ranks import pad_interpretation
from fraisse.structures import Embedding, FiniteStructure, Signature, find_embeddings, forward_search
from reference_search import reference_embeddings, reference_evaluate, reference_witness

# the references stop here; beyond it only the fast result is checked
ORACLE_BUDGET = 20_000

GRAPH = Signature((("E", 2),))
MIXED = Signature((("E", 2), ("F", 2), ("P", 1), ("Q", 3)))
INDEX = ClassSpec(
    "X",
    Signature((("R", 2), ("U", 1))),
    (("R", frozenset()), ("U", frozenset())),
)


def random_structure(signature, size, seed, density, symmetric=False, loops=True):
    """Every tuple of every relation independently with probability
    ``density``; ``symmetric`` closes binary relations under swapping."""
    rng = random.Random(seed)
    tables = {}
    for name, arity in signature.symbols:
        table = set()
        for tup in itertools.product(range(size), repeat=arity):
            if not loops and len(set(tup)) < arity:
                continue
            if symmetric and arity == 2 and tup[0] > tup[1]:
                continue
            if rng.random() < density:
                table.add(tup)
                if symmetric and arity == 2:
                    table.add(tup[::-1])
        tables[name] = table
    return FiniteStructure.build(signature, size, tables)


@st.composite
def structures(draw, signature, min_size, max_size):
    size = draw(st.integers(min_size, max_size))
    seed = draw(st.integers(0, 2**32 - 1))
    density = draw(st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9]))
    symmetric = draw(st.booleans())
    loops = draw(st.booleans())
    return random_structure(signature, size, seed, density, symmetric, loops)


def leaves(n, nparams, arity):
    """E/F/P/Q atoms and equalities over ``arity`` slots of ``n``
    coordinates and ``nparams`` parameters."""
    coords = st.builds(Coord, st.integers(0, arity - 1), st.integers(0, n - 1))
    ref = coords
    if nparams:
        ref = st.one_of(coords, st.builds(Param, st.integers(0, nparams - 1)))
    return st.one_of(
        st.builds(lambda name, a, b: Atom(name, (a, b)), st.sampled_from("EF"), ref, ref),
        st.builds(lambda a: Atom("P", (a,)), ref),
        st.builds(lambda a, b, c: Atom("Q", (a, b, c)), ref, ref, ref),
        st.builds(Eq, ref, ref),
    )


def formulas(n, nparams, arity):
    """Boolean combinations of leaves and constants."""
    return st.recursive(
        st.one_of(leaves(n, nparams, arity), st.builds(Const, st.booleans())),
        lambda inner: st.one_of(
            st.builds(Not, inner),
            st.builds(lambda ps: And(tuple(ps)), st.lists(inner, max_size=3)),
            st.builds(lambda ps: Or(tuple(ps)), st.lists(inner, max_size=3)),
        ),
        max_leaves=6,
    )


@st.composite
def wide_formulas(draw, n, nparams, arity):
    """Formulas of 17 to 20 distinct leaves, more than a truth table
    covers, joined pairwise by random connectives."""
    parts = draw(st.lists(leaves(n, nparams, arity), min_size=17, max_size=20, unique=True))
    while len(parts) > 1:
        i = draw(st.integers(0, len(parts) - 2))
        node = draw(st.sampled_from([And, Or]))(tuple(parts[i : i + 2]))
        parts[i : i + 2] = [Not(node) if draw(st.booleans()) else node]
    return parts[0]


def any_formulas(n, nparams, arity):
    return st.one_of(formulas(n, nparams, arity), wide_formulas(n, nparams, arity))


def assert_same_witness(interp, target, structure):
    try:
        old, nodes = reference_witness(interp, target, structure, budget=ORACLE_BUDGET)
    except BudgetExceeded:
        new = search_witness(interp, target, structure)
        assert new is None or witness_violation(interp, target, structure, new) is None
        return
    assert search_witness(interp, target, structure, budget=nodes) == old


def assert_same_embeddings(source, target, limit):
    try:
        old, nodes = reference_embeddings(source, target, limit=limit, budget=ORACLE_BUDGET)
    except BudgetExceeded:
        return
    new = find_embeddings(source, target, limit=limit, budget=nodes)
    assert [e.mapping for e in new] == [e.mapping for e in old]
    assert new == old


# -- witnesses ------------------------------------------------------------------------


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_witness_matches_reference_on_random_formulas(data):
    n = data.draw(st.integers(1, 2), label="tuple length")
    target = data.draw(structures(MIXED, 1, 8), label="target")
    params = tuple(
        data.draw(st.lists(st.integers(0, target.size + 1), max_size=2), label="parameters")
    )
    interp = InterpretationMap(
        INDEX,
        MIXED,
        n,
        params,
        (
            ("R", data.draw(formulas(n, len(params), 2), label="R formula")),
            ("U", data.draw(formulas(n, len(params), 1), label="U formula")),
        ),
    )
    index = data.draw(structures(INDEX.signature, 1, 3), label="index structure")
    assert_same_witness(interp, target, index)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_compiled_formula_matches_evaluation(data):
    # every free set a search can produce: slots 0 and 1 read index points
    # tup[0] and tup[1] (both slots free at once where they are the same
    # point), and every variable in turn is the one filtered
    n = data.draw(st.integers(1, 2), label="tuple length")
    target = data.draw(structures(MIXED, 1, 8), label="target")
    params = tuple(
        data.draw(st.lists(st.integers(0, target.size + 1), max_size=2), label="parameters")
    )
    formula = data.draw(any_formulas(n, len(params), 2), label="formula")
    values = data.draw(
        st.lists(st.integers(0, target.size - 1), min_size=2 * n, max_size=2 * n), label="values"
    )
    coords = [Coord(s, c) for s in range(2) for c in range(n)]
    for tup in [(0, 1), (1, 0), (0, 0)]:
        at = tuple(t * n for t in tup)
        for last in sorted({at[r.slot] + r.coord for r in coords}):
            free = frozenset(r for r in coords if at[r.slot] + r.coord == last)
            mask = compile_formula(formula, target, params, free)
            expected = 0
            for x in range(target.size):
                trial = values[:last] + [x] + values[last + 1 :]
                tuples = [tuple(trial[a : a + n]) for a in at]
                if reference_evaluate(formula, target, tuples, params):
                    expected |= 1 << x
            assert mask(at, values) == expected, (tup, last)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_compiled_evaluation_matches_tree_walk(data):
    n = data.draw(st.integers(1, 2), label="tuple length")
    target = data.draw(structures(MIXED, 1, 8), label="target")
    params = tuple(
        data.draw(st.lists(st.integers(0, target.size + 1), max_size=2), label="parameters")
    )
    formula = data.draw(any_formulas(n, len(params), 2), label="formula")
    # witness values run one past the universe on both sides
    point = st.integers(-1, target.size)
    compiled = compile_formula(formula, target, params)
    for _ in range(8):
        tuples = [
            tuple(data.draw(st.lists(point, min_size=n, max_size=n), label="tuple"))
            for _ in range(2)
        ]
        expected = reference_evaluate(formula, target, tuples, params)
        assert compiled((0, n), tuples[0] + tuples[1]) == expected


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_first_violation_matches_tree_walk(data):
    # witness_violation reports the first violated biconditional, in
    # signature order and then tuple order
    n = data.draw(st.integers(1, 2), label="tuple length")
    target = data.draw(structures(MIXED, 1, 6), label="target")
    params = tuple(
        data.draw(st.lists(st.integers(0, target.size + 1), max_size=2), label="parameters")
    )
    interp = InterpretationMap(
        INDEX,
        MIXED,
        n,
        params,
        (
            ("R", data.draw(formulas(n, len(params), 2), label="R formula")),
            ("U", data.draw(formulas(n, len(params), 1), label="U formula")),
        ),
    )
    index = data.draw(structures(INDEX.signature, 1, 3), label="index structure")
    point = st.integers(-1, target.size)
    witness = [
        tuple(data.draw(st.lists(point, min_size=n, max_size=n), label="tuple"))
        for _ in range(index.size)
    ]
    expected = None
    for name, arity in index.signature.symbols:
        for tup in itertools.product(range(index.size), repeat=arity):
            value = reference_evaluate(
                interp.formula(name), target, [witness[x] for x in tup], params
            )
            if expected is None and value != index.holds(name, tup):
                expected = {"relation": name, "tuple": list(tup)}
    assert witness_violation(interp, target, index, witness) == expected


@pytest.mark.parametrize(
    "witness,message",
    [
        ([(0,)], "witness maps 1 points"),
        ([(0,)] * 3, "witness maps 3 points"),
        ([(), ()], "has 0 coordinates"),
        ([(0, 99), (1, 98)], "has 2 coordinates"),
    ],
    ids=["1", "3", "short", "long"],
)
def test_witness_of_the_wrong_length_is_rejected(witness, message):
    # too few or too many points, or tuples shorter or longer than the map's
    interp = identity_interpretation(builtin("G"))
    target = random_structure(GRAPH, 4, 0, 0.5, symmetric=True, loops=False)
    edge = random_structure(GRAPH, 2, 0, 1.0, symmetric=True, loops=False)
    with pytest.raises(ValueError, match=message):
        witness_violation(interp, target, edge, witness)


def _maps():
    G = builtin("G")
    ident = identity_interpretation(G)
    return {
        "identity": ident,
        "product": product_configuration(ident, ident),
        "padded": pad_interpretation(ident, 3),
        "parameter-free": make_parameter_free(
            InterpretationMap(
                G, GRAPH, 1, (0,), (("E", Or((Atom("E", (Coord(0, 0), Coord(1, 0))),
                                             Eq(Coord(0, 0), Param(0))))),)
            )
        ),
        "composed": compose_configurations(ident, ident),
    }


MAPS = _maps()


@pytest.mark.parametrize("label", sorted(MAPS))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_witness_matches_reference_on_maps(label, data):
    interp = MAPS[label]
    target = data.draw(structures(GRAPH, 1, 12), label="target")
    index_signature = interp.index_spec.signature
    index = data.draw(structures(index_signature, 1, 3), label="index structure")
    assert_same_witness(interp, target, index)


# -- embeddings -----------------------------------------------------------------------


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    source=structures(GRAPH, 0, 4),
    target=structures(GRAPH, 0, 12),
    limit=st.sampled_from([None, 1, 2, 5]),
)
def test_embeddings_match_reference_on_graphs(source, target, limit):
    assert_same_embeddings(source, target, limit)
    everything = find_embeddings(source, target)
    if limit is not None:
        assert find_embeddings(source, target, limit=limit) == everything[:limit]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    source=structures(MIXED, 0, 3),
    target=structures(MIXED, 0, 6),
    limit=st.sampled_from([None, 1, 3]),
)
def test_embeddings_match_reference_with_mixed_arities(source, target, limit):
    assert_same_embeddings(source, target, limit)


def test_embeddings_are_not_rechecked(monkeypatch):
    def refuse(self):
        raise AssertionError("find_embeddings re-validated an embedding")

    edge = random_structure(GRAPH, 2, 0, 1.0, symmetric=True, loops=False)
    target = random_structure(GRAPH, 6, 1, 0.5, symmetric=True, loops=False)
    monkeypatch.setattr(Embedding, "__post_init__", refuse)
    found = find_embeddings(edge, target)
    monkeypatch.undo()
    assert found == reference_embeddings(edge, target)[0]


# -- the engine -----------------------------------------------------------------------


def test_forward_search_orders_and_limits():
    perms = forward_search([0b111] * 3, [], distinct=True)
    assert perms == sorted(perms) and len(perms) == 6
    assert forward_search([0b111] * 3, [], distinct=True, limit=2) == perms[:2]
    # x1 > x0 and x2 = x0 + x1
    constraints = [
        ((0, 1), lambda values: (0b1111 >> (values[0] + 1)) << (values[0] + 1)),
        ((0, 1, 2), lambda values: 1 << (values[0] + values[1])),
    ]
    assert forward_search([0b1111] * 3, constraints) == [(0, 1, 1), (0, 2, 2), (0, 3, 3), (1, 2, 3)]


def test_forward_search_budget_counts_surviving_candidates():
    # the unary constraint leaves one candidate per variable: two nodes
    only_zero = [((v,), lambda values: 0b1) for v in range(2)]
    assert forward_search([0b11] * 2, only_zero, budget=2) == [(0, 0)]
    with pytest.raises(BudgetExceeded, match="test search exceeded 1 nodes"):
        forward_search([0b11] * 2, only_zero, budget=1, what="test search")

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraisse.classes import builtin, parse_class_expr
from fraisse.errors import NotAnEmbedding
from fraisse.structures import (
    Embedding,
    FiniteStructure,
    Signature,
    enumerate_structures,
    enumerate_structures_upto,
    find_embeddings,
    glue,
)

GRAPH = Signature((("E", 2),))


def graph(size, edges):
    table = set()
    for a, b in edges:
        table.add((a, b))
        table.add((b, a))
    return FiniteStructure.build(GRAPH, size, {"E": table})


# -- signatures ------------------------------------------------------------------


def test_signature_basics():
    sig = Signature((("E", 2), ("P", 1)))
    assert sig.arity("E") == 2
    assert "P" in sig
    assert "Q" not in sig
    assert sig == Signature.from_json(sig.to_json())


def test_signature_union_disjoint():
    a = Signature((("E", 2),))
    b = Signature((("F", 2),))
    assert tuple(a.union(b).names) == ("E", "F")


# -- structures and canonical forms ------------------------------------------------


def test_holds_and_build():
    g = graph(3, [(0, 1)])
    assert g.holds("E", (0, 1)) and g.holds("E", (1, 0))
    assert not g.holds("E", (0, 2))


def test_canonical_form_identifies_isomorphs():
    path_a = graph(3, [(0, 1), (1, 2)])
    path_b = graph(3, [(1, 0), (0, 2)])  # relabeled path
    triangle = graph(3, [(0, 1), (1, 2), (0, 2)])
    assert path_a.canonical_key() == path_b.canonical_key()
    assert path_a.is_isomorphic(path_b)
    assert path_a.canonical_key() != triangle.canonical_key()
    assert not path_a.is_isomorphic(triangle)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=4),
    edges=st.sets(
        st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda p: p[0] < p[1])
    ),
    seed=st.integers(0, 10**6),
)
def test_canonical_form_invariant_under_relabeling(n, edges, seed):
    edges = {(a, b) for a, b in edges if a < n and b < n}
    g = graph(n, edges)
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    relabeled = g.relabel(perm)
    assert relabeled.canonical_key() == g.canonical_key()


def test_induced_substructure_and_reduct():
    g = graph(4, [(0, 1), (2, 3)])
    sub = g.induced_substructure((0, 1, 2))
    assert sub.size == 3
    assert sub.holds("E", (0, 1)) and not sub.holds("E", (1, 2))
    assert tuple(g.reduct(()).signature.names) == ()


def test_json_round_trip():
    g = graph(3, [(0, 2)])
    assert FiniteStructure.loads(g.dumps()) == g


# -- embeddings ----------------------------------------------------------------------


def test_embedding_must_be_strong():
    edge = graph(2, [(0, 1)])
    non_edge = graph(2, [])
    with pytest.raises(NotAnEmbedding):
        Embedding(edge, non_edge, (0, 1))
    # preserving but not reflecting is also rejected
    with pytest.raises(NotAnEmbedding):
        Embedding(non_edge, edge, (0, 1))


def test_find_embeddings_counts():
    path = graph(3, [(0, 1), (1, 2)])
    triangle = graph(3, [(0, 1), (1, 2), (0, 2)])
    # a path has no strong embedding into a triangle (missing edge reflects)
    assert find_embeddings(path, triangle) == []
    edge = graph(2, [(0, 1)])
    assert len(find_embeddings(edge, triangle)) == 6
    assert len(find_embeddings(edge, path)) == 4


def test_glue_superposes_two_signatures():
    a = graph(2, [(0, 1)])
    order = FiniteStructure.build(Signature((("<", 2),)), 2, {"<": {(1, 0)}})
    c = glue(a, order, [0, 1])
    assert tuple(c.signature.names) == ("E", "<")
    assert c.holds("E", (0, 1)) and c.holds("<", (1, 0)) and not c.holds("<", (0, 1))


# -- enumeration ------------------------------------------------------------------------


ORACLE_COUNTS = {
    # frozen independently: graphs, equivalences, tournaments, orders by size
    "G": [1, 2, 4, 11],
    "E": [1, 2, 3, 5],
    "T": [1, 1, 2, 4],
    "LO": [1, 1, 1, 1],
}


@pytest.mark.parametrize("name", sorted(ORACLE_COUNTS))
def test_enumeration_counts(name):
    spec = builtin(name)
    got = [len(enumerate_structures(spec, n)) for n in range(1, 5)]
    assert got == ORACLE_COUNTS[name]


def test_enumeration_superposition_counts():
    assert len(enumerate_structures(parse_class_expr("LO^2"), 3)) == 6
    got = [len(enumerate_structures(parse_class_expr("G^2"), n)) for n in (1, 2, 3)]
    assert got == [1, 4, 20]
    assert len(enumerate_structures(builtin("H3"), 3)) == 2


def test_enumeration_is_canonical_and_deduplicated():
    members = enumerate_structures(builtin("G"), 3)
    keys = [m.canonical_key() for m in members]
    assert len(set(keys)) == len(keys)
    assert all(m == m.canonical_form() for m in members)


def test_enumerate_upto_sizes():
    members = enumerate_structures_upto(builtin("E"), 3)
    assert [m.size for m in members] == [1, 2, 2, 3, 3, 3]


def test_enumeration_computes_one_canonical_form_per_admitted_child(monkeypatch):
    spec = builtin("G")
    admitted = 0
    forms = 0
    admits = type(spec).admits
    canonical_form = FiniteStructure.canonical_form

    def counting_admits(self, structure):
        nonlocal admitted
        ok = admits(self, structure)
        admitted += ok
        return ok

    def counting_form(self):
        nonlocal forms
        forms += 1
        return canonical_form(self)

    monkeypatch.setattr(type(spec), "admits", counting_admits)
    monkeypatch.setattr(FiniteStructure, "canonical_form", counting_form)
    members = enumerate_structures(spec, 4)
    assert len(members) == 11
    assert forms == admitted

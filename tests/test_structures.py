import hashlib
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_search import reference_canonical_form

from fraisse import structures
from fraisse.classes import builtin, check_self_similarity, parse_class_expr
from fraisse.errors import (
    BoundExceeded,
    BudgetExceeded,
    NotAnEmbedding,
    NotBijective,
    OutOfRange,
)
from fraisse.structures import (
    MAX_ENUMERATION_SIZE,
    Embedding,
    FiniteStructure,
    Signature,
    enumerate_structures,
    enumerate_structures_upto,
    find_embeddings,
    glue,
    one_point_extensions,
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
    labellings = 0
    admits_extension = type(spec).admits_extension
    canonical_labelling = FiniteStructure.canonical_labelling

    def counting_admits(self, structure):
        nonlocal admitted
        ok = admits_extension(self, structure)
        admitted += ok
        return ok

    def counting_labelling(self):
        nonlocal labellings
        labellings += 1
        return canonical_labelling(self)

    monkeypatch.setattr(type(spec), "admits_extension", counting_admits)
    monkeypatch.setattr(FiniteStructure, "canonical_labelling", counting_labelling)
    members = enumerate_structures(spec, 4)
    assert len(members) == 11
    assert labellings == admitted


def _enumeration_nodes(spec, bound):
    """The children one pass builds to enumerate sizes 1 through bound."""
    layers = [[spec.empty_structure()]]
    layers += [enumerate_structures(spec, size) for size in range(1, bound)]
    return sum(
        1
        for layer in layers
        for parent in layer
        for _ in one_point_extensions(spec, parent)
    )


@pytest.mark.parametrize("expr, bound", [("G", 4), ("E^2", 3), ("LO*G", 3), ("H3", 4)])
def test_enumerate_upto_matches_per_size_calls(expr, bound):
    spec = parse_class_expr(expr)
    per_size = [
        member for size in range(1, bound + 1) for member in enumerate_structures(spec, size)
    ]
    assert enumerate_structures_upto(spec, bound) == per_size
    nodes = _enumeration_nodes(spec, bound)
    assert enumerate_structures_upto(spec, bound, budget=nodes) == per_size
    last = enumerate_structures(spec, bound)
    assert enumerate_structures(spec, bound, budget=nodes) == last
    with pytest.raises(BudgetExceeded):
        enumerate_structures_upto(spec, bound, budget=nodes - 1)
    with pytest.raises(BudgetExceeded):
        enumerate_structures(spec, bound, budget=nodes - 1)


def test_enumerate_upto_checks_the_size_guard_first():
    with pytest.raises(BoundExceeded):
        enumerate_structures_upto(builtin("G"), MAX_ENUMERATION_SIZE + 1)
    assert enumerate_structures_upto(builtin("G"), 0) == []


def test_canonical_form_refuses_an_oversized_lane_table():
    # one ternary relation on 8 points would need 1.3 GB of lanes
    hypergraph = FiniteStructure.build(Signature((("R", 3),)), 8, {"R": {(0, 1, 2)}})
    with pytest.raises(BoundExceeded):
        hypergraph.canonical_form()


def test_import_builds_no_lane_table():
    """The lane table is built on first use, never at import time."""
    src = str(Path(structures.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.run(
        [
            sys.executable,
            "-c",
            "import fraisse, fraisse.cli; "
            "print(fraisse.structures._lane_table.cache_info().currsize)",
        ],
        capture_output=True,
        env=env,
        timeout=60,
        check=True,
    )
    assert child.stdout.decode().strip() == "0"


# sha256 of the newline-joined ``dumps()`` of enumerate_structures(spec, n),
# with the member count, frozen from the canonical form that relabelled and
# encoded every permutation
ENUMERATION_SHA256 = {
    ("G", 3): (4, "dc58044c55bfe107d4befba99f774028f2b5d8834efffe0be684b4f14582d879"),
    ("G", 4): (11, "2d7f7193a95deb47621299f597de696cea48d879082f917f0d46e1310394805c"),
    ("G", 5): (34, "f081d0ffa7e8a17bfbcdd44eb709ea4dbbc158dd94f75a80f3d7c3085d5b84a3"),
    ("G", 6): (156, "a11ea62cecf0c23e10bd9d7146fd61f3c8258144b6e030f945ad801193d1fd9a"),
    ("T", 3): (2, "18fbb39ce3639c90510863645e5d0ab4e1d6ba54a38eab0d3b4840bb61283a59"),
    ("T", 4): (4, "4c86a4e04a25ddb9ec162a620a71c97cb7194ff6b3af90c8c0a20a2a4fa16450"),
    ("T", 5): (12, "3de0880fa69d346d85b46e4445bce44b8b7dd569f1243804b5c328b13496fea5"),
    ("T", 6): (56, "d135cd9c08c50d60cdb23c92b90adfc70b1cfeae4416f8c610a0dd4a75e1eaa6"),
    ("E", 3): (3, "f24fe4b10be2ca78282b097276440a52759b5df7b21fb868eacb6b5515c5951e"),
    ("E", 4): (5, "dcceaf762b3a1f94708913de4406403d1112b20ffa36063c085e0e818fd255e3"),
    ("E", 5): (7, "e9935f034bb9a6d146e4a060c056e9415c5bbd3f0348de77593c3ef24e6f156b"),
    ("E", 6): (11, "d3f30588799c4038ce91e689ab70a2e2638db50a95986ec9258268b5ddc65586"),
    ("LO", 3): (1, "53c8ac75f636b485a807c7be2f794ad3f24e390ffebb32b170dd3fa85f0e9deb"),
    ("LO", 4): (1, "f321a36463a668e481a553c326aeb057f1dbabb58b05ea1799199698a31a8cd5"),
    ("LO", 5): (1, "1dbf41d8be9f9870fde573dfc56e62f3e20979dd4fc874ced45bdbe85191b4c8"),
    ("LO", 6): (1, "405893c9f763c88e0145c0a8f417b34d003e67ecef898a8bd5c4cb90036d8992"),
    ("LO*G", 3): (8, "99bb8f15dfc47eded108ec219be4d36a62a5aa1d74f9904c5fe97dc7ffec6ec4"),
    ("LO*G", 4): (64, "01a15e28ada2c1192168c658f11bc0a142a022de474f004bb191bcc0ea1b641c"),
    ("E^2", 3): (10, "96a6f6ab5267379a2b4363c1ce94ac3927807913d7bffcb9e6c4b07bcd36aa4a"),
    ("E^2", 4): (33, "0bb680b807c87b09a11dc71003ced0e43103150d83d5a6851af3d80de057db59"),
    ("G^2", 3): (20, "4a75f5a8541d8d087a04d08dc83047f103d19b7d2277bdc042b14d27a6b9078c"),
    ("G^2", 4): (276, "d2654c7ae4af9206627e086b4c27e7c895c7f910745402f8297a8c543d30dc35"),
    ("LO^2", 3): (6, "5d5e1e98a2185481da999ab40c1555bc21aced963fd0f3e8b527a57e9a7e4c1b"),
    ("LO^2", 4): (24, "9dbde0bba7bb5f5ee21453a5b07d3db430aa05891d23ea401e7b0bd50b41611b"),
}


@pytest.mark.parametrize("expr,n", sorted(ENUMERATION_SHA256))
def test_enumerations_are_pinned(expr, n):
    members = enumerate_structures(parse_class_expr(expr), n)
    digest = hashlib.sha256("\n".join(m.dumps() for m in members).encode()).hexdigest()
    assert (len(members), digest) == ENUMERATION_SHA256[(expr, n)]


def test_negative_size_is_rejected():
    with pytest.raises(ValueError):
        enumerate_structures(builtin("G"), -1)


# -- canonical form against the brute-force oracle --------------------------------------


SIGNATURES = [
    Signature((("P", 1),)),
    Signature((("E", 2),)),
    Signature((("R", 3),)),
    Signature((("E", 2), ("F", 2))),
    Signature((("P", 1), ("E", 2), ("R", 3))),
    Signature((("<", 2), ("E", 2), ("F", 2))),
]


@st.composite
def random_structures(draw):
    """Any relations on 0-6 points, loops and repeated entries included."""
    signature = draw(st.sampled_from(SIGNATURES))
    n = draw(st.integers(min_value=0, max_value=6))
    tables = {}
    for name, arity in signature.symbols:
        tuples = list(itertools.product(range(n), repeat=arity))
        bits = draw(st.lists(st.booleans(), min_size=len(tuples), max_size=len(tuples)))
        tables[name] = {t for t, bit in zip(tuples, bits) if bit}
    return FiniteStructure.build(signature, n, tables)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(structure=random_structures())
def test_canonical_form_matches_brute_force(structure):
    expected = reference_canonical_form(structure)
    got = structure.canonical_form()
    assert got == expected
    assert got.form_key() == expected.form_key()
    assert structure.canonical_key() == expected.form_key()


# -- trusted construction ---------------------------------------------------------------


def _count_validations(monkeypatch):
    calls = []
    validate = FiniteStructure.__post_init__

    def counting(self):
        calls.append(self.size)
        validate(self)

    monkeypatch.setattr(FiniteStructure, "__post_init__", counting)
    return calls


def test_enumeration_validates_only_its_seed(monkeypatch):
    calls = _count_validations(monkeypatch)
    assert len(enumerate_structures(builtin("G"), 5)) == 34
    # the empty seed structure; children and relabellings are trusted
    assert calls == [0]


def test_self_similarity_validates_only_its_seeds(monkeypatch):
    calls = _count_validations(monkeypatch)
    assert check_self_similarity(parse_class_expr("LO^2"), 3)
    # one empty seed: the members up to the bound come from one pass
    assert calls == [0]


@pytest.mark.parametrize(
    "tables",
    [{"E": {(0, 2)}}, {"E": {(-1, 0)}}, {"E": {(0,)}}, {"E": {(0, 1, 1)}}],
    ids=["out-of-range", "negative", "short", "long"],
)
def test_entry_points_reject_bad_tuples(tables):
    frozen = {name: frozenset(t) for name, t in tables.items()}
    with pytest.raises(OutOfRange):
        FiniteStructure(GRAPH, 2, frozen)
    with pytest.raises(OutOfRange):
        FiniteStructure.build(GRAPH, 2, tables)
    data = {
        "signature": GRAPH.to_json(),
        "size": 2,
        "relations": {name: [list(t) for t in table] for name, table in tables.items()},
    }
    with pytest.raises(OutOfRange):
        FiniteStructure.from_json(data)


@pytest.mark.parametrize("perm", [(0, 0, 1), (0, 1), (0, 1, 3), (1, 2, 3)])
def test_relabel_rejects_non_permutations(perm):
    with pytest.raises(NotBijective):
        graph(3, [(0, 1)]).relabel(perm)


def test_induced_substructure_rejects_bad_points():
    g = graph(3, [(0, 1)])
    with pytest.raises(NotBijective):
        g.induced_substructure((0, 0))
    with pytest.raises(OutOfRange):
        g.induced_substructure((0, 3))
    with pytest.raises(OutOfRange):
        g.induced_substructure((-1,))

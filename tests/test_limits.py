import hashlib
import itertools
import random

import numpy as np
import pytest

from fraisse import kernels
from fraisse.classes import builtin, parse_class_expr
from fraisse.errors import NotAmalgamation
from fraisse.limits import (
    GenericModel,
    build_box_model,
    build_generic_model,
    build_order_box_model,
    check_extension_property,
    order_box_embedding,
)
from fraisse.structures import enumerate_structures, find_embeddings


def test_box_model_shape():
    model = build_box_model(2, 3)
    assert model.structure.size == 27
    assert model.certified_level == 2
    names = list(model.structure.signature.names)
    assert names == ["E#0", "E#1"]
    # coordinate semantics: (0,0,0) vs (0,1,2) agree exactly in coordinate 0
    assert model.structure.holds("E#0", (0, 5 * 1))  # indices of lex order
    report = check_extension_property(model, 2)
    assert report


def test_order_box_embedding_is_strong():
    model = build_order_box_model(2, 5)
    pattern = enumerate_structures(parse_class_expr("LO^2"), 3)[2]
    mapping = order_box_embedding(pattern, model)
    for name in pattern.signature.names:
        for a in range(3):
            for b in range(3):
                assert pattern.holds(name, (a, b)) == model.structure.holds(
                    name, (mapping[a], mapping[b])
                )


def test_generic_graph_level_2():
    model = build_generic_model(builtin("G"), level=2, size_cap=128)
    assert model.meta["closed"]
    assert model.certified_level == 2
    assert model.structure.size == 22
    assert check_extension_property(model, 2)


def test_generic_graph_level_3_frozen_size(graph_model):
    assert graph_model.structure.size == 86
    assert graph_model.certified_level == 3
    assert graph_model.meta["closed"]


def test_level_3_graph_contains_every_4_point_graph(graph_model):
    for pattern in enumerate_structures(builtin("G"), 4):
        assert find_embeddings(pattern, graph_model.structure, limit=1)


def reference_missing_demands(adj, vmax, level):
    """Plain loops over subsets, points and masks, in the kernel's order."""
    n = len(adj)
    out = []
    for size in range(1, min(level, 3) + 1):
        for head in itertools.combinations(range(vmax), size - 1):
            points = head + (vmax,)
            realized = {
                sum(int(adj[d][v]) << bit for bit, d in enumerate(points))
                for v in range(n)
                if v not in points
            }
            out.extend(
                (points, mask) for mask in range(2**size) if mask not in realized
            )
    return out


def random_graph(n, density, rng):
    adj = np.zeros((n, n), dtype=np.uint8)
    for a, b in itertools.combinations(range(n), 2):
        if rng.random() < density:
            adj[a, b] = adj[b, a] = 1
    return adj


@pytest.mark.parametrize("block_rows", [7, 4096])
def test_block_demand_scan_matches_plain_loops(monkeypatch, block_rows):
    # a small block size makes the level-3 scans cross block boundaries
    monkeypatch.setattr(kernels, "_BLOCK_ROWS", block_rows)
    rng = random.Random(20200706)
    sizes = [1, 2, 3, 4] + sorted(rng.sample(range(5, 41), 8)) + [40]
    for n in sizes:
        adj = random_graph(n, rng.choice([0.1, 0.5, 0.9]), rng)
        for vmax in range(n):
            for level in (1, 2, 3):
                assert kernels.missing_graph_demands(adj, vmax, level) == (
                    reference_missing_demands(adj, vmax, level)
                ), (n, vmax, level)


# sha256 of build_generic_model(G, level, 200).dumps(), frozen from the
# closure before the block demand scan replaced the per-subset scan
GENERIC_GRAPH_SHA256 = {
    1: "a17a7b9a1fb8ea54876f72037a8ded5e16f36bc661e452b61e2c50692f8cef38",
    2: "5b1bd08710bc584abe97cce8120cedf9a6525b8fbf98532a1fff50c47d7459ac",
    3: "6a0a0683ac5ab123314acbdce72924e5a6b4b1d69afc6adc816af46fd6e8bf3e",
}


@pytest.mark.parametrize("level", [1, 2, 3])
def test_generic_graph_models_are_pinned(level, graph_model):
    if level == 3:
        model = graph_model
    else:
        model = build_generic_model(builtin("G"), level=level, size_cap=200)
    digest = hashlib.sha256(model.dumps().encode()).hexdigest()
    assert digest == GENERIC_GRAPH_SHA256[level]


def test_generic_order_hits_cap_and_stays_uncertified():
    model = build_generic_model(builtin("LO"), level=1, size_cap=16)
    assert model.meta["closed"] is False
    assert model.certified_level == -1


def test_generic_equivalence_model_closes():
    model = build_generic_model(builtin("E"), level=2, size_cap=256)
    assert model.meta["closed"]
    assert model.certified_level == 2


def test_superposition_model_closes():
    model = build_generic_model(parse_class_expr("G^2"), level=1, size_cap=128)
    assert model.meta["closed"]
    assert model.certified_level == 1


def test_order_superposition_hits_cap():
    model = build_generic_model(parse_class_expr("LO*G"), level=1, size_cap=64)
    assert model.meta["closed"] is False
    assert model.certified_level == -1


def test_amalgamation_precheck_rejects_bad_class():
    # matchings (graphs of maximum degree 1) fail strong amalgamation:
    # two edges through a shared point force degree 2
    from fraisse.classes import ClassSpec, MembershipPredicate
    from fraisse.structures import Signature

    def max_degree_one(s):
        degrees = [0] * s.size
        for a, b in s.relations["E"]:
            if a < b:
                degrees[a] += 1
                degrees[b] += 1
        return all(d <= 1 for d in degrees)

    pred = MembershipPredicate(max_degree_one, ("E",), ("E",), "matching")
    spec = ClassSpec(
        "matching",
        Signature((("E", 2),)),
        (("E", frozenset(("symmetric", "irreflexive"))),),
        (pred,),
    )
    with pytest.raises(NotAmalgamation):
        build_generic_model(spec, level=1, size_cap=16)


def test_model_json_round_trip(graph_model):
    again = GenericModel.loads(graph_model.dumps())
    assert again.structure == graph_model.structure
    assert again.certified_level == graph_model.certified_level

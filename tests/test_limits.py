import hashlib
import itertools
import random

import pytest

from fraisse import kernels
from fraisse.classes import ClassSpec, builtin, parse_class_expr
from fraisse.errors import NotAmalgamation, OutOfRange
from fraisse.limits import (
    GenericModel,
    build_box_model,
    build_generic_model,
    build_order_box_model,
    check_extension_property,
    equality_grid,
    order_box_embedding,
    order_grid,
)
from fraisse.structures import Signature, enumerate_structures, find_embeddings


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


def reference_missing_demands(rows, vmax, level):
    """Plain loops over subsets, points and masks, in the kernel's order."""
    n = len(rows)
    out = []
    for size in range(1, level + 1):
        for head in itertools.combinations(range(vmax), size - 1):
            points = head + (vmax,)
            realized = {
                sum((rows[d] >> v & 1) << bit for bit, d in enumerate(points))
                for v in range(n)
                if v not in points
            }
            out.extend(
                (points, mask) for mask in range(2**size) if mask not in realized
            )
    return out


def random_graph(n, density, rng):
    """Neighbour sets of a random graph, as int bitsets."""
    rows = [0] * n
    for a, b in itertools.combinations(range(n), 2):
        if rng.random() < density:
            rows[a] |= 1 << b
            rows[b] |= 1 << a
    return rows


# each prefix pass of the scan decides a block of subsets prefix + (d, vmax)
# at once; three seeds of random graphs check it against the plain loops
@pytest.mark.parametrize("seed", [7, 4096, 20200706])
def test_block_demand_scan_matches_plain_loops(seed):
    rng = random.Random(seed)
    sizes = [1, 2, 3, 4] + sorted(rng.sample(range(5, 41), 8)) + [40]
    for n in sizes:
        rows = random_graph(n, rng.choice([0.1, 0.5, 0.9]), rng)
        # level 4 only on the smaller graphs, where the loops stay quick
        levels = (1, 2, 3, 4) if n <= 24 else (1, 2, 3)
        for vmax in range(n):
            for level in levels:
                assert kernels.missing_graph_demands(rows, vmax, level) == (
                    reference_missing_demands(rows, vmax, level)
                ), (n, vmax, level)


def test_level_3_graph_is_refuted_at_level_4(graph_model):
    report = check_extension_property(graph_model, 4)
    assert report.to_json() == {
        "bound": 4,
        "check": "extension-property",
        "status": "refuted",
        "witness": {"subset": [0, 1, 4, 6], "type_mask": 3},
    }
    # the witness is a real gap: no point outside the subset has that type
    rows = graph_model.structure.bit_rows["E"][0]
    subset = report.witness["subset"]
    assert all(
        sum((rows[d] >> v & 1) << bit for bit, d in enumerate(subset)) != 3
        for v in range(graph_model.size)
        if v not in subset
    )


def test_capped_level_4_graph_is_uncertified():
    model = build_generic_model(builtin("G"), 4, 100, check_amalgamation=False)
    assert (model.size, model.certified_level, model.meta["closed"]) == (100, -1, False)
    assert not check_extension_property(model, 4)


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


# sha256 of build_generic_model(spec, level, cap, check_amalgamation=False)
# .dumps() on the generic (non-graph) closure path, frozen from the closure
# before the demand scan and the 1-type enumeration were merged
GENERIC_MODEL_SHA256 = {
    ("E", 1, 200): "455d034e39e3714100ae2d1cb325483afabbe0c5f83ed0aa99924d76eca8d313",
    ("E", 2, 200): "1952e0442cffa8d3a2f268e6d99267611eaccad95c033eec17c03f458a9b3caa",
    ("E", 3, 200): "236c2bf5a14213092edfb4ef60c9d19f1c11b4087451f5491276a4b2339c9ae5",
    ("T", 1, 200): "4e34cb4ba98f594eaff791c564d6458d40bb39024e86cc09275f6f790509822c",
    ("T", 2, 200): "8a08e967f20bfbaca81427e650d7d301306e26873d764f9e942fbbfece9f3b72",
    ("G^2", 1, 64): "6b97675cb3a407a65d33e69b24388a0f6b717367aaee32d08b2014394500343e",
    ("E*G", 1, 64): "550ed15d5775df3ab3ae16ee8ba153852acfd635b18e48854aa5e1a77e1180f2",
    ("LO", 2, 16): "7c22f37580f48c85d08d0aa171f489481eae445c1ffb18fbf565bf39b06211af",
    ("LO*G", 2, 16): "4570d5a0d2a0a96734d66cdd5a836c9efa3fa8c264ef00a0394f002daf047209",
    # frozen before the transitivity screen closed triangles through the
    # new point
    ("E^2", 1, 24): "19e87b1170c2e27dd5af180ac5555eec8c856b4ae83de60e164c0274d825c36c",
    ("E^2", 2, 24): "4ebcdedcad28a9fc7329f22d73a9dea93535a0d68cc29ff7ce7c6c3fdfbbaf68",
    ("E*LO", 1, 24): "e2aa06d6d5bc1b0707435454ec52022c03119cc9eca0a36b934ddd3e10af5371",
}


@pytest.mark.parametrize("name,level,cap", sorted(GENERIC_MODEL_SHA256))
def test_generic_closure_models_are_pinned(name, level, cap):
    model = build_generic_model(
        parse_class_expr(name), level, cap, check_amalgamation=False
    )
    digest = hashlib.sha256(model.dumps().encode()).hexdigest()
    assert digest == GENERIC_MODEL_SHA256[(name, level, cap)]


# check_extension_property(model, check_level).to_json() for generic-path
# models checked above their certified level, frozen like the digests above
REFUTED_EXTENSION_CHECKS = {
    ("E", 2, 3): {
        "bound": 3,
        "check": "extension-property",
        "status": "refuted",
        "witness": {"subset": [0, 1, 4], "type": {"E": [[3, 3]]}},
    },
    ("T", 1, 2): {
        "bound": 2,
        "check": "extension-property",
        "status": "refuted",
        "witness": {"subset": [0, 1], "type": {"<": [[0, 2], [1, 2]]}},
    },
}


@pytest.mark.parametrize("name,level,check_level", sorted(REFUTED_EXTENSION_CHECKS))
def test_generic_extension_refutations_are_pinned(name, level, check_level):
    model = build_generic_model(
        parse_class_expr(name), level, 200, check_amalgamation=False
    )
    report = check_extension_property(model, check_level)
    assert report.to_json() == REFUTED_EXTENSION_CHECKS[(name, level, check_level)]


@pytest.mark.parametrize("name", ["G", "E"])  # graph path and generic path
@pytest.mark.parametrize("level", [-1, 0, 1])
def test_extension_check_on_empty_model(name, level):
    spec = builtin(name)
    model = GenericModel(spec.empty_structure(), spec, -1)
    report = check_extension_property(model, level)
    # at level -1 the check is vacuous; from level 0 on, not even the type
    # over the empty set is realized
    assert bool(report) == (level < 0)
    if level >= 0:
        assert report.witness == {"subset": [], "reason": "empty model"}


def test_equivalence_square_closes_at_level_2():
    # before the screen closed triangles through the new point, this ran
    # for more than ten minutes: transitivity failed only at the leaves
    model = build_generic_model(parse_class_expr("E^2"), 2, 64, check_amalgamation=False)
    assert model.meta["closed"]
    assert (model.size, model.certified_level) == (60, 2)
    digest = hashlib.sha256(model.dumps().encode()).hexdigest()
    assert digest == "7494190f46dccd5184eed24ad9f4052a1cc69a340c8ae04977b853930c4de665"


@pytest.mark.parametrize("level", [-1, -3])
def test_negative_level_is_rejected(level):
    with pytest.raises(ValueError):
        build_generic_model(builtin("G"), level=level, size_cap=16)


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
    from fraisse.classes import MembershipPredicate

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
    with pytest.raises(NotAmalgamation, match="at bound 2$"):
        build_generic_model(spec, level=1, size_cap=16)


def _one_relation(name, props):
    return ClassSpec(name, Signature((("R", 2),)), (("R", frozenset(props)),))


@pytest.mark.parametrize(
    "props,level,closed,size",
    [
        # two one-point members, a loop and none, that cannot share a
        # model: no two-point member exists, so joint embedding fails
        (("symmetric", "trichotomous"), 1, False, 1),
        # loops free: both one-point types are demanded over the empty set
        (("symmetric",), 0, True, 2),
    ],
)
def test_certificate_agrees_with_the_extension_check(props, level, closed, size):
    spec = _one_relation("R", props)
    model = build_generic_model(spec, level, 16)
    assert (model.meta["closed"], model.size) == (closed, size)
    assert model.certified_level == (level if closed else -1)
    assert bool(check_extension_property(model, level)) == closed


def test_class_without_one_point_members_has_no_model():
    spec = _one_relation("R", ("reflexive", "irreflexive"))
    with pytest.raises(NotAmalgamation, match="admits no one-point structure"):
        build_generic_model(spec, level=1, size_cap=16)


@pytest.mark.parametrize("name", ["G", "LO", "E"])
@pytest.mark.parametrize("level", [0, 1, 2])
def test_size_cap_zero_is_never_certified(name, level):
    # the type over the empty set is demanded at every level
    model = build_generic_model(builtin(name), level=level, size_cap=0)
    assert (model.size, model.meta["closed"], model.certified_level) == (0, False, -1)
    assert check_extension_property(model, level).status == "refuted"


@pytest.mark.parametrize("name", ["G", "LO", "E"])
def test_negative_size_cap_is_rejected(name):
    with pytest.raises(ValueError, match="size cap -1 < 0"):
        build_generic_model(builtin(name), level=2, size_cap=-1)


def test_model_json_round_trip(graph_model):
    again = GenericModel.loads(graph_model.dumps())
    assert again.structure == graph_model.structure
    assert again.certified_level == graph_model.certified_level


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_box_model(2, 3),
        lambda: build_order_box_model(2, 3),
        lambda: build_generic_model(builtin("G"), level=2, size_cap=64),
        lambda: build_generic_model(builtin("E"), level=2, size_cap=64),
        lambda: build_generic_model(builtin("LO"), level=1, size_cap=16),
        lambda: build_generic_model(builtin("T"), level=1, size_cap=16),
    ],
    ids=["box", "order-box", "closure-G", "closure-E", "closure-LO", "closure-T"],
)
def test_builders_return_members_of_their_class(build):
    # a model is checked only when read from JSON: every builder must return a member
    model = build()
    assert model.spec.admits(model.structure)


@pytest.mark.parametrize("grid", [equality_grid, order_grid])
def test_grid_of_a_non_binary_spec_is_rejected(grid):
    with pytest.raises(OutOfRange):
        grid([(0,), (1,)], builtin("H3"))

import hashlib
import itertools
import json

import pytest

from fraisse.classes import builtin, parse_class_expr, power
from fraisse.config import ConfigCertificate, identity_interpretation, verify_configuration
from fraisse.errors import HypothesisUnmet
from fraisse.limits import box_tuples, build_order_box_model, equality_grid, order_grid
from fraisse.ranks import (
    QuadConstruction,
    all_bipartite_codes,
    bipartite_counts,
    build_E_box_configuration,
    build_E_into_orders,
    build_quad_configuration,
    compute_rank_table,
    counting_upper_bound,
    extend_target_with,
    extract_ICT_pattern,
    extract_IRD_pattern,
    pad_interpretation,
    verify_dagger_base_case,
    _class_coordinates,
)
from fraisse.structures import FiniteStructure, enumerate_structures_upto
from reference_search import reference_witness_graph

QUAD_CLASSES = ("LO", "G", "E", "T")


# -- bipartite codes ----------------------------------------------------------------


def test_bipartite_counts_against_enumeration():
    assert bipartite_counts(1) == (2, 2, 0)
    assert bipartite_counts(2) == (16, 8, 8)
    assert bipartite_counts(3) == (512, 64, 448)


def test_transpose_involution_and_symmetry():
    for code in all_bipartite_codes(2):
        assert code.transpose().transpose() == code
        assert code.is_symmetric() == (code == code.transpose())


# -- the quad construction ---------------------------------------------------------------


# sha256 of build_quad_configuration(K, 2, graph_model)[1].dumps() at bound 3,
# and for LO at bound 4, frozen before formulas were compiled to truth
# tables and pair codes were read from a table
QUAD_B3_SHA256 = {
    "LO": "738091eba1cdb1e9b858b5fdc6c9e792c1cd4deac32aa27c30e9e7239d23c362",
    "G": "da881c0abfde7fa67870ec106890a3ca6725229fa3f20b8858a329ef5ac5094f",
    "E": "9a0367cea03528ef622b4e803675d7e96cb7c916b6f0a03e3666ad3f8e6eae48",
    "T": "44d70e977083a2ca34999ccc7bb70e4f2edefe460ce012159ad9992e36eee80a",
}
QUAD_LO_B4_SHA256 = "f6237066a778b39cc09d3b54e9ae527a15832c18850fa649acbf06acdd977d29"


@pytest.mark.parametrize("name", QUAD_CLASSES)
def test_quad_certificate_at_bound_3(name, graph_model):
    interp, cert = build_quad_configuration(builtin(name), 2, graph_model)
    assert interp.tuple_length == 2
    assert len(interp.formulas) == 3
    assert cert.recheck()
    assert hashlib.sha256(cert.dumps().encode()).hexdigest() == QUAD_B3_SHA256[name]


def test_quad_LO_certificate_at_bound_4_is_pinned(graph_model):
    _, cert = build_quad_configuration(builtin("LO"), 2, graph_model, bound=4)
    assert hashlib.sha256(cert.dumps().encode()).hexdigest() == QUAD_LO_B4_SHA256


# sha256 of build_quad_configuration(E, 2, graph_model, bound=4)[1].dumps(),
# frozen before forward checking replaced plain backtracking in
# find_embeddings
QUAD_E_B4_SHA256 = "22eca7ab122350279307c13ae3a284087127bd73fd3b17fd501f727ed5c68b15"


def test_quad_E_certificate_at_bound_4_is_pinned(graph_model):
    _, cert = build_quad_configuration(builtin("E"), 2, graph_model, bound=4)
    assert hashlib.sha256(cert.dumps().encode()).hexdigest() == QUAD_E_B4_SHA256


@pytest.mark.parametrize("name,bound", [(name, 3) for name in QUAD_CLASSES] + [("E", 4)])
def test_witness_graph_matches_pair_type_reference(name, bound):
    qc = QuadConstruction(builtin(name), 2)
    for structure in enumerate_structures_upto(qc.power_spec, bound):
        assert qc.witness_graph(structure) == reference_witness_graph(qc, structure)


def test_witness_graph_rejects_a_pair_type_outside_h():
    qc = QuadConstruction(builtin("LO"), 2)
    # a pair related both ways is no type of LO^3
    names = qc.power_spec.signature.names
    both_ways = FiniteStructure.build(
        qc.power_spec.signature, 2, {name: {(0, 1), (1, 0)} for name in names}
    )
    with pytest.raises(KeyError):
        qc.witness_graph(both_ways)


@pytest.mark.parametrize("name", QUAD_CLASSES)
@pytest.mark.parametrize("n", [2, 3])
def test_quad_injection_respects_case_constraints(name, n):
    qc = QuadConstruction(builtin(name), n)
    flat = [c for codes in qc.h.values() for c in codes]
    assert len(set(flat)) == len(flat)
    if qc.trichotomous:
        for p, codes in qc.h.items():
            assert not codes[0].is_symmetric()
            assert qc.h[p.star()][0] == codes[0].transpose()
    else:
        for p, codes in qc.h.items():
            orbit = {codes[0], codes[0].transpose()}
            assert set(codes) == orbit or set(codes) == {codes[0]}


def test_quad_rejects_reflexive_trichotomous():
    from fraisse.classes import ClassSpec
    from fraisse.structures import Signature

    weird = ClassSpec(
        "RT",
        Signature((("<", 2),)),
        (("<", frozenset(("reflexive", "trichotomous"))),),
    )
    with pytest.raises(HypothesisUnmet):
        QuadConstruction(weird, 2)


def test_quad_capacity_is_sufficient_for_G():
    # 2^(n^2 - 1) + 2^(C(n+1,2) - 1) orbits cover the 2^m types at n = 2
    qc = QuadConstruction(builtin("G"), 2)
    assert len(qc.types) == 8 <= 12


# -- counting upper bounds -----------------------------------------------------------------


def test_counting_values():
    assert counting_upper_bound(builtin("G"), 2)["value"] == 3
    assert counting_upper_bound(builtin("LO"), 1)["value"] == 0
    assert counting_upper_bound(builtin("G"), 1)["value"] == 1
    assert counting_upper_bound(builtin("E"), 1)["value"] == 1
    assert counting_upper_bound(builtin("E"), 2)["value"] == 4  # not self-similar
    assert counting_upper_bound(builtin("T"), 2)["value"] == 3


def test_counting_rejects_non_fully_relational():
    from fraisse.classes import ClassSpec
    from fraisse.structures import Signature

    empty_rel = ClassSpec(
        "NONE",
        Signature((("E", 2),)),
        (("E", frozenset(("symmetric", "irreflexive")),),),
        (
            __import__("fraisse.classes", fromlist=["MembershipPredicate"])
            .MembershipPredicate(
                lambda s: not s.relations["E"], ("E",), ("E",), "edgeless"
            ),
        ),
    )
    with pytest.raises(HypothesisUnmet):
        counting_upper_bound(empty_rel, 2)


# -- equality boxes ------------------------------------------------------------------------


def test_E_box_configuration():
    interp, cert = build_E_box_configuration(2, 27, bound=3)
    assert interp.tuple_length == 3
    assert cert.recheck()


def test_E_box_m1_two_equivalent_points():
    interp, cert = build_E_box_configuration(1, 4, bound=2)
    # the 2-point fully equivalent member gets equal first coordinates
    for structure, witness in zip(cert.structures, cert.witnesses):
        if structure.size == 2 and structure.holds("E", (0, 1)):
            assert witness[0][0] == witness[1][0]
            assert witness[0][1] != witness[1][1]
            break
    else:
        pytest.fail("no fully equivalent pair among the members")


def test_class_coordinates_general_position():
    spec = power(builtin("E"), 2)
    grid = list(itertools.product(range(2), repeat=2))
    structure = equality_grid(grid, spec)
    coords = _class_coordinates(structure)
    assert all(max(c) <= 3 for c in coords)
    assert len(set(coords)) == len(coords)


# -- equivalences inside stacked orders -------------------------------------------------------


@pytest.mark.parametrize("k,m,types", [(2, 1, 4), (3, 1, 8), (4, 2, 16)])
def test_E_into_orders(k, m, types):
    target = build_order_box_model(k, 4, budget=4096)
    interp, cert, record = build_E_into_orders(k, target, bound=4 if k == 4 else 3)
    assert len(interp.formulas) == m
    assert cert.recheck()
    assert record["non_equality_pair_types"] == record["expected"] == types
    assert record["pigeonhole_holds"]
    assert record["upper"] == k - 1


# -- pattern extraction -------------------------------------------------------------------------


def test_IRD_single_order():
    model = build_order_box_model(1, 8, budget=4096)
    from fraisse.limits import order_box_embedding

    ident = identity_interpretation(builtin("LO"))

    def witness(structure):
        return [(v,) for v in order_box_embedding(structure, model)]

    pattern = extract_IRD_pattern(ident, model, 2, witness=witness)
    assert pattern.verify(model.structure)
    assert [g for g, _ in pattern.rows] == [(0,), (1,)]


def test_corrupted_pattern_is_refuted_with_a_json_bool():
    model = build_order_box_model(1, 8, budget=4096)
    from fraisse.limits import order_box_embedding

    ident = identity_interpretation(builtin("LO"))

    def witness(structure):
        return [(v,) for v in order_box_embedding(structure, model)]

    pattern = extract_IRD_pattern(ident, model, 2, witness=witness)
    # rows swapped: g = 0 now carries the tuple above column 1
    pattern.rows = [(g, t) for (g, _), (_, t) in zip(pattern.rows, pattern.rows[::-1])]
    report = pattern.verify(model.structure)
    assert report.status == "refuted"
    assert json.loads(report.dumps())["witness"] == {"g": [0], "i": 0, "j": 1, "value": False}


def test_IRD_two_orders_length_3():
    model = build_order_box_model(2, 12, budget=4096)
    from fraisse.limits import order_box_embedding

    ident = identity_interpretation(parse_class_expr("LO^2"))

    def witness(structure):
        return [(v,) for v in order_box_embedding(structure, model)]

    pattern = extract_IRD_pattern(ident, model, 3, witness=witness)
    assert len(pattern.rows) == 9
    assert pattern.verify(model.structure)


def test_ICT_box_interpretation():
    interp, cert = build_E_box_configuration(2, 8, bound=3)
    pattern = extract_ICT_pattern(
        interp, cert.target, 2, witness=_class_coordinates
    )
    assert len(pattern.rows) == 4
    assert pattern.verify(cert.target.structure)


def _quad_pattern_target(name, carrier, graph_model):
    qc = QuadConstruction(builtin(name), 2, edge_relation="E")
    pattern_graph = qc.witness_graph(carrier)
    extended, offset = extend_target_with(pattern_graph, graph_model)

    def witness(structure):
        return [
            tuple(offset + a * 2 + i for i in range(2))
            for a in range(structure.size)
        ]

    return qc, extended, witness


def test_ICT_depth_3_via_quad(graph_model):
    spec = power(builtin("E"), 3)
    grid = list(itertools.product(range(2), repeat=3))
    carrier = equality_grid(grid, spec)
    qc, extended, witness = _quad_pattern_target("E", carrier, graph_model)
    pattern = extract_ICT_pattern(qc.interpretation, extended, 2, witness=witness)
    assert pattern.kind == "ICT" and pattern.m == 3
    assert pattern.verify(extended.structure)


def test_IRD_depth_3_via_quad(graph_model):
    spec = power(builtin("LO"), 3)
    gs = list(itertools.product(range(2), repeat=3))
    rows = [tuple(2 * c + 1 for c in g) for g in gs]
    cols = [tuple([2 * j] * 3) for j in range(2)]
    carrier = order_grid(rows + cols, spec)
    qc, extended, witness = _quad_pattern_target("LO", carrier, graph_model)
    pattern = extract_IRD_pattern(qc.interpretation, extended, 2, witness=witness)
    assert pattern.kind == "IRD" and pattern.m == 3
    assert pattern.verify(extended.structure)


# -- base-case arithmetic --------------------------------------------------------------------------


def test_dagger_base_case(graph_model):
    report = verify_dagger_base_case(model=graph_model)
    assert report
    assert report.details["a"]["identified_count"] == 12
    assert report.details["a"]["raw_codes_realized"] == 16
    assert report.details["c"] == {"lhs": 13, "rhs": 12, "holds": True}
    n3 = report.details["b"][0]
    assert (n3["n"], n3["lhs"], n3["rhs"]) == (3, 488, 288)
    assert len(report.details["b"]) == 8


# -- rank table ---------------------------------------------------------------------------------------


EXPECTED_RANKS = {
    "LO": [(1, 0, 0), (2, 3, 3)],
    "T": [(1, 0, 0), (2, 3, 3)],
    "G": [(1, 1, 1), (2, 3, 3)],
    "E": [(1, 1, 1), (2, 3, 3)],
}


@pytest.mark.parametrize("name", sorted(EXPECTED_RANKS))
def test_rank_table(name, graph_model):
    results = compute_rank_table(builtin(name), 2, graph_model)
    got = [(r.n, r.lower, r.upper) for r in results]
    assert got == EXPECTED_RANKS[name]
    for r in results:
        assert r.exact == r.lower
        if r.lower >= 1:
            assert r.lower_certificate is not None
            assert r.lower_certificate.recheck()


def test_rank_json_shape(graph_model):
    result = compute_rank_table(builtin("LO"), 2, graph_model)[1]
    data = result.to_json()
    assert data["class"] == "LO" and data["n"] == 2
    assert data["lower"]["m"] == 3 and data["upper"]["m"] == 3
    assert data["exact"] == 3


# -- invariants --------------------------------------------------------------------------------------


def test_superadditivity_of_products(graph_model):
    from fraisse.config import product_configuration

    ident = identity_interpretation(builtin("G"))
    prod = product_configuration(ident, ident)
    assert isinstance(verify_configuration(prod, graph_model, 3), ConfigCertificate)


def test_padding_monotonicity(graph_model):
    ident = identity_interpretation(builtin("G"))
    padded = pad_interpretation(ident, 2)
    assert isinstance(verify_configuration(padded, graph_model, 3), ConfigCertificate)


def test_two_color_first_coordinate_invariant():
    # color 0 = strictly increasing first pair of coordinates; within class 0,
    # relation-1 neighborhoods have first coordinates bounded by the anchor
    for n in range(2, 7):
        points = box_tuples(2, n)
        class0 = [p for p in points if p[0] < p[1]]
        for a in class0:
            for b in class0:
                if b[1] == a[1]:  # second-coordinate agreement
                    assert b[0] < a[1]

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraisse.config
from fraisse.classes import builtin, superpose
from fraisse.config import (
    And,
    Atom,
    ConfigCertificate,
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
    parse_formula,
    product_configuration,
    restrict_to_reductive_subclass,
    transfer_certificate_parameter_free,
    transfer_certificate_to_subclass,
    verify_configuration,
)
from fraisse.errors import (
    NotParameterFree,
    NotReductive,
    OutOfRange,
    SignatureMismatch,
    UnknownRelation,
)
from fraisse.report import VerificationReport


# -- formulas ---------------------------------------------------------------------


def test_parse_atoms_and_refs():
    f = parse_formula("E(0.1, 1.0)")
    assert f == Atom("E", (Coord(0, 1), Coord(1, 0)))
    assert parse_formula("0.0 = p2") == Eq(Coord(0, 0), Param(2))


def test_parse_precedence():
    f = parse_formula("E(0.0, 1.0) | !E(0.0, 1.1) & 0.0 = 1.0")
    assert isinstance(f, Or)
    assert isinstance(f.parts[1], And)


def test_render_parse_fixed_cases():
    for text in (
        "!(E(0.0, 1.0) & 0.0 = 1.0)",
        "true",
        "false",
        "E(0.0, 0.1) | !E(1.0, 1.1)",
    ):
        f = parse_formula(text)
        assert parse_formula(f.render()) == f


@st.composite
def formulas(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        kind = draw(st.sampled_from(["atom", "eq"]))
        refs = st.one_of(
            st.builds(Coord, st.integers(0, 1), st.integers(0, 2)),
            st.builds(Param, st.integers(0, 2)),
        )
        if kind == "atom":
            return Atom("E", (draw(refs), draw(refs)))
        return Eq(draw(refs), draw(refs))
    kind = draw(st.sampled_from(["not", "and", "or"]))
    if kind == "not":
        return Not(draw(formulas(depth=depth - 1)))
    parts = tuple(
        draw(formulas(depth=depth - 1))
        for _ in range(draw(st.integers(2, 3)))
    )
    return And(parts) if kind == "and" else Or(parts)


@settings(max_examples=150, deadline=None)
@given(formulas())
def test_render_parse_round_trip_law(f):
    assert parse_formula(f.render()) == f


def test_formula_evaluation(graph_model):
    structure = graph_model.structure
    edge = next(iter(structure.relations["E"]))
    f = compile_formula(parse_formula("E(0.0, 1.0)"), structure, ())
    assert f((0, 1), edge) == 1
    g = compile_formula(parse_formula("!E(0.0, 1.0)"), structure, ())
    assert g((0, 1), edge) == 0
    # a point outside the universe holds no atom, not even through wrapping
    last = structure.size - 1
    assert any((last, v) in structure.relations["E"] for v in range(structure.size))
    assert not any(f((0, 1), (-1, v)) for v in range(structure.size))


# -- interpretation maps --------------------------------------------------------------


def test_interpretation_validates_references():
    G = builtin("G")
    with pytest.raises(OutOfRange):
        InterpretationMap(
            G, G.signature, 1, (), (("E", parse_formula("E(0.0, 1.1)")),)
        )
    with pytest.raises(OutOfRange):
        InterpretationMap(
            G, G.signature, 1, (), (("E", parse_formula("0.0 = p0")),)
        )
    with pytest.raises(SignatureMismatch):
        InterpretationMap(G, G.signature, 1, (), ())


@pytest.mark.parametrize(
    "formula,error",
    [
        ("E(0.0)", OutOfRange),
        ("E(0.0, 1.0, 0.0)", OutOfRange),
        ("F(0.0, 1.0)", UnknownRelation),
        ("!(0.0 = 1.0) & E(0.0)", OutOfRange),
    ],
)
def test_interpretation_checks_atoms_against_the_target_signature(formula, error):
    G = builtin("G")
    with pytest.raises(error):
        InterpretationMap(G, G.signature, 1, (), (("E", parse_formula(formula)),))


def test_interpretation_json_round_trip():
    ident = identity_interpretation(builtin("G"))
    assert InterpretationMap.loads(ident.dumps()) == ident


# -- verification ------------------------------------------------------------------------


def test_identity_certificate(graph_model):
    cert = verify_configuration(
        identity_interpretation(builtin("G")), graph_model, 3
    )
    assert isinstance(cert, ConfigCertificate)
    assert cert.recheck()


def test_each_search_check_is_compiled_once(graph_model, monkeypatch):
    # E(0.0, 1.0) read on index points (a, b) leaves 1.0 free where a < b,
    # 0.0 where a > b and both where a = b; each free set is compiled at
    # most once per expected truth, not once per index tuple
    compile_formula = fraisse.config.compile_formula
    free_sets = []

    def counting(formula, target, params, free=frozenset()):
        free_sets.append(free)
        return compile_formula(formula, target, params, free)

    monkeypatch.setattr(fraisse.config, "compile_formula", counting)
    cert = verify_configuration(identity_interpretation(builtin("G")), graph_model, 4)
    assert isinstance(cert, ConfigCertificate)
    a, b = Coord(0, 0), Coord(1, 0)
    assert set(free_sets) == {frozenset({b}), frozenset({a}), frozenset({a, b})}
    assert len(free_sets) <= 2 * 3


def test_refutation_with_sufficient_level(graph_model):
    E = builtin("E")
    bad = InterpretationMap(
        E,
        graph_model.structure.signature,
        1,
        (),
        (("E", parse_formula("!(0.0 = 1.0)")),),
    )
    outcome = verify_configuration(bad, graph_model, 2)
    assert isinstance(outcome, VerificationReport)
    assert outcome.status == "refuted"


def test_inconclusive_when_target_too_small():
    from fraisse.limits import GenericModel
    from fraisse.structures import FiniteStructure, Signature

    tiny = GenericModel(
        FiniteStructure.build(Signature((("E", 2),)), 1),
        builtin("G"),
        0,
        meta={},
    )
    outcome = verify_configuration(
        identity_interpretation(builtin("G")), tiny, 2
    )
    assert outcome.status == "inconclusive"
    assert outcome.details["consumed_level"] == 2


def test_jobs_agree_with_sequential(graph_model):
    ident = identity_interpretation(builtin("G"))
    for interp in (ident, product_configuration(ident, ident)):
        seq = verify_configuration(interp, graph_model, 3)
        par = verify_configuration(interp, graph_model, 3, jobs=4)
        assert seq.to_json() == par.to_json()


def test_product_at_bound_4_within_budget(graph_model):
    # plain backtracking ran out of 100,000 nodes on some of the 301 index
    # structures; forward checking needs a handful per structure
    ident = identity_interpretation(builtin("G"))
    cert = verify_configuration(
        product_configuration(ident, ident), graph_model, 4, budget=100_000
    )
    assert isinstance(cert, ConfigCertificate)
    assert len(cert.structures) == 301
    assert cert.recheck().status == "verified"


# sha256 of verify_configuration(map, graph_model, 4).dumps(), frozen from
# the plain backtracking search before forward checking replaced it
CERTIFICATE_SHA256 = {
    "identity": "c2dcf2d43f04cbc2e2a734ac7c0dbdff10c48c43a540f296003fff78a954d618",
    "composed": "c2dcf2d43f04cbc2e2a734ac7c0dbdff10c48c43a540f296003fff78a954d618",
    "padded": "fbae95acdfd5fb0134f103d73d055206472800ccda57791b3ac56f422a63554d",
}


@pytest.mark.parametrize("label", sorted(CERTIFICATE_SHA256))
def test_bound_4_certificates_are_pinned(label, graph_model):
    from fraisse.ranks import pad_interpretation

    ident = identity_interpretation(builtin("G"))
    interp = {
        "identity": ident,
        "composed": compose_configurations(ident, ident),
        "padded": pad_interpretation(ident, 2),
    }[label]
    cert = verify_configuration(interp, graph_model, 4)
    digest = hashlib.sha256(cert.dumps().encode()).hexdigest()
    assert digest == CERTIFICATE_SHA256[label]


def test_witness_search_allows_non_injective_maps(graph_model):
    # equivalence via equality of 1-tuples: equivalent points share a tuple
    E = builtin("E")
    interp = InterpretationMap(
        E,
        graph_model.structure.signature,
        1,
        (),
        (("E", parse_formula("0.0 = 1.0")),),
    )
    cert = verify_configuration(interp, graph_model, 3)
    assert isinstance(cert, ConfigCertificate)


# -- the algebra -------------------------------------------------------------------------------


def test_make_parameter_free_and_transfer(graph_model):
    G = builtin("G")
    withp = InterpretationMap(
        G,
        graph_model.structure.signature,
        1,
        (0,),
        (("E", parse_formula("E(0.0, 1.0) & !(0.0 = p0) & !(1.0 = p0)")),),
    )
    cert = verify_configuration(withp, graph_model, 2)
    assert isinstance(cert, ConfigCertificate)
    pf = make_parameter_free(withp)
    assert pf.is_parameter_free()
    assert pf.tuple_length == 2
    moved = transfer_certificate_parameter_free(cert)
    assert moved.recheck()


def test_compose_requires_parameter_free():
    G = builtin("G")
    withp = InterpretationMap(
        G, G.signature, 1, (0,), (("E", parse_formula("E(0.0, 1.0) | 0.0 = p0")),)
    )
    with pytest.raises(NotParameterFree):
        compose_configurations(withp, identity_interpretation(G))


def test_compose_identity_law(graph_model):
    ident = identity_interpretation(builtin("G"))
    composed = compose_configurations(ident, ident)
    assert composed.tuple_length == 1
    assert composed.formulas == ident.formulas
    assert isinstance(verify_configuration(composed, graph_model, 3), ConfigCertificate)


def test_product_blocks_coordinates(graph_model):
    ident = identity_interpretation(builtin("G"))
    prod = product_configuration(ident, ident)
    assert prod.tuple_length == 2
    assert prod.index_spec.name == "G*G"
    assert prod.formula("E#1") == Atom("E", (Coord(0, 1), Coord(1, 1)))
    assert isinstance(verify_configuration(prod, graph_model, 3), ConfigCertificate)


def test_restriction_to_reductive_subclass():
    G, LO, E = builtin("G"), builtin("LO"), builtin("E")
    prod_id = identity_interpretation(superpose(LO, G))
    restricted = restrict_to_reductive_subclass(prod_id, G, bound=3)
    assert restricted.index_spec.name == "G"
    assert [n for n, _ in restricted.formulas] == ["E"]
    with pytest.raises(NotReductive):
        restrict_to_reductive_subclass(identity_interpretation(G), E, bound=3)


def test_certificate_transfer_to_subclass():
    from fraisse.limits import build_generic_model

    G, LO = builtin("G"), builtin("LO")
    spec = superpose(LO, G)
    model = build_generic_model(spec, level=1, size_cap=64)
    prod_id = identity_interpretation(spec)
    cert = verify_configuration(prod_id, model, 2)
    assert isinstance(cert, ConfigCertificate)
    restricted = restrict_to_reductive_subclass(prod_id, G, bound=2)
    moved = transfer_certificate_to_subclass(cert, restricted)
    assert moved.recheck()

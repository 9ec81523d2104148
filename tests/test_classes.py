
import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraisse.classes import (
    BUILTIN_NAMES,
    ClassSpec,
    MembershipPredicate,
    PROPERTIES,
    builtin,
    check_fully_relational,
    check_property_preservation,
    check_relation_property,
    check_self_similarity,
    consistent_one_types,
    enumerate_pair_types,
    one_type,
    parse_class_expr,
    point_realizes,
    power,
    superpose,
    verify_class_axioms,
)
from fraisse import classes
from fraisse.cli import main
from fraisse.classes import _amalgam_candidate, _arm_key, _fill_relation, _find_amalgam
from fraisse.errors import (
    BudgetExceeded,
    NonBinarySignature,
    TransitivityOnNonBinary,
    UnknownRelation,
)
from fraisse.structures import (
    FiniteStructure,
    Signature,
    enumerate_structures,
    find_embeddings,
    one_point_extensions,
)
from reference_search import (
    reference_arm_key,
    reference_check_self_similarity,
    reference_extensions,
    reference_fill_relation,
    reference_pair_types,
    reference_point_realizes,
    reference_verify_amalgamation,
)


def tournament_3cycle():
    return FiniteStructure.build(
        Signature((("<", 2),)), 3, {"<": {(0, 1), (1, 2), (2, 0)}}
    )


# -- relation properties -------------------------------------------------------


def test_trichotomous_on_3cycle():
    assert check_relation_property(tournament_3cycle(), "<", "trichotomous")


def test_irreflexive_rejects_loop():
    loop = FiniteStructure.build(Signature((("E", 2),)), 1, {"E": {(0, 0)}})
    assert not check_relation_property(loop, "E", "irreflexive")
    assert check_relation_property(loop, "E", "reflexive")


def test_equivalence_has_all_three_properties():
    two_classes = FiniteStructure.build(
        Signature((("E", 2),)),
        3,
        {"E": {(0, 0), (1, 1), (2, 2), (0, 1), (1, 0)}},
    )
    for prop in ("symmetric", "reflexive", "transitive"):
        assert check_relation_property(two_classes, "E", prop)


def test_transitivity_needs_binary():
    tri = FiniteStructure.build(Signature((("R", 3),)), 3, {"R": set()})
    with pytest.raises(TransitivityOnNonBinary):
        check_relation_property(tri, "R", "transitive")


def test_unknown_relation():
    with pytest.raises(UnknownRelation):
        check_relation_property(tournament_3cycle(), "E", "symmetric")


# -- binary fast paths against the tuple-permutation reference -----------------

BINARY = Signature((("R", 2),))
CHECKED = ("symmetric", "trichotomous", "irreflexive", "transitive")


def reference_property(structure, name, prop):
    """The per-tuple permutation loops that decided every arity before the
    binary relations got their set-algebra checks."""
    arity = structure.signature.arity(name)
    table = structure.relations[name]
    n = structure.size
    if prop == "symmetric":
        return all(
            tuple(tup[i] for i in perm) in table
            for tup in table
            for perm in itertools.permutations(range(arity))
        )
    if prop == "trichotomous":
        return all(
            sum(1 for perm in itertools.permutations(combo) if perm in table) == 1
            for combo in itertools.combinations(range(n), arity)
        )
    if prop == "irreflexive":
        return all(len(set(tup)) == len(tup) for tup in table)
    assert prop == "transitive"
    return all(
        (a, c) in table
        for a, b in table
        for c in range(n)
        if (b, c) in table
    )


def assert_matches_reference(structure):
    for name, arity in structure.signature.symbols:
        for prop in CHECKED:
            if prop == "transitive" and arity != 2:
                continue
            assert check_relation_property(structure, name, prop) == (
                reference_property(structure, name, prop)
            ), (prop, name, structure.size, sorted(structure.relations[name]))


def test_binary_checks_match_reference_on_every_relation_upto_3_points():
    for n in range(4):
        pairs = list(itertools.product(range(n), repeat=2))
        for bits in range(2 ** len(pairs)):
            table = {p for i, p in enumerate(pairs) if bits >> i & 1}
            assert_matches_reference(FiniteStructure.build(BINARY, n, {"R": table}))


@pytest.mark.parametrize("expr", ["LO", "E", "G", "T", "E^2"])
def test_binary_checks_match_reference_on_members_upto_5(expr):
    for member in parse_class_expr(expr).members_upto(5):
        assert_matches_reference(member)


def test_binary_checks_match_reference_on_LO_G_upto_5():
    # every member of LO*G is isomorphic to one whose order is the natural
    # order of its points, so these are all members up to isomorphism
    spec = parse_class_expr("LO*G")
    for n in range(1, 6):
        order = {(a, b) for a, b in itertools.combinations(range(n), 2)}
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(2 ** len(pairs)):
            edges = {p for i, p in enumerate(pairs) if bits >> i & 1}
            edges |= {(b, a) for a, b in edges}
            member = FiniteStructure.build(
                spec.signature, n, {"<": order, "E": edges}
            )
            assert spec.admits(member)
            assert_matches_reference(member)


def _shaped_relation(shape, n, rng):
    """A relation on n points that is near one of the shapes the checks
    accept, so both verdicts come up."""
    perm = list(range(n))
    rng.shuffle(perm)
    if shape == "order":
        return {(perm[i], perm[j]) for i in range(n) for j in range(i + 1, n)}
    if shape == "equivalence":
        block = [rng.randrange(3) for _ in range(n)]
        return {(a, b) for a in range(n) for b in range(n) if block[a] == block[b]}
    if shape == "tournament":
        return {
            (a, b) if rng.random() < 0.5 else (b, a)
            for a, b in itertools.combinations(range(n), 2)
        }
    return {(a, b) for a in range(n) for b in range(n) if rng.random() < 0.4}


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=8),
    shape=st.sampled_from(["order", "equivalence", "tournament", "random"]),
    flips=st.integers(min_value=0, max_value=2),
    seed=st.integers(0, 10**6),
)
def test_binary_checks_match_reference_on_random_relations(n, shape, flips, seed):
    rng = random.Random(seed)
    table = _shaped_relation(shape, n, rng)
    for _ in range(flips):
        table ^= {(rng.randrange(n), rng.randrange(n))}
    assert_matches_reference(FiniteStructure.build(BINARY, n, {"R": table}))


# -- built-ins and class algebra ------------------------------------------------------


def test_builtin_names_cover_expected():
    assert set(BUILTIN_NAMES) == {"S", "LO", "E", "G", "T", "H3"}


def test_superpose_keeps_names_when_disjoint():
    spec = superpose(builtin("LO"), builtin("G"))
    assert tuple(spec.signature.names) == ("<", "E")


def test_superpose_with_empty_class_is_identity():
    spec = superpose(builtin("LO"), builtin("S"))
    assert tuple(spec.signature.names) == ("<",)
    lo = builtin("LO")
    for member in lo.members_upto(4):
        assert spec.admits(member)
    for member in spec.members_upto(4):
        assert lo.admits(member)


def test_superpose_renames_on_collision():
    spec = superpose(builtin("G"), builtin("G"))
    assert tuple(spec.signature.names) == ("E#0", "E#1")
    member = FiniteStructure.build(
        spec.signature, 2, {"E#0": {(0, 1), (1, 0)}, "E#1": set()}
    )
    assert spec.admits(member)


def test_power_names_and_parse():
    assert tuple(power(builtin("LO"), 2).signature.names) == ("<#0", "<#1")
    assert power(builtin("E"), 1).signature.names == builtin("E").signature.names
    assert parse_class_expr("LO*G").name == "LO*G"
    assert tuple(parse_class_expr("(LO^2)*S").signature.names) == ("<#0", "<#1")


# -- axiom verification -----------------------------------------------------------------


@pytest.mark.parametrize("axiom", ["hereditary", "joint_embedding", "amalgamation"])
def test_G_axioms(axiom):
    assert verify_class_axioms(builtin("G"), 3, axiom)


def test_LO_amalgamation():
    report = verify_class_axioms(builtin("LO"), 3, "amalgamation")
    assert report and report.bound == 3


def test_G_strong_amalgamation():
    assert verify_class_axioms(builtin("G"), 3, "strong_amalgamation")


def at_most_one_P():
    sig = Signature((("P", 1),))
    pred = MembershipPredicate(
        lambda s: len(s.relations["P"]) <= 1, ("P",), ("P",), "at-most-one-P"
    )
    return ClassSpec("P<=1", sig, (("P", frozenset()),), (pred,))


def test_at_most_one_P_fails_strong_joint_embedding():
    report = verify_class_axioms(at_most_one_P(), 1, "joint_embedding")
    assert report.status == "refuted"
    b0, b1 = report.witness["B0"], report.witness["B1"]
    assert len(b0.relations["P"]) == 1 and len(b1.relations["P"]) == 1


def matching_class():
    """Graphs of maximum degree 1: two edges through a shared point force
    degree 2, so only an identification amalgamates them."""

    def max_degree_one(s):
        degrees = [0] * s.size
        for a, b in s.relations["E"]:
            if a < b:
                degrees[a] += 1
                degrees[b] += 1
        return all(d <= 1 for d in degrees)

    pred = MembershipPredicate(max_degree_one, ("E",), ("E",), "matching")
    return ClassSpec(
        "matching",
        Signature((("E", 2),)),
        (("E", frozenset(("symmetric", "irreflexive"))),),
        (pred,),
    )


def test_amalgamation_through_identification():
    matching = matching_class()
    strong = verify_class_axioms(matching, 3, "strong_amalgamation")
    assert strong.status == "refuted"
    assert verify_class_axioms(matching, 3, "amalgamation")
    # the strong refutation's instance amalgamates once a point is identified
    w = strong.witness
    args = (matching, w["B0"], w["f0"], w["B1"], w["f1"])
    assert _find_amalgam(*args, strong=True) is None
    amalgam = _find_amalgam(*args, strong=False)
    assert amalgam.size == strong.details["cap"] - 1
    assert matching.admits(amalgam)

    p = at_most_one_P()
    assert verify_class_axioms(p, 3, "joint_embedding").status == "refuted"
    assert verify_class_axioms(p, 3, "strong_amalgamation").status == "refuted"
    assert verify_class_axioms(p, 3, "amalgamation")


def test_amalgam_candidate_needs_atom_agreement():
    # over A = {0}: B0 has the edge 0-1, B1 does not; identifying the two
    # private points would put an edge into B1's image
    g = builtin("G")
    edge = FiniteStructure.build(g.signature, 2, {"E": {(0, 1), (1, 0)}})
    no_edge = FiniteStructure.build(g.signature, 2, {"E": set()})
    assert _amalgam_candidate(g, edge, [0], no_edge, [0], {1: 1}) is None
    assert _amalgam_candidate(g, edge, [0], edge, [0], {1: 1}) == edge
    assert _amalgam_candidate(g, edge, [0], no_edge, [0], {}).size == 3


AXIOMS = ("hereditary", "joint_embedding", "amalgamation", "strong_amalgamation")

# sha256 over the four axiom reports (``dumps()``, newline-joined): the
# built-ins and their pairwise superpositions at bound 2, the matching class
# and P<=1 at bound 3
AXIOM_REPORT_PINS = {
    "S": "55b0ca18050ef3ddc6f1897843a294ad539e30912425c4621fb2fa23998f9a18",
    "LO": "1c0c46e681dd24972e40d9dd54aceb654fee1bf76caa5dc5a2ee72fcf7f23e8b",
    "E": "620ba951833128b9566e280189e7f666d91dc811a2738906575a011fa5c789ea",
    "G": "620ba951833128b9566e280189e7f666d91dc811a2738906575a011fa5c789ea",
    "T": "1c0c46e681dd24972e40d9dd54aceb654fee1bf76caa5dc5a2ee72fcf7f23e8b",
    "H3": "55b0ca18050ef3ddc6f1897843a294ad539e30912425c4621fb2fa23998f9a18",
    "S*S": "55b0ca18050ef3ddc6f1897843a294ad539e30912425c4621fb2fa23998f9a18",
    "S*LO": "1c0c46e681dd24972e40d9dd54aceb654fee1bf76caa5dc5a2ee72fcf7f23e8b",
    "S*E": "620ba951833128b9566e280189e7f666d91dc811a2738906575a011fa5c789ea",
    "S*G": "620ba951833128b9566e280189e7f666d91dc811a2738906575a011fa5c789ea",
    "S*T": "1c0c46e681dd24972e40d9dd54aceb654fee1bf76caa5dc5a2ee72fcf7f23e8b",
    "S*H3": "55b0ca18050ef3ddc6f1897843a294ad539e30912425c4621fb2fa23998f9a18",
    "LO*LO": "2e3237e9c6b0530eec323e160c6a896f9a9067d1e68d1e31a49cef332c676507",
    "LO*E": "2e3237e9c6b0530eec323e160c6a896f9a9067d1e68d1e31a49cef332c676507",
    "LO*G": "2e3237e9c6b0530eec323e160c6a896f9a9067d1e68d1e31a49cef332c676507",
    "LO*T": "2e3237e9c6b0530eec323e160c6a896f9a9067d1e68d1e31a49cef332c676507",
    "LO*H3": "1c0c46e681dd24972e40d9dd54aceb654fee1bf76caa5dc5a2ee72fcf7f23e8b",
    "E*E": "57f70bd1091a2887ca1e60f0bf074013739a4ecd2cfd0cd99c088e8cddbc615d",
    "E*G": "57f70bd1091a2887ca1e60f0bf074013739a4ecd2cfd0cd99c088e8cddbc615d",
    "E*T": "2e3237e9c6b0530eec323e160c6a896f9a9067d1e68d1e31a49cef332c676507",
    "E*H3": "620ba951833128b9566e280189e7f666d91dc811a2738906575a011fa5c789ea",
    "G*G": "57f70bd1091a2887ca1e60f0bf074013739a4ecd2cfd0cd99c088e8cddbc615d",
    "G*T": "2e3237e9c6b0530eec323e160c6a896f9a9067d1e68d1e31a49cef332c676507",
    "G*H3": "620ba951833128b9566e280189e7f666d91dc811a2738906575a011fa5c789ea",
    "T*T": "2e3237e9c6b0530eec323e160c6a896f9a9067d1e68d1e31a49cef332c676507",
    "T*H3": "1c0c46e681dd24972e40d9dd54aceb654fee1bf76caa5dc5a2ee72fcf7f23e8b",
    "H3*H3": "55b0ca18050ef3ddc6f1897843a294ad539e30912425c4621fb2fa23998f9a18",
    "matching": "ec39d458af4a7d9be05847c47c809cd81805c1262c9a44070b0974869cc4c090",
    "P<=1": "8db65f38e0ac62059809c6c8130860edc2f8ae4d17c85dc70b10a25c51b98c61",
}


# sha256 of the report of ``fraisse check-class --class X --bound 3 --axiom
# all`` for superpositions whose strong amalgams are decided per relation
CHECK_CLASS_PINS = {
    "G*T": "035a59703f051db5d59e86bc4c7aba93ac0e695daa1e609d899e22565e450939",
    "E^2": "c1e5e79d37992ed6e3751afc5accb4eb7a030c47ed75a6fe397a1ea1249d4901",
    "LO*G": "8f31138c28cf4ee24ff5d6fdb0efd2f74480beb8d8e57986a72e2c4ed3c24fe5",
    "G^2": "73f31b37adb72479f730f2f99efbb0858d79e9d25471027bd260878f74807b5e",
}


def _axiom_pin_classes():
    for name in BUILTIN_NAMES:
        yield name, builtin(name), 2
    for a, b in itertools.combinations_with_replacement(BUILTIN_NAMES, 2):
        yield f"{a}*{b}", superpose(builtin(a), builtin(b)), 2
    yield "matching", matching_class(), 3
    yield "P<=1", at_most_one_P(), 3


def test_axiom_reports_are_pinned():
    digests = {
        name: hashlib.sha256(
            "\n".join(
                verify_class_axioms(spec, bound, axiom).dumps() for axiom in AXIOMS
            ).encode()
        ).hexdigest()
        for name, spec, bound in _axiom_pin_classes()
    }
    assert digests == AXIOM_REPORT_PINS


def test_check_class_reports_are_pinned(capsys):
    digests = {}
    for expr in CHECK_CLASS_PINS:
        argv = ["check-class", "--class", expr, "--bound", "3", "--axiom", "all"]
        assert main(argv) == 0
        digests[expr] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == CHECK_CLASS_PINS


# -- one verdict per isomorphism type of the diagram -------------------------------


def symmetric_trichotomous():
    """No two distinct points fit: joint embedding fails at bound 3."""
    return ClassSpec(
        "R", Signature((("R", 2),)), (("R", frozenset(("symmetric", "trichotomous"))),)
    )


def few_out_degree_4():
    """Tournaments with at most three points of out-degree 4.

    The search commits to one completion, and for a predicate class that
    makes the verdict depend on more than the diagram's isomorphism type.
    Over one point, the 4-point tournament with a source has arms of
    types X, Y, X in turn (based in its 3-cycle, at its source, in its
    3-cycle).  Both amalgams are completed from the first arm's private
    points to the second's, and only (Y, X) gives four points of
    out-degree 4, so the (X, Y) instance amalgamates and the later (Y, X)
    one does not.
    """

    def few(s):
        degrees = [0] * s.size
        for a, _ in s.relations["<"]:
            degrees[a] += 1
        return degrees.count(4) <= 3

    t = builtin("T")
    pred = MembershipPredicate(few, ("<",), ("<",), "few-out-degree-4")
    return ClassSpec("T-few-4", t.signature, t.constraints, (pred,))


def _differential_classes():
    for name in BUILTIN_NAMES:
        yield name, builtin(name), 3
    for a, b in itertools.combinations_with_replacement(BUILTIN_NAMES, 2):
        yield f"{a}*{b}", superpose(builtin(a), builtin(b)), 3
    for name in ("G", "E", "T"):
        yield f"{name}-bound-4", builtin(name), 4
    yield "R", symmetric_trichotomous(), 3
    yield "matching", matching_class(), 3
    yield "P<=1", at_most_one_P(), 3
    yield "T-few-4", few_out_degree_4(), 4
    # joint embedding refuted through the first relation and through the
    # second; a predicate keeps the whole diagram as the one part
    r, g, p = symmetric_trichotomous(), builtin("G"), at_most_one_P()
    yield "G*R", superpose(g, r), 3
    yield "R*G", superpose(r, g), 3
    yield "P<=1*G", superpose(p, g), 3
    yield "G*P<=1", superpose(g, p), 3


DIFFERENTIAL = {name: (spec, bound) for name, spec, bound in _differential_classes()}


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
def test_amalgamation_matches_the_per_instance_reference(name):
    spec, bound = DIFFERENTIAL[name]
    for axiom in ("joint_embedding", "amalgamation", "strong_amalgamation"):
        expected = reference_verify_amalgamation(spec, bound, axiom).dumps()
        assert verify_class_axioms(spec, bound, axiom).dumps() == expected, axiom


def _one_relation_classes():
    """Every property set of one relation of arity 1 to 3, but two: the
    ternary relations with no property, or trichotomy alone, which says
    nothing on two points.  Both keep all 138 structures on two points,
    and their sweep alone takes 11 s."""
    for arity in (1, 2, 3):
        usable = [p for p in PROPERTIES if arity == 2 or p != "transitive"]
        for k in range(len(usable) + 1):
            for props in itertools.combinations(usable, k):
                if arity == 3 and set(props) <= {"trichotomous"}:
                    continue
                name = f"arity{arity}:" + "+".join(props)
                yield name, ClassSpec(
                    name, Signature((("R", arity),)), (("R", frozenset(props)),)
                )


ONE_RELATION_CLASSES = dict(_one_relation_classes())


@pytest.mark.parametrize("name", sorted(ONE_RELATION_CLASSES))
def test_one_relation_amalgamation_matches_the_per_instance_reference(name):
    spec = ONE_RELATION_CLASSES[name]
    for axiom in ("joint_embedding", "amalgamation", "strong_amalgamation"):
        expected = reference_verify_amalgamation(spec, 2, axiom).dumps()
        assert verify_class_axioms(spec, 2, axiom).dumps() == expected, axiom


def test_symmetric_trichotomous_joint_embedding_witness():
    report = verify_class_axioms(symmetric_trichotomous(), 3, "joint_embedding")
    assert report.status == "refuted"
    w = report.witness
    assert (w["A"].size, w["B0"].size, w["B1"].size) == (0, 1, 1)


def _isomorphic_over_base(b0, f0, b1, f1):
    """Brute force: some bijection B0 -> B1 carries f0 to f1 and every
    relation onto B1's."""
    if b0.size != b1.size:
        return False
    for perm in itertools.permutations(range(b0.size)):
        if all(perm[x] == y for x, y in zip(f0, f1)) and b0.relabel(perm) == b1:
            return True
    return False


@pytest.mark.parametrize("expr", ["G", "T", "LO*G", "E^2"])
def test_arm_keys_are_isomorphism_types_over_the_base(expr):
    """Over each base, arms, and each relation's reducts of them, get equal
    keys exactly when they are isomorphic over the base; and equal keys
    over two bases mean equal bases, or equal reducts of them."""
    spec = parse_class_expr(expr)
    members = spec.members_upto(3)
    views = [None, *spec.signature.names]
    base_of = {}
    for base in [spec.empty_structure(), *members]:
        arms = [
            (b, emb.mapping)
            for b in members
            if b.size >= base.size
            for emb in find_embeddings(base, b)
        ]
        for view in views:
            reducts = [(b if view is None else b.reduct((view,)), f) for b, f in arms]
            keys = [_arm_key(b, f) for b, f in reducts]
            base_view = base if view is None else base.reduct((view,))
            for key in keys:
                assert base_of.setdefault((view, key), base_view) == base_view
            pairs = itertools.combinations(zip(reducts, keys), 2)
            for (arm0, key0), (arm1, key1) in pairs:
                assert (key0 == key1) == _isomorphic_over_base(*arm0, *arm1)


@pytest.mark.parametrize(
    "spec",
    [builtin(name) for name in BUILTIN_NAMES]
    + [
        superpose(builtin(a), builtin(b))
        for a, b in itertools.combinations_with_replacement(BUILTIN_NAMES, 2)
    ],
    ids=lambda spec: spec.name,
)
def test_arm_keys_match_the_relabelling_oracle(spec):
    """Over each base, two arms get equal keys exactly when the oracle's
    keys are equal."""
    members = spec.members_upto(3)
    for base in [spec.empty_structure(), *members]:
        arms = [
            (b, emb.mapping)
            for b in members
            if b.size >= base.size
            for emb in find_embeddings(base, b)
        ]
        keys = [_arm_key(b, f) for b, f in arms]
        oracle = [reference_arm_key(b, f) for b, f in arms]
        assert len(set(keys)) == len(set(oracle)) == len(set(zip(keys, oracle)))


def _counting_searches(monkeypatch):
    """Record the signature of the parts every amalgam search is run on."""
    searched = []
    find = classes._find_amalgam

    def counting(spec, b0, f0, b1, f1, strong):
        searched.append(b0.signature)
        return find(spec, b0, f0, b1, f1, strong)

    monkeypatch.setattr(classes, "_find_amalgam", counting)
    return searched


def test_amalgam_search_runs_once_per_diagram_type(monkeypatch):
    """One search per isomorphism type of each part's diagram: a relation's
    reduct for a superposition, the whole diagram for one relation."""
    searched = _counting_searches(monkeypatch)
    for expr, bound, instances, most in (
        ("G", 4, 13014, 1276),
        ("G*T", 3, 1263, 127),
        ("G^2", 3, 4651, 162),
    ):
        searched.clear()
        spec = parse_class_expr(expr)
        report = verify_class_axioms(spec, bound, "strong_amalgamation")
        assert report.details["instances"] == instances, expr
        assert 0 < len(searched) <= most, expr


@pytest.mark.parametrize(
    "expr, axiom, one_relation",
    [
        ("G*T", "strong_amalgamation", True),
        ("G*T", "joint_embedding", True),
        ("G*T", "amalgamation", False),
        ("P<=1*G", "strong_amalgamation", False),
    ],
)
def test_relations_are_searched_apart_only_without_ties(
    expr, axiom, one_relation, monkeypatch
):
    """Strong amalgamation and joint embedding search each relation's
    reduct; identifications and predicates keep the whole diagram."""
    spec = DIFFERENTIAL[expr][0]
    searched = _counting_searches(monkeypatch)
    verify_class_axioms(spec, 3, axiom)
    assert searched
    if one_relation:
        assert {len(sig.names) for sig in searched} == {1}
    else:
        assert set(searched) == {spec.signature}


# -- each relation of an amalgam completed by construction ---------------------------


def _one_relation(name, props):
    return ClassSpec(name, Signature((("R", 2),)), (("R", frozenset(props)),))


# every transitive property set, loops allowed or not, plus R, whose free
# pairs have no completion at all
FILL_CLASSES = [
    _one_relation("strict-partial-order", ("irreflexive", "transitive")),
    _one_relation("partial-preorder", ("reflexive", "transitive")),
    _one_relation("transitive", ("transitive",)),
    _one_relation("symmetric-transitive", ("symmetric", "transitive")),
    _one_relation("order-with-loops", ("trichotomous", "transitive")),
    _one_relation("reflexive-order", ("reflexive", "trichotomous", "transitive")),
    _one_relation("symmetric-order", ("symmetric", "trichotomous", "transitive")),
    symmetric_trichotomous(),
]


def _checked_fill(spec, structure, name, free):
    """The fill, asserted to exist exactly when the reference's does and to
    complete only the free tuples."""
    got = _fill_relation(spec, structure, name, free)
    expected = reference_fill_relation(spec, structure, name, free)
    assert (got is None) == (expected is None), (spec.name, structure, sorted(free))
    if got is not None:
        before, after = structure.relations[name], got.relations[name]
        assert before <= after and after - before <= free
        assert classes._relation_ok(spec, got, name)
        assert all(
            got.relations[n] == structure.relations[n]
            for n in structure.signature.names
            if n != name
        )
    return got


def _amalgam_candidates(spec, bound, all_pairings):
    """Build every amalgam candidate of the instances up to ``bound``: the
    strong pairing, and every pairing if ``all_pairings``."""
    members = spec.members_upto(bound)
    for base in [spec.empty_structure(), *members]:
        arms = [
            (b, emb.mapping)
            for b in members
            if b.size >= base.size
            for emb in find_embeddings(base, b)
        ]
        for i, (b0, f0) in enumerate(arms):
            for b1, f1 in arms[i:]:
                _amalgam_candidate(spec, b0, f0, b1, f1, {})
                if not all_pairings:
                    continue
                x0 = [v for v in range(b0.size) if v not in f0]
                x1 = [v for v in range(b1.size) if v not in f1]
                for k in range(1, min(len(x0), len(x1)) + 1):
                    for sub0 in itertools.combinations(x0, k):
                        for sub1 in itertools.permutations(x1, k):
                            pairing = dict(zip(sub1, sub0))
                            _amalgam_candidate(spec, b0, f0, b1, f1, pairing)


def _fill_sweeps():
    for name, spec, _ in _differential_classes():
        if "*" in name or name in BUILTIN_NAMES:
            yield name, spec, 3, False
    yield "LO-bound-4", builtin("LO"), 4, True
    yield "E-all-pairings", builtin("E"), 3, True
    for spec in FILL_CLASSES:
        # plain transitive relations have the most members: strong pairing only
        yield spec.name, spec, 3, spec.name != "transitive"


FILL_SWEEPS = {name: (spec, bound, every) for name, spec, bound, every in _fill_sweeps()}


@pytest.mark.parametrize("name", sorted(FILL_SWEEPS))
def test_fill_relation_matches_the_reference(name, monkeypatch):
    spec, bound, all_pairings = FILL_SWEEPS[name]
    fills = 0

    def checked(*args):
        nonlocal fills
        fills += 1
        return _checked_fill(*args)

    monkeypatch.setattr(classes, "_fill_relation", checked)
    _amalgam_candidates(spec, bound, all_pairings)
    assert fills > 0 or not spec.signature.names


def test_fill_relation_matches_the_reference_on_random_parts():
    """Decided parts drawn at random: half of them cut from a hidden member
    relabelled at random, so a completion exists, and half of them random
    tables, which mostly have none.  Amalgams of small members show
    neither often: their closures are short and rarely fail."""
    rng = random.Random(20200706)
    members = {
        (i, size): enumerate_structures(spec, size)
        for i, spec in enumerate(FILL_CLASSES)
        for size in range(2, 5)
    }
    outcomes = set()
    for i in range(1200):
        spec = FILL_CLASSES[i % len(FILL_CLASSES)]
        size = rng.randint(2, 4)
        first1 = rng.randint(1, size - 1)
        private0 = frozenset(v for v in range(first1) if rng.random() < 0.6)
        free = classes._mixed_tuples(size, 2, private0 or frozenset({0}), first1)
        hidden_members = members[i % len(FILL_CLASSES), size]
        if i % 2 and hidden_members:
            perm = list(range(size))
            rng.shuffle(perm)
            hidden = rng.choice(hidden_members).relabel(perm).relations["R"]
        else:
            density = rng.choice((0.1, 0.3, 0.5))
            hidden = {t for t in itertools.product(range(size), repeat=2) if rng.random() < density}
        table = {t for t in hidden if t not in free}
        structure = FiniteStructure.build(spec.signature, size, {"R": table})
        outcomes.add(_checked_fill(spec, structure, "R", free) is None)
    assert outcomes == {True, False}


def test_property_preservation_under_superposition():
    assert check_property_preservation(builtin("G"), builtin("G"), "symmetric", 4)
    assert check_property_preservation(builtin("LO"), builtin("LO"), "trichotomous", 4)
    assert check_property_preservation(builtin("E"), builtin("E"), "transitive", 4)


# -- fully relational ---------------------------------------------------------------------


@pytest.mark.parametrize("expr", ["LO", "E", "G", "T", "LO^2"])
def test_fully_relational(expr):
    assert check_fully_relational(parse_class_expr(expr), 2, 2)


def test_fully_relational_refutes_with_the_first_missing_pattern():
    """E#1 is an edgeless graph, so (False, True) is the first pattern in
    ``itertools.product`` order that no pair realizes."""
    edgeless = MembershipPredicate(lambda s: not s.relations["E"], ("E",), ("E",), "edgeless")
    g = builtin("G")
    spec = superpose(g, ClassSpec("N", g.signature, g.constraints, (edgeless,)))
    report = check_fully_relational(spec, 2, 3)
    assert report.status == "refuted"
    assert report.witness == {"pattern": {"E#0": False, "E#1": True}}


# -- 1-types as keys -----------------------------------------------------------------------


def _builtins_and_superpositions():
    for name in BUILTIN_NAMES:
        yield name, builtin(name)
    for a, b in itertools.combinations_with_replacement(BUILTIN_NAMES, 2):
        yield f"{a}*{b}", superpose(builtin(a), builtin(b))


BUILTINS_AND_SUPERPOSITIONS = dict(_builtins_and_superpositions())


@pytest.mark.parametrize("name", sorted(BUILTINS_AND_SUPERPOSITIONS))
def test_one_type_keys_agree_with_the_tuple_walk(name):
    """Key equality decides realization exactly as the tuple walk did, for
    every subset, point outside it and consistent type of the members up
    to 4 points (3 for superpositions with H3: at 4 the walk takes a
    minute); and an extension's assignment is its fresh point's key."""
    spec = BUILTINS_AND_SUPERPOSITIONS[name]
    bound = 3 if "*" in name and "H3" in name else 4
    names = spec.signature.names
    for member in spec.members_upto(bound):
        for size in range(member.size + 1):
            for subset in itertools.combinations(range(member.size), size):
                anchor = member.induced_substructure(subset)
                outside = [v for v in range(member.size) if v not in subset]
                keys = [one_type(member, subset, v) for v in outside]
                for tau in consistent_one_types(spec, anchor):
                    atoms = dict(zip(names, tau))
                    for v, key in zip(outside, keys):
                        assert (key == tau) == reference_point_realizes(member, subset, v, atoms)
    for parent in [spec.empty_structure(), *spec.members_upto(bound - 1)]:
        n = parent.size
        for assignment, child in one_point_extensions(spec, parent):
            assert one_type(child, range(n), n) == assignment
            assert point_realizes(child, range(n), n, assignment)


# -- pair types ------------------------------------------------------------------------------


def test_pair_type_counts():
    assert len(enumerate_pair_types(builtin("G"))) == 2
    assert len(enumerate_pair_types(parse_class_expr("LO^3"))) == 8
    assert len(enumerate_pair_types(parse_class_expr("E^2"))) == 4


@pytest.mark.parametrize("name", ["LO", "E", "G", "T"])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_pair_types_of_powers_are_2_to_m(name, m):
    from fraisse.ranks import power_pair_types

    assert len(power_pair_types(builtin(name), m)) == 2**m


def _pair_type_classes():
    yield from _builtins_and_superpositions()
    for name in BUILTIN_NAMES:
        yield f"{name}^3", power(builtin(name), 3)
    yield "matching", matching_class()
    yield "T-few-4", few_out_degree_4()


PAIR_TYPE_CLASSES = dict(_pair_type_classes())


@pytest.mark.parametrize("name", sorted(PAIR_TYPE_CLASSES))
def test_pair_types_match_the_mask_loop(name):
    spec = PAIR_TYPE_CLASSES[name]
    if not spec.is_binary():
        with pytest.raises(NonBinarySignature):
            reference_pair_types(spec)
        with pytest.raises(NonBinarySignature):
            enumerate_pair_types(spec)
        return
    assert enumerate_pair_types(spec) == reference_pair_types(spec)


def test_star_is_an_involution():
    types = enumerate_pair_types(parse_class_expr("LO^2"))
    for p in types:
        assert p.star().star() == p
        assert p.star() in types


# -- self-similarity ---------------------------------------------------------------------------


def test_self_similarity_verdicts():
    assert check_self_similarity(builtin("LO"), 3)
    assert check_self_similarity(builtin("G"), 3)
    report = check_self_similarity(builtin("E"), 3)
    assert report.status == "refuted"
    # the witness type demands equivalence with an existing point
    p = report.witness["p"]
    assert any(tup == [0, 1] or tup == (0, 1) for tup in p["E"])


# sha256 of check_self_similarity(spec, 3).dumps(), frozen from the check
# that re-enumerated C's one-point extensions for every (A, p, S, tau)
VERIFIED_UP_TO_3 = "79bb406b4c89f80ba92941f2f2b4908f0b56f4af30f9079d759dbca30967f237"
SELF_SIMILARITY_SHA256 = {
    "LO": VERIFIED_UP_TO_3,
    "G": VERIFIED_UP_TO_3,
    "T": VERIFIED_UP_TO_3,
    "H3": VERIFIED_UP_TO_3,
    "E": "f22dfe9f0d71170e37d3bdacb0d3b579e97f0d6f0cb50e72bab7f77d60324a35",
    "LO^2": VERIFIED_UP_TO_3,
    "G^2": VERIFIED_UP_TO_3,
}


@pytest.mark.parametrize("expr", sorted(SELF_SIMILARITY_SHA256))
def test_self_similarity_reports_are_pinned(expr):
    report = check_self_similarity(parse_class_expr(expr), 3)
    digest = hashlib.sha256(report.dumps().encode()).hexdigest()
    assert digest == SELF_SIMILARITY_SHA256[expr]


@pytest.mark.parametrize("expr", ["E^2", "T^2", "LO*G", "E*G", "G*T"])
def test_self_similarity_matches_the_reference(expr):
    """Same report as the tuple-walking loop, and the budget runs out at
    the same node: the report needs exactly ``nodes`` of it."""
    spec = parse_class_expr(expr)
    expected, nodes = reference_check_self_similarity(spec, 3)
    assert check_self_similarity(spec, 3, budget=nodes).dumps() == expected.dumps()
    with pytest.raises(BudgetExceeded) as reference_cap:
        reference_check_self_similarity(spec, 3, budget=nodes - 1)
    with pytest.raises(BudgetExceeded) as cap:
        check_self_similarity(spec, 3, budget=nodes - 1)
    assert str(cap.value) == str(reference_cap.value)


# -- one-point extensions admitted by their new point ----------------------------


def _one_relation(arity, props):
    return ClassSpec(
        "R" + "".join(p[0] for p in sorted(props)),
        Signature((("R", arity),)),
        (("R", frozenset(props)),),
    )


def _extension_classes():
    """``(name, spec, bound)``: the classes whose admitted extensions are
    compared, for parents of at most ``bound`` points.  Superpositions
    with H3 stop at 3 points: at 4 the reference takes minutes."""
    for name in BUILTIN_NAMES:
        yield name, builtin(name), 4
    for a, b in itertools.combinations_with_replacement(BUILTIN_NAMES, 2):
        bound = 3 if "H3" in (a, b) else 4
        yield f"{a}*{b}", superpose(builtin(a), builtin(b)), bound
    yield "matching", matching_class(), 4
    yield "T-few-4", few_out_degree_4(), 4
    # every property set of one binary relation, among them the two
    # conflicting pairs, symmetric+trichotomous and reflexive+irreflexive
    for k in range(len(PROPERTIES) + 1):
        for props in itertools.combinations(PROPERTIES, k):
            bound = 4 if len(props) >= 2 else 3
            yield f"binary-{'-'.join(props)}", _one_relation(2, props), bound
    for props in (
        ("symmetric", "trichotomous"),
        ("reflexive", "irreflexive"),
        ("trichotomous", "irreflexive"),
    ):
        yield f"ternary-{'-'.join(props)}", _one_relation(3, props), 3


EXTENSION_CLASSES = {name: (spec, bound) for name, spec, bound in _extension_classes()}


@pytest.mark.parametrize("name", sorted(EXTENSION_CLASSES))
def test_admitted_extensions_match_full_admits(name):
    spec, bound = EXTENSION_CLASSES[name]
    for parent in [spec.empty_structure(), *spec.members_upto(bound)]:
        admitted = [
            child
            for _, child in one_point_extensions(spec, parent)
            if spec.admits_extension(child)
        ]
        assert admitted == reference_extensions(spec, parent), parent.to_json()


def test_transitive_extension_needs_binary():
    with pytest.raises(TransitivityOnNonBinary):
        enumerate_structures(_one_relation(3, ("transitive",)), 1)


import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraisse.classes import (
    BUILTIN_NAMES,
    ClassSpec,
    MembershipPredicate,
    builtin,
    check_fully_relational,
    check_property_preservation,
    check_relation_property,
    check_self_similarity,
    enumerate_pair_types,
    parse_class_expr,
    power,
    superpose,
    verify_class_axioms,
)
from fraisse.errors import TransitivityOnNonBinary, UnknownRelation
from fraisse.structures import FiniteStructure, Signature


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


def test_property_preservation_under_superposition():
    assert check_property_preservation(builtin("G"), builtin("G"), "symmetric", 4)
    assert check_property_preservation(builtin("LO"), builtin("LO"), "trichotomous", 4)
    assert check_property_preservation(builtin("E"), builtin("E"), "transitive", 4)


# -- fully relational ---------------------------------------------------------------------


@pytest.mark.parametrize("expr", ["LO", "E", "G", "T", "LO^2"])
def test_fully_relational(expr):
    assert check_fully_relational(parse_class_expr(expr), 2, 2)


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

"""End-to-end acceptance checks, one pass/fail line per criterion."""

import itertools
import json
import random

from fraisse.classes import (
    BUILTIN_NAMES,
    ClassSpec,
    MembershipPredicate,
    builtin,
    check_self_similarity,
    enumerate_pair_types,
    parse_class_expr,
    power,
    superpose,
    verify_class_axioms,
)
from fraisse.cli import main
from fraisse.config import (
    ConfigCertificate,
    identity_interpretation,
    make_parameter_free,
    compose_configurations,
    product_configuration,
    verify_configuration,
)
from fraisse.limits import equality_grid, order_grid
from fraisse.ramsey import (
    BoxColoring,
    box_ramsey_upper_bound,
    direction_of,
    directions,
    find_monochromatic_box,
    leq_t,
    random_point_coloring,
)
from fraisse.ranks import (
    QuadConstruction,
    bipartite_counts,
    build_E_into_orders,
    compute_rank_table,
    extend_target_with,
    extract_ICT_pattern,
    extract_IRD_pattern,
    pad_interpretation,
    verify_dagger_base_case,
)
from fraisse.structures import Signature
from reference_search import reference_evaluate


def report(number: int, name: str, ok: bool) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"CRITERION {number:2d} {name}: {verdict}")
    assert ok, f"criterion {number} ({name}) failed"


# -- 1: rank tables -------------------------------------------------------------------------


EXPECTED_RANKS = {"LO": (0, 3), "T": (0, 3), "G": (1, 3), "E": (1, 3)}


def test_criterion_1_rank_tables(graph_model):
    ok = True
    for name, expected in EXPECTED_RANKS.items():
        results = compute_rank_table(builtin(name), 2, graph_model)
        ok = ok and tuple(r.exact for r in results) == expected
        for r in results:
            ok = ok and r.lower == r.upper
            if r.lower >= 1:
                ok = ok and r.lower_certificate is not None
                ok = ok and bool(r.lower_certificate.recheck())
            ok = ok and bool(r.upper_justification)
    report(1, "rank table reproduction", ok)


# -- 2: counting identities -----------------------------------------------------------------


def test_criterion_2_counting_identities():
    ok = True
    expected = {1: (2, 2, 0), 2: (16, 8, 8), 3: (512, 64, 448)}
    for n, triple in expected.items():
        ok = ok and bipartite_counts(n) == triple
        # independent brute force over all 0/1 matrices
        total = sym = 0
        for bits in itertools.product((0, 1), repeat=n * n):
            total += 1
            if all(bits[i * n + j] == bits[j * n + i] for i in range(n) for j in range(n)):
                sym += 1
        ok = ok and (total, sym, total - sym) == triple
    for name in ("LO", "E", "G", "T"):
        for m in range(1, 5):
            ok = ok and len(enumerate_pair_types(power(builtin(name), m))) == 2**m
    report(2, "counting identities", ok)


# -- 3: base-case counting ------------------------------------------------------------------


def test_criterion_3_dagger_base_case(graph_model):
    r = verify_dagger_base_case(model=graph_model)
    ok = bool(r)
    ok = ok and r.details["a"]["identified_count"] == 12
    ok = ok and r.details["c"] == {"lhs": 13, "rhs": 12, "holds": True}
    ns = [(e["n"], e["holds"]) for e in r.details["b"]]
    ok = ok and ns == [(n, True) for n in range(3, 11)]
    report(3, "dagger base case", ok)


# -- 4: equivalences into four stacked orders ----------------------------------------------


def test_criterion_4_E_into_orders(order_box_4):
    interp, cert, record = build_E_into_orders(4, order_box_4, bound=4)
    ok = isinstance(cert, ConfigCertificate) and bool(cert.recheck())
    ok = ok and record["non_equality_pair_types"] == 16
    report(4, "equivalences into stacked orders", ok)


# -- 5: class-axiom suite -------------------------------------------------------------------


def _at_most_one_P():
    sig = Signature((("P", 1),))
    pred = MembershipPredicate(
        lambda s: len(s.relations["P"]) <= 1, ("P",), ("P",), "at-most-one-P"
    )
    return ClassSpec("P<=1", sig, (("P", frozenset()),), (pred,))


def test_criterion_5_class_axioms():
    ok = True
    specs = [builtin(n) for n in BUILTIN_NAMES]
    for a, b in itertools.combinations_with_replacement(BUILTIN_NAMES, 2):
        specs.append(superpose(builtin(a), builtin(b)))
    for spec in specs:
        for axiom in ("hereditary", "joint_embedding", "strong_amalgamation"):
            ok = ok and bool(verify_class_axioms(spec, 3, axiom))
    refutation = verify_class_axioms(_at_most_one_P(), 1, "joint_embedding")
    ok = ok and refutation.status == "refuted" and refutation.witness is not None
    report(5, "class-axiom suite", ok)


# -- 6: self-similarity verdicts -------------------------------------------------------------


def test_criterion_6_self_similarity():
    ok = True
    for expr in ("LO", "G", "T", "H3", "LO^2", "G^2"):
        ok = ok and bool(check_self_similarity(parse_class_expr(expr), 3))
    r = check_self_similarity(builtin("E"), 3)
    ok = ok and r.status == "refuted"
    p = r.witness["p"]
    ok = ok and any(tuple(t) == (0, 1) for t in p["E"])  # E(x, a) with x != a
    report(6, "self-similarity verdicts", ok)


# -- 7: pattern extraction ---------------------------------------------------------------------


def _quad_pattern(name, carrier, graph_model, extractor):
    qc = QuadConstruction(builtin(name), 2, edge_relation="E")
    extended, offset = extend_target_with(qc.witness_graph(carrier), graph_model)

    def witness(structure):
        return [
            tuple(offset + a * 2 + i for i in range(2)) for a in range(structure.size)
        ]

    return extractor(qc.interpretation, extended, 2, witness=witness), extended


def test_criterion_7_pattern_extraction(graph_model):
    grid = list(itertools.product(range(2), repeat=3))
    eq_carrier = equality_grid(grid, power(builtin("E"), 3))
    ict, ict_target = _quad_pattern("E", eq_carrier, graph_model, extract_ICT_pattern)
    rows = [tuple(2 * c + 1 for c in g) for g in grid]
    cols = [tuple([2 * j] * 3) for j in range(2)]
    lo_carrier = order_grid(rows + cols, power(builtin("LO"), 3))
    ird, ird_target = _quad_pattern("LO", lo_carrier, graph_model, extract_IRD_pattern)
    ok = ict.kind == "ICT" and ict.m == 3 and bool(ict.verify(ict_target.structure))
    ok = ok and ird.kind == "IRD" and ird.m == 3 and bool(ird.verify(ird_target.structure))
    # the sign matrices evaluate to [g(i) = j] and [g(i) < j] respectively
    for pattern, relate in ((ict, lambda x, j: x == j), (ird, lambda x, j: x < j)):
        target = ict_target if pattern is ict else ird_target
        for g, row in pattern.rows:
            for i in range(pattern.m):
                for j in range(pattern.length):
                    value = reference_evaluate(
                        pattern.formulas[i],
                        target.structure,
                        [row, pattern.column(i, j)],
                        pattern.parameters,
                    )
                    ok = ok and value == relate(g[i], j)
    report(7, "pattern extraction", ok)


# -- 8: configuration algebra -----------------------------------------------------------------


def test_criterion_8_configuration_algebra(graph_model):
    ident = identity_interpretation(builtin("G"))
    cert = verify_configuration(ident, graph_model, 3)
    ok = isinstance(cert, ConfigCertificate)
    prod = product_configuration(ident, ident)
    ok = ok and isinstance(verify_configuration(prod, graph_model, 3), ConfigCertificate)
    padded = pad_interpretation(ident, 2)
    ok = ok and isinstance(verify_configuration(padded, graph_model, 3), ConfigCertificate)
    pf = make_parameter_free(ident)
    ok = ok and isinstance(verify_configuration(pf, graph_model, 3), ConfigCertificate)
    composed = compose_configurations(ident, ident)
    ok = ok and isinstance(
        verify_configuration(composed, graph_model, 3), ConfigCertificate
    )
    report(8, "configuration algebra", ok)


# -- 9: Ramsey appendix -------------------------------------------------------------------------


def test_criterion_9_ramsey():
    ok = all(len(directions(k)) == (3**k + 1) // 2 for k in range(1, 5))
    rng = random.Random(0)
    for _ in range(10_000):
        a = tuple(rng.randrange(6) for _ in range(3))
        b = tuple(rng.randrange(6) for _ in range(3))
        a, b = min(a, b), max(a, b)
        t = direction_of(a, b)
        hits = sum(1 for u in directions(3) if leq_t(a, b, u))
        ok = ok and leq_t(a, b, t) and (a == b or hits == 1)
    for case, (k, colors, m) in enumerate(((1, 2, 2), (1, 2, 3), (2, 2, 2))):
        n = box_ramsey_upper_bound(k, colors, m)
        ok = ok and n <= 12
        for seed in range(10_000):
            coloring = random_point_coloring(k, n, colors, seed=seed)
            if find_monochromatic_box(coloring, m) is None:
                ok = False
                break
    # insufficiency below the thresholds
    two = BoxColoring(k=1, n=2, colors=2, point_map=[0, 1])
    ok = ok and find_monochromatic_box(two, 2) is None
    frozen = BoxColoring(
        k=2, n=4, colors=2,
        point_map=[0, 0, 1, 1, 0, 1, 0, 1, 0, 1, 1, 0, 1, 0, 0, 0],
    )
    ok = ok and find_monochromatic_box(frozen, 2) is None
    report(9, "box-Ramsey appendix", ok)


# -- 10: determinism ------------------------------------------------------------------------------


def test_criterion_10_determinism(capsys, tmp_path, graph_model):
    interp = identity_interpretation(builtin("G"))
    config_path = tmp_path / "interp.json"
    target_path = tmp_path / "target.json"
    config_path.write_text(json.dumps(interp.to_json()))
    target_path.write_text(graph_model.dumps())

    suite = [
        ["enumerate", "--class", "G", "--n", "3"],
        ["check-class", "--class", "LO", "--bound", "3"],
        ["self-sim", "--class", "E", "--bound", "3"],
        ["types", "--class", "E^2"],
        ["rank", "--class", "G", "--n", "2", "--target", str(target_path)],
        ["ramsey-box", "--k", "2", "--colors", "2", "--m", "2"],
        ["dagger", "--target", str(target_path)],
        ["verify-config", "--config", str(config_path), "--target", str(target_path),
         "--jobs", "1"],
    ]

    def run_suite(extra=()):
        outputs = []
        for argv in suite:
            main(argv + list(extra))
            outputs.append(capsys.readouterr().out)
        return outputs

    first = run_suite()
    second = run_suite()
    ok = first == second  # byte-identical
    main(["verify-config", "--config", str(config_path), "--target", str(target_path),
          "--jobs", "4"])
    parallel = capsys.readouterr().out
    ok = ok and json.loads(parallel) == json.loads(first[-1])
    report(10, "deterministic reports", ok)

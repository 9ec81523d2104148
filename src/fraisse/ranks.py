"""Interpretation-rank machinery for random-graph and order targets.

The central quantity: the largest m such that the m-fold free power of a
class K admits a verified interpretation into n-tuples of a target limit
model.  Lower bounds come from explicit certified constructions (the
bipartite-code construction, equality boxes, paired orders); upper
bounds come from counting quantifier-free pair types against the number
of available bipartite codes.  Results are always reported as a bracket
(certified lower, counted upper) and only called exact when both sides
meet.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .classes import (
    ClassSpec,
    PairType,
    builtin,
    check_fully_relational,
    enumerate_pair_types,
    power,
    SELF_SIMILARITY_TABLE,
)
from .config import (
    And,
    Atom,
    ConfigCertificate,
    Coord,
    Eq,
    InterpretationMap,
    Not,
    Or,
    compile_formula,
    identity_interpretation,
    search_witness,
    verify_configuration,
    witness_violation,
)
from .errors import (
    BoundExceeded,
    CapacityExceeded,
    HypothesisUnmet,
    NonBinarySignature,
    UnderCertifiedTarget,
    WitnessMissing,
)
from .limits import GenericModel, equality_grid, grid_index, order_grid
from .report import VerificationReport
from .structures import FiniteStructure, Signature, find_embeddings


# -- bipartite codes -------------------------------------------------------------


@dataclass(frozen=True)
class BipartiteCode:
    """A bipartite graph between two ordered parts of size n, encoded as
    the set of cross pairs (i, j) that are joined."""

    n: int
    edges: frozenset

    def transpose(self) -> "BipartiteCode":
        return BipartiteCode(self.n, frozenset((j, i) for i, j in self.edges))

    def is_symmetric(self) -> bool:
        return self == self.transpose()

    def key(self) -> int:
        bits = 0
        for i, j in self.edges:
            bits |= 1 << (i * self.n + j)
        return bits

    def to_json(self) -> dict:
        return {"n": self.n, "edges": sorted(list(e) for e in self.edges)}


def all_bipartite_codes(n: int):
    """All 2^(n*n) codes in ascending key order."""
    cells = [(i, j) for i in range(n) for j in range(n)]
    for mask in range(1 << (n * n)):
        edges = frozenset(
            cells[b] for b in range(n * n) if mask >> (cells[b][0] * n + cells[b][1]) & 1
        )
        yield BipartiteCode(n, edges)


def bipartite_counts(n: int) -> tuple[int, int, int]:
    """(all codes, symmetric codes, non-symmetric codes) for part size n,
    by formula, cross-checked by enumeration for n <= 3."""
    if n < 1:
        raise ValueError(f"n {n} < 1")
    total = 2 ** (n * n)
    symmetric = 2 ** math.comb(n + 1, 2)
    if n <= 3:
        codes = list(all_bipartite_codes(n))
        assert len(codes) == total
        assert sum(1 for c in codes if c.is_symmetric()) == symmetric
    return total, symmetric, total - symmetric


# -- the bipartite-code construction ------------------------------------------------


def power_pair_types(K: ClassSpec, m: int) -> list[PairType]:
    """Pair types of the m-fold free power, composed factor by factor.

    Relations of different factors never interact, so the types of the
    power are exactly the m-fold products of the base types; composing
    them avoids extending every 2-point member of the power one point at a
    time.  The result is sorted like ``enumerate_pair_types`` output."""
    base = enumerate_pair_types(K)
    spec = power(K, m)
    out = []
    for combo in itertools.product(base, repeat=m):
        atoms = set()
        for factor, p in enumerate(combo):
            for name, cell in p.atoms:
                renamed = name if m == 1 else f"{name}#{factor}"
                atoms.add((renamed, cell))
        out.append(PairType(spec.signature, frozenset(atoms)))
    out.sort(key=PairType.sort_key)
    return out


def _relation_properties(spec: ClassSpec) -> frozenset:
    if not spec.is_binary() or len(spec.signature.names) != 1:
        raise HypothesisUnmet(
            f"the construction needs one binary relation, got {spec.signature.symbols}"
        )
    return spec.constraints[0][1]


class QuadConstruction:
    """Interpret the (n^2 - 1)-fold free power of a binary class K into
    n-tuples of a generic graph.

    Each pair type of the power is coded by a bipartite pattern between
    the two n-tuples; an injection h from pair types to codes yields
    formulas  phi_i = OR over types p forcing relation i of "the cross
    pattern equals h(p)".  Diagonal values come for free: columns carry a
    fixed internal pattern (empty for irreflexive K, complete for
    reflexive symmetric K) whose code is reserved for the constant
    diagonal type, and trichotomous classes use only non-symmetric codes,
    which an undirected cross pattern can never match.
    """

    def __init__(self, K: ClassSpec, n: int, edge_relation: str = "E"):
        if n < 2:
            raise HypothesisUnmet(f"the construction needs n >= 2, got {n}")
        props = _relation_properties(K)
        self.reflexive = "reflexive" in props
        self.irreflexive = "irreflexive" in props
        self.symmetric = "symmetric" in props
        self.trichotomous = "trichotomous" in props
        if not (self.reflexive or self.irreflexive):
            raise HypothesisUnmet(f"{K.name} is neither reflexive nor irreflexive")
        if not (self.symmetric or self.trichotomous):
            raise HypothesisUnmet(f"{K.name} is neither symmetric nor trichotomous")
        if self.reflexive and self.trichotomous:
            raise HypothesisUnmet(
                "reflexive trichotomous classes are not supported: the forced "
                "diagonal pattern is symmetric but every available code is not"
            )
        self.K = K
        self.n = n
        self.m = n * n - 1
        self.power_spec = power(K, self.m)
        self.edge_relation = edge_relation
        self.types = power_pair_types(K, self.m)
        self._assign_codes()
        self._build_formulas()

    # -- the injection h -------------------------------------------------------

    def _assign_codes(self):
        n = self.n
        offdiag = frozenset((i, j) for i in range(n) for j in range(n) if i != j)
        self.column_pattern = offdiag if self.reflexive else frozenset()
        diagonal_code = BipartiteCode(n, self.column_pattern)
        names = list(self.power_spec.signature.names)
        diagonal_bits = tuple(self.reflexive for _ in names)
        self.h: dict[PairType, tuple[BipartiteCode, ...]] = {}
        if self.symmetric:
            # outputs are transpose orbits {G, G*}; the diagonal type gets
            # the (symmetric, hence singleton) column-pattern orbit
            orbits = []
            seen = set()
            for code in all_bipartite_codes(n):
                if code.key() in seen:
                    continue
                tr = code.transpose()
                seen.add(code.key())
                seen.add(tr.key())
                orbits.append((code,) if tr == code else (code, tr))
            capacity = len(orbits)
            if len(self.types) > capacity:
                raise CapacityExceeded(
                    f"{len(self.types)} pair types exceed {capacity} code orbits"
                )
            pool = [o for o in orbits if o[0] != diagonal_code]
            for p in self.types:
                if p.forward_bits() == diagonal_bits:
                    self.h[p] = (diagonal_code,)
                else:
                    self.h[p] = pool.pop(0)
        else:
            # trichotomous: single non-symmetric codes, transpose-equivariant
            pool = [c for c in all_bipartite_codes(n) if not c.is_symmetric()]
            if len(self.types) > len(pool):
                raise CapacityExceeded(
                    f"{len(self.types)} pair types exceed {len(pool)} "
                    "non-symmetric codes"
                )
            used = set()
            for p in self.types:
                if p in self.h:
                    continue
                code = next(c for c in pool if c.key() not in used)
                used.add(code.key())
                used.add(code.transpose().key())
                self.h[p] = (code,)
                self.h[p.star()] = (code.transpose(),)
        self._check_injection()
        # the first code of each type, keyed by its atom bits (PairType.sort_key)
        self.pair_codes = {p.sort_key(): codes[0] for p, codes in self.h.items()}

    def _check_injection(self):
        flat = [c for codes in self.h.values() for c in codes]
        if len(set(flat)) != len(flat):
            raise CapacityExceeded("code assignment is not injective")
        if self.trichotomous:
            for p, codes in self.h.items():
                assert self.h[p.star()][0] == codes[0].transpose()

    # -- formulas ----------------------------------------------------------------

    def _code_formula(self, code: BipartiteCode):
        n, R = self.n, self.edge_relation
        literals = []
        for i in range(n):
            for j in range(n):
                atom = Atom(R, (Coord(0, i), Coord(1, j)))
                literals.append(atom if (i, j) in code.edges else Not(atom))
        return And(tuple(literals))

    def _build_formulas(self):
        names = list(self.power_spec.signature.names)
        formulas = []
        for i, name in enumerate(names):
            parts = []
            for p in self.types:
                if p.forward_bits()[i]:
                    parts.extend(self._code_formula(c) for c in self.h[p])
            formulas.append((name, Or(tuple(parts))))
        target_signature = Signature(((self.edge_relation, 2),))
        self.interpretation = InterpretationMap(
            self.power_spec, target_signature, self.n, (), tuple(formulas)
        )

    # -- witnesses ----------------------------------------------------------------

    def witness_graph(self, structure: FiniteStructure) -> FiniteStructure:
        """The undirected pattern on n * |A| points whose columns realize
        the tuples: column internals carry the fixed pattern, and the
        cross pattern of columns a < b is the first code of h(tp(a, b)).

        The type of (a, b) is read as its atom bits in the order of
        :meth:`PairType.sort_key`: per relation, (a, a), (a, b), (b, a)
        and (b, b).  A type outside ``h`` raises ``KeyError``."""
        n = self.n
        tables = [structure.relations[name] for name in structure.signature.names]
        edges = set()
        for a in range(structure.size):
            for i, j in self.column_pattern:
                edges.add((a * n + i, a * n + j))
        for a in range(structure.size):
            for b in range(a + 1, structure.size):
                pairs = ((a, a), (a, b), (b, a), (b, b))
                code = self.pair_codes[tuple(x in table for table in tables for x in pairs)]
                for i, j in code.edges:
                    edges.add((a * n + i, b * n + j))
                    edges.add((b * n + j, a * n + i))
        return FiniteStructure._trusted(
            Signature(((self.edge_relation, 2),)),
            n * structure.size,
            {self.edge_relation: frozenset(edges)},
        )

    def witness_builder(self, target: GenericModel):
        n = self.n

        def build(structure: FiniteStructure):
            pattern = self.witness_graph(structure)
            found = find_embeddings(pattern, target.structure, limit=1)
            if not found:
                if target.certified_level < pattern.size - 1:
                    raise UnderCertifiedTarget(
                        f"target certified at level {target.certified_level} "
                        f"has no copy of a {pattern.size}-point pattern"
                    )
                raise WitnessMissing(
                    f"no copy of a {pattern.size}-point pattern in a "
                    "sufficiently certified target"
                )
            mapping = found[0].mapping
            return [
                tuple(mapping[a * n + i] for i in range(n))
                for a in range(structure.size)
            ]

        return build


def build_quad_configuration(
    K: ClassSpec, n: int, target: GenericModel, bound: int = 3
) -> tuple[InterpretationMap, ConfigCertificate]:
    """Certified interpretation of the (n^2-1)-fold free power of K into
    n-tuples of a generic graph, witnessing rank >= n^2 - 1."""
    edge_relation = target.structure.signature.names[0]
    construction = QuadConstruction(K, n, edge_relation=edge_relation)
    cert = verify_configuration(
        construction.interpretation,
        target,
        bound,
        witness_builder=construction.witness_builder(target),
    )
    if not isinstance(cert, ConfigCertificate):
        raise WitnessMissing(f"constructed witnesses failed verification: {cert}")
    return construction.interpretation, cert


# -- counting upper bounds ---------------------------------------------------------


def counting_upper_bound(K: ClassSpec, n: int) -> dict:
    """Upper bound on the rank at tuple length n by counting pair types
    against bipartite codes.

    Always valid for binary fully-relational K: rank <= n^2, because an
    interpretation of the m-fold power injects its 2^m >= pair types into
    the 2^(n^2) cross codes.  When K is additionally definably
    self-similar, reflexive-or-irreflexive, and trichotomous (any n) or
    symmetric (n >= 2), the inequality is strict: rank <= n^2 - 1.
    """
    if n < 1:
        raise ValueError(f"n {n} < 1")
    props = _relation_properties(K)
    fully = check_fully_relational(K, 2, witness_bound=2)
    if not fully:
        raise HypothesisUnmet(f"{K.name} is not fully relational: {fully.details}")
    total, symmetric_count, _ = bipartite_counts(n)
    strict = (
        SELF_SIMILARITY_TABLE.get(K.name, False)
        and ("reflexive" in props or "irreflexive" in props)
        and (
            "trichotomous" in props
            or ("symmetric" in props and n >= 2)
        )
    )
    value = n * n - 1 if strict else n * n
    m = value + 1
    types = len(power_pair_types(K, m))
    if not strict:
        available = total
    elif "trichotomous" in props:
        available = total - symmetric_count
    else:
        available = total // 2 + symmetric_count // 2
    record = {
        "value": value,
        "rule": "strict-counting" if strict else "counting",
        "m": m,
        "pair_types_at_m": types,
        "codes": total,
        "symmetric_codes": symmetric_count,
        "available": available,
        "inequality": (
            f"a rank-{m} interpretation would inject {types} pair types "
            f"into {available} admissible codes"
        ),
    }
    if types <= available:
        raise HypothesisUnmet(
            f"counting argument fails: {types} <= {available} at m={m}"
        )
    return record


# -- equality boxes -------------------------------------------------------------------


def _class_coordinates(structure: FiniteStructure) -> list[tuple[int, ...]]:
    """One coordinate per equivalence relation (the index of the point's
    class) plus a final coordinate separating fully equivalent points."""
    names = list(structure.signature.names)
    coords = []
    for a in range(structure.size):
        vec = []
        for name in names:
            cls = min(
                b for b in range(structure.size) if structure.holds(name, (a, b))
            )
            reps = sorted(
                {
                    min(
                        c
                        for c in range(structure.size)
                        if structure.holds(name, (b, c))
                    )
                    for b in range(structure.size)
                }
            )
            vec.append(reps.index(cls))
        coords.append(tuple(vec))
    out = []
    seen: dict[tuple, int] = {}
    for vec in coords:
        tie = seen.get(vec, 0)
        seen[vec] = tie + 1
        out.append(vec + (tie,))
    return out


def build_E_box_configuration(
    m: int, target_universe_size: int, bound: int = 3
) -> tuple[InterpretationMap, ConfigCertificate]:
    """The m-fold power of equivalence relations in (m+1)-tuples of a bare
    set: coordinate i is the class index of relation i, the last
    coordinate separates fully equivalent points, and every formula is
    the plain equality of coordinate i.  Works over any universe with
    enough points because no target relation is ever consulted."""
    if m < 1:
        raise ValueError(f"m {m} < 1")
    if target_universe_size < bound:
        raise BoundExceeded(
            f"universe of {target_universe_size} points cannot host witnesses "
            f"for members of size {bound}"
        )
    spec = power(builtin("E"), m)
    names = list(spec.signature.names)
    formulas = tuple(
        (name, Eq(Coord(0, i), Coord(1, i))) for i, name in enumerate(names)
    )
    interp = InterpretationMap(spec, Signature(()), m + 1, (), formulas)
    universe = FiniteStructure(Signature(()), target_universe_size, {})
    target = GenericModel(
        universe,
        builtin("S"),
        target_universe_size - 1,
        meta={"builder": "set", "size": target_universe_size},
    )

    def builder(structure: FiniteStructure):
        return _class_coordinates(structure)

    cert = verify_configuration(interp, target, bound, witness_builder=builder)
    if not isinstance(cert, ConfigCertificate):
        raise WitnessMissing(f"equality-box witnesses failed verification: {cert}")
    return interp, cert


# -- equivalence relations inside stacked orders ------------------------------------------


def build_E_into_orders(
    k: int, target: GenericModel, bound: int = 3
) -> tuple[InterpretationMap, ConfigCertificate, dict]:
    """floor(k/2) independent equivalence relations read off k stacked
    linear orders, one point per element: relation i holds iff orders 2i
    and 2i+1 agree on the pair.  Witnesses pair an ascending with a
    descending copy of each class coordinate, so the two orders agree
    exactly on same-class pairs (where the shared lexicographic tie-break
    decides both).

    The returned record counts the non-equality pair types realized in
    the target (2^k of them) and evaluates the pigeonhole inequality
    2 * (2^k - 1) > 2^k showing the rank at tuple length 1 stays below k.
    """
    if k < 2:
        raise ValueError(f"k {k} < 2")
    names = list(target.structure.signature.names)
    if len(names) != k:
        raise NonBinarySignature(
            f"target carries {len(names)} orders, expected {k}"
        )
    if target.meta.get("builder") != "order-box":
        raise UnderCertifiedTarget("expected an order-box target")
    side = target.meta["side"]
    if side < bound:
        raise UnderCertifiedTarget(
            f"order box side {side} below the witness bound {bound}"
        )
    m = k // 2
    spec = power(builtin("E"), m)
    enames = list(spec.signature.names)
    formulas = []
    for i, name in enumerate(enames):
        lt0 = Atom(names[2 * i], (Coord(0, 0), Coord(1, 0)))
        lt1 = Atom(names[2 * i + 1], (Coord(0, 0), Coord(1, 0)))
        formulas.append((name, Or((And((lt0, lt1)), And((Not(lt0), Not(lt1)))))))
    interp = InterpretationMap(
        spec, target.structure.signature, 1, (), tuple(formulas)
    )

    def builder(structure: FiniteStructure):
        coords = _class_coordinates(structure)
        out = []
        for vec in coords:
            point = [0] * k
            for i in range(m):
                point[2 * i] = vec[i]
                point[2 * i + 1] = side - 1 - vec[i]
            out.append((grid_index(point, side),))
        return out

    cert = verify_configuration(interp, target, bound, witness_builder=builder)
    if not isinstance(cert, ConfigCertificate):
        raise WitnessMissing(f"paired-order witnesses failed verification: {cert}")
    realized = set()
    size = target.structure.size
    for u in range(size):
        for v in range(size):
            if u != v:
                realized.add(
                    tuple(target.structure.holds(name, (u, v)) for name in names)
                )
    record = {
        "non_equality_pair_types": len(realized),
        "expected": 2**k,
        "pigeonhole": f"2 * (2^{k} - 1) > 2^{k}",
        "pigeonhole_holds": 2 * (2**k - 1) > 2**k,
        "lower": m,
        "upper": k - 1,
    }
    return interp, cert, record


# -- pattern extraction ---------------------------------------------------------------------


@dataclass
class PatternWitness:
    """Rows and columns of target tuples whose formula signs trace the
    coordinates of a grid: rows are indexed by vectors g, and formula i
    against column j reads the comparison of g(i) with j (strict order
    for kind "IRD", equality for kind "ICT")."""

    kind: str
    m: int
    length: int
    formulas: list
    parameters: tuple
    rows: list  # (g, tuple)
    columns: list  # (label, tuple); label = j for IRD, (i, j) for ICT

    def column(self, i: int, j: int):
        if self.kind == "IRD":
            return next(t for label, t in self.columns if label == j)
        return next(t for label, t in self.columns if label == (i, j))

    def expected_sign(self, g, i: int, j: int) -> bool:
        return g[i] < j if self.kind == "IRD" else g[i] == j

    def verify(self, target_structure: FiniteStructure) -> VerificationReport:
        """Independent re-evaluation of the full sign matrix."""
        compiled = [
            compile_formula(f, target_structure, self.parameters)
            for f in self.formulas
        ]
        for g, row in self.rows:
            for i in range(self.m):
                for j in range(self.length):
                    value = bool(
                        compiled[i]((0, len(row)), (*row, *self.column(i, j)))
                    )
                    if value != self.expected_sign(g, i, j):
                        return VerificationReport.refuted(
                            f"{self.kind}-pattern",
                            {"g": list(g), "i": i, "j": j, "value": value},
                        )
        return VerificationReport.verified_up_to(
            f"{self.kind}-pattern",
            self.length,
            rows=len(self.rows),
            depth=self.m,
        )

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "m": self.m,
            "length": self.length,
            "formulas": [f.render() for f in self.formulas],
            "rows": [{"g": list(g), "tuple": list(t)} for g, t in self.rows],
            "columns": [
                {"label": list(label) if isinstance(label, tuple) else label,
                 "tuple": list(t)}
                for label, t in self.columns
            ],
        }


def _find_pattern_witness(interp, target, structure, witness, budget):
    if callable(witness):
        witness = witness(structure)
    if witness is None:
        witness = search_witness(interp, target.structure, structure, budget=budget)
    if witness is None:
        consumed = interp.tuple_length * structure.size
        if target.certified_level < consumed:
            raise UnderCertifiedTarget(
                f"target certified at level {target.certified_level}, the "
                f"construction consumes level {consumed}"
            )
        raise WitnessMissing(
            f"no witness for the {structure.size}-point pattern carrier"
        )
    bad = witness_violation(interp, target.structure, structure, witness)
    if bad is not None:
        raise WitnessMissing(f"proposed witness violates a biconditional: {bad}")
    return [tuple(t) for t in witness]


def extract_IRD_pattern(
    interp: InterpretationMap,
    target: GenericModel,
    length: int,
    witness=None,
    budget: int | None = None,
) -> PatternWitness:
    """Read a depth-m order-comparison pattern out of a verified
    interpretation of m stacked linear orders.

    Carrier: rows are the odd points 2g+1 of the doubled grid
    {0..2*length-1}^m (orders: coordinate i with lexicographic
    tie-break), columns are the constant even points (2j, .., 2j); then
    order i compares row g with column j exactly as g(i) against j, the
    parity offset ruling out ties."""
    m = len(interp.index_spec.signature.names)
    if length < 1:
        raise ValueError(f"length {length} < 1")
    gs = list(itertools.product(range(length), repeat=m))
    row_points = [tuple(2 * c + 1 for c in g) for g in gs]
    col_points = [tuple([2 * j] * m) for j in range(length)]
    points = row_points + [p for p in col_points if p not in row_points]
    structure = order_grid(points, interp.index_spec)
    wit = _find_pattern_witness(interp, target, structure, witness, budget)
    index = {p: i for i, p in enumerate(points)}
    names = list(interp.index_spec.signature.names)
    pattern = PatternWitness(
        kind="IRD",
        m=m,
        length=length,
        formulas=[interp.formula(name) for name in names],
        parameters=interp.parameters,
        rows=[(g, wit[index[p]]) for g, p in zip(gs, row_points)],
        columns=[(j, wit[index[p]]) for j, p in enumerate(col_points)],
    )
    report = pattern.verify(target.structure)
    if not report:
        raise WitnessMissing(f"sign matrix failed re-verification: {report.details}")
    return pattern


def extract_ICT_pattern(
    interp: InterpretationMap,
    target: GenericModel,
    length: int,
    witness=None,
    budget: int | None = None,
) -> PatternWitness:
    """Read a depth-m equality-comparison pattern out of a verified
    interpretation of m independent equivalence relations.

    Carrier: the grid {0..length-1}^m with relation i holding on
    coordinate-i agreement.  Rows are all grid vectors; the column for
    (i, j) is the vector with j at coordinate i and 0 elsewhere, so
    relation i holds between row g and that column exactly when
    g(i) = j."""
    m = len(interp.index_spec.signature.names)
    if length < 1:
        raise ValueError(f"length {length} < 1")
    gs = list(itertools.product(range(length), repeat=m))
    structure = equality_grid(gs, interp.index_spec)
    wit = _find_pattern_witness(interp, target, structure, witness, budget)
    index = {p: i for i, p in enumerate(gs)}
    names = list(interp.index_spec.signature.names)
    columns = []
    for i in range(m):
        for j in range(length):
            point = tuple(j if c == i else 0 for c in range(m))
            columns.append(((i, j), wit[index[point]]))
    pattern = PatternWitness(
        kind="ICT",
        m=m,
        length=length,
        formulas=[interp.formula(name) for name in names],
        parameters=interp.parameters,
        rows=[(g, wit[index[g]]) for g in gs],
        columns=columns,
    )
    report = pattern.verify(target.structure)
    if not report:
        raise WitnessMissing(f"sign matrix failed re-verification: {report.details}")
    return pattern


def extend_target_with(pattern: FiniteStructure, target: GenericModel):
    """A copy of the target with the pattern appended as fresh points (no
    cross relations).  The extension is not extension-certified; it
    exists to carry explicitly constructed witnesses."""
    base = target.structure
    offset = base.size
    tables = {
        name: set(base.relations[name]) for name in base.signature.names
    }
    for name in pattern.signature.names:
        for tup in pattern.relations[name]:
            tables[name].add(tuple(offset + x for x in tup))
    combined = FiniteStructure.build(
        base.signature, base.size + pattern.size, tables
    )
    meta = dict(target.meta)
    meta.update({"extended_by": pattern.size, "closed": False})
    return GenericModel(combined, target.spec, -1, meta=meta), offset


# -- the reflexive-symmetric base-case arithmetic ------------------------------------------


def verify_dagger_base_case(model: GenericModel | None = None) -> VerificationReport:
    """Three counting facts behind the sharpened upper bound for
    equivalence relations in pairs of a generic graph.

    (a) the cross codes realized by pairs of 2-tuples with four distinct
        entries, identified under the simultaneous part swap, number
        |symmetric| + |non-symmetric| / 2 = 8 + 4 = 12 (the raw code
        count is 16; the swap-identified count is the operative one);
    (b) 2^(n^2) - n * 2^(n^2 - 2n) > 2^(n^2 - 1) + 2^(C(n+1,2) - 1) for
        n = 3..10;
    (c) 2^4 - 3 = 13 > 12.
    """
    if model is None:
        from .limits import build_generic_model

        model = build_generic_model(builtin("G"), level=3, size_cap=200)
    structure = model.structure
    name = structure.signature.names[0]
    realized = set()
    for quad in itertools.combinations(range(structure.size), 4):
        for perm in itertools.permutations(quad):
            a0, a1, b0, b1 = perm
            a, b = (a0, a1), (b0, b1)
            code = frozenset(
                (i, j)
                for i in range(2)
                for j in range(2)
                if structure.holds(name, (a[i], b[j]))
            )
            realized.add(BipartiteCode(2, code))
        if len(realized) == 16:
            break
    identified = {min(c, c.transpose(), key=BipartiteCode.key) for c in realized}
    total, symmetric_count, nonsym = bipartite_counts(2)
    part_a = {
        "raw_codes_realized": len(realized),
        "identified_count": len(identified),
        "expected": symmetric_count + nonsym // 2,
        "note": (
            "the swap-identified count 12, not the raw code count 16, is "
            "the operative quantity"
        ),
    }
    part_b = []
    for n in range(3, 11):
        lhs = 2 ** (n * n) - n * 2 ** (n * n - 2 * n)
        rhs = 2 ** (n * n - 1) + 2 ** (math.comb(n + 1, 2) - 1)
        part_b.append({"n": n, "lhs": lhs, "rhs": rhs, "holds": lhs > rhs})
    part_c = {"lhs": 2**4 - 3, "rhs": 12, "holds": 2**4 - 3 > 12}
    ok = (
        part_a["identified_count"] == 12
        and part_a["raw_codes_realized"] == 16
        and all(e["holds"] for e in part_b)
        and part_c["holds"]
    )
    if not ok:
        return VerificationReport.refuted(
            "dagger-base-case", {"a": part_a, "b": part_b, "c": part_c}
        )
    return VerificationReport.verified_up_to(
        "dagger-base-case", 10, a=part_a, b=part_b, c=part_c
    )


# -- the rank table ---------------------------------------------------------------------------


@dataclass
class RankResult:
    class_name: str
    n: int
    lower: int
    lower_certificate: ConfigCertificate | None
    lower_justification: str
    upper: int
    upper_justification: str

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError(
                f"lower {self.lower} exceeds upper {self.upper} for "
                f"{self.class_name} at n={self.n}"
            )

    @property
    def exact(self) -> int | None:
        return self.lower if self.lower == self.upper else None

    def to_json(self, include_certificate: bool = False) -> dict:
        lower: dict = {"m": self.lower, "justification": self.lower_justification}
        if include_certificate and self.lower_certificate is not None:
            lower["certificate"] = self.lower_certificate.to_json()
        return {
            "class": self.class_name,
            "n": self.n,
            "lower": lower,
            "upper": {"m": self.upper, "justification": self.upper_justification},
            "exact": self.exact,
        }


def _all_equality_interpretation(K: ClassSpec, target_signature: Signature):
    formulas = tuple(
        (name, Eq(Coord(0, 0), Coord(1, 0))) for name in K.signature.names
    )
    return InterpretationMap(K, target_signature, 1, (), formulas)


def _length_one_lower(K: ClassSpec, target: GenericModel, bound: int):
    """Certified rank-1 lower bound in 1-tuples when one exists: the
    identity reading (signatures permitting) or the all-equality reading;
    otherwise the unconditional lower bound 0."""
    candidates = []
    if K.signature == target.structure.signature:
        candidates.append(("identity", identity_interpretation(K)))
    candidates.append(
        ("equality", _all_equality_interpretation(K, target.structure.signature))
    )
    for label, interp in candidates:
        outcome = verify_configuration(interp, target, bound)
        if isinstance(outcome, ConfigCertificate):
            return 1, outcome, label
    return 0, None, "empty-product"


def compute_rank_table(
    K: ClassSpec, n_max: int, target: GenericModel, bound: int = 3
) -> list[RankResult]:
    """Bracketed ranks for n = 1..n_max against a generic graph target."""
    if n_max < 1:
        raise ValueError(f"n {n_max} < 1")
    results = []
    for n in range(1, n_max + 1):
        if n == 1:
            lower, cert, label = _length_one_lower(K, target, bound)
        else:
            interp, cert = build_quad_configuration(K, n, target, bound=bound)
            lower, label = n * n - 1, "bipartite-code-construction"
        record = counting_upper_bound(K, n)
        upper, justification = record["value"], record["rule"]
        if K.name == "E" and n == 2 and upper > n * n - 1:
            dagger = verify_dagger_base_case(model=target)
            if dagger:
                upper, justification = n * n - 1, "dagger-base-case"
        results.append(
            RankResult(K.name, n, lower, cert, label, upper, justification)
        )
    return results


def pad_interpretation(interp: InterpretationMap, tuple_length: int):
    """The same formulas over longer tuples (extra coordinates unused)."""
    if tuple_length < interp.tuple_length:
        raise ValueError("padding cannot shorten tuples")
    return InterpretationMap(
        interp.index_spec,
        interp.target_signature,
        tuple_length,
        interp.parameters,
        interp.formulas,
    )

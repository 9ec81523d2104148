"""Interpretation maps: coding one class inside tuples of another structure.

An interpretation map assigns to every relation symbol R of an index
class a quantifier-free formula over the target signature, read on
``arity(R)`` argument slots of ``tuple_length`` coordinates each (plus
optional target-vertex parameters).  A certificate for a size bound b
holds, for every canonical index structure A with at most b points, a
map f from A's points to target tuples such that

    A |= R(a_0, ..)  <=>  target |= formula_R(f(a_0), ..)

for *all* tuples, including repeated entries.  Certificates are
re-checkable by plain evaluation, independent of the search that found
them.

Evaluation is compiled: :func:`compile_formula` walks a formula tree
once and returns a closure over the target's relation tables, and each
check (``verify_configuration``, ``ConfigCertificate.recheck``,
``PatternWitness.verify``) compiles its map's formulas once per call and
keeps them no longer.  The tree walk it replaces, one per tuple, is the
test oracle ``reference_evaluate`` in ``tests/reference_search.py``.

Formulas are quantifier-free by design: every construction implemented
here uses quantifier-free formulas, which keeps evaluation total, fast
and decidable.  Verdicts are three-valued: a failed search only counts
as a refutation when the target's certified extension level covers the
number of points the witness would have occupied; otherwise the result
is inconclusive (a small target can spuriously refute).

Expression grammar for serialization (see ``parse_formula``):

    atom        R(0.1, 1.0)     relation R at slot-0 coord 1, slot-1 coord 0
    equality    0.0 = 1.0       coordinates or parameters compared
    parameter   p2              parameter number 2
    connectives !  &  |  and parentheses; constants "true", "false"
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from operator import itemgetter

from .classes import ClassSpec, parse_class_expr, superpose
from .errors import (
    NotParameterFree,
    NotReductive,
    OutOfRange,
    SignatureMismatch,
    UnknownRelation,
)
from .limits import GenericModel
from .report import VerificationReport
from .structures import (
    FiniteStructure,
    Signature,
    enumerate_structures_upto,
    find_embeddings,
    forward_search,
)


# -- references and formulas ----------------------------------------------------


@dataclass(frozen=True)
class Coord:
    slot: int
    coord: int

    def render(self) -> str:
        return f"{self.slot}.{self.coord}"


@dataclass(frozen=True)
class Param:
    index: int

    def render(self) -> str:
        return f"p{self.index}"


@dataclass(frozen=True)
class Atom:
    name: str
    args: tuple

    def render(self) -> str:
        return f"{self.name}({', '.join(a.render() for a in self.args)})"


@dataclass(frozen=True)
class Eq:
    left: object
    right: object

    def render(self) -> str:
        return f"{self.left.render()} = {self.right.render()}"


@dataclass(frozen=True)
class Not:
    inner: object

    def render(self) -> str:
        return f"!{_wrap(self.inner)}"


@dataclass(frozen=True)
class And:
    parts: tuple

    def render(self) -> str:
        if not self.parts:
            return "true"
        return " & ".join(_wrap(p, at="and") for p in self.parts)


@dataclass(frozen=True)
class Or:
    parts: tuple

    def render(self) -> str:
        if not self.parts:
            return "false"
        return " | ".join(_wrap(p, at="or") for p in self.parts)


@dataclass(frozen=True)
class Const:
    value: bool

    def render(self) -> str:
        return "true" if self.value else "false"


def _wrap(f, at="not") -> str:
    text = f.render()
    protect = {
        "not": (And, Or, Eq),
        "and": (Or, And),
        "or": (Or,),
    }[at]
    return f"({text})" if isinstance(f, protect) else text


def formula_refs(formula):
    """All Coord/Param references appearing in a formula."""
    if isinstance(formula, Atom):
        return list(formula.args)
    if isinstance(formula, Eq):
        return [formula.left, formula.right]
    if isinstance(formula, Not):
        return formula_refs(formula.inner)
    if isinstance(formula, (And, Or)):
        return [r for p in formula.parts for r in formula_refs(p)]
    return []


def formula_atoms(formula):
    """All atoms appearing in a formula."""
    if isinstance(formula, Atom):
        return [formula]
    if isinstance(formula, Not):
        return formula_atoms(formula.inner)
    if isinstance(formula, (And, Or)):
        return [a for p in formula.parts for a in formula_atoms(p)]
    return []


def map_refs(formula, fn):
    """Rebuild a formula applying ``fn`` to every reference."""
    if isinstance(formula, Atom):
        return Atom(formula.name, tuple(fn(a) for a in formula.args))
    if isinstance(formula, Eq):
        return Eq(fn(formula.left), fn(formula.right))
    if isinstance(formula, Not):
        return Not(map_refs(formula.inner, fn))
    if isinstance(formula, And):
        return And(tuple(map_refs(p, fn) for p in formula.parts))
    if isinstance(formula, Or):
        return Or(tuple(map_refs(p, fn) for p in formula.parts))
    return formula


# -- compiled evaluation -----------------------------------------------------------


def compile_formula(formula, target: FiniteStructure, params):
    """``holds(tuples)``: the truth of ``formula`` in ``target`` when slot
    i reads the tuple ``tuples[i]`` and parameter j is ``params[j]``.

    The tree is walked once, here: each node becomes a closure over its
    children's, and parameters are resolved to their values.  An atom
    looks its point up in the target's relation table, so a point outside
    the universe (a witness value of -1, say) never holds.  An atom that
    does not fit the target's signature raises :class:`UnknownRelation`
    or :class:`OutOfRange` here, as in :class:`InterpretationMap`.
    """
    if isinstance(formula, Const):
        value = formula.value
        return lambda tuples: value
    if isinstance(formula, Not):
        inner = compile_formula(formula.inner, target, params)
        return lambda tuples: not inner(tuples)
    if isinstance(formula, (And, Or)):
        parts = [compile_formula(p, target, params) for p in formula.parts]
        if isinstance(formula, And):

            def conj(tuples):
                for part in parts:
                    if not part(tuples):
                        return False
                return True

            return conj

        def disj(tuples):
            for part in parts:
                if part(tuples):
                    return True
            return False

        return disj
    if isinstance(formula, Eq):
        left = _compile_ref(formula.left, params)
        right = _compile_ref(formula.right, params)
        return lambda tuples: left(tuples) == right(tuples)
    _check_atom(formula, target.signature)
    table = target.relations[formula.name]
    if len(formula.args) == 2 and all(isinstance(a, Coord) for a in formula.args):
        # the shape of every built-in construction, read without getters
        (s0, c0), (s1, c1) = ((a.slot, a.coord) for a in formula.args)
        return lambda tuples: (tuples[s0][c0], tuples[s1][c1]) in table
    getters = [_compile_ref(a, params) for a in formula.args]
    return lambda tuples: tuple([get(tuples) for get in getters]) in table


def _check_atom(atom, signature):
    arity = signature.arity(atom.name)  # raises UnknownRelation
    if len(atom.args) != arity:
        raise OutOfRange(
            f"atom {atom.render()} has {len(atom.args)} arguments, "
            f"{atom.name} has arity {arity}"
        )


def _compile_ref(ref, params):
    if isinstance(ref, Coord):
        slot, coord = ref.slot, ref.coord
        return lambda tuples: tuples[slot][coord]
    value = params[ref.index]
    return lambda tuples: value


def compile_formulas(interp, target_structure):
    """Each index relation's compiled formula (:func:`compile_formula`),
    by relation name."""
    return {
        name: compile_formula(f, target_structure, interp.parameters)
        for name, f in interp.formulas
    }


# -- the expression grammar -------------------------------------------------------


def parse_formula(text: str):
    tokens = _lex(text)
    node, rest = _parse_or(tokens)
    if rest:
        raise ValueError(f"trailing tokens {rest!r} in formula {text!r}")
    return node


def _lex(text: str) -> list[str]:
    out, i = [], 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()&|!,=":
            out.append(c)
            i += 1
        else:
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] in "._#<>"):
                j += 1
            if j == i:
                raise ValueError(f"bad character {c!r} in formula")
            out.append(text[i:j])
            i = j
    return out


def _parse_or(tokens):
    node, tokens = _parse_and(tokens)
    parts = [node]
    while tokens and tokens[0] == "|":
        nxt, tokens = _parse_and(tokens[1:])
        parts.append(nxt)
    return (parts[0] if len(parts) == 1 else Or(tuple(parts))), tokens


def _parse_and(tokens):
    node, tokens = _parse_unary(tokens)
    parts = [node]
    while tokens and tokens[0] == "&":
        nxt, tokens = _parse_unary(tokens[1:])
        parts.append(nxt)
    return (parts[0] if len(parts) == 1 else And(tuple(parts))), tokens


def _parse_unary(tokens):
    if not tokens:
        raise ValueError("unexpected end of formula")
    if tokens[0] == "!":
        inner, rest = _parse_unary(tokens[1:])
        return Not(inner), rest
    if tokens[0] == "(":
        node, rest = _parse_or(tokens[1:])
        if not rest or rest[0] != ")":
            raise ValueError("unbalanced parentheses in formula")
        return node, rest[1:]
    return _parse_atomic(tokens)


def _parse_atomic(tokens):
    head = tokens[0]
    if head == "true":
        return Const(True), tokens[1:]
    if head == "false":
        return Const(False), tokens[1:]
    if len(tokens) > 1 and tokens[1] == "(":
        # relation application
        rest = tokens[2:]
        args = []
        while True:
            ref, rest = _parse_ref(rest)
            args.append(ref)
            if rest and rest[0] == ",":
                rest = rest[1:]
                continue
            if rest and rest[0] == ")":
                return Atom(head, tuple(args)), rest[1:]
            raise ValueError("malformed relation application")
    ref, rest = _parse_ref(tokens)
    if rest and rest[0] == "=":
        right, rest = _parse_ref(rest[1:])
        return Eq(ref, right), rest
    raise ValueError(f"expected '=' after reference, near {tokens[:3]}")


def _parse_ref(tokens):
    if not tokens:
        raise ValueError("expected a reference")
    tok = tokens[0]
    if tok.startswith("p") and tok[1:].isdigit():
        return Param(int(tok[1:])), tokens[1:]
    if "." in tok:
        slot, coord = tok.split(".", 1)
        if slot.isdigit() and coord.isdigit():
            return Coord(int(slot), int(coord)), tokens[1:]
    raise ValueError(f"bad reference {tok!r}")


# -- interpretation maps -----------------------------------------------------------


@dataclass(frozen=True)
class InterpretationMap:
    """One formula per index relation, interpreting the index class into
    ``tuple_length``-tuples over the target signature."""

    index_spec: ClassSpec
    target_signature: Signature
    tuple_length: int
    parameters: tuple[int, ...]
    formulas: tuple[tuple[str, object], ...]

    def __post_init__(self):
        if set(n for n, _ in self.formulas) != set(self.index_spec.signature.names):
            raise SignatureMismatch(
                "formulas do not cover the index signature exactly"
            )
        for name, formula in self.formulas:
            for atom in formula_atoms(formula):
                _check_atom(atom, self.target_signature)
            arity = self.index_spec.signature.arity(name)
            for ref in formula_refs(formula):
                if isinstance(ref, Coord):
                    if not (0 <= ref.slot < arity):
                        raise OutOfRange(f"slot {ref.slot} out of range for {name}")
                    if not (0 <= ref.coord < self.tuple_length):
                        raise OutOfRange(
                            f"coordinate {ref.coord} >= tuple length {self.tuple_length}"
                        )
                elif not (0 <= ref.index < len(self.parameters)):
                    raise OutOfRange(f"parameter p{ref.index} undeclared")

    def formula(self, name: str):
        for rel, f in self.formulas:
            if rel == name:
                return f
        raise UnknownRelation(f"no formula for {name!r}")

    def is_parameter_free(self) -> bool:
        return not self.parameters

    def to_json(self) -> dict:
        return {
            "index": self.index_spec.name,
            "target_signature": self.target_signature.to_json(),
            "tuple_length": self.tuple_length,
            "parameters": list(self.parameters),
            "formulas": {name: f.render() for name, f in self.formulas},
        }

    @classmethod
    def from_json(cls, data: dict) -> "InterpretationMap":
        for key in ("index", "target_signature", "tuple_length", "formulas"):
            if key not in data:
                raise ValueError(f"interpretation JSON has no {key!r} key")
        spec = parse_class_expr(data["index"])
        return cls(
            spec,
            Signature.from_json(data["target_signature"]),
            int(data["tuple_length"]),
            tuple(int(p) for p in data.get("parameters", [])),
            tuple(
                (name, parse_formula(text))
                for name, text in sorted(data["formulas"].items())
            ),
        )

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "InterpretationMap":
        return cls.from_json(json.loads(text))


def identity_interpretation(spec: ClassSpec) -> InterpretationMap:
    """R(x_0, .., x_{r-1}) goes to R(y_{0,0}, .., y_{r-1,0}): the class
    coded in 1-tuples of its own limit."""
    formulas = tuple(
        (name, Atom(name, tuple(Coord(i, 0) for i in range(arity))))
        for name, arity in spec.signature.symbols
    )
    return InterpretationMap(spec, spec.signature, 1, (), formulas)


# -- certificates --------------------------------------------------------------------


@dataclass
class ConfigCertificate:
    """Verified witnesses, one per canonical index structure up to the
    size bound.  ``witnesses[i]`` maps the points of ``structures[i]`` to
    target tuples."""

    interpretation: InterpretationMap
    target: GenericModel
    size_bound: int
    structures: list[FiniteStructure]
    witnesses: list[list[tuple[int, ...]]]

    def recheck(self) -> VerificationReport:
        """Independent re-evaluation of every biconditional (no search)."""
        compiled = compile_formulas(self.interpretation, self.target.structure)
        for structure, witness in zip(self.structures, self.witnesses):
            bad = _first_violation(compiled, structure, witness)
            if bad is not None:
                return VerificationReport.refuted(
                    "certificate-recheck",
                    {"structure": structure, "violation": bad},
                    bound=self.size_bound,
                )
        return VerificationReport.verified_up_to(
            "certificate-recheck", self.size_bound, structures=len(self.structures)
        )

    def to_json(self) -> dict:
        return {
            "interpretation": self.interpretation.to_json(),
            "target": self.target.to_json(),
            "size_bound": self.size_bound,
            "witnesses": [
                {
                    "structure": s.to_json(),
                    "map": [list(t) for t in w],
                }
                for s, w in zip(self.structures, self.witnesses)
            ],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


def witness_violation(interp, target_structure, structure, witness):
    """First violated biconditional of a witness map, or None."""
    return _first_violation(
        compile_formulas(interp, target_structure), structure, witness
    )


def _first_violation(compiled, structure, witness):
    """:func:`witness_violation` with the formulas already compiled.

    Tuples of A run in lexicographic order, relations in signature order;
    ``itertools.product`` over the witness yields each tuple's images in
    the same order as over A's points.
    """
    if len(witness) != structure.size:
        raise ValueError(
            f"witness maps {len(witness)} points, the structure has {structure.size}"
        )
    for name, arity in structure.signature.symbols:
        holds = compiled[name]
        table = structure.relations[name]
        points = itertools.product(range(structure.size), repeat=arity)
        images = itertools.product(witness, repeat=arity)
        for tup, tuples in zip(points, images):
            if holds(tuples) != (tup in table):
                return {"relation": name, "tuple": list(tup)}
    return None


# -- verification ---------------------------------------------------------------------


def verify_configuration(
    interp: InterpretationMap,
    target: GenericModel,
    size_bound: int,
    budget: int | None = None,
    witness_builder=None,
    jobs: int = 1,
):
    """Search witnesses for every canonical index structure up to the
    bound.

    Returns a :class:`ConfigCertificate` on success.  On a failed search
    the verdict is ``refuted`` only if the target's certified extension
    level is at least the number of target points a witness would occupy
    (tuple_length * |A|); otherwise ``inconclusive``.

    ``witness_builder(A)`` may propose a witness map per structure; the
    proposal is checked by evaluation and the search only runs if it is
    absent or wrong.  ``jobs > 1`` distributes the searches over processes
    with a deterministic merge.
    """
    if interp.target_signature != target.structure.signature:
        raise SignatureMismatch(
            "interpretation target signature does not match the model"
        )
    if size_bound < 1:
        raise ValueError(f"size bound {size_bound} < 1")
    if jobs < 1:
        raise ValueError(f"jobs {jobs} < 1")
    structures = enumerate_structures_upto(interp.index_spec, size_bound)
    witnesses: list = [None] * len(structures)
    searched = list(range(len(structures)))
    if witness_builder is not None:
        compiled = compile_formulas(interp, target.structure)
        for i, structure in enumerate(structures):
            proposal = witness_builder(structure)
            if proposal is not None and _first_violation(
                compiled, structure, proposal
            ) is None:
                witnesses[i] = [tuple(t) for t in proposal]
        searched = [i for i in range(len(structures)) if witnesses[i] is None]
    if jobs > 1 and searched:
        import multiprocessing  # only a pool pays for its import

        tasks = [(structures[i].dumps(), budget) for i in searched]
        with multiprocessing.Pool(
            jobs,
            initializer=_load_search_inputs,
            initargs=(interp.dumps(), target.dumps()),
        ) as pool:
            results = pool.map(_search_task, tasks)
        for i, result in zip(searched, results):
            witnesses[i] = result
    else:
        for i in searched:
            witnesses[i] = search_witness(
                interp, target.structure, structures[i], budget=budget
            )
    for structure, witness in zip(structures, witnesses):
        if witness is None:
            consumed = interp.tuple_length * structure.size
            if target.certified_level < consumed:
                return VerificationReport.inconclusive(
                    "configuration",
                    "target extension level below the level the search consumed",
                    bound=size_bound,
                    structure=structure.to_json(),
                    consumed_level=consumed,
                    certified_level=target.certified_level,
                )
            return VerificationReport.refuted(
                "configuration",
                {"structure": structure},
                bound=size_bound,
                consumed_level=consumed,
                certified_level=target.certified_level,
            )
    return ConfigCertificate(
        interp, target, size_bound, structures, [list(map(tuple, w)) for w in witnesses]
    )


# The interpretation and target structure of a ``jobs > 1`` worker process,
# loaded once per worker so its target's bit rows are built once.
_WORKER_INPUTS = None


def _load_search_inputs(interp_text, target_text):
    global _WORKER_INPUTS
    _WORKER_INPUTS = (
        InterpretationMap.loads(interp_text),
        GenericModel.loads(target_text).structure,
    )


def _search_task(task):
    structure_text, budget = task
    interp, target_structure = _WORKER_INPUTS
    structure = FiniteStructure.loads(structure_text)
    return search_witness(interp, target_structure, structure, budget=budget)


def search_witness(
    interp: InterpretationMap,
    target_structure: FiniteStructure,
    structure: FiniteStructure,
    budget: int | None = None,
):
    """Forward-checking search for one witness map, coordinate by
    coordinate.

    Variables are the coordinates of the witness tuples in element-major
    order, and values are target points tried in ascending order, so the
    witness found is the lexicographically first.  Each biconditional is
    compiled to the bitset of values of its last coordinate that satisfy
    it (:func:`_allowed_values`); :func:`~fraisse.structures.forward_search`
    filters that coordinate's candidates as soon as the other coordinates
    it reads are assigned, and backtracks on an empty candidate set.  A
    search node is a candidate value that survived this filtering; more
    than ``budget`` nodes raise :class:`BudgetExceeded`.
    """
    n = interp.tuple_length
    size = structure.size
    params = interp.parameters
    full = (1 << target_structure.size) - 1

    constraints = []
    for name, arity in structure.signature.symbols:
        formula = interp.formula(name)
        refs = [r for r in formula_refs(formula) if isinstance(r, Coord)]
        if not refs:
            # a formula without coordinates is one truth value for all tuples
            value = compile_formula(formula, target_structure, params)(())
            table = structure.relations[name]
            if any(
                (tup in table) != value
                for tup in itertools.product(range(size), repeat=arity)
            ):
                return None
            continue
        for tup in itertools.product(range(size), repeat=arity):
            expected = structure.holds(name, tup)
            variables = sorted({tup[r.slot] * n + r.coord for r in refs})
            allowed = _allowed_values(
                formula if expected else Not(formula),
                lambda ref, tup=tup: tup[ref.slot] * n + ref.coord,
                params,
                variables[-1],
                target_structure,
                full,
            )
            constraints.append((tuple(variables), allowed))

    solutions = forward_search(
        [full] * (n * size), constraints, limit=1, budget=budget, what="witness search"
    )
    if not solutions:
        return None
    values = solutions[0]
    return [tuple(values[e * n : (e + 1) * n]) for e in range(size)]


def _allowed_values(formula, var_of, params, last, target, full):
    """Compile a formula for forward checking.

    Returns ``allowed(values)``: the bitset of values of variable ``last``
    for which the formula holds in ``target``, given ``values`` of the
    other variables it reads (``var_of`` maps a coordinate to its
    variable).  A binary atom with one end at ``last`` is a row of the
    target's ``bit_rows``, an equality with ``last`` is one bit, and the
    connectives are bit operations; atoms of other arities test each
    candidate value.
    """
    size = target.size

    def ref_value(ref):
        """None for ``last``, else a function of ``values``."""
        if isinstance(ref, Coord):
            v = var_of(ref)
            return None if v == last else itemgetter(v)
        p = params[ref.index]
        return lambda values: p

    def row_of(rows, ref):
        if isinstance(ref, Coord):
            v = var_of(ref)
            return lambda values: rows[values[v]]
        p = params[ref.index]
        mask = rows[p] if 0 <= p < size else 0
        return lambda values: mask

    def constant(mask):
        return lambda values: mask

    if isinstance(formula, Const):
        return constant(full if formula.value else 0)
    if isinstance(formula, Not):
        inner = _allowed_values(formula.inner, var_of, params, last, target, full)
        return lambda values: full ^ inner(values)
    if isinstance(formula, (And, Or)):
        parts = [
            _allowed_values(p, var_of, params, last, target, full)
            for p in formula.parts
        ]
        if isinstance(formula, And):

            def conj(values):
                mask = full
                for part in parts:
                    mask &= part(values)
                    if not mask:
                        break
                return mask

            return conj

        def disj(values):
            mask = 0
            for part in parts:
                mask |= part(values)
                if mask == full:
                    break
            return mask

        return disj
    if isinstance(formula, Eq):
        left, right = ref_value(formula.left), ref_value(formula.right)
        if left is None and right is None:
            return constant(full)
        if left is None or right is None:
            other = formula.right if left is None else formula.left
            if isinstance(other, Coord):
                v = var_of(other)
                return lambda values: 1 << values[v]
            p = params[other.index]
            return constant(1 << p if 0 <= p < size else 0)
        return lambda values: full if left(values) == right(values) else 0

    name = formula.name
    getters = [ref_value(a) for a in formula.args]
    rows = target.bit_rows.get(name) if len(getters) == 2 else None
    if rows is not None and None in getters:
        out_rows, in_rows, loops = rows
        first, second = formula.args
        if getters[0] is None and getters[1] is None:
            return constant(loops)
        if getters[0] is None:
            return row_of(in_rows, second)
        return row_of(out_rows, first)
    if None not in getters:
        return lambda values: (
            full if target.holds(name, tuple(g(values) for g in getters)) else 0
        )

    def scan(values):
        point = [None if g is None else g(values) for g in getters]
        mask = 0
        for x in range(size):
            image = tuple(x if g is None else p for g, p in zip(getters, point))
            if target.holds(name, image):
                mask |= 1 << x
        return mask

    return scan


# -- parameter elimination --------------------------------------------------------------


def make_parameter_free(interp: InterpretationMap) -> InterpretationMap:
    """Append the parameter vertices as extra coordinates of every tuple;
    parameter references are read off slot 0's appended coordinates."""
    if interp.is_parameter_free():
        return interp
    n = interp.tuple_length
    count = len(interp.parameters)

    def rewrite(ref):
        if isinstance(ref, Param):
            return Coord(0, n + ref.index)
        return ref

    formulas = tuple(
        (name, map_refs(f, rewrite)) for name, f in interp.formulas
    )
    return InterpretationMap(
        interp.index_spec, interp.target_signature, n + count, (), formulas
    )


def transfer_certificate_parameter_free(
    cert: ConfigCertificate,
) -> ConfigCertificate:
    """The matching certificate transform: append the parameter vertices
    to every witness tuple."""
    new_interp = make_parameter_free(cert.interpretation)
    params = cert.interpretation.parameters
    witnesses = [
        [tuple(t) + tuple(params) for t in witness] for witness in cert.witnesses
    ]
    return ConfigCertificate(
        new_interp, cert.target, cert.size_bound, list(cert.structures), witnesses
    )


# -- products ------------------------------------------------------------------------------


def product_configuration(
    interp0: InterpretationMap, interp1: InterpretationMap
) -> InterpretationMap:
    """Interpret the superposition of the index classes in concatenated
    tuples: factor 0 reads the first block of coordinates, factor 1 the
    second."""
    if interp0.target_signature != interp1.target_signature:
        raise SignatureMismatch("product factors target different signatures")
    index = superpose(interp0.index_spec, interp1.index_spec)
    collide = set(interp0.index_spec.signature.names) & set(
        interp1.index_spec.signature.names
    )
    n0, n1 = interp0.tuple_length, interp1.tuple_length
    p0 = len(interp0.parameters)

    def block(formula, offset, param_offset):
        def rewrite(ref):
            if isinstance(ref, Coord):
                return Coord(ref.slot, ref.coord + offset)
            return Param(ref.index + param_offset)

        return map_refs(formula, rewrite)

    formulas = []
    for name, f in interp0.formulas:
        new_name = f"{name}#0" if name in collide else name
        formulas.append((new_name, block(f, 0, 0)))
    for name, f in interp1.formulas:
        new_name = f"{name}#1" if name in collide else name
        formulas.append((new_name, block(f, n0, p0)))
    return InterpretationMap(
        index,
        interp0.target_signature,
        n0 + n1,
        interp0.parameters + interp1.parameters,
        tuple(formulas),
    )


# -- composition -----------------------------------------------------------------------------


def compose_configurations(
    outer: InterpretationMap, inner: InterpretationMap
) -> InterpretationMap:
    """Substitute the inner map's formulas for the outer map's atoms.

    The outer map interprets its index class into tuples over the inner
    *index* signature; the inner map tells how each of those relations is
    read inside the final target, so substitution interprets the outer
    index class into tuples of length outer.n * inner.n over the inner
    target.  Outer coordinate (slot i, coord j) becomes the block
    [j * inner.n, (j+1) * inner.n) of slot i; outer equalities become
    coordinate-wise equality of blocks.
    """
    if not outer.is_parameter_free():
        raise NotParameterFree("composition requires a parameter-free outer map")
    if outer.target_signature != inner.index_spec.signature:
        raise SignatureMismatch(
            "outer target signature must equal the inner index signature"
        )
    n_in = inner.tuple_length

    def expand(formula):
        if isinstance(formula, Eq):
            left, right = formula.left, formula.right
            return And(
                tuple(
                    Eq(
                        Coord(left.slot, left.coord * n_in + c),
                        Coord(right.slot, right.coord * n_in + c),
                    )
                    for c in range(n_in)
                )
            )
        if isinstance(formula, Atom):
            inner_formula = inner.formula(formula.name)

            def rewrite(ref):
                if isinstance(ref, Coord):
                    anchor = formula.args[ref.slot]
                    return Coord(anchor.slot, anchor.coord * n_in + ref.coord)
                return ref

            return map_refs(inner_formula, rewrite)
        if isinstance(formula, Not):
            return Not(expand(formula.inner))
        if isinstance(formula, And):
            return And(tuple(expand(p) for p in formula.parts))
        if isinstance(formula, Or):
            return Or(tuple(expand(p) for p in formula.parts))
        return formula

    formulas = tuple((name, expand(f)) for name, f in outer.formulas)
    return InterpretationMap(
        outer.index_spec,
        inner.target_signature,
        outer.tuple_length * n_in,
        inner.parameters,
        formulas,
    )


# -- reductive subclasses ---------------------------------------------------------------------


def restrict_to_reductive_subclass(
    interp: InterpretationMap, sub: ClassSpec, bound: int = 3
) -> InterpretationMap:
    """Drop the formulas outside ``sub``'s signature, after checking (up
    to ``bound``) that every member of ``sub`` is the reduct of a
    same-size member of the index class."""
    for name, arity in sub.signature.symbols:
        if name not in interp.index_spec.signature:
            raise SignatureMismatch(f"subclass relation {name!r} missing in index")
        if interp.index_spec.signature.arity(name) != arity:
            raise SignatureMismatch(f"arity mismatch on {name!r}")
    for structure in enumerate_structures_upto(sub, bound):
        if _reduct_expansion(interp.index_spec, sub, structure) is None:
            raise NotReductive(
                f"no same-size expansion of a {sub.name} member of size "
                f"{structure.size}",
                structure=structure,
            )
    formulas = tuple(
        (name, f) for name, f in interp.formulas if name in sub.signature
    )
    return InterpretationMap(
        sub,
        interp.target_signature,
        interp.tuple_length,
        interp.parameters,
        formulas,
    )


def _reduct_expansion(index_spec, sub, structure):
    """A same-size index member whose sub-reduct is isomorphic to
    ``structure``, with the matching isomorphism (expansion, mapping)."""
    from .structures import enumerate_structures

    names = list(sub.signature.names)
    for candidate in enumerate_structures(index_spec, structure.size):
        reduct = FiniteStructure(
            sub.signature,
            candidate.size,
            {n: candidate.relations[n] for n in names},
        )
        embeddings = find_embeddings(structure, reduct, limit=1)
        if embeddings:
            return candidate, embeddings[0].mapping
    return None


def transfer_certificate_to_subclass(
    cert: ConfigCertificate, restricted: InterpretationMap
) -> ConfigCertificate:
    """Certificates transfer to a reductive subclass by composing each
    witness with a reduct-matching embedding into an expanded member."""
    sub = restricted.index_spec
    index_spec = cert.interpretation.index_spec
    by_key = {
        s.canonical_key(): (s, w)
        for s, w in zip(cert.structures, cert.witnesses)
    }
    structures = enumerate_structures_upto(sub, cert.size_bound)
    witnesses = []
    for structure in structures:
        found = _reduct_expansion(index_spec, sub, structure)
        if found is None:
            raise NotReductive(
                f"no expansion for a {sub.name} member", structure=structure
            )
        expansion, mapping = found
        key = expansion.canonical_key()
        if key not in by_key:
            raise NotReductive(
                "certificate lacks the expanded structure", structure=expansion
            )
        _, expanded_witness = by_key[key]
        witnesses.append([expanded_witness[mapping[i]] for i in range(structure.size)])
    return ConfigCertificate(
        restricted, cert.target, cert.size_bound, structures, witnesses
    )

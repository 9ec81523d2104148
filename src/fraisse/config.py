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

One compiler serves evaluation and search: :func:`compile_formula`
returns ``mask(at, values)``, the bitset of target points that make the
formula hold when its free references read them, reading the other
coordinates of each slot from a flat list of values.  With no free
reference that is the truth as 1 or 0, which certificate rechecks,
``witness_violation`` and ``PatternWitness.verify`` read;
:func:`search_witness` frees the references to the coordinate a check
filters.  A formula compiles to its distinct leaves (atoms and
equalities) and a truth table, one bit per assignment of the leaves,
built by one bit-parallel walk of the tree.  Evaluation reads the leaves
into an index and tests one bit.  Forward checking reads the leaves
that do not see the free references into an index that picks a
cofactor of the table, and ORs the cofactor's minterms, each an AND of
the free leaves' point rows or their complements.  A formula of more
than 16 leaves runs the same walk on every call instead.  Each call
compiles what it needs once: a recheck its map's formulas, a
``verify_configuration`` call (or one ``--jobs`` worker) each search
check.  The tree walk per tuple is the test oracle
``reference_evaluate`` in ``tests/reference_search.py``.

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
import operator
from dataclasses import dataclass
from functools import lru_cache, partial

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

# The most leaves a truth table covers (2**16 bits); a formula with more
# walks its tree on every call.
_TABLE_LEAVES = 16


def compile_formula(formula, target: FiniteStructure, params, free=frozenset()):
    """``mask(at, values)``: the bitset of points x of ``target`` for
    which ``formula`` holds when every reference in ``free`` reads x.

    Coordinate ``(s, c)`` outside ``free`` reads ``values[at[s] + c]``
    and parameter j reads ``params[j]``.  With ``free`` empty the result
    is the truth as 1 or 0.

    The formula becomes its distinct leaves (``Atom`` and ``Eq`` nodes),
    those that read a free reference first, and a truth table: an int
    whose bit a is the formula's truth when leaf i reads bit i of a,
    built by one bit-parallel walk of the tree (:func:`_truth`).  A call
    reads the other leaves into an index.  With ``free`` empty the index
    picks the truth; otherwise it picks a cofactor, the table over the
    free leaves (Shannon's expansion), whose minterms are ORed
    (:func:`_minterms`).  A free leaf's row is a row of the target's
    ``bit_rows`` for a binary atom (the loop mask when both ends are
    free), one point's bit for an equality, and a scan of the points for
    other arities.  Above ``_TABLE_LEAVES`` leaves the same walk runs on
    every call, over the leaf values.

    An atom looks its tuple up in the relation table, so a point outside
    the universe (a witness value of -1, say) never holds, and a
    parameter outside the universe gives an empty row and bit.  An atom
    that does not fit the target's signature raises
    :class:`UnknownRelation` or :class:`OutOfRange` here, as in
    :class:`InterpretationMap`.
    """
    atoms, getters, make = _plan(formula, free)
    for atom in atoms:
        _check_atom(atom, target.signature)
    return make(*[get(target, params) for get in getters])


@lru_cache(maxsize=None)
def _plan(formula, free):
    """What :func:`compile_formula` makes of ``formula`` and ``free``
    alone: the atoms to check, a getter ``get(target, params)`` for each
    value the mask reads, and ``make(*values)``, which returns the mask.

    The mask is a lambda generated from the leaves and closed over those
    values, so a binary coordinate atom is one tuple lookup and a formula
    of one leaf costs one call, as a hand-written closure would.
    """
    leaves = list(_leaves(formula, {}))
    freed = [leaf for leaf in leaves if _reads(leaf, free)]
    fixed = [leaf for leaf in leaves if not _reads(leaf, free)]
    getters = []

    def read(get):
        """The name under which the mask reads ``get(target, params)``."""
        getters.append(get)
        return f"v{len(getters) - 1}"

    def ref(r):
        if isinstance(r, Param):
            j = r.index
            return read(lambda target, params: params[j])
        slot, coord = operator.index(r.slot), operator.index(r.coord)
        return f"values[at[{slot}] + {coord}]" if coord else f"values[at[{slot}]]"

    def table(leaf):
        name = leaf.name
        return read(lambda target, params: target.relations[name])

    def holds(leaf):
        if isinstance(leaf, Eq):
            return f"{ref(leaf.left)} == {ref(leaf.right)}"
        return f"({''.join(f'{ref(a)}, ' for a in leaf.args)}) in {table(leaf)}"

    full = read(lambda target, params: (1 << target.size) - 1) if free else "1"

    def row(leaf):
        """The bitset of the points x for which a free leaf holds."""
        if isinstance(leaf, Eq):
            if leaf.left in free and leaf.right in free:
                return full
            bound = leaf.right if leaf.left in free else leaf.left
            return point_row(lambda target: [1 << x for x in range(target.size)], bound)
        if len(leaf.args) != 2:
            point = "".join("x, " if a in free else f"{ref(a)}, " for a in leaf.args)
            size = read(lambda target, params: target.size)
            return f"sum([1 << x for x in range({size}) if ({point}) in {table(leaf)}])"
        name = leaf.name
        first, second = leaf.args
        if first in free and second in free:
            return read(lambda target, params: target.bit_rows[name][2])
        # the in-rows {x : R(x, v)} when the first end is free, else the out-rows
        side, bound = (1, second) if first in free else (0, first)
        return point_row(lambda target: target.bit_rows[name][side], bound)

    def point_row(rows, r):
        """``rows(target)[v]`` for the point v that ``r`` reads; none
        outside the universe."""
        if isinstance(r, Coord):
            return f"{read(lambda target, params: rows(target))}[{ref(r)}]"
        j = r.index

        def get(target, params):
            p = params[j]
            return rows(target)[p] if 0 <= p < target.size else 0

        return read(get)

    if len(leaves) > _TABLE_LEAVES:
        values = [row(leaf) for leaf in freed] + [f"-({holds(leaf)}) & {full}" for leaf in fixed]
        tree = read(lambda target, params: formula)
        order = read(lambda target, params: freed + fixed)
        body = f"_truth({tree}, dict(zip({order}, ({', '.join(values)},))), {full})"
    else:
        # leaf i's column: the assignments with bit i set, of all 2**L
        ones = (1 << (1 << len(leaves))) - 1
        columns = {
            leaf: ones // ((1 << (1 << i)) + 1) << (1 << i)
            for i, leaf in enumerate(freed + fixed)
        }
        truth = _truth(formula, columns, ones)
        k = len(freed)
        index = " | ".join(f"({holds(leaf)}) << {i}" for i, leaf in enumerate(fixed)) or "0"
        if not free:
            body = f"{read(lambda target, params: truth)} >> ({index}) & 1"
        elif not fixed and k == 1:
            # the one cofactor is known here: no minterm, one, the other, or both
            only = row(freed[0])
            body = ("0", f"{full} ^ {only}", only, full)[truth]
        else:
            cofactor = f"{read(lambda target, params: truth)} >> (({index}) << {k})"
            rows = "".join(f"{row(leaf)}, " for leaf in freed)
            body = f"_minterms({cofactor} & {(1 << (1 << k)) - 1}, ({rows}), {full})"
    arguments = ", ".join(f"v{i}" for i in range(len(getters)))
    make = eval(f"lambda {arguments}: lambda at, values: {body}", globals())
    return [leaf for leaf in leaves if isinstance(leaf, Atom)], getters, make


def _leaves(formula, out):
    """``out`` with the distinct ``Atom`` and ``Eq`` nodes of ``formula``
    added as keys, in the order they first appear."""
    if isinstance(formula, (Atom, Eq)):
        out[formula] = None
    elif isinstance(formula, Not):
        _leaves(formula.inner, out)
    elif isinstance(formula, (And, Or)):
        for part in formula.parts:
            _leaves(part, out)
    return out


def _reads(leaf, free):
    refs = leaf.args if isinstance(leaf, Atom) else (leaf.left, leaf.right)
    return any(r in free for r in refs)


def _truth(formula, columns, full):
    """The one tree walk, bit-parallel: the bitset of ``formula`` when
    each leaf is the bitset ``columns[leaf]`` and ``full`` is every bit."""
    if isinstance(formula, Const):
        return full if formula.value else 0
    if isinstance(formula, Not):
        return full ^ _truth(formula.inner, columns, full)
    if isinstance(formula, And):
        mask = full
        for part in formula.parts:
            mask &= _truth(part, columns, full)
        return mask
    if isinstance(formula, Or):
        mask = 0
        for part in formula.parts:
            mask |= _truth(part, columns, full)
        return mask
    return columns[formula]


def _minterms(cofactor, rows, full):
    """The OR of the minterms set in ``cofactor``: minterm m ANDs
    ``rows[i]`` where bit i of m is set and its complement where clear."""
    mask = 0
    while cofactor:
        low = cofactor & -cofactor
        cofactor ^= low
        m = low.bit_length() - 1
        term = full
        for i, row in enumerate(rows):
            term &= row if m >> i & 1 else full ^ row
        mask |= term
    return mask


def _check_atom(atom, signature):
    arity = signature.arity(atom.name)  # raises UnknownRelation
    if len(atom.args) != arity:
        raise OutOfRange(
            f"atom {atom.render()} has {len(atom.args)} arguments, "
            f"{atom.name} has arity {arity}"
        )


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
        n = self.interpretation.tuple_length
        for structure, witness in zip(self.structures, self.witnesses):
            bad = _first_violation(compiled, n, structure, witness)
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
        compile_formulas(interp, target_structure), interp.tuple_length, structure, witness
    )


def _first_violation(compiled, n, structure, witness):
    """:func:`witness_violation` with the formulas already compiled and
    tuples of length ``n``.

    Tuples of A run in lexicographic order, relations in signature order;
    the witness is flattened once, and ``itertools.product`` over its
    tuples' start offsets yields each tuple's ``at`` in the same order as
    over A's points.
    """
    if len(witness) != structure.size:
        raise ValueError(
            f"witness maps {len(witness)} points, the structure has {structure.size}"
        )
    for t in witness:
        if len(t) != n:
            raise ValueError(
                f"witness tuple {list(t)} has {len(t)} coordinates, the tuple length is {n}"
            )
    values = [x for t in witness for x in t]
    starts = [e * n for e in range(structure.size)]
    for name, arity in structure.signature.symbols:
        mask = compiled[name]
        table = structure.relations[name]
        points = itertools.product(range(structure.size), repeat=arity)
        for tup, at in zip(points, itertools.product(starts, repeat=arity)):
            if mask(at, values) != (tup in table):
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
                compiled, interp.tuple_length, structure, proposal
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
        checks = {}
        for i in searched:
            witnesses[i] = _search_witness(
                interp, target.structure, structures[i], budget, checks
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


# The interpretation, target structure and compiled search checks of a
# ``jobs > 1`` worker process, built once per worker.
_WORKER_INPUTS = None


def _load_search_inputs(interp_text, target_text):
    global _WORKER_INPUTS
    _WORKER_INPUTS = (
        InterpretationMap.loads(interp_text),
        GenericModel.loads(target_text).structure,
        {},
    )


def _search_task(task):
    structure_text, budget = task
    interp, target_structure, checks = _WORKER_INPUTS
    structure = FiniteStructure.loads(structure_text)
    return _search_witness(interp, target_structure, structure, budget, checks)


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
    a check on the bitset of values of its last coordinate that satisfy
    it: the relation's formula, negated where the tuple is not in A,
    compiled by :func:`compile_formula` with the references that read the
    last coordinate free.  :func:`~fraisse.structures.forward_search`
    filters that coordinate's candidates as soon as the other coordinates
    it reads are assigned, and backtracks on an empty candidate set.  A
    search node is a candidate value that survived this filtering; more
    than ``budget`` nodes raise :class:`BudgetExceeded`.
    """
    return _search_witness(interp, target_structure, structure, budget, {})


def _search_witness(interp, target_structure, structure, budget, checks):
    """:func:`search_witness`, compiling each check once into ``checks``,
    keyed by (relation, expected truth, free references), so searches
    over one map and target share their compiled checks."""
    n = interp.tuple_length
    size = structure.size
    constraints = []
    for name, arity in structure.signature.symbols:
        formula = interp.formula(name)
        refs = [r for r in formula_refs(formula) if isinstance(r, Coord)]
        for tup in itertools.product(range(size), repeat=arity):
            variables = tuple(sorted({tup[r.slot] * n + r.coord for r in refs}))
            last = variables[-1] if variables else None
            free = frozenset(r for r in refs if tup[r.slot] * n + r.coord == last)
            expected = structure.holds(name, tup)
            key = (name, expected, free)
            if key not in checks:
                checks[key] = compile_formula(
                    formula if expected else Not(formula),
                    target_structure,
                    interp.parameters,
                    free,
                )
            mask = partial(checks[key], tuple(t * n for t in tup))
            if variables:
                constraints.append((variables, mask))
            elif not mask(()):
                # a formula without coordinates fails for every map alike
                return None

    full = (1 << target_structure.size) - 1
    solutions = forward_search(
        [full] * (n * size), constraints, limit=1, budget=budget, what="witness search"
    )
    if not solutions:
        return None
    values = solutions[0]
    return [tuple(values[e * n : (e + 1) * n]) for e in range(size)]


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

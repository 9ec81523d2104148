"""Finite relational structures over explicit universes ``{0, ..., n-1}``.

A structure is a relational signature together with one set of tuples per
relation symbol.  Everything downstream (class membership, model building,
interpretation verification) manipulates these objects, so the
representation stays deliberately simple: tuples of ints in frozensets.

Isomorphism is handled by brute-force canonicalisation: the canonical form
of a structure is the relabelling (over all ``n!`` permutations) whose
bit-encoding of the relation tables is minimal.  All ``n!`` encodings are
computed at once, as one big int ORed from a lazily built table of lanes
(:func:`_lane_table`); only the winning relabelling is built.  Universes
stay small (single digits) throughout, so this is both adequate and easy
to audit.

Structures from outside (the constructor, ``build``, ``from_json``/``loads``
and ``glue``) are validated in ``__post_init__``.  Structures the module
derives from an already valid one (relabels, induced substructures, padded
universes, ``with_relations``) are built by ``FiniteStructure._trusted``
after checking only their own arguments.

Embeddings are strong: they must preserve *and* reflect every relation.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import (
    BoundExceeded,
    BudgetExceeded,
    NotAnEmbedding,
    NotBijective,
    OutOfRange,
    SignatureMismatch,
    SignatureOverlap,
    UnknownRelation,
)


@dataclass(frozen=True)
class Signature:
    """An ordered list of relation symbols with arities.

    The declaration order is significant: it fixes the bit-encoding used by
    canonical forms and the serialization order of relation tables.
    ``names`` is the tuple of relation names in that order.
    """

    symbols: tuple[tuple[str, int], ...]

    def __post_init__(self):
        names = [name for name, _ in self.symbols]
        if len(set(names)) != len(names):
            raise SignatureOverlap(f"duplicate relation names in {names}")
        for name, arity in self.symbols:
            if arity < 1:
                raise OutOfRange(f"relation {name!r} has arity {arity} < 1")
        # the names in order, and name -> arity for the membership checks'
        # per-call lookups; attributes, not fields, so equality and hashing
        # read ``symbols`` alone
        object.__setattr__(self, "names", tuple(names))
        object.__setattr__(self, "_arities", dict(self.symbols))

    def arity(self, name: str) -> int:
        if name not in self._arities:
            raise UnknownRelation(f"no relation named {name!r} in {self.names}")
        return self._arities[name]

    def __contains__(self, name: str) -> bool:
        return name in self._arities

    def union(self, other: "Signature") -> "Signature":
        """Concatenate two signatures with disjoint relation names."""
        overlap = set(self.names) & set(other.names)
        if overlap:
            raise SignatureOverlap(f"relation names collide: {sorted(overlap)}")
        return Signature(self.symbols + other.symbols)

    def restrict(self, names: Sequence[str]) -> "Signature":
        for name in names:
            if name not in self:
                raise UnknownRelation(f"no relation named {name!r}")
        return Signature(tuple((n, a) for n, a in self.symbols if n in set(names)))

    def rename(self, mapping: dict[str, str]) -> "Signature":
        return Signature(tuple((mapping.get(n, n), a) for n, a in self.symbols))

    def to_json(self) -> list[dict]:
        return [{"name": n, "arity": a} for n, a in self.symbols]

    @classmethod
    def from_json(cls, data: list[dict]) -> "Signature":
        return cls(tuple((d["name"], int(d["arity"])) for d in data))


EMPTY_SIGNATURE = Signature(())


@lru_cache(maxsize=None)
def _tuple_index(n: int, arity: int) -> dict[tuple[int, ...], int]:
    """Lexicographic position of each tuple over ``range(n)**arity``."""
    return {t: i for i, t in enumerate(itertools.product(range(n), repeat=arity))}


MAX_LANE_TABLE_BYTES = 1 << 28
"""The largest lane table :func:`_lane_table` builds, in bytes: enough for
three binary relations on 8 points, or one ternary relation on 7."""


@lru_cache(maxsize=None)
def _lane_table(n: int, arities: tuple[int, ...]):
    """Lanes to OR into the encodings of all n! relabellings at once.

    Relabelling i of ``itertools.permutations(range(n))`` owns slot i, the
    i-th ``step`` bytes of a big-endian int: the relabelled structure's
    :meth:`~FiniteStructure.encode` concatenated, first relation most
    significant.  ``lanes[j][t]`` sets in every slot the bit of tuple t of
    relation j under that slot's relabelling; ``fields[j]`` is the shift
    and mask of relation j within a slot.  Built on first use only, and
    never past :data:`MAX_LANE_TABLE_BYTES`.
    """
    widths = [n**arity for arity in arities]
    step = max(1, (sum(widths) + 7) // 8)
    needed = math.factorial(n) * step * sum(widths)
    if needed > MAX_LANE_TABLE_BYTES:
        raise BoundExceeded(
            f"canonical form on {n} points with arities {list(arities)} needs "
            f"{needed >> 20} MB of lanes, over {MAX_LANE_TABLE_BYTES >> 20} MB"
        )
    perms = list(itertools.permutations(range(n)))
    shifts = [sum(widths[j + 1 :]) for j in range(len(widths))]
    lanes = []
    for arity, width, shift in zip(arities, widths, shifts):
        # the slot in which only the bit of tuple index u is set
        bits = [(1 << shift + width - 1 - u).to_bytes(step, "big") for u in range(width)]
        lane = {}
        for tup in itertools.product(range(n), repeat=arity):
            index = [0] * len(perms)
            for x in tup:
                index = [u * n + perm[x] for u, perm in zip(index, perms)]
            lane[tup] = int.from_bytes(b"".join([bits[u] for u in index]), "big")
        lanes.append(lane)
    fields = tuple((shift, (1 << width) - 1) for width, shift in zip(widths, shifts))
    return perms, step, lanes, fields


@dataclass(frozen=True)
class FiniteStructure:
    """A finite relational structure with universe ``{0, ..., size-1}``."""

    signature: Signature
    size: int
    relations: dict[str, frozenset[tuple[int, ...]]]

    def __post_init__(self):
        if self.size < 0:
            raise OutOfRange(f"size {self.size} < 0")
        if set(self.relations) != set(self.signature.names):
            raise SignatureMismatch(
                f"relation tables {sorted(self.relations)} do not match "
                f"signature {list(self.signature.names)}"
            )
        for name, table in self.relations.items():
            arity = self.signature.arity(name)
            for tup in table:
                if len(tup) != arity:
                    raise OutOfRange(f"{name}{tup} has wrong arity (want {arity})")
                if any(not (0 <= x < self.size) for x in tup):
                    raise OutOfRange(f"{name}{tup} leaves universe of size {self.size}")

    @classmethod
    def _trusted(
        cls,
        signature: Signature,
        size: int,
        tables: dict[str, frozenset[tuple[int, ...]]],
    ) -> "FiniteStructure":
        """A structure built without the checks of ``__post_init__``.

        The caller guarantees what those checks would: ``size >= 0``, one
        frozenset per relation of ``signature`` and no other, and every
        tuple of the right arity over ``range(size)``.  Only derivations of
        an already valid structure, and builders whose tables are valid by
        construction, use it.
        """
        structure = object.__new__(cls)
        object.__setattr__(structure, "signature", signature)
        object.__setattr__(structure, "size", size)
        object.__setattr__(structure, "relations", tables)
        return structure

    # -- basic accessors ------------------------------------------------

    @property
    def universe(self) -> range:
        return range(self.size)

    def holds(self, name: str, tup: tuple[int, ...]) -> bool:
        if name not in self.relations:
            raise UnknownRelation(f"no relation named {name!r}")
        return tup in self.relations[name]

    @cached_property
    def bit_rows(self) -> dict[str, tuple[list[int], list[int], int]]:
        """Per binary relation R: the out-rows ``{x : R(v, x)}`` and
        in-rows ``{x : R(x, v)}`` of every point v, and the loop mask
        ``{x : R(x, x)}``, as int bitsets over the universe.

        Built once per structure; the searches of :func:`forward_search`
        filter candidate sets with them.
        """
        index = {}
        for name, arity in self.signature.symbols:
            if arity != 2:
                continue
            out_rows = [0] * self.size
            in_rows = [0] * self.size
            loops = 0
            for a, b in self.relations[name]:
                out_rows[a] |= 1 << b
                in_rows[b] |= 1 << a
                if a == b:
                    loops |= 1 << a
            index[name] = (out_rows, in_rows, loops)
        return index

    # -- construction helpers -------------------------------------------

    @classmethod
    def build(
        cls,
        signature: Signature,
        size: int,
        relations: dict[str, Iterable[tuple[int, ...]]] | None = None,
    ) -> "FiniteStructure":
        relations = relations or {}
        tables = {
            name: frozenset(map(tuple, relations.get(name, ())))
            for name in signature.names
        }
        return cls(signature, size, tables)

    def with_relations(
        self, relations: dict[str, Iterable[tuple[int, ...]]]
    ) -> "FiniteStructure":
        """The same universe with the given relations' tables replaced.

        Not validated: callers pass, for relations of this signature,
        tuples of the right arity over this structure's own universe.
        """
        tables = dict(self.relations)
        for name, table in relations.items():
            if name not in tables:
                raise UnknownRelation(f"no relation named {name!r}")
            tables[name] = frozenset(table)
        return FiniteStructure._trusted(self.signature, self.size, tables)

    # -- substructures, reducts, gluing ---------------------------------

    def induced_substructure(self, points: Sequence[int]) -> "FiniteStructure":
        """Substructure on ``points`` relabelled to ``0..len(points)-1`` in
        the order given (duplicates rejected), read off the tuples over
        ``points`` alone."""
        if len(set(points)) != len(points):
            raise NotBijective(f"duplicate points in {points}")
        for p in points:
            if not (0 <= p < self.size):
                raise OutOfRange(f"point {p} outside universe")
        tables = {}
        for name, table in self.relations.items():
            arity = self.signature.arity(name)
            images = itertools.product(range(len(points)), repeat=arity)
            tuples = itertools.product(points, repeat=arity)
            tables[name] = frozenset(u for u, t in zip(images, tuples) if t in table)
        return FiniteStructure._trusted(self.signature, len(points), tables)

    def reduct(self, names: Sequence[str]) -> "FiniteStructure":
        sig = self.signature.restrict(names)
        return FiniteStructure._trusted(
            sig, self.size, {n: self.relations[n] for n in sig.names}
        )

    def rename_relations(self, mapping: dict[str, str]) -> "FiniteStructure":
        sig = self.signature.rename(mapping)
        return FiniteStructure(
            sig,
            self.size,
            {mapping.get(n, n): t for n, t in self.relations.items()},
        )

    def relabel(self, perm: Sequence[int]) -> "FiniteStructure":
        """Apply the bijection ``i -> perm[i]`` to the universe."""
        if sorted(perm) != list(range(self.size)):
            raise NotBijective(f"{perm} is not a permutation of {self.size} points")
        tables = {
            name: frozenset(tuple(perm[x] for x in tup) for tup in table)
            for name, table in self.relations.items()
        }
        return FiniteStructure._trusted(self.signature, self.size, tables)

    def disjoint_union_universe(self, extra: int) -> "FiniteStructure":
        """The same structure on a universe padded by ``extra`` fresh points."""
        if extra < 0:
            raise OutOfRange(f"cannot pad a universe by {extra} points")
        return FiniteStructure._trusted(
            self.signature, self.size + extra, self.relations
        )

    # -- canonical forms and isomorphism ---------------------------------

    def encode(self) -> tuple[int, ...]:
        """Bit-encoding of the relation tables, one integer per relation.

        Bits follow the lexicographic order of tuples with the first tuple
        most significant, so integer comparison matches comparison of the
        bit strings.
        """
        out = []
        for name, arity in self.signature.symbols:
            index = _tuple_index(self.size, arity)
            code = 0
            total = self.size**arity
            for tup in self.relations[name]:
                code |= 1 << (total - 1 - index[tup])
            out.append(code)
        return tuple(out)

    def encoding_slots(self) -> list[bytes]:
        """The :meth:`encode` of every relabelling, in the order of
        ``itertools.permutations(range(size))``, each as one fixed-width
        big-endian bytes slot (see :func:`_lane_table`), so that comparing
        slots compares encodings."""
        arities = tuple(self.signature._arities.values())
        perms, step, lanes, _ = _lane_table(self.size, arities)
        code = 0
        for name, lane in zip(self.signature.names, lanes):
            for tup in self.relations[name]:
                code |= lane[tup]
        data = code.to_bytes(len(perms) * step, "big")
        return [data[k : k + step] for k in range(0, len(data), step)]

    def canonical_labelling(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``(perm, codes)``: the first permutation, in
        ``itertools.permutations`` order, whose relabelling has the least
        :meth:`encode`, and that encoding."""
        arities = tuple(self.signature._arities.values())
        perms, _, _, fields = _lane_table(self.size, arities)
        slots = self.encoding_slots()
        best = min(slots)
        value = int.from_bytes(best, "big")
        return perms[slots.index(best)], tuple(
            (value >> shift) & mask for shift, mask in fields
        )

    def canonical_form(self) -> "FiniteStructure":
        """Minimal relabelling under the bit-encoding, over all permutations:
        the relabelling by :meth:`canonical_labelling`'s permutation."""
        return self.relabel(self.canonical_labelling()[0])

    def canonical_key(self) -> tuple:
        """The isomorphism-class key: the :meth:`form_key` of the canonical
        form, read off :meth:`canonical_labelling` without relabelling."""
        return (self.signature.symbols, self.size, self.canonical_labelling()[1])

    def form_key(self) -> tuple:
        """The isomorphism-class key of a structure already in canonical
        form."""
        return (self.signature.symbols, self.size, self.encode())

    def is_isomorphic(self, other: "FiniteStructure") -> bool:
        if self.signature != other.signature or self.size != other.size:
            return False
        return self.canonical_key() == other.canonical_key()

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "signature": self.signature.to_json(),
            "size": self.size,
            "relations": {
                name: sorted(list(t) for t in self.relations[name])
                for name in self.signature.names
            },
        }

    @classmethod
    def from_json(cls, data: dict) -> "FiniteStructure":
        sig = Signature.from_json(data["signature"])
        # operator.index refuses a point that is not an integer, such as 1.5
        tables = {
            name: frozenset(
                tuple(map(operator.index, t)) for t in data["relations"].get(name, [])
            )
            for name in sig.names
        }
        return cls(sig, int(data["size"]), tables)

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "FiniteStructure":
        return cls.from_json(json.loads(text))


@dataclass(frozen=True)
class Embedding:
    """A strong embedding: injective, preserving and reflecting relations."""

    source: FiniteStructure
    target: FiniteStructure
    mapping: tuple[int, ...]

    def __post_init__(self):
        if self.source.signature != self.target.signature:
            raise SignatureMismatch("embedding endpoints have different signatures")
        if len(self.mapping) != self.source.size:
            raise OutOfRange("mapping length does not match source size")
        if len(set(self.mapping)) != len(self.mapping):
            raise NotBijective(f"mapping {self.mapping} is not injective")
        for v in self.mapping:
            if not (0 <= v < self.target.size):
                raise OutOfRange(f"image {v} outside target universe")
        for name, arity in self.source.signature.symbols:
            for tup in itertools.product(range(self.source.size), repeat=arity):
                image = tuple(self.mapping[x] for x in tup)
                if self.source.holds(name, tup) != self.target.holds(name, image):
                    raise NotAnEmbedding(
                        f"{name}{tup} -> {name}{image} is not preserved/reflected"
                    )

    @classmethod
    def trusted(
        cls, source: FiniteStructure, target: FiniteStructure, mapping: tuple[int, ...]
    ) -> "Embedding":
        """An embedding the caller has already checked, built without the
        re-check of ``__post_init__``."""
        emb = object.__new__(cls)
        object.__setattr__(emb, "source", source)
        object.__setattr__(emb, "target", target)
        object.__setattr__(emb, "mapping", mapping)
        return emb

    def __call__(self, x: int) -> int:
        return self.mapping[x]


def forward_search(
    domains: Sequence[int],
    constraints: Iterable[tuple[tuple[int, ...], object]],
    distinct: bool = False,
    limit: int | None = None,
    budget: int | None = None,
    what: str = "search",
) -> list[tuple[int, ...]]:
    """Solutions of a finite constraint problem by forward checking.

    Variables are ``0 .. len(domains)-1``, assigned in that order;
    ``domains[v]`` is the int bitset of v's candidate values, tried in
    ascending order.  A constraint is ``(variables, allowed)``: the sorted
    variables it reads, and ``allowed(values)``, the bitset of values of
    its last variable that satisfy it given the values of the others in
    the list ``values``.  A one-variable constraint filters its domain up
    front.  Any other filters its last variable's domain as soon as every
    other variable it reads is assigned, and a domain left empty
    backtracks at once (Haralick & Elliott 1980).  ``distinct`` asks for
    pairwise distinct values.

    Filtering only removes values that no solution uses, so the solutions
    (all, or the first ``limit``) come back in the same lexicographic
    order as from plain backtracking that checks each constraint when its
    last variable is assigned, after visiting no more nodes.  A node is a
    candidate value that survived forward filtering; more than ``budget``
    nodes raise :class:`BudgetExceeded`.
    """
    domains = list(domains)
    nvars = len(domains)
    values = [0] * nvars
    checks: list[list] = [[] for _ in range(nvars)]
    for variables, allowed in constraints:
        if len(variables) == 1:
            domains[variables[0]] &= allowed(values)
        else:
            checks[variables[-2]].append((variables[-1], allowed))
    found: list[tuple[int, ...]] = []
    nodes = 0

    def rec(v: int, doms: list[int], free: int) -> bool:
        nonlocal nodes
        if v == nvars:
            found.append(tuple(values))
            return limit is not None and len(found) >= limit
        dom = doms[v] & free
        later = checks[v]
        while dom:
            low = dom & -dom
            dom ^= low
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetExceeded(f"{what} exceeded {budget} nodes")
            values[v] = low.bit_length() - 1
            rest = free ^ low if distinct else free
            nxt = doms
            if later:
                nxt = doms.copy()
                for last, allowed in later:
                    narrowed = nxt[last] & rest & allowed(values)
                    if not narrowed:
                        break
                    nxt[last] = narrowed
                else:
                    if rec(v + 1, nxt, rest):
                        return True
                continue
            if rec(v + 1, nxt, rest):
                return True
        return False

    rec(0, domains, -1)
    return found


def _tuple_mask(table, tup, last, holds, size):
    """``allowed`` for one source tuple of any arity: the values x of
    variable ``last`` for which the image tuple, with x in place of
    ``last``, is in ``table`` exactly when ``holds``."""

    def allowed(values):
        mask = 0
        for x in range(size):
            image = tuple(x if a == last else values[a] for a in tup)
            if (image in table) == holds:
                mask |= 1 << x
        return mask

    return allowed


def _pair_mask(out_rows, in_rows, i, fwd, bwd):
    """``allowed`` for a later point j against point i: its image must
    sit in the out-row and in-row of i's image.  ``fwd`` and ``bwd`` are
    0, or the full mask where the source lacks that direction, so the xor
    takes the row's complement."""
    return lambda values: (out_rows[values[i]] ^ fwd) & (in_rows[values[i]] ^ bwd)


def find_embeddings(
    source: FiniteStructure,
    target: FiniteStructure,
    limit: int | None = None,
    budget: int | None = None,
) -> list[Embedding]:
    """All (or the first ``limit``) strong embeddings of source into target,
    in lexicographic order of their mappings.

    A :func:`forward_search` over the images of the source points, with
    injectivity as distinctness and one constraint per source tuple:
    binary relations read the target's :attr:`~FiniteStructure.bit_rows`,
    other arities test each candidate.  Raises :class:`BudgetExceeded` if
    more than ``budget`` search nodes (candidate images that survived
    forward filtering) are visited.
    """
    if source.signature != target.signature:
        raise SignatureMismatch("embedding endpoints have different signatures")
    n = source.size
    full = (1 << target.size) - 1
    constraints = []
    for name, arity in source.signature.symbols:
        table = source.relations[name]
        if arity != 2:
            for tup in itertools.product(range(n), repeat=arity):
                variables = tuple(sorted(set(tup)))
                allowed = _tuple_mask(
                    target.relations[name], tup, variables[-1], tup in table, target.size
                )
                constraints.append((variables, allowed))
            continue
        out_rows, in_rows, loops = target.bit_rows[name]
        for i in range(n):
            loop = loops if (i, i) in table else full ^ loops
            constraints.append(((i,), lambda values, loop=loop: loop))
            for j in range(i + 1, n):
                fwd = 0 if (i, j) in table else full
                bwd = 0 if (j, i) in table else full
                constraints.append(((i, j), _pair_mask(out_rows, in_rows, i, fwd, bwd)))
    solutions = forward_search(
        [full] * n, constraints, distinct=True, limit=limit, budget=budget,
        what="embedding search",
    )
    return [Embedding.trusted(source, target, mapping) for mapping in solutions]


def glue(
    a: FiniteStructure, b: FiniteStructure, bijection: Sequence[int]
) -> FiniteStructure:
    """Impose ``b``'s relations on ``a``'s universe through a bijection.

    ``bijection[i]`` is the point of ``b`` matched with point ``i`` of
    ``a``.  The result carries the union signature (names must be
    disjoint); its reduct to ``a``'s signature is ``a`` itself and its
    reduct to ``b``'s signature is isomorphic to ``b``.
    """
    if a.size != b.size:
        raise NotBijective("gluing requires equal universe sizes")
    if sorted(bijection) != list(range(a.size)):
        raise NotBijective(f"{bijection} is not a bijection on {a.size} points")
    sig = a.signature.union(b.signature)
    inverse = [0] * a.size
    for i, v in enumerate(bijection):
        inverse[v] = i
    tables = dict(a.relations)
    for name, table in b.relations.items():
        tables[name] = frozenset(
            tuple(inverse[x] for x in tup) for tup in table
        )
    return FiniteStructure(sig, a.size, tables)


MAX_ENUMERATION_SIZE = 8
"""The largest size ``enumerate_structures`` accepts: canonical forms
score all n! relabellings at once, from a lane table of about
``n! * n**arity`` bits per relation (21 MB for one binary relation at 8
points; see :data:`MAX_LANE_TABLE_BYTES`)."""


def enumerate_structures(
    spec,
    size: int,
    budget: int | None = None,
) -> list[FiniteStructure]:
    """All members of ``spec`` with exactly ``size`` points, up to isomorphism.

    ``spec`` must provide ``signature``, ``admits(structure)``,
    ``extension_choices(structure, name)`` and ``admits_extension(child)``
    (see ``classes.ClassSpec``).  Structures are generated by one-point
    extension of the canonical members one size down, which is complete
    because membership is hereditary, and deduplicated by canonical key.
    The extension choices already keep every relation's properties, so a
    child is admitted by ``admits_extension`` alone.  Each child built
    counts as a node against ``budget``; a choice that breaks a property
    builds none.  Results come back sorted by canonical encoding, so the
    order is deterministic.
    """
    if size < 0:
        raise ValueError(f"size {size} < 0")
    if size == 0:
        empty = FiniteStructure.build(spec.signature, 0)
        return [empty] if spec.admits(empty) else []
    return list(_layers(spec, size, budget))[-1]


def enumerate_structures_upto(
    spec, bound: int, budget: int | None = None
) -> list[FiniteStructure]:
    """Members of every size from 1 through ``bound``, up to isomorphism,
    by size and within a size as :func:`enumerate_structures` orders
    them.  One pass builds every layer once; ``budget`` counts the nodes
    of that pass, as ``enumerate_structures(spec, bound)`` counts them."""
    return [member for layer in _layers(spec, bound, budget) for member in layer]


def _layers(spec, size: int, budget: int | None) -> Iterator[list[FiniteStructure]]:
    """The sorted canonical members of sizes 1 through ``size``, one list
    per size, each built from the one before."""
    if size > MAX_ENUMERATION_SIZE:
        raise BoundExceeded(
            f"enumeration up to iso at size {size} exceeds guard {MAX_ENUMERATION_SIZE}"
        )
    layer = [FiniteStructure.build(spec.signature, 0)]
    nodes = 0
    for _ in range(size):
        seen: dict[tuple, FiniteStructure] = {}
        for parent in layer:
            for _, child in one_point_extensions(spec, parent):
                nodes += 1
                if budget is not None and nodes > budget:
                    raise BudgetExceeded(f"enumeration exceeded {budget} nodes")
                if not spec.admits_extension(child):
                    continue
                perm, codes = child.canonical_labelling()
                if codes not in seen:
                    seen[codes] = child.relabel(perm)
        layer = [seen[k] for k in sorted(seen)]
        yield layer


def one_point_extensions(
    spec, parent: FiniteStructure
) -> Iterator[tuple[tuple[frozenset, ...], FiniteStructure]]:
    """Extend ``parent`` by one fresh point (index ``parent.size``) in
    every way offered by the spec's ``extension_choices``.

    Yields ``(assignment, child)``: the new tuples of each relation, in
    signature order, and the padded parent carrying them.  The assignment
    is the fresh point's type over the parent, keyed as
    ``classes.one_type`` keys it.  Only the relations' properties are
    ensured; the caller tests the rest of membership.
    """
    base = parent.disjoint_union_universe(1)
    names = list(spec.signature.names)
    choice_lists = [list(spec.extension_choices(parent, name)) for name in names]
    for assignment in itertools.product(*choice_lists):
        yield assignment, base.with_relations(
            {name: base.relations[name] | new for name, new in zip(names, assignment)}
        )


@lru_cache(maxsize=None)
def all_extension_tuples(size: int, arity: int) -> tuple[tuple[int, ...], ...]:
    """All arity-tuples over ``size+1`` points that mention the new point
    ``size``."""
    return tuple(
        t
        for t in itertools.product(range(size + 1), repeat=arity)
        if size in t
    )

"""Independent references for the benchmark's output checks.

Nothing here calls into ``fraisse``: every fact is recomputed from first
principles (brute force, Burnside counting, direct evaluation) so that a
wrong answer from the program cannot also be a wrong reference.  The
functions read structures only through their plain data: ``size``,
``relations`` (name -> set of tuples) and ``signature.symbols``.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np


class CheckFailed(AssertionError):
    """An output disagreed with its independent reference."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# -- facts from the paper -----------------------------------------------------------

# Verdicts of the self-similarity criterion at bound 3.
SELF_SIMILAR = {"LO": True, "G": True, "T": True, "H3": True, "E": False, "LO^2": True}
# (rank at n = 1, rank at n = 2) into tuples of the random graph.
RANKS = {"E": (1, 3), "G": (1, 3), "LO": (0, 3), "T": (0, 3)}


def check_e_refutation(witness: dict) -> None:
    """The refutation of self-similarity for ``E`` names a type ``p`` over
    ``A`` holding ``E(x, a)`` for the fresh point x and some a != x."""
    fresh = len(witness["A"])
    require(
        any(a != b and fresh in (a, b) for a, b in witness["p"]["E"]),
        "E refutation: p lacks an atom E(x, a) with x != a",
    )


# -- relation kinds ---------------------------------------------------------------
#
# A kind is the membership test of one relation of a built-in class, written
# against a plain set of tuples on ``range(n)``.

ARITY = {"LO": 2, "E": 2, "G": 2, "T": 2, "H3": 3}
RELATION_NAME = {"LO": "<", "E": "E", "G": "E", "T": "<", "H3": "R"}


def _is_tournament(table, n) -> bool:
    if any(a == b for a, b in table):
        return False
    return all(
        ((a, b) in table) != ((b, a) in table)
        for a, b in itertools.combinations(range(n), 2)
    )


def _is_transitive(table, n) -> bool:
    return all((a, c) in table for a, b in table for c in range(n) if (b, c) in table)


def kind_holds(kind: str, table, n: int) -> bool:
    """Does ``table`` on ``range(n)`` satisfy the axioms of ``kind``?"""
    table = set(table)
    if any(len(t) != ARITY[kind] or not all(0 <= x < n for x in t) for t in table):
        return False
    if kind == "G":
        return all(a != b and (b, a) in table for a, b in table)
    if kind == "T":
        return _is_tournament(table, n)
    if kind == "LO":
        return _is_tournament(table, n) and _is_transitive(table, n)
    if kind == "E":
        return (
            all((a, a) in table for a in range(n))
            and all((b, a) in table for a, b in table)
            and _is_transitive(table, n)
        )
    if kind == "H3":
        return all(
            len(set(t)) == 3 and all(p in table for p in itertools.permutations(t))
            for t in table
        )
    raise ValueError(f"unknown kind {kind!r}")


def class_layout(expr: str) -> tuple[tuple[str, str], ...]:
    """(relation name, kind) per relation of a class expression of the forms
    ``A``, ``A*B`` and ``A^k`` over the built-ins, following the naming
    rule of free superposition: colliding names get ``#i`` suffixes."""
    if "^" in expr:
        base, k = expr.split("^")
        return tuple((f"{RELATION_NAME[base]}#{i}", base) for i in range(int(k)))
    if "*" in expr:
        left, right = expr.split("*")
        factors = [[] if f == "S" else [(RELATION_NAME[f], f)] for f in (left, right)]
        names0 = {n for n, _ in factors[0]}
        names1 = {n for n, _ in factors[1]}
        clash = names0 & names1
        out = []
        for i, factor in enumerate(factors):
            out += [(f"{n}#{i}" if n in clash else n, k) for n, k in factor]
        return tuple(out)
    return () if expr == "S" else ((RELATION_NAME[expr], expr),)


def is_member(layout, structure) -> bool:
    """Membership of a structure in the class described by ``layout``."""
    names = [n for n, _ in layout]
    if [n for n, _ in structure.signature.symbols] != names:
        return False
    return all(
        kind_holds(kind, structure.relations[name], structure.size)
        for name, kind in layout
    )


# -- labelled structures, isomorphism and Burnside counts -----------------------------


@functools.lru_cache(maxsize=None)
def labelled_tables(kind: str, n: int) -> tuple[frozenset, ...]:
    """Every table of ``kind`` on ``range(n)``, by brute force."""
    return tuple(_labelled_tables(kind, n))


def _labelled_tables(kind: str, n: int) -> list[frozenset]:
    if kind == "LO":
        return [
            frozenset((p[i], p[j]) for i in range(n) for j in range(i + 1, n))
            for p in itertools.permutations(range(n))
        ]
    if kind == "E":
        out = []
        for labels in itertools.product(range(n), repeat=n):
            # restricted growth strings enumerate each partition once
            if all(labels[i] <= max(labels[:i], default=-1) + 1 for i in range(n)):
                out.append(
                    frozenset(
                        (a, b) for a in range(n) for b in range(n) if labels[a] == labels[b]
                    )
                )
        return out
    if kind in ("G", "T"):
        pairs = list(itertools.combinations(range(n), 2))
        out = []
        for bits in itertools.product((0, 1), repeat=len(pairs)):
            table = set()
            for (a, b), bit in zip(pairs, bits):
                if kind == "G":
                    if bit:
                        table |= {(a, b), (b, a)}
                else:
                    table.add((a, b) if bit else (b, a))
            out.append(frozenset(table))
        return out
    if kind == "H3":
        triples = list(itertools.combinations(range(n), 3))
        return [
            frozenset(
                p
                for t, bit in zip(triples, bits)
                if bit
                for p in itertools.permutations(t)
            )
            for bits in itertools.product((0, 1), repeat=len(triples))
        ]
    raise ValueError(f"unknown kind {kind!r}")


@functools.lru_cache(maxsize=None)
def burnside_count(layout: tuple, n: int) -> int:
    """Isomorphism classes of ``n``-point members: the average over all
    permutations of the number of labelled members they fix."""
    if not layout:
        return 1
    tables = {kind: labelled_tables(kind, n) for _, kind in layout}
    total = 0
    for perm in itertools.permutations(range(n)):
        fixed = 1
        for _, kind in layout:
            fixed *= sum(
                1 for t in tables[kind] if frozenset(tuple(perm[x] for x in tup) for tup in t) == t
            )
        total += fixed
    count, rem = divmod(total, math.factorial(n))
    require(rem == 0, "Burnside sum is not divisible by n!")
    return count


def pair_type_count(expr: str) -> int:
    """Quantifier-free types of ordered pairs of distinct points: the
    labelled 2-point members."""
    return math.prod(len(labelled_tables(kind, 2)) for _, kind in class_layout(expr))


def iso_key(structure) -> tuple:
    """A complete isomorphism invariant: the least relabelled form."""
    names = [n for n, _ in structure.signature.symbols]
    best = None
    for perm in itertools.permutations(range(structure.size)):
        key = tuple(
            tuple(sorted(tuple(perm[x] for x in t) for t in structure.relations[n]))
            for n in names
        )
        if best is None or key < best:
            best = key
    return (structure.size, tuple(names), best)


def same_structure(a, b) -> bool:
    return (
        a.size == b.size
        and a.signature.symbols == b.signature.symbols
        and all(set(a.relations[n]) == set(b.relations[n]) for n, _ in a.signature.symbols)
    )


def check_enumeration(expr: str, n: int, members, expected: int | None = None) -> None:
    """Members are in the class, pairwise non-isomorphic, and as many as the
    known sequence (or a Burnside count) says."""
    layout = class_layout(expr)
    want = burnside_count(layout, n) if expected is None else expected
    require(len(members) == want, f"{expr} n={n}: {len(members)} members, want {want}")
    keys = set()
    for m in members:
        require(m.size == n, f"{expr}: member of size {m.size}, want {n}")
        require(is_member(layout, m), f"{expr}: a returned structure is not a member")
        keys.add(iso_key(m))
    require(len(keys) == len(members), f"{expr} n={n}: isomorphic duplicates")


# OEIS A000088 (graphs), A000568 (tournaments), A000041 (partitions).
KNOWN_COUNTS = {
    "G": [1, 1, 2, 4, 11, 34, 156],
    "T": [1, 1, 1, 2, 4, 12, 56],
    "E": [1, 1, 2, 3, 5, 7, 11],
    "LO": [1] * 7,
    "LO^2": [math.factorial(n) for n in range(7)],
    "LO*G": [2 ** math.comb(n, 2) for n in range(7)],
}


def expected_count(expr: str, n: int) -> int | None:
    table = KNOWN_COUNTS.get(expr)
    return table[n] if table is not None else None


# -- extension property ----------------------------------------------------------------------


def _bitsets(adj: np.ndarray) -> list[int]:
    return [int("".join("1" if x else "0" for x in row[::-1]) or "0", 2) for row in adj]


def graph_extension_gaps(adj: np.ndarray, level: int) -> int:
    """Number of (subset, pattern) pairs over at most ``level`` vertices
    that no outside vertex realizes, for a simple graph given by its
    adjacency matrix.  Bitset intersections, pair by pair."""
    if level > 3:
        raise ValueError(f"graph extension check supports level <= 3, got {level}")
    n = adj.shape[0]
    full = (1 << n) - 1
    nb = _bitsets(adj)
    gaps = 0

    def sides(v):
        return (full & ~nb[v] & ~(1 << v), nb[v])

    if level >= 0 and n == 0:
        return 1
    for size in range(1, level + 1):
        if size == 1:
            for a in range(n):
                gaps += sum(1 for s in sides(a) if s == 0)
        elif size == 2:
            for a, b in itertools.combinations(range(n), 2):
                for sa in sides(a):
                    for sb in sides(b):
                        gaps += (sa & sb) == 0
        else:
            for a, b in itertools.combinations(range(n), 2):
                pair = [sa & sb for sa in sides(a) for sb in sides(b)]
                for c in range(b + 1, n):
                    for s in pair:
                        for sc in sides(c):
                            gaps += (s & sc) == 0
    return gaps


@functools.lru_cache(maxsize=None)
def _consistent_types(layout: tuple, k: int, base: tuple) -> tuple:
    """Atom sets between a fresh point ``k`` and points ``0..k-1`` carrying
    the tables ``base`` that keep the ``k+1`` points inside the class."""
    cells = [
        (name, t)
        for name, kind in layout
        for t in itertools.product(range(k + 1), repeat=ARITY[kind])
        if k in t
    ]
    out = []
    for bits in itertools.product((False, True), repeat=len(cells)):
        chosen = frozenset(c for c, bit in zip(cells, bits) if bit)
        if all(
            kind_holds(kind, set(table) | {t for n, t in chosen if n == name}, k + 1)
            for (name, kind), table in zip(layout, base)
        ):
            out.append(chosen)
    return tuple(out)


def extension_gaps(layout, structure, level: int) -> int:
    """Consistent 1-types over at most ``level`` points that no outside point
    realizes, by brute force over subsets and atom assignments."""
    if structure.size == 0:
        return 1
    gaps = 0
    for size in range(level + 1):
        cells = [
            (name, t)
            for name, kind in layout
            for t in itertools.product(range(size + 1), repeat=ARITY[kind])
            if size in t
        ]
        for subset in itertools.combinations(range(structure.size), size):
            index = {p: i for i, p in enumerate(subset)}
            base = tuple(
                frozenset(
                    tuple(index[x] for x in t)
                    for t in structure.relations[name]
                    if all(x in index for x in t)
                )
                for name, _ in layout
            )
            realized = set()
            for v in range(structure.size):
                if v not in index:
                    pts = subset + (v,)
                    realized.add(
                        frozenset(
                            (name, t)
                            for name, t in cells
                            if tuple(pts[x] for x in t) in structure.relations[name]
                        )
                    )
            gaps += sum(
                atoms not in realized for atoms in _consistent_types(tuple(layout), size, base)
            )
    return gaps


def model_gaps(expr: str, structure, level: int) -> int:
    """Unrealized consistent 1-types over at most ``level`` points of a
    model of class ``expr``."""
    if expr == "G":
        return graph_extension_gaps(relation_matrix(structure, "E"), level)
    return extension_gaps(class_layout(expr), structure, level)


# -- order and equivalence tables ---------------------------------------------------------------


def relation_matrix(structure, name) -> np.ndarray:
    a = np.zeros((structure.size, structure.size), dtype=bool)
    for x, y in structure.relations[name]:
        a[x, y] = True
    return a


def is_strict_linear_order(a: np.ndarray) -> bool:
    n = a.shape[0]
    eye = np.eye(n, dtype=bool)
    if a[eye].any() or (a & a.T).any() or not (a | a.T | eye).all():
        return False
    two_step = (a.astype(np.int64) @ a.astype(np.int64)) > 0
    return not (two_step & ~a).any()


def equivalence_classes(a: np.ndarray) -> int | None:
    """Number of classes if ``a`` is an equivalence relation, else None."""
    n = a.shape[0]
    if not a[np.eye(n, dtype=bool)].all() or (a != a.T).any():
        return None
    two_step = (a.astype(np.int64) @ a.astype(np.int64)) > 0
    if (two_step & ~a).any():
        return None
    return len({row.tobytes() for row in a})


# -- box colourings -------------------------------------------------------------------------------


def point_box_is_mono(k, n, point_map, sets) -> bool:
    def colour(p):
        idx = 0
        for c in p:
            idx = idx * n + c
        return point_map[idx]

    colours = {colour(p) for p in itertools.product(*sets)}
    return len(colours) == 1


def has_mono_point_box(k, n, point_map, m) -> bool:
    return any(
        point_box_is_mono(k, n, point_map, sets)
        for sets in itertools.product(*(itertools.combinations(range(n), m) for _ in range(k)))
    )


def _direction(a, b):
    return tuple((x < y) - (x > y) for x, y in zip(a, b))


def directed_box_is_mono(k, n, pair_map, sets) -> bool:
    """Constant pair colour on each direction class of the box, the
    direction being the sign vector normalised to start with +1."""
    def index(p):
        idx = 0
        for c in p:
            idx = idx * n + c
        return idx

    seen: dict = {}
    box = list(itertools.product(*sets))
    for a in box:
        for b in box:
            d = _direction(a, b)
            first = next((x for x in d if x), 0)
            if first < 0:
                continue
            i, j = sorted((index(a), index(b)))
            colour = pair_map[(i, j)]
            if seen.setdefault(d, colour) != colour:
                return False
    return True


def has_mono_directed_box(k, n, pair_map, m) -> bool:
    return any(
        directed_box_is_mono(k, n, pair_map, sets)
        for sets in itertools.product(*(itertools.combinations(range(n), m) for _ in range(k)))
    )


# -- formulas and certificates ---------------------------------------------------------------------
#
# Certificates are re-evaluated from their JSON form with a parser and an
# evaluator of the formula grammar written here, not with the program's.


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
            require(j > i, f"bad character {c!r} in formula")
            out.append(text[i:j])
            i = j
    return out


def parse_formula(text: str):
    """A formula as nested tuples: ("or", parts), ("and", parts), ("not", f),
    ("atom", name, refs), ("eq", ref, ref), ("const", bool); a reference is
    ("c", slot, coord) or ("p", index)."""
    tokens = _lex(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def ref():
        tok = take()
        if tok.startswith("p") and tok[1:].isdigit():
            return ("p", int(tok[1:]))
        slot, coord = tok.split(".")
        return ("c", int(slot), int(coord))

    def unary():
        tok = peek()
        if tok == "!":
            take()
            return ("not", unary())
        if tok == "(":
            take()
            node = disjunction()
            require(take() == ")", "unbalanced parentheses")
            return node
        if tok in ("true", "false"):
            take()
            return ("const", tok == "true")
        if pos + 1 < len(tokens) and tokens[pos + 1] == "(":
            name = take()
            take()
            refs = [ref()]
            while peek() == ",":
                take()
                refs.append(ref())
            require(take() == ")", "malformed atom")
            return ("atom", name, refs)
        left = ref()
        require(take() == "=", "expected '='")
        return ("eq", left, ref())

    def conjunction():
        parts = [unary()]
        while peek() == "&":
            take()
            parts.append(unary())
        return parts[0] if len(parts) == 1 else ("and", parts)

    def disjunction():
        parts = [conjunction()]
        while peek() == "|":
            take()
            parts.append(conjunction())
        return parts[0] if len(parts) == 1 else ("or", parts)

    node = disjunction()
    require(pos == len(tokens), f"trailing tokens in {text!r}")
    return node


def evaluate(node, relations, tuples, params) -> bool:
    kind = node[0]

    def value(r):
        return tuples[r[1]][r[2]] if r[0] == "c" else params[r[1]]

    if kind == "or":
        return any(evaluate(p, relations, tuples, params) for p in node[1])
    if kind == "and":
        return all(evaluate(p, relations, tuples, params) for p in node[1])
    if kind == "not":
        return not evaluate(node[1], relations, tuples, params)
    if kind == "atom":
        return tuple(value(r) for r in node[2]) in relations[node[1]]
    if kind == "eq":
        return value(node[1]) == value(node[2])
    return node[1]


class Plain:
    """A structure read from its JSON form."""

    def __init__(self, data: dict):
        self.size = int(data["size"])
        self.signature = type("Sig", (), {})()
        self.signature.symbols = tuple((d["name"], int(d["arity"])) for d in data["signature"])
        self.relations = {
            name: {tuple(t) for t in data["relations"].get(name, [])}
            for name, _ in self.signature.symbols
        }


def check_certificate(cert: dict, index_expr: str, bound: int) -> None:
    """Every witness of a certificate (JSON form) satisfies every
    biconditional, and there is one per isomorphism class of the index
    class up to the bound."""
    interp = cert["interpretation"]
    formulas = {name: parse_formula(text) for name, text in interp["formulas"].items()}
    params = interp.get("parameters", [])
    length = interp["tuple_length"]
    target = Plain(cert["target"])
    layout = class_layout(index_expr)
    want = sum(burnside_count(layout, n) for n in range(1, bound + 1))
    require(cert["size_bound"] == bound, f"certificate bound {cert['size_bound']}, want {bound}")
    require(len(cert["witnesses"]) == want, f"{index_expr}: {len(cert['witnesses'])} witnesses, want {want}")
    keys = set()
    for entry in cert["witnesses"]:
        structure = Plain(entry["structure"])
        require(is_member(layout, structure), f"{index_expr}: a certified structure is not a member")
        keys.add(iso_key(structure))
        mapping = [tuple(t) for t in entry["map"]]
        require(
            len(mapping) == structure.size and all(len(t) == length for t in mapping),
            "witness map has the wrong shape",
        )
        require(all(0 <= v < target.size for t in mapping for v in t), "witness leaves the target")
        for name, arity in structure.signature.symbols:
            for tup in itertools.product(range(structure.size), repeat=arity):
                got = evaluate(formulas[name], target.relations, [mapping[x] for x in tup], params)
                require(got == (tup in structure.relations[name]), f"{index_expr}: {name}{tup} is not interpreted")
    require(len(keys) == want, f"{index_expr}: certified structures repeat an isomorphism type")


def coordinate_map_ok(source, target, mapping, coord: int, names) -> bool:
    """Coordinate ``coord`` of a witness carries relation ``names[i]`` of the
    source onto the target's relation ``names[i][1]``: a map that preserves
    and reflects every tuple, repeated entries included.  Used for the
    identity and product maps, whose formulas are single atoms."""
    for source_name, target_name in names:
        arity = dict(source.signature.symbols)[source_name]
        for tup in itertools.product(range(source.size), repeat=arity):
            image = tuple(mapping[x][coord] for x in tup)
            if (tup in source.relations[source_name]) != (image in target.relations[target_name]):
                return False
    return True

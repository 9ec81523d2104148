"""Monochromatic combinatorial boxes in colored grids.

A combinatorial box of side m in the grid n^k is a product of k index
sets of size m.  The point finder looks for a box on which a point
coloring is constant; the directed finder works with colorings of
(unordered, possibly degenerate) pairs and demands constancy separately
for every *direction*: the sign vector recording, coordinate by
coordinate, how the two endpoints compare.  Normalizing the first
nonzero sign to +1 leaves (3^k + 1)/2 directions, the all-zero vector
standing for singletons.

The upper-bound calculator evaluates the standard recursions on top of
two classical Ramsey bounds: the multicolor bound for 2-subsets
(``multicolor_ramsey_upper``) and pigeonhole for 1-subsets.  Values are
guaranteed sufficient, never tight, and explode quickly; everything is
big-integer arithmetic.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import random
from dataclasses import dataclass
from functools import lru_cache, reduce

from .kernels import find_mono_box_2d


# -- directions -----------------------------------------------------------------


def directions(k: int) -> list[tuple[int, ...]]:
    """All sign vectors of length k over {-1, 0, 1} whose first nonzero
    entry is +1, plus the zero vector, in lexicographic order."""
    if k < 1:
        raise ValueError(f"k {k} < 1")
    out = []
    for t in itertools.product((-1, 0, 1), repeat=k):
        nonzero = next((x for x in t if x != 0), None)
        if nonzero is None or nonzero == 1:
            out.append(t)
    return out


def direction_count(k: int) -> int:
    """``len(directions(k))`` without building them: the zero vector and
    half of the other 3**k - 1, one of each pair t, -t."""
    if k < 1:
        raise ValueError(f"k {k} < 1")
    return (3**k + 1) // 2


def leq_t(a, b, t) -> bool:
    """Pointwise comparison along a direction: coordinate i must satisfy
    a_i < b_i, a_i = b_i, or a_i > b_i as t_i is 1, 0, or -1."""
    for x, y, s in zip(a, b, t):
        if s == 1 and not x < y:
            return False
        if s == 0 and x != y:
            return False
        if s == -1 and not x > y:
            return False
    return True


def direction_of(a, b) -> tuple[int, ...]:
    """The unique direction t with a <=_t b, for a <=_lex b."""
    if tuple(a) > tuple(b):
        raise ValueError("expected a <=_lex b")
    return tuple((x < y) - (x > y) for x, y in zip(a, b))


# -- colorings -------------------------------------------------------------------


@dataclass
class BoxColoring:
    """A coloring of the grid n^k: point colors in row-major order, and
    optionally colors for unordered (possibly degenerate) pairs of
    points, keyed by lexicographically ordered point indices."""

    k: int
    n: int
    colors: int
    point_map: list | None = None
    pair_map: dict | None = None

    def __post_init__(self):
        size = self.n**self.k
        if self.point_map is not None:
            if len(self.point_map) != size:
                raise ValueError(
                    f"point map has {len(self.point_map)} entries, grid has {size}"
                )
            bad = [c for c in self.point_map if not 0 <= c < self.colors]
            if bad:
                raise ValueError(f"color {bad[0]} out of range({self.colors})")
        if self.pair_map is not None:
            for (a, b), c in self.pair_map.items():
                if not (0 <= a <= b < size):
                    raise ValueError(f"bad pair key ({a}, {b})")
                if not 0 <= c < self.colors:
                    raise ValueError(f"color {c} out of range({self.colors})")

    def points(self) -> list[tuple[int, ...]]:
        return list(itertools.product(range(self.n), repeat=self.k))

    def index(self, point) -> int:
        idx = 0
        for c in point:
            idx = idx * self.n + c
        return idx

    def point_color(self, point) -> int:
        return self.point_map[self.index(point)]

    def pair_color(self, a, b) -> int:
        i, j = sorted((self.index(a), self.index(b)))
        return self.pair_map[(i, j)]

    def to_json(self) -> dict:
        data = {"k": self.k, "n": self.n, "colors": self.colors}
        if self.point_map is not None:
            data["points"] = list(self.point_map)
        if self.pair_map is not None:
            data["pairs"] = {
                f"[{a},{b}]": c for (a, b), c in sorted(self.pair_map.items())
            }
        return data

    @classmethod
    def from_json(cls, data: dict) -> "BoxColoring":
        pair_map = None
        if "pairs" in data:
            pair_map = {}
            for key, c in data["pairs"].items():
                a, b = json.loads(key)
                pair_map[(a, b)] = c
        return cls(
            int(data["k"]),
            int(data["n"]),
            int(data["colors"]),
            list(data["points"]) if "points" in data else None,
            pair_map,
        )


def random_point_coloring(k: int, n: int, colors: int, seed: int) -> BoxColoring:
    rng = random.Random(seed)
    return BoxColoring(
        k, n, colors, [rng.randrange(colors) for _ in range(n**k)]
    )


def random_pair_coloring(k: int, n: int, colors: int, seed: int) -> BoxColoring:
    rng = random.Random(seed)
    size = n**k
    pair_map = {
        (a, b): rng.randrange(colors)
        for a in range(size)
        for b in range(a, size)
    }
    return BoxColoring(k, n, colors, None, pair_map)


# -- the point finder -------------------------------------------------------------


def find_monochromatic_box(coloring: BoxColoring, m: int):
    """Index sets Y_0..Y_{k-1} of size m whose product box is constant
    under the point coloring, or None after exhaustive search.

    Search order: color-major, then lexicographic over index-set
    combinations, so the first hit is canonical.  A color class is held
    as column sets of the last axis, one per prefix of the leading axes;
    each chosen index set of a leading axis folds that axis away by
    intersecting the column sets it selects, and the last two axes go to
    :func:`~fraisse.kernels.find_mono_box_2d`.
    """
    if coloring.point_map is None:
        raise ValueError("point finder needs a point map")
    if m > coloring.n:
        raise ValueError(f"m {m} exceeds side {coloring.n}")
    k, n = coloring.k, coloring.n
    for color in range(coloring.colors):
        rows = [
            sum(1 << j for j in range(n) if coloring.point_map[p * n + j] == color)
            for p in range(n ** (k - 1))
        ]
        hit = _box_in_class(rows, k - 1, n, m)
        if hit is not None:
            return hit
    return None


def _box_in_class(rows: list[int], lead: int, n: int, m: int):
    """The first box of side m inside a color class given by the column
    sets ``rows`` of its last axis over ``lead`` leading axes, or None."""
    if lead == 0:
        cols = [j for j in range(n) if rows[0] >> j & 1]
        return [cols[:m]] if len(cols) >= m else None
    if lead == 1:
        hit = find_mono_box_2d(rows, m)
        return None if hit is None else [list(hit[0]), list(hit[1])]
    stride = n ** (lead - 1)
    for chosen in itertools.combinations(range(n), m):
        folded = [
            reduce(operator.and_, (rows[i * stride + r] for i in chosen), -1)
            for r in range(stride)
        ]
        hit = _box_in_class(folded, lead - 1, n, m)
        if hit is not None:
            return [list(chosen), *hit]
    return None


# -- the directed finder -------------------------------------------------------------


def check_directed_box(coloring: BoxColoring, sets) -> bool:
    """Independent constancy re-check: for every direction t, the colors
    of the pairs a <=_t b inside the box agree."""
    box = list(itertools.product(*sets))
    for t in directions(coloring.k):
        seen = None
        for a in box:
            for b in box:
                if leq_t(a, b, t):
                    c = coloring.pair_color(a, b)
                    if seen is None:
                        seen = c
                    elif c != seen:
                        return False
    return True


def find_monochromatic_directed_box(coloring: BoxColoring, m: int):
    """Index sets Y_0..Y_{k-1} of size m such that the pair coloring is
    constant on each direction class of the box, or None (exhaustive)."""
    if coloring.pair_map is None:
        raise ValueError("directed finder needs a pair map")
    if m > coloring.n:
        raise ValueError(f"m {m} exceeds side {coloring.n}")
    axis = list(itertools.combinations(range(coloring.n), m))
    for sets in itertools.product(axis, repeat=coloring.k):
        if check_directed_box(coloring, sets):
            return [list(s) for s in sets]
    return None


# -- upper bounds ------------------------------------------------------------------------


def multicolor_ramsey_upper(sizes: tuple[int, ...]) -> int:
    """Upper bound for the 2-subset multicolor Ramsey number: any
    len(sizes)-coloring of the pairs of this many points yields, for some
    i, a set of sizes[i] points whose pairs all carry color i.

    Few small colors use the additive recurrence
    R(v) <= 2 - r + sum_i R(.., v_i - 1, ..); otherwise the multinomial
    bound (sum (v_i - 1))! / prod (v_i - 1)! (which the recurrence never
    beats asymptotically but is always valid)."""
    sizes = tuple(sorted(sizes))
    if len(sizes) <= 3 and sum(sizes) <= 40:
        return _ramsey2(sizes)
    total = math.factorial(sum(s - 1 for s in sizes))
    for s in sizes:
        total //= math.factorial(s - 1)
    return total


@lru_cache(maxsize=None)
def _ramsey2(sizes: tuple[int, ...]) -> int:
    if any(s <= 1 for s in sizes):
        return 1
    if len(sizes) == 1:
        return sizes[0]
    total = 2 - len(sizes)
    for i in range(len(sizes)):
        smaller = sizes[:i] + (sizes[i] - 1,) + sizes[i + 1 :]
        total += _ramsey2(tuple(sorted(smaller)))
    return total


def _colorings(colors: int, side: int, dim: int) -> int:
    """``colors ** (side ** dim)``, the colorings of a side-``side`` box of
    dimension ``dim``.  An exponent wider than 32 bits raises
    ``OverflowError`` (the power could not be computed); it is detected
    from ``side``'s bit length before the exponent itself is formed."""
    # side ** dim has at least (bit_length - 1) * dim + 1 bits
    if (side.bit_length() - 1) * dim < 32:
        exponent = side**dim
        if exponent.bit_length() <= 32:
            return colors**exponent
    raise OverflowError(
        f"box bound explodes: colors ** (side ** {dim}) has an exponent "
        f"wider than 32 bits"
    )


def box_ramsey_upper_bound(k: int, colors: int, m: int, kind: str = "point") -> int:
    """A grid side guaranteed to contain a monochromatic side-m box.

    Point kind: dimension 1 is the pigeonhole colors*(m-1)+1; each added
    dimension colors the slices of the previous box by their full induced
    coloring and pigeonholes again with colors**(side**k) super-colors.

    Directed kind: dimension 1 reduces to the classical 2-subset Ramsey
    number at clique size colors*(m-1)+1 (constant pair color on a
    clique, then pigeonhole the point colors); each added dimension first
    solves dimension k with colors**(|directions| * 2) super-colors
    (pair-of-slices colorings split by direction and endpoint order),
    then pigeonholes the new axis with colors**(side**2) induced colors.

    One color, or a side-1 box (one point), needs no more than side m.

    Raises ``OverflowError`` where a coloring count has an exponent wider
    than 32 bits (see ``_colorings``).
    """
    if min(k, colors, m) < 1:
        raise ValueError(f"need k, colors, m >= 1, got {(k, colors, m)}")
    if kind not in ("point", "directed"):
        raise ValueError(f"unknown kind {kind!r}")
    if colors == 1 or m == 1:
        return m
    if kind == "point":
        n = colors * (m - 1) + 1
        for dim in range(2, k + 1):
            n = max(n, (m - 1) * _colorings(colors, n, dim - 1) + 1)
        return max(n, m)
    s = colors * (m - 1) + 1
    n = multicolor_ramsey_upper((s,) * colors)
    for dim in range(2, k + 1):
        inner_colors = colors ** (direction_count(dim - 1) * 2)
        n_prev = box_ramsey_upper_bound(dim - 1, inner_colors, m, kind="directed")
        axis_colors = _colorings(colors, n_prev, 2)
        s_axis = axis_colors * (m - 1) + 1
        n_axis = multicolor_ramsey_upper((s_axis,) * axis_colors)
        n = max(n_prev, n_axis)
    return max(n, m)

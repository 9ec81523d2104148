"""Bitset kernels for the two searches that dominate the package's runtime.

Scanning all (subset, type) extension demands of a graph is used by
generic-model closure and extension-property certification (~C(N,3)*8
demands at level 3); scanning all combinations of index sets for a
monochromatic sub-box of a colored grid is used by the Ramsey finders.
Both read int bitsets: a graph is the list of its neighbour sets (the
out-rows of ``FiniteStructure.bit_rows``), a colour class of a grid the
list of its per-row column sets.
"""

from __future__ import annotations

import functools
import itertools
import operator


def _bits(x: int):
    """The members of bitset ``x``, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _realizers(rows: list[int], points: tuple, mask: int) -> int:
    """The points outside ``points`` adjacent to ``points[i]`` exactly
    when bit i of ``mask`` is set."""
    alive = (1 << len(rows)) - 1
    for bit, d in enumerate(points):
        alive &= (rows[d] if mask >> bit & 1 else ~rows[d]) & ~(1 << d)
    return alive


def missing_graph_demands(rows: list[int], vmax: int, level: int) -> list:
    """Missing extension demands (subset with max element ``vmax``, type
    mask) of the graph with neighbour sets ``rows``, as (points, mask)
    pairs.

    A demand for subset D = (d_0 < ... < d_{s-1}) and mask b asks for a
    point outside D adjacent to d_i exactly when bit i of b is set.
    Demands come out by subset size, then subsets in lexicographic order,
    then masks ascending.

    From size 2 on, one pass per prefix P below vmax covers every subset
    P + (d, vmax): the other points split into cells by their type over P
    and vmax, and d is a gap of a cell when every point of the cell is in
    d's closed neighbourhood (bit d clear) or apart from d (bit d set).
    """
    out = [((vmax,), mask) for mask in (0, 1) if level >= 1 and not _realizers(rows, (vmax,), mask)]
    closed = [row | 1 << w for w, row in enumerate(rows)]
    apart = [~row for row in rows]
    for size in range(2, level + 1):
        for prefix in itertools.combinations(range(vmax), size - 2):
            span = (1 << vmax) - (2 << prefix[-1] if prefix else 1)  # d above prefix, below vmax
            # cell masks: prefix, then vmax; demand masks: prefix, d, vmax
            low = size - 2
            gaps = [0] * 2**size
            for index in range(2 ** (size - 1)):
                gap0 = gap1 = span
                for w in _bits(_realizers(rows, prefix + (vmax,), index)):
                    gap0 &= closed[w]
                    gap1 &= apart[w]
                    if not gap0 | gap1:
                        break
                base = (index & ((1 << low) - 1)) | (index >> low << (low + 1))
                gaps[base], gaps[base | 1 << low] = gap0, gap1
            for d in _bits(functools.reduce(operator.or_, gaps)):
                out.extend((prefix + (d, vmax), mask) for mask, gap in enumerate(gaps) if gap >> d & 1)
    return out


def graph_demand_met(rows: list[int], points: tuple, mask: int) -> bool:
    """Quick recheck of a single demand against a (possibly grown) graph."""
    return _realizers(rows, points, mask) != 0


def find_mono_box_2d(rows: list[int], m: int):
    """First (rows, cols) index sets of size m whose product lies in a
    colour class, or None: row sets in lexicographic order, and the m
    smallest columns they share.  ``rows[i]`` is the set of columns j with
    (i, j) in the class."""
    for chosen in itertools.combinations(range(len(rows)), m):
        common = functools.reduce(operator.and_, (rows[i] for i in chosen), -1)
        if common.bit_count() >= m:
            return chosen, tuple(itertools.islice(_bits(common), m))
    return None

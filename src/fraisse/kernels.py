"""Array kernels for the two searches that dominate the package's runtime.

Scanning all (subset, type) extension demands of a graph is used by
generic-model closure and extension-property certification (~C(N,3)*8
demands at level 3); scanning all combinations of index sets for a
monochromatic sub-box of a colored grid is used by the Ramsey finders.
Both are written with NumPy: the demand scan scores a block of subsets
per array operation, the box search one row combination at a time.
"""

from __future__ import annotations

import itertools

import numpy as np

# Subsets scored per block of the demand scan: the code matrix of a block
# has this many rows and one column per point, so memory stays flat.
_BLOCK_ROWS = 4096


def missing_graph_demands(adj: np.ndarray, vmax: int, level: int) -> list:
    """Missing extension demands (subset with max element ``vmax``, type
    mask) of a graph adjacency matrix, as (points, mask) pairs.

    A demand for subset D = (d_0 < ... < d_{s-1}) and mask b asks for a
    vertex v outside D with adj[d_i, v] == bit i of b for all i.  Demands
    come out by subset size, then subsets in lexicographic order, then
    masks ascending.
    """
    a = adj.astype(np.int8)
    out = []
    for size in range(1, min(level, 3) + 1):
        heads = itertools.combinations(range(vmax), size - 1)
        while block := list(itertools.islice(heads, _BLOCK_ROWS)):
            rows = np.array(block, dtype=np.intp).reshape(len(block), size - 1)
            _scan_block(a, vmax, rows, out)
    return out


def _scan_block(a: np.ndarray, vmax: int, heads: np.ndarray, out: list) -> None:
    """Append the missing demands of the subsets ``head + (vmax,)`` for
    every row ``head`` of ``heads``, in row order and masks ascending.

    ``codes[r, v]`` is the type mask point v realizes over subset r, and -1
    on the subset's own points."""
    rows, width = heads.shape
    codes = np.repeat(a[vmax][None, :] << width, rows, axis=0)
    for bit in range(width):
        codes += a[heads[:, bit]] << bit
    codes[:, vmax] = -1
    codes[np.arange(rows)[:, None], heads] = -1
    realized = np.empty((2 ** (width + 1), rows), dtype=bool)
    for mask in range(len(realized)):
        np.any(codes == mask, axis=1, out=realized[mask])
    for row, mask in zip(*np.nonzero(~realized.T)):
        out.append((tuple(int(d) for d in heads[row]) + (vmax,), int(mask)))


def graph_demand_met(adj: np.ndarray, points: tuple, mask: int) -> bool:
    """Quick recheck of a single demand against a (possibly grown) graph."""
    n = adj.shape[0]
    alive = np.ones(n, dtype=bool)
    ok = alive
    for bit, d in enumerate(points):
        want = bool((mask >> bit) & 1)
        ok = ok & (adj[d].astype(bool) == want)
        alive[d] = False
    return bool(np.any(ok & alive))


def find_mono_box_2d(grid: np.ndarray, m: int, color: int):
    """First (rows, cols) index sets of size m with ``grid`` constantly
    ``color`` on their product, or None."""
    mask = grid == color
    n0 = grid.shape[0]
    for rows in itertools.combinations(range(n0), m):
        common = np.flatnonzero(np.logical_and.reduce(mask[list(rows)]))
        if common.size >= m:
            return rows, tuple(int(c) for c in common[:m])
    return None

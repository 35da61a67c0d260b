"""Balanced (capacitated) assignment of points to centers.

``balanced_assign`` assigns points to capacitated centers at minimum
total Manhattan distance — a transportation problem.  While the
capacity-expanded cost matrix fits :data:`_LSA_LIMIT` entries it is
solved exactly by scipy's Jonker-Volgenant rectangular assignment on
duplicated center columns; beyond that a streamed regret-greedy
heuristic takes over (docs/ALGORITHMS.md, "Partition").
"""

from __future__ import annotations

import numpy as np
# imported at module scope so the (expensive) scipy load is paid at
# startup, not inside the first HierarchicalCTS.run
from scipy.optimize import linear_sum_assignment

from repro.geometry import Point
from repro.obs.logcfg import get_logger
from repro.obs.metrics import METRICS

_LOG = get_logger("partition")

#: The LSA tier runs while its capacity-expanded ``points x (centers *
#: min(capacity, points))`` cost matrix fits this many entries.
_LSA_LIMIT = 40_000_000

#: Row-block size (in matrix elements) for the regret-greedy tier: a
#: block's ~3 float64 construction temporaries stay well below the
#: resident int32 candidate table at flow sizes, and small blocks are
#: cache-friendlier.
_CHUNK_ELEMS = 1_000_000


def balanced_assign(
    points: list[Point],
    centers: list[Point],
    capacity: int,
) -> list[int]:
    """Assign each point to a center; no center exceeds ``capacity``.

    Two tiers, both minimising total Manhattan distance:

    * exact rectangular assignment (scipy's Jonker-Volgenant) with each
      center's column duplicated ``min(capacity, n)`` times — no center
      can take more than all ``n`` points — while that expanded matrix
      fits :data:`_LSA_LIMIT` entries;
    * streamed regret-greedy beyond that, a heuristic.
    """
    n, k = len(points), len(centers)
    if n == 0:
        return []
    if k * capacity < n:
        raise ValueError(
            f"capacity infeasible: {k} centers x {capacity} < {n} points"
        )
    px = np.array([p.x for p in points])
    py = np.array([p.y for p in points])
    cx = np.array([c.x for c in centers])
    cy = np.array([c.y for c in centers])
    width = min(capacity, n)
    if n * k * width <= _LSA_LIMIT:
        dists = (np.abs(px[:, None] - cx[None, :])
                 + np.abs(py[:, None] - cy[None, :]))
        return _assign_lsa(dists, width)
    _LOG.debug("balanced_assign: %d x %d beyond LSA limit; regret-greedy",
               n, k)
    METRICS.inc("partition.assign_regret_greedy")
    return _regret_greedy(px, py, cx, cy, capacity)


def _assign_lsa(dists: np.ndarray, width: int) -> list[int]:
    """Exact capacitated assignment via rectangular LSA on ``width``
    duplicated columns per center."""
    METRICS.inc("partition.assign_lsa")
    expanded = np.repeat(dists, width, axis=1)
    rows, cols = linear_sum_assignment(expanded)
    METRICS.observe("partition.assign_cost_um",
                    float(expanded[rows, cols].sum()))
    # rows <= columns, so every row is matched and ``rows`` is 0..n-1
    return (cols // width).tolist()


def _regret_greedy(
    px: np.ndarray, py: np.ndarray, cx: np.ndarray, cy: np.ndarray,
    capacity: int,
) -> list[int]:
    """Vectorised regret-ordered greedy with overflow spill.

    Points with the most to lose (largest second-best minus best
    distance) claim their nearest center first; full centers are masked
    out as they saturate.  The full distance matrix is never
    materialised: each row block's distances are computed, argsorted
    (int32 columns halve the resident candidate table, k << 2^31) and
    discarded, so memory stays at one block plus the candidate table.

    Each point takes the first non-full center in its candidate order.
    The scalar scan covers the short prefix that almost always hits;
    rows that exhaust it (late points under tight capacity) fall back
    to one vectorised first-True search over the whole row — the same
    center the scalar scan would have reached, without the O(k) Python
    loop.
    """
    n, k = len(px), len(cx)
    order_all = np.empty((n, k), dtype=np.int32)
    best = np.empty(n)
    second = np.empty(n)
    step = max(1, _CHUNK_ELEMS // max(k, 1))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        d = (np.abs(px[lo:hi, None] - cx[None, :])
             + np.abs(py[lo:hi, None] - cy[None, :]))
        o = np.argsort(d, axis=1)
        order_all[lo:hi] = o
        r = np.arange(hi - lo)
        best[lo:hi] = d[r, o[:, 0]]
        second[lo:hi] = d[r, o[:, min(1, k - 1)]]
    regret_order = np.argsort(-(second - best))
    remaining = np.full(k, capacity, dtype=np.int64)
    assignment = [-1] * n
    for i in regret_order:
        row = order_all[i]
        chosen = -1
        for j in row[:64]:
            if remaining[j] > 0:
                chosen = int(j)
                break
        if chosen < 0:
            # feasibility (k * capacity >= n) guarantees a True exists
            chosen = int(row[int(np.argmax(remaining[row] > 0))])
        assignment[int(i)] = chosen
        remaining[chosen] -= 1
    assert all(a >= 0 for a in assignment)
    return assignment

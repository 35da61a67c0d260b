"""Min-cost flow (successive shortest paths) and balanced assignment.

The solver is written from scratch: residual graph in flat arrays,
Bellman-Ford for the first potential, then Dijkstra with Johnson
potentials per augmentation.  It is exact and fast enough for the
assignment instances the hierarchical flow produces at its upper levels
(hundreds of points, tens of clusters).

``balanced_assign`` is the user-facing entry point: assign points to
capacitated centers at minimum total distance.  Small instances run the
min-cost flow on each point's nearest candidate centers (re-widening on
infeasibility), mid-size ones scipy's exact LSA, and instances above
:data:`_LSA_LIMIT` a vectorised regret-greedy heuristic, as recorded in
DESIGN.md.
"""

from __future__ import annotations

import heapq

import numpy as np
# imported at module scope so the (expensive) scipy load is paid at
# startup, not inside the first HierarchicalCTS.run
from scipy.optimize import linear_sum_assignment

from repro.geometry import Point
from repro.obs.logcfg import get_logger
from repro.obs.metrics import METRICS

_LOG = get_logger("partition")

_INF = float("inf")

#: Nearest centers each point may use in the min-cost-flow tier (the
#: set doubles whenever the restricted instance is infeasible).
_CANDIDATES = 5

#: The min-cost-flow tier runs while ``points * candidates`` arcs fit.
_EXACT_LIMIT = 4_000

#: The LSA tier runs while its capacity-expanded ``points x (centers *
#: capacity)`` cost matrix fits this many entries.
_LSA_LIMIT = 40_000_000

#: Row-block size (in matrix elements) for the regret-greedy tier: a
#: block's ~3 float64 construction temporaries stay well below the
#: resident int32 candidate table at flow sizes, and small blocks are
#: cache-friendlier.
_CHUNK_ELEMS = 1_000_000


class _Graph:
    """Residual graph with paired forward/backward arcs."""

    def __init__(self, n: int):
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[float] = []
        self.cost: list[float] = []

    def add_edge(self, u: int, v: int, cap: float, cost: float) -> int:
        idx = len(self.to)
        self.head[u].append(idx)
        self.to.append(v)
        self.cap.append(cap)
        self.cost.append(cost)
        self.head[v].append(idx + 1)
        self.to.append(u)
        self.cap.append(0.0)
        self.cost.append(-cost)
        return idx


def min_cost_flow(
    num_nodes: int,
    edges: list[tuple[int, int, float, float]],
    source: int,
    sink: int,
    flow: float,
) -> tuple[float, list[float]]:
    """Send ``flow`` units from source to sink at minimum cost.

    ``edges`` are (u, v, capacity, cost).  Returns (total_cost, flow per
    input edge).  Raises ValueError when the requested flow is infeasible.
    """
    g = _Graph(num_nodes)
    ids = [g.add_edge(u, v, cap, cost) for u, v, cap, cost in edges]

    potential = _bellman_ford(g, source)
    remaining = flow
    total_cost = 0.0
    while remaining > 1e-12:
        dist, prev_edge = _dijkstra(g, source, potential)
        if dist[sink] == _INF:
            raise ValueError(
                f"min_cost_flow: only {flow - remaining} of {flow} units "
                "are routable"
            )
        for i in range(g.n):
            if dist[i] < _INF:
                potential[i] += dist[i]
        # find bottleneck along the augmenting path
        push = remaining
        v = sink
        while v != source:
            e = prev_edge[v]
            push = min(push, g.cap[e])
            v = g.to[e ^ 1]
        v = sink
        while v != source:
            e = prev_edge[v]
            g.cap[e] -= push
            g.cap[e ^ 1] += push
            total_cost += push * g.cost[e]
            v = g.to[e ^ 1]
        remaining -= push

    flows = [g.cap[i ^ 1] for i in ids]
    return total_cost, flows


def _bellman_ford(g: _Graph, source: int) -> list[float]:
    dist = [0.0] * g.n  # zero init handles disconnected nodes gracefully
    for _ in range(g.n - 1):
        changed = False
        for u in range(g.n):
            du = dist[u]
            for e in g.head[u]:
                if g.cap[e] > 1e-12 and du + g.cost[e] < dist[g.to[e]] - 1e-12:
                    dist[g.to[e]] = du + g.cost[e]
                    changed = True
        if not changed:
            break
    return dist


def _dijkstra(
    g: _Graph, source: int, potential: list[float]
) -> tuple[list[float], list[int]]:
    dist = [_INF] * g.n
    prev_edge = [-1] * g.n
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u] + 1e-12:
            continue
        for e in g.head[u]:
            if g.cap[e] <= 1e-12:
                continue
            v = g.to[e]
            nd = d + g.cost[e] + potential[u] - potential[v]
            if nd < dist[v] - 1e-12:
                dist[v] = nd
                prev_edge[v] = e
                heapq.heappush(heap, (nd, v))
    return dist, prev_edge


# ----------------------------------------------------------------------
# Balanced assignment
# ----------------------------------------------------------------------
def balanced_assign(
    points: list[Point],
    centers: list[Point],
    capacity: int,
) -> list[int]:
    """Assign each point to a center; no center exceeds ``capacity``.

    Three tiers, all minimising total Manhattan distance:

    * exact min-cost flow on nearest-candidate arcs for small instances
      (the from-scratch solver in this module);
    * exact rectangular assignment (scipy's Jonker-Volgenant) with
      capacity-duplicated center columns while the expanded cost matrix
      fits :data:`_LSA_LIMIT` entries;
    * vectorised regret-greedy beyond that (documented in DESIGN.md).

    The dense point x center distance matrix is built only when one of
    the two exact tiers can run; the regret-greedy tier streams it.
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
    cand = min(_CANDIDATES, k)
    lsa_fits = n * k * capacity <= _LSA_LIMIT
    if n * cand <= _EXACT_LIMIT or lsa_fits:
        dists = (np.abs(px[:, None] - cx[None, :])
                 + np.abs(py[:, None] - cy[None, :]))
        while n * cand <= _EXACT_LIMIT:
            assignment = _assign_mcf(dists, capacity, cand)
            if assignment is not None:
                METRICS.inc("partition.assign_mcf")
                return assignment
            METRICS.inc("partition.assign_mcf_widened")
            if cand == k:
                raise AssertionError("full candidate set must be feasible")
            cand = min(k, cand * 2)
        if lsa_fits:
            return _assign_lsa(dists, capacity)
    _LOG.debug("balanced_assign: %d x %d beyond LSA limit; regret-greedy",
               n, k)
    METRICS.inc("partition.assign_regret_greedy")
    return _regret_greedy(px, py, cx, cy, capacity)


def _assign_lsa(dists: np.ndarray, capacity: int) -> list[int]:
    """Exact capacitated assignment via rectangular LSA on duplicated
    center columns."""
    METRICS.inc("partition.assign_lsa")
    expanded = np.repeat(dists, capacity, axis=1)
    rows, cols = linear_sum_assignment(expanded)
    assignment = [-1] * dists.shape[0]
    total = 0.0
    for r, c in zip(rows, cols):
        assignment[int(r)] = int(c) // capacity
        total += float(expanded[r, c])
    METRICS.observe("partition.assign_cost_um", total)
    assert all(a >= 0 for a in assignment)
    return assignment


def _assign_mcf(
    dists: np.ndarray, capacity: int, cand: int
) -> list[int] | None:
    n, k = dists.shape
    nearest = np.argsort(dists, axis=1)[:, :cand]
    source = n + k
    sink = n + k + 1
    edges: list[tuple[int, int, float, float]] = []
    arc_meta: list[tuple[int, int]] = []
    for i in range(n):
        edges.append((source, i, 1.0, 0.0))
        arc_meta.append((-1, -1))
        for j in nearest[i]:
            edges.append((i, n + int(j), 1.0, float(dists[i, j])))
            arc_meta.append((i, int(j)))
    for j in range(k):
        edges.append((n + j, sink, float(capacity), 0.0))
        arc_meta.append((-1, -1))
    try:
        cost, flows = min_cost_flow(n + k + 2, edges, source, sink, float(n))
    except ValueError:
        return None  # candidate restriction infeasible; caller widens
    METRICS.observe("partition.assign_cost_um", cost)
    assignment = [-1] * n
    for (i, j), f in zip(arc_meta, flows):
        if i >= 0 and f > 0.5:
            assignment[i] = j
    assert all(a >= 0 for a in assignment)
    return assignment


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

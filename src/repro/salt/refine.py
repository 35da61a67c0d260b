"""Post-construction refinement of shallow-light trees.

The SALT code base applies three rectilinear refinements: *steinerisation*
(sharing common H/V runs between sibling edges), *L-shape flipping*
(choosing the bend of each L route to maximise overlap) and redundant-node
removal.  On the point-to-point tree representation used here, the first
two are subsumed by median steinerisation: the median of a node triple
lies on a shortest Manhattan path between every pair, so adopting it as a
Steiner point realises exactly the overlap an optimal L-flip would
expose, *never increasing any source-to-sink path length* — the property
that keeps the shallowness guarantee intact.  (The children-pair collapse
preserves path lengths exactly; the parent-child collapse can shorten
them, which the dirty-region bookkeeping below must account for.)

The edge-reattachment pass here is the flow's hottest loop (it runs on
every routed net, several times).  It is implemented twice:

* the production pass (:func:`edge_reattach_pass`) — the published scan,
  with candidate scoring lifted into numpy matrix passes that evaluate
  whole batches of nodes against every edge at once (:func:`_batch_eval`),
  preorder-interval ancestry tests instead of per-candidate subtree
  rebuilds, and a dirty-region event log so later sweeps only revisit
  nodes near an edge that changed.  Every matrix is chunked to at most
  :data:`_BATCH_CHUNK_ELEMS` elements, so memory stays bounded at any
  net size;
* the reference brute-force scan (:func:`_edge_reattach_brute`) — every
  node against every edge, exactly the published algorithm, kept as the
  oracle the tests compare against.

The two are *output-identical* — the bbox-distance lower bound that the
brute-force scan already uses for rejection makes the pruning exact, and
candidates are evaluated in the same ascending-id order so ties break
identically (see docs/ALGORITHMS.md for the argument).  The property test
``tests/salt/test_refine_property.py`` enforces this equivalence.
"""

from __future__ import annotations

import os

import numpy as np

from repro.geometry import Point, manhattan
from repro.netlist.tree import RoutedTree
from repro.netlist.tree_ops import prune_redundant_steiner
from repro.obs.logcfg import get_logger
from repro.obs.metrics import METRICS
from repro.obs.tracer import TRACER
from repro.rsmt.steinerize import median_steinerize

_LOG = get_logger("salt")

#: Debug switch: re-validate tree invariants after every ``refine`` call.
#: Off in the nominal flow (33+ O(n) walks per full-chip run); the test
#: suite turns it on via ``tests/conftest.py`` or ``REPRO_VALIDATE_REFINE``.
VALIDATE_REFINED = os.environ.get("REPRO_VALIDATE_REFINE", "") not in ("", "0")


class _RefineState:
    """Dirty-region tracking shared by the sweeps of one refinement run.

    ``events`` is an append-only log of bounding boxes of edges that
    changed (were created, re-routed, or had their subtree's path
    lengths / availability changed).  ``stamp[nid]`` is the event-log
    length when ``nid`` was last evaluated; a node may be skipped iff no
    event logged since then lies within its attachment radius.  Skipping
    is exact: a node whose neighbourhood is untouched since an evaluation
    that found no move still has no move (every input of the evaluation
    is covered by the event log — see docs/ALGORITHMS.md).
    """

    __slots__ = ("events", "stamp")

    def __init__(self) -> None:
        self.events: list[tuple[float, float, float, float]] = []
        self.stamp: dict[int, int] = {}


def refine(
    tree: RoutedTree, max_passes: int = 6, validate: bool | None = None
) -> float:
    """Refine in place; returns wirelength saved.

    Alternates median steinerisation (local triple sharing) with edge
    reattachment (global overlap discovery) until neither helps.  Both
    operations never increase any source-to-sink path length, so the
    shallowness guarantee of the caller survives refinement.

    ``validate`` gates the post-refinement invariant walk; it defaults
    to the module-level :data:`VALIDATE_REFINED` debug flag (off in the
    nominal flow, on under the test suite).
    """
    before = tree.wirelength()
    state = _RefineState()
    with TRACER.span("refine", nodes=len(tree)):
        for i in range(max_passes):
            with TRACER.span("pass", n=i):
                changes: list[tuple[float, float, float, float]] = []
                gained = median_steinerize(tree, changes=changes)
                state.events.extend(changes)
                gained += edge_reattach_pass(tree, state=state)
            if gained <= 1e-9:
                break
        prune_redundant_steiner(tree)
    if validate if validate is not None else VALIDATE_REFINED:
        tree.validate()
    else:
        _spot_check(tree)
    saved = before - tree.wirelength()
    METRICS.observe("salt.refine_gain_um", saved)
    _LOG.debug("refine: %.3f um saved over %d nodes", saved, len(tree))
    return saved


def _spot_check(tree: RoutedTree) -> None:
    """Constant-cost structural sanity check for the nominal path.

    The full ``validate()`` walk is gated behind :data:`VALIDATE_REFINED`
    (33+ O(n) walks per flow run); this touches only the root and its
    immediate children, so gross corruption — a lost root, broken
    reciprocal pointers at the top of the tree — still fails loudly in
    production instead of propagating silently through the flow.
    """
    root = tree.node(tree.root)
    if root.parent is not None:
        raise ValueError(
            f"refined tree root {tree.root} has parent {root.parent}"
        )
    for cid in root.children:
        parent = tree.node(cid).parent
        if parent != tree.root:
            raise ValueError(
                f"parent pointer of {cid} is {parent}, "
                f"expected root {tree.root}"
            )


# ----------------------------------------------------------------------
# Batched implementation (the production pass)
# ----------------------------------------------------------------------
#: Counters that prove the matrix-batched reattachment actually ran; the
#: hot-path guard test (tests/core/test_batched_hot_path_guard.py)
#: fails if a traced flow leaves any of them at zero.
BATCH_COUNTERS = ("salt.batch.batches", "salt.batch.evals")

#: Cap on matrix elements per chunk.  Every matrix the reattachment pass
#: builds — :func:`_batch_eval`'s query x edge scoring, the sweep-start
#: events x candidates dirty window and the per-move boxes x batch
#: invalidation — is chunked over its rows so ``rows * columns`` stays
#: below this.  Results are row-independent, so chunking cannot change
#: them; it only bounds peak memory on large flat nets.
_BATCH_CHUNK_ELEMS = 2_000_000


def _row_chunks(rows: int, cols: int):
    """``(lo, hi)`` row ranges of a ``rows x cols`` matrix, each at most
    :data:`_BATCH_CHUNK_ELEMS` elements (at least one row)."""
    step = max(1, _BATCH_CHUNK_ELEMS // max(cols, 1))
    for lo in range(0, rows, step):
        yield lo, min(lo + step, rows)


def _box_dist(boxes: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Manhattan distance from each point (columns) to each bounding box
    ``(x1, y1, x2, y2)`` row of ``boxes``; zero inside the box."""
    dx = np.maximum(np.maximum(boxes[:, 0:1] - x, x - boxes[:, 2:3]), 0.0)
    dy = np.maximum(np.maximum(boxes[:, 1:2] - y, y - boxes[:, 3:4]), 0.0)
    return dx + dy


def _events_touch(
    events: list[tuple[float, float, float, float]],
    start: int,
    end: int,
    vx: float,
    vy: float,
    radius: float,
) -> bool:
    """True iff an event bbox in ``[start, end)`` intrudes into the
    Manhattan ``radius`` around (vx, vy)."""
    for i in range(start, end):
        x1, y1, x2, y2 = events[i]
        dx = x1 - vx if x1 > vx else (vx - x2 if vx > x2 else 0.0)
        dy = y1 - vy if y1 > vy else (vy - y2 if vy > y2 else 0.0)
        if dx + dy < radius:
            return True
    return False


class _EdgeSlots:
    """Id-indexed edge geometry for the batched pass: bounding-box
    corners, edge length and a liveness flag, one slot per node id.

    Node ids are small, dense-ish, monotonically allocated and never
    reused, so indexing arrays by id directly gives O(1) scalar updates
    after a mutation and — crucially — lets the fallback evaluator
    filter *all* edges against a radius in one vectorised pass whose
    ``flatnonzero`` output is already in ascending id order, the order
    the reference scan's tie-breaking requires.
    """

    __slots__ = ("x1", "y1", "x2", "y2", "el", "live", "n")

    def __init__(self, arr) -> None:
        n = int(arr.ids[-1]) + 1 if len(arr.ids) else 1
        cap = n + 16
        self.x1 = np.zeros(cap)
        self.y1 = np.zeros(cap)
        self.x2 = np.zeros(cap)
        self.y2 = np.zeros(cap)
        self.el = np.zeros(cap)
        self.live = np.zeros(cap, dtype=bool)
        self.n = n
        erows = np.flatnonzero(arr.parent_row >= 0)
        eids = arr.ids[erows]
        ex, ey = arr.x[erows], arr.y[erows]
        px = arr.x[arr.parent_row[erows]]
        py = arr.y[arr.parent_row[erows]]
        self.x1[eids] = np.minimum(ex, px)
        self.x2[eids] = np.maximum(ex, px)
        self.y1[eids] = np.minimum(ey, py)
        self.y2[eids] = np.maximum(ey, py)
        # same arithmetic as tree.edge_length (see TreeArrays docstring)
        self.el[arr.ids] = arr.edge_len
        self.live[eids] = True

    def reindex(self, tree: RoutedTree, cid: int) -> None:
        """Refresh the slot of edge parent(cid) -> cid after a mutation."""
        if cid >= len(self.el):
            grow = max(len(self.el) * 2, cid + 16)
            for name in ("x1", "y1", "x2", "y2", "el"):
                old = getattr(self, name)
                new = np.zeros(grow)
                new[: len(old)] = old
                setattr(self, name, new)
            live = np.zeros(grow, dtype=bool)
            live[: len(self.live)] = self.live
            self.live = live
        node = tree.node(cid)
        parent = tree.node(node.parent)
        nx, ny = node.location.x, node.location.y
        qx, qy = parent.location.x, parent.location.y
        self.x1[cid] = nx if nx <= qx else qx
        self.x2[cid] = qx if nx <= qx else nx
        self.y1[cid] = ny if ny <= qy else qy
        self.y2[cid] = qy if ny <= qy else ny
        self.el[cid] = tree.edge_length(cid)
        self.live[cid] = True
        if cid >= self.n:
            self.n = cid + 1

    def box(self, cid: int) -> tuple[float, float, float, float]:
        return (float(self.x1[cid]), float(self.y1[cid]),
                float(self.x2[cid]), float(self.y2[cid]))


def _best_attachment_slots(
    tree: RoutedTree,
    pl: dict[int, float],
    vid: int,
    tol: float,
    slots: _EdgeSlots,
) -> tuple[int, Point, float, float] | None:
    """Scalar re-evaluation of one node against the slot arrays.

    Bit-identical to the reference :func:`_best_attachment`: the
    vectorised bbox filter keeps exactly the edges whose lower bound
    beats the radius (the reference scan rejects the rest with the same
    bound), candidates come out in ascending id order, and the
    per-candidate arithmetic is verbatim the same.
    """
    v = tree.node(vid)
    vx, vy = v.location.x, v.location.y
    current_cost = float(slots.el[vid])
    radius = current_cost - tol
    if radius <= 0.0:
        return None
    n = slots.n
    dx = np.maximum(np.maximum(slots.x1[:n] - vx, vx - slots.x2[:n]), 0.0)
    dy = np.maximum(np.maximum(slots.y1[:n] - vy, vy - slots.y2[:n]), 0.0)
    lb_all = dx + dy
    cand = np.flatnonzero(slots.live[:n] & (lb_all < radius))
    if not len(cand):
        return None
    tin, tout = tree.preorder_intervals()
    tv_in, tv_out = tin[vid], tout[vid]
    pl_budget = pl[vid] + tol
    best = None
    best_gain = tol
    for cid, lb in zip(cand.tolist(), lb_all[cand].tolist()):
        child = tree.node(cid)
        parent_id = child.parent
        if parent_id is None or child.detour > tol:
            continue
        if tv_in <= tin[cid] < tv_out:
            continue  # cid inside v's subtree (v itself included)
        if tv_in <= tin[parent_id] < tv_out:
            continue
        if current_cost - lb <= best_gain:
            continue
        p = tree.node(parent_id)
        q, walk = _nearest_on_l(p.location, child.location, v.location)
        d = manhattan(q, v.location)
        gain = current_cost - d
        if gain <= best_gain:
            continue
        new_pl = pl[parent_id] + walk + d
        if new_pl > pl_budget:
            continue  # would lengthen v's path: unsafe for shallowness
        best = (cid, q, gain, new_pl)
        best_gain = gain
    return best


def edge_reattach_pass(
    tree: RoutedTree,
    tol: float = 1e-9,
    *,
    state: _RefineState | None = None,
) -> float:
    """Re-home nodes onto nearby points of existing tree edges.

    For every non-root node v, find the point q on some tree edge's
    L-shaped route that is closest to v; if attaching v at q both saves
    wire and does not lengthen v's root path, split the edge at q with a
    Steiner node and reparent v there.  This is the overlap discovery the
    SALT code base performs via L-shape flipping: wirelength strictly
    decreases and every path length is non-increasing, so it is safe
    after any construction (SALT, CBS, RSMT).  Returns wire saved.

    ``state`` carries dirty-region knowledge across calls within one
    :func:`refine` run so converged regions are not re-scanned.  The
    moves are exactly those of the reference scan
    :func:`_edge_reattach_brute`; only the evaluation is batched.

    At the start of every sweep, all nodes that cannot be skipped by the
    dirty-region stamp — decided by one vectorised nodes-by-events
    distance pass over the stamped windows — are scored against every
    edge in one matrix pass (:func:`_batch_eval`) over the tree's
    cached SoA view.  The sweep then walks nodes in preorder,
    consuming each node's pre-computed result — *unless* a move applied
    earlier in the sweep invalidated the cached result, in which case
    the node is re-scored on the spot with
    :func:`_best_attachment_slots` (bit-identical to a matrix row).

    Staleness is *winner-aware*.  Every mid-sweep event carries the id
    of the edge whose geometry or path length changed, and a cached
    result for query v with best move (e*, gain) goes stale only when

    * the event's edge IS e* (its geometry, eligibility, or upstream
      path length changed — the cached tuple can no longer be trusted),
    * the event's edge is v's own (v's edge length ``qcc`` or v's path
      budget changed — both inputs of every candidate's score), or
    * the event box intrudes into the *contested* radius
      ``qcc - gain`` (non-strict): a changed or new edge at bbox
      distance ``lb`` can offer at most ``qcc - lb`` gain, so anything
      strictly outside the cached winner's distance can neither beat it
      nor — because new edge ids sort after e* and the scan keeps the
      first maximum — displace it on a tie.  Equality stays inside
      because an *existing* lower-id edge whose path length improved
      can tie the winner and legitimately take its place.

    For cached-None results the radius is ``qcc - tol`` exactly as in
    the :func:`_events_touch` skip test.  All of one move's events are invalidated in
    a single boxes-by-batch matrix pass (deferral within a move is
    safe: staleness is only consumed at the next node's turn).  Move
    application and path-length maintenance are verbatim the reference
    scan's; each move logs two extra events (the mover's and the split
    target's *old* geometry) so cached results that depended on vanished
    edges are invalidated too.  The resulting tree is identical to the
    reference scan's — enforced by ``tests/salt/test_refine_property.py``.
    """
    if state is None:
        state = _RefineState()
    total_gain = 0.0
    n_skips = 0
    n_moves = 0
    n_batches = 0
    n_evals = 0
    n_fallbacks = 0
    pl = tree.path_lengths()
    events = state.events
    stamp = state.stamp
    slots = _EdgeSlots(tree.arrays())

    improved = True
    passes = 0
    while improved and passes < 8:
        improved = False
        passes += 1
        arr = tree.arrays()
        # tin is assigned in preorder visit order, so the stable argsort
        # of the tin column *is* the preorder walk
        order = arr.ids[np.argsort(arr.tin, kind="stable")].tolist()
        n_events0 = len(events)
        # ---- sweep-start batch: every node the stamp cannot skip now.
        # One nodes-by-window-events matrix decides dirtiness for all
        # stamped candidates at once (same strict test as the scalar
        # _events_touch); never-stamped nodes always need evaluation.
        cand_mask = (arr.parent_row >= 0) & (arr.detour <= tol)
        cids = arr.ids[cand_mask]
        cl = cids.tolist()
        s_arr = np.fromiter((stamp.get(i, -1) for i in cl),
                            dtype=np.int64, count=len(cl))
        need = s_arr < 0
        windowed = (s_arr >= 0) & (s_arr < n_events0)
        if windowed.any():
            smin = int(s_arr[windowed].min())
            wnd = np.array(events[smin:n_events0])
            cx = arr.x[cand_mask]
            cy = arr.y[cand_mask]
            radius = slots.el[cids] - tol
            seq = np.arange(smin, n_events0)
            hit = np.zeros(len(cl), dtype=bool)
            for lo, hi in _row_chunks(len(wnd), len(cl)):
                d = _box_dist(wnd[lo:hi], cx, cy)
                hit |= ((d < radius)
                        & (seq[lo:hi, None] >= s_arr)).any(axis=0)
            need |= windowed & hit
        batch = cids[need].tolist()
        moves: dict[int, tuple[int, Point, float, float] | None] = {}
        if batch:
            moves = dict(_batch_eval(tree, pl, batch, tol))
            n_batches += 1
            n_evals += len(batch)
        bat_idx = {w: i for i, w in enumerate(batch)}
        bat_ids = cids[need]
        bat_x = arr.x[cand_mask][need]
        bat_y = arr.y[cand_mask][need]
        # contested radius per row: qcc - gain for rows with a cached
        # move (non-strict test), qcc - tol for cached-None rows (strict
        # test, as in _events_touch); winner edge id or -1.  All frozen
        # at evaluation time — radii only shrink as the sweep mutates
        # the tree, so the frozen value is conservative.
        bat_r = slots.el[bat_ids] - tol
        bat_winner = np.full(len(batch), -1, dtype=np.int64)
        for i, w in enumerate(batch):
            mv = moves.get(w)
            if mv is not None:
                bat_winner[i] = mv[0]
                bat_r[i] = slots.el[w] - mv[2]
        has_move = bat_winner >= 0
        stale = np.zeros(len(batch), dtype=bool)

        def invalidate_many(
            boxes: list[tuple[float, float, float, float]],
            eids: list[int],
        ) -> None:
            if not len(stale):
                return
            b = np.array(boxes)
            touched = np.zeros(len(stale), dtype=bool)
            for lo, hi in _row_chunks(len(b), len(stale)):
                d = _box_dist(b[lo:hi], bat_x, bat_y)
                touched |= np.where(has_move, d <= bat_r,
                                    d < bat_r).any(axis=0)
            eid_arr = np.array(eids, dtype=np.int64)
            touched |= np.isin(bat_winner, eid_arr)
            touched |= np.isin(bat_ids, eid_arr)
            np.logical_or(stale, touched, out=stale)

        for vid in order:
            if vid == tree.root or vid not in tree:
                continue
            v = tree.node(vid)
            if v.detour > tol:
                continue
            n_events = len(events)
            idx = bat_idx.get(vid)
            if idx is None:
                # not in the batch: the sweep-start check already cleared
                # the window up to n_events0, under a radius no smaller
                # than the current one (edges only shrink), so only the
                # events of this sweep's own moves need testing
                loc = v.location
                if n_events == n_events0 or not _events_touch(
                        events, n_events0, n_events,
                        loc.x, loc.y, float(slots.el[vid]) - tol):
                    stamp[vid] = n_events
                    n_skips += 1
                    continue
                move = _best_attachment_slots(tree, pl, vid, tol, slots)
                n_fallbacks += 1
            elif stale[idx]:
                move = _best_attachment_slots(tree, pl, vid, tol, slots)
                n_fallbacks += 1
            else:
                move = moves[vid]
            stamp[vid] = n_events
            if move is None:
                continue
            edge_child, q, gain, new_pl = move
            parent_of_edge = tree.node(edge_child).parent
            # the split target's and the mover's old geometry stops being
            # available: log both so cached results that depended on them
            # go stale (the reference scan evaluates lazily at each node's
            # turn and does not need these events)
            mv_boxes = [slots.box(edge_child), slots.box(vid)]
            mv_eids = [edge_child, vid]
            events.extend(mv_boxes)
            split = _split_edge(tree, edge_child, q, tol)
            tree.reparent(vid, split)
            if split not in pl:
                pl[split] = pl[parent_of_edge] + tree.edge_length(split)
            slots.reindex(tree, vid)
            if split != parent_of_edge and split != edge_child:
                slots.reindex(tree, split)
                slots.reindex(tree, edge_child)
                for cid2 in (split, edge_child):
                    box = slots.box(cid2)
                    events.append(box)
                    mv_boxes.append(box)
                    mv_eids.append(cid2)
            # only v's subtree shifts (by a non-positive delta); its edges
            # also change availability/path-length for other movers, so
            # each one is logged as a dirty region
            delta = new_pl - pl[vid]
            stack = [vid]
            while stack:
                nid = stack.pop()
                pl[nid] += delta
                box = slots.box(nid)
                events.append(box)
                mv_boxes.append(box)
                mv_eids.append(nid)
                stack.extend(tree.node(nid).children)
            invalidate_many(mv_boxes, mv_eids)
            total_gain += gain
            n_moves += 1
            improved = True
    METRICS.inc("salt.dirty_skips", n_skips)
    METRICS.inc("salt.reattach_moves", n_moves)
    METRICS.inc("salt.batch.batches", n_batches)
    METRICS.inc("salt.batch.evals", n_evals)
    METRICS.inc("salt.batch.fallbacks", n_fallbacks)
    if total_gain > 0.0:
        METRICS.observe("salt.reattach_gain_um", total_gain)
    return total_gain


class _EdgeView:
    """Per-tree cache of the edge-side arrays :func:`_batch_eval` needs.

    Everything here is a pure function of the tree's SoA view, so the
    cache is keyed on the *identity* of the ``TreeArrays`` object —
    the tree rebuilds that view whenever its content version moves, so
    a fresh view object always means the cache is stale, and id reuse
    across trees cannot alias (the keyed-on object is the one held).
    Sweep-start batches over an untouched tree reuse the view for
    free; mid-sweep re-evaluations rebuild after each mutation.  The
    path-length column (``eplp``) is *not* cached: it depends on the
    caller's incrementally-maintained ``pl`` dict.
    """

    __slots__ = ("erows", "eprows", "eids", "ax", "ay",
                 "bx", "by", "eligible", "etin", "eptin", "lox", "hix",
                 "loy", "hiy", "exab", "eyab", "eparent_ids")

    def __init__(self, arr) -> None:
        erows = np.flatnonzero(arr.parent_row >= 0)
        eprows = arr.parent_row[erows]
        self.erows = erows
        self.eprows = eprows
        self.eids = arr.ids[erows]
        self.eparent_ids = arr.ids[eprows]
        ax, ay = arr.x[eprows], arr.y[eprows]
        bx, by = arr.x[erows], arr.y[erows]
        self.ax, self.ay, self.bx, self.by = ax, ay, bx, by
        self.eligible = arr.detour[erows] <= 0.0  # re-tested per call
        self.etin = arr.tin[erows]
        self.eptin = arr.tin[eprows]
        self.lox, self.hix = np.minimum(ax, bx), np.maximum(ax, bx)
        self.loy, self.hiy = np.minimum(ay, by), np.maximum(ay, by)
        self.exab = np.abs(ax - bx)     # walk offsets of the far corners
        self.eyab = np.abs(ay - by)


#: one-slot edge-view cache: (TreeArrays identity, tol, view).  The
#: refinement loop works one tree at a time, so a single slot captures
#: all the reuse there is (repeat batches over an unmutated tree).
_EDGE_VIEW_CACHE: tuple[object, float, _EdgeView] | None = None


def _edge_view(arr, tol: float) -> _EdgeView:
    global _EDGE_VIEW_CACHE
    cached = _EDGE_VIEW_CACHE
    if cached is not None and cached[0] is arr and cached[1] == tol:
        return cached[2]
    view = _EdgeView(arr)
    # eligibility is the one tol-dependent column
    if tol != 0.0:
        view.eligible = arr.detour[view.erows] <= tol
    _EDGE_VIEW_CACHE = (arr, tol, view)
    return view


def _batch_eval(
    tree: RoutedTree,
    pl: dict[int, float],
    qids: list[int],
    tol: float,
) -> list[tuple[int, tuple[int, Point, float, float] | None]]:
    """Best attachment for every query node, one matrix pass over all
    non-root edges.

    Replicates the reference candidate scan exactly: columns are laid out
    in ascending child-id order (``RoutedTree.node_ids()`` order, which
    is also the SoA row order), the per-candidate arithmetic matches
    :func:`_nearest_on_l` operation for operation, and the winner is
    the first-occurrence argmax of gain over fully-valid candidates —
    which is the reference scan's strict-improvement running maximum,
    because candidates that fail the path-length budget never raise it.

    Geometry, detours, preorder intervals and edge lengths come from
    the tree's cached SoA view; path lengths must come from the
    caller's incrementally-maintained ``pl`` dict (a fresh recompute
    would not be bit-identical to the scalar deltas).
    """
    arr = tree.arrays()
    if len(arr) < 2:
        return [(w, None) for w in qids]
    ev = _edge_view(arr, tol)
    ax, ay, bx, by = ev.ax, ev.ay, ev.bx, ev.by
    lox, hix, loy, hiy = ev.lox, ev.hix, ev.loy, ev.hiy
    exab, eyab = ev.exab, ev.eyab
    eids = ev.eids
    etin, eptin = ev.etin, ev.eptin
    eplp = np.fromiter(map(pl.__getitem__, ev.eparent_ids.tolist()),
                       dtype=np.float64, count=len(eids))
    m = len(eids)

    qrows = np.fromiter(map(arr.row_of.__getitem__, qids),
                        dtype=np.int64, count=len(qids))
    qx = arr.x[qrows]
    qy = arr.y[qrows]
    qcc = arr.edge_len[qrows]           # == tree.edge_length, bit for bit
    qplb = np.fromiter(map(pl.__getitem__, qids),
                       dtype=np.float64, count=len(qids)) + tol
    qtin = arr.tin[qrows]
    qtout = arr.tout[qrows]

    results: list[tuple[int, tuple[int, Point, float, float] | None]] = []
    for lo, hi in _row_chunks(len(qids), m):
        tx = qx[lo:hi, None]
        ty = qy[lo:hi, None]
        # nearest point on either L-route, candidate by candidate in the
        # exact order _nearest_on_l tries them: start at the edge parent
        # a, then the four segments a->c1, c1->b, a->c2, c2->b with
        # corners c1=(ax,by), c2=(bx,ay); same strict-improvement guard
        clx = np.minimum(np.maximum(tx, lox), hix)
        cly = np.minimum(np.maximum(ty, loy), hiy)
        dxa = np.abs(ax - tx)
        dya = np.abs(ay - ty)
        dxb = np.abs(bx - tx)
        dyb = np.abs(by - ty)
        dxc = np.abs(clx - tx)
        dyc = np.abs(cly - ty)
        exac = np.abs(ax - clx)         # in-segment walk components
        eyac = np.abs(ay - cly)
        best_d = dxa + dya
        shape = best_d.shape
        bqx = np.broadcast_to(ax, shape)
        bqy = np.broadcast_to(ay, shape)
        bw = np.zeros(shape)
        for d_k, qx_k, qy_k, w_k in (
            (dxa + dyc, np.broadcast_to(ax, shape), cly, eyac),
            (dxc + dyb, clx, np.broadcast_to(by, shape), eyab + exac),
            (dxc + dya, clx, np.broadcast_to(ay, shape), exac),
            (dxb + dyc, np.broadcast_to(bx, shape), cly, exab + eyac),
        ):
            better = d_k < best_d - 1e-12
            bqx = np.where(better, qx_k, bqx)
            bqy = np.where(better, qy_k, bqy)
            bw = np.where(better, w_k, bw)
            best_d = np.where(better, d_k, best_d)
        gain = qcc[lo:hi, None] - best_d
        ti = qtin[lo:hi, None]
        to = qtout[lo:hi, None]
        in_sub_c = (ti <= etin) & (etin < to)
        in_sub_p = (ti <= eptin) & (eptin < to)
        new_pl = (eplp + bw) + best_d
        valid = (ev.eligible & ~in_sub_c & ~in_sub_p
                 & (gain > tol) & (new_pl <= qplb[lo:hi, None]))
        score = np.where(valid, gain, -np.inf)
        rows = np.arange(hi - lo)
        jb = np.argmax(score, axis=1)
        hit = score[rows, jb] != -np.inf
        w_eid = eids[jb]
        w_qx = bqx[rows, jb]
        w_qy = bqy[rows, jb]
        w_gain = gain[rows, jb]
        w_pl = new_pl[rows, jb]
        for r in range(hi - lo):
            if hit[r]:
                results.append((qids[lo + r], (
                    int(w_eid[r]),
                    Point(float(w_qx[r]), float(w_qy[r])),
                    float(w_gain[r]),
                    float(w_pl[r]),
                )))
            else:
                results.append((qids[lo + r], None))
    return results


# ----------------------------------------------------------------------
# Reference brute-force implementation (kept for the equivalence tests)
# ----------------------------------------------------------------------
def _edge_reattach_brute(tree: RoutedTree, tol: float) -> float:
    total_gain = 0.0
    improved = True
    passes = 0
    pl = tree.path_lengths()
    while improved and passes < 8:
        improved = False
        passes += 1
        for vid in list(tree.preorder()):
            if vid == tree.root or vid not in tree:
                continue
            v = tree.node(vid)
            if v.detour > tol:
                continue  # snaked edges encode deliberate delay
            move = _best_attachment(tree, pl, vid, tol)
            if move is None:
                continue
            edge_child, q, gain, new_pl = move
            parent_of_edge = tree.node(edge_child).parent
            split = _split_edge(tree, edge_child, q, tol)
            tree.reparent(vid, split)
            if split not in pl:
                pl[split] = pl[parent_of_edge] + tree.edge_length(split)
            # only v's subtree shifts (by a non-positive delta)
            delta = new_pl - pl[vid]
            stack = [vid]
            while stack:
                nid = stack.pop()
                pl[nid] += delta
                stack.extend(tree.node(nid).children)
            total_gain += gain
            improved = True
    return total_gain


def _best_attachment(
    tree: RoutedTree, pl: dict[int, float], vid: int, tol: float
) -> tuple[int, Point, float, float] | None:
    v = tree.node(vid)
    vx, vy = v.location.x, v.location.y
    current_cost = tree.edge_length(vid)
    blocked = _subtree_of(tree, vid)
    best = None
    best_gain = tol
    for cid in tree.node_ids():
        child = tree.node(cid)
        if child.parent is None or cid in blocked or child.detour > tol:
            continue
        if child.parent in blocked:
            continue
        p = tree.node(child.parent)
        # cheap reject: distance from v to the edge's bounding box lower-
        # bounds the distance to any L-route of the edge
        px, py = p.location.x, p.location.y
        cx, cy = child.location.x, child.location.y
        x1, x2 = (px, cx) if px <= cx else (cx, px)
        y1, y2 = (py, cy) if py <= cy else (cy, py)
        lb = max(x1 - vx, vx - x2, 0.0) + max(y1 - vy, vy - y2, 0.0)
        if current_cost - lb <= best_gain:
            continue
        q, walk = _nearest_on_l(p.location, child.location, v.location)
        d = manhattan(q, v.location)
        gain = current_cost - d
        if gain <= best_gain:
            continue
        new_pl = pl[child.parent] + walk + d
        if new_pl > pl[vid] + tol:
            continue  # would lengthen v's path: unsafe for shallowness
        best = (cid, q, gain, new_pl)
        best_gain = gain
    return best


def _subtree_of(tree: RoutedTree, vid: int) -> set[int]:
    seen = {vid}
    stack = [vid]
    while stack:
        nid = stack.pop()
        for c in tree.node(nid).children:
            seen.add(c)
            stack.append(c)
    return seen


def _nearest_on_l(a: Point, b: Point, target: Point) -> tuple[Point, float]:
    """Closest point to ``target`` on either L-route a -> b.

    Returns (point, walk distance from a to that point along the route).
    """
    best_q = a
    best_d = manhattan(a, target)
    best_walk = 0.0
    for corner in (Point(a.x, b.y), Point(b.x, a.y)):
        for seg_a, seg_b, walk0 in (
            (a, corner, 0.0),
            (corner, b, manhattan(a, corner)),
        ):
            qx = min(max(target.x, min(seg_a.x, seg_b.x)), max(seg_a.x, seg_b.x))
            qy = min(max(target.y, min(seg_a.y, seg_b.y)), max(seg_a.y, seg_b.y))
            q = Point(qx, qy)
            d = manhattan(q, target)
            if d < best_d - 1e-12:
                best_d = d
                best_q = q
                best_walk = walk0 + manhattan(seg_a, q)
    return best_q, best_walk


def _split_edge(tree: RoutedTree, child_id: int, q: Point, tol: float) -> int:
    """Insert a Steiner node at q on the edge parent(child) -> child.

    q must lie on a monotone (shortest) route between the endpoints, so
    the child's path length is unchanged.  Returns the new node's id (or
    an existing endpoint when q coincides with it).
    """
    child = tree.node(child_id)
    parent_id = child.parent
    assert parent_id is not None
    parent = tree.node(parent_id)
    if manhattan(q, parent.location) <= tol:
        return parent_id
    if manhattan(q, child.location) <= tol:
        return child_id
    split = tree.add_child(parent_id, q)
    tree.reparent(child_id, split)
    return split

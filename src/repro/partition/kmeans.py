"""Balanced K-means for clock-node clustering (paper Section 3.2).

``kmeans`` is a deterministic numpy Lloyd's algorithm with k-means++
seeding; ``balanced_kmeans`` caps cluster sizes (the fanout constraint) by
re-assigning points through :func:`repro.partition.mcf.balanced_assign`,
following Han et al.'s K-means + min-cost-flow recipe the paper builds on:
the capacitated re-assignment is that recipe's transportation problem,
solved exactly by LSA up to a size limit and by regret-greedy beyond.
"""

from __future__ import annotations

import math

import numpy as np

from repro.geometry import Point
from repro.partition.mcf import balanced_assign

#: Upper bound on the elements of any point x center distance block.
#: Lloyd iterations chunk the point rows so peak memory stays ~tens of
#: MB no matter how large n * k grows (100k sinks x 3k+ centers would
#: otherwise materialise multi-GB matrices per iteration).
_CHUNK_ELEMS = 4_000_000


def _nearest_center_labels(coords: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Row-chunked argmin over Manhattan distances to ``centers``.

    Chunking over point rows is result-invariant: each row's argmin is
    independent, so the labels are bitwise identical to the one-shot
    n x k matrix evaluation.
    """
    n, k = len(coords), len(centers)
    labels = np.empty(n, dtype=np.int64)
    step = max(1, _CHUNK_ELEMS // max(k, 1))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        d = (
            np.abs(coords[lo:hi, None, 0] - centers[None, :, 0])
            + np.abs(coords[lo:hi, None, 1] - centers[None, :, 1])
        )
        labels[lo:hi] = np.argmin(d, axis=1)
    return labels


def _group_medians(
    coords: np.ndarray, labels: np.ndarray, centers: np.ndarray
) -> np.ndarray:
    """Coordinate-wise median of each label group; empty groups keep
    their previous center.

    One stable argsort groups all members, so the whole recenter step is
    O(n log n) instead of the O(n * k) of masking per cluster.  Each
    group's median sees the same member multiset as ``coords[labels == j]``
    would, hence the same value bit for bit.
    """
    k = len(centers)
    out = centers.copy()
    order = np.argsort(labels, kind="stable")
    bounds = np.searchsorted(labels[order], np.arange(k + 1))
    for j in range(k):
        lo, hi = bounds[j], bounds[j + 1]
        if hi > lo:
            out[j] = np.median(coords[order[lo:hi]], axis=0)
    return out


def kmeans(
    points: list[Point],
    k: int,
    max_iters: int = 50,
    seed: int = 0,
) -> tuple[list[Point], list[int]]:
    """Plain K-means (Manhattan-flavoured: medians as centers).

    Returns (centers, label per point).  Deterministic for a given seed.
    """
    n = len(points)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n == 0:
        raise ValueError("kmeans() requires at least one point")
    k = min(k, n)
    coords = np.array([[p.x, p.y] for p in points])
    centers = _kmeans_pp_init(coords, k, seed)

    labels = np.zeros(n, dtype=np.int64)
    for _ in range(max_iters):
        new_labels = _nearest_center_labels(coords, centers)
        if np.array_equal(new_labels, labels) and _ > 0:
            break
        labels = new_labels
        # the L1 centroid is the coordinate-wise median
        centers = _group_medians(coords, labels, centers)
    return [Point(float(c[0]), float(c[1])) for c in centers], [int(l) for l in labels]


def _kmeans_pp_init(coords: np.ndarray, k: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    n = len(coords)
    centers = np.empty((k, 2))
    centers[0] = coords[rng.integers(n)]
    closest = np.abs(coords - centers[0]).sum(axis=1)
    for j in range(1, k):
        weights = closest * closest
        total = weights.sum()
        if total <= 0:
            centers[j] = coords[rng.integers(n)]
        else:
            centers[j] = coords[rng.choice(n, p=weights / total)]
        closest = np.minimum(closest, np.abs(coords - centers[j]).sum(axis=1))
    return centers


def balanced_kmeans(
    points: list[Point],
    max_size: int,
    seed: int = 0,
    slack: float = 1.0,
) -> tuple[list[Point], list[int]]:
    """K-means whose clusters never exceed ``max_size`` members.

    The cluster count is ceil(n / (max_size * utilisation)); after Lloyd
    converges, points are re-assigned under capacity by
    :func:`~repro.partition.mcf.balanced_assign` (exact LSA, or its
    documented regret-greedy heuristic at scale).  ``slack`` < 1 leaves
    headroom in each cluster (useful before SA refinement moves nodes).
    """
    if max_size < 1:
        raise ValueError(f"max_size must be >= 1, got {max_size}")
    if not 0 < slack <= 1:
        raise ValueError(f"slack must be in (0, 1], got {slack}")
    n = len(points)
    target = max(1, int(max_size * slack))
    k = max(1, math.ceil(n / target))
    centers, labels = kmeans(points, k, seed=seed)

    counts = np.bincount(labels, minlength=k)
    if counts.max() <= max_size:
        return centers, labels
    assignment = balanced_assign(points, centers, capacity=max_size)
    # recentre once after rebalancing to keep centers honest
    coords = np.array([[p.x, p.y] for p in points])
    old = np.array([[c.x, c.y] for c in centers])
    med = _group_medians(coords, np.array(assignment), old)
    return [Point(float(c[0]), float(c[1])) for c in med], assignment

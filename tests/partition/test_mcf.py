"""Tests for balanced (capacitated) assignment."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from repro.geometry import Point, manhattan
from repro.obs.metrics import METRICS
from repro.partition import balanced_assign, mcf


def assignment_cost(points, centers, assignment):
    return sum(manhattan(p, centers[a]) for p, a in zip(points, assignment))


def brute_force_assignment_cost(points, centers, capacity):
    """Optimal balanced assignment by exhaustive search (tiny instances)."""
    n, k = len(points), len(centers)
    best = float("inf")
    for combo in itertools.product(range(k), repeat=n):
        counts = [0] * k
        for c in combo:
            counts[c] += 1
        if max(counts) > capacity:
            continue
        cost = sum(manhattan(points[i], centers[combo[i]]) for i in range(n))
        best = min(best, cost)
    return best


def transportation_lp_cost(points, centers, capacity):
    """Optimum of the transportation LP: each point sends one unit, each
    center receives at most ``capacity``.  Its constraint matrix is
    totally unimodular, so the LP optimum is the integer optimum."""
    n, k = len(points), len(centers)
    cost = np.array([[manhattan(p, c) for c in centers] for p in points])
    a_eq = np.kron(np.eye(n), np.ones(k))      # row i: sum_j x_ij == 1
    a_ub = np.kron(np.ones(n), np.eye(k))      # row j: sum_i x_ij <= cap
    res = linprog(cost.ravel(), A_ub=a_ub, b_ub=np.full(k, capacity),
                  A_eq=a_eq, b_eq=np.ones(n), bounds=(0, None),
                  method="highs")
    assert res.status == 0, res.message
    return res.fun


def random_instance(rng, n, k, side=100.0):
    points = [Point(rng.uniform(0, side), rng.uniform(0, side))
              for _ in range(n)]
    centers = [Point(rng.uniform(0, side), rng.uniform(0, side))
               for _ in range(k)]
    return points, centers


@given(st.integers(min_value=1, max_value=6),
       st.integers(min_value=2, max_value=6),
       st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25, deadline=None)
def test_balanced_assign_matches_bruteforce(n, k, seed):
    rng = random.Random(seed)
    points, centers = random_instance(rng, n, k, side=20.0)
    capacity = max(1, (n + k - 1) // k)
    assignment = balanced_assign(points, centers, capacity)
    counts = [assignment.count(j) for j in range(k)]
    assert max(counts) <= capacity
    assert assignment_cost(points, centers, assignment) == pytest.approx(
        brute_force_assignment_cost(points, centers, capacity), abs=1e-6
    )


@pytest.mark.parametrize("n,k,seed", [
    (100, 10, 0), (160, 16, 1), (250, 25, 2), (313, 10, 3),
    (313, 20, 4), (313, 40, 5), (400, 40, 6),
])
def test_balanced_assign_matches_lp_optimum(n, k, seed):
    # tight capacity: every center is (nearly) full, so the nearest few
    # centers of many points are already taken
    rng = random.Random(seed)
    points, centers = random_instance(rng, n, k)
    capacity = -(-n // k)
    assignment = balanced_assign(points, centers, capacity)
    assert max(assignment.count(j) for j in range(k)) <= capacity
    cost = assignment_cost(points, centers, assignment)
    assert cost == pytest.approx(
        transportation_lp_cost(points, centers, capacity), rel=1e-9
    )


def test_balanced_assign_huge_capacity_takes_lsa_tier():
    # columns are duplicated min(capacity, n) times: a 50 x 150 matrix,
    # not 50 x 3,000,000 (which would exceed the LSA limit)
    rng = random.Random(4)
    points, centers = random_instance(rng, 50, 3)
    lsa = METRICS.counter("partition.assign_lsa")
    greedy = METRICS.counter("partition.assign_regret_greedy")
    assignment = balanced_assign(points, centers, capacity=10**6)
    assert METRICS.counter("partition.assign_lsa") == lsa + 1
    assert METRICS.counter("partition.assign_regret_greedy") == greedy
    # capacity never binds, so the optimum is every point's nearest center
    nearest = sum(min(manhattan(p, c) for c in centers) for p in points)
    assert assignment_cost(points, centers, assignment) == pytest.approx(
        nearest, rel=1e-12
    )


def test_balanced_assign_respects_capacity_at_scale():
    rng = random.Random(1)
    points = [Point(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(300)]
    centers = [Point(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(12)]
    assignment = balanced_assign(points, centers, capacity=25)
    counts = [assignment.count(j) for j in range(12)]
    assert max(counts) <= 25
    assert sum(counts) == 300


def test_balanced_assign_greedy_fallback(monkeypatch):
    # the LSA tier out of reach: only the regret-greedy tier applies
    monkeypatch.setattr(mcf, "_LSA_LIMIT", 0)
    rng = random.Random(2)
    points = [Point(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(200)]
    centers = [Point(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(10)]
    before = METRICS.counter("partition.assign_regret_greedy")
    assignment = balanced_assign(points, centers, capacity=20)
    assert METRICS.counter("partition.assign_regret_greedy") == before + 1
    counts = [assignment.count(j) for j in range(10)]
    assert max(counts) <= 20 and sum(counts) == 200


def test_balanced_assign_infeasible():
    with pytest.raises(ValueError):
        balanced_assign([Point(0, 0)] * 5, [Point(0, 0)], capacity=4)


def test_balanced_assign_empty():
    assert balanced_assign([], [Point(0, 0)], capacity=1) == []

"""The resilience ladder of ``WorkPool``: deadline -> retry -> resurrect
-> quarantine -> in-process.

Each rung is exercised with real worker processes and real failures
(``os._exit``, hangs, unpicklable payloads) — no mocks — and every test
checks the two fabric invariants: completed work is correct, and the
pool never leaks worker processes past ``shutdown()``.  A task that
falls off the ladder is handed to the caller's ``inline`` fallback;
:func:`fell_back` returns its ``(code, detail)`` so each test can see
where every task ended up.
"""

import multiprocessing
import os
import time

from repro.cts import FlowConfig, HierarchicalCTS
from repro.cts.evaluation import evaluate_result
from repro.geometry import Point
from repro.obs import METRICS, TRACER, capture
from repro.parallel import WorkPool
from repro.perf import make_uniform_sinks
from repro.resilience import FabricChaos, FabricPolicy
from repro.tech import Technology


# -- module-level task functions (must pickle into workers) -------------
def square(x):
    return x * x


def poison_three(x):
    """Kill the worker on payload 3; compute normally otherwise.

    The poison task waits before dying so its co-runners have finished:
    no innocent task is mid-execution when the pool breaks.
    """
    if x == 3:
        time.sleep(0.2)
        os._exit(1)
    return x * x


def kill_all(x):
    os._exit(1)


def hang_in_worker(task):
    """Sleep forever in a worker; return instantly in the parent.

    The parent pid rides in the payload so the in-process fallback
    (same function, same payload) completes immediately.
    """
    value, parent_pid = task
    if os.getpid() != parent_pid:
        time.sleep(60)
    return value * value


def fell_back(task, failure):
    """The caller's in-process fallback: reports why the task fell."""
    return tuple(failure)


def _assert_no_orphans():
    deadline = time.monotonic() + 5.0
    while multiprocessing.active_children():
        assert time.monotonic() < deadline, (
            f"orphaned workers: {multiprocessing.active_children()}"
        )
        time.sleep(0.05)


# ----------------------------------------------------------------------
# Happy path and shutdown hygiene
# ----------------------------------------------------------------------
def test_plain_map_round_trips():
    with WorkPool(2) as pool:
        assert pool.map(square, [1, 2, 3, 4], fell_back) == [1, 4, 9, 16]
        assert pool.health.healthy
    _assert_no_orphans()


def test_shutdown_reaps_workers_even_after_a_kill():
    pool = WorkPool(2, policy=FabricPolicy(pool_rebuilds=0))
    pool.map(kill_all, [1, 2], fell_back)
    pool.shutdown()
    _assert_no_orphans()


# ----------------------------------------------------------------------
# Pool breaks: blame, isolation, resurrection, quarantine
# ----------------------------------------------------------------------
def test_poison_task_is_quarantined_and_innocents_survive():
    with WorkPool(2, policy=FabricPolicy(pool_rebuilds=3)) as pool:
        results = pool.map(poison_three, [1, 2, 3, 4], fell_back)
    # the poison task degrades to the caller; every innocent completes
    assert results[2][0] == "quarantine"
    assert [results[0], results[1], results[3]] == [1, 4, 16]
    assert pool.health.quarantines == 1
    assert pool.health.resurrections >= 1
    assert not pool.health.healthy
    _assert_no_orphans()


def test_quarantine_persists_across_map_calls(monkeypatch):
    monkeypatch.setattr("repro.parallel.QUARANTINE_AFTER", 1)
    with WorkPool(2, policy=FabricPolicy(pool_rebuilds=3)) as pool:
        first = pool.map(poison_three, [1, 2, 3, 4], fell_back)
        second = pool.map(poison_three, [1, 2, 3, 4], fell_back)
    assert first[2][0] == "quarantine"
    assert second == [
        1, 4, ("quarantine", "task is quarantined; running in-process"), 16
    ]
    assert pool.health.quarantines == 1  # convicted exactly once
    # the second call never re-submits the poison task, so the one
    # break it caused is the only break of the run: at most one
    # rebuild ever happens (possibly lazily, at the second call)
    assert pool.health.resurrections <= 1
    _assert_no_orphans()


def test_rebuild_budget_exhaustion_degrades_everything():
    with WorkPool(2, policy=FabricPolicy(pool_rebuilds=0)) as pool:
        results = pool.map(kill_all, [1, 2, 3, 4], fell_back)
    assert pool.health.count("pool_lost") == 1
    assert pool.health.degraded_tasks == 4
    assert all(code in ("pool_lost", "fault") for code, _ in results)
    _assert_no_orphans()


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------
def test_hung_workers_are_deadline_bounded():
    tasks = [(v, os.getpid()) for v in (3, 5)]
    start = time.monotonic()
    with WorkPool(
        2, policy=FabricPolicy(task_timeout=1.0, pool_rebuilds=3)
    ) as pool:
        # the caller's fallback reruns the same fn on the same payload
        results = pool.map(
            hang_in_worker, tasks,
            lambda task, failure: (hang_in_worker(task), failure[0]),
        )
    elapsed = time.monotonic() - start
    # without the deadline this would sit for 60s per hang; each expiry
    # kills the workers, so the stall is bounded by the budget per task
    assert elapsed < 30.0
    assert results == [(9, "timeout"), (25, "timeout")]
    assert pool.health.timeouts >= 1
    _assert_no_orphans()


# ----------------------------------------------------------------------
# Chaos-driven rungs
# ----------------------------------------------------------------------
def test_corrupt_chaos_is_retried_transparently():
    chaos = FabricChaos(1.0, seed=0, modes=("corrupt",))
    with WorkPool(2, chaos=chaos) as pool:
        results = pool.map(square, [2, 3, 4], fell_back)
    # every submission corrupts once; the retry resubmits clean
    assert results == [4, 9, 16]
    assert chaos.injected == 3
    assert pool.health.retries == 3
    assert pool.health.quarantines == 0
    _assert_no_orphans()


def test_kill_chaos_resurrects_without_quarantining():
    chaos = FabricChaos(1.0, seed=0, modes=("kill",))
    with WorkPool(
        2, chaos=chaos, policy=FabricPolicy(pool_rebuilds=4)
    ) as pool:
        results = pool.map(square, [2, 3, 4, 5], fell_back)
    # chaos fires once per task (the retry runs clean), so the run
    # converges with correct results and no task blamed as poison
    assert results == [4, 9, 16, 25]
    assert pool.health.resurrections >= 1
    assert pool.health.quarantines == 0
    _assert_no_orphans()


def test_exhausted_corrupt_retries_degrade_as_fault():
    chaos = FabricChaos(1.0, seed=0, modes=("corrupt",))
    with WorkPool(2, chaos=chaos,
                  policy=FabricPolicy(task_retries=0)) as pool:
        results = pool.map(square, [7], fell_back)
    # with a zero retry budget the corrupt submission degrades straight
    # to the caller instead of looping
    [(code, detail)] = results
    assert code == "fault"
    assert "submission kept failing" in detail
    _assert_no_orphans()


# ----------------------------------------------------------------------
# Flow-level: chaos runs stay byte-identical to fault-free serial
# ----------------------------------------------------------------------
def _flow_quality(result, tech):
    rep = evaluate_result(result, tech)
    return (rep.clock_wl_um, rep.skew_ps, rep.num_buffers, rep.latency_ps)


def test_chaotic_flow_matches_fault_free_serial():
    tech = Technology()
    sinks, side = make_uniform_sinks(200, 0)
    source = Point(side / 2, side / 2)

    serial_engine = HierarchicalCTS(
        tech=tech, config=FlowConfig(sa_iterations=30, jobs=1)
    )
    serial = serial_engine.run(list(sinks), source)

    chaos = FabricChaos(0.5, seed=2, delay_s=0.01)
    chaotic_engine = HierarchicalCTS(
        tech=tech,
        config=FlowConfig(sa_iterations=30, jobs=2, pool_rebuilds=4),
        fabric_chaos=chaos,
    )
    chaotic = chaotic_engine.run(list(sinks), source)

    assert chaos.injected > 0, "chaos never fired; test is vacuous"
    assert _flow_quality(serial, tech) == _flow_quality(chaotic, tech)
    assert serial.levels == chaotic.levels
    assert serial.top_buffers == chaotic.top_buffers
    # fabric incidents land in RunHealth, never in the result payload
    assert serial.health is not None and serial.health.healthy
    assert chaotic.health is not None
    _assert_no_orphans()


def _without_fabric(snapshot: dict) -> dict:
    return {section: {k: v for k, v in values.items()
                      if not k.startswith("fabric.")}
            for section, values in snapshot.items()}


def test_fallback_flow_keeps_serial_metrics():
    """Deadline expiries mix in-process fallbacks with worker results;
    folding both in cluster order must reproduce the serial registry
    and the serial order of cluster spans."""
    tech = Technology()
    sinks, side = make_uniform_sinks(300, 1)
    source = Point(side / 2, side / 2)

    def traced_run(config, chaos=None):
        METRICS.reset()
        with capture(TRACER):
            result = HierarchicalCTS(
                tech=tech, config=config, fabric_chaos=chaos
            ).run(list(sinks), source)
            nets = [s.attrs["net"] for root in TRACER.roots
                    for s in root.walk() if s.name == "cluster"]
        return result, METRICS.as_dict(precision=None), nets

    _, serial, serial_nets = traced_run(
        FlowConfig(sa_iterations=30, jobs=1))
    chaotic, mixed, mixed_nets = traced_run(
        FlowConfig(sa_iterations=30, jobs=2, task_timeout=0.5,
                   pool_rebuilds=8),
        FabricChaos(0.3, seed=1, delay_s=2.0, modes=("delay",)),
    )

    assert chaotic.health.timeouts >= 1, "no task fell back; vacuous"
    assert _without_fabric(mixed) == _without_fabric(serial)
    assert mixed_nets == serial_nets
    _assert_no_orphans()

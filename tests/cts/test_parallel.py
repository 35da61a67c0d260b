"""Serial/parallel equivalence and degradation of ``repro.parallel``.

The contract under test (docs/PARALLELISM.md): for a fixed seed, a flow
at ``jobs=N`` must produce byte-identical quality (wirelength, skew,
buffer count, latency), identical per-level stats, an identical
diagnostics event multiset and an identical metrics snapshot to the
serial ``jobs=1`` flow — and a failing worker degrades per cluster
instead of aborting the run.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cts import FlowConfig, HierarchicalCTS
from repro.cts.evaluation import evaluate_result
from repro.cts.framework import ClusterTask
from repro.geometry import Point
from repro.obs import METRICS, TRACER, capture
from repro.parallel import WorkPool, resolve_jobs
from repro.perf import make_uniform_sinks
from repro.tech import Technology


def run_flow(n, seed=0, jobs=1, sa_iterations=50):
    tech = Technology()
    sinks, side = make_uniform_sinks(n, seed)
    engine = HierarchicalCTS(
        tech=tech,
        config=FlowConfig(sa_iterations=sa_iterations, jobs=jobs),
    )
    result = engine.run(sinks, Point(side / 2, side / 2))
    return result, tech


def quality(result, tech):
    rep = evaluate_result(result, tech)
    return (rep.clock_wl_um, rep.skew_ps, rep.num_buffers, rep.latency_ps)


def event_multiset(result):
    return sorted(
        (e.stage, e.kind, e.level, e.net, e.detail)
        for e in result.diagnostics.events
    )


# ----------------------------------------------------------------------
# Equivalence: jobs=1 vs jobs=4
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n,seed", [(200, 0), (500, 3), (1000, 1)])
def test_parallel_matches_serial_byte_for_byte(n, seed):
    serial, tech = run_flow(n, seed, jobs=1)
    parallel, _ = run_flow(n, seed, jobs=4)
    assert quality(serial, tech) == quality(parallel, tech)
    assert event_multiset(serial) == event_multiset(parallel)
    assert serial.levels == parallel.levels
    assert serial.top_buffers == parallel.top_buffers
    assert sorted(s.name for s in serial.tree.sinks()) == \
        sorted(s.name for s in parallel.tree.sinks())


def test_parallel_metrics_snapshot_matches_serial():
    tech = Technology()
    sinks, side = make_uniform_sinks(300, 0)
    source = Point(side / 2, side / 2)
    snapshots = []
    for jobs in (1, 4):
        engine = HierarchicalCTS(
            tech=tech, config=FlowConfig(sa_iterations=50, jobs=jobs)
        )
        METRICS.reset()
        engine.run(list(sinks), source)
        snapshots.append(METRICS.as_dict(precision=None))
    assert snapshots[0] == snapshots[1]


@settings(max_examples=5, deadline=None)
@given(n=st.integers(min_value=40, max_value=140),
       seed=st.integers(min_value=0, max_value=3))
def test_equivalence_property(n, seed):
    serial, tech = run_flow(n, seed, jobs=1, sa_iterations=30)
    parallel, _ = run_flow(n, seed, jobs=3, sa_iterations=30)
    assert quality(serial, tech) == quality(parallel, tech)
    assert event_multiset(serial) == event_multiset(parallel)
    assert serial.levels == parallel.levels


# ----------------------------------------------------------------------
# Observability transport
# ----------------------------------------------------------------------
def test_worker_spans_adopted_under_level_span():
    tech = Technology()
    sinks, side = make_uniform_sinks(300, 0)
    engine = HierarchicalCTS(
        tech=tech, config=FlowConfig(sa_iterations=50, jobs=4)
    )
    with capture(TRACER):
        engine.run(sinks, Point(side / 2, side / 2))
        roots = list(TRACER.roots)
    assert len(roots) == 1  # one flow span; workers did not add roots
    clusters = [s for s in roots[0].walk() if s.name == "cluster"]
    assert clusters, "cluster spans missing from the parallel trace"
    for span in clusters:
        assert span.attrs.get("worker"), span.attrs
        assert span.tid == span.attrs["worker"]
    # adopted spans hang under their level span, keeping the span tree
    # one connected hierarchy per run
    levels = [s for s in roots[0].walk() if s.name == "level"]
    adopted = [c for lvl in levels for c in lvl.children
               if c.name == "cluster"]
    assert sorted(id(s) for s in adopted) == sorted(id(s) for s in clusters)
    # worker spans keep their inner structure (route/buffer/check/...)
    assert all(any(c.name == "route" for c in s.children)
               for s in clusters)


# ----------------------------------------------------------------------
# Degradation
# ----------------------------------------------------------------------
def test_dead_pool_degrades_to_serial_with_fault_events(monkeypatch):
    # no usable pool: every task falls back to the in-process path
    monkeypatch.setattr(WorkPool, "_ensure_executor", lambda self: None)
    serial, tech = run_flow(200, 0, jobs=1)
    degraded, _ = run_flow(200, 0, jobs=2)
    assert quality(serial, tech) == quality(degraded, tech)
    faults = degraded.diagnostics.events_of("fault")
    assert faults and all(
        "parallel worker failed" in e.detail for e in faults
    )
    assert serial.diagnostics.count("fault") == 0


def test_jobs_zero_resolves_to_cpu_count():
    assert resolve_jobs(1) == 1
    assert resolve_jobs(7) == 7
    assert resolve_jobs(0) >= 1
    assert resolve_jobs(-2) >= 1
    result, tech = run_flow(200, 0, jobs=0)  # auto: still completes
    serial, _ = run_flow(200, 0, jobs=1)
    assert quality(result, tech) == quality(serial, tech)


def test_cluster_task_is_picklable():
    sinks, _side = make_uniform_sinks(5, 0)
    task = ClusterTask(name="L0_c2", level=0, sinks=tuple(sinks))
    clone = pickle.loads(pickle.dumps(task))
    assert clone == task

"""Span recording around the program's layer entry points.

The benchmark does not edit the program: :func:`install` swaps the
public functions and methods named in :data:`TARGETS` for thin wrappers
that open a span (name, start, end, parent, thread) in a process-local
:class:`SpanLog`.  Spans stay in memory and are written out once, when
the run ends.

Each outermost span of a name also folds its duration and a call count
into the program's own ``METRICS`` registry under ``perfbench.*``.  The
program already carries that registry across process boundaries (sweep
workers ship it home, ``repro serve`` exposes it on ``/metrics``), so
per-layer totals arrive from wherever the work ran.

Only ``install`` imports ``repro``; the span arithmetic is standalone.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from contextlib import contextmanager

#: Prefix of every registry entry the wrappers write.
PREFIX = "perfbench."

#: The program's registry, once :func:`install` has run in this process.
_METRICS: list = [None]


class SpanLog:
    """In-memory span store: (id, name, parent, start, end, tid)."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        outermost = all(s["name"] != name for s in stack)
        rec = {"name": name,
               "parent": stack[-1]["id"] if stack else None,
               "tid": threading.get_ident(),
               "start": time.perf_counter(), "end": None}
        with self._lock:
            rec["id"] = len(self.spans)
            self.spans.append(rec)
        stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()
            _fold(name, rec["end"] - rec["start"], outermost)


def _fold(name: str, seconds: float, outermost: bool) -> None:
    metrics = _METRICS[0]
    if metrics is None:
        return
    metrics.inc(f"{PREFIX}{name}.n")
    if outermost:   # recursion or same-layer nesting counts once
        metrics.inc(f"{PREFIX}{name}.s", seconds)


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part its children cover.

    Children may overlap each other (work on other threads adopted
    under one parent); the union is subtracted, never the sum.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"])
        - covered(children.get(s["id"], ()), s["start"], s["end"])
        for s in spans
    }


def by_name(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds (outermost only), self
    seconds, and the per-call durations."""
    selfs = self_times(spans)
    ids = {s["id"]: s for s in spans}
    out: dict[str, dict] = {}
    for s in spans:
        row = out.setdefault(s["name"], {"calls": 0, "incl_s": 0.0,
                                         "self_s": 0.0, "durations": []})
        dur = s["end"] - s["start"]
        row["calls"] += 1
        row["self_s"] += selfs[s["id"]]
        row["durations"].append(dur)
        parent, nested = s["parent"], False
        while parent is not None:
            if ids[parent]["name"] == s["name"]:
                nested = True
                break
            parent = ids[parent]["parent"]
        if not nested:
            row["incl_s"] += dur
    return out


# ----------------------------------------------------------------------
# Wrapping the program's entry points
# ----------------------------------------------------------------------
#: (module, attribute or Class.method, span name).
TARGETS = (
    ("repro.cts.framework", "HierarchicalCTS.run", "flow.run"),
    ("repro.partition.kmeans", "balanced_kmeans", "partition.kmeans"),
    ("repro.partition.mcf", "balanced_assign", "partition.assign"),
    ("repro.partition.annealing", "anneal_partition", "partition.anneal"),
    ("repro.flowguard.fallback", "RouterFallbackChain.route", "route.net"),
    ("repro.core.cbs", "cbs", "route.cbs"),
    ("repro.salt.refine", "refine", "salt.refine"),
    ("repro.dme.dme", "bst_dme", "dme.bst"),
    ("repro.timing.elmore", "ElmoreAnalyzer.analyze", "timing.analyze"),
    ("repro.buffering.insertion", "split_long_edges", "buffering.split"),
    ("repro.buffering.insertion", "place_driver", "buffering.driver"),
    ("repro.flowguard.checker", "check_tree", "check.tree"),
    ("repro.flowguard.checker", "check_and_repair", "check.repair"),
    ("repro.sweep.store", "SweepStore.get", "store.get"),
    ("repro.sweep.store", "SweepStore.put", "store.put"),
    ("repro.sweep.runner", "run_sweep", "sweep.run"),
    ("repro.sweep.pareto", "pareto_front", "pareto.front"),
    ("repro.predict.features", "extract_dataset", "predict.features"),
    ("repro.predict.model", "fit", "predict.fit"),
    ("repro.predict.suggest", "suggest_next_round", "predict.suggest"),
)


def _after_flow(result) -> None:
    level0 = result.levels[0] if result.levels else None
    if level0 is not None:
        _METRICS[0].inc(f"{PREFIX}flow.l0_clusters", level0.num_clusters)
        _METRICS[0].observe(f"{PREFIX}flow.l0_max_cluster",
                            level0.max_net_fanout)


def _after_check(violations) -> None:
    _METRICS[0].inc(f"{PREFIX}check.violations_found", len(violations))


_AFTER = {"flow.run": _after_flow, "check.tree": _after_check}


def _wrapper(fn, name: str, log: SpanLog):
    after = _AFTER.get(name)

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        with log.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(result)
        return result

    return wrapped


def install(log: SpanLog) -> None:
    """Wrap every target (idempotent per process).

    A module-level function is replaced in every loaded ``repro``
    module that bound it by ``from ... import``, so call sites see the
    wrapper no matter how they imported it.  Stage times come from
    wrapping ``FlowDiagnostics.timed``; flow events are counted by
    kind from ``FlowDiagnostics.record``.
    """
    from repro.flowguard.diagnostics import FlowDiagnostics
    from repro.obs.metrics import METRICS

    if getattr(FlowDiagnostics.timed, "__perfbench_original__", None):
        return
    _METRICS[0] = METRICS
    for module_name, attr, span_name in TARGETS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, _wrapper(getattr(cls, meth), span_name, log))
            continue
        original = getattr(module, attr)
        wrapped = _wrapper(original, span_name, log)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro") and \
                    getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)

    timed, record = FlowDiagnostics.timed, FlowDiagnostics.record

    @contextmanager
    def timed_span(self, stage, **attrs):
        with log.span(f"stage.{stage}"), timed(self, stage, **attrs):
            yield self

    def counted_record(self, stage, kind, **kwargs):
        METRICS.inc(f"{PREFIX}event.{stage}.{kind}")
        return record(self, stage, kind, **kwargs)

    timed_span.__perfbench_original__ = timed
    FlowDiagnostics.timed = timed_span
    FlowDiagnostics.record = counted_record


# ----------------------------------------------------------------------
# Registry snapshot -> per-layer metrics
# ----------------------------------------------------------------------
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(snapshot: dict) -> dict[str, float]:
    """The per-layer metrics every workload reports, computed from a
    ``METRICS.as_dict()`` snapshot of the process(es) that did the work
    (after :func:`install`).  Seconds are outermost-span totals."""
    c = snapshot.get("counters", {})
    h = snapshot.get("histograms", {})

    def n(name: str) -> float:
        return float(c.get(name, 0))

    def s(span: str) -> float:
        return n(f"{PREFIX}{span}.s")

    def calls(span: str) -> float:
        return n(f"{PREFIX}{span}.n")

    flows = calls("flow.run")
    return {
        "partition.busy_s": s("stage.partition"),
        "partition.assign_s": s("partition.assign"),
        "partition.kmeans_calls": calls("partition.kmeans"),
        "partition.l0_clusters": _ratio(n(f"{PREFIX}flow.l0_clusters"), flows),
        "partition.l0_max_cluster": float(
            h.get(f"{PREFIX}flow.l0_max_cluster", {}).get("max", 0)),
        "partition.assign_tier.lsa": n("partition.assign_lsa"),
        "partition.assign_tier.mcf": n("partition.assign_mcf"),
        "partition.assign_tier.regret_greedy":
            n("partition.assign_regret_greedy"),
        "partition.anneal_s": s("partition.anneal"),
        "partition.sa_accept_ratio": _ratio(
            n("partition.sa_moves_accepted"),
            n("partition.sa_moves_proposed")),
        "route.busy_s": s("stage.route"),
        "route.nets": calls("route.net"),
        "flowguard.route_fallbacks": n(f"{PREFIX}event.route.retry")
        + n(f"{PREFIX}event.route.downgrade"),
        "salt.refine_s": s("salt.refine"),
        "salt.batch.evals": n("salt.batch.evals"),
        "salt.move_yield": _ratio(n("salt.reattach_moves"),
                                  n("salt.batch.evals")),
        "dme.s": s("dme.bst"),
        "dme.merges": n("dme.merges"),
        "timing.analyze_s": s("timing.analyze"),
        "timing.batch.nodes": n("timing.batch.nodes"),
        "buffering.s": s("stage.buffer"),
        "buffering.drivers": n("buffer.drivers"),
        "check.busy_s": s("stage.check"),
        "check.violations_found": n(f"{PREFIX}check.violations_found"),
        "check.repairs": n(f"{PREFIX}event.check.repair"),
        "store.gets": calls("store.get"),
        "store.puts": calls("store.put"),
        "fabric.retries": n("fabric.task.retry"),
        "fabric.timeouts": n("fabric.task.timeout"),
        "fabric.rebuilds": n("fabric.pool.resurrected"),
        "serve.flow_executed": n("serve.flow.executed"),
        "serve.coalesced": n("serve.flight.coalesced"),
        "serve.rejected": n("serve.admit.rejected"),
    }

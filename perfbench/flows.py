"""flow-ethernet-10k: serial hierarchical CTS runs.

Each run routes the Table-4 ``ethernet`` placement (the catalog's own
generator seed) at full scale with the default ``FlowConfig`` and
checks every tree.  The first flow drives the tree from the catalog
clock source, as sweeps and served requests do; the run's tree quality
is that tree's, so it is a pure function of the code, the same on every
seed and whatever the host's speed.  Further flows, from clock-source
locations drawn from the workload seed, run while the next one is
expected to end within the measuring time (at least MIN_FLOWS flows in
all) and feed the timing metrics only.

The sink placement is deliberately not re-drawn per seed: how long the
level-0 assignment takes depends on the placement (at scale 0.4 the
exact-LSA solve took 6-13 s over five seeded placements), a spread no
admissible bound absorbs.  The seeded sources move the top net, so the
top-level routing still varies with the seed while the partition
instance stays fixed.
"""

from __future__ import annotations

import random
import resource
import time
from collections import Counter

from harness import summarize

#: Flows per run: at least MIN_FLOWS, more while the measuring time
#: lasts, at most MAX_FLOWS.
MIN_FLOWS, MAX_FLOWS = 2, 8


def source_locations(seed: int, side: float) -> list[tuple[float, float]]:
    """The seeded clock-source locations of the timing-only flows,
    inside the die's middle 80%."""
    rng = random.Random(seed)
    return [(rng.uniform(0.1, 0.9) * side, rng.uniform(0.1, 0.9) * side)
            for _ in range(MAX_FLOWS - 1)]


class FlowWorkload:
    def __init__(self):
        self.jobs = 1

    def setup(self, args) -> dict:
        from repro.cts import FlowConfig, HierarchicalCTS
        from repro.designs import load_design
        from repro.geometry import Point
        from repro.tech import Technology

        # one tiny flow first, so lazy first-call costs land in set-up
        tiny = load_design("s38584", scale=0.05)
        HierarchicalCTS(config=FlowConfig()).run(tiny.sinks, tiny.source)
        design = load_design("ethernet", scale=1.0)
        return {
            "design": design,
            "sources": [design.source] + [
                Point(x, y)
                for x, y in source_locations(args.seed, design.die_side)],
            "tech": Technology(),
        }

    def teardown(self, state) -> None:
        pass

    def _flow(self, state, i: int) -> dict:
        """One flow from source ``i`` (0: the catalog source); returns
        its measurements."""
        from repro.cts import FlowConfig, HierarchicalCTS
        from repro.cts.evaluation import evaluate_result

        design, tech = state["design"], state["tech"]
        engine = HierarchicalCTS(tech=tech, config=FlowConfig())
        t0 = time.perf_counter()
        result = engine.run(design.sinks, state["sources"][i])
        wall = time.perf_counter() - t0
        report = evaluate_result(result, tech)
        return {
            "wall_s": wall,
            "sinks": len(design.sinks),
            "skew_ps": report.skew_ps,
            "latency_ps": report.latency_ps,
            "wirelength_um": report.clock_wl_um,
            "buffers": report.num_buffers,
            "violations": result.diagnostics.violations,
            "stage_time_s": dict(result.diagnostics.stage_time_s),
            "problems": check_tree(result.tree, design.sinks),
        }

    def measure(self, state, args) -> dict:
        runs = []
        start = time.perf_counter()
        # another flow only if it should end within the measuring time,
        # so a run lasts about --seconds whatever one flow takes
        while len(runs) < MIN_FLOWS or (
                len(runs) < MAX_FLOWS and time.perf_counter() - start
                + runs[-1]["wall_s"] <= args.seconds):
            runs.append(self._flow(state, len(runs)))
        return self._outcome(runs)

    def measure_traced(self, state, args, log) -> dict:
        """One untraced and one traced flow from the catalog source."""
        from repro.obs.metrics import METRICS

        from tracing import install, layer_metrics

        plain = self._flow(state, 0)
        install(log)
        METRICS.reset()
        traced = self._flow(state, 0)
        snapshot = METRICS.as_dict(precision=None)
        out = self._outcome([traced])
        out["layers"] = dict(
            layer_metrics(snapshot),
            **{"obs.trace_overhead_frac":
               (traced["wall_s"] - plain["wall_s"]) / plain["wall_s"],
               "quality.violations": traced["violations"]})
        out["layer_extra"] = {
            f"stage.{k}_s": (v, "s")
            for k, v in sorted(traced["stage_time_s"].items())}
        out["snapshot"] = snapshot
        out["spans"] = [s for s in log.spans if s["end"] is not None]
        return out

    @staticmethod
    def _outcome(runs: list[dict]) -> dict:
        """Timing over every flow; quality from the catalog-source tree
        (``runs[0]``) alone."""
        walls = [r["wall_s"] for r in runs]
        wall = summarize(walls)
        tree = runs[0]

        e2e = {
            "op_p50_ms": wall["p50"] * 1e3,
            "op_p99_ms": wall["p99"] * 1e3,
            "work_per_s": sum(r["sinks"] for r in runs) / sum(walls),
            "skew_ps": tree["skew_ps"],
            "latency_ps": tree["latency_ps"],
            "wirelength_um": tree["wirelength_um"],
            "buffers": tree["buffers"],
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        n = len(runs)
        return {
            "attempted": n,
            "failed": sum(1 for r in runs if r["problems"]),
            "problems": [p for r in runs for p in r["problems"]],
            "e2e": e2e,
            "named": [
                ("flow_wall_s", wall["p50"], "s", n),
                ("skew_ps", e2e["skew_ps"], "ps", 1),
                ("latency_ps", e2e["latency_ps"], "ps", 1),
                ("wirelength_um", e2e["wirelength_um"], "um", 1),
                ("buffers", e2e["buffers"], "count", 1),
                ("violations", tree["violations"], "count", 1),
                ("sinks_per_s", e2e["work_per_s"], "1/s", n),
                ("peak_rss_mb", e2e["peak_rss_mb"], "MB", 1),
            ],
        }


def check_tree(tree, sinks) -> list[str]:
    """The flow's output contract: a valid tree holding every input
    sink exactly once (and nothing else)."""
    problems = []
    try:
        tree.validate()
    except Exception as exc:  # noqa: BLE001 — report, don't abort
        problems.append(f"validate: {exc.__class__.__name__}: {exc}")
    got = Counter(tree.node(nid).sink.name for nid in tree.sink_node_ids())
    want = Counter(s.name for s in sinks)
    if got != want:
        problems.append(
            f"sinks: {sum((want - got).values())} missing, "
            f"{sum((got - want).values())} extra or repeated")
    return problems

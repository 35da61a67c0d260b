"""sweep-explore: cold sweep, warm rerun, Pareto front, fit, suggest.

One explore loop runs a cold 24-point sweep (two catalog designs at
scale 0.2 x eps x library x two flow seeds: the reference seed and one
drawn from the workload seed) into an empty store with
``jobs = nproc``, reruns it warm (all hits, byte-identical JSONL),
extracts the Pareto front, fits the metric model over the store,
reloads it, and asks it for the next round over a wider eps grid.
Loops repeat while the next one should end within the measuring time,
at least MIN_LOOPS of them, so the loop time is a median over several.

The run's tree quality is that of the reference-seed points, the same
on every run and whatever the host's speed.
"""

from __future__ import annotations

import os
import resource
import shutil
import time

from harness import nproc, percentile, record_quality

DESIGNS = ["s38584", "s38417"]
SCALE = 0.2
EPS = [0.1, 0.3, 1.0]
SUGGEST_EPS = [0.05, 0.1, 0.2, 0.3, 0.5, 1.0]
LIBRARIES = ["default", "lean"]


#: Flow seeds in every run's grid; the quality metrics are theirs.
REFERENCE_SEEDS = (0,)
#: Explore loops per run, at least.
MIN_LOOPS = 2


def seed_axis(seed: int) -> list[int]:
    """The reference seeds and one more from the workload seed."""
    return [*REFERENCE_SEEDS, len(REFERENCE_SEEDS) + seed]


class SweepWorkload:
    def __init__(self):
        self.jobs = nproc()

    def setup(self, args) -> dict:
        from repro import predict, sweep  # noqa: F401 — imports are set-up
        from repro.designs import design_fingerprint

        for design in DESIGNS:
            design_fingerprint(design, SCALE)
        grid = {"eps": EPS, "library": LIBRARIES,
                "seed": seed_axis(args.seed)}
        spec = sweep.spec_from_dict({
            "name": "perfbench-explore", "designs": DESIGNS,
            "scales": [SCALE], "grid": grid})
        wider = sweep.spec_from_dict({
            "name": "perfbench-next", "designs": DESIGNS, "scales": [SCALE],
            "grid": dict(grid, eps=SUGGEST_EPS)})
        return {"spec": spec, "wider": wider}

    def teardown(self, state) -> None:
        pass

    def _explore(self, state, root: str) -> dict:
        """One explore loop into a fresh store at ``root``."""
        from repro import predict, sweep

        spec = state["spec"]
        shutil.rmtree(root, ignore_errors=True)
        store = sweep.SweepStore(root)
        problems = []
        t0 = time.perf_counter()
        cold = sweep.run_sweep(spec, store, jobs=self.jobs)
        t_cold = time.perf_counter() - t0
        cold_bytes = cold.jsonl_path.read_bytes()
        warm = sweep.run_sweep(spec, store, jobs=self.jobs)
        front = sweep.pareto_front(warm.records)
        dataset = predict.extract_dataset(store.records())
        model = predict.fit(dataset)
        saved = model.save(os.path.join(root, "model"))
        suggestion = predict.suggest_next_round(
            model, state["wider"], stored_keys=frozenset(store.keys()))
        explore_s = time.perf_counter() - t0

        points = len(spec.expand())
        if cold.executed != points or warm.cache_hits != points:
            problems.append(f"cold sweep executed {cold.executed}, warm "
                            f"rerun hit {warm.cache_hits} of {points}")
        if warm.jsonl_path.read_bytes() != cold_bytes:
            problems.append("warm rerun JSONL differs from the cold one")
        if not front.front:
            problems.append("empty Pareto front")
        if predict.load_model(saved).key() != model.key():
            problems.append("fitted model does not reload to the same key")
        nxt = suggestion.next_spec
        if nxt is None or sweep.spec_from_dict(
                nxt.to_dict(), name=nxt.name).digest() != nxt.digest():
            problems.append("suggested spec does not re-parse")
        return {
            "explore_s": explore_s,
            "cold_s": t_cold,
            "points": points,
            "records": [r for r in cold.records if r.get("status") == "ok"],
            "point_runtime_s": list(cold.runtime_by_index.values()),
            "hits": cold.cache_hits + warm.cache_hits,
            "rows": dataset.rows,
            "problems": problems + [
                f"point {r['index']}: {r['error']}" for r in cold.records
                if r.get("status") != "ok"],
            "failed": cold.failed + len(problems),
        }

    def measure(self, state, args) -> dict:
        loops = []
        start = time.perf_counter()
        while len(loops) < MIN_LOOPS or (time.perf_counter() - start
                                         + loops[-1]["explore_s"]
                                         <= args.seconds):
            loops.append(self._explore(
                state, os.path.join(args.workdir, f"sweep-{len(loops)}")))
        return self._outcome(loops)

    def measure_traced(self, state, args, log) -> dict:
        from repro.obs.metrics import METRICS

        from tracing import by_name, install, layer_metrics

        plain = self._explore(state, os.path.join(args.workdir, "sweep-plain"))
        install(log)
        METRICS.reset()
        traced = self._explore(state,
                               os.path.join(args.workdir, "sweep-traced"))
        snapshot = METRICS.as_dict(precision=None)
        out = self._outcome([traced])
        out["layers"] = layer_metrics(snapshot)
        out["layers"].update({
            "obs.trace_overhead_frac":
                (traced["explore_s"] - plain["explore_s"]) / plain["explore_s"],
            "quality.violations": out["quality"]["violations"]})
        rows = by_name([s for s in log.spans if s["end"] is not None])
        busy = sum(traced["point_runtime_s"])
        extra = {
            "parallel.utilization": (busy / (traced["cold_s"] * self.jobs),
                                     "ratio"),
            "sweep.cache_hit_ratio": (traced["hits"] / (2 * traced["points"]),
                                      "ratio"),
            "predict.rows": (traced["rows"], "count"),
        }
        for name in ("store.get", "store.put"):
            if name in rows:
                extra[f"{name}_ms"] = (
                    percentile(rows[name]["durations"], 50) * 1e3, "ms")
        for name, metric in (("pareto.front", "pareto.front_s"),
                             ("predict.features", "predict.features_s"),
                             ("predict.fit", "predict.fit_s"),
                             ("predict.suggest", "predict.suggest_s")):
            extra[metric] = (rows[name]["incl_s"] if name in rows else 0.0,
                             "s")
        out["layer_extra"] = extra
        out["snapshot"] = snapshot
        out["spans"] = [s for s in log.spans if s["end"] is not None]
        return out

    def _outcome(self, loops: list[dict]) -> dict:
        """Timing over every loop; quality from the reference-seed
        points of the first loop's cold sweep (every loop sweeps the
        same points)."""
        explore = [lp["explore_s"] for lp in loops]
        records = [r for r in loops[0]["records"]
                   if r["config"]["flow"]["seed"] in REFERENCE_SEEDS]
        quality = record_quality(records)
        points = sum(lp["points"] for lp in loops)
        e2e = {
            "op_p50_ms": percentile(explore, 50) * 1e3,
            "op_p99_ms": percentile(explore, 99) * 1e3,
            "work_per_s": points / sum(lp["cold_s"] for lp in loops),
            "skew_ps": quality["skew_ps"],
            "latency_ps": quality["latency_ps"],
            "wirelength_um": quality["wirelength_um"],
            "buffers": quality["buffers"],
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        n = len(records)
        # every point of the cold sweep and each of the loop's five
        # checks (warm hits, JSONL bytes, front, model reload, suggest)
        return {
            "attempted": points + 5 * len(loops),
            "failed": sum(lp["failed"] for lp in loops),
            "problems": [p for lp in loops for p in lp["problems"]],
            "e2e": e2e,
            "quality": quality,
            "named": [
                ("sweep_points_per_s", e2e["work_per_s"], "1/s", points),
                ("explore_s", e2e["op_p50_ms"] / 1e3, "s", len(loops)),
                ("skew_ps", quality["skew_ps"], "ps", n),
                ("latency_ps", quality["latency_ps"], "ps", n),
                ("wirelength_um", quality["wirelength_um"], "um", n),
                ("buffers", quality["buffers"], "count", n),
                ("violations", quality["violations"], "count", n),
                ("peak_rss_mb", e2e["peak_rss_mb"], "MB", 1),
            ],
        }

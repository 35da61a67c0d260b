"""Tests of the benchmark's own helpers (no program run needed).

Run from the root of the checkout::

    python3 -m pytest perfbench/tests -q
"""

import json
import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import harness  # noqa: E402
import tracing  # noqa: E402
from flows import FlowWorkload  # noqa: E402
from serving import Mix  # noqa: E402
from sweeping import REFERENCE_SEEDS, seed_axis  # noqa: E402


# ----------------------------------------------------------------------
# percentiles and sample counts
# ----------------------------------------------------------------------
def test_percentile_interpolates_linearly():
    xs = [4.0, 1.0, 3.0, 2.0]
    assert harness.percentile(xs, 0) == 1.0
    assert harness.percentile(xs, 100) == 4.0
    assert harness.percentile(xs, 50) == 2.5
    assert harness.percentile(xs, 25) == pytest.approx(1.75)


def test_percentile_of_one_sample_is_the_sample():
    assert harness.percentile([7.5], 99) == 7.5


@pytest.mark.parametrize("bad", [[], [1.0]])
def test_percentile_rejects_no_samples_or_bad_q(bad):
    with pytest.raises(ValueError):
        harness.percentile(bad, 50 if not bad else 101)


@pytest.mark.parametrize("n, q", [(10000, 99.9), (1000, 99.0), (999, 95.0),
                                  (200, 95.0), (100, 90.0), (40, 75.0),
                                  (39, None), (1, None)])
def test_tail_percentile_keeps_ten_samples_beyond(n, q):
    assert harness.tail_percentile(n) == q


def test_summarize_counts_samples():
    s = harness.summarize(range(1, 101))
    assert s["n"] == 100
    assert s["p50"] == 50.5
    assert s["p99"] == pytest.approx(99.01)
    assert s["tail_q"] == 90.0


def test_quartile_spread_matches_statistics_quantiles():
    xs = [10.0, 12.0, 11.0, 13.0, 30.0, 9.0, 10.5]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    assert harness.quartile_spread(xs) == pytest.approx((q3 - q1) / q2)


# ----------------------------------------------------------------------
# spans and self time
# ----------------------------------------------------------------------
def _span(i, name, parent, start, end):
    return {"id": i, "name": name, "parent": parent, "start": start,
            "end": end, "tid": 0}


def test_self_time_subtracts_nested_children():
    spans = [_span(0, "flow", None, 0.0, 10.0),
             _span(1, "route", 0, 1.0, 3.0),
             _span(2, "dme", 1, 1.5, 2.0)]
    selfs = tracing.self_times(spans)
    assert selfs == {0: pytest.approx(8.0), 1: pytest.approx(1.5),
                     2: pytest.approx(0.5)}


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [_span(0, "flow", None, 0.0, 10.0),
             _span(1, "a", 0, 1.0, 5.0),
             _span(2, "b", 0, 3.0, 7.0),     # overlaps a (other thread)
             _span(3, "c", 0, 9.0, 12.0)]    # runs past the parent
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_covered_merges_and_clips():
    assert tracing.covered([], 0, 1) == 0.0
    assert tracing.covered([(0, 2), (1, 3), (5, 6)], 0, 10) == 4.0
    assert tracing.covered([(-5, 1), (9, 20)], 0, 10) == 2.0


def test_by_name_counts_recursion_once_inclusive():
    spans = [_span(0, "refine", None, 0.0, 4.0),
             _span(1, "refine", 0, 1.0, 2.0),
             _span(2, "other", None, 5.0, 6.0)]
    rows = tracing.by_name(spans)
    assert rows["refine"]["calls"] == 2
    assert rows["refine"]["incl_s"] == pytest.approx(4.0)
    assert rows["refine"]["self_s"] == pytest.approx(3.0 + 1.0)


class _Registry:
    def __init__(self):
        self.counters = {}

    def inc(self, name, value=1):
        self.counters[name] = self.counters.get(name, 0) + value


def test_span_log_links_parents_and_folds_outermost_time(monkeypatch):
    registry = _Registry()
    monkeypatch.setattr(tracing, "_METRICS", [registry])
    log = tracing.SpanLog()
    with log.span("salt.refine"):
        with log.span("salt.refine"):
            pass
        with log.span("dme.bst"):
            pass
    names = [(s["name"], s["parent"]) for s in log.spans]
    assert names == [("salt.refine", None), ("salt.refine", 0),
                     ("dme.bst", 0)]
    assert registry.counters["perfbench.salt.refine.n"] == 2
    outer = log.spans[0]["end"] - log.spans[0]["start"]
    assert registry.counters["perfbench.salt.refine.s"] == \
        pytest.approx(outer)


def test_layer_metrics_cover_every_declared_layer_metric():
    declared = {m["name"] for m in harness.load_spec()["per_layer"]}
    produced = set(tracing.layer_metrics({})) | {
        "obs.trace_overhead_frac", "quality.violations"}
    assert produced == declared


# ----------------------------------------------------------------------
# names and BENCHMARK.json
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["setup_s", "partition.assign_tier.lsa",
                                  "flow-ethernet-10k", "p99", "a" * 64])
def test_metric_name_rule_accepts(name):
    assert harness.valid_metric_name(name)


@pytest.mark.parametrize("name", ["", "_lead", ".lead", "has space",
                                  "slash/name", "a" * 65, "ümlaut"])
def test_metric_name_rule_rejects(name):
    assert not harness.valid_metric_name(name)


def test_benchmark_json_round_trips(tmp_path):
    path = harness.ROOT / "BENCHMARK.json"
    spec = harness.load_spec(path)
    copy = tmp_path / "BENCHMARK.json"
    copy.write_text(json.dumps(spec, indent=2) + "\n")
    assert harness.load_spec(copy) == spec
    assert json.loads(path.read_text()) == spec


def test_benchmark_json_follows_its_contract():
    spec = harness.load_spec()
    assert spec["command"][0] == "python3"
    assert all(arg.startswith(tuple(spec["paths"])) or "/" not in arg
               for arg in spec["command"][1:])
    assert all((harness.ROOT / p).is_dir() for p in spec["paths"])
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s"
    assert e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["better"] in ("lower", "higher")


def test_result_line_has_exactly_the_contract_keys():
    line = harness.result_line(True, 3, 0, {"setup_s": 1}, {"setup_s": "s"})
    data = json.loads(line)
    assert sorted(data) == ["attempted", "correct", "failed", "metrics"]
    assert data["metrics"] == {"setup_s": {"value": 1.0, "unit": "s"}}


def test_jobs_beyond_nproc_are_refused():
    with pytest.raises(SystemExit):
        harness.check_jobs(harness.nproc() + 1)
    harness.check_jobs(harness.nproc())


# ----------------------------------------------------------------------
# the serve request mix
# ----------------------------------------------------------------------
def test_serve_mix_is_seeded_and_dealt_in_decks():
    def draws(seed):
        mix = Mix(seed, window=0)
        return [(kind, json.dumps(payload, sort_keys=True))
                for kind, payload in (mix.draw() for _ in range(900))]

    a, b = draws(3), draws(3)
    assert a == b
    assert a != draws(4)
    # every deck of nine cards is ten requests: 7 hits, 1 fresh, 1 pair
    for i in range(0, len(a), 9):
        kinds = sorted(k for k, _ in a[i:i + 9])
        assert kinds == ["fresh"] + ["hit"] * 7 + ["pair"]
    fresh = [p for k, p in a if k != "hit"]
    assert len(set(fresh)) == len(fresh)            # never reused
    assert not set(fresh) & {p for k, p in a if k == "hit"}


# ----------------------------------------------------------------------
# quality comes from trees that timing cannot change
# ----------------------------------------------------------------------
def test_flow_quality_is_the_first_trees_whatever_else_ran():
    def flow(value, wall):
        return {"wall_s": wall, "sinks": 10, "violations": 0,
                "stage_time_s": {}, "problems": [], "skew_ps": value,
                "latency_ps": value, "wirelength_um": value,
                "buffers": value}

    few = FlowWorkload._outcome([flow(1.0, 2.0), flow(9.0, 1.0)])["e2e"]
    many = FlowWorkload._outcome(
        [flow(1.0, 2.0)] + [flow(9.0, 1.0)] * 5)["e2e"]
    for name in ("skew_ps", "latency_ps", "wirelength_um", "buffers"):
        assert few[name] == many[name] == 1.0
    assert few["op_p50_ms"] != many["op_p50_ms"]


def test_sweep_seed_axis_always_holds_the_reference_seeds():
    axes = [seed_axis(seed) for seed in range(20)]
    for axis in axes:
        assert axis[:len(REFERENCE_SEEDS)] == list(REFERENCE_SEEDS)
        assert len(set(axis)) == len(axis)
    assert len({tuple(axis) for axis in axes}) == len(axes)

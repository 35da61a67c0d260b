"""Chrome trace-event export: schema validity and round-tripping."""

import json

import pytest

from repro.obs.export import (
    load_trace,
    spans_from_trace,
    summarize_trace,
    to_chrome_trace,
    trace_depth,
    tree_summary,
    write_trace,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer


def _traced_forest() -> Tracer:
    tr = Tracer(enabled=True)
    with tr.span("flow", engine="t"):
        with tr.span("level", level=0):
            with tr.span("cluster", net="c0"):
                with tr.span("route", net="c0"):
                    pass
        with tr.span("assemble"):
            pass
    return tr


def test_chrome_trace_schema():
    payload = to_chrome_trace(_traced_forest(), metrics=None)
    assert payload["displayTimeUnit"] == "ms"
    events = payload["traceEvents"]
    assert events[0]["ph"] == "M"  # process_name metadata
    xs = [e for e in events if e["ph"] == "X"]
    assert len(xs) == 5
    for ev in xs:
        # every complete event carries the full Trace Event Format fields
        assert isinstance(ev["name"], str) and ev["name"]
        assert isinstance(ev["pid"], int)
        assert isinstance(ev["tid"], int)
        assert ev["ts"] >= 0.0
        assert ev["dur"] >= 0.0
        assert isinstance(ev["args"], dict)
    # timestamps are rebased so the first root starts at ~0
    assert min(ev["ts"] for ev in xs) == 0.0


def test_trace_embeds_metrics_snapshot():
    metrics = MetricsRegistry()
    metrics.inc("salt.batch.evals", 7)
    payload = to_chrome_trace(_traced_forest(), metrics=metrics)
    assert payload["metrics"]["counters"]["salt.batch.evals"] == 7


def test_write_load_roundtrip(tmp_path):
    path = tmp_path / "t.json"
    write_trace(path, tracer=_traced_forest(), metrics=None)
    # must be a plain JSON object Perfetto can open
    raw = json.loads(path.read_text())
    assert "traceEvents" in raw
    payload = load_trace(path)
    assert payload["traceEvents"] == raw["traceEvents"]


def test_spans_from_trace_rebuilds_nesting():
    tr = _traced_forest()
    payload = to_chrome_trace(tr, metrics=None)
    roots = spans_from_trace(payload)
    assert [r.name for r in roots] == ["flow"]
    flow = roots[0]
    assert [c.name for c in flow.children] == ["level", "assemble"]
    assert flow.children[0].children[0].name == "cluster"
    assert flow.children[0].children[0].children[0].name == "route"
    assert trace_depth(payload) == 4
    # attrs survive the round trip through "args"
    assert flow.attrs == {"engine": "t"}


def test_tree_summary_merges_siblings():
    tr = Tracer(enabled=True)
    with tr.span("flow"):
        for i in range(3):
            with tr.span("cluster", net=f"c{i}"):
                pass
    text = tree_summary(tr.roots)
    # three cluster spans fold into one line with count 3
    (line,) = [ln for ln in text.splitlines() if "cluster" in ln]
    assert line.split()[1] == "3"


def test_summarize_trace_mentions_spans_and_metrics():
    metrics = MetricsRegistry()
    metrics.inc("c", 2)
    payload = to_chrome_trace(_traced_forest(), metrics=metrics)
    text = summarize_trace(payload)
    assert "depth 4" in text
    assert "metrics:" in text


def test_load_trace_rejects_garbage(tmp_path):
    missing = tmp_path / "absent.json"
    with pytest.raises(ValueError, match="cannot read"):
        load_trace(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_trace(bad)
    notrace = tmp_path / "notrace.json"
    notrace.write_text('{"schema_version": 1}')
    with pytest.raises(ValueError, match="traceEvents"):
        load_trace(notrace)

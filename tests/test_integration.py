"""Cross-module integration tests: full pipelines end to end."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import cbs, evaluate_tree
from repro.cts import FlowConfig, HierarchicalCTS, TABLE5
from repro.cts.evaluation import evaluate_result
from repro.designs import load_design
from repro.dme import ElmoreDelay, ust_dme, ust_feasible_shift
from repro.geometry import Point
from repro.io import read_net, write_net
from repro.io.treefile import read_tree, write_tree
from repro.netlist import ClockNet, Sink
from repro.tech import Technology, default_library
from repro.timing import ElmoreAnalyzer
from repro.viz import render_svg


def test_netfile_to_cbs_to_treefile_pipeline(tmp_path):
    """Serialise a net, route it, serialise the tree, reload, re-time."""
    rng = random.Random(0)
    net = ClockNet("pipe", Point(0, 0), [
        Sink(f"s{i}", Point(rng.uniform(0, 50), rng.uniform(0, 50)))
        for i in range(15)
    ])
    net_path = tmp_path / "pipe.net"
    write_net(net, net_path)
    loaded = read_net(net_path)

    tech = Technology()
    tree = cbs(loaded, skew_bound=8.0, model=ElmoreDelay(tech))
    tree_path = tmp_path / "pipe.tree.json"
    write_tree(tree, tree_path)
    back = read_tree(tree_path, library=default_library())

    an = ElmoreAnalyzer(tech)
    assert an.analyze(back).skew == pytest.approx(an.analyze(tree).skew)
    assert an.analyze(back).skew <= 8.0 + 1e-6
    # and it renders
    assert render_svg(back).startswith("<svg")


def test_design_to_flow_to_artifacts(tmp_path):
    """Catalog design -> hierarchical flow -> score -> serialise -> draw."""
    tech = Technology()
    design = load_design("s38417", scale=0.08)
    result = HierarchicalCTS(
        tech=tech, config=FlowConfig(sa_iterations=30)
    ).run(design.sinks, design.source)
    rep = evaluate_result(result, tech)
    assert rep.skew_ps <= TABLE5.skew_bound
    assert len(result.tree.sinks()) == len(design.sinks)

    path = tmp_path / "flow.tree.json"
    write_tree(result.tree, path)
    back = read_tree(path, library=default_library())
    rep2 = evaluate_result(
        type(result)(tree=back, levels=result.levels,
                     runtime_s=result.runtime_s),
        tech,
    )
    assert rep2.latency_ps == pytest.approx(rep.latency_ps)
    assert rep2.num_buffers == rep.num_buffers


def test_ust_in_hierarchy_context():
    """UST windows derived from launch/capture margins on a real cluster."""
    rng = random.Random(3)
    sinks = [
        Sink(f"ff{i}", Point(rng.uniform(0, 40), rng.uniform(0, 40)))
        for i in range(12)
    ]
    net = ClockNet("ust", Point(20, 20), sinks)
    # even flops may be up to 10 um-equivalents late; odd must be on time
    windows = {
        s.name: ((0.0, 30.0) if i % 2 == 0 else (0.0, 6.0))
        for i, s in enumerate(sinks)
    }
    tree = ust_dme(net, windows)
    arrivals = {
        tree.node(nid).sink.name: pl
        for nid, pl in tree.sink_path_lengths().items()
    }
    assert ust_feasible_shift(arrivals, windows) is not None


@given(st.integers(min_value=40, max_value=120),
       st.integers(min_value=0, max_value=10**4))
@settings(max_examples=6, deadline=None)
def test_flow_constraints_random_designs(n, seed):
    """Whole-flow property: any random placement yields a legal tree."""
    rng = random.Random(seed)
    tech = Technology()
    sinks = [
        Sink(f"ff{i}", Point(rng.uniform(0, 100), rng.uniform(0, 100)),
             cap=rng.uniform(0.5, 2.0))
        for i in range(n)
    ]
    cfg = FlowConfig(sa_iterations=20)
    result = HierarchicalCTS(tech=tech, config=cfg).run(sinks, Point(50, 50))
    rep = evaluate_result(result, tech)
    assert rep.skew_ps <= TABLE5.skew_bound
    assert sorted(s.name for s in result.tree.sinks()) == sorted(
        s.name for s in sinks
    )
    m = evaluate_tree(result.tree,
                      ClockNet("whole", Point(50, 50), sinks))
    assert m.gamma >= 1.0 - 1e-9

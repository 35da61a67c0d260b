"""Guard: the hot paths must actually take their batched arms.

Each vectorised hot-path module declares the METRICS counters its
batched implementation bumps (``BATCH_COUNTERS``).  This test runs a
representative end-to-end flow and fails if any declared counter stayed
at zero — which is exactly what happens when a refactor quietly reroutes
a hot loop back onto a per-node Python walk (the scalar reference arms
bump none of these).

The counter names are collected from the modules themselves, not
hard-coded here, so adding a new batched kernel means declaring its
counters at the definition site and this guard picks it up for free.

The same flow must solve its capacitated partitions with the exact LSA
tier; no ``partition.assign_mcf*`` counter (the deleted
successive-shortest-path tier) may reappear.
"""

import sys

import repro.dme.topology
import repro.salt.refine
import repro.timing.elmore
from repro.cts import FlowConfig, HierarchicalCTS
from repro.geometry import Point
from repro.obs.metrics import METRICS
from repro.perf import make_uniform_sinks
from repro.tech import Technology

# resolved via sys.modules: ``repro.salt`` re-exports the ``refine``
# *function* under the submodule's name, shadowing attribute access
_HOT_PATH_MODULES = tuple(
    sys.modules[name]
    for name in ("repro.timing.elmore", "repro.salt.refine",
                 "repro.dme.topology")
)


def test_flow_exercises_every_declared_batched_counter():
    sinks, side = make_uniform_sinks(400, seed=0)
    METRICS.reset()
    engine = HierarchicalCTS(tech=Technology(),
                             config=FlowConfig(sa_iterations=10))
    engine.run(sinks, Point(side / 2, side / 2))

    declared = {
        (mod.__name__, name)
        for mod in _HOT_PATH_MODULES
        for name in mod.BATCH_COUNTERS
    }
    assert declared, "hot-path modules must declare BATCH_COUNTERS"
    dead = sorted(
        f"{mod}:{name}"
        for mod, name in declared
        if METRICS.counter(name) <= 0
    )
    assert not dead, (
        "batched hot paths never ran (per-node Python loop regression?): "
        + ", ".join(dead)
    )

    counters = METRICS.as_dict()["counters"]
    assert counters.get("partition.assign_lsa", 0) > 0, counters
    mcf = sorted(n for n in counters if n.startswith("partition.assign_mcf"))
    assert not mcf, f"min-cost-flow assignment tier ran: {mcf}"

"""Refine one seeded flat RSMT net; report size, time, peak RSS, digest.

The hierarchical flow only ever refines trees of a few hundred nodes.
``repro route --algorithm salt|cbs`` on one huge net does not: its whole
net is one flat tree.  This script builds that case directly — a seeded
uniform placement (``repro.perf.make_uniform_sinks``), its RSMT, then one
:func:`repro.salt.refine` — and prints one JSON line::

    PYTHONPATH=src python benchmarks/flat_refine.py 3000

``sha256`` is the digest of the refined tree's sorted-key JSON
(``repro.io.treefile.tree_to_dict``), so two checkouts that refine the
same net identically print the same digest.  ``peak_rss_mb`` is the
process high-water mark, construction included.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import time

from repro.geometry import Point
from repro.io.treefile import tree_to_dict
from repro.netlist import ClockNet
from repro.perf import make_uniform_sinks
from repro.rsmt import rsmt
from repro.salt import refine


def flat_refine(sinks: int) -> dict:
    placed, side = make_uniform_sinks(sinks)
    tree = rsmt(ClockNet("flat", Point(side / 2, side / 2), placed))
    nodes = len(tree)
    t0 = time.perf_counter()
    refine(tree)
    refine_s = time.perf_counter() - t0
    blob = json.dumps(tree_to_dict(tree), sort_keys=True).encode()
    return {
        "sinks": sinks,
        "nodes": nodes,
        "refined_nodes": len(tree),
        "refine_s": round(refine_s, 3),
        "peak_rss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "sha256": hashlib.sha256(blob).hexdigest(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sinks", type=int)
    args = parser.parse_args()
    print(json.dumps(flat_refine(args.sinks)))


if __name__ == "__main__":
    main()

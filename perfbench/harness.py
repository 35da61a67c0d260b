"""Shared helpers of the repository benchmark: statistics, host stamp,
metric naming and the result line.

Nothing here imports ``repro``: the statistics and the ``BENCHMARK.json``
reader must work (and be testable) without the program under test.
"""

from __future__ import annotations

import json
import math
import os
import platform
import re
import statistics
import sys
from importlib import metadata
from pathlib import Path

#: Root of the checkout the benchmark runs in (the parent of perfbench/).
ROOT = Path(__file__).resolve().parents[1]

#: Where runs leave stores, trace files and results (git-ignored).
WORK = ROOT / ".perfbench_work"

#: The metric-name rule of BENCHMARK.json (and of every printed metric).
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Keys BENCHMARK.json must hold, exactly.
SPEC_KEYS = ("command", "paths", "run_seconds", "workloads", "end_to_end",
             "per_layer")


def valid_metric_name(name: str) -> bool:
    return METRIC_NAME.fullmatch(name) is not None


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100) of ``values``.

    The same rule as numpy's default: rank ``q/100 * (n-1)`` between
    the sorted neighbours.  One sample is its own every percentile.
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    rank = q / 100.0 * (len(xs) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def tail_percentile(n: int, candidates=(99.9, 99.0, 95.0, 90.0, 75.0)):
    """Highest candidate percentile with at least ten samples beyond it,
    or None when ``n`` samples support none of them."""
    for q in candidates:
        if round(n * (100.0 - q) / 100.0, 9) >= 10:
            return q
    return None


def summarize(values) -> dict:
    """Sample count, median, p99 and the best-supported tail."""
    xs = list(values)
    tail = tail_percentile(len(xs))
    return {
        "n": len(xs),
        "p50": percentile(xs, 50),
        "p99": percentile(xs, 99),
        "tail_q": tail,
        "tail": percentile(xs, tail) if tail is not None else None,
    }


def record_quality(records: list[dict]) -> dict[str, float]:
    """Median tree quality over sweep/serve records (status ok)."""
    med = statistics.median
    return {
        "skew_ps": med(r["quality"]["skew_ps"] for r in records),
        "latency_ps": med(r["quality"]["latency_ps"] for r in records),
        "wirelength_um": med(r["quality"]["wirelength_um"] for r in records),
        "buffers": med(r["quality"]["num_buffers"] for r in records),
        "violations": med((r.get("flow_events") or {}).get("violation", 0)
                          for r in records),
    }


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, quartiles as ``statistics.quantiles(n=4)``."""
    q1, q2, q3 = statistics.quantiles(list(values), n=4)
    return (q3 - q1) / q2 if q2 else math.inf


# ----------------------------------------------------------------------
# Host stamp
# ----------------------------------------------------------------------
def nproc() -> int:
    """CPUs this process may run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:     # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def host_stamp(jobs: int) -> dict:
    """What a number needs next to it to be comparable: the machine,
    the library versions and the worker count the workload used."""
    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "platform": platform.platform(),
        "jobs": jobs,
    }


def check_jobs(jobs: int) -> None:
    """Refuse a workload configured with more workers than CPUs: its
    timings would measure oversubscription, not the program."""
    if jobs < 1:
        fail(f"jobs must be >= 1, got {jobs}")
    if jobs > nproc():
        fail(f"refusing jobs={jobs} on a host with nproc={nproc()}; "
             f"timings would measure oversubscription")


# ----------------------------------------------------------------------
# BENCHMARK.json and the result line
# ----------------------------------------------------------------------
def load_spec(path: Path | None = None) -> dict:
    """Read and validate BENCHMARK.json (names, keys, bounds)."""
    path = path or ROOT / "BENCHMARK.json"
    spec = json.loads(Path(path).read_text(encoding="utf-8"))
    if tuple(sorted(spec)) != tuple(sorted(SPEC_KEYS)):
        raise ValueError(f"BENCHMARK.json keys {sorted(spec)} != "
                         f"{sorted(SPEC_KEYS)}")
    names = [w["name"] for w in spec["workloads"]] \
        + [m["name"] for m in spec["end_to_end"]] \
        + [m["name"] for m in spec["per_layer"]]
    bad = [n for n in names if not valid_metric_name(n)]
    if bad:
        raise ValueError(f"invalid names in BENCHMARK.json: {bad}")
    if len(set(names)) != len(names):
        raise ValueError("BENCHMARK.json reuses a name")
    for m in spec["end_to_end"]:
        if not 0 < m["bound"] <= 0.25:
            raise ValueError(f"{m['name']}: bound {m['bound']} not in "
                             f"(0, 0.25]")
    return spec


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict[str, float], units: dict[str, str]) -> str:
    """The final stdout line: exactly correct/attempted/failed/metrics."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    })


def fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
    raise SystemExit(code)

"""The repository benchmark: one workload per call, one result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload flow-ethernet-10k --seed 0 \\
        --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes the
separate traced run that reports the per-layer metrics (and writes the
spans to ``.perfbench_out/``).  The last stdout line is the JSON result
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
stamp the host and print every metric with its unit and sample count.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import (  # noqa: E402
    ROOT, WORK, check_jobs, fail, host_stamp, load_spec, result_line,
)

#: Set-ups per run (one in this process, the rest in fresh processes);
#: ``setup_s`` is their median.
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 120
OUT = ROOT / ".perfbench_out"


def workloads() -> dict:
    from flows import FlowWorkload
    from serving import ServeWorkload
    from sweeping import SweepWorkload

    return {
        "flow-ethernet-10k": FlowWorkload,
        "serve-mixed": ServeWorkload,
        "sweep-explore": SweepWorkload,
    }


def parse_args(argv, spec: dict):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]] + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def self_command(args, workload: str, *extra: str) -> list[str]:
    """This script, for one workload, in a fresh interpreter."""
    return [sys.executable, str(Path(__file__).resolve()),
            "--workload", workload, "--seed", str(args.seed), *extra]


def probe_setup(args) -> float:
    """One set-up in a fresh interpreter (imports included)."""
    proc = subprocess.run(self_command(args, args.workload, "--setup-only"),
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        fail(f"set-up probe failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_one(args, spec: dict) -> int:
    workload = workloads()[args.workload]()
    check_jobs(workload.jobs)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = str(workdir)
    args.workdir = str(workdir)
    try:
        setups = [] if args.setup_only else \
            [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
        t0 = time.perf_counter()
        state = workload.setup(args)
        setups.append(time.perf_counter() - t0)
        try:
            if args.setup_only:
                print(json.dumps({"setup_s": setups[-1]}))
                return 0
            if args.trace:
                from tracing import SpanLog

                log = SpanLog()
                out = workload.measure_traced(state, args, log)
            else:
                out = workload.measure(state, args)
        finally:
            workload.teardown(state)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    setup_s = statistics.median(setups)
    host = host_stamp(workload.jobs)
    print("host " + json.dumps(host, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"attempted {out['attempted']} failed {out['failed']}")
    for problem in out["problems"][:20]:
        print(f"  FAILED {problem}")
    named = [("setup_s", setup_s, "s", len(setups))] + out["named"]
    for name, value, unit, n in named:
        print(f"  {name:<22} {value:>14.6g} {unit:<6} n={n}")

    if args.trace:
        layers = out["layers"]
        for name, (value, unit) in sorted(out["layer_extra"].items()):
            print(f"  {name:<34} {value:>14.6g} {unit}")
        wanted = spec["per_layer"]
        write_trace(args, host, out, setup_s)
    else:
        layers = dict(out["e2e"], setup_s=setup_s)
        wanted = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    missing = sorted(set(units) - set(layers))
    if missing:
        fail(f"workload produced no value for {missing}")
    print(result_line(
        correct=out["failed"] == 0 and out["attempted"] > 0,
        attempted=out["attempted"], failed=out["failed"],
        metrics={name: layers[name] for name in units}, units=units))
    return 0


def write_trace(args, host: dict, out: dict, setup_s: float) -> None:
    """Spans (kept in memory during the run) and their per-name self
    time, the registry snapshot and every per-layer number."""
    from tracing import by_name

    spans = out["spans"]
    rows = by_name(spans)
    for name, row in rows.items():
        del row["durations"]
    top = sorted(rows.items(), key=lambda kv: -kv[1]["self_s"])[:12]
    if top:
        print("  self time by span (s): " + ", ".join(
            f"{name} {row['self_s']:.3f}" for name, row in top))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "host": host, "workload": args.workload, "seed": args.seed,
        "setup_s": setup_s, "layers": out["layers"],
        "layer_extra": out["layer_extra"],
        "span_summary": rows, "spans": spans,
        "metrics_snapshot": out["snapshot"],
    }, indent=1, sort_keys=True, default=str))
    print(f"  trace written to {path.relative_to(ROOT)}")


def run_all(args, spec: dict) -> int:
    """Every workload in turn, each in its own process."""
    results = {}
    for w in spec["workloads"]:
        cmd = self_command(args, w["name"], "--seconds", str(args.seconds),
                           "--trace", str(args.trace))
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            fail(f"{w['name']} exited {proc.returncode}:\n"
                 f"{proc.stderr[-2000:]}")
        results[w["name"]] = json.loads(lines[-1])
    print(json.dumps(results, sort_keys=True))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    sys.stdout.reconfigure(line_buffering=True)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        fail(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    try:
        spec = load_spec()
    except (OSError, ValueError, KeyError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    args = parse_args(argv, spec)
    sys.path.insert(1, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())

"""Steadiness check: run one workload over several seeds and report,
per end-to-end metric, the median and the quartile spread (Q3 - Q1) /
median next to a third of the metric's bound.

Usage::

    python3 perfbench/spread.py --workload serve-mixed --seeds 1 2 3 4 5

Each run is a fresh ``perfbench/run.py`` process, as in a real
measurement; the raw result lines are appended to
``.perfbench_out/spread-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import ROOT, load_spec, quartile_spread  # noqa: E402


def main(argv=None) -> int:
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = p.parse_args(argv)

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    log = out / f"spread-{args.workload}.jsonl"
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout else ""
        if proc.returncode != 0 or not last.startswith("{"):
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-1500:]}")
            return 1
        result = json.loads(last)
        took = time.perf_counter() - t0
        with log.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps({"seed": seed, "run_s": took, **result})
                     + "\n")
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"run {took:.1f} s", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'metric':<16}{'median':>14}{'spread':>9}{'bound/3':>9}")
    for name, xs in values.items():
        spread = quartile_spread(xs) if len(xs) >= 2 else float("nan")
        flag = "" if spread <= bounds[name] / 3 else "  <-- not steady"
        print(f"{name:<16}{statistics.median(xs):>14.6g}{spread:>9.3f}"
              f"{bounds[name] / 3:>9.3f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

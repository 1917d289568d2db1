"""Repeat the benchmark over several seeds and summarize each metric.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--trace 0|1]

Runs run.py once per seed for BENCHMARK.json's run_seconds, appends every
result line to perfbench/results/<workload>-trace<T>.jsonl, and prints for
each metric the median, the quartiles of statistics.quantiles(n=4) and the
spread (Q3 - Q1) / median beside a third of the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"), help="first-last")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    log = HERE / "results" / f"{args.workload}-trace{args.trace}.jsonl"
    log.parent.mkdir(exist_ok=True)
    runs = []
    for seed in args.seeds:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True).stdout
        result = json.loads(out.splitlines()[-1])
        runs.append(result)
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"seed": seed, **result}) + "\n")
        print(f"seed {seed}: {result['attempted']} attempted, {result['failed']} failed, correct {result['correct']}")
    print(f"{'metric':48s} {'median':>12s} {'Q1':>12s} {'Q3':>12s} {'spread':>8s} {'bound/3':>8s}")
    for name, first in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / q2 if q2 else 0.0
        bound = bounds.get(name)
        limit = f"{bound / 3:8.4f}" if bound is not None else " " * 8
        print(f"{name:48s} {q2:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {limit} {first['unit']}")
    shares = {run["failed"] / run["attempted"] for run in runs}
    print(f"failed shares: {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

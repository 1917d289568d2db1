"""End-to-end benchmark of the qensemble CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from `src/`, so
nothing is installed.  One worker process (worker.py) runs the operations of
the workload closed-loop, one at a time, timing `qensemble.cli.main` only.
This process checks each operation's output against independent references
(checks.py) between operations, outside the timed region, and starts
operations while the next one is expected to end within S seconds.  The last
line of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1.  Exits 1 without a result when the sources
are missing.
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
from pathlib import Path
from time import perf_counter

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

# fresh interpreters timed per run for setup_s, spread over the run so that
# the median does not rest on one moment of a machine whose speed drifts
SETUP_LAUNCHES = 9
READY = "import qensemble.cli, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"


def program_env() -> dict:
    """The caller's environment with src/ first on the import path.

    No thread or BLAS variable is set: the program runs as a user's would.
    """
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def launch_to_ready(env: dict) -> float:
    """Seconds from launching an interpreter to qensemble.cli imported."""
    start = perf_counter()
    with subprocess.Popen([sys.executable, "-c", READY], stdout=subprocess.PIPE, text=True, env=env) as proc:
        ready = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
    if ready != "ready\n" or proc.returncode != 0:
        raise RuntimeError("importing qensemble.cli failed")
    return elapsed


class Worker:
    """The process that runs the operations, spoken to one line at a time."""

    def __init__(self, env: dict, spans: Path | None) -> None:
        argv = [sys.executable, str(HERE / "worker.py")]
        if spans is not None:
            argv += ["--spans", str(spans)]
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT
        )

    def ask(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def run_loop(worker: Worker, workload: str, seed: int, seconds: float, tables: Path, env: dict | None) -> dict:
    """Operations, checked one by one, until the next would end after `seconds`.

    With `env`, SETUP_LAUNCHES interpreter launches are timed between
    operations, spread evenly over the run.
    """
    op_seconds: list[float] = []
    op_walls: list[float] = []
    setup_times: list[float] = []
    failed = 0
    wrong = False
    ops = workloads.operations(workload, seed)
    start = perf_counter()

    def launch_due(share: float) -> None:
        while env is not None and len(setup_times) < 1 + round((SETUP_LAUNCHES - 1) * min(share, 1.0)):
            setup_times.append(launch_to_ready(env))

    while not op_walls or perf_counter() - start + statistics.median(op_walls) <= seconds:
        launch_due((perf_counter() - start) / seconds)
        op_start = perf_counter()
        calls = next(ops)
        paths = [str(tables / f"op{len(op_seconds)}-{i}.{call.fmt}") for i, call in enumerate(calls)]
        answer = worker.ask({"calls": [call.argv(path) for call, path in zip(calls, paths)]})
        op_seconds.append(sum(answer["seconds"]))
        problems = []
        for call, path, code, stdout in zip(calls, paths, answer["codes"], answer["stdout"]):
            problems += checks.check_call(call, code, stdout, path)
            Path(path).unlink(missing_ok=True)
        if problems:
            failed += 1
            # wrong output from calls that all succeeded makes the run incorrect
            wrong |= all(code == 0 for code in answer["codes"])
            for problem in problems:
                print(f"operation {len(op_seconds) - 1}: {problem}", file=sys.stderr)
        op_walls.append(perf_counter() - op_start)
    loop_s = perf_counter() - start
    launch_due(1.0)
    return {"op_seconds": op_seconds, "failed": failed, "wrong": wrong, "loop_s": loop_s, "setup_times": setup_times}


def layer_metrics(spec: dict, spans_path: Path, op_seconds: list[float]) -> dict:
    with open(spans_path, encoding="utf-8") as fh:
        data = json.load(fh)
    per_op = tracing.per_operation(data["spans"], data["ops"])
    values = {
        "trace.ops_per_s": len(op_seconds) / sum(op_seconds),
        "trace.busy_share": statistics.median(tracing.module_busy(m) / t for m, t in zip(per_op, op_seconds)),
    }
    names = sorted({key for m in per_op for key in m})
    for name in names:
        values.setdefault(name, statistics.median(m.get(name, 0.0) for m in per_op))
    for name in names:
        print(f"  {name:52s} {values[name]:.6g}")
    return {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in spec["per_layer"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "qensemble" / "cli.py").is_file():
        print(f"perfbench: no qensemble sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    env = program_env()
    RESULTS.mkdir(exist_ok=True)
    spans = RESULTS / f"spans-{args.workload}-seed{args.seed}.json" if args.trace else None
    tables = Path(tempfile.mkdtemp(prefix="tables-", dir=RESULTS))
    worker = Worker(env, spans)
    try:
        loop = run_loop(worker, args.workload, args.seed, args.seconds, tables, None if args.trace else env)
        peak_rss_mib = worker.ask({"stop": True})["peak_rss_mib"]
        worker.proc.wait(timeout=120)
    finally:
        worker.close()
        shutil.rmtree(tables, ignore_errors=True)
    op_seconds = loop["op_seconds"]
    print(
        f"{args.workload} seed {args.seed}: {len(op_seconds)} operations, {loop['failed']} failed, "
        f"loop {loop['loop_s']:.1f} s, operations {sum(op_seconds):.1f} s"
    )
    if args.trace:
        metrics = layer_metrics(spec, spans, op_seconds)
    else:
        values = {
            "setup_s": statistics.median(loop["setup_times"]),
            "ops_per_s": len(op_seconds) / sum(op_seconds),
            "op_s_p50": statistics.median(op_seconds),
            "peak_rss_mib": peak_rss_mib,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    result = {
        "correct": not loop["wrong"],
        "attempted": len(op_seconds),
        "failed": loop["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

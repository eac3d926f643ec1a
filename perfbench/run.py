"""tiermem benchmark launcher.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; tiermem is imported from its `src/`.
NAME is one of the workloads in `workloads.py`, or `all` to run each in
turn. The launcher pins the BLAS thread count, generates the workload's
inputs from the seed with `tiermem.synth` into `.perfbench/`, and then
starts each measured process itself, one workload per process, so import
state and peak RSS do not carry over.

--trace 0 prints the end-to-end metrics: two set-up-only processes and
the measuring process each time `setup_s`, and the measuring process
replays the workload for S seconds. --trace 1 prints the per-layer
metrics: an untraced and a traced process share the S seconds, and the
difference between them is reported as the tracing overhead.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}.
The exit code is 1 when a check fails, 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, generate  # noqa: E402

BLAS_THREADS = "1"
SETUP_PROCESSES = 2  # plus the measuring process: setup_s is a median of 3
DEADLINE_S = 170.0  # every process of one workload ends within this


def _child(args: list[str], deadline: float) -> dict:
    """Run worker.py, pass its report lines through, return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise SystemExit("benchmark: out of time before all processes ran")
    try:
        done = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"benchmark: worker {args[:3]} ran past the deadline") from None
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"benchmark: worker {args[:3]} exited with code {done.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def _print_metrics(name: str, metrics: dict) -> dict:
    """Print each metric with its unit and sample count; return the contract form."""
    out = {}
    for key, (value, unit, *n) in metrics.items():
        count = f" (n={n[0]})" if n else ""
        if value is None:
            print(f"[{name}] {key:52} absent: fewer than 200 samples{count}")
            continue
        print(f"[{name}] {key:52} {value:14.6f} {unit}{count}")
        out[key] = {"value": value, "unit": unit}
    return out


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    inputs = ROOT / ".perfbench"
    inputs.mkdir(exist_ok=True)
    trace_path = inputs / f"{name}.svmt"
    queries_path = inputs / f"{name}.queries.jsonl"
    try:
        generate(name, seed, trace_path, queries_path)
        common = ["--workload", name, "--seed", str(seed), "--inputs", str(inputs)]
        if trace:
            half = str(seconds / 2)
            plain = _child(["measure", *common, "--seconds", half], deadline)
            traced = _child(["measure", *common, "--seconds", half, "--traced"], deadline)
            metrics = dict(traced["layers"])
            for key in ("ingest_fps", "query_past_ms_p50"):
                value, unit, _ = traced["e2e"][key]
                metrics[f"tracing.overhead.{key}"] = (value - plain["e2e"][key][0], unit)
            runs = [plain, traced]
        else:
            setups = [_child(["setup", *common], deadline)["setup_s"]
                      for _ in range(SETUP_PROCESSES)]
            result = _child(["measure", *common, "--seconds", str(seconds)], deadline)
            setups.append(result["setup_s"])
            metrics = dict(result["e2e"])
            metrics["setup_s"] = (statistics.median(setups), "s", len(setups))
            runs = [result]
    finally:
        trace_path.unlink(missing_ok=True)
        queries_path.unlink(missing_ok=True)
    return {
        "correct": all(not r["problems"] and r["failed"] == 0 for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": _print_metrics(name, metrics),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tiermem benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "tiermem" / "__init__.py").is_file():
        print(f"benchmark: no tiermem sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Pinned before anything imports numpy; the workers inherit it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in names}
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""latkit benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Workloads: verify-default and enumerate8
(see bench/NOTES.md for why each exists and which were dropped).

The workload runs in a child process of its own (bench/worker.py) under a
wall-clock limit, so its peak RSS is its own and a run that hangs counts
as failed instead of stalling. Set-up time is measured here as fresh
interpreters importing ``latkit.cli``. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``). Exits 2 without a result when latkit's sources are
missing, and 1 when the workload did not finish.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("verify-default", "enumerate8")
# The run must end within 180 s; set-up measurement takes a few seconds.
WORKER_LIMIT_S = 165
# Set-up samples are taken half before and half after the workload, so
# their median spans the run rather than one moment of it.
SETUP_REPEATS = 12


def child_env() -> dict:
    """The environment latkit runs in: its sources first on the path and
    LATKIT_THREADS unset, so corpus_suite picks its shipped pool size."""
    env = dict(os.environ)
    env.pop("LATKIT_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def setup_samples(env: dict, count: int) -> list[float]:
    """Wall times of fresh interpreters importing latkit.cli."""
    cmd = [sys.executable, "-c", "import latkit.cli"]
    times = []
    for _ in range(count):
        t0 = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True)
        times.append(perf_counter() - t0)
    return times


def run_worker(args, env: dict):
    """The worker's result dict, or None when it failed or hit the limit."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=WORKER_LIMIT_S)
    except subprocess.TimeoutExpired:
        print(f"error: {args.workload} exceeded the {WORKER_LIMIT_S} s limit",
              file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"error: {args.workload} worker exited {proc.returncode}\n"
              f"{proc.stderr[-4000:]}", file=sys.stderr)
        return None
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"error: {args.workload} worker printed no result", file=sys.stderr)
        return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "latkit", "cli.py")):
        print(f"error: latkit sources not found under {SRC}", file=sys.stderr)
        return 2

    env = child_env()
    # The first import writes the bytecode cache, as an install would.
    setup = [] if args.trace else setup_samples(env, 1 + SETUP_REPEATS // 2)[1:]
    result = run_worker(args, env)
    if result is None:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    metrics = result["metrics"]
    if not args.trace:
        setup += setup_samples(env, SETUP_REPEATS - len(setup))
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    for problem in result["notes"].pop("problems"):
        print(f"problem: {problem}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          + json.dumps(result["notes"]))
    print(json.dumps({"correct": result["failed"] == 0 and result["attempted"] > 0,
                      "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

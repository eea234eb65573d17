"""Runs the benchmark several times per workload, one seed per run, and
prints each end-to-end metric's median, quartiles and spread (the
distance between the quartiles as a share of the median) as JSON.

    python3 bench/summarize.py --runs 10 [--first-seed 0] [--workload NAME ...]
                               [--traced] [-o bench/baseline.json]

The spread is the figure each metric's bound in BENCHMARK.json is set
against. The raw pass and reference times are summarised the same way.
With ``--traced`` it also makes one traced run per workload and records
its per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# Raw figures each untraced run prints beside its metrics; no bound.
RAW = ("wall_s", "lattices_per_s", "reference_s")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    *_, info, last = proc.stdout.splitlines()
    result = json.loads(last)
    # The line before the result is "<workload> seed=N trace=T {raw figures}".
    result["raw"] = json.loads(info.split(" ", 3)[3])
    return result


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2,
            "values": values}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("-o", "--output")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            results.append(run_once(workload, seed, spec["run_seconds"], 0))
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in results[-1]["metrics"].items()),
                file=sys.stderr)
        entry = {"runs": args.runs,
                 "seeds": [args.first_seed, args.first_seed + args.runs - 1],
                 "all_correct": all(r["correct"] for r in results), "metrics": {}}
        for name, bound in bounds.items():
            stats = summary([r["metrics"][name]["value"] for r in results])
            stats["bound"] = bound
            entry["metrics"][name] = stats
            print(f"{workload:15s} {name:15s} median {stats['median']:.5g} "
                  f"spread {stats['spread']:.4f} (bound {bound})", file=sys.stderr)
        entry["raw"] = {name: summary([r["raw"][name] for r in results])
                        for name in RAW}
        if args.traced:
            traced = run_once(workload, args.first_seed, spec["run_seconds"], 1)
            entry["traced"] = {"correct": traced["correct"],
                               "metrics": {k: v["value"] for k, v in traced["metrics"].items()}}
        out["workloads"][workload] = entry
    text = json.dumps(out, indent=1)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

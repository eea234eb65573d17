"""Runs one workload in a process of its own and prints its measurements
as one JSON line on standard output.

run.py starts this script with latkit's sources on PYTHONPATH and stops it
at the wall-clock limit. With ``--trace 0`` it alternates untraced passes
with runs of the reference computation (reference.py) for ``--seconds``
and reports the end-to-end metrics. With ``--trace 1`` it
runs one untraced pass, the same pass traced, one pass of the interactive
commands and the layer probe. Then it writes every span to
``.bench_out/`` and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from time import perf_counter

from probe import Probe, Tracer, percentile
from reference import reference_pass
from workloads import NULL_TRACER, WORKLOADS, SingleLattice, load_expected

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACE_DIR = os.path.join(ROOT, ".bench_out")


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, attempted: int, failed: int, problems: list[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.problems += problems


def timed_pass(workload, tracer, tally: Tally):
    """One pass, timed; its output is checked after the timer stops."""
    gc.collect()
    t0 = perf_counter()
    output, commands = workload.run_pass(tracer)
    elapsed = perf_counter() - t0
    tally.add(*workload.check(output))
    return elapsed, commands


def timed_reference() -> float:
    gc.collect()
    t0 = perf_counter()
    reference_pass()
    return perf_counter() - t0


def measure(workload, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Untraced passes, each between two reference runs, until the next
    pair would end after ``seconds``. ``wall_rel`` is the median over the
    passes of a pass's time divided by the mean of the reference runs on
    either side of it."""
    workload.warm_up()
    reference_pass()
    passes: list[float] = []
    refs = [timed_reference()]
    start = perf_counter()
    while True:
        passes.append(timed_pass(workload, NULL_TRACER, tally)[0])
        refs.append(timed_reference())
        if perf_counter() - start + max(passes) + max(refs) > seconds:
            break
    rel = [p / ((a + b) / 2) for p, a, b in zip(passes, refs, refs[1:])]
    wall_s = statistics.median(passes)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "wall_rel": {"value": statistics.median(rel), "unit": "x"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }, {"passes": len(passes), "wall_s": wall_s,
        "wall_p90_s": percentile(sorted(passes), 90),
        "lattices_per_s": workload.lattices_per_pass / wall_s,
        "reference_s": statistics.median(refs)}


def traced(workload, seed: int, tally: Tally, expected: dict) -> tuple[dict, dict]:
    """Untraced pass, traced pass, one pass of the interactive commands and
    the layer probe; spans go to TRACE_DIR."""
    workload.warm_up()
    untraced_s, _ = timed_pass(workload, NULL_TRACER, tally)
    tracer = Tracer()
    with tracer.span(f"pass {workload.name}"):
        traced_s, _ = timed_pass(workload, tracer, tally)
    commands = SingleLattice(seed, expected)
    commands.warm_up()
    with tracer.span("pass single-lattice"):
        _, latencies = timed_pass(commands, tracer, tally)
    probe = Probe(tracer, seed)
    lattices = workload.probe_lattices()
    with tracer.span("probe"):
        probe.run(lattices)
    tally.add(len(lattices), len(probe.problems), probe.problems)
    metrics = probe.metrics()
    latencies.sort()
    metrics["cli.cmd_p50_ms"] = {"value": 1000 * percentile(latencies, 50), "unit": "ms"}
    metrics["cli.cmd_p90_ms"] = {"value": 1000 * percentile(latencies, 90), "unit": "ms"}
    metrics["trace.overhead_s"] = {"value": traced_s - untraced_s, "unit": "s"}
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"trace-{workload.name}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "seed": seed, "spans": tracer.spans,
                   "metrics": metrics}, fh)
    return metrics, {"untraced_s": untraced_s, "traced_s": traced_s, "spans": path}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    expected = load_expected()
    workload = WORKLOADS[args.workload](args.seed, expected)
    tally = Tally()
    if args.trace:
        metrics, notes = traced(workload, args.seed, tally, expected)
        metrics["failed_ratio"] = {"value": tally.failed / tally.attempted, "unit": "ratio"}
    else:
        metrics, notes = measure(workload, args.seconds, tally)
    notes["problems"] = tally.problems[:20]
    print(json.dumps({"attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics, "notes": notes}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

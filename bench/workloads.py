"""The benchmark workloads: their inputs, one pass each, and the checks
that every pass's outputs are correct.

A workload drives latkit only through its public functions and the CLI
entry point. ``run_pass`` takes a tracer so the untraced and the traced
pass execute the same calls; the untraced one passes ``NULL_TRACER``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
from time import perf_counter

from latkit import (canonical_key, cli, default_corpus, enumerate_lattices,
                    is_complemented)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(BENCH_DIR, "expected.json")

# Bounded lattices on n elements up to isomorphism: OEIS A006966, from
# Heitzig & Reinhold, "Counting finite lattices", Algebra Universalis 2002.
A006966 = {2: 1, 3: 1, 4: 2, 5: 5, 6: 15, 7: 53, 8: 222}
# How many of them are complemented: 71 at n = 8 and 99 in all.
COMPLEMENTED = {2: 1, 3: 0, 4: 1, 5: 2, 6: 6, 7: 18, 8: 71}
ENUM_MAX = max(A006966)

NAMED = (["N5", "M3", "fig2"] + [f"M:{k}" for k in range(2, 9)]
         + [f"B:{k}" for k in range(1, 5)] + ["chain:2", "chain:8", "chain:16"])
SUBCOMMANDS = (["info"], ["plus-table"], ["op-table", "--op", "implies"],
               ["op-table", "--op", "odot"], ["deductive-systems", "--lattice-of"],
               ["export-dot"])

VERIFY_LINE = re.compile(r"^(ok  |FAIL) (\S+): (\d+) checks, (\d+) failures")
VERIFY_PASSED = "result: all asserted checks passed"


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``latkit`` in process; returns the exit code and standard output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class NullTracer:
    def span(self, name: str):
        return contextlib.nullcontext()


NULL_TRACER = NullTracer()


class Workload:
    """One pass is the unit of work; ``lattices_per_pass`` is how many
    lattices it processes. A pass's output is checked after the timer
    stops. ``commands`` in the result of ``run_pass`` are per-command
    latencies, or None when the whole pass is one command."""

    name = ""
    lattices_per_pass = 0

    def __init__(self, seed: int, expected: dict):
        self.seed = seed

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_pass(self, tracer):
        raise NotImplementedError

    def check(self, output) -> tuple[int, int, list[str]]:
        """Returns (attempted, failed, problems) for one pass's output."""
        raise NotImplementedError

    def probe_lattices(self):
        """(name, lattice) pairs on which the traced run times each layer."""
        raise NotImplementedError


def _verdict(attempted: int, bad: dict[str, str]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) from a map of failed lattice to reason."""
    return attempted, min(len(bad), attempted), [f"{k}: {v}" for k, v in bad.items()]


def _check_counts(bad: dict, got: dict, want: dict) -> None:
    """Marks lattices whose check count differs from the recorded one,
    including lattices missing from or extra in the output."""
    for name in want.keys() | got.keys():
        if got.get(name) != want.get(name):
            bad.setdefault(name, f"{got.get(name)} checks, recorded {want.get(name)}")


class VerifyDefault(Workload):
    """`latkit verify --seed S`: the documented entry point."""

    name = "verify-default"

    def __init__(self, seed, expected):
        super().__init__(seed, expected)
        self.want = expected["verify-default"]
        self.lattices_per_pass = len(self.want)

    def warm_up(self):
        call_cli(["verify", "--lattice", "N5", "--seed", str(self.seed)])

    def run_pass(self, tracer):
        with tracer.span("cli.main verify"):
            out = call_cli(["verify", "--seed", str(self.seed)])
        return out, None

    def check(self, output):
        code, text = output
        lines = [VERIFY_LINE.match(ln) for ln in text.splitlines()]
        got = {m.group(2): int(m.group(3)) for m in lines if m}
        bad = {m.group(2): f"{m.group(4)} failures" for m in lines
               if m and (m.group(1) != "ok  " or m.group(4) != "0")}
        _check_counts(bad, got, self.want)
        if code != 0 or not got or VERIFY_PASSED not in text:
            bad.update((name, f"verify exited {code} over {len(got)} lattices")
                       for name in self.want)
        return _verdict(self.lattices_per_pass, bad)

    def probe_lattices(self):
        return [(e.name, e.lattice) for e in default_corpus()]


class Enumerate8(Workload):
    """enumerate_lattices(n) for n = 2..8 with no filter."""

    name = "enumerate8"
    lattices_per_pass = sum(A006966.values())
    # The suite and deduction layers never run in this workload; the
    # traced run times them on the small enumerated lattices so that every
    # layer metric exists here without lengthening the run.
    probe_max = 6

    def warm_up(self):
        enumerate_lattices(5, cap=ENUM_MAX)

    def run_pass(self, tracer):
        out = {}
        for n in A006966:
            with tracer.span(f"corpus.enumerate_lattices n={n}"):
                out[n] = enumerate_lattices(n, cap=ENUM_MAX)
        return out, None

    def check(self, output):
        problems = []
        for n, want in A006966.items():
            lats = output.get(n, [])
            keys = {canonical_key(lat) for lat in lats}
            comp = sum(1 for lat in lats if is_complemented(lat))
            if len(lats) != want or len(keys) != want or comp != COMPLEMENTED[n]:
                problems.append(f"n={n}: {len(lats)} lattices, {len(keys)} non-isomorphic, "
                                f"{comp} complemented; expected {want} and {COMPLEMENTED[n]}")
        return len(A006966), len(problems), problems

    def probe_lattices(self):
        return [(f"enum{n}.{i}", lat) for n in range(2, self.probe_max + 1)
                for i, lat in enumerate(enumerate_lattices(n, cap=ENUM_MAX))]


class SingleLattice(Workload):
    """Six interactive subcommands on 17 builtin lattices, 102 commands in
    a seed-shuffled order.

    Not a timed workload: from one run to the next its times swung by up
    to 1.7x with the measuring host's slow phases, which is wider than
    any bound a workload may have. The traced run of every workload runs
    one pass of it instead. That pass checks every output digest and
    reports the command latencies as per-layer metrics."""

    name = "single-lattice"

    def __init__(self, seed, expected):
        super().__init__(seed, expected)
        self.want = expected["single-lattice"]
        self.commands = [sub[:1] + ["--lattice", name] + sub[1:]
                         for name in NAMED for sub in SUBCOMMANDS]
        random.Random(seed).shuffle(self.commands)
        self.lattices_per_pass = len(self.commands)

    def warm_up(self):
        for sub in SUBCOMMANDS:
            call_cli(sub[:1] + ["--lattice", "N5"] + sub[1:])

    def run_pass(self, tracer):
        outputs, latencies = [], []
        for argv in self.commands:
            with tracer.span("cli.main " + " ".join(argv)):
                t0 = perf_counter()
                outputs.append(call_cli(argv))
                latencies.append(perf_counter() - t0)
        return outputs, latencies

    def check(self, output):
        problems = []
        for argv, (code, text) in zip(self.commands, output):
            key = " ".join(argv)
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            if code != 0 or digest != self.want.get(key):
                problems.append(f"{key}: exit {code}, output differs from the recorded digest")
        return len(self.commands), len(problems), problems


WORKLOADS = {w.name: w for w in (VerifyDefault, Enumerate8)}

"""Traced layer probe: times each latkit module's public functions from
outside, one span per call, and derives the per-layer metrics from the
spans.

Cold-memo discipline. ``Lattice.memo`` caches complement sets, closed
sets, the operation tables, the canonical key and the predicates on the
instance, so a call timed on a lattice that an earlier call warmed would
read the cache. Every timed call therefore gets a freshly built
``Lattice`` (labels plus ``up_mask`` rows); ``Tracer.claim`` refuses a
lattice that an earlier timed call already used. Before the timed call
the probe runs that function's memoised dependencies on the same fresh
lattice, untimed, so each number is the function's self time.

The 20 suite checks are timed each on its own fresh lattice prepared the
way corpus entries are (canonical key and tags computed), which is the
state ``lattice_suite`` receives them in, and with the arguments
``lattice_suite`` passes. The probe then requires the 20 reports to equal
the reports ``lattice_suite`` returns for another such lattice, so a
check list here that drifts from the suite's is caught.
"""

from __future__ import annotations

import contextlib
from time import perf_counter

from latkit import (Lattice, all_deductive_systems, all_meet_congruences,
                    canonical_key, check_adjointness,
                    check_compatible_kernel_recovery, check_complement_sets,
                    check_conjunction_laws, check_dblplus_characterization,
                    check_deductive_family, check_descending_chains,
                    check_diamond_residuation,
                    check_filters_vs_deductive_systems, check_galois_laws,
                    check_implication_laws, check_implication_meet_link,
                    check_lattice_axioms, check_meet_congruence_kernels,
                    check_minimal_dblplus, check_modular_antichains,
                    check_modus_laws, check_order_reversal,
                    check_substitution_equivalences, closed_sets,
                    closure_lattice, closure_report, compatible_systems,
                    default_corpus, enumerate_lattices, is_complemented,
                    is_distributive, is_modular, lattice_suite,
                    render_op_table, render_plus_table, to_dot)
from latkit.complementation import complement_sets
from latkit.connectives import implies_table, odot_table
from latkit.corpus import entry_for
from latkit.deduction import PARTITION_CAP, SUBSET_CAP
from latkit.suite import (GALOIS_EXHAUSTIVE_LIMIT, GALOIS_SAMPLE_PAIRS,
                          worker_count)


class SharedLattice(AssertionError):
    """Two timed calls were given the same Lattice object."""


class Tracer:
    """Spans (name, start, end, parent) kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._claimed: dict[int, Lattice] = {}

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    def claim(self, lat: Lattice) -> None:
        # The dict holds a reference to every claimed lattice, so an id
        # cannot be reused by a later object during the run.
        if id(lat) in self._claimed:
            raise SharedLattice(f"{lat!r} was already used by a timed call")
        self._claimed[id(lat)] = lat

    def timed(self, name: str, lat: Lattice, fn, *args):
        self.claim(lat)
        with self.span(name):
            return fn(lat, *args)

    def self_times(self) -> dict[str, list[float]]:
        """Self time of every span, grouped by span name: its duration
        minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child[rec["parent"]] += rec["end"] - rec["start"]
        out: dict[str, list[float]] = {}
        for rec in self.spans:
            out.setdefault(rec["name"], []).append(
                rec["end"] - rec["start"] - child[rec["id"]])
        return out


def fresh(lat: Lattice) -> Lattice:
    """A new Lattice with the same labels, order and name, and no memo."""
    return Lattice(lat.labels, [lat.up_mask(i) for i in lat.elements], name=lat.name)


def signature(lat: Lattice):
    return lat.name, lat.labels, tuple(lat.up_mask(i) for i in lat.elements)


def suite_input(name: str, lat: Lattice) -> Lattice:
    """A fresh lattice in the state corpus_suite hands to lattice_suite."""
    lat = fresh(lat)
    canonical_key(lat)
    return entry_for(name, lat).lattice


def _op_table(which):
    return lambda lat: render_op_table(lat, which)


# (span name, memoised dependencies warmed first, function, applies to).
LAYERS = [
    ("core.canonical_key", (), canonical_key, None),
    ("core.predicates", (), is_modular, None),
    ("core.predicates", (), is_distributive, None),
    ("core.predicates", (), is_complemented, None),
    ("complementation.complement_sets", (), complement_sets, None),
    ("complementation.closed_sets", (complement_sets,), closed_sets, None),
    ("complementation.closure_lattice", (complement_sets, closed_sets),
     closure_lattice, None),
    ("connectives.implies_table", (complement_sets,), implies_table, None),
    ("connectives.odot_table", (complement_sets,), odot_table, None),
    ("render.plus_table", (complement_sets,), render_plus_table, None),
    ("render.op_table", (complement_sets, implies_table), _op_table("implies"), None),
    ("render.op_table", (complement_sets, odot_table), _op_table("odot"), None),
    ("render.to_dot", (), to_dot, None),
    ("deduction.all_deductive_systems", (complement_sets, implies_table),
     all_deductive_systems, SUBSET_CAP),
    # compatible_systems enumerates the systems itself; its time includes that.
    ("deduction.compatible_systems", (complement_sets, implies_table),
     compatible_systems, SUBSET_CAP),
    ("deduction.all_meet_congruences", (), all_meet_congruences, PARTITION_CAP),
]


def suite_checks(seed: int):
    """The calls lattice_suite makes, in its order and with its arguments."""
    return [
        ("check_lattice_axioms", check_lattice_axioms),
        ("check_galois_laws", lambda lat: check_galois_laws(
            lat, GALOIS_EXHAUSTIVE_LIMIT, GALOIS_SAMPLE_PAIRS, seed)),
        ("closure_report", closure_report),
        ("check_complement_sets", check_complement_sets),
        ("check_modular_antichains", check_modular_antichains),
        ("check_order_reversal", check_order_reversal),
        ("check_dblplus_characterization", check_dblplus_characterization),
        ("check_descending_chains", check_descending_chains),
        ("check_implication_laws", check_implication_laws),
        ("check_minimal_dblplus", check_minimal_dblplus),
        ("check_modus_laws", check_modus_laws),
        ("check_implication_meet_link", check_implication_meet_link),
        ("check_diamond_residuation", check_diamond_residuation),
        ("check_conjunction_laws", check_conjunction_laws),
        ("check_adjointness", check_adjointness),
        ("check_filters_vs_deductive_systems",
         lambda lat: check_filters_vs_deductive_systems(lat, SUBSET_CAP)),
        ("check_deductive_family", lambda lat: check_deductive_family(lat, SUBSET_CAP)),
        ("check_meet_congruence_kernels",
         lambda lat: check_meet_congruence_kernels(lat, PARTITION_CAP)),
        ("check_substitution_equivalences",
         lambda lat: check_substitution_equivalences(lat, seed=seed)),
        ("check_compatible_kernel_recovery",
         lambda lat: check_compatible_kernel_recovery(lat, SUBSET_CAP)),
    ]


CHECK_NAMES = [name for name, _ in suite_checks(0)]
TIME_METRICS = (
    ["core.lattice_init", "core.canonical_key", "core.predicates",
     "corpus.enumerate_n7", "corpus.enumerate_n8", "corpus.default_corpus"]
    + sorted({name for name, _, _, _ in LAYERS} - {"core.canonical_key", "core.predicates"})
    + [f"suite.{name}" for name in CHECK_NAMES])
COUNT_METRICS = {
    "corpus.lattices_out": "count",
    "complementation.closed_sets_count": "count",
    "deduction.systems_count": "count",
    "deduction.congruences_count": "count",
    "suite.checks_total": "count",
    "suite.checks_skipped": "count",
    "suite.checks_asserted_ratio": "ratio",
    "suite.workers": "count",
}


class Probe:
    """Runs the layer probe over one workload's lattices and accumulates
    the counts; times come from the tracer's spans."""

    def __init__(self, tracer: Tracer, seed: int):
        self.tracer = tracer
        self.seed = seed
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self.asserted = 0
        self.problems: list[str] = []

    def run(self, lattices) -> None:
        t = self.tracer
        with t.span("corpus.enumerate_n7"):
            n7 = enumerate_lattices(7)
        with t.span("corpus.enumerate_n8"):
            n8 = enumerate_lattices(8, cap=8)
        self.counts["corpus.lattices_out"] = len(n7) + len(n8)
        with t.span("corpus.default_corpus"):
            default_corpus()
        for name, lat in lattices:
            with t.span(f"probe {name}"):
                self.layers(lat)
                self.suite(name, lat)

    def layers(self, lat: Lattice) -> None:
        t = self.tracer
        ups = [lat.up_mask(i) for i in lat.elements]
        with t.span("core.lattice_init"):
            built = Lattice(lat.labels, ups, name=lat.name)
        t.claim(built)
        for span_name, deps, fn, cap in LAYERS:
            if cap is not None and lat.n > cap:
                continue
            work = fresh(lat)
            for dep in deps:
                dep(work)
            result = t.timed(span_name, work, fn)
            if fn is closed_sets:
                self.counts["complementation.closed_sets_count"] += len(result)
            elif fn is all_deductive_systems:
                self.counts["deduction.systems_count"] += len(result.systems)
            elif fn is all_meet_congruences:
                self.counts["deduction.congruences_count"] += len(result)

    def suite(self, name: str, lat: Lattice) -> None:
        t = self.tracer
        whole = suite_input(name, lat)
        reports = t.timed("suite.lattice_suite", whole, lattice_suite,
                          SUBSET_CAP, PARTITION_CAP, self.seed, GALOIS_SAMPLE_PAIRS)
        parts = []
        for check, fn in suite_checks(self.seed):
            one = suite_input(name, lat)
            if signature(one) != signature(whole):
                self.problems.append(f"{name}: {check} timed on another lattice")
            parts.append(t.timed(f"suite.{check}", one, fn))
        if parts != reports:
            self.problems.append(f"{name}: per-check reports differ from lattice_suite")
        results = [c for r in reports for c in r.results]
        self.counts["suite.checks_total"] += len(results)
        self.counts["suite.checks_skipped"] += sum(
            1 for c in results if c.name == "skipped" and not c.asserted)
        self.asserted += sum(1 for c in results if c.asserted)

    def metrics(self) -> dict[str, dict]:
        times = self.tracer.self_times()
        out = {f"{name}_ms": {"value": 1000 * sum(times.get(name, [])), "unit": "ms"}
               for name in TIME_METRICS}
        suite_ms = sorted(1000 * x for x in times.get("suite.lattice_suite", []))
        out["suite.lattice_suite_p50_ms"] = {"value": percentile(suite_ms, 50), "unit": "ms"}
        out["suite.lattice_suite_p90_ms"] = {"value": percentile(suite_ms, 90), "unit": "ms"}
        checks_ms = sum(out[f"suite.{name}_ms"]["value"] for name in CHECK_NAMES)
        out["suite.checks_sum_gap_ms"] = {"value": checks_ms - sum(suite_ms), "unit": "ms"}
        counts = dict(self.counts)
        counts["suite.checks_asserted_ratio"] = self.asserted / counts["suite.checks_total"]
        counts["suite.workers"] = worker_count()
        for name, unit in COUNT_METRICS.items():
            out[name] = {"value": counts[name], "unit": unit}
        return out


def percentile(sorted_values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks (the inclusive method)."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    pos = (len(sorted_values) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)

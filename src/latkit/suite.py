"""Verification suites: run every applicable check on one lattice or on
a whole corpus.

Each check gates its own assertions on the lattice's hypotheses
(complemented, modular, diamond shape), so the suite runs uniformly and
lattices outside a hypothesis contribute informational entries only.
Corpus runs check one lattice after the other: the checks are pure
Python, so threads would only contend for the interpreter lock.
"""

from __future__ import annotations

from .complementation import (check_complement_sets, check_descending_chains,
                              check_dblplus_characterization, check_galois_laws,
                              check_modular_antichains, check_order_reversal,
                              closure_lattice)
from .connectives import (check_adjointness, check_conjunction_laws,
                          check_diamond_residuation, check_implication_laws,
                          check_implication_meet_link, check_minimal_dblplus,
                          check_modus_laws)
from .core import Lattice, check_lattice_axioms
from .corpus import CorpusEntry
from .deduction import (PARTITION_CAP, SUBSET_CAP,
                        check_compatible_kernel_recovery, check_deductive_family,
                        check_filters_vs_deductive_systems,
                        check_meet_congruence_kernels,
                        check_substitution_equivalences)
from .report import CheckResult, PropertyReport

# check_galois_laws decides its laws exactly: these two change no result.
GALOIS_SAMPLE_PAIRS = 10000
GALOIS_EXHAUSTIVE_LIMIT = 6


def closure_report(lat: Lattice) -> PropertyReport:
    rep = closure_lattice(lat)
    if rep.violations:
        results = tuple(CheckResult(v, False) for v in rep.violations)
    else:
        results = (CheckResult(
            f"complete ortholattice on {len(rep.closed)} closed sets", True),)
    return PropertyReport("closure structure", results)


def lattice_suite(lat: Lattice, max_subsets: int = SUBSET_CAP,
                  max_partitions: int = PARTITION_CAP, seed: int = 0,
                  galois_pairs: int = GALOIS_SAMPLE_PAIRS) -> list[PropertyReport]:
    """Every check on lat. seed and galois_pairs change no result; they
    stay only because bench/probe.py passes them."""
    return [
        check_lattice_axioms(lat),
        check_galois_laws(lat),
        closure_report(lat),
        check_complement_sets(lat),
        check_modular_antichains(lat),
        check_order_reversal(lat),
        check_dblplus_characterization(lat),
        check_descending_chains(lat),
        check_implication_laws(lat),
        check_minimal_dblplus(lat),
        check_modus_laws(lat),
        check_implication_meet_link(lat),
        check_diamond_residuation(lat),
        check_conjunction_laws(lat),
        check_adjointness(lat),
        check_filters_vs_deductive_systems(lat, max_subsets),
        check_deductive_family(lat, max_subsets),
        check_meet_congruence_kernels(lat, max_partitions),
        check_substitution_equivalences(lat),
        check_compatible_kernel_recovery(lat, max_subsets),
    ]


def suite_ok(reports: list[PropertyReport]) -> bool:
    return all(r.ok for r in reports)


def worker_count() -> int:
    """How many workers a corpus run uses: always one."""
    return 1


def corpus_suite(entries: list[CorpusEntry], max_subsets: int = SUBSET_CAP,
                 max_partitions: int = PARTITION_CAP):
    """Run the full suite on every entry; returns (name, reports) pairs
    in corpus order."""
    return [(e.name, lattice_suite(e.lattice, max_subsets, max_partitions))
            for e in entries]

"""Finite-lattice toolkit for set-valued complementation.

Every element a of a complemented bounded lattice has the set a+ of all
its complements. The package builds the Galois machinery this operator
induces, the derived implication and conjunction connectives, closure
and deductive-system structure, and a verification suite that checks
the governing laws on a corpus of small lattices.
"""

from .complementation import (ClosureReport, check_complement_sets,
                              check_dblplus_characterization,
                              check_descending_chains, check_galois_laws,
                              check_modular_antichains, check_order_reversal,
                              closed_sets, closure_lattice, complements,
                              double_plus, dblplus_injective,
                              find_closed_element_in_dblplus, is_closed, plus,
                              satisfies_dblplus_identity)
from .connectives import (OpTable, check_adjointness, check_conjunction_laws,
                          check_diamond_residuation, check_implication_laws,
                          check_implication_meet_link, check_minimal_dblplus,
                          check_modus_laws, implies, implies_sets,
                          implies_union, odot, odot_sets, op_table)
from .core import (ELEMENT_CAP, Lattice, canonical_key,
                   check_lattice_axioms, format_element_set, is_antichain,
                   is_complemented, is_convex, is_distributive, is_isomorphic,
                   is_modular, load_lattice_file, parse_lattice_text)
from .corpus import (CorpusEntry, default_corpus, direct_product,
                     enumerate_lattices, make_boolean, make_chain, make_fig2,
                     make_M3, make_Mn, make_N5, named_lattice)
from .deduction import (DSLattice, all_deductive_systems, all_meet_congruences,
                        check_compatible_kernel_recovery,
                        check_deductive_family,
                        check_filters_vs_deductive_systems,
                        check_meet_congruence_kernels,
                        check_substitution_equivalences, compatible_systems,
                        ds_lattice_is_boolean_2n,
                        find_meet_congruence_with_kernel, has_sp_implies,
                        has_sp_plus, is_compatible_ds, is_deductive_system,
                        is_filter, is_order_filter, kernel, theta)
from .errors import (CycleDetected, InvalidParameter, LatticeError, NoBounds,
                     NotALattice, ParseError, SizeCapExceeded, TrivialLattice)
from .render import render_op_table, render_plus_table, to_dot
from .report import CheckResult, PropertyReport
from .setops import set_join, set_le, set_le1, set_le2, set_meet, singleton
from .suite import closure_report, corpus_suite, lattice_suite, suite_ok

__version__ = "0.1.0"

__all__ = [
    "CheckResult", "ClosureReport", "CorpusEntry", "CycleDetected",
    "DSLattice", "ELEMENT_CAP", "InvalidParameter", "Lattice",
    "LatticeError", "NoBounds", "NotALattice", "OpTable", "ParseError",
    "PropertyReport", "SizeCapExceeded", "TrivialLattice",
    "all_deductive_systems", "all_meet_congruences", "canonical_key",
    "check_adjointness", "check_compatible_kernel_recovery",
    "check_complement_sets", "check_conjunction_laws",
    "check_dblplus_characterization", "check_deductive_family",
    "check_descending_chains", "check_diamond_residuation",
    "check_filters_vs_deductive_systems", "check_galois_laws",
    "check_implication_laws", "check_implication_meet_link",
    "check_lattice_axioms", "check_meet_congruence_kernels",
    "check_minimal_dblplus", "check_modular_antichains", "check_modus_laws",
    "check_order_reversal", "check_substitution_equivalences",
    "closed_sets", "closure_lattice", "closure_report", "compatible_systems",
    "complements", "corpus_suite", "default_corpus", "direct_product",
    "double_plus", "dblplus_injective",
    "ds_lattice_is_boolean_2n", "enumerate_lattices",
    "find_closed_element_in_dblplus", "find_meet_congruence_with_kernel",
    "format_element_set", "has_sp_implies", "has_sp_plus", "implies",
    "implies_sets", "implies_union", "is_antichain", "is_closed",
    "is_compatible_ds", "is_complemented", "is_convex", "is_deductive_system",
    "is_distributive", "is_filter", "is_isomorphic", "is_modular",
    "is_order_filter", "kernel", "lattice_suite", "load_lattice_file",
    "make_boolean", "make_chain", "make_fig2", "make_M3", "make_Mn",
    "make_N5", "named_lattice", "odot", "odot_sets", "op_table",
    "parse_lattice_text", "plus", "render_op_table", "render_plus_table",
    "satisfies_dblplus_identity", "set_join", "set_le", "set_le1", "set_le2",
    "set_meet", "singleton", "suite_ok", "theta", "to_dot",
]

"""The checks whose laws are decided once per distinct value or per row,
and the closure lattice, whose scans are skipped when the complement
relation is symmetric and irreflexive (a polarity, so its closed sets
form an ortholattice), compared report for report, witnesses included,
with full scans over every tuple. The tables come from
lattices_with_tables, extended: the implication, conjunction and
complement memos each real, or with one cell flipped, emptied or copied
from another cell of its row."""

from hypothesis import given, settings
from hypothesis import strategies as st

from latkit.complementation import (check_order_reversal, closed_sets, closure_lattice,
                                    complement_sets)
from latkit.connectives import (check_conjunction_laws, check_implication_laws,
                                check_modus_laws, implies_table, odot_table)
from latkit.core import check_lattice_axioms
from latkit.deduction import (SUBSTITUTION_CAP, check_compatible_kernel_recovery,
                              check_deductive_family, check_filters_vs_deductive_systems,
                              check_substitution_equivalences)

from .oracles import (brute_closure_scan, brute_compatible_kernel_recovery,
                      brute_conjunction_laws, brute_deductive_family,
                      brute_filters_vs_deductive_systems, brute_implication_laws,
                      brute_lattice_axioms, brute_modus_laws, brute_order_reversal,
                      brute_substitution_equivalences)
from .strategies import SMALL, corrupted, fresh, lattices_with_tables, place


@settings(max_examples=80, deadline=None)
@given(lattices_with_tables(max_n=16, extended=True))
def test_connective_and_complement_checks_match_full_scans(lat):
    it, ot, comp = implies_table(lat), odot_table(lat), complement_sets(lat)
    assert check_implication_laws(lat) == brute_implication_laws(lat, it, comp)
    assert check_modus_laws(lat) == brute_modus_laws(lat, it, comp)
    assert check_conjunction_laws(lat) == brute_conjunction_laws(lat, ot, comp)
    assert check_order_reversal(lat) == brute_order_reversal(lat, comp)
    rep = closure_lattice(lat)
    assert (rep.meet_table, rep.join_table, rep.orthocomplement, rep.violations) == \
        brute_closure_scan(lat, comp, closed_sets(lat))


@settings(max_examples=40, deadline=None)
@given(lattices_with_tables(max_n=10, extended=True))
def test_deduction_checks_match_full_scans(lat):
    it, comp = implies_table(lat), complement_sets(lat)
    assert check_filters_vs_deductive_systems(lat) == brute_filters_vs_deductive_systems(lat, it)
    assert check_deductive_family(lat) == brute_deductive_family(lat, it)
    assert check_compatible_kernel_recovery(lat) == brute_compatible_kernel_recovery(lat, it)
    assert check_substitution_equivalences(lat) == \
        brute_substitution_equivalences(lat, it, comp, SUBSTITUTION_CAP)


def with_cell(table, a, b, x):
    rows = [list(row) for row in table]
    rows[a][b] = x
    return tuple(tuple(row) for row in rows)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(SMALL), st.data())
def test_lattice_axioms_match_full_scan(lat, data):
    """Associativity is decided one (a, b) row at a time; a meet or join
    table with one cell changed must give the witness of the triple scan."""
    work = fresh(lat)
    cell = st.integers(0, lat.n - 1)
    for key in ("_meet", "_join"):
        if data.draw(st.booleans()):
            setattr(work, key, with_cell(getattr(work, key), data.draw(cell),
                                         data.draw(cell), data.draw(cell)))
    assert check_lattice_axioms(work) == brute_lattice_axioms(work)


def test_repeated_row_values_match_full_scans():
    """A law decided once per distinct value of a row must still find the
    first failing column when columns that share a value fail
    differently: in each row a, the cell of a later b takes the value of
    an earlier b whose meet with a differs."""
    for lat in SMALL:
        for a in lat.elements:
            b1, b2 = next(((b1, b2) for b1 in lat.elements for b2 in lat.elements
                           if b1 < b2 and lat.meet(a, b1) != lat.meet(a, b2)), (0, 0))
            if b1 == b2:
                continue
            for key, build in (("implies_table", implies_table), ("odot_table", odot_table)):
                work = fresh(lat)
                table = corrupted(build(lat), "copy", a, b2, b1)
                place(work, key, table)
                it, ot, comp = implies_table(work), odot_table(work), complement_sets(work)
                assert check_modus_laws(work) == brute_modus_laws(work, it, comp), (lat, a)
                assert check_implication_laws(work) == brute_implication_laws(work, it, comp)
                assert check_conjunction_laws(work) == brute_conjunction_laws(work, ot, comp)

"""The complement, implication and conjunction tables are computed as
masks; the frozenset tables are views that no check reads, so witnesses
follow ascending ids, and the README's examples still hold. The -> and
(.) tables, built a row or a column at a time, equal the set-level
implies_mask and odot_mask cell for cell, on corrupted complements too."""

import re
from pathlib import Path

from latkit import implies, make_fig2, plus
from latkit.cli import main
from latkit.complementation import closed_sets, closure_lattice, complement_sets
from latkit.connectives import (check_implication_laws, check_modus_laws, implies_mask,
                                implies_masks, implies_table, odot_mask, odot_masks)
from latkit.corpus import default_corpus, enumerate_lattices
from latkit.deduction import DSLattice, all_deductive_systems
from latkit.render import render_op_table, render_plus_table
from latkit.suite import lattice_suite

from .strategies import fresh, place

README = Path(__file__).resolve().parents[1] / "README.md"


def assert_tables_match_the_set_definition(work):
    it, ot = implies_masks(work), odot_masks(work)
    for a in work.elements:
        for b in work.elements:
            cell = (work.name, a, b)
            assert it[a][b] == implies_mask(work, 1 << a, 1 << b), cell
            assert ot[a][b] == odot_mask(work, 1 << a, 1 << b), cell


def test_tables_match_the_set_definition():
    """Every lattice on 2 to 7 elements, complemented or not, so rows
    with no complement and empty cells occur, and the default corpus."""
    lats = [lat for n in range(2, 8) for lat in enumerate_lattices(n)]
    assert len(lats) == 77
    assert any(0 in row for lat in lats for row in implies_masks(lat))
    for lat in lats + [fresh(e.lattice) for e in default_corpus()]:
        assert_tables_match_the_set_definition(lat)


def test_tables_read_a_placed_complement_table():
    """On every corpus lattice with at most 8 elements, a complement
    table with each row flipped, and one with the odd rows emptied, reach
    both tables, which still equal the set definition cell for cell."""
    for e in default_corpus():
        lat = e.lattice
        if lat.n > 8:
            continue
        comp = complement_sets(lat)
        everything = frozenset(lat.elements)
        for rows in ([everything - row for row in comp],
                     [frozenset() if a % 2 else row for a, row in enumerate(comp)]):
            work = fresh(lat)
            place(work, "complement_sets", rows)
            assert implies_masks(work) != implies_masks(lat), e.name
            assert odot_masks(work) != odot_masks(lat), e.name
            assert_tables_match_the_set_definition(work)


# Every memo entry lattice_suite leaves on a default-corpus lattice. Each
# is read again within the suite; a new entry must show that it is.
SUITE_MEMO_KEYS = {
    "both_orders", "complement_masks", "covers", "dblplus_masks",
    "deductive_systems", "hypothesis_mask", "implies_index", "implies_masks",
    "is_complemented", "is_modular", "join_bits", "meet_bits", "odot_masks",
}


def test_verify_leaves_only_the_memo_entries_it_reads():
    for e in default_corpus():
        lat = fresh(e.lattice)
        lattice_suite(lat)
        assert set(lat._memo) == SUITE_MEMO_KEYS, e.name


def test_memo_stores_each_table_once():
    """The views, the least substitution equivalence and the universe are
    converted on each call; the deductive family is stored as one
    DSLattice of masks."""
    for e in default_corpus():
        lat = fresh(e.lattice)
        lattice_suite(lat)
        closure_lattice(lat)
        render_op_table(lat, "implies")
        render_op_table(lat, "odot")
        render_plus_table(lat)
        systems = all_deductive_systems(lat).systems
        complement_sets(lat)
        closed_sets(lat)
        assert lat.universe == frozenset(lat.elements)
        views = {"complement_sets", "closed_sets", "implies_table", "odot_table",
                 "least_substitution", "universe"} & set(lat._memo)
        assert not views, (e.name, views)
        dsl = lat._memo["deductive_systems"]
        assert isinstance(dsl, DSLattice), e.name
        assert dsl.masks == tuple(sum(1 << x for x in s) for s in systems), e.name


def test_witnesses_take_the_lowest_id():
    """fig2 has 12 elements, and frozenset({3, 9}) iterates 9 before 3.
    With a+ = {c, i} (ids 3 and 9) and a->c, a->i both emptied, the
    complement law fails at both; with 0->0 = {c, i}, value stability
    fails at both c. The witness is c."""
    fig2 = make_fig2()
    c, i = fig2.id_of("c"), fig2.id_of("i")
    assert list(frozenset((c, i))) == [i, c]

    work = fresh(fig2)
    comp = list(complement_sets(fig2))
    comp[1] = frozenset((c, i))
    it = [list(row) for row in implies_table(fig2)]
    it[1][c] = it[1][i] = frozenset()
    place(work, "complement_sets", comp)
    place(work, "implies_table", it)
    bad = check_implication_laws(work).find("b complements a gives a->b = a+")
    assert not bad.passed and bad.witness == "a=a b=c"

    work = fresh(fig2)
    it = [list(row) for row in implies_table(fig2)]
    it[0][0] = frozenset((c, i))
    assert frozenset((c, i)) not in (it[0][c], it[0][i])
    place(work, "implies_table", it)
    bad = check_modus_laws(work).find("value stability: c in a->b gives a->c = a->b")
    assert not bad.passed and bad.witness == "a=0 b=0 c=c"


def test_readme_examples_hold(capsys):
    """Each `$ latkit` command in the README that shows output prints
    exactly that output, and the library comments on fig2 are true."""
    text = README.read_text(encoding="utf-8")
    shown = re.findall(r"^\$ latkit ([^\n#]+)\n((?:[^$`\n][^\n]*\n)+)", text, re.M)
    assert len(shown) == 3
    for command, output in shown:
        assert main(command.split()) == 0, command
        assert capsys.readouterr().out == output, command

    lat = make_fig2()
    ids = lambda labels: frozenset(map(lat.id_of, labels))
    g, h = lat.id_of("g"), lat.id_of("h")
    assert "plus(lat, frozenset((g,)))        # frozenset of the ids of b, c, d" in text
    assert plus(lat, frozenset((g,))) == ids("bcd")
    assert 'implies(lat, g, lat.id_of("h"))   # the set h, i, j' in text
    assert implies(lat, g, h) == ids("hij")

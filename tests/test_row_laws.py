"""The implication index and what reads it: the residuation laws decided
one (a, b) row at a time, the within-D rows, and the least substitution
equivalence from which check_substitution_equivalences builds its family."""

import random

from hypothesis import given, settings

from latkit.connectives import (check_adjointness, check_conjunction_laws,
                                check_diamond_residuation, check_implication_laws,
                                check_implication_meet_link, implies_index,
                                implies_masks, implies_table, odot_table)
from latkit.core import is_complemented, members
from latkit.corpus import (default_corpus, enumerate_lattices, make_boolean,
                           make_fig2, make_Mn)
from latkit.deduction import (_block_rows, _least_substitution_rows,
                              _substitution_family, _substitutes, _within_rows)

from .oracles import (brute_adjointness, brute_conjunction_monotone,
                      brute_diamond_residuation, brute_implication_meet_link,
                      brute_implication_monotone, brute_least_substitution,
                      recursive_partitions)
from .strategies import SMALL, corrupted, fresh, lattices_with_tables


@settings(max_examples=80, deadline=None)
@given(lattices_with_tables())
def test_row_decided_laws_match_triple_scans(lat):
    it, ot = implies_table(lat), odot_table(lat)
    assert check_adjointness(lat) == brute_adjointness(lat, it, ot)
    assert check_implication_meet_link(lat) == brute_implication_meet_link(lat, it)
    assert check_diamond_residuation(lat) == brute_diamond_residuation(lat, it)
    law = brute_implication_monotone(lat, it)
    assert check_implication_laws(lat).find(law.name) == law
    law = brute_conjunction_monotone(lat, ot)
    assert check_conjunction_laws(lat).find(law.name) == law


def variants(lat, rng):
    """lat with its real implication table, with two cells flipped, and
    with two cells emptied, each on a fresh lattice with the table in
    its memo before first use."""
    yield fresh(lat)
    for how in ("flip", "empty"):
        table = implies_table(lat)
        for _ in range(2):
            table = corrupted(table, how, *(rng.randrange(lat.n) for _ in range(3)))
        work = fresh(lat)
        work.memo("implies_table", lambda t=table: t)
        yield work


def test_implies_index_rebuilds_implies_masks():
    """Each row lists distinct values with disjoint nonempty columns that
    cover the row, in order of their least column; an implies_table
    placed in the memo reaches the index, read first, and _within_rows."""
    rng = random.Random(23)
    lats = list(SMALL) + [make_fig2(), make_boolean(4), make_Mn(8)]
    for lat in lats:
        full = (1 << lat.n) - 1
        for work in variants(lat, rng):
            index = implies_index(work)
            table = implies_table(work)
            cells = [[None] * lat.n for _ in lat.elements]
            for a, row in enumerate(index):
                lows = [cols & -cols for _, cols in row]
                assert lows == sorted(lows) and len({v for v, _ in row}) == len(row)
                covered = 0
                for v, cols in row:
                    assert cols and not cols & covered, (lat, a)
                    covered |= cols
                    for c in members(cols):
                        cells[a][c] = v
                assert covered == full, (lat, a)
            assert tuple(map(tuple, cells)) == implies_masks(work), lat
            assert cells == [[sum(1 << x for x in s) for s in row] for row in table]
            ds = range(1 << lat.n) if lat.n <= 6 else [rng.getrandbits(lat.n) for _ in range(64)]
            for d in ds:
                want = [sum(1 << y for y in lat.elements
                            if all(d >> x & 1 for x in table[x0][y]))
                        for x0 in lat.elements]
                assert _within_rows(work, d) == want, (lat, d)


def test_least_substitution_rows_match_partition_filter():
    """The closure of the identity equals the intersection of every partition
    with the implication substitution property, on every lattice with
    at most 7 elements, real and with flipped or emptied cells."""
    rng = random.Random(29)
    shapes = set()
    for n in range(2, 8):
        for lat in enumerate_lattices(n):
            for work in variants(lat, rng):
                least = _least_substitution_rows(work)
                assert least == brute_least_substitution(work, implies_table(work)), lat
                shapes.add(len(set(least)))
    assert {1, 2, 7} <= shapes


def test_least_closure_drops_no_substitution_equivalence():
    """The family grown from the least closure lists every partition that
    passes _substitutes, in the order of the partition walk: on the
    default corpus up to 9 elements and on every complemented lattice
    with 7 or 8 elements."""
    lats = [e.lattice for e in default_corpus() if e.lattice.n <= 9]
    lats += [lat for n in (7, 8) for lat in enumerate_lattices(n, cap=8)
             if is_complemented(lat)]
    assert len(lats) == 13 + 89
    walks = {n: [_block_rows(n, p) for p in recursive_partitions(n)]
             for n in {lat.n for lat in lats}}
    sizes = set()
    for lat in lats:
        passing = [rows for rows in walks[lat.n] if _substitutes(lat, rows, rows)]
        assert _substitution_family(lat) == passing, lat
        sizes.add(len(passing))
    assert {1, 2, 8} <= sizes

"""Hypothesis strategies over small lattices and their operation tables."""

from hypothesis import strategies as st

from latkit.complementation import complement_sets
from latkit.connectives import implies_table, odot_table
from latkit.core import Lattice
from latkit.corpus import direct_product, enumerate_lattices

# Every lattice with 2 to 6 elements, up to isomorphism: 24 of them.
SMALL = tuple(lat for n in range(2, 7) for lat in enumerate_lattices(n))


def fresh(lat: Lattice) -> Lattice:
    """A copy of lat with an empty memo."""
    return Lattice(lat.labels, [lat.up_mask(i) for i in lat.elements], name=lat.name)


_MASK_KEYS = {"complement_sets": "complement_masks", "implies_table": "implies_masks",
              "odot_table": "odot_masks"}


def place(work: Lattice, key: str, table) -> None:
    """Put table, a complement_sets, implies_table or odot_table of id
    sets, into the fresh lattice work as the mask table every check and
    view reads; the memo must not hold that table yet."""
    mask = lambda s: sum(1 << x for x in s)
    if key == "complement_sets":
        masks = tuple(map(mask, table))
    else:
        masks = tuple(tuple(map(mask, row)) for row in table)
    assert work.memo(_MASK_KEYS[key], lambda: masks) is masks, key


def corrupted(table, how: str, a: int, b: int, x: int):
    """table with cell (a, b) emptied, with the membership of x in it
    flipped, or holding a copy of cell (a, x)."""
    rows = [list(row) for row in table]
    if how == "empty":
        rows[a][b] = frozenset()
    elif how == "copy":
        rows[a][b] = rows[a][x]
    else:
        rows[a][b] = rows[a][b] ^ {x}
    return tuple(tuple(row) for row in rows)


@st.composite
def lattices_with_tables(draw, max_n: int = 36, extended: bool = False):
    """A lattice of SMALL or the direct product of two with at most max_n
    elements, as a fresh Lattice whose implies_table and odot_table each
    are the real table, the table with one membership of one cell
    flipped, or the table with one cell emptied. Extended, the
    complement_sets table (one row) is drawn the same way after them, and
    each may also hold a cell copied from another cell of its row, which
    makes a row repeat a value."""
    lat = draw(st.sampled_from(SMALL))
    others = [m for m in SMALL if lat.n * m.n <= max_n]
    if others and draw(st.booleans()):
        lat = direct_product(lat, draw(st.sampled_from(others)))
    work = fresh(lat)
    cell = st.integers(0, lat.n - 1)
    memos = [("implies_table", lambda: implies_table(lat)), ("odot_table", lambda: odot_table(lat))]
    hows = ("real", "flip", "empty")
    if extended:
        memos.append(("complement_sets", lambda: (complement_sets(lat),)))
        hows += ("copy",)
    for key, build in memos:
        how = draw(st.sampled_from(hows))
        if how != "real":
            a = 0 if key == "complement_sets" else draw(cell)
            table = corrupted(build(), how, a, draw(cell), draw(cell))
            if key == "complement_sets":
                table = table[0]
            place(work, key, table)
    return work

"""Hypothesis strategies over small lattices and their operation tables."""

from hypothesis import strategies as st

from latkit.connectives import implies_table, odot_table
from latkit.core import Lattice
from latkit.corpus import direct_product, enumerate_lattices

# Every lattice with 2 to 6 elements, up to isomorphism: 24 of them.
SMALL = tuple(lat for n in range(2, 7) for lat in enumerate_lattices(n))


def fresh(lat: Lattice) -> Lattice:
    """A copy of lat with an empty memo."""
    return Lattice(lat.labels, [lat.up_mask(i) for i in lat.elements], name=lat.name)


def corrupted(table, how: str, a: int, b: int, x: int):
    """table with cell (a, b) emptied, or with the membership of x in it
    flipped."""
    rows = [list(row) for row in table]
    rows[a][b] = frozenset() if how == "empty" else rows[a][b] ^ {x}
    return tuple(tuple(row) for row in rows)


@st.composite
def lattices_with_tables(draw):
    """A lattice of SMALL or the direct product of two, as a fresh Lattice
    whose implies_table and odot_table memos each hold the real table,
    the table with one membership of one cell flipped, or the table with
    one cell emptied."""
    lat = draw(st.sampled_from(SMALL))
    if draw(st.booleans()):
        lat = direct_product(lat, draw(st.sampled_from(SMALL)))
    work = fresh(lat)
    cell = st.integers(0, lat.n - 1)
    for key, build in (("implies_table", implies_table), ("odot_table", odot_table)):
        how = draw(st.sampled_from(("real", "flip", "empty")))
        if how != "real":
            table = corrupted(build(lat), how, draw(cell), draw(cell), draw(cell))
            work.memo(key, lambda t=table: t)
    return work

"""Pointwise operations and the three order relations on subsets.

Inside the package a subset is an int mask, bit x set when element x is a
member. The mask_* kernels below work on masks; the public set_* functions
take and return frozensets of ids, convert at the boundary and raise
InvalidParameter for an id outside 0..n-1.

Empty-set behaviour follows the literal quantifier reading: set_le is
vacuously true whenever either side is empty; set_le1 fails only when the
left side is nonempty and the right empty; set_le2 dually.
"""

from __future__ import annotations

from .core import Lattice, members, to_mask, to_set


def join_bits(lat: Lattice) -> tuple[tuple[int, ...], ...]:
    """1 << join(x, y) for every pair, memoised on the lattice."""
    return lat.memo("join_bits", lambda: tuple(tuple(1 << j for j in row)
                                               for row in lat._join))


def meet_bits(lat: Lattice) -> tuple[tuple[int, ...], ...]:
    """1 << meet(x, y) for every pair, memoised on the lattice."""
    return lat.memo("meet_bits", lambda: tuple(tuple(1 << m for m in row)
                                               for row in lat._meet))


def intersect_rows(rows, m: int, full: int) -> int:
    """The AND of rows[x] over the members x of m; full when m is empty."""
    acc = full
    while m and acc:
        low = m & -m
        acc &= rows[low.bit_length() - 1]
        m ^= low
    return acc


def union_rows(rows, m: int) -> int:
    """The OR of rows[x] over the members x of m."""
    acc = 0
    for x in members(m):
        acc |= rows[x]
    return acc


def _pointwise(table, a: int, b: int) -> int:
    ys = members(b)
    out = 0
    for x in members(a):
        row = table[x]
        for y in ys:
            out |= row[y]
    return out


def mask_join(lat: Lattice, a: int, b: int) -> int:
    return _pointwise(join_bits(lat), a, b)


def mask_meet(lat: Lattice, a: int, b: int) -> int:
    return _pointwise(meet_bits(lat), a, b)


def mask_le(lat: Lattice, a: int, b: int) -> bool:
    """b within the common up-set of the members of a."""
    up = lat._up
    return not any(b & ~up[x] for x in members(a))


def mask_le1(lat: Lattice, a: int, b: int) -> bool:
    """a within the union of the down-sets of the members of b."""
    return not a & ~union_rows(lat._down, b)


def mask_le2(lat: Lattice, a: int, b: int) -> bool:
    """b within the union of the up-sets of the members of a."""
    return not b & ~union_rows(lat._up, a)


def set_join(lat: Lattice, a: frozenset, b: frozenset) -> frozenset:
    return to_set(mask_join(lat, to_mask(lat, a), to_mask(lat, b)))


def set_meet(lat: Lattice, a: frozenset, b: frozenset) -> frozenset:
    return to_set(mask_meet(lat, to_mask(lat, a), to_mask(lat, b)))


def set_le(lat: Lattice, a: frozenset, b: frozenset) -> bool:
    """Every member of a is below every member of b."""
    return mask_le(lat, to_mask(lat, a), to_mask(lat, b))


def set_le1(lat: Lattice, a: frozenset, b: frozenset) -> bool:
    """Every member of a is below some member of b."""
    return mask_le1(lat, to_mask(lat, a), to_mask(lat, b))


def set_le2(lat: Lattice, a: frozenset, b: frozenset) -> bool:
    """Every member of b is above some member of a."""
    return mask_le2(lat, to_mask(lat, a), to_mask(lat, b))


def singleton(a: int) -> frozenset:
    return frozenset((a,))


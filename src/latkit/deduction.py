"""Deductive systems, filters, and kernel-inducing equivalences.

A deductive system is a subset containing the top element and closed
under the rule "a in D and implies(a, b) within D put b in D". The family
of deductive systems is intersection closed, ordered by inclusion, with
bottom {1} and top L. Theta(D) relates x and y when both implication sets
between them stay inside D; compatible deductive systems are exactly the
ones whose Theta is a substitution-friendly equivalence with kernel D.

Inside this module subsets are int masks and a relation on elements is
a tuple of row masks, row x holding the y related to x; relations stay
rows from enumeration to verdict. They are rows rather than partitions
because Theta of an arbitrary deductive system can fail transitivity.
The public functions take and return frozensets of ids, and relations as
frozensets of ordered id pairs.

Theta is memoised on the lattice per subset mask and shared by the five
checks and the public theta; the compatibility verdict seeds that memo
from the rows it already holds, so the within-D rows of a system are
built once. Both the within-D rows and the hypothesis step of the
verdict read connectives.implies_index, so they work on the few
distinct values of each row of the implication table instead of on its
n columns; the hypothesis step splits the table's distinct values,
memoised per lattice, into those inside and outside D.

Work is done a row at a time where it can be: _substitutes decides a
relation row by row with two vector operations, _both_ways transposes
a relation once, the two "intersection closed" laws take one system D
at a time with one set containment, and "internally
implication-closed" reads row x of the index for each x in D.

check_substitution_equivalences lists every equivalence with the
implication substitution property: (a, b) related puts each x in a->c in
one class with each y in b->c. On a partition this says that for every
class K and every c the union of a->c over a in K lies in one class, as
(a, b) relates any x in a->c and y in b->c of it; empty sets add
nothing. These equivalences are intersection closed and include the
full relation, so each partition P lies in a least one, C(P) (Freese,
"Computing congruences efficiently", Algebra Universalis 59, 2008).
_close computes it from a stack of dirty classes, at first those of P:
popping a class K, it merges the classes that meet each union over K
with two or more members and pushes the merged class. Each merge is
forced in every E with the property that contains the current classes:
K lies in a class of E, so its union does, so each class meeting it
does. By induction the classes stay within every such E above P. A
stale class on the stack was merged into one pushed later, so at the
end every class was popped after its last change, and each of its
unions, which depend on it alone, still lies in one class: the result
has the property and is C(P).

The least one is C(identity), and from each member E found, the closure
of E with two of its classes merged is found. No F with the property is
missed: from E_0 = C(identity), within F, while E_i is not F a pair of F
lies across two classes of E_i, and merging them gives a larger E_(i+1)
within F. Sorted by the least element of the class of each x in turn,
the family is in the order of the partition walk over range(n), where x
joins each open block in order of least element, then opens one whose
least element x comes after theirs; so reports and witnesses are those
of filtering every partition. chain:10 has 94,829 members, so the
enumeration stops past SUBSTITUTION_CAP.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

from .complementation import complement_masks
from .connectives import implies_index, implies_masks, is_mn_shaped
from .core import (Lattice, _positions_above_below, format_element_set,
                   is_complemented, is_modular, meet_closed_mask, members,
                   subset_key, to_mask, to_set)
from .errors import InvalidParameter, SizeCapExceeded
from .report import SKIPPED, CheckResult, PropertyReport, law, row_law
from .setops import intersect_rows

Relation = frozenset
Rows = tuple

SUBSET_CAP = 20
PARTITION_CAP = 10
SUBSTITUTION_CAP = 1000  # at least Bell(6): no lattice of n <= 6 exceeds it


def _rows(lat: Lattice, rel) -> Rows:
    """Row masks of a relation given as ordered id pairs. Raises
    InvalidParameter for an id outside 0..n-1."""
    n = lat.n
    rows = [0] * n
    for a, b in rel:
        if not (0 <= a < n and 0 <= b < n):
            raise InvalidParameter(f"pair ({a}, {b}) is not in 0..{n - 1}")
        rows[a] |= 1 << b
    return tuple(rows)


def _pairs(rows: Rows) -> Relation:
    return frozenset((x, y) for x, row in enumerate(rows) for y in members(row))


def _block_rows(n: int, blocks) -> Rows:
    """Row masks of the relation "same block"."""
    rows = [0] * n
    for blk in blocks:
        m = 0
        for a in blk:
            m |= 1 << a
        for a in blk:
            rows[a] |= m
    return tuple(rows)


def _is_deductive(lat: Lattice, d: int) -> bool:
    if not d >> lat.top & 1:
        return False
    it = implies_masks(lat)
    outside = members(~d & ((1 << lat.n) - 1))
    for a in members(d):
        row = it[a]
        for b in outside:
            if not row[b] & ~d:
                return False
    return True


def is_deductive_system(lat: Lattice, d: frozenset) -> bool:
    """Raises InvalidParameter for an id outside 0..n-1."""
    return _is_deductive(lat, to_mask(lat, d))


def _order_filter_masks(lat: Lattice) -> list[int]:
    """All nonempty upward-closed subsets; an element may enter only when
    everything strictly above it is already in."""
    n, up = lat.n, lat._up
    # Scan from the top downwards so the elements above are decided first.
    order = sorted(lat.elements, key=lambda i: up[i].bit_count())
    strictly_above = [up[i] & ~(1 << i) for i in range(n)]
    out: list[int] = []

    def walk(k: int, chosen: int):
        if k == n:
            if chosen:
                out.append(chosen)
            return
        e = order[k]
        if not strictly_above[e] & ~chosen:
            walk(k + 1, chosen | 1 << e)
        walk(k + 1, chosen)

    walk(0, 0)
    return sorted(out, key=subset_key)


def _is_order_filter(lat: Lattice, f: int) -> bool:
    up = lat._up
    return f != 0 and not any(up[x] & ~f for x in members(f))


def _filter_masks(lat: Lattice) -> list[int]:
    return [f for f in _order_filter_masks(lat) if meet_closed_mask(lat, f)]


def order_filters(lat: Lattice) -> list[frozenset]:
    return [to_set(f) for f in _order_filter_masks(lat)]


def is_order_filter(lat: Lattice, f: frozenset) -> bool:
    """Raises InvalidParameter for an id outside 0..n-1."""
    return _is_order_filter(lat, to_mask(lat, f))


def _is_filter(lat: Lattice, f: int) -> bool:
    return _is_order_filter(lat, f) and meet_closed_mask(lat, f)


def is_filter(lat: Lattice, f: frozenset) -> bool:
    """Raises InvalidParameter for an id outside 0..n-1."""
    return _is_filter(lat, to_mask(lat, f))


def filters(lat: Lattice) -> list[frozenset]:
    return [to_set(f) for f in _filter_masks(lat)]


@dataclass(frozen=True)
class DSLattice:
    """All deductive systems ordered by inclusion, with meet/join tables
    indexed by position in systems. The k x k tables are built on first
    access: no check reads them."""
    systems: tuple[frozenset, ...]
    bottom_index: int
    top_index: int

    @functools.cached_property
    def _masks(self) -> tuple[int, ...]:
        return tuple(sum(1 << x for x in s) for s in self.systems)

    @functools.cached_property
    def meet_table(self) -> tuple[tuple[int, ...], ...]:
        systems = self._masks
        index = {s: i for i, s in enumerate(systems)}
        try:
            return tuple(tuple(index[a & b] for b in systems) for a in systems)
        except KeyError:
            raise InvalidParameter(
                "internal: intersection of deductive systems escaped the family") from None

    @functools.cached_property
    def join_table(self) -> tuple[tuple[int, ...], ...]:
        # containing[p]: positions of the systems that contain system p.
        # The family is intersection closed, so the join of two systems
        # is the first, and smallest, position containing both.
        containing, _ = _positions_above_below(self._masks)
        return tuple(tuple(((both := ci & cj) & -both).bit_length() - 1 for cj in containing)
                     for ci in containing)


def _deductive_family(lat: Lattice, cap: int) -> tuple[tuple[int, ...], DSLattice]:
    """The masks of all deductive systems in (size, ids) order and their
    DSLattice, memoised on the lattice; the cap is checked on every call.
    Candidates are the order filters, since every deductive system is
    one."""
    if lat.n > cap:
        raise SizeCapExceeded(
            f"deductive-system enumeration needs at most {cap} elements, got {lat.n}")

    def compute():
        systems = tuple(f for f in _order_filter_masks(lat) if _is_deductive(lat, f))
        dsl = DSLattice(tuple(to_set(s) for s in systems), 0,
                        systems.index((1 << lat.n) - 1))
        return systems, dsl
    return lat.memo("deductive_systems", compute)


def all_deductive_systems(lat: Lattice, cap: int = SUBSET_CAP) -> DSLattice:
    """Enumerate deductive systems. The family is memoised on the
    lattice; the cap is checked on every call."""
    return _deductive_family(lat, cap)[1]


def ds_lattice_is_boolean_2n(lat: Lattice) -> bool:
    """For the diamond family: the deductive systems are exactly the
    proper atom subsets plus top, together with the whole carrier, and
    subset inclusion on atom sets is an order isomorphism onto them."""
    if not is_mn_shaped(lat):
        raise InvalidParameter("boolean structure check expects a diamond lattice")
    atoms = [x for x in lat.elements if x not in (lat.bottom, lat.top)]
    found = set(_deductive_family(lat, SUBSET_CAP)[0])
    # Every image is a | {1} or the carrier, so a within b exactly when
    # image(a) within image(b): the order isomorphism needs only equal
    # sets of 2^m images.
    images = {(1 << lat.n) - 1 if r == len(atoms) else to_mask(lat, c) | 1 << lat.top
              for r in range(len(atoms) + 1) for c in itertools.combinations(atoms, r)}
    return images == found and len(found) == 1 << len(atoms)


# -- relations ---------------------------------------------------------

def _within_rows(lat: Lattice, d: int) -> list[int]:
    """Row x holds the y with implies(x, y) within d: the columns of the
    distinct values of row x that lie within d."""
    nd = ~d
    return [sum(cols for v, cols in row if not v & nd) for row in implies_index(lat)]


def _both_ways(rows) -> Rows:
    """The symmetric part of a relation: each row ANDed with the same
    row of the transpose."""
    cols = [0] * len(rows)
    for x, row in enumerate(rows):
        for y in members(row):
            cols[y] |= 1 << x
    return tuple(map(operator.and_, rows, cols))


def _theta(lat: Lattice, d: int) -> Rows:
    """Theta(d) as rows, memoised on the lattice per subset mask; the
    compatibility verdict seeds it from the rows it already holds."""
    thetas = lat.memo("theta", dict)
    try:
        return thetas[d]
    except KeyError:
        rows = thetas[d] = _both_ways(_within_rows(lat, d))
        return rows


def theta(lat: Lattice, d: frozenset) -> Relation:
    """Raises InvalidParameter for an id outside 0..n-1."""
    return _pairs(_theta(lat, to_mask(lat, d)))


def _kernel(lat: Lattice, rows: Rows) -> int:
    return sum(1 << x for x, row in enumerate(rows) if row >> lat.top & 1)


def kernel(lat: Lattice, rel: Relation) -> frozenset:
    return to_set(_kernel(lat, _rows(lat, rel)))


def _is_equivalence(rows: Rows) -> bool:
    for x, row in enumerate(rows):
        if not row >> x & 1:
            return False
        for y in members(row):
            if not rows[y] >> x & 1 or rows[y] & ~row:
                return False
    return True


def is_equivalence(lat: Lattice, rel: Relation) -> bool:
    return _is_equivalence(_rows(lat, rel))


def is_meet_congruence(lat: Lattice, rel: Relation) -> bool:
    rows, meet = _rows(lat, rel), lat._meet
    return _is_equivalence(rows) and all(
        rows[meet[a][c]] >> meet[b][c] & 1
        for a, row in enumerate(rows) for b in members(row) for c in lat.elements)


def relation_of_blocks(blocks) -> Relation:
    pairs = []
    for blk in blocks:
        for a in blk:
            for b in blk:
                pairs.append((a, b))
    return frozenset(pairs)


def _pair_key(rows: Rows):
    """Sort key of a relation: its size, then its sorted pairs."""
    pairs = tuple((x, y) for x, row in enumerate(rows) for y in members(row))
    return len(pairs), pairs


def _meet_congruence_rows(lat: Lattice, cap: int) -> list[Rows]:
    """All meet-compatible equivalences, by the partition walk pruned
    with ok_with: elements are placed in a meet-friendly order so violated
    constraints are final and prune the branch immediately."""
    if lat.n > cap:
        raise SizeCapExceeded(
            f"congruence enumeration needs at most {cap} elements, got {lat.n}")
    # Process in an order where the meet of two placed elements is placed.
    order = sorted(lat.elements, key=lambda i: (lat._down[i].bit_count(), i))
    meet = lat._meet

    def ok_with(blocks, bid, e: int) -> bool:
        # For each m in e's block, e ^ c and m ^ c share a block for every
        # placed c. A pair a, b placed before e needs no check against e:
        # u = a ^ e lies below a and v = b ^ e below b, so both were placed
        # when the later of a and b was, and its checks with c = u and
        # c = v put u, a ^ b ^ e and v in one block.
        me = meet[e]
        for m in blocks[bid[e]]:
            if m != e:
                mm = meet[m]
                for c in bid:
                    if bid[me[c]] != bid[mm[c]]:
                        return False
        return True

    return sorted((_block_rows(lat.n, p) for p in _partitions(order, ok_with)),
                  key=_pair_key)


def all_meet_congruences(lat: Lattice, cap: int = PARTITION_CAP) -> list[Relation]:
    return [_pairs(rows) for rows in _meet_congruence_rows(lat, cap)]


def find_meet_congruence_with_kernel(lat: Lattice, d: frozenset,
                                     cap: int = PARTITION_CAP) -> Relation | None:
    """Raises InvalidParameter for an id outside 0..n-1."""
    want = to_mask(lat, d)
    for rows in _meet_congruence_rows(lat, cap):
        if _kernel(lat, rows) == want:
            return _pairs(rows)
    return None


def _has_sp_plus(lat: Lattice, rows: Rows) -> bool:
    """(a, b) related puts every complement of b in relation with every
    complement of a: the union of b+ over the row of a lies within the
    rows of all members of a+."""
    cm, full = complement_masks(lat), (1 << lat.n) - 1
    for a, row in enumerate(rows):
        reach = 0
        for b in members(row):
            reach |= cm[b]
        if reach & ~intersect_rows(rows, cm[a], full):
            return False
    return True


def has_sp_plus(lat: Lattice, rel: Relation) -> bool:
    return _has_sp_plus(lat, _rows(lat, rel))


class _Intersections(dict):
    """xs -> the AND of rows[x] over the members x of xs, computed on
    first lookup."""

    def __init__(self, rows, full: int):
        super().__init__()
        self.rows, self.full = rows, full

    def __missing__(self, xs: int) -> int:
        out = self[xs] = intersect_rows(self.rows, xs, self.full)
        return out


def _substitutes(lat: Lattice, rows: Rows, target) -> bool:
    """For (a, b) related by rows and every c, each x in a->c relates by
    target to each y in b->c: reach[c], the union of b->c over the row
    of a, lies within allow[c], the target rows of all members of a->c
    intersected. Row a is decided at once: reach | allow equals allow.
    reach is built once per distinct row and each intersection once per
    distinct implication set. Rows with more members go first: on the
    candidates that fail, they are the likeliest to fail."""
    it = implies_masks(lat)
    allowed = _Intersections(target, (1 << lat.n) - 1)
    reaches: dict[int, list[int]] = {}
    for row, a in sorted(zip(rows, range(len(rows))), key=lambda ra: -ra[0].bit_count()):
        if not row:
            continue
        reach = reaches.get(row)
        if reach is None:
            bs = members(row)
            reach = it[bs[0]]
            for b in bs[1:]:
                reach = list(map(operator.or_, reach, it[b]))
            reaches[row] = reach
        allow = list(map(allowed.__getitem__, it[a]))
        if list(map(operator.or_, reach, allow)) != allow:
            return False
    return True


def has_sp_implies(lat: Lattice, rel: Relation) -> bool:
    rows = _rows(lat, rel)
    return _substitutes(lat, rows, rows)


def is_compatible_ds(lat: Lattice, d) -> bool:
    """Deductive system satisfying the two closure conditions that make
    Theta(d) a substitution-friendly equivalence with kernel d. d may be
    any iterable of element ids; raises InvalidParameter for an id
    outside 0..n-1."""
    return _is_compatible(lat, to_mask(lat, d))


def _is_compatible(lat: Lattice, d: int) -> bool:
    """is_compatible_ds on a mask; verdicts are memoised on the lattice."""
    verdicts = lat.memo("compatible_ds", dict)
    try:
        return verdicts[d]
    except KeyError:
        ok = verdicts[d] = _compatible_verdict(lat, d)
        return ok


def _compatible_verdict(lat: Lattice, d: int) -> bool:
    if not _is_deductive(lat, d):
        return False
    full = (1 << lat.n) - 1
    sub = _within_rows(lat, d)
    # For a hypothesis set X = a->b within d, within(X) holds the t with
    # x->t within d for every x in X; no implication set outside d may
    # lie inside it.
    values = lat.memo("implies_values",
                      lambda: {v for row in implies_index(lat) for v, _ in row})
    outside = [v for v in values if v & ~d]
    for xs in values:
        if not xs & ~d:
            within = intersect_rows(sub, xs, full)
            if any(not m & ~within for m in outside):
                return False

    thetas = lat.memo("theta", dict)
    if d not in thetas:
        thetas[d] = _both_ways(sub)
    return _substitutes(lat, thetas[d], sub)


def compatible_systems(lat: Lattice, cap: int = SUBSET_CAP) -> list[frozenset]:
    masks, dsl = _deductive_family(lat, cap)
    return [s for m, s in zip(masks, dsl.systems) if _is_compatible(lat, m)]


# -- partitions and closures -------------------------------------------
#
# _partitions is the one partition walk: all_partitions lists every
# partition, and the meet-congruence search prunes it with its fits test.
# Each id in turn joins every open block, oldest first, then a new one.

def _partitions(order, fits=None) -> list[tuple[tuple[int, ...], ...]]:
    """Every partition of the ids in order, as tuples of blocks, in walk
    order. fits(blocks, bid, e) is asked after each placement of e, with
    bid mapping every placed id to its block index; a false answer prunes
    the branch."""
    blocks: list[list[int]] = []
    bid: dict[int, int] = {}
    out = []

    def walk(k: int):
        if k == len(order):
            out.append(tuple(map(tuple, blocks)))
            return
        e = order[k]
        for i in range(len(blocks) + 1):
            if i == len(blocks):
                blocks.append([])
            blocks[i].append(e)
            bid[e] = i
            if fits is None or fits(blocks, bid, e):
                walk(k + 1)
            blocks[i].pop()
        blocks.pop()
        del bid[e]

    walk(0)
    return out


def all_partitions(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every partition of range(n), as tuples of blocks."""
    return _partitions(range(n))


def _close(it, unions: dict, cls: list[int], dirty: list[int]) -> Rows:
    """C(cls) of the module docstring, computed in place, for cls a
    partition as rows where only the classes in dirty may have a union
    across classes. unions memoises the unions of each class."""
    while dirty:
        k = dirty.pop()
        if cls[(k & -k).bit_length() - 1] != k:
            continue
        us = unions.get(k)
        if us is None:
            bs = members(k)
            reach = it[bs[0]]
            for b in bs[1:]:
                reach = list(map(operator.or_, reach, it[b]))
            us = unions[k] = tuple(m for m in set(reach) if m & (m - 1))
        for m in us:
            joined = cls[(m & -m).bit_length() - 1]
            if not m & ~joined:
                continue
            for x in members(m & ~joined):
                joined |= cls[x]
            for x in members(joined):
                cls[x] = joined
            dirty.append(joined)
    return tuple(cls)


def _least_substitution_rows(lat: Lattice) -> Rows:
    """The least equivalence with the implication substitution property,
    as rows, memoised on the lattice: the closure of the identity."""
    def compute():
        ids = [1 << x for x in range(lat.n)]
        return _close(implies_masks(lat), {}, ids, ids[:])
    return lat.memo("least_substitution", compute)


def _substitution_family(lat: Lattice) -> list[Rows]:
    """Every equivalence with the implication substitution property, as
    rows in walk order (module docstring); raises SizeCapExceeded past
    SUBSTITUTION_CAP members."""
    it, unions = implies_masks(lat), {}
    family = [_least_substitution_rows(lat)]
    seen = set(family)
    for rows in family:
        classes = list(dict.fromkeys(rows))
        for i, k in enumerate(classes):
            for k2 in classes[i + 1:]:
                cls, both = list(rows), k | k2
                for x in members(both):
                    cls[x] = both
                out = _close(it, unions, cls, [both])
                if out not in seen:
                    if len(seen) == SUBSTITUTION_CAP:
                        raise SizeCapExceeded(
                            f"more than {SUBSTITUTION_CAP} substitution equivalences")
                    seen.add(out)
                    family.append(out)
    return sorted(family, key=lambda rows: tuple(r & -r for r in rows))


# -- quantified checks -------------------------------------------------

def _skips_over_cap(title: str):
    """Decorator for a check that enumerates under a size cap. The check
    returns its results, which become the report `title`; a cap exceeded
    on the way becomes one informational "skipped" entry instead."""
    def wrap(check):
        @functools.wraps(check)
        def run(lat: Lattice, *args, **kwargs) -> PropertyReport:
            try:
                results = check(lat, *args, **kwargs)
            except SizeCapExceeded as exc:
                results = (CheckResult(SKIPPED, True, str(exc), asserted=False),)
            return PropertyReport(title, results)
        return run
    return wrap


def _sets(lat: Lattice, *names: str):
    """Witness for law(): the leading subset masks of a tuple as "D=... E=..."."""
    return lambda *masks: " ".join(f"{k}={format_element_set(lat, members(m))}"
                                   for k, m in zip(names, masks))


def _intersection_law(lat: Lattice, name: str, family, asserted: bool) -> CheckResult:
    """law() "D & E in family" over the pairs (D, E) of family, decided
    one row D at a time."""
    inside, sets = set(family), _sets(lat, "D", "E")

    def escapes(d):
        if inside.issuperset([d & e for e in family]):
            return 0
        return sum(1 << j for j, e in enumerate(family) if d & e not in inside)
    return row_law(name, escapes, ((d,) for d in family), asserted,
                   lambda d, j: sets(d, family[j]))


def _within(a: Rows, b: Rows) -> bool:
    """Relation a is contained in relation b."""
    return all(map(operator.eq, map(operator.and_, a, b), a))


@_skips_over_cap("filters vs deductive systems")
def check_filters_vs_deductive_systems(lat: Lattice,
                                       cap: int = SUBSET_CAP) -> tuple[CheckResult, ...]:
    """Every deductive system is an order filter; internally implication
    closed ones are filters; on modular lattices every filter is one."""
    comp = is_complemented(lat)
    modular = comp and is_modular(lat)
    systems = [(d,) for d in _deductive_family(lat, cap)[0]]
    index = implies_index(lat)

    def implication_closed(d):
        # Row x of the index, for each x in d: no value outside d at a
        # column inside d.
        nd = ~d
        return not any(v & nd and cols & d for x in members(d) for v, cols in index[x])

    return (
        law("every deductive system an order filter",
            lambda d: _is_order_filter(lat, d), systems, comp, _sets(lat, "D")),
        law("internally implication-closed systems are filters",
            lambda d: not implication_closed(d) or _is_filter(lat, d),
            systems, comp, _sets(lat, "D")),
        law("every filter a deductive system", lambda f: _is_deductive(lat, f),
            ((f,) for f in _filter_masks(lat)), modular, _sets(lat, "F")),
    )


@_skips_over_cap("deductive family")
def check_deductive_family(lat: Lattice, cap: int = SUBSET_CAP) -> tuple[CheckResult, ...]:
    """Family structure: intersection closure, bounds, Theta reflexivity
    and symmetry, and the same closure for compatible systems."""
    comp = is_complemented(lat)
    systems, dsl = _deductive_family(lat, cap)
    compat = [d for d in systems if _is_compatible(lat, d)]
    full = (1 << lat.n) - 1

    def reflexive(rows):
        return all(row >> x & 1 for x, row in enumerate(rows))

    def theta_witness(d, rows):
        return f"D={format_element_set(lat, members(d))} not " + (
            "reflexive" if not reflexive(rows) else "symmetric")

    return (
        CheckResult("bottom is {1}", systems[dsl.bottom_index] == 1 << lat.top,
                    None, comp),
        CheckResult("top is the carrier", systems[dsl.top_index] == full,
                    None, comp),
        _intersection_law(lat, "intersection closed", systems, comp),
        law("theta reflexive and symmetric",
            lambda d, rows: reflexive(rows) and _both_ways(rows) == rows,
            ((d, _theta(lat, d)) for d in systems), comp, theta_witness),
        CheckResult("carrier compatible", full in compat, None, comp),
        # A & B is a compatible system exactly when it is in compat.
        _intersection_law(lat, "compatible systems intersection closed", compat, comp),
    )


@_skips_over_cap("meet congruence kernels")
def check_meet_congruence_kernels(lat: Lattice,
                                  cap: int = PARTITION_CAP) -> tuple[CheckResult, ...]:
    """Kernels of meet congruences are deductive systems, and theta of the
    kernel refines the congruence (complemented modular lattices)."""
    asserted = is_complemented(lat) and is_modular(lat)
    kernels = [(_kernel(lat, rows), rows) for rows in _meet_congruence_rows(lat, cap)]
    return (
        law("kernel of every meet congruence a deductive system",
            lambda k, rows: _is_deductive(lat, k), kernels, asserted,
            _sets(lat, "kernel")),
        law("theta of kernel within the congruence",
            lambda k, rows: _within(_theta(lat, k), rows),
            kernels, asserted, _sets(lat, "kernel")),
    )


@_skips_over_cap("substitution equivalences (exhaustive)")
def check_substitution_equivalences(lat: Lattice, seed: int = 0) -> tuple[CheckResult, ...]:
    """Equivalences with the implication substitution property: they have
    the complement substitution property, their kernel is a deductive
    system, and they refine theta of that kernel. seed has no effect; it
    stays only because bench/probe.py passes it."""
    asserted = is_complemented(lat)
    kernels = [(_kernel(lat, rows), rows) for rows in _substitution_family(lat)]
    return (
        law("implication substitution gives complement substitution",
            lambda k, rows: _has_sp_plus(lat, rows), kernels, asserted,
            lambda k, rows: f"classes={len(set(rows))}"),
        law("kernel a deductive system", lambda k, rows: _is_deductive(lat, k),
            kernels, asserted, _sets(lat, "kernel")),
        law("relation within theta of kernel",
            lambda k, rows: _within(rows, _theta(lat, k)),
            kernels, asserted, _sets(lat, "kernel")),
        CheckResult(f"surveyed {len(kernels)} substitution equivalences", True,
                    None, asserted=False),
    )


@_skips_over_cap("compatible kernel recovery")
def check_compatible_kernel_recovery(lat: Lattice,
                                     cap: int = SUBSET_CAP) -> tuple[CheckResult, ...]:
    """For every compatible deductive system D: theta(D) is an equivalence
    with the implication substitution property and kernel exactly D. For
    the other systems the transitivity verdict is recorded only."""
    comp = is_complemented(lat)
    compat, other = [], []
    for d in _deductive_family(lat, cap)[0]:
        (compat if _is_compatible(lat, d) else other).append((d, _theta(lat, d)))
    other_transitive = sum(_is_equivalence(rows) for _, rows in other)

    return (
        law("theta of compatible systems an equivalence",
            lambda d, rows: _is_equivalence(rows), compat, comp, _sets(lat, "D")),
        law("theta of compatible systems has implication substitution",
            lambda d, rows: _substitutes(lat, rows, rows), compat, comp, _sets(lat, "D")),
        law("kernel of theta recovers the system", lambda d, rows: _kernel(lat, rows) == d,
            compat, comp, _sets(lat, "D")),
        CheckResult(
            f"{len(compat)} compatible systems; theta transitive for "
            f"{other_transitive} of {len(other)} non-compatible ones",
            True, None, asserted=False),
    )

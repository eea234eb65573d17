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

The within-D rows and Theta are memoised on the lattice per subset
mask, and Theta reads the within-D rows; both are shared by the five
checks, the compatibility verdict and the public theta. The verdict
itself is not memoised: verify decides each system once. The within-D
rows read connectives.implies_index, so they work on the few distinct
values of each row of the implication table, not on its n columns. The
hypothesis step of the verdict reads no rows: on a deductive D it fails
exactly when the empty set and a set outside D are values of the table.

One substitution engine serves the complement and implication tables.
For a table of cells, table[a][c] a subset mask, a relation has the
substitution property of the table when (a, b) related puts each x in
table[a][c] in relation with each y in table[b][c], for every column c.
The complement substitution property (SP+) is that of the one-column
table of complement sets a+; the implication substitution property
(SP->) is that of a -> c. _substitutes decides the property row by row
with two vector operations, and _close closes a partition under SP->;
no other code does either. The meet congruences have the property of
setops.meet_bits, whose cell (a, c) is {a ^ c}, but they are built as
intersections of the n ~f (below), and only the tests' oracle
is_meet_congruence runs _substitutes on that table.

_close computes the least equivalence with the property above a
partition P, C(P). On a partition the property says
that for every class K and every c the union of table[a][c] over a in
K lies in one class, as (a, b) relates any x and y of it; empty cells
add nothing. These equivalences are intersection closed and include
the full relation, so C(P) exists (Freese, "Computing congruences
efficiently", Algebra Universalis 59, 2008). _close computes it from a
stack of dirty classes, at first those of P that may break the
property: popping a class K, it merges the classes that meet each union
over K with two or more members and pushes the merged class. Each merge
is forced in every E with the property that contains the current
classes: K lies in a class of E, so its union does, so each class
meeting it does. By induction the classes stay within every such E
above P. A stale class on the stack was merged into one pushed later,
so at the end every class was popped after its last change, and each of
its unions, which depend on it alone, still lies in one class: the
result has the property and is C(P).

The kernel K of a meet congruence, the class of the top, is a filter:
x, y in K give x ^ y related to 1 ^ y = y, so to 1, and x in K with
x <= y gives x = x ^ y related to 1 ^ y = y. A filter of a finite
lattice is up its meet f, so d is a kernel only if d is up f. Then
theta_f, relating x and y when x ^ f = y ^ f, is a meet congruence with
kernel up f, within every meet congruence E with that kernel: f E 1, so
x = x ^ 1 E x ^ f = y ^ f E y. So find_meet_congruence_with_kernel
returns theta_f, the least answer, smaller than every other and first
in _pair_key order (Graetzer, "Lattice Theory: Foundation", 2011), and
check_meet_congruence_kernels reads the n theta_f alone.

The meet congruences are exactly the intersections of the n two-class
equivalences ~f, x ~f y when f <= x iff f <= y: every semilattice is a
subdirect product of two-element ones (Graetzer, same book). Each ~f is
a meet congruence, as f <= x ^ c iff f <= x and f <= c. Conversely let
E be a meet congruence and x, y in different classes, and let F be the
z with x ^ z E x. F holds x; it is up-closed, as z <= w gives x ^ w E
x ^ z ^ w = x ^ z E x; meet closed, as x ^ z ^ w E x ^ w E x; and a
union of E-classes, as z E z' gives x ^ z E x ^ z'. So F is up f for
its meet f, and E lies within ~f. If y is outside F, ~f separates x and
y. Otherwise x ^ y E x, and the same set built from y misses x, or x E
x ^ y E y; its ~g separates them. So E is the intersection of the ~f
that contain it, and all_meet_congruences closes the n ~f under
intersection from the full relation, the idiom of
complementation.closed_masks.

check_substitution_equivalences lists every equivalence with SP->. As
sets of pairs i < j they are the closed sets of the operator C above
(the least one holding a set of pairs is C of the partition the pairs
generate), and _substitution_family walks them by Fast Close-by-One
(Outrata and Vychodil, "Fast algorithm for computing fixpoints of
Galois connections induced by object-attribute relational data",
Information Sciences 185, 2012), with the pairs in lex order and Y_p
the pairs before p. It starts at C(identity), and from a member E
generated by the pair g it tries each pair p after g that is not in E
and keeps F = C(E + p), generated by p, when F adds no pair of Y_p.
Every member is found once. For a member F other than C(identity), let
p be the last pair with E = C(F & Y_p) != F. Then p is in F and not in
E, C(E + p) = C(F & Y_(p+1)) = F, and E & Y_p = F & Y_p, so F passes as
a child of E. C(E & Y_p) = E, so E's own generating pair comes before p
and E tries p; by induction on the last such pair, E is found. And a
child F of E by p determines E and p: E is the closure of its pairs up
to its generating pair, so E = C(F & Y_p) != F while C(F & Y_(p+1))
= C(E + p) = F, and p is the last pair with C(F & Y_p) != F. Two
prunings skip closures that would fail the test. A pair (i, j) whose
ends are not both least in their classes, i' and j', merges the same
classes as (i', j') in sorted order, a pair outside E and before (i, j);
so only pairs of class leaders are tried. And a closure C(E + p) that
adds a pair of Y_p is passed down to E's children: a descendant D holds
E, so C(D + p) holds that closure and fails while the closure's pairs
of Y_p are not all in D, and then p is skipped. The walk runs on an
explicit stack. Sorted by the least element of the class of each x in
turn, the family is in the order of the partition walk over range(n),
where x joins each open block in order of least element, then opens
one whose least element x comes after theirs; so reports and witnesses
are those of filtering every partition. chain:10 has 94,829 members,
so the enumeration stops past SUBSTITUTION_CAP.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

from .complementation import complement_masks
from .connectives import implies_index, implies_masks, is_mn_shaped
from .core import (Lattice, _closed_masks, _positions_above_below, check_ids,
                   format_element_set, is_complemented, is_modular,
                   members, subset_key, to_mask, to_set)
from .errors import InvalidParameter, SizeCapExceeded
from .report import SKIPPED, CheckResult, PropertyReport, law
from .setops import intersect_rows

Relation = frozenset
Rows = tuple

SUBSET_CAP = 20
PARTITION_CAP = 10  # bounds no work in verify; kept only for byte-stable output
SUBSTITUTION_CAP = 1000  # at least Bell(6): no lattice of n <= 6 exceeds it


def _rows(lat: Lattice, rel) -> Rows:
    """Row masks of a relation given as ordered id pairs. Raises
    InvalidParameter for a member that is not a pair of ids in 0..n-1."""
    rows = [0] * lat.n
    for pair in rel:
        try:
            a, b = pair
        except (TypeError, ValueError):
            raise InvalidParameter(f"{pair!r} is not a pair of element ids") from None
        check_ids(lat, a, b)
        rows[a] |= 1 << b
    return tuple(rows)


def _pairs(rows: Rows) -> Relation:
    return frozenset((x, y) for x, row in enumerate(rows) for y in members(row))


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
    return sorted(filter(None, _closed_masks(order, strictly_above)), key=subset_key)


def _is_order_filter(lat: Lattice, f: int) -> bool:
    up = lat._up
    return f != 0 and not any(up[x] & ~f for x in members(f))


def _filter_masks(lat: Lattice) -> list[int]:
    """The n up-sets: a filter of a finite lattice is up its meet."""
    return sorted(lat._up, key=subset_key)


def is_order_filter(lat: Lattice, f: frozenset) -> bool:
    """Raises InvalidParameter for an id outside 0..n-1."""
    return _is_order_filter(lat, to_mask(lat, f))


def _is_filter(lat: Lattice, f: int) -> bool:
    return f in lat._up


def is_filter(lat: Lattice, f: frozenset) -> bool:
    """Raises InvalidParameter for an id outside 0..n-1."""
    return _is_filter(lat, to_mask(lat, f))


def filters(lat: Lattice) -> list[frozenset]:
    return [to_set(f) for f in _filter_masks(lat)]


@dataclass(frozen=True)
class DSLattice:
    """All deductive systems ordered by inclusion: masks in (size, ids)
    order, so the least member comes first, as the family is intersection
    closed, and the carrier last (check_deductive_family proves both).
    The meet/join tables are indexed by position in masks. systems, the
    frozenset view, and the k x k tables are built on first access: no
    check reads them."""
    masks: tuple[int, ...]

    @property
    def bottom_index(self) -> int:
        return 0

    @property
    def top_index(self) -> int:
        return len(self.masks) - 1

    @functools.cached_property
    def systems(self) -> tuple[frozenset, ...]:
        return tuple(map(to_set, self.masks))

    @functools.cached_property
    def meet_table(self) -> tuple[tuple[int, ...], ...]:
        index = {s: i for i, s in enumerate(self.masks)}
        return tuple(tuple(index[a & b] for b in self.masks) for a in self.masks)

    @functools.cached_property
    def join_table(self) -> tuple[tuple[int, ...], ...]:
        # containing[p]: positions of the systems that contain system p.
        # The family is intersection closed, so the join of two systems
        # is the first, and smallest, position containing both.
        containing, _ = _positions_above_below(self.masks)
        return tuple(tuple(((both := ci & cj) & -both).bit_length() - 1 for cj in containing)
                     for ci in containing)


def all_deductive_systems(lat: Lattice, cap: int = SUBSET_CAP) -> DSLattice:
    """Enumerate deductive systems. Candidates are the order filters,
    since every deductive system is one. The family is memoised on the
    lattice; the cap is checked on every call."""
    if lat.n > cap:
        raise SizeCapExceeded(
            f"deductive-system enumeration needs at most {cap} elements, got {lat.n}")

    def compute():
        return DSLattice(tuple(f for f in _order_filter_masks(lat) if _is_deductive(lat, f)))
    return lat.memo("deductive_systems", compute)


def ds_lattice_is_boolean_2n(lat: Lattice) -> bool:
    """For the diamond family: the deductive systems are exactly the
    proper atom subsets plus top, together with the whole carrier, and
    subset inclusion on atom sets is an order isomorphism onto them."""
    if not is_mn_shaped(lat):
        raise InvalidParameter("boolean structure check expects a diamond lattice")
    atoms = [x for x in lat.elements if x not in (lat.bottom, lat.top)]
    found = set(all_deductive_systems(lat).masks)
    # Every image is a | {1} or the carrier, so a within b exactly when
    # image(a) within image(b): the order isomorphism needs only equal
    # sets of 2^m images.
    images = {(1 << lat.n) - 1 if r == len(atoms) else to_mask(lat, c) | 1 << lat.top
              for r in range(len(atoms) + 1) for c in itertools.combinations(atoms, r)}
    return images == found and len(found) == 1 << len(atoms)


# -- relations ---------------------------------------------------------

def _within_rows(lat: Lattice, d: int) -> list[int]:
    """Row x holds the y with implies(x, y) within d: the columns of the
    distinct values of row x that lie within d. Memoised on the lattice
    per subset mask."""
    found = lat.memo("within_rows", dict)
    try:
        return found[d]
    except KeyError:
        nd = ~d
        rows = found[d] = [sum(cols for v, cols in row if not v & nd)
                           for row in implies_index(lat)]
        return rows


def _both_ways(rows) -> Rows:
    """The symmetric part of a relation: each row ANDed with the same
    row of the transpose."""
    cols = [0] * len(rows)
    for x, row in enumerate(rows):
        for y in members(row):
            cols[y] |= 1 << x
    return tuple(map(operator.and_, rows, cols))


def _theta(lat: Lattice, d: int) -> Rows:
    """Theta(d) as rows, the symmetric part of the within-d rows.
    Memoised on the lattice per subset mask."""
    found = lat.memo("theta", dict)
    try:
        return found[d]
    except KeyError:
        rows = found[d] = _both_ways(_within_rows(lat, d))
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


def _pair_key(rows: Rows):
    """Sort key of a relation: its size, then its sorted pairs."""
    pairs = tuple((x, y) for x, row in enumerate(rows) for y in members(row))
    return len(pairs), pairs


def _meet_congruence_rows(lat: Lattice, cap: int) -> list[Rows]:
    """All meet congruences as rows, in _pair_key order: the intersection
    closure of the n two-class congruences ~f (module docstring), grown
    from the full relation one up-set at a time."""
    if lat.n > cap:
        raise SizeCapExceeded(
            f"congruence enumeration needs at most {cap} elements, got {lat.n}")
    full = (1 << lat.n) - 1
    fam = {(full,) * lat.n}
    for u in lat._up:
        two = tuple(u if u >> x & 1 else full & ~u for x in lat.elements)
        fam |= {tuple(map(operator.and_, rows, two)) for rows in fam}
    return sorted(fam, key=_pair_key)


def all_meet_congruences(lat: Lattice, cap: int = PARTITION_CAP) -> list[Relation]:
    return [_pairs(rows) for rows in _meet_congruence_rows(lat, cap)]


def find_meet_congruence_with_kernel(lat: Lattice, d: frozenset) -> Relation | None:
    """The least meet congruence with kernel d, the first in _pair_key
    order, or None: theta_f when d is up f (module docstring). Raises
    InvalidParameter for an id outside 0..n-1."""
    want = to_mask(lat, d)
    return _pairs(_theta_f(lat, lat._up.index(want))) if want in lat._up else None


def _theta_f(lat: Lattice, f: int) -> Rows:
    """theta_f as rows: x and y related when x ^ f = y ^ f."""
    below = [lat._meet[x][f] for x in lat.elements]
    return tuple(sum(1 << y for y, v in enumerate(below) if v == u) for u in below)


def _has_sp_plus(lat: Lattice, rows: Rows) -> bool:
    """(a, b) related puts every complement of a in relation with every
    complement of b: the substitution property of the one-column table
    of complement sets."""
    return _substitutes(tuple((m,) for m in complement_masks(lat)), rows, rows)


def has_sp_plus(lat: Lattice, rel: Relation) -> bool:
    return _has_sp_plus(lat, _rows(lat, rel))


def _column_union(table, m: int):
    """The column-wise OR of table[b] over the members b of the nonempty
    mask m."""
    bs = members(m)
    out = table[bs[0]]
    for b in bs[1:]:
        out = list(map(operator.or_, out, table[b]))
    return out


def _substitutes(table, rows: Rows, target) -> bool:
    """For (a, b) related by rows and every column c, each x in
    table[a][c] relates by target to each y in table[b][c]: reach[c], the
    union of table[b][c] over the row of a, lies within allow[c], the
    target rows of all members of table[a][c] intersected. Row a is
    decided at once: reach | allow equals allow. Both are cached in a
    dict for the call: reach once per distinct row, each intersection
    once per distinct cell."""
    full = (1 << len(table)) - 1
    allowed, reached = {}, {}
    for a, row in enumerate(rows):
        if row:
            allow = []
            for xs in table[a]:
                m = allowed.get(xs)
                if m is None:
                    m = allowed[xs] = intersect_rows(target, xs, full)
                allow.append(m)
            reach = reached.get(row)
            if reach is None:
                reach = reached[row] = _column_union(table, row)
            if list(map(operator.or_, reach, allow)) != allow:
                return False
    return True


def has_sp_implies(lat: Lattice, rel: Relation) -> bool:
    rows = _rows(lat, rel)
    return _substitutes(implies_masks(lat), rows, rows)


def is_compatible_ds(lat: Lattice, d) -> bool:
    """Deductive system satisfying the two closure conditions that make
    Theta(d) a substitution-friendly equivalence with kernel d. d may be
    any iterable of element ids; raises InvalidParameter for an id
    outside 0..n-1."""
    m = to_mask(lat, d)
    return _is_deductive(lat, m) and _is_compatible(lat, m)


def _is_compatible(lat: Lattice, d: int) -> bool:
    """is_compatible_ds on the mask of a deductive system, such as a
    member of all_deductive_systems; deductivity is not decided again.
    Hypothesis step: for a value X within d, no value outside d lies
    within W(X), the t with x->t within d for all x in X. As d is
    deductive, W(X) lies within d unless X is empty (within-d rows of
    members of d do), and W of the empty X is the carrier: the step fails
    when the union of the values, taken only if one is empty, leaves d.
    That union is memoised."""
    def hypothesis_mask():
        values = [v for row in implies_index(lat) for v, _ in row]
        return functools.reduce(operator.or_, values) if 0 in values else 0
    if lat.memo("hypothesis_mask", hypothesis_mask) & ~d:
        return False
    return _substitutes(implies_masks(lat), _theta(lat, d), _within_rows(lat, d))


def compatible_systems(lat: Lattice, cap: int = SUBSET_CAP) -> list[frozenset]:
    return [to_set(d) for d in all_deductive_systems(lat, cap).masks if _is_compatible(lat, d)]


# -- closures ----------------------------------------------------------

def _close(table, unions: dict, cls: list[int], dirty: list[int]) -> Rows:
    """C(cls) of the module docstring for the cell table, computed in
    place, for cls a partition as rows where only the classes in dirty
    may have a union across classes. unions memoises the unions of each
    class."""
    while dirty:
        k = dirty.pop()
        if cls[(k & -k).bit_length() - 1] != k:
            continue
        us = unions.get(k)
        if us is None:
            us = unions[k] = tuple(m for m in set(_column_union(table, k)) if m & (m - 1))
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
    as rows: the closure of the identity."""
    ids = [1 << x for x in range(lat.n)]
    return _close(implies_masks(lat), {}, ids, ids[:])


def _substitution_family(lat: Lattice) -> list[Rows]:
    """Every equivalence with the implication substitution property, as
    rows in walk order, by Fast Close-by-One (module docstring); raises
    SizeCapExceeded past SUBSTITUTION_CAP members."""
    it, unions, n = implies_masks(lat), {}, lat.n
    # The pairs i < j in lex order; the pair (x, x + 1) has index at[x].
    at = [x * (2 * n - x - 1) // 2 for x in range(n)]

    def pairs(rows: Rows) -> int:
        pm = 0
        for x, row in enumerate(rows):
            pm |= (row >> (x + 1)) << at[x]
        return pm

    least = _least_substitution_rows(lat)
    family = [least]
    stack = [(least, pairs(least), -1, {})]
    while stack:
        rows, pm, gen, failed = stack.pop()
        failed = dict(failed)
        leads = [x for x, k in enumerate(rows) if k & -k == 1 << x]
        children = []
        for t, i in enumerate(leads):
            for j in leads[t + 1:]:
                p = at[i] + j - i - 1
                below = (1 << p) - 1
                if p <= gen or failed.get(p, 0) & below & ~pm:
                    continue
                cls, both = list(rows), rows[i] | rows[j]
                for x in members(both):
                    cls[x] = both
                out = _close(it, unions, cls, [both])
                out_pm = pairs(out)
                if (out_pm ^ pm) & below:
                    failed[p] = out_pm
                else:
                    children.append((out, out_pm, p))
        for out, out_pm, p in children:
            if len(family) == SUBSTITUTION_CAP:
                raise SizeCapExceeded(f"more than {SUBSTITUTION_CAP} substitution equivalences")
            family.append(out)
            stack.append((out, out_pm, p, failed))
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


def _within(a: Rows, b: Rows) -> bool:
    """Relation a is contained in relation b."""
    return all(map(operator.eq, map(operator.and_, a, b), a))


@_skips_over_cap("filters vs deductive systems")
def check_filters_vs_deductive_systems(lat: Lattice,
                                       cap: int = SUBSET_CAP) -> tuple[CheckResult, ...]:
    """Every deductive system is an order filter; internally implication
    closed ones are filters; on modular lattices every filter is one.
    The second law holds on every real table: D is an order filter, as
    every candidate is, and for x, y in D, x->(x^y) = x+ v (x ^ y) = x->y
    lies within D, so the deductive D holds x ^ y. It stays a scan
    because a placed table can break it."""
    comp = is_complemented(lat)
    modular = comp and is_modular(lat)
    systems = [(d,) for d in all_deductive_systems(lat, cap).masks]

    def implication_closed(d):
        within = _within_rows(lat, d)
        return not any(d & ~within[x] for x in members(d))

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
    """Family structure: the bounds, intersection closure, Theta
    reflexivity and symmetry, and the same closure for compatible
    systems. Reflexivity is decided on the least system, first in the
    scan and within every other (intersection closed, below): Theta(D) is
    reflexive when every x->x lies within D, and then so is each larger one.
    Only "bottom is {1}" and reflexivity are decided; the rest hold for
    every implication table and are reported as passed:
    - Top is the carrier: it holds 1 and has nothing outside it, so
      _is_deductive accepts it, and it comes last in (size, ids) order.
    - Intersection closed: D & E is an up-set holding 1, so a candidate.
      For a in D & E and b outside it, say outside D, a->b is not within
      D, so not within D & E.
    - Theta symmetric: _theta is _both_ways(...).
    - Carrier compatible: every within-row is full, no table value lies
      outside the carrier, and the substitution target is the full
      relation, so every step of _is_compatible passes.
    - Compatible systems intersection closed: for compatible D, E and F =
      D & E, within_F = within_D & within_E, so Theta(F) = Theta(D) &
      Theta(E) and F's substitution step follows from D's and E's. F's
      hypothesis step fails only if the empty set and a value outside F,
      so outside D or E, are values, and then D's or E's fails."""
    comp = is_complemented(lat)
    systems = all_deductive_systems(lat, cap).masks
    return (
        CheckResult("bottom is {1}", systems[0] == 1 << lat.top, None, comp),
        CheckResult("top is the carrier", True, None, comp),
        CheckResult("intersection closed", True, None, comp),
        law("theta reflexive and symmetric",
            lambda d, rows: all(row >> x & 1 for x, row in enumerate(rows)),
            [(systems[0], _theta(lat, systems[0]))], comp,
            lambda d, rows: f"{_sets(lat, 'D')(d)} not reflexive"),
        CheckResult("carrier compatible", True, None, comp),
        CheckResult("compatible systems intersection closed", True, None, comp),
    )


@_skips_over_cap("meet congruence kernels")
def check_meet_congruence_kernels(lat: Lattice,
                                  cap: int = PARTITION_CAP) -> tuple[CheckResult, ...]:
    """Kernels of meet congruences are deductive systems, and theta of the
    kernel refines the congruence (complemented modular lattices), both
    decided on the n theta_f in _pair_key order: each E with kernel up f
    holds theta_f and comes after it (module docstring), and a law failing
    on E fails on theta_f, so the laws run over every E, each an
    intersection of the ~f, fail first alike."""
    if lat.n > cap:
        raise SizeCapExceeded(
            f"congruence enumeration needs at most {cap} elements, got {lat.n}")
    asserted = is_complemented(lat) and is_modular(lat)
    kernels = sorted(((lat._up[f], _theta_f(lat, f)) for f in lat.elements),
                     key=lambda t: _pair_key(t[1]))
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
    stays only because bench/probe.py passes it. When column bottom of
    the -> table is complement_masks, as a->0 = a+ v {0} = a+ on every
    lattice, the property at column bottom is the complement substitution
    property, so every member has it and no member is tested."""
    asserted = is_complemented(lat)
    kernels = [(_kernel(lat, rows), rows) for rows in _substitution_family(lat)]
    it, cm = implies_masks(lat), complement_masks(lat)
    sp_plus_proved = all(row[lat.bottom] == c for row, c in zip(it, cm))
    return (
        law("implication substitution gives complement substitution",
            lambda k, rows: sp_plus_proved or _has_sp_plus(lat, rows), kernels, asserted,
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
    the other systems the transitivity verdict is recorded only. The
    substitution property is reported as passed: _is_compatible
    showed that (a, b) in Theta(D) puts y in within[x] for x in a->c and
    y in b->c; Theta(D) is symmetric, so (b, a) puts x in within[y], and
    together these give (x, y) in Theta(D) = _both_ways(within)."""
    comp = is_complemented(lat)
    compat, other = [], []
    for d in all_deductive_systems(lat, cap).masks:
        (compat if _is_compatible(lat, d) else other).append((d, _theta(lat, d)))
    other_transitive = sum(_is_equivalence(rows) for _, rows in other)

    return (
        law("theta of compatible systems an equivalence",
            lambda d, rows: _is_equivalence(rows), compat, comp, _sets(lat, "D")),
        CheckResult("theta of compatible systems has implication substitution",
                    True, None, comp),
        law("kernel of theta recovers the system", lambda d, rows: _kernel(lat, rows) == d,
            compat, comp, _sets(lat, "D")),
        CheckResult(
            f"{len(compat)} compatible systems; theta transitive for "
            f"{other_transitive} of {len(other)} non-compatible ones",
            True, None, asserted=False),
    )

"""Unsharp implication and conjunction built from the complement operator.

implies(a, b) is the set a+ v (a ^ b): all complements of a, each joined
with the meet of a and b. odot(a, b) is b ^ (a v b+). Both produce sets
because complements are not unique; on subsets they act pointwise through
set_join/set_meet. "implies(a, b) is true" always means the set equals
the singleton of the top element.

Each operation has one definition on sets, on int masks: implies_mask
and odot_mask; implies, odot, implies_sets and odot_sets convert at the
boundary. implies_masks and odot_masks, the memoised tables the checks
read, evaluate it on singletons from the complement_masks memo: row a of
-> is keyed by a ^ b and lists a+ once, column b of (.) lists b+ once.
implies_table and odot_table convert the mask tables to frozensets on
each call; no check reads them. A table placed in the complement_masks
memo reaches both tables, and one placed in the implies_masks or
odot_masks memo reaches every check and every view. implies_index,
derived from implies_masks, lists for each a the distinct values of
a->c with the mask of the c that give each; a row of the table takes
only a few distinct values.

The costliest laws are decided a row at a time by report.row_law, and
the lowest failing coordinate of a row gives the first failing tuple of
the full scan, so witnesses are that scan's, on corrupted tables too.
The residuation-type laws read the index per (a, b) row; modus ponens
and self application decide each distinct value of a->b in a row once;
the conjunction's reapplication computes its pointwise operation once
per distinct pair; the monotonicity laws go through
_order_fails and _monotone_law.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .complementation import complement_masks, dblplus_masks, plus_mask
from .core import (Lattice, check_ids, format_element_set, is_complemented, is_modular,
                   labelled, meet_closed_mask, members, to_mask, to_set)
from .errors import InvalidParameter
from .report import CheckResult, PropertyReport, law, row_law
from .setops import intersect_rows, mask_join, mask_le1, mask_le2, mask_meet


def implies_mask(lat: Lattice, a: int, b: int) -> int:
    """implies_sets on masks: plus(a) v (a ^ b) pointwise."""
    return mask_join(lat, plus_mask(lat, a), mask_meet(lat, a, b))


def odot_mask(lat: Lattice, a: int, b: int) -> int:
    """odot_sets on masks: b ^ (a v plus(b)) pointwise."""
    return mask_meet(lat, b, mask_join(lat, a, plus_mask(lat, b)))


def implies(lat: Lattice, a: int, b: int) -> frozenset:
    """a+ v (a ^ b). Raises InvalidParameter for an id outside 0..n-1."""
    check_ids(lat, a, b)
    return to_set(implies_mask(lat, 1 << a, 1 << b))


def odot(lat: Lattice, a: int, b: int) -> frozenset:
    """b ^ (a v b+). Raises InvalidParameter for an id outside 0..n-1."""
    check_ids(lat, a, b)
    return to_set(odot_mask(lat, 1 << a, 1 << b))


def implies_sets(lat: Lattice, a: frozenset, b: frozenset) -> frozenset:
    return to_set(implies_mask(lat, to_mask(lat, a), to_mask(lat, b)))


def odot_sets(lat: Lattice, a: frozenset, b: frozenset) -> frozenset:
    return to_set(odot_mask(lat, to_mask(lat, a), to_mask(lat, b)))


def implies_union(lat: Lattice, x: int, s: frozenset) -> frozenset:
    """implies from an element into a set: the union over the members.
    Raises InvalidParameter for an id outside 0..n-1."""
    check_ids(lat, x)
    row = implies_masks(lat)[x]
    out = 0
    for t in members(to_mask(lat, s)):
        out |= row[t]
    return to_set(out)


def implies_masks(lat: Lattice) -> tuple[tuple[int, ...], ...]:
    """a->b for every pair as masks, memoised: a+ v {a ^ b}, so row a
    lists a+ once and computes one cell per distinct a ^ b."""
    def compute():
        join, table = lat._join, []
        for meet_a, comp in zip(lat._meet, complement_masks(lat)):
            joins = [join[x] for x in members(comp)]
            cells: dict[int, int] = {}
            for m in set(meet_a):
                v = 0
                for row in joins:
                    v |= 1 << row[m]
                cells[m] = v
            table.append(tuple(map(cells.__getitem__, meet_a)))
        return tuple(table)
    return lat.memo("implies_masks", compute)


def odot_masks(lat: Lattice) -> tuple[tuple[int, ...], ...]:
    """a(.)b for every pair as masks, memoised: {b} ^ ({a} v b+), so
    column b lists b+ once; the columns are transposed into rows."""
    def compute():
        join, cols = lat._join, []
        for meet_b, comp in zip(lat._meet, complement_masks(lat)):
            ys = members(comp)
            col = []
            for join_a in join:
                v = 0
                for y in ys:
                    v |= 1 << meet_b[join_a[y]]
                col.append(v)
            cols.append(col)
        return tuple(zip(*cols))
    return lat.memo("odot_masks", compute)


def implies_table(lat: Lattice) -> tuple[tuple[frozenset, ...], ...]:
    """implies_masks as frozensets, converted on each call."""
    return tuple(tuple(map(to_set, row)) for row in implies_masks(lat))


def odot_table(lat: Lattice) -> tuple[tuple[frozenset, ...], ...]:
    """odot_masks as frozensets, converted on each call."""
    return tuple(tuple(map(to_set, row)) for row in odot_masks(lat))


def implies_index(lat: Lattice) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Row a holds a (v, cols) pair for each distinct value v of a->c,
    cols the mask of the c with a->c = v, in order of the least such c;
    memoised from implies_masks."""
    def compute():
        index = []
        for row in implies_masks(lat):
            cols: dict[int, int] = {}
            for c, v in enumerate(row):
                cols[v] = cols.get(v, 0) | 1 << c
            index.append(tuple(cols.items()))
        return tuple(index)
    return lat.memo("implies_index", compute)


def _hits(row, s: int) -> int:
    """The c whose value in an implies_index row meets the mask s."""
    out = 0
    for v, cols in row:
        if v & s:
            out |= cols
    return out


def _row_law(lat: Lattice, name: str, fails, asserted: bool) -> CheckResult:
    """row_law() over the triples (a, b, c), one (a, b) row at a time."""
    return row_law(name, fails, product(lat.elements, repeat=2), asserted,
                   labelled(lat, "abc"))


def _order_fails(lat: Lattice):
    """fails(xs, ys): the mask of the positions i where xs[i] is not below
    ys[i] in both set orders (mask_le1 and mask_le2). Each distinct pair
    of masks is decided once per lattice, so a row whose pairs are all
    known to hold costs one set test."""
    good, bad = lat.memo("both_orders", lambda: (set(), set()))

    def fails(xs, ys) -> int:
        pairs = tuple(zip(xs, ys))
        if good.issuperset(pairs):
            return 0
        for pair in set(pairs) - good - bad:
            (good if mask_le1(lat, *pair) and mask_le2(lat, *pair) else bad).add(pair)
        return sum(1 << i for i, pair in enumerate(pairs) if pair in bad)
    return fails


def _monotone_law(lat: Lattice, name: str, fails, asserted: bool, witness) -> CheckResult:
    """row_law() over the rows (u, v) with u below v. Both set orders
    together are a preorder on masks, so the law holds on every such row
    once it holds on the covers u < v, and at u = v by reflexivity; only
    a failing cover starts the scan for the first failing tuple."""
    if not any(fails(u, v) for u, v in lat.covers()):
        return CheckResult(name, True, None, asserted)
    up = lat._up
    return row_law(name, fails, ((u, v) for u, v in product(lat.elements, repeat=2)
                                 if up[u] >> v & 1), asserted, witness)


@dataclass(frozen=True)
class OpTable:
    """Row-operand-first operation table: entries[x][y] == x op y."""
    op: str
    entries: tuple[tuple[frozenset, ...], ...]


def op_table(lat: Lattice, which: str) -> OpTable:
    if which == "implies":
        return OpTable("implies", implies_table(lat))
    if which == "odot":
        return OpTable("odot", odot_table(lat))
    raise InvalidParameter(f"unknown operation {which!r}")


def is_minimal_in_dblplus(lat: Lattice, a: int) -> bool:
    check_ids(lat, a)
    return not dblplus_masks(lat)[a] & lat._down[a] & ~(1 << a)


def is_mn_shaped(lat: Lattice) -> bool:
    """True for a bounded antichain of two or more atoms that are also
    coatoms (the diamond family)."""
    bounds = 1 << lat.bottom | 1 << lat.top
    middles = [x for x in lat.elements if not bounds >> x & 1]
    if len(middles) < 2:
        return False
    return all(lat._down[m] == 1 << lat.bottom | 1 << m and lat._up[m] == 1 << m | 1 << lat.top
               for m in middles)


def check_implication_laws(lat: Lattice) -> PropertyReport:
    """Elementary implication laws on a complemented lattice, plus an
    informational survey of converse failures for the second law."""
    asserted = is_complemented(lat)
    it = implies_masks(lat)
    cm, dps = complement_masks(lat), dblplus_masks(lat)
    els, top, up, meet = lat.elements, 1 << lat.top, lat._up, lat._meet
    ab, abc = labelled(lat, "ab"), labelled(lat, "abc")
    cols, order_fails = tuple(zip(*it)), _order_fails(lat)
    true = [sum(c for v, c in row if v == top) for row in implies_index(lat)]

    def unstable(a, b):
        # The c with a->c = {1} whose meet with b leaves that set.
        row, t = meet[b], true[a]
        return sum(1 << c for c in members(t) if not t >> row[c] & 1)

    converse = next(((a, b) for a, b in product(els, els)
                     if it[a][b] == top and not up[a] >> b & 1), None)
    return PropertyReport("implication laws", (
        law("a->0 = a+ and 1->a = {a}",
            lambda a: it[a][lat.bottom] == cm[a] and it[lat.top][a] == 1 << a,
            product(els), asserted, labelled(lat, "a")),
        law("a below b gives a->b = {1}", lambda a, b: it[a][b] == top,
            ((a, b) for a, b in product(els, els) if up[a] >> b & 1), asserted, ab),
        law("a->b = {1} iff a^b in a++",
            lambda a, b: (it[a][b] == top) == bool(dps[a] >> meet[a][b] & 1),
            product(els, els), asserted, ab),
        law("b complements a gives a->b = a+", lambda a, b: it[a][b] == cm[a],
            ((a, b) for a in els for b in members(cm[a])), asserted, ab),
        _monotone_law(lat, "b below c makes a->b below a->c (both set orders)",
                      lambda b, c: order_fails(cols[b], cols[c]), asserted,
                      lambda b, c, a: abc(a, b, c)),
        row_law("meet-closed a++ makes true consequents meet-stable", unstable,
                ((a, b) for a in els if meet_closed_mask(lat, dps[a])
                 for b in members(true[a])), asserted, abc),
        law("a++ within b++ and a->b = {1} force b->a = {1}",
            lambda a, b: it[b][a] == top,
            ((a, b) for a, b in product(els, els)
             if not dps[a] & ~dps[b] and it[a][b] == top),
            asserted, ab),
        CheckResult("converse failures of the truth law exist", converse is not None,
                    None if converse is None
                    else ab(*converse) + ": a->b = {1} without a below b",
                    asserted=False),
    ))


def check_minimal_dblplus(lat: Lattice) -> PropertyReport:
    """a is minimal in a++ exactly when implication from a is the order:
    a->x = {1} iff a below x, for every x."""
    asserted = is_complemented(lat)
    it = implies_masks(lat)
    top, up = 1 << lat.top, lat._up

    def order_like(a):
        return all((it[a][x] == top) == bool(up[a] >> x & 1) for x in lat.elements)

    return PropertyReport("minimality in a++", (
        law("minimal in a++ iff a->x truth matches order",
            lambda a: is_minimal_in_dblplus(lat, a) == order_like(a),
            product(lat.elements), asserted,
            lambda a: f"a={lat.labels[a]} minimal={is_minimal_in_dblplus(lat, a)} "
                      f"order_like={order_like(a)}"),
    ))


def check_modus_laws(lat: Lattice) -> PropertyReport:
    """Modus ponens and tollens and the stability laws of implication on a
    complemented modular lattice."""
    asserted = is_complemented(lat) and is_modular(lat)
    it, cm, index = implies_masks(lat), complement_masks(lat), implies_index(lat)
    els, meet, up, down = lat.elements, lat._meet, lat._up, lat._down
    ab, full = labelled(lat, "ab"), (1 << lat.n) - 1

    def ponens(a, b):
        return mask_meet(lat, 1 << a, it[a][b])

    def by_value(fails_at):
        # Row a of a law over (a, b): fails_at(a, v, cols) gives the b of
        # cols, the b with a->b = v, where it fails; once per distinct v.
        def fails(a):
            out = 0
            for v, cols in index[a]:
                out |= fails_at(a, v, cols)
            return out
        return fails

    def ponens_at(a, v, cols):
        got, row = mask_meet(lat, 1 << a, v), meet[a]
        return sum(1 << b for b in members(cols) if got != 1 << row[b])

    def moved_at(a, v, cols):
        return 0 if implies_mask(lat, 1 << a, v) == v else cols

    def tollens(a):
        # b+ within the common up-set of a+ is a+ below b+.
        above, row, bad = intersect_rows(up, cm[a], full), it[a], 0
        for b, w in enumerate(cm):
            if not w & ~above and mask_meet(lat, row[b], w) != cm[a]:
                bad |= 1 << b
        return bad

    return PropertyReport("modus laws", (
        row_law("modus ponens: a ^ (a->b) = {a^b}", by_value(ponens_at), product(els), asserted,
                lambda a, b: f"{ab(a, b)} got={format_element_set(lat, members(ponens(a, b)))}"),
        row_law("modus tollens: a+ below b+ gives (a->b) ^ b+ = a+", tollens,
                product(els), asserted, ab),
        law("value stability: c in a->b gives a->c = a->b",
            lambda a, b, c: it[a][c] == it[a][b],
            ((a, b, c) for a, b in product(els, els) for c in members(it[a][b])),
            asserted, labelled(lat, "abc")),
        row_law("self application: a->(a->b) = a->b", by_value(moved_at), product(els),
                asserted, ab),
        law("absorbed antecedent: a+ below b gives a->b = {b}",
            lambda a, b: it[a][b] == 1 << b,
            ((a, b) for a, b in product(els, els) if not cm[a] & ~down[b]),
            asserted, ab),
    ))


def check_implication_meet_link(lat: Lattice) -> PropertyReport:
    """Links between implication truth and meets below a threshold on a
    complemented modular lattice."""
    asserted = is_complemented(lat) and is_modular(lat)
    index = implies_index(lat)
    up, meet = lat._up, lat._meet

    # x is below b->c pointwise when some member of b->c is above x.
    return PropertyReport("implication meet link", (
        _row_law(lat, "a below b->c pointwise forces a^b below c",
                 lambda a, b: _hits(index[b], up[a]) & ~up[meet[a][b]], asserted),
        _row_law(lat, "a^b below c iff a^b below b->c pointwise",
                 lambda a, b: up[meet[a][b]] ^ _hits(index[b], up[meet[a][b]]), asserted),
    ))


def check_diamond_residuation(lat: Lattice) -> PropertyReport:
    """On the diamond family the implication has a three-way case form and
    witnesses full residuation: a^b below c iff a below b->c pointwise."""
    asserted = is_mn_shaped(lat)
    it, cm, index = implies_masks(lat), complement_masks(lat), implies_index(lat)
    els, up, meet = lat.elements, lat._up, lat._meet

    def expected(a, b):
        if up[a] >> b & 1:
            return 1 << lat.top
        return 1 << b if a == lat.top else cm[a]

    return PropertyReport("diamond residuation", (
        law("case form: {1} / {b} / a+", lambda a, b: it[a][b] == expected(a, b),
            product(els, els), asserted, labelled(lat, "ab")),
        _row_law(lat, "residuation: a^b below c iff a below b->c pointwise",
                 lambda a, b: up[meet[a][b]] ^ _hits(index[b], up[a]), asserted),
    ))


def check_conjunction_laws(lat: Lattice) -> PropertyReport:
    """Laws of the unsharp conjunction; the last group needs modularity."""
    comp = is_complemented(lat)
    modular = comp and is_modular(lat)
    ot = odot_masks(lat)
    els, up, down, meet = lat.elements, lat._up, lat._down, lat._meet
    zero = 1 << lat.bottom
    ab = labelled(lat, "ab")
    order_fails = _order_fails(lat)
    stays: set[tuple[int, int]] = set()

    def got(a, b):
        return f"{ab(a, b)} got={format_element_set(lat, members(ot[a][b]))}"

    def bounded(a, b):
        return not ot[a][b] & ~(up[meet[a][b]] & down[b])

    def order_is_odot(a, b):
        return bool(up[a] >> b & 1) == (ot[a][b] == 1 << a)

    def unmatched(a):
        # The b where a below b disagrees with a(.)b = {a}, or where
        # reapplying b moves a(.)b; each pair of b and a value of a(.)b
        # that stays is remembered, so a row of known pairs is one test.
        row, single = ot[a], 1 << a
        bad = up[a] ^ sum(1 << b for b, v in enumerate(row) if v == single)
        pairs = tuple(zip(row, els))
        if not stays.issuperset(pairs):
            for v, b in pairs:
                if (v, b) not in stays:
                    if odot_mask(lat, v, 1 << b) == v:
                        stays.add((v, b))
                    else:
                        bad |= 1 << b
        return bad

    return PropertyReport("conjunction laws", (
        law("0 absorbs: 0(.)a = a(.)0 = {0}",
            lambda a: ot[lat.bottom][a] == zero and ot[a][lat.bottom] == zero,
            product(els), comp, labelled(lat, "a")),
        law("1 is a unit: 1(.)a = a(.)1 = {a}",
            lambda a: ot[lat.top][a] == 1 << a == ot[a][lat.top],
            product(els), comp, labelled(lat, "a")),
        law("a^b below a(.)b below b; b below a collapses to {b}",
            lambda a, b: bounded(a, b) and (not up[b] >> a & 1 or ot[a][b] == 1 << b),
            product(els, els), comp, lambda a, b: got(a, b) if not bounded(a, b) else ab(a, b)),
        _monotone_law(lat, "a below b makes a(.)c below b(.)c (both set orders)",
                      lambda a, b: order_fails(ot[a], ot[b]), comp, labelled(lat, "abc")),
        law("idempotence: a(.)a = {a}", lambda a: ot[a][a] == 1 << a,
            product(els), comp,
            lambda a: f"a={lat.labels[a]} got={format_element_set(lat, members(ot[a][a]))}"),
        row_law("a below b iff a(.)b = {a}; (a(.)b)(.)b = a(.)b", unmatched,
                product(els), modular,
                lambda a, b: got(a, b) if not order_is_odot(a, b)
                else f"{ab(a, b)} reapplication moved"),
    ))


def check_adjointness(lat: Lattice) -> PropertyReport:
    """a(.)b below c iff a below b->c, over all triples: a(.)b within the
    down-set of c iff b->c within the up-set of a."""
    asserted = is_complemented(lat) and is_modular(lat)
    index, ot = implies_index(lat), odot_masks(lat)
    up, full = lat._up, (1 << lat.n) - 1

    # The c above all of a(.)b, against the c with b->c within up(a).
    return PropertyReport("adjointness", (
        _row_law(lat, "a(.)b below c iff a below b->c",
                 lambda a, b: (intersect_rows(up, ot[a][b], full)
                               ^ (full & ~_hits(index[b], ~up[a]))), asserted),
    ))

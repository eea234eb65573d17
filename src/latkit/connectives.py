"""Unsharp implication and conjunction built from the complement operator.

implies(a, b) is the set a+ v (a ^ b): all complements of a, each joined
with the meet of a and b. odot(a, b) is b ^ (a v b+). Both produce sets
because complements are not unique; on subsets they act pointwise through
set_join/set_meet. "implies(a, b) is true" always means the set equals
the singleton of the top element.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .complementation import complement_sets, double_plus, plus
from .core import (Lattice, check_ids, format_element_set, is_complemented, is_modular,
                   labelled)
from .report import CheckResult, PropertyReport, law
from .setops import set_join, set_le, set_le1, set_le2, set_meet


def implies(lat: Lattice, a: int, b: int) -> frozenset:
    """a+ v (a ^ b). Raises InvalidParameter for an id outside 0..n-1."""
    check_ids(lat, a, b)
    m = lat.meet(a, b)
    return frozenset(lat.join(x, m) for x in complement_sets(lat)[a])


def odot(lat: Lattice, a: int, b: int) -> frozenset:
    """b ^ (a v b+). Raises InvalidParameter for an id outside 0..n-1."""
    check_ids(lat, a, b)
    return frozenset(lat.meet(b, lat.join(a, x)) for x in complement_sets(lat)[b])


def implies_sets(lat: Lattice, a: frozenset, b: frozenset) -> frozenset:
    return set_join(lat, plus(lat, a), set_meet(lat, a, b))


def odot_sets(lat: Lattice, a: frozenset, b: frozenset) -> frozenset:
    return set_meet(lat, b, set_join(lat, a, plus(lat, b)))


def implies_union(lat: Lattice, x: int, s: frozenset) -> frozenset:
    """implies from an element into a set: the union over the members."""
    out: set[int] = set()
    for t in s:
        out |= implies(lat, x, t)
    return frozenset(out)


def implies_table(lat: Lattice) -> tuple[tuple[frozenset, ...], ...]:
    def compute():
        return tuple(tuple(implies(lat, a, b) for b in lat.elements)
                     for a in lat.elements)
    return lat.memo("implies_table", compute)


def odot_table(lat: Lattice) -> tuple[tuple[frozenset, ...], ...]:
    def compute():
        return tuple(tuple(odot(lat, a, b) for b in lat.elements)
                     for a in lat.elements)
    return lat.memo("odot_table", compute)


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
    raise ValueError(f"unknown operation {which!r}")


def is_minimal_in_dblplus(lat: Lattice, a: int) -> bool:
    return not any(lat.lt(y, a) for y in double_plus(lat, frozenset((a,))))


def is_mn_shaped(lat: Lattice) -> bool:
    """True for a bounded antichain of two or more atoms that are also
    coatoms (the diamond family)."""
    middles = [x for x in lat.elements if x not in (lat.bottom, lat.top)]
    if len(middles) < 2:
        return False
    return all(lat.down_set(m) == {lat.bottom, m} and lat.up_set(m) == {m, lat.top}
               for m in middles)


def check_implication_laws(lat: Lattice) -> PropertyReport:
    """Elementary implication laws on a complemented lattice, plus an
    informational survey of converse failures for the second law."""
    asserted = is_complemented(lat)
    it = implies_table(lat)
    cs = complement_sets(lat)
    dps = [double_plus(lat, frozenset((a,))) for a in lat.elements]
    els, top, leq, meet = lat.elements, frozenset((lat.top,)), lat.leq, lat.meet
    ab, abc = labelled(lat, "ab"), labelled(lat, "abc")

    def meet_closed(s):
        return all(meet(x, y) in s for x in s for y in s)

    converse = next(((a, b) for a, b in product(els, els)
                     if it[a][b] == top and not leq(a, b)), None)
    return PropertyReport("implication laws", (
        law("a->0 = a+ and 1->a = {a}",
            lambda a: it[a][lat.bottom] == cs[a] and it[lat.top][a] == frozenset((a,)),
            product(els), asserted, labelled(lat, "a")),
        law("a below b gives a->b = {1}", lambda a, b: it[a][b] == top,
            ((a, b) for a, b in product(els, els) if leq(a, b)), asserted, ab),
        law("a->b = {1} iff a^b in a++",
            lambda a, b: (it[a][b] == top) == (meet(a, b) in dps[a]),
            product(els, els), asserted, ab),
        law("b complements a gives a->b = a+", lambda a, b: it[a][b] == cs[a],
            ((a, b) for a in els for b in cs[a]), asserted, ab),
        law("b below c makes a->b below a->c (both set orders)",
            lambda a, b, c: (set_le1(lat, it[a][b], it[a][c])
                             and set_le2(lat, it[a][b], it[a][c])),
            ((a, b, c) for b, c in product(els, els) if leq(b, c) for a in els),
            asserted, abc),
        law("meet-closed a++ makes true consequents meet-stable",
            lambda a, b, c: it[a][c] != top or it[a][meet(b, c)] == top,
            ((a, b, c) for a in els if meet_closed(dps[a])
             for b in els if it[a][b] == top for c in els), asserted, abc),
        law("a++ within b++ and a->b = {1} force b->a = {1}",
            lambda a, b: it[b][a] == top,
            ((a, b) for a, b in product(els, els) if dps[a] <= dps[b] and it[a][b] == top),
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
    it = implies_table(lat)
    top = frozenset((lat.top,))

    def order_like(a):
        return all((it[a][x] == top) == lat.leq(a, x) for x in lat.elements)

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
    it = implies_table(lat)
    cs = complement_sets(lat)
    els = lat.elements
    ab = labelled(lat, "ab")

    def ponens(a, b):
        return set_meet(lat, frozenset((a,)), it[a][b])

    return PropertyReport("modus laws", (
        law("modus ponens: a ^ (a->b) = {a^b}",
            lambda a, b: ponens(a, b) == frozenset((lat.meet(a, b),)),
            product(els, els), asserted,
            lambda a, b: f"{ab(a, b)} got={format_element_set(lat, ponens(a, b))}"),
        law("modus tollens: a+ below b+ gives (a->b) ^ b+ = a+",
            lambda a, b: set_meet(lat, it[a][b], cs[b]) == cs[a],
            ((a, b) for a, b in product(els, els) if set_le(lat, cs[a], cs[b])),
            asserted, ab),
        law("value stability: c in a->b gives a->c = a->b",
            lambda a, b, c: it[a][c] == it[a][b],
            ((a, b, c) for a, b in product(els, els) for c in it[a][b]),
            asserted, labelled(lat, "abc")),
        law("self application: a->(a->b) = a->b",
            lambda a, b: implies_sets(lat, frozenset((a,)), it[a][b]) == it[a][b],
            product(els, els), asserted, ab),
        law("absorbed antecedent: a+ below b gives a->b = {b}",
            lambda a, b: it[a][b] == frozenset((b,)),
            ((a, b) for a, b in product(els, els) if set_le(lat, cs[a], frozenset((b,)))),
            asserted, ab),
    ))


def check_implication_meet_link(lat: Lattice) -> PropertyReport:
    """Links between implication truth and meets below a threshold on a
    complemented modular lattice."""
    asserted = is_complemented(lat) and is_modular(lat)
    it = implies_table(lat)
    leq, meet = lat.leq, lat.meet
    triples = list(product(lat.elements, repeat=3))
    abc = labelled(lat, "abc")

    def below_pointwise(x, b, c):
        return set_le1(lat, frozenset((x,)), it[b][c])

    return PropertyReport("implication meet link", (
        law("a below b->c pointwise forces a^b below c",
            lambda a, b, c: not below_pointwise(a, b, c) or leq(meet(a, b), c),
            triples, asserted, abc),
        law("a^b below c iff a^b below b->c pointwise",
            lambda a, b, c: leq(meet(a, b), c) == below_pointwise(meet(a, b), b, c),
            triples, asserted, abc),
    ))


def check_diamond_residuation(lat: Lattice) -> PropertyReport:
    """On the diamond family the implication has a three-way case form and
    witnesses full residuation: a^b below c iff a below b->c pointwise."""
    asserted = is_mn_shaped(lat)
    it = implies_table(lat)
    cs = complement_sets(lat)
    els, leq = lat.elements, lat.leq

    def expected(a, b):
        if leq(a, b):
            return frozenset((lat.top,))
        return frozenset((b,)) if a == lat.top else cs[a]

    return PropertyReport("diamond residuation", (
        law("case form: {1} / {b} / a+", lambda a, b: it[a][b] == expected(a, b),
            product(els, els), asserted, labelled(lat, "ab")),
        law("residuation: a^b below c iff a below b->c pointwise",
            lambda a, b, c: leq(lat.meet(a, b), c) == set_le1(lat, frozenset((a,)), it[b][c]),
            product(els, repeat=3), asserted, labelled(lat, "abc")),
    ))


def check_conjunction_laws(lat: Lattice) -> PropertyReport:
    """Laws of the unsharp conjunction; the last group needs modularity."""
    comp = is_complemented(lat)
    modular = comp and is_modular(lat)
    ot = odot_table(lat)
    els, leq = lat.elements, lat.leq
    zero = frozenset((lat.bottom,))
    ab = labelled(lat, "ab")

    def got(a, b):
        return f"{ab(a, b)} got={format_element_set(lat, ot[a][b])}"

    def bounded(a, b):
        return (set_le(lat, frozenset((lat.meet(a, b),)), ot[a][b])
                and set_le(lat, ot[a][b], frozenset((b,))))

    def order_is_odot(a, b):
        return leq(a, b) == (ot[a][b] == frozenset((a,)))

    return PropertyReport("conjunction laws", (
        law("0 absorbs: 0(.)a = a(.)0 = {0}",
            lambda a: ot[lat.bottom][a] == zero and ot[a][lat.bottom] == zero,
            product(els), comp, labelled(lat, "a")),
        law("1 is a unit: 1(.)a = a(.)1 = {a}",
            lambda a: ot[lat.top][a] == frozenset((a,)) == ot[a][lat.top],
            product(els), comp, labelled(lat, "a")),
        law("a^b below a(.)b below b; b below a collapses to {b}",
            lambda a, b: bounded(a, b) and (not leq(b, a) or ot[a][b] == frozenset((b,))),
            product(els, els), comp, lambda a, b: got(a, b) if not bounded(a, b) else ab(a, b)),
        law("a below b makes a(.)c below b(.)c (both set orders)",
            lambda a, b, c: (set_le1(lat, ot[a][c], ot[b][c])
                             and set_le2(lat, ot[a][c], ot[b][c])),
            ((a, b, c) for a, b in product(els, els) if leq(a, b) for c in els),
            comp, labelled(lat, "abc")),
        law("idempotence: a(.)a = {a}", lambda a: ot[a][a] == frozenset((a,)),
            product(els), comp,
            lambda a: f"a={lat.labels[a]} got={format_element_set(lat, ot[a][a])}"),
        law("a below b iff a(.)b = {a}; (a(.)b)(.)b = a(.)b",
            lambda a, b: (order_is_odot(a, b)
                          and odot_sets(lat, ot[a][b], frozenset((b,))) == ot[a][b]),
            product(els, els), modular,
            lambda a, b: got(a, b) if not order_is_odot(a, b)
            else f"{ab(a, b)} reapplication moved"),
    ))


def check_adjointness(lat: Lattice) -> PropertyReport:
    """a(.)b below {c} iff {a} below b->c, over all triples."""
    asserted = is_complemented(lat) and is_modular(lat)
    it = implies_table(lat)
    ot = odot_table(lat)
    return PropertyReport("adjointness", (
        law("a(.)b below c iff a below b->c",
            lambda a, b, c: (set_le(lat, ot[a][b], frozenset((c,)))
                             == set_le(lat, frozenset((a,)), it[b][c])),
            product(lat.elements, repeat=3), asserted, labelled(lat, "abc")),
    ))

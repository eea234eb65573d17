"""The set-valued complement operator and its closure structure.

For an element a, plus({a}) collects every complement of a; for a subset A
it collects the common complements of all members. The operator is the
polarity of the relation "x complements y", so A -> plus(A) is an antitone
Galois connection: A is contained in double_plus(A), plus is inclusion
reversing, and plus(double_plus(A)) == plus(A). Sets fixed by double_plus
are called closed; they form a complete ortholattice under inclusion.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from .core import (
    Lattice,
    check_ids,
    find_n5_through_bounds,
    format_element_set,
    is_antichain,
    is_complemented,
    is_convex,
    is_modular,
    labelled,
)
from .errors import InvalidParameter
from .report import CheckResult, PropertyReport, law
from .setops import set_join, set_le1, set_meet


def complement_sets(lat: Lattice) -> tuple[frozenset, ...]:
    """Per-element complement sets, memoised on the lattice."""
    def compute():
        out = []
        for a in lat.elements:
            out.append(frozenset(
                x for x in lat.elements
                if lat.join(a, x) == lat.top and lat.meet(a, x) == lat.bottom))
        return tuple(out)
    return lat.memo("complement_sets", compute)


def complements(lat: Lattice, a: int) -> frozenset:
    """The complements of a. Raises InvalidParameter for an id outside 0..n-1."""
    check_ids(lat, a)
    return complement_sets(lat)[a]


def plus(lat: Lattice, a: frozenset) -> frozenset:
    """Common complements of all members; the whole carrier for empty input.
    Raises InvalidParameter for an id outside 0..n-1."""
    if not a:
        return lat.universe
    ids = sorted(a)
    if ids[0] < 0 or ids[-1] >= lat.n:
        raise InvalidParameter(f"ids {ids} are not all in 0..{lat.n - 1}")
    cs = complement_sets(lat)
    items = iter(ids)
    acc = cs[next(items)]
    for x in items:
        if not acc:
            break
        acc = acc & cs[x]
    return acc


def double_plus(lat: Lattice, a: frozenset) -> frozenset:
    return plus(lat, plus(lat, a))


def is_closed(lat: Lattice, a: frozenset) -> bool:
    return double_plus(lat, a) == a


def satisfies_dblplus_identity(lat: Lattice) -> bool:
    """True when double_plus({x}) == {x} for every element."""
    def compute():
        return all(double_plus(lat, frozenset((x,))) == frozenset((x,))
                   for x in lat.elements)
    return lat.memo("dblplus_identity", compute)


def dblplus_injective(lat: Lattice) -> bool:
    """True when x -> double_plus({x}) is injective."""
    def compute():
        seen = {}
        for x in lat.elements:
            key = double_plus(lat, frozenset((x,)))
            if key in seen:
                return False
            seen[key] = x
        return True
    return lat.memo("dblplus_injective", compute)


def find_closed_element_in_dblplus(lat: Lattice, a: int) -> int | None:
    """Some b in double_plus({a}) with double_plus({b}) == {b}, found by
    walking descending double_plus sets; None when no such b exists."""
    cur = a
    seen = set()
    while cur not in seen:
        seen.add(cur)
        dp = double_plus(lat, frozenset((cur,)))
        if dp == frozenset((cur,)):
            return cur
        rest = sorted(dp - {cur})
        if not rest:
            return None
        cur = rest[0]
    for b in sorted(double_plus(lat, frozenset((a,)))):
        if double_plus(lat, frozenset((b,))) == frozenset((b,)):
            return b
    return None


# -- closed sets and the closure lattice -------------------------------

def closed_sets(lat: Lattice) -> tuple[frozenset, ...]:
    """All closed subsets, via intersection closure of the per-element
    complement sets seeded with the full carrier (which is plus(empty))."""
    def compute():
        fam = {lat.universe}
        for g in complement_sets(lat):
            fam |= {g & s for s in fam}
            fam.add(g)
        return tuple(sorted(fam, key=lambda s: (len(s), sorted(s))))
    return lat.memo("closed_sets", compute)


@dataclass(frozen=True)
class ClosureReport:
    """The lattice of closed sets: tables are indexed by position in
    closed; orthocomplement maps each index to the index of its plus."""
    closed: tuple[frozenset, ...]
    meet_table: tuple[tuple[int, ...], ...]
    join_table: tuple[tuple[int, ...], ...]
    orthocomplement: tuple[int, ...]
    violations: tuple[str, ...]


def closure_lattice(lat: Lattice) -> ClosureReport:
    cs = closed_sets(lat)
    index = {s: i for i, s in enumerate(cs)}
    k = len(cs)
    fmt = lambda s: format_element_set(lat, s)

    violations: list[str] = []
    for s in cs:
        if double_plus(lat, s) != s:
            violations.append(f"family member not closed: {fmt(s)}")

    ortho = []
    for s in cs:
        p = plus(lat, s)
        if p not in index:
            violations.append(f"orthocomplement escapes the family: {fmt(s)}")
            ortho.append(-1)
        else:
            ortho.append(index[p])

    meet = [[0] * k for _ in range(k)]
    join = [[0] * k for _ in range(k)]
    for i, s in enumerate(cs):
        for j, t in enumerate(cs):
            m = s & t
            if m not in index:
                violations.append(f"intersection escapes the family: {fmt(s)}, {fmt(t)}")
                meet[i][j] = -1
            else:
                meet[i][j] = index[m]
            u = double_plus(lat, s | t)
            if u not in index:
                violations.append(f"closure of union escapes the family: {fmt(s)}, {fmt(t)}")
                join[i][j] = -1
            else:
                join[i][j] = index[u]
                if not (s <= u and t <= u):
                    violations.append(f"join not an upper bound: {fmt(s)}, {fmt(t)}")

    # Join must be the least closed upper bound, meet the greatest lower.
    for i, s in enumerate(cs):
        for j, t in enumerate(cs):
            u = cs[join[i][j]]
            m = cs[meet[i][j]]
            for w in cs:
                if s <= w and t <= w and not u <= w:
                    violations.append(f"join not least: {fmt(s)}, {fmt(t)}")
                    break
                if w <= s and w <= t and not w <= m:
                    violations.append(f"meet not greatest: {fmt(s)}, {fmt(t)}")
                    break

    full = index.get(lat.universe)
    empty = index.get(frozenset())
    if full is None or empty is None:
        violations.append("family lacks empty set or full carrier")
    for i, s in enumerate(cs):
        o = ortho[i]
        if o < 0:
            continue
        if ortho[o] != i:
            violations.append(f"orthocomplement not involutive: {fmt(s)}")
        if meet[i][o] != empty:
            violations.append(f"set meets its orthocomplement: {fmt(s)}")
        if join[i][o] != full:
            violations.append(f"set does not join to full with orthocomplement: {fmt(s)}")
        for j, t in enumerate(cs):
            if s <= t and not cs[ortho[j]] <= cs[o]:
                violations.append(f"orthocomplement not antitone: {fmt(s)}, {fmt(t)}")

    return ClosureReport(cs, tuple(tuple(r) for r in meet),
                         tuple(tuple(r) for r in join),
                         tuple(ortho), tuple(violations))


# -- quantified checks -------------------------------------------------

def _ids(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _subset_order(mask: int):
    """Sort key of a subset mask: size, then the sorted member ids."""
    ids = _ids(mask)
    return len(ids), ids


def check_galois_laws(lat: Lattice, exhaustive_limit: int = 6,
                      sample_pairs: int = 10000, seed: int = 0) -> PropertyReport:
    """The Galois-connection laws of plus, over all subset pairs when the
    lattice is small enough, otherwise over seeded random pairs. Subsets
    are bit masks; a witness is the first failing subset in (size, ids)
    order, or the first failing pair in the order the pairs were drawn."""
    n = lat.n
    full = (1 << n) - 1
    if n <= exhaustive_limit:
        singles = range(1 << n)
        pairs = product(singles, repeat=2)
        mode = "exhaustive"
    else:
        rng = random.Random(seed)
        pairs = [(rng.randint(0, full), rng.randint(0, full))
                 for _ in range(sample_pairs)]
        singles = {m for pair in pairs for m in pair}
        mode = f"{sample_pairs} sampled pairs"

    cmask = [sum(1 << x for x in s) for s in complement_sets(lat)]
    pmap: dict[int, int] = {}

    def pl(m: int) -> int:
        try:
            return pmap[m]
        except KeyError:
            acc, rest = full, m
            while rest and acc:
                low = rest & -rest
                acc &= cmask[low.bit_length() - 1]
                rest ^= low
            pmap[m] = acc
            return acc

    ext_bad, triple_bad, disj_bad = [], [], []
    for a in singles:
        p = pl(a)
        dp = pl(p)
        if a & ~dp:
            ext_bad.append(a)
        if pl(dp) != p:
            triple_bad.append(a)
        if p & dp:
            disj_bad.append(a)

    fmt = lambda m: format_element_set(lat, frozenset(_ids(m)))

    def first(bad: list[int]) -> str | None:
        return f"A={fmt(min(bad, key=_subset_order))}" if bad else None

    anti_wit = adj_wit = None
    for a, b in pairs:
        pa, pb = pmap[a], pmap[b]
        if anti_wit is None and not a & ~b and pb & ~pa:
            anti_wit = f"A={fmt(a)} B={fmt(b)}"
        if adj_wit is None and (not a & ~pb) != (not b & ~pa):
            adj_wit = f"A={fmt(a)} B={fmt(b)}"
        if anti_wit is not None and adj_wit is not None:
            break

    return PropertyReport(f"galois laws ({mode})", (
        CheckResult("A contained in A++", not ext_bad, first(ext_bad)),
        CheckResult("A+++ equals A+", not triple_bad, first(triple_bad)),
        CheckResult("A+ disjoint from A++", not disj_bad, first(disj_bad)),
        CheckResult("A within B implies B+ within A+", anti_wit is None, anti_wit),
        CheckResult("A within B+ iff B within A+", adj_wit is None, adj_wit),
    ))


def check_complement_sets(lat: Lattice) -> PropertyReport:
    """Order-theoretic facts about the per-element complement sets."""
    asserted = is_complemented(lat)
    cs = complement_sets(lat)
    els = lat.elements
    dps = [double_plus(lat, frozenset((a,))) for a in els]
    res = [law("a in a++ and a+++ = a+", lambda a: a in dps[a] and plus(lat, dps[a]) == cs[a],
               product(els), asserted, labelled(lat, "a"))]

    all_antichains = all(is_antichain(lat, cs[a]) for a in els)
    pentagon = find_n5_through_bounds(lat)
    ok = all_antichains == (pentagon is None)
    wit = None
    if not ok:
        found = "none" if pentagon is None else ",".join(lat.labels[i] for i in pentagon)
        wit = f"antichains={all_antichains} pentagon={found}"
    res.append(CheckResult("all a+ antichains iff no pentagon through bounds",
                           ok, wit, asserted))
    res.append(law("every a+ convex", lambda a: is_convex(lat, cs[a]), product(els),
                   asserted, lambda a: f"a={lat.labels[a]} a+={format_element_set(lat, cs[a])}"))

    inj = dblplus_injective(lat)
    ident = satisfies_dblplus_identity(lat)
    ok = inj or not ident
    res.append(CheckResult("identity for x++ requires injectivity",
                           ok, None if ok else f"injective={inj} identity={ident}",
                           asserted))
    return PropertyReport("complement set structure", tuple(res))


def check_modular_antichains(lat: Lattice) -> PropertyReport:
    """In a complemented modular lattice every plus set of a nonempty
    input, and every double_plus of an element, is an antichain."""
    asserted = is_complemented(lat) and is_modular(lat)
    fmt = lambda s: format_element_set(lat, s)
    cs = complement_sets(lat)
    dps = [double_plus(lat, frozenset((a,))) for a in lat.elements]
    return PropertyReport("antichain structure", (
        law("every a+ an antichain", lambda a: is_antichain(lat, cs[a]),
            product(lat.elements), asserted, lambda a: f"a={lat.labels[a]} a+={fmt(cs[a])}"),
        # The closed sets are the A+ of nonempty A plus the carrier (the
        # plus of the empty set), which no a+ can equal.
        law("A+ an antichain for every nonempty A", lambda s: is_antichain(lat, s),
            ((s,) for s in closed_sets(lat) if s != lat.universe), asserted,
            lambda s: f"A+={fmt(s)}"),
        law("every a++ an antichain", lambda a: is_antichain(lat, dps[a]),
            product(lat.elements), asserted, lambda a: f"a={lat.labels[a]} a++={fmt(dps[a])}"),
    ))


def check_order_reversal(lat: Lattice) -> PropertyReport:
    """Three order-reversal statements and their entailments: the first
    implies the second, and the second and third are equivalent."""
    cs = complement_sets(lat)
    pairs = list(product(lat.elements, repeat=2))
    xy = labelled(lat, "xy")
    r1 = law("(x^y)+ absorbs x+ v y+ pointwise",
             lambda x, y: set_le1(lat, set_join(lat, cs[x], cs[y]), cs[lat.meet(x, y)]),
             pairs, False, xy)
    r2 = law("x below y reverses complement sets",
             lambda x, y: not lat.leq(x, y) or set_le1(lat, cs[y], cs[x]), pairs, False, xy)
    r3 = law("(x v y)+ below x+ ^ y+ pointwise",
             lambda x, y: set_le1(lat, cs[lat.join(x, y)], set_meet(lat, cs[x], cs[y])),
             pairs, False, xy)
    s1, s2, s3 = r1.passed, r2.passed, r3.passed
    asserted = is_complemented(lat)
    return PropertyReport("order reversal", (
        r1, r2, r3,
        CheckResult("first statement implies second", (not s1) or s2,
                    None if ((not s1) or s2) else f"s1 holds, s2 fails at {r2.witness}",
                    asserted),
        CheckResult("second and third equivalent", s2 == s3,
                    None if s2 == s3 else f"s2={s2} s3={s3}", asserted),
    ))


def check_dblplus_characterization(lat: Lattice) -> PropertyReport:
    """In a complemented modular lattice, the identity double_plus({x}) ==
    {x} holds exactly when every y in x++ admits z in y+ with
    (x v y) ^ z == 0 or (x ^ y) v z == 1."""
    hyp = is_complemented(lat) and is_modular(lat)
    ident = satisfies_dblplus_identity(lat)
    cs = complement_sets(lat)
    meet, join = lat.meet, lat.join
    splitting = law(
        "splitting condition holds",
        lambda x, y: any(meet(join(x, y), z) == lat.bottom or join(meet(x, y), z) == lat.top
                         for z in cs[y]),
        ((x, y) for x in lat.elements for y in sorted(double_plus(lat, frozenset((x,))))),
        False, labelled(lat, "xy"))
    cond = splitting.passed

    return PropertyReport("double complement characterization", (
        CheckResult("identity x++ = {x} holds", ident, None, asserted=False),
        splitting,
        CheckResult("identity iff splitting condition", ident == cond,
                    None if ident == cond else f"identity={ident} condition={cond}",
                    hyp),
    ))


def check_descending_chains(lat: Lattice) -> PropertyReport:
    """Every element's double_plus contains a closed singleton when the
    double complement map is injective."""
    asserted = is_complemented(lat) and dblplus_injective(lat)
    found = ((a, find_closed_element_in_dblplus(lat, a)) for a in lat.elements)

    def witness(a, b):
        if b is None:
            return f"a={lat.labels[a]}"
        return f"a={lat.labels[a]} b={lat.labels[b]} escapes a++"

    return PropertyReport("descending chains", (
        law("a++ contains a closed singleton",
            lambda a, b: b is not None and b in double_plus(lat, frozenset((a,))),
            found, asserted, witness),
    ))

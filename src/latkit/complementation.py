"""The set-valued complement operator and its closure structure.

For an element a, plus({a}) collects every complement of a; for a subset A
it collects the common complements of all members. The operator is the
polarity of the relation "x complements y", so A -> plus(A) is an antitone
Galois connection: A is contained in double_plus(A), plus is inclusion
reversing, and plus(double_plus(A)) == plus(A). Sets fixed by double_plus
are called closed. On two or more elements the relation is symmetric and
irreflexive, so the closed sets form a complete ortholattice (Birkhoff,
Lattice Theory, 1967); verify decides the closure structure by that proof.

Inside the package a subset is an int mask (bit x for element x):
plus_mask is the operator, and complement_masks, dblplus_masks and
closed_masks are the memoised tables the checks read. complement_masks
is computed from the order and everything else is derived from it, so a
table placed in the complement_masks memo reaches every check. The
public functions take and return frozensets of ids, converted from the
masks on each call; the package calls only closure_lattice, for violations.

closed_masks lists the family of all A+, about 2^n sets on M:n, so
verify never lists it where an O(n^2) premise decides the laws it was
read for. The premise, _is_polarity, is that the relation is symmetric
and irreflexive; it holds on every lattice, and fails only on a placed
table, where the scans run as before.

- The Galois laws: symmetry gives A within A++ and "A within B+ iff B
  within A+", and with them A+++ = A+. An x in A+ and A++ would be a
  complement of every member of A+, itself included, which
  irreflexivity forbids.
- The closed-set count (closed_count): take the components of the
  graph of the relation, with V_i the vertices and c_i the closed sets
  of component i under its own polarity. A nonempty A within V_i has
  A+ within V_i, and an A that meets two components has A+ empty. V_i
  and the empty set are among the c_i, and V_i is no A+ of a nonempty
  A, since a member of both would complement itself. So the closed sets
  are the carrier, the empty set and, for each i, the c_i - 2 others,
  which makes 2 + sum(c_i - 2). A complete multipartite component, in
  which two vertices are adjacent exactly when their rows differ, has
  c_i = 2^k for its k parts: the A+ of a nonempty A is the union of the
  parts A misses. Any other component is walked alone. The atoms of
  M:n are K_n, so M:n has 2^n + 2 closed sets.
- The family antichain law of check_modular_antichains needs no premise.
  For comparable x < y let C(x, y) be the intersection of every row
  that holds both (the carrier when none does). A member A+ != carrier
  holding x and y is an intersection of such rows, so it holds C(x, y),
  which is a member, holds x and y, and is no larger. So the first
  failing member in (size, ids) order is the least C(x, y) that is not
  the carrier, found with n^2 intersections on any table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .core import (
    Lattice,
    _positions_above_below,
    antichain_mask,
    check_ids,
    convex_mask,
    find_n5_through_bounds,
    format_mask,
    is_complemented,
    is_modular,
    labelled,
    members,
    subset_key,
    to_mask,
    to_set,
)
from .report import CheckResult, PropertyReport, law
from .setops import intersect_rows, mask_join, union_rows


def complement_masks(lat: Lattice) -> tuple[int, ...]:
    """The complements of every element as masks, memoised."""
    def compute():
        join, meet, top, bottom = lat._join, lat._meet, lat.top, lat.bottom
        return tuple(sum(1 << x for x in lat.elements
                         if join[a][x] == top and meet[a][x] == bottom)
                     for a in lat.elements)
    return lat.memo("complement_masks", compute)


def complement_sets(lat: Lattice) -> tuple[frozenset, ...]:
    """complement_masks as frozensets, converted on each call."""
    return tuple(map(to_set, complement_masks(lat)))


def plus_mask(lat: Lattice, m: int) -> int:
    """plus on masks: the common complements of the members of m."""
    return intersect_rows(complement_masks(lat), m, (1 << lat.n) - 1)


def dblplus_masks(lat: Lattice) -> tuple[int, ...]:
    """double_plus({a}) of every element as a mask, memoised."""
    return lat.memo("dblplus_masks",
                    lambda: tuple(plus_mask(lat, c) for c in complement_masks(lat)))


def complements(lat: Lattice, a: int) -> frozenset:
    """The complements of a. Raises InvalidParameter for an id outside 0..n-1."""
    check_ids(lat, a)
    return to_set(complement_masks(lat)[a])


def plus(lat: Lattice, a: frozenset) -> frozenset:
    """Common complements of all members; the whole carrier for empty input.
    Raises InvalidParameter for an id outside 0..n-1."""
    return to_set(plus_mask(lat, to_mask(lat, a)))


def double_plus(lat: Lattice, a: frozenset) -> frozenset:
    return to_set(plus_mask(lat, plus_mask(lat, to_mask(lat, a))))


def is_closed(lat: Lattice, a: frozenset) -> bool:
    m = to_mask(lat, a)
    return plus_mask(lat, plus_mask(lat, m)) == m


def satisfies_dblplus_identity(lat: Lattice) -> bool:
    """True when double_plus({x}) == {x} for every element."""
    return all(m == 1 << x for x, m in enumerate(dblplus_masks(lat)))


def dblplus_injective(lat: Lattice) -> bool:
    """True when x -> double_plus({x}) is injective."""
    return len(set(dblplus_masks(lat))) == lat.n


def find_closed_element_in_dblplus(lat: Lattice, a: int) -> int | None:
    """Some b in double_plus({a}) with double_plus({b}) == {b}, found by
    walking descending double_plus sets; None when no such b exists.
    Raises InvalidParameter for an id outside 0..n-1."""
    check_ids(lat, a)
    dps = dblplus_masks(lat)
    cur = a
    seen = set()
    while cur not in seen:
        seen.add(cur)
        if dps[cur] == 1 << cur:
            return cur
        rest = dps[cur] & ~(1 << cur)
        if not rest:
            return None
        cur = (rest & -rest).bit_length() - 1
    for b in members(dps[a]):
        if dps[b] == 1 << b:
            return b
    return None


# -- closed sets and the closure lattice -------------------------------

def _intersection_closure(rows, start: int) -> set[int]:
    """start and every intersection of start with some of rows."""
    fam = {start}
    for g in rows:
        fam |= {g & s for s in fam}
    return fam


def closed_masks(lat: Lattice) -> tuple[int, ...]:
    """All closed subsets as masks in (size, ids) order, via intersection
    closure of the per-element complement masks seeded with the full
    carrier (which is plus(empty)); memoised."""
    return lat.memo("closed_masks", lambda: tuple(sorted(
        _intersection_closure(complement_masks(lat), (1 << lat.n) - 1), key=subset_key)))


def _is_polarity(lat: Lattice) -> bool:
    """The complement relation is symmetric and irreflexive."""
    cm = complement_masks(lat)
    return all(not row >> x & 1 and all(cm[y] >> x & 1 for y in members(row))
               for x, row in enumerate(cm))


def _count_by_components(lat: Lattice) -> int:
    """len(closed_masks(lat)) when the complement relation is a polarity:
    2 + sum(c_i - 2) over the components of its graph (module docstring).
    The vertices that share a row are a part; the component is complete
    multipartite when each row and its part make up the component, and
    then c_i = 2^k for its k parts. Any other component is walked."""
    cm, seen, count = complement_masks(lat), 0, 2
    for v in lat.elements:
        if seen >> v & 1:
            continue
        comp, frontier = 0, 1 << v
        while frontier:
            comp |= frontier
            frontier = union_rows(cm, frontier) & ~comp
        seen |= comp
        parts: dict[int, int] = {}
        for x in members(comp):
            parts[cm[x]] = parts.get(cm[x], 0) | 1 << x
        if all(row | part == comp for row, part in parts.items()):
            count += (1 << len(parts)) - 2
        else:
            count += len(_intersection_closure([cm[x] for x in members(comp)], comp)) - 2
    return count


def closed_count(lat: Lattice) -> int:
    """len(closed_masks(lat)), which is listed only when the relation is
    not a polarity."""
    if _is_polarity(lat):
        return _count_by_components(lat)
    return len(closed_masks(lat))


def closed_sets(lat: Lattice) -> tuple[frozenset, ...]:
    """closed_masks as frozensets, converted on each call."""
    return tuple(map(to_set, closed_masks(lat)))


@dataclass(frozen=True)
class ClosureReport:
    """The lattice of closed sets: tables are indexed by position in
    closed; orthocomplement maps each index to the index of its plus."""
    closed: tuple[frozenset, ...]
    meet_table: tuple[tuple[int, ...], ...]
    join_table: tuple[tuple[int, ...], ...]
    orthocomplement: tuple[int, ...]
    violations: tuple[str, ...]


def _polarity_proves_ortholattice(lat: Lattice) -> bool:
    """True when the complement relation is symmetric and irreflexive and
    closed_masks is exactly the family it generates, so the family is the
    ortholattice of a polarity. It is that family when no member repeats,
    the carrier and each s & row are members (so every intersection of
    rows is) and each s is closed (so s is the intersection of s+'s rows).
    The family test can fail only on a family placed in the memo."""
    if not _is_polarity(lat):
        return False
    cm, full = complement_masks(lat), (1 << lat.n) - 1
    masks = closed_masks(lat)
    family = set(masks)
    return (full in family and len(family) == len(masks)
            and all(intersect_rows(cm, intersect_rows(cm, s, full), full) == s
                    and all(s & row in family for row in cm) for s in masks))


def closure_lattice(lat: Lattice) -> ClosureReport:
    """The closed sets under inclusion, with every violation of a
    complete ortholattice. The join of s and t is the closure of s | t,
    which is (s+ & t+)+ since plus(s | t) = plus(s) & plus(t). The scans
    run, in (s, t) order, unless _polarity_proves_ortholattice holds."""
    masks = closed_masks(lat)
    index = {s: i for i, s in enumerate(masks)}
    cm, full = complement_masks(lat), (1 << lat.n) - 1
    pls = [intersect_rows(cm, s, full) for s in masks]
    ortho = [index.get(p, -1) for p in pls]
    meet = [[index.get(s & t, -1) for t in masks] for s in masks]
    closure = {x: index.get(intersect_rows(cm, x, full), -1)
               for x in {ps & pt for ps in pls for pt in pls}}
    join = [[closure[ps & pt] for pt in pls] for ps in pls]

    violations = []
    if not _polarity_proves_ortholattice(lat):
        text = [format_mask(lat, s) for s in masks]
        violations += [f"family member not closed: {text[i]}" for i, (s, p)
                       in enumerate(zip(masks, pls)) if intersect_rows(cm, p, full) != s]
        violations += [f"orthocomplement escapes the family: {text[i]}"
                       for i, o in enumerate(ortho) if o < 0]
        for i, s in enumerate(masks):
            for j, t in enumerate(masks):
                if meet[i][j] < 0:
                    violations.append(f"intersection escapes the family: {text[i]}, {text[j]}")
                if join[i][j] < 0:
                    violations.append(
                        f"closure of union escapes the family: {text[i]}, {text[j]}")
                elif (s | t) & ~masks[join[i][j]]:
                    violations.append(f"join not an upper bound: {text[i]}, {text[j]}")

        # The witness is the first position w that contains s and t but
        # not their join, or lies in both but not in their meet; at one
        # position the join is reported first. A table entry of -1
        # stands for the last member.
        above, below = _positions_above_below(masks)
        for i in range(len(masks)):
            for j in range(len(masks)):
                bad_join = above[i] & above[j] & ~above[join[i][j]]
                bad_meet = below[i] & below[j] & ~below[meet[i][j]]
                first = (bad_join | bad_meet) & -(bad_join | bad_meet)
                if first & bad_join:
                    violations.append(f"join not least: {text[i]}, {text[j]}")
                elif first:
                    violations.append(f"meet not greatest: {text[i]}, {text[j]}")

        top, empty = index.get(full), index.get(0)
        if top is None or empty is None:
            violations.append("family lacks empty set or full carrier")
        for i, (s, o) in enumerate(zip(masks, ortho)):
            if o < 0:
                continue
            if ortho[o] != i:
                violations.append(f"orthocomplement not involutive: {text[i]}")
            if meet[i][o] != empty:
                violations.append(f"set meets its orthocomplement: {text[i]}")
            if join[i][o] != top:
                violations.append(f"set does not join to full with orthocomplement: {text[i]}")
            for j, t in enumerate(masks):
                if not s & ~t and masks[ortho[j]] & ~masks[o]:
                    violations.append(f"orthocomplement not antitone: {text[i]}, {text[j]}")

    return ClosureReport(tuple(map(to_set, masks)), tuple(tuple(r) for r in meet),
                         tuple(tuple(r) for r in join),
                         tuple(ortho), tuple(violations))


# -- quantified checks -------------------------------------------------

_GALOIS_LAWS = ("A contained in A++", "A+++ equals A+", "A+ disjoint from A++",
                "A within B implies B+ within A+", "A within B+ iff B within A+")


def check_galois_laws(lat: Lattice, exhaustive_limit: int = 6,
                      sample_pairs: int = 10000, seed: int = 0) -> PropertyReport:
    """The Galois-connection laws of plus, decided exactly on every pair
    of subsets A, B from the complement relation (y in x+) and, unless
    it is a polarity, the family of all A+, which is closed_masks. A
    witness is the first failing subset in (size, ids) order, or the
    first failing pair in (A mask, B mask) order. The three trailing
    parameters change no result.

    - A within A++ fails at some A only if it fails at a singleton {x}:
      x is outside y+ for some y in x+.
    - A within B+ iff B within A+ fails exactly when the relation is
      asymmetric, first at {x}, {y} for the least such x, then y.
    - A within B implies B+ within A+ always holds: A+ is an intersection.
    - A+++ = A+ and A+ disjoint from A++ hold on a polarity (module
      docstring). Otherwise they depend on A+ alone, so they are decided
      on the family; only a failing member starts a search for the least
      A whose A+ fails."""
    cm, full = complement_masks(lat), (1 << lat.n) - 1
    pl = lambda m: intersect_rows(cm, m, full)
    ext = next((x for x, row in enumerate(cm)
                if any(not cm[y] >> x & 1 for y in members(row))), None)
    adj = next(((x, y) for x, row in enumerate(cm) for y in lat.elements
                if (row >> y & 1) != (cm[y] >> x & 1)), None)
    triple_bad, disj_bad = set(), set()
    for p in () if _is_polarity(lat) else closed_masks(lat):
        pp = pl(p)
        if pl(pp) != p:
            triple_bad.add(p)
        if p & pp:
            disj_bad.add(p)

    def first(bad: set[int]) -> str | None:
        # An A with A+ = p lies within {x : p within x+}; combinations of
        # those ids come in (size, ids) order.
        ids = [x for x in lat.elements if any(not p & ~cm[x] for p in bad)]
        subsets = (sum(1 << x for x in c) for k in range(len(ids) + 1)
                   for c in combinations(ids, k))
        a = next((a for a in subsets if pl(a) in bad), None)
        return None if a is None else f"A={format_mask(lat, a)}"

    witnesses = (None if ext is None else f"A={format_mask(lat, 1 << ext)}",
                 first(triple_bad), first(disj_bad), None,
                 None if adj is None
                 else f"A={format_mask(lat, 1 << adj[0])} B={format_mask(lat, 1 << adj[1])}")
    return PropertyReport("galois laws (exhaustive)", tuple(
        CheckResult(name, wit is None, wit) for name, wit in zip(_GALOIS_LAWS, witnesses)))


def check_complement_sets(lat: Lattice) -> PropertyReport:
    """Order-theoretic facts about the per-element complement sets.
    "identity for x++ requires injectivity" is reported as passed: both
    flags read dblplus_masks, and n rows with row x = {x} are distinct."""
    asserted = is_complemented(lat)
    cm, dps = complement_masks(lat), dblplus_masks(lat)
    els = lat.elements
    res = [law("a in a++ and a+++ = a+",
               lambda a: dps[a] >> a & 1 and plus_mask(lat, dps[a]) == cm[a],
               product(els), asserted, labelled(lat, "a"))]

    all_antichains = all(antichain_mask(lat, m) for m in cm)
    pentagon = find_n5_through_bounds(lat)
    ok = all_antichains == (pentagon is None)
    wit = None
    if not ok:
        found = "none" if pentagon is None else ",".join(lat.labels[i] for i in pentagon)
        wit = f"antichains={all_antichains} pentagon={found}"
    res.append(CheckResult("all a+ antichains iff no pentagon through bounds",
                           ok, wit, asserted))
    res.append(law("every a+ convex", lambda a: convex_mask(lat, cm[a]), product(els),
                   asserted,
                   lambda a: f"a={lat.labels[a]} a+={format_mask(lat, cm[a])}"))
    res.append(CheckResult("identity for x++ requires injectivity", True, None, asserted))
    return PropertyReport("complement set structure", tuple(res))


def check_modular_antichains(lat: Lattice) -> PropertyReport:
    """In a complemented modular lattice every plus set of a nonempty
    input, and every double_plus of an element, is an antichain. The
    plus sets of nonempty inputs are the closed sets but the carrier (the
    plus of the empty set), which no a+ can equal; the first of them
    that fails is the least C(x, y) other than the carrier (module
    docstring), so the family is never listed."""
    asserted = is_complemented(lat) and is_modular(lat)
    cm, dps, up = complement_masks(lat), dblplus_masks(lat), lat._up
    full = (1 << lat.n) - 1
    holders = [0] * lat.n  # holders[y]: the a with y in a+
    for a, row in enumerate(cm):
        for y in members(row):
            holders[y] |= 1 << a
    both = {holders[x] & holders[y] for x in lat.elements for y in members(up[x] ^ 1 << x)}
    least = min({intersect_rows(cm, h, full) for h in both if h} - {full},
                key=subset_key, default=None)
    return PropertyReport("antichain structure", (
        law("every a+ an antichain", lambda a: antichain_mask(lat, cm[a]), product(lat.elements),
            asserted, lambda a: f"a={lat.labels[a]} a+={format_mask(lat, cm[a])}"),
        CheckResult("A+ an antichain for every nonempty A", least is None,
                    None if least is None else f"A+={format_mask(lat, least)}", asserted),
        law("every a++ an antichain", lambda a: antichain_mask(lat, dps[a]), product(lat.elements),
            asserted, lambda a: f"a={lat.labels[a]} a++={format_mask(lat, dps[a])}"),
    ))


def check_order_reversal(lat: Lattice) -> PropertyReport:
    """Three order-reversal statements and their entailments: the first
    implies the second, and the second and third are equivalent. The
    equivalence holds whatever the complement table and is reported as
    passed; the second and third stay as informational entries. The
    second puts y+ within cover[x] for x below y, the third puts (x v y)+
    within cover[x] & cover[y]. x and y lie below x v y, so the second
    gives the third; x below y gives x v y = y, so the third gives the
    second."""
    cm = complement_masks(lat)
    meet, join, up, down = lat._meet, lat._join, lat._up, lat._down
    pairs = list(product(lat.elements, repeat=2))
    xy = labelled(lat, "xy")
    # s is below t in the first set order when s lies within cover(t),
    # the union of the down-sets of t's members. cover of the pointwise
    # meet of x+ and y+ is cover(x+) & cover(y+): the down-set of a ^ b
    # is the intersection of theirs, and intersection distributes over
    # union. So the third statement needs no pointwise meet at all.
    cover = [union_rows(down, c) for c in cm]
    r1 = law("(x^y)+ absorbs x+ v y+ pointwise",
             lambda x, y: not mask_join(lat, cm[x], cm[y]) & ~cover[meet[x][y]],
             pairs, False, xy)
    r2 = law("x below y reverses complement sets",
             lambda x, y: not up[x] >> y & 1 or not cm[y] & ~cover[x], pairs, False, xy)
    r3 = law("(x v y)+ below x+ ^ y+ pointwise",
             lambda x, y: not cm[join[x][y]] & ~(cover[x] & cover[y]), pairs, False, xy)
    ok = not r1.passed or r2.passed
    asserted = is_complemented(lat)
    return PropertyReport("order reversal", (
        r1, r2, r3,
        CheckResult("first statement implies second", ok,
                    None if ok else f"s1 holds, s2 fails at {r2.witness}", asserted),
        CheckResult("second and third equivalent", True, None, asserted),
    ))


def check_dblplus_characterization(lat: Lattice) -> PropertyReport:
    """In a complemented modular lattice, the identity double_plus({x}) ==
    {x} holds exactly when every y in x++ admits z in y+ with
    (x v y) ^ z == 0 or (x ^ y) v z == 1."""
    hyp = is_complemented(lat) and is_modular(lat)
    ident = satisfies_dblplus_identity(lat)
    cm, dps = complement_masks(lat), dblplus_masks(lat)
    meet, join = lat._meet, lat._join
    splitting = law(
        "splitting condition holds",
        lambda x, y: any(meet[join[x][y]][z] == lat.bottom or join[meet[x][y]][z] == lat.top
                         for z in members(cm[y])),
        ((x, y) for x in lat.elements for y in members(dps[x])),
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
    dps = dblplus_masks(lat)
    found = ((a, find_closed_element_in_dblplus(lat, a)) for a in lat.elements)

    def witness(a, b):
        if b is None:
            return f"a={lat.labels[a]}"
        return f"a={lat.labels[a]} b={lat.labels[b]} escapes a++"

    return PropertyReport("descending chains", (
        law("a++ contains a closed singleton",
            lambda a, b: b is not None and dps[a] >> b & 1,
            found, asserted, witness),
    ))

"""Deductive systems, filters, and kernel-inducing equivalences.

A deductive system is a subset containing the top element and closed
under the rule "a in D and implies(a, b) within D put b in D". The family
of deductive systems is intersection closed, ordered by inclusion, with
bottom {1} and top L. Theta(D) relates x and y when both implication sets
between them stay inside D; compatible deductive systems are exactly the
ones whose Theta is a substitution-friendly equivalence with kernel D.

Relations on elements are frozensets of ordered id pairs: equivalences
are stored that way rather than as partitions because Theta of an
arbitrary deductive system can fail transitivity.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass

from .connectives import implies_table, is_mn_shaped
from .core import (Lattice, check_ids, format_element_set, is_complemented,
                   is_modular)
from .errors import InvalidParameter, SizeCapExceeded
from .report import SKIPPED, CheckResult, PropertyReport, law

Relation = frozenset

SUBSET_CAP = 20
PARTITION_CAP = 10


def _check_members(lat: Lattice, s) -> None:
    """Raises InvalidParameter unless every member of s is an element id;
    one bound test on the least and the greatest member."""
    if s:
        check_ids(lat, min(s), max(s))


def is_deductive_system(lat: Lattice, d: frozenset) -> bool:
    _check_members(lat, d)
    if lat.top not in d:
        return False
    it = implies_table(lat)
    for a in d:
        for b in lat.elements:
            if b not in d and it[a][b] <= d:
                return False
    return True


def _order_filters(lat: Lattice):
    """All nonempty upward-closed subsets; an element may enter only when
    everything covering it is already in."""
    n = lat.n
    parents = [[] for _ in range(n)]
    for lo, hi in lat.covers():
        parents[lo].append(hi)
    # Scan from the top downwards so parents are decided first.
    order = sorted(lat.elements, key=lambda i: len(lat.up_set(i)))
    chosen: set[int] = set()
    out: list[frozenset] = []

    def walk(k: int):
        if k == n:
            if chosen:
                out.append(frozenset(chosen))
            return
        e = order[k]
        walk_in = all(p in chosen for p in parents[e])
        if walk_in:
            chosen.add(e)
            walk(k + 1)
            chosen.remove(e)
        walk(k + 1)

    walk(0)
    return out


def order_filters(lat: Lattice) -> list[frozenset]:
    return sorted(_order_filters(lat), key=lambda s: (len(s), sorted(s)))


def is_order_filter(lat: Lattice, f: frozenset) -> bool:
    if not f:
        return False
    _check_members(lat, f)
    return all(y in f for x in f for y in lat.up_set(x))


def is_filter(lat: Lattice, f: frozenset) -> bool:
    if not is_order_filter(lat, f):
        return False
    return all(lat.meet(x, y) in f for x in f for y in f)


def filters(lat: Lattice) -> list[frozenset]:
    return [f for f in order_filters(lat) if all(lat.meet(x, y) in f for x in f for y in f)]


@dataclass(frozen=True)
class DSLattice:
    """All deductive systems ordered by inclusion, with meet/join tables
    indexed by position in systems."""
    systems: tuple[frozenset, ...]
    meet_table: tuple[tuple[int, ...], ...]
    join_table: tuple[tuple[int, ...], ...]
    bottom_index: int
    top_index: int

    def index(self, d: frozenset) -> int:
        return self.systems.index(d)


def all_deductive_systems(lat: Lattice, cap: int = SUBSET_CAP) -> DSLattice:
    """Enumerate deductive systems. Candidates are pruned to order filters
    containing top, since every deductive system is one. The family is
    memoised on the lattice; the cap is checked on every call."""
    if lat.n > cap:
        raise SizeCapExceeded(
            f"deductive-system enumeration needs at most {cap} elements, got {lat.n}")

    def compute():
        systems = [f for f in _order_filters(lat)
                   if lat.top in f and is_deductive_system(lat, f)]
        systems.sort(key=lambda s: (len(s), sorted(s)))
        index = {s: i for i, s in enumerate(systems)}
        k = len(systems)

        meet = [[0] * k for _ in range(k)]
        join = [[0] * k for _ in range(k)]
        for i, a in enumerate(systems):
            for j, b in enumerate(systems):
                inter = a & b
                if inter not in index:
                    raise InvalidParameter(
                        "internal: intersection of deductive systems escaped the family")
                meet[i][j] = index[inter]
                union = a | b
                sup = lat.universe
                for c in systems:
                    if union <= c and c < sup:
                        sup = c
                join[i][j] = index[sup]

        bottom = index[min(systems, key=len)] if systems else -1
        top = index[lat.universe]
        return DSLattice(tuple(systems), tuple(tuple(r) for r in meet),
                         tuple(tuple(r) for r in join), bottom, top)
    return lat.memo("deductive_systems", compute)


def ds_lattice_is_boolean_2n(lat: Lattice) -> bool:
    """For the diamond family: the deductive systems are exactly the
    proper atom subsets plus top, together with the whole carrier, and
    subset inclusion on atom sets is an order isomorphism onto them."""
    if not is_mn_shaped(lat):
        raise InvalidParameter("boolean structure check expects a diamond lattice")
    atoms = [x for x in lat.elements if x not in (lat.bottom, lat.top)]
    dsl = all_deductive_systems(lat)
    found = set(dsl.systems)

    images: dict[frozenset, frozenset] = {}
    subsets = [frozenset(c) for r in range(len(atoms) + 1)
               for c in itertools.combinations(atoms, r)]
    for a in subsets:
        images[a] = lat.universe if len(a) == len(atoms) else a | {lat.top}
    if set(images.values()) != found or len(found) != 1 << len(atoms):
        return False
    for a in subsets:
        for b in subsets:
            if (a <= b) != (images[a] <= images[b]):
                return False
    return True


# -- relations ---------------------------------------------------------

def theta(lat: Lattice, d: frozenset) -> Relation:
    it = implies_table(lat)
    return frozenset((x, y) for x in lat.elements for y in lat.elements
                     if it[x][y] <= d and it[y][x] <= d)


def kernel(lat: Lattice, rel: Relation) -> frozenset:
    return frozenset(x for x in lat.elements if (x, lat.top) in rel)


def is_equivalence(lat: Lattice, rel: Relation) -> bool:
    for x in lat.elements:
        if (x, x) not in rel:
            return False
    for (a, b) in rel:
        if (b, a) not in rel:
            return False
    members: dict[int, set[int]] = {}
    for (a, b) in rel:
        members.setdefault(a, set()).add(b)
    for a, reach in members.items():
        for b in reach:
            if not members.get(b, set()) <= reach:
                return False
    return True


def _class_count(lat: Lattice, rel: Relation) -> int:
    """Number of classes of an equivalence relation."""
    return len({frozenset(y for x, y in rel if x == a) for a in lat.elements})


def is_meet_congruence(lat: Lattice, rel: Relation) -> bool:
    if not is_equivalence(lat, rel):
        return False
    for (a, b) in rel:
        for c in lat.elements:
            if (lat.meet(a, c), lat.meet(b, c)) not in rel:
                return False
    return True


def relation_of_blocks(blocks) -> Relation:
    pairs = []
    for blk in blocks:
        for a in blk:
            for b in blk:
                pairs.append((a, b))
    return frozenset(pairs)


def all_meet_congruences(lat: Lattice, cap: int = PARTITION_CAP) -> list[Relation]:
    """All meet-compatible equivalences, by a depth-first refinement of
    partitions: elements are placed in a meet-friendly order so violated
    constraints are final and prune the branch immediately."""
    if lat.n > cap:
        raise SizeCapExceeded(
            f"congruence enumeration needs at most {cap} elements, got {lat.n}")
    # Process in an order where the meet of two placed elements is placed.
    order = sorted(lat.elements,
                   key=lambda i: (len(lat.down_set(i)), i))
    n = lat.n
    meet = lat.meet
    blocks: list[list[int]] = []
    bid: dict[int, int] = {}
    out: list[Relation] = []

    def ok_with(e: int) -> bool:
        be = bid[e]
        placed = list(bid)
        for m in blocks[be]:
            if m == e:
                continue
            for c in placed:
                if bid[meet(e, c)] != bid[meet(m, c)]:
                    return False
        for blk in blocks:
            for i, a in enumerate(blk):
                for b in blk[i + 1:]:
                    if bid[meet(a, e)] != bid[meet(b, e)]:
                        return False
        return True

    def walk(k: int):
        if k == n:
            out.append(relation_of_blocks(blocks))
            return
        e = order[k]
        for i in range(len(blocks)):
            blocks[i].append(e)
            bid[e] = i
            if ok_with(e):
                walk(k + 1)
            blocks[i].pop()
            del bid[e]
        blocks.append([e])
        bid[e] = len(blocks) - 1
        if ok_with(e):
            walk(k + 1)
        blocks.pop()
        del bid[e]

    walk(0)
    return sorted(out, key=lambda r: (len(r), sorted(r)))


def find_meet_congruence_with_kernel(lat: Lattice, d: frozenset,
                                     cap: int = PARTITION_CAP) -> Relation | None:
    for rel in all_meet_congruences(lat, cap):
        if kernel(lat, rel) == d:
            return rel
    return None


def has_sp_plus(lat: Lattice, rel: Relation) -> bool:
    from .complementation import complements
    for (a, b) in rel:
        for x in complements(lat, a):
            for y in complements(lat, b):
                if (x, y) not in rel:
                    return False
    return True


def has_sp_implies(lat: Lattice, rel: Relation) -> bool:
    it = implies_table(lat)
    for (a, b) in rel:
        for c in lat.elements:
            for x in it[a][c]:
                for y in it[b][c]:
                    if (x, y) not in rel:
                        return False
    return True


def is_compatible_ds(lat: Lattice, d) -> bool:
    """Deductive system satisfying the two closure conditions that make
    Theta(d) a substitution-friendly equivalence with kernel d. Verdicts
    are memoised on the lattice; d may be any iterable of element ids."""
    d = frozenset(d)
    verdicts = lat.memo("compatible_ds", dict)
    try:
        return verdicts[d]
    except KeyError:
        ok = verdicts[d] = _is_compatible_ds(lat, d)
        return ok


def _is_compatible_ds(lat: Lattice, d: frozenset) -> bool:
    if not is_deductive_system(lat, d):
        return False
    it = implies_table(lat)
    n = lat.n
    sub = [[it[a][b] <= d for b in range(n)] for a in range(n)]

    hypothesis_sets = {it[a][b] for a in range(n) for b in range(n) if sub[a][b]}
    for xs in hypothesis_sets:
        for c in range(n):
            for e in range(n):
                if sub[c][e]:
                    continue
                if all(sub[x][t] for x in xs for t in it[c][e]):
                    return False

    for a in range(n):
        for b in range(n):
            if not (sub[a][b] and sub[b][a]):
                continue
            for c in range(n):
                for x in it[a][c]:
                    for t in it[b][c]:
                        if not sub[x][t]:
                            return False
    return True


def compatible_systems(lat: Lattice, cap: int = SUBSET_CAP) -> list[frozenset]:
    return [d for d in all_deductive_systems(lat, cap).systems
            if is_compatible_ds(lat, d)]


# -- partitions and sampling -------------------------------------------

def all_partitions(n: int):
    """Every partition of range(n), as tuples of blocks."""
    def rec(k: int, blocks: list[list[int]]):
        if k == n:
            yield tuple(tuple(b) for b in blocks)
            return
        for b in blocks:
            b.append(k)
            yield from rec(k + 1, blocks)
            b.pop()
        blocks.append([k])
        yield from rec(k + 1, blocks)
        blocks.pop()

    yield from rec(0, [])


def sample_equivalences(lat: Lattice, count: int = 150, seed: int = 0) -> list[Relation]:
    """Equivalences for larger lattices: all single-pair collapses plus
    seeded random joins of several collapses (transitive closure of the
    merged blocks)."""
    n = lat.n
    rng = random.Random(seed)
    rels: list[Relation] = []

    def closure_of(pairs) -> Relation:
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in pairs:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        groups: dict[int, list[int]] = {}
        for x in range(n):
            groups.setdefault(find(x), []).append(x)
        return relation_of_blocks(groups.values())

    for a in range(n):
        for b in range(a + 1, n):
            rels.append(closure_of([(a, b)]))
    while len(rels) < count:
        k = rng.randint(2, 4)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(k)]
        rels.append(closure_of(pairs))
    return rels


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
    """Witness for law(): the leading subsets of a tuple as "D=... E=..."."""
    return lambda *sets: " ".join(f"{k}={format_element_set(lat, s)}"
                                  for k, s in zip(names, sets))


@_skips_over_cap("filters vs deductive systems")
def check_filters_vs_deductive_systems(lat: Lattice,
                                       cap: int = SUBSET_CAP) -> tuple[CheckResult, ...]:
    """Every deductive system is an order filter; internally implication
    closed ones are filters; on modular lattices every filter is one."""
    comp = is_complemented(lat)
    modular = comp and is_modular(lat)
    systems = [(d,) for d in all_deductive_systems(lat, cap).systems]
    it = implies_table(lat)
    return (
        law("every deductive system an order filter",
            lambda d: is_order_filter(lat, d), systems, comp, _sets(lat, "D")),
        law("internally implication-closed systems are filters",
            lambda d: not all(it[x][y] <= d for x in d for y in d) or is_filter(lat, d),
            systems, comp, _sets(lat, "D")),
        law("every filter a deductive system", lambda f: is_deductive_system(lat, f),
            ((f,) for f in filters(lat)), modular, _sets(lat, "F")),
    )


@_skips_over_cap("deductive family")
def check_deductive_family(lat: Lattice, cap: int = SUBSET_CAP) -> tuple[CheckResult, ...]:
    """Family structure: intersection closure, bounds, Theta reflexivity
    and symmetry, and the same closure for compatible systems."""
    comp = is_complemented(lat)
    dsl = all_deductive_systems(lat, cap)
    systems = dsl.systems
    sysset = set(systems)
    compat = [d for d in systems if is_compatible_ds(lat, d)]

    def reflexive(rel):
        return all((x, x) in rel for x in lat.elements)

    def theta_witness(d, rel):
        return f"D={format_element_set(lat, d)} not " + (
            "reflexive" if not reflexive(rel) else "symmetric")

    return (
        CheckResult("bottom is {1}", systems[dsl.bottom_index] == frozenset((lat.top,)),
                    None, comp),
        CheckResult("top is the carrier", systems[dsl.top_index] == lat.universe,
                    None, comp),
        law("intersection closed", lambda a, b: a & b in sysset,
            itertools.product(systems, repeat=2), comp, _sets(lat, "D", "E")),
        law("theta reflexive and symmetric",
            lambda d, rel: reflexive(rel) and all((b, a) in rel for (a, b) in rel),
            ((d, theta(lat, d)) for d in systems), comp, theta_witness),
        CheckResult("carrier compatible", lat.universe in compat, None, comp),
        law("compatible systems intersection closed",
            lambda a, b: is_compatible_ds(lat, a & b) and a & b in sysset,
            itertools.product(compat, repeat=2), comp, _sets(lat, "D", "E")),
    )


@_skips_over_cap("meet congruence kernels")
def check_meet_congruence_kernels(lat: Lattice,
                                  cap: int = PARTITION_CAP) -> tuple[CheckResult, ...]:
    """Kernels of meet congruences are deductive systems, and theta of the
    kernel refines the congruence (complemented modular lattices)."""
    asserted = is_complemented(lat) and is_modular(lat)
    kernels = [(kernel(lat, rel), rel) for rel in all_meet_congruences(lat, cap)]
    return (
        law("kernel of every meet congruence a deductive system",
            lambda k, rel: is_deductive_system(lat, k), kernels, asserted,
            _sets(lat, "kernel")),
        law("theta of kernel within the congruence", lambda k, rel: theta(lat, k) <= rel,
            kernels, asserted, _sets(lat, "kernel")),
    )


def check_substitution_equivalences(lat: Lattice, exhaustive_cap: int = 6,
                                    samples: int = 150, seed: int = 0) -> PropertyReport:
    """Equivalences with the implication substitution property: they have
    the complement substitution property, their kernel is a deductive
    system, and they refine theta of that kernel."""
    asserted = is_complemented(lat)
    if lat.n <= exhaustive_cap:
        source = [relation_of_blocks(p) for p in all_partitions(lat.n)]
        mode = "exhaustive"
    else:
        source = sample_equivalences(lat, samples, seed)
        mode = f"{len(source)} sampled"
    kernels = [(kernel(lat, rel), rel) for rel in source if has_sp_implies(lat, rel)]

    return PropertyReport(f"substitution equivalences ({mode})", (
        law("implication substitution gives complement substitution",
            lambda k, rel: has_sp_plus(lat, rel), kernels, asserted,
            lambda k, rel: f"classes={_class_count(lat, rel)}"),
        law("kernel a deductive system", lambda k, rel: is_deductive_system(lat, k),
            kernels, asserted, _sets(lat, "kernel")),
        law("relation within theta of kernel", lambda k, rel: rel <= theta(lat, k),
            kernels, asserted, _sets(lat, "kernel")),
        CheckResult(f"surveyed {len(kernels)} substitution equivalences", True,
                    None, asserted=False),
    ))


@_skips_over_cap("compatible kernel recovery")
def check_compatible_kernel_recovery(lat: Lattice,
                                     cap: int = SUBSET_CAP) -> tuple[CheckResult, ...]:
    """For every compatible deductive system D: theta(D) is an equivalence
    with the implication substitution property and kernel exactly D. For
    the other systems the transitivity verdict is recorded only."""
    comp = is_complemented(lat)
    compat, other = [], []
    for d in all_deductive_systems(lat, cap).systems:
        (compat if is_compatible_ds(lat, d) else other).append((d, theta(lat, d)))
    other_transitive = sum(is_equivalence(lat, rel) for _, rel in other)

    return (
        law("theta of compatible systems an equivalence",
            lambda d, rel: is_equivalence(lat, rel), compat, comp, _sets(lat, "D")),
        law("theta of compatible systems has implication substitution",
            lambda d, rel: has_sp_implies(lat, rel), compat, comp, _sets(lat, "D")),
        law("kernel of theta recovers the system", lambda d, rel: kernel(lat, rel) == d,
            compat, comp, _sets(lat, "D")),
        CheckResult(
            f"{len(compat)} compatible systems; theta transitive for "
            f"{other_transitive} of {len(other)} non-compatible ones",
            True, None, asserted=False),
    )

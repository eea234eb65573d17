"""Slow independent reference implementations.

Everything here recomputes results from first principles (definition
scans over all subsets, all partitions, all permutations) so the fast
library paths can be checked against structurally different code.
"""

from __future__ import annotations

import itertools
import random

from latkit.core import Lattice, format_element_set
from latkit.report import CheckResult, PropertyReport


def brute_complements(lat: Lattice, a: int) -> frozenset:
    return frozenset(x for x in lat.elements
                     if lat.join(a, x) == lat.top and lat.meet(a, x) == lat.bottom)


def brute_plus(lat: Lattice, subset: frozenset) -> frozenset:
    out = set(lat.elements)
    for a in subset:
        out &= brute_complements(lat, a)
    return frozenset(out)


def brute_galois_report(lat: Lattice, exhaustive_limit: int = 6,
                        sample_pairs: int = 10000, seed: int = 0,
                        table=None) -> PropertyReport:
    """The Galois laws of plus, from definition scans over subsets held as
    int masks (bit i for element i), with A+ the intersection of the
    complements of A's members. With at most exhaustive_limit elements
    every pair of subsets is scanned. Above that, up to 16 elements, every
    subset is scanned for the single-set laws, and for the pair laws every
    pair of sets with at most one element plus a seeded randint stream of
    pairs, in (A mask, B mask) order. Witnesses are the first failing
    subset in (size, ids) order and the first failing pair in scan order.
    A given table of per-element complement sets replaces the lattice's
    own complements."""
    n = lat.n
    full = (1 << n) - 1
    if n <= exhaustive_limit:
        pairs = itertools.product(range(1 << n), repeat=2)
    else:
        assert n <= 16, "the oracle scans every subset"
        rng = random.Random(seed)
        drawn = {(rng.randint(0, full), rng.randint(0, full)) for _ in range(sample_pairs)}
        small = [0] + [1 << i for i in range(n)]
        pairs = sorted(drawn | set(itertools.product(small, small)))

    comp = [sum(1 << x for x in (brute_complements(lat, a) if table is None else table[a]))
            & full for a in lat.elements]
    pl = [full] * (1 << n)
    for m in range(1, 1 << n):
        low = m & -m
        pl[m] = pl[m ^ low] & comp[low.bit_length() - 1]

    fmt = lambda m: format_element_set(lat, frozenset(i for i in range(n) if m >> i & 1))
    wit = dict.fromkeys(("ext", "triple", "disj", "anti", "adj"))
    for c in itertools.chain.from_iterable(
            itertools.combinations(range(n), k) for k in range(n + 1)):
        a = sum(1 << i for i in c)
        p, dp = pl[a], pl[pl[a]]
        for law, holds in (("ext", not a & ~dp), ("triple", pl[dp] == p),
                           ("disj", not p & dp)):
            if wit[law] is None and not holds:
                wit[law] = f"A={fmt(a)}"
    for a, b in pairs:
        for law, holds in (("anti", a & ~b or not pl[b] & ~pl[a]),
                           ("adj", (not a & ~pl[b]) == (not b & ~pl[a]))):
            if wit[law] is None and not holds:
                wit[law] = f"A={fmt(a)} B={fmt(b)}"
    names = {"ext": "A contained in A++", "triple": "A+++ equals A+",
             "disj": "A+ disjoint from A++",
             "anti": "A within B implies B+ within A+",
             "adj": "A within B+ iff B within A+"}
    return PropertyReport("galois laws (exhaustive)", tuple(
        CheckResult(names[law], wit[law] is None, wit[law]) for law in names))


def brute_closed_sets(lat: Lattice) -> set[frozenset]:
    comp = [brute_complements(lat, a) for a in lat.elements]

    def pl(s):
        out = set(lat.elements)
        for a in s:
            out &= comp[a]
        return frozenset(out)

    out = set()
    for mask in range(1 << lat.n):
        s = frozenset(i for i in range(lat.n) if mask >> i & 1)
        if pl(pl(s)) == s:
            out.add(s)
    return out


def brute_implies(lat: Lattice, a: int, b: int) -> frozenset:
    m = lat.meet(a, b)
    return frozenset(lat.join(x, m) for x in brute_complements(lat, a))


def brute_deductive_systems(lat: Lattice) -> list[frozenset]:
    """Unpruned scan over all subsets containing the top."""
    n = lat.n
    imp = [[brute_implies(lat, a, b) for b in range(n)] for a in range(n)]
    out = []
    for mask in range(1 << n):
        if not mask >> lat.top & 1:
            continue
        d = frozenset(i for i in range(n) if mask >> i & 1)
        ok = True
        for a in d:
            for b in range(n):
                if b not in d and imp[a][b] <= d:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(d)
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def partitions(items: list):
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in partitions(rest):
        for i, blk in enumerate(part):
            yield part[:i] + [blk + [head]] + part[i + 1:]
        yield part + [[head]]


def brute_meet_congruences(lat: Lattice) -> set[frozenset]:
    out = set()
    for part in partitions(list(lat.elements)):
        bid = {}
        for k, blk in enumerate(part):
            for x in blk:
                bid[x] = k
        good = all(bid[lat.meet(a, c)] == bid[lat.meet(b, c)]
                   for blk in part for a in blk for b in blk
                   for c in lat.elements)
        if good:
            out.add(frozenset((a, b) for blk in part for a in blk for b in blk))
    return out


# -- naive lattice enumeration up to isomorphism ------------------------

def min_matrix_key(leq: list[list[bool]]) -> tuple:
    """Lexicographic minimum of the order matrix over all permutations."""
    n = len(leq)
    best = None
    for perm in itertools.permutations(range(n)):
        key = tuple(leq[perm[i]][perm[j]] for i in range(n) for j in range(n))
        if best is None or key < best:
            best = key
    return best


def _is_lattice_matrix(leq: list[list[bool]]) -> bool:
    n = len(leq)
    for a in range(n):
        for b in range(a + 1, n):
            lower = [c for c in range(n) if leq[c][a] and leq[c][b]]
            if not any(all(leq[d][c] for d in lower) for c in lower):
                return False
            upper = [c for c in range(n) if leq[a][c] and leq[b][c]]
            if not any(all(leq[c][d] for d in upper) for c in upper):
                return False
    return True


def naive_lattice_keys(n: int) -> set[tuple]:
    """Canonical keys of all n-element lattices: scan every strict
    relation on naturally ordered pairs, keep transitive lattice orders,
    deduplicate by full-permutation matrix minimization."""
    if n == 1:
        return set()
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keys = set()
    for bits in range(1 << len(pairs)):
        leq = [[i == j for j in range(n)] for i in range(n)]
        for (i, j), k in zip(pairs, range(len(pairs))):
            if bits >> k & 1:
                leq[i][j] = True
        ok = True
        for (i, j) in pairs:
            if leq[i][j]:
                for k in range(j + 1, n):
                    if leq[j][k] and not leq[i][k]:
                        ok = False
                        break
            if not ok:
                break
        if ok and _is_lattice_matrix(leq):
            keys.add(min_matrix_key(leq))
    return keys


def matrix_key_of(lat: Lattice) -> tuple:
    leq = [[lat.leq(i, j) for j in range(lat.n)] for i in range(lat.n)]
    return min_matrix_key(leq)


def natural_lattice_labellings(n: int):
    """Up-set masks of every lattice order on 0..n-1 whose ids respect the
    order, unpruned, in the enumerator's walk order. 0 is the bottom and
    n-1 the top. Element k in between takes, in turn, every down-closed
    strict down-set made of 0 and some of 1..k-1, ordered with membership
    of 1 before its absence, then of 2, and so on."""
    if n < 2:
        return

    def walk(downs):
        k = len(downs)
        if k == n - 1:
            strict = downs + [(1 << k) - 1]
            leq = [[i == j or bool(strict[j] >> i & 1) for j in range(n)]
                   for i in range(n)]
            if _is_lattice_matrix(leq):
                yield [sum(1 << j for j in range(n) if leq[i][j]) for i in range(n)]
            return
        for flags in itertools.product((1, 0), repeat=k - 1):
            mask = 1 | sum(f << j for j, f in enumerate(flags, 1))
            if all(downs[j] & ~mask == 0 for j in range(k) if mask >> j & 1):
                yield from walk(downs + [mask])

    yield from walk([0])


def ordered_matrix_key(up) -> tuple:
    """Lexicographic minimum of the order matrix over the permutations that
    list elements by (down-set size, up-set size). That pair is kept by
    every isomorphism, so equal keys mean isomorphic orders; it replaces
    matrix_key_of where a scan of all n! permutations is too slow."""
    n = len(up)
    leq = [[bool(up[i] >> j & 1) for j in range(n)] for i in range(n)]
    inv = [(sum(leq[j][i] for j in range(n)), up[i].bit_count()) for i in range(n)]
    groups = [[i for i in range(n) if inv[i] == v] for v in sorted(set(inv))]
    best = None
    for parts in itertools.product(*(itertools.permutations(g) for g in groups)):
        perm = [e for part in parts for e in part]
        key = tuple(leq[perm[i]][perm[j]] for i in range(n) for j in range(n))
        if best is None or key < best:
            best = key
    return best


def first_lattice_per_class(n: int) -> list[list[int]]:
    """Up-set masks of the first natural labelling of each n-element lattice
    in the enumerator's walk order, one per isomorphism class."""
    seen = set()
    out = []
    for up in natural_lattice_labellings(n):
        key = ordered_matrix_key(up)
        if key not in seen:
            seen.add(key)
            out.append(up)
    return out


def relabel(lat: Lattice, perm: list[int]) -> Lattice:
    """Same lattice with element i moved to position perm[i]."""
    labels = [""] * lat.n
    ups = [0] * lat.n
    for i in lat.elements:
        labels[perm[i]] = lat.label(i)
        m = 0
        for j in lat.elements:
            if lat.leq(i, j):
                m |= 1 << perm[j]
        ups[perm[i]] = m
    return Lattice(labels, ups, name=lat.name)


# -- meet/join tables and bounded posets --------------------------------

def brute_meet(lat: Lattice, a: int, b: int) -> int:
    """The common lower bound of a and b above every other one."""
    lower = [c for c in lat.elements if lat.leq(c, a) and lat.leq(c, b)]
    return next(c for c in lower if all(lat.leq(d, c) for d in lower))


def brute_join(lat: Lattice, a: int, b: int) -> int:
    upper = [c for c in lat.elements if lat.leq(a, c) and lat.leq(b, c)]
    return next(c for c in upper if all(lat.leq(c, d) for d in upper))


def brute_covers(lat: Lattice) -> tuple[tuple[int, int], ...]:
    """(lower, upper) pairs with nothing strictly between, sorted."""
    return tuple((i, j) for i in lat.elements for j in lat.elements
                 if lat.lt(i, j)
                 and not any(lat.lt(i, k) and lat.lt(k, j) for k in lat.elements))


def bounded_posets(n: int):
    """Up-set masks of every bounded order on 0..n-1 in which ids respect
    the order (0 the bottom, n-1 the top), lattices or not."""
    inner = [(i, j) for i in range(1, n - 1) for j in range(i + 1, n - 1)]
    for bits in range(1 << len(inner)):
        up = [(1 << n) - 1] + [1 << i | 1 << (n - 1) for i in range(1, n - 1)] \
            + [1 << (n - 1)]
        for k, (i, j) in enumerate(inner):
            if bits >> k & 1:
                up[i] |= 1 << j
        if all(up[j] & ~up[i] == 0 for i in range(n) for j in range(n)
               if up[i] >> j & 1):
            yield up


def first_missing_bound(labels, up) -> tuple[tuple[int, int], str] | None:
    """The first pair (a, b) in row order without a meet or a join,
    the meet tested first, with the error message Lattice gives for it."""
    n = len(up)
    leq = lambda x, y: bool(up[x] >> y & 1)
    for a in range(n):
        for b in range(n):
            for what, bounds, below in (
                    ("meet", [c for c in range(n) if leq(c, a) and leq(c, b)], leq),
                    ("join", [c for c in range(n) if leq(a, c) and leq(b, c)],
                     lambda x, y: leq(y, x))):
                if not any(all(below(d, c) for d in bounds) for c in bounds):
                    return (a, b), f"elements {labels[a]!r}, {labels[b]!r} have no {what}"
    return None


# -- subset operations on frozensets ------------------------------------

def brute_set_join(lat: Lattice, a: frozenset, b: frozenset) -> frozenset:
    return frozenset(lat.join(x, y) for x in a for y in b)


def brute_set_meet(lat: Lattice, a: frozenset, b: frozenset) -> frozenset:
    return frozenset(lat.meet(x, y) for x in a for y in b)


def brute_set_le(lat: Lattice, a: frozenset, b: frozenset) -> bool:
    return all(lat.leq(x, y) for x in a for y in b)


def brute_set_le1(lat: Lattice, a: frozenset, b: frozenset) -> bool:
    return all(any(lat.leq(x, y) for y in b) for x in a)


def brute_set_le2(lat: Lattice, a: frozenset, b: frozenset) -> bool:
    return all(any(lat.leq(x, y) for x in a) for y in b)


def brute_closure_scan(lat: Lattice, comp, cs: tuple) -> tuple:
    """The closure-lattice scan on frozensets: the family cs (in order)
    under plus over the complement table comp, with the O(k^3) search for
    a join that is not least or a meet that is not greatest. Returns the
    meet table, join table, orthocomplement and violations."""
    universe = frozenset(lat.elements)

    def plus(s):
        out = universe
        for x in s:
            out = out & frozenset(comp[x])
        return out

    index = {s: i for i, s in enumerate(cs)}
    k = len(cs)
    fmt = lambda s: format_element_set(lat, s)
    violations = []
    for s in cs:
        if plus(plus(s)) != s:
            violations.append(f"family member not closed: {fmt(s)}")
    ortho = []
    for s in cs:
        p = plus(s)
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
            u = plus(plus(s | t))
            if u not in index:
                violations.append(f"closure of union escapes the family: {fmt(s)}, {fmt(t)}")
                join[i][j] = -1
            else:
                join[i][j] = index[u]
                if not (s <= u and t <= u):
                    violations.append(f"join not an upper bound: {fmt(s)}, {fmt(t)}")
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
    full = index.get(universe)
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
    return (tuple(tuple(r) for r in meet), tuple(tuple(r) for r in join),
            tuple(ortho), tuple(violations))


# -- deduction on frozensets and pair sets --------------------------------

def brute_theta(lat: Lattice, it, d: frozenset) -> frozenset:
    return frozenset((x, y) for x in lat.elements for y in lat.elements
                     if it[x][y] <= d and it[y][x] <= d)


def brute_has_sp_plus(rel: frozenset, comp) -> bool:
    return all((x, y) in rel for a, b in rel for x in comp[a] for y in comp[b])


def brute_has_sp_implies(lat: Lattice, rel: frozenset, it) -> bool:
    return all((x, y) in rel for a, b in rel for c in lat.elements
               for x in it[a][c] for y in it[b][c])


def brute_is_compatible_ds(lat: Lattice, it, d: frozenset) -> bool:
    """A deductive system d such that no implication set outside d is
    forced into d by a hypothesis set inside d, and theta(d) substitutes
    into implication sets up to "within d"."""
    n = lat.n
    if lat.top not in d or any(b not in d and it[a][b] <= d
                               for a in d for b in range(n)):
        return False
    sub = [[it[a][b] <= d for b in range(n)] for a in range(n)]
    for xs in {it[a][b] for a in range(n) for b in range(n) if sub[a][b]}:
        for c in range(n):
            for e in range(n):
                if not sub[c][e] and all(sub[x][t] for x in xs for t in it[c][e]):
                    return False
    return all(sub[x][t] for a in range(n) for b in range(n) if sub[a][b] and sub[b][a]
               for c in range(n) for x in it[a][c] for t in it[b][c])


# -- colour refinement, inclusion covers and the partition walk ----------

def wl_partition(up, down) -> list[int]:
    """Element colours of the order given by up- and down-set masks, from
    the start key (down-set size, up-set size, lower and upper cover
    counts, height, depth) refined by the sorted colours of lower and
    upper covers until no class splits."""
    n = len(up)
    lt = [[i != j and bool(up[i] >> j & 1) for j in range(n)] for i in range(n)]
    cov_up = [[j for j in range(n) if lt[i][j]
               and not any(lt[i][k] and lt[k][j] for k in range(n))] for i in range(n)]
    cov_dn = [[i for i in range(n) if j in cov_up[i]] for j in range(n)]
    height, depth = {}, {}

    def h(i):
        if i not in height:
            height[i] = max((h(j) + 1 for j in cov_dn[i]), default=0)
        return height[i]

    def d(i):
        if i not in depth:
            depth[i] = max((d(j) + 1 for j in cov_up[i]), default=0)
        return depth[i]

    keys = [(down[i].bit_count(), up[i].bit_count(), len(cov_dn[i]), len(cov_up[i]),
             h(i), d(i)) for i in range(n)]
    while True:
        color = [sorted(set(keys)).index(k) for k in keys]
        keys = [(color[i], tuple(sorted(color[j] for j in cov_dn[i])),
                 tuple(sorted(color[j] for j in cov_up[i]))) for i in range(n)]
        if len(set(keys)) == len(set(color)):
            return color


def brute_inclusion_covers(systems) -> list[tuple[int, int]]:
    """(i, j) position pairs of a family of frozensets where system i is a
    proper subset of system j with no member strictly between, in (i, j)
    order."""
    return [(i, j) for i, a in enumerate(systems) for j, b in enumerate(systems)
            if i != j and a < b and not any(a < c < b for c in systems)]


def recursive_partitions(n: int):
    """Every partition of range(n), as tuples of blocks: element k joins
    each open block in turn, then opens a new one."""
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


# -- residuation-type laws by triple scans --------------------------------

def brute_is_complemented(lat: Lattice) -> bool:
    return all(brute_complements(lat, a) for a in lat.elements)


def brute_is_modular(lat: Lattice) -> bool:
    """a below c gives a v (b ^ c) = (a v b) ^ c."""
    return all(lat.join(a, lat.meet(b, c)) == lat.meet(lat.join(a, b), c)
               for a in lat.elements for b in lat.elements for c in lat.elements
               if lat.leq(a, c))


def brute_is_diamond(lat: Lattice) -> bool:
    """Two or more elements besides the bounds, each both an atom and a
    coatom."""
    middles = [x for x in lat.elements if x not in (lat.bottom, lat.top)]
    return len(middles) >= 2 and not any(lat.lt(x, y) for x in middles for y in middles)


def _scan(lat: Lattice, name: str, holds, tuples, asserted: bool, letters: str) -> CheckResult:
    """The first tuple where holds fails, named "a=x b=y ..." by label."""
    for t in tuples:
        if not holds(*t):
            return CheckResult(name, False, " ".join(
                f"{k}={lat.labels[i]}" for k, i in zip(letters, t)), asserted)
    return CheckResult(name, True, None, asserted)


def _le1(lat: Lattice, a: frozenset, b: frozenset) -> bool:
    return all(any(lat.leq(x, y) for y in b) for x in a)


def _le2(lat: Lattice, a: frozenset, b: frozenset) -> bool:
    return all(any(lat.leq(x, y) for x in a) for y in b)


def brute_adjointness(lat: Lattice, it, ot) -> PropertyReport:
    """check_adjointness from the frozenset tables it and ot, scanning
    every triple (a, b, c) in order."""
    els = lat.elements
    asserted = brute_is_complemented(lat) and brute_is_modular(lat)
    return PropertyReport("adjointness", (
        _scan(lat, "a(.)b below c iff a below b->c",
              lambda a, b, c: (all(lat.leq(x, c) for x in ot[a][b])
                               == all(lat.leq(a, y) for y in it[b][c])),
              itertools.product(els, repeat=3), asserted, "abc"),
    ))


def brute_implication_meet_link(lat: Lattice, it) -> PropertyReport:
    els = lat.elements
    asserted = brute_is_complemented(lat) and brute_is_modular(lat)

    def below(x, s):
        return any(lat.leq(x, y) for y in s)

    return PropertyReport("implication meet link", (
        _scan(lat, "a below b->c pointwise forces a^b below c",
              lambda a, b, c: not below(a, it[b][c]) or lat.leq(lat.meet(a, b), c),
              itertools.product(els, repeat=3), asserted, "abc"),
        _scan(lat, "a^b below c iff a^b below b->c pointwise",
              lambda a, b, c: lat.leq(lat.meet(a, b), c) == below(lat.meet(a, b), it[b][c]),
              itertools.product(els, repeat=3), asserted, "abc"),
    ))


def brute_diamond_residuation(lat: Lattice, it) -> PropertyReport:
    els = lat.elements
    asserted = brute_is_diamond(lat)

    def expected(a, b):
        if lat.leq(a, b):
            return frozenset((lat.top,))
        return frozenset((b,)) if a == lat.top else brute_complements(lat, a)

    return PropertyReport("diamond residuation", (
        _scan(lat, "case form: {1} / {b} / a+", lambda a, b: it[a][b] == expected(a, b),
              itertools.product(els, repeat=2), asserted, "ab"),
        _scan(lat, "residuation: a^b below c iff a below b->c pointwise",
              lambda a, b, c: (lat.leq(lat.meet(a, b), c)
                               == any(lat.leq(a, y) for y in it[b][c])),
              itertools.product(els, repeat=3), asserted, "abc"),
    ))


def brute_implication_monotone(lat: Lattice, it) -> CheckResult:
    """The "both set orders" law of check_implication_laws, scanning b
    below c, then a."""
    els = lat.elements
    return _scan(lat, "b below c makes a->b below a->c (both set orders)",
                 lambda a, b, c: (_le1(lat, it[a][b], it[a][c])
                                  and _le2(lat, it[a][b], it[a][c])),
                 ((a, b, c) for b in els for c in els if lat.leq(b, c) for a in els),
                 brute_is_complemented(lat), "abc")


def brute_conjunction_monotone(lat: Lattice, ot) -> CheckResult:
    """The "both set orders" law of check_conjunction_laws, scanning a
    below b, then c."""
    els = lat.elements
    return _scan(lat, "a below b makes a(.)c below b(.)c (both set orders)",
                 lambda a, b, c: (_le1(lat, ot[a][c], ot[b][c])
                                  and _le2(lat, ot[a][c], ot[b][c])),
                 ((a, b, c) for a in els for b in els if lat.leq(a, b) for c in els),
                 brute_is_complemented(lat), "abc")


# -- the least substitution equivalence ---------------------------------

def brute_least_substitution(lat: Lattice, it) -> tuple[int, ...]:
    """Rows of the intersection of every partition of the elements with
    the implication substitution property, from the definition: a and b
    in one block put every x in it[a][c] in one block with every y in
    it[b][c]. The one-block partition always qualifies."""
    n = lat.n
    rows = [(1 << n) - 1] * n
    for part in partitions(list(range(n))):
        bid = {x: k for k, blk in enumerate(part) for x in blk}
        if all(bid[x] == bid[y] for blk in part for a in blk for b in blk
               for c in range(n) for x in it[a][c] for y in it[b][c]):
            for blk in part:
                m = sum(1 << x for x in blk)
                for x in blk:
                    rows[x] &= m
    return tuple(rows)


# -- whole reports by full scans ------------------------------------------
#
# Each oracle rebuilds one check's report from frozenset tables (it, ot
# and comp as the memos hold them) and the lattice's own order and
# operations, scanning every tuple of each law in the check's order.

def _set_scan(lat: Lattice, name: str, holds, tuples, asserted: bool,
              letters: str) -> CheckResult:
    """_scan with the leading subsets of the tuple as witness, "D=.. E=.."."""
    for t in tuples:
        if not holds(*t):
            return CheckResult(name, False, " ".join(
                f"{k}={format_element_set(lat, s)}" for k, s in zip(letters.split(), t)),
                asserted)
    return CheckResult(name, True, None, asserted)


def _pointwise(op, a, b) -> frozenset:
    return frozenset(op(x, y) for x in a for y in b)


def _plus(lat: Lattice, comp, s) -> frozenset:
    out = frozenset(lat.elements)
    for x in s:
        out &= comp[x]
    return out


def brute_lattice_axioms(lat: Lattice) -> PropertyReport:
    els, m, j = lat.elements, lat.meet, lat.join
    pairs = list(itertools.product(els, repeat=2))
    return PropertyReport("lattice axioms", (
        _scan(lat, "meet commutative", lambda a, b: m(a, b) == m(b, a), pairs, True, "ab"),
        _scan(lat, "join commutative", lambda a, b: j(a, b) == j(b, a), pairs, True, "ab"),
        _scan(lat, "absorption", lambda a, b: m(a, j(a, b)) == a and j(a, m(a, b)) == a,
              pairs, True, "ab"),
        _scan(lat, "order agrees with meet/join",
              lambda a, b: lat.leq(a, b) == (m(a, b) == a) == (j(a, b) == b), pairs, True, "ab"),
        _scan(lat, "associativity",
              lambda a, b, c: m(m(a, b), c) == m(a, m(b, c)) and j(j(a, b), c) == j(a, j(b, c)),
              itertools.product(els, repeat=3), True, "abc"),
        CheckResult("bounds", m(lat.bottom, lat.top) == lat.bottom
                    and j(lat.bottom, lat.top) == lat.top),
    ))


def brute_order_reversal(lat: Lattice, comp) -> PropertyReport:
    pairs = list(itertools.product(lat.elements, repeat=2))
    r1 = _scan(lat, "(x^y)+ absorbs x+ v y+ pointwise",
               lambda x, y: _le1(lat, _pointwise(lat.join, comp[x], comp[y]),
                                 comp[lat.meet(x, y)]), pairs, False, "xy")
    r2 = _scan(lat, "x below y reverses complement sets",
               lambda x, y: not lat.leq(x, y) or _le1(lat, comp[y], comp[x]), pairs, False, "xy")
    r3 = _scan(lat, "(x v y)+ below x+ ^ y+ pointwise",
               lambda x, y: _le1(lat, comp[lat.join(x, y)],
                                 _pointwise(lat.meet, comp[x], comp[y])), pairs, False, "xy")
    s1, s2, s3 = r1.passed, r2.passed, r3.passed
    asserted = brute_is_complemented(lat)
    return PropertyReport("order reversal", (
        r1, r2, r3,
        CheckResult("first statement implies second", not s1 or s2,
                    None if not s1 or s2 else f"s1 holds, s2 fails at {r2.witness}", asserted),
        CheckResult("second and third equivalent", s2 == s3,
                    None if s2 == s3 else f"s2={s2} s3={s3}", asserted),
    ))


def brute_implication_laws(lat: Lattice, it, comp) -> PropertyReport:
    asserted = brute_is_complemented(lat)
    els, top = lat.elements, frozenset((lat.top,))
    dps = [_plus(lat, comp, comp[a]) for a in els]
    pairs = list(itertools.product(els, repeat=2))
    converse = next(((a, b) for a, b in pairs if it[a][b] == top and not lat.leq(a, b)), None)
    meet_closed = [all(lat.meet(x, y) in s for x in s for y in s) for s in dps]
    return PropertyReport("implication laws", (
        _scan(lat, "a->0 = a+ and 1->a = {a}",
              lambda a: it[a][lat.bottom] == comp[a] and it[lat.top][a] == {a},
              ((a,) for a in els), asserted, "a"),
        _scan(lat, "a below b gives a->b = {1}", lambda a, b: it[a][b] == top,
              ((a, b) for a, b in pairs if lat.leq(a, b)), asserted, "ab"),
        _scan(lat, "a->b = {1} iff a^b in a++",
              lambda a, b: (it[a][b] == top) == (lat.meet(a, b) in dps[a]), pairs, asserted, "ab"),
        _scan(lat, "b complements a gives a->b = a+", lambda a, b: it[a][b] == comp[a],
              ((a, b) for a in els for b in comp[a]), asserted, "ab"),
        brute_implication_monotone(lat, it),
        _scan(lat, "meet-closed a++ makes true consequents meet-stable",
              lambda a, b, c: it[a][c] != top or it[a][lat.meet(b, c)] == top,
              ((a, b, c) for a in els if meet_closed[a] for b in els if it[a][b] == top
               for c in els), asserted, "abc"),
        _scan(lat, "a++ within b++ and a->b = {1} force b->a = {1}",
              lambda a, b: it[b][a] == top,
              ((a, b) for a, b in pairs if dps[a] <= dps[b] and it[a][b] == top), asserted, "ab"),
        CheckResult("converse failures of the truth law exist", converse is not None,
                    None if converse is None else
                    f"a={lat.labels[converse[0]]} b={lat.labels[converse[1]]}: "
                    "a->b = {1} without a below b", asserted=False),
    ))


def brute_modus_laws(lat: Lattice, it, comp) -> PropertyReport:
    asserted = brute_is_complemented(lat) and brute_is_modular(lat)
    els = lat.elements
    pairs = list(itertools.product(els, repeat=2))

    def ponens(a, b):
        return frozenset(lat.meet(a, x) for x in it[a][b])

    def self_applied(a, b):
        return frozenset(lat.join(x, lat.meet(a, y)) for x in comp[a] for y in it[a][b])

    return PropertyReport("modus laws", (
        next((CheckResult("modus ponens: a ^ (a->b) = {a^b}", False,
                          f"a={lat.labels[a]} b={lat.labels[b]} "
                          f"got={format_element_set(lat, ponens(a, b))}", asserted)
              for a, b in pairs if ponens(a, b) != {lat.meet(a, b)}),
             CheckResult("modus ponens: a ^ (a->b) = {a^b}", True, None, asserted)),
        _scan(lat, "modus tollens: a+ below b+ gives (a->b) ^ b+ = a+",
              lambda a, b: _pointwise(lat.meet, it[a][b], comp[b]) == comp[a],
              ((a, b) for a, b in pairs
               if all(lat.leq(x, y) for x in comp[a] for y in comp[b])), asserted, "ab"),
        _scan(lat, "value stability: c in a->b gives a->c = a->b",
              lambda a, b, c: it[a][c] == it[a][b],
              ((a, b, c) for a, b in pairs for c in it[a][b]), asserted, "abc"),
        _scan(lat, "self application: a->(a->b) = a->b",
              lambda a, b: self_applied(a, b) == it[a][b], pairs, asserted, "ab"),
        _scan(lat, "absorbed antecedent: a+ below b gives a->b = {b}",
              lambda a, b: it[a][b] == {b},
              ((a, b) for a, b in pairs if all(lat.leq(x, b) for x in comp[a])), asserted, "ab"),
    ))


def brute_conjunction_laws(lat: Lattice, ot, comp) -> PropertyReport:
    comped = brute_is_complemented(lat)
    modular = comped and brute_is_modular(lat)
    els = lat.elements
    pairs = list(itertools.product(els, repeat=2))
    zero = frozenset((lat.bottom,))

    def got(a, b):
        return f"a={lat.labels[a]} b={lat.labels[b]} got={format_element_set(lat, ot[a][b])}"

    def bounded(a, b):
        return all(lat.leq(lat.meet(a, b), x) and lat.leq(x, b) for x in ot[a][b])

    def order_is_odot(a, b):
        return lat.leq(a, b) == (ot[a][b] == {a})

    def reapplied(a, b):
        return frozenset(lat.meet(b, lat.join(x, y)) for x in ot[a][b] for y in comp[b])

    def first(name, holds, tuples, asserted, witness):
        return next((CheckResult(name, False, witness(*t), asserted)
                     for t in tuples if not holds(*t)), CheckResult(name, True, None, asserted))

    return PropertyReport("conjunction laws", (
        _scan(lat, "0 absorbs: 0(.)a = a(.)0 = {0}",
              lambda a: ot[lat.bottom][a] == zero and ot[a][lat.bottom] == zero,
              ((a,) for a in els), comped, "a"),
        _scan(lat, "1 is a unit: 1(.)a = a(.)1 = {a}",
              lambda a: ot[lat.top][a] == {a} == ot[a][lat.top], ((a,) for a in els), comped, "a"),
        first("a^b below a(.)b below b; b below a collapses to {b}",
              lambda a, b: bounded(a, b) and (not lat.leq(b, a) or ot[a][b] == {b}), pairs,
              comped, lambda a, b: got(a, b) if not bounded(a, b)
              else f"a={lat.labels[a]} b={lat.labels[b]}"),
        brute_conjunction_monotone(lat, ot),
        first("idempotence: a(.)a = {a}", lambda a: ot[a][a] == {a}, ((a,) for a in els),
              comped,
              lambda a: f"a={lat.labels[a]} got={format_element_set(lat, ot[a][a])}"),
        first("a below b iff a(.)b = {a}; (a(.)b)(.)b = a(.)b",
              lambda a, b: order_is_odot(a, b) and reapplied(a, b) == ot[a][b], pairs, modular,
              lambda a, b: got(a, b) if not order_is_odot(a, b)
              else f"a={lat.labels[a]} b={lat.labels[b]} reapplication moved"),
    ))


# -- deduction reports by full scans --------------------------------------

def _subsets(lat: Lattice):
    """Every subset of the carrier in (size, ids) order."""
    return [frozenset(c) for k in range(lat.n + 1)
            for c in itertools.combinations(lat.elements, k)]


def _brute_deductive(lat: Lattice, it, d) -> bool:
    return lat.top in d and not any(b not in d and it[a][b] <= d
                                    for a in d for b in lat.elements)


def _brute_order_filter(lat: Lattice, f) -> bool:
    return bool(f) and all(y in f for x in f for y in lat.elements if lat.leq(x, y))


def _brute_filter(lat: Lattice, f) -> bool:
    return _brute_order_filter(lat, f) and all(lat.meet(x, y) in f for x in f for y in f)


def brute_system_family(lat: Lattice, it) -> list[frozenset]:
    """The deductive systems among the order filters, in (size, ids)
    order: the family the checks enumerate."""
    return [d for d in _subsets(lat) if _brute_order_filter(lat, d) and _brute_deductive(lat, it, d)]


def brute_filters_vs_deductive_systems(lat: Lattice, it) -> PropertyReport:
    comped = brute_is_complemented(lat)
    modular = comped and brute_is_modular(lat)
    systems = [(d,) for d in brute_system_family(lat, it)]
    return PropertyReport("filters vs deductive systems", (
        _set_scan(lat, "every deductive system an order filter",
                  lambda d: _brute_order_filter(lat, d), systems, comped, "D"),
        _set_scan(lat, "internally implication-closed systems are filters",
                  lambda d: not all(it[x][y] <= d for x in d for y in d) or _brute_filter(lat, d),
                  systems, comped, "D"),
        _set_scan(lat, "every filter a deductive system", lambda f: _brute_deductive(lat, it, f),
                  ((f,) for f in _subsets(lat) if _brute_filter(lat, f)), modular, "F"),
    ))


def _brute_equivalence(lat: Lattice, rel) -> bool:
    return (all((x, x) in rel for x in lat.elements) and all((y, x) in rel for x, y in rel)
            and all((x, z) in rel for x, y in rel for y2, z in rel if y == y2))


def brute_deductive_family(lat: Lattice, it) -> PropertyReport:
    comped = brute_is_complemented(lat)
    systems = brute_system_family(lat, it)
    compat = [d for d in systems if brute_is_compatible_ds(lat, it, d)]
    full = frozenset(lat.elements)

    def theta_bad(d):
        rel = brute_theta(lat, it, d)
        if not all((x, x) in rel for x in lat.elements):
            return "reflexive"
        return None if all((y, x) in rel for x, y in rel) else "symmetric"

    bad = next(((d, why) for d in systems if (why := theta_bad(d))), None)
    return PropertyReport("deductive family", (
        CheckResult("bottom is {1}", systems[0] == {lat.top}, None, comped),
        CheckResult("top is the carrier", full in systems, None, comped),
        _set_scan(lat, "intersection closed", lambda a, b: a & b in systems,
                  itertools.product(systems, repeat=2), comped, "D E"),
        CheckResult("theta reflexive and symmetric", bad is None, None if bad is None
                    else f"D={format_element_set(lat, bad[0])} not {bad[1]}", comped),
        CheckResult("carrier compatible", full in compat, None, comped),
        _set_scan(lat, "compatible systems intersection closed",
                  lambda a, b: a & b in systems and brute_is_compatible_ds(lat, it, a & b),
                  itertools.product(compat, repeat=2), comped, "D E"),
    ))


def brute_compatible_kernel_recovery(lat: Lattice, it) -> PropertyReport:
    comped = brute_is_complemented(lat)
    systems = brute_system_family(lat, it)
    compat = [(d,) for d in systems if brute_is_compatible_ds(lat, it, d)]
    other = [d for d in systems if not brute_is_compatible_ds(lat, it, d)]
    theta = {d: brute_theta(lat, it, d) for d in systems}
    transitive = sum(_brute_equivalence(lat, theta[d]) for d in other)
    return PropertyReport("compatible kernel recovery", (
        _set_scan(lat, "theta of compatible systems an equivalence",
                  lambda d: _brute_equivalence(lat, theta[d]), compat, comped, "D"),
        _set_scan(lat, "theta of compatible systems has implication substitution",
                  lambda d: brute_has_sp_implies(lat, theta[d], it), compat, comped, "D"),
        _set_scan(lat, "kernel of theta recovers the system",
                  lambda d: frozenset(x for x in lat.elements if (x, lat.top) in theta[d]) == d,
                  compat, comped, "D"),
        CheckResult(f"{len(compat)} compatible systems; theta transitive for "
                    f"{transitive} of {len(other)} non-compatible ones", True, None,
                    asserted=False),
    ))


def brute_substitution_family(lat: Lattice, it, cap: int) -> list[frozenset] | None:
    """Every partition with the implication substitution property, as
    sets of pairs, in walk order: element k joins each open block in
    turn, then opens a new one. a and b in one block put every x in
    it[a][c] in one block with every y in it[b][c]; a branch is pruned
    once such a constraint fails among placed elements, which only the
    newest one can have made fail. None when there are more than cap."""
    n, bid, blocks, out = lat.n, {}, [], []

    def same(x, y):
        return x not in bid or y not in bid or bid[x] == bid[y]

    def fits(e):
        for b in blocks[bid[e]]:
            if not all(same(x, y) for c in range(n) for x in it[e][c] for y in it[b][c]):
                return False
        return all(same(e, y) for blk in blocks for a in blk for b in blk
                   for c in range(n) if e in it[a][c] for y in it[b][c])

    def walk(k):
        if k == n:
            out.append(frozenset((a, b) for blk in blocks for a in blk for b in blk))
            return len(out) <= cap
        for i in range(len(blocks) + 1):
            if i == len(blocks):
                blocks.append([])
            blocks[i].append(k)
            bid[k] = i
            go = not fits(k) or walk(k + 1)
            blocks[i].pop()
            del bid[k]
            if not go:
                return False
        blocks.pop()
        return True

    return out if walk(0) else None


def brute_substitution_equivalences(lat: Lattice, it, comp, cap: int) -> PropertyReport:
    """The report on the family of brute_substitution_family, or its one
    skipped entry when there are more than cap equivalences."""
    title = "substitution equivalences (exhaustive)"
    family = brute_substitution_family(lat, it, cap)
    if family is None:
        return PropertyReport(title, (CheckResult(
            "skipped", True, f"more than {cap} substitution equivalences", asserted=False),))
    comped = brute_is_complemented(lat)
    kernels = [(frozenset(x for x in lat.elements if (x, lat.top) in rel), rel)
               for rel in family]

    def classes(rel):
        return len({frozenset(y for x2, y in rel if x2 == x) for x in lat.elements})

    return PropertyReport(title, (
        next((CheckResult("implication substitution gives complement substitution", False,
                          f"classes={classes(rel)}", comped)
              for _, rel in kernels if not brute_has_sp_plus(rel, comp)),
             CheckResult("implication substitution gives complement substitution", True,
                         None, comped)),
        _set_scan(lat, "kernel a deductive system", lambda k, rel: _brute_deductive(lat, it, k),
                  kernels, comped, "kernel"),
        _set_scan(lat, "relation within theta of kernel",
                  lambda k, rel: rel <= brute_theta(lat, it, k), kernels, comped, "kernel"),
        CheckResult(f"surveyed {len(kernels)} substitution equivalences", True, None,
                    asserted=False),
    ))

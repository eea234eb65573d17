"""Finite bounded lattices: construction, order queries, structural predicates.

Elements are dense integer ids 0..n-1; labels are presentation only. The
order is stored as one bitmask row per element and meet/join as full n x n
tables, so every query after construction is a table lookup. One
function, _bounds_and_tables, builds the bounds and both tables of every
Lattice, reading each meet off a map from down-sets to elements, exact
for any labelling: the common lower bounds of a and b form the
down-closed set down[a] & down[b], which has a greatest member, the
meet, exactly when it is that member's down-set. Joins and bounds are
read the same way from up- and down-sets, and violations raise the
matching subclass of LatticeError. Lattice.__init__ validates the poset
axioms and then calls it. The lattice enumerator alone skips the
validation, since its walk proves each order it completes a lattice, and
Lattice._natural defers the call to the first read of a bound or a
table: most enumerated lattices are only keyed.
"""

from __future__ import annotations

from codecs import BOM_UTF8
from itertools import product
from operator import itemgetter

from .errors import (
    CycleDetected,
    InvalidParameter,
    NoBounds,
    NotALattice,
    ParseError,
    SizeCapExceeded,
    TrivialLattice,
)
from .report import CheckResult, PropertyReport, law, row_law

# Practical ceiling for subset-quantified work; callers that enumerate
# subsets refuse larger inputs instead of silently degrading.
ELEMENT_CAP = 64


# Member ids of every byte value, and of every byte value shifted up
# eight places, so members() of a mask below 2**16 is at most two tuple
# lookups.
_BYTE_IDS = tuple(tuple(i for i in range(8) if b >> i & 1) for b in range(256))
_HIGH_BYTE_IDS = tuple(tuple(i + 8 for i in ids) for ids in _BYTE_IDS)


def members(mask: int) -> tuple[int, ...]:
    """The ids of the set bits of a subset mask, ascending."""
    if mask < 256:
        return _BYTE_IDS[mask]
    if mask < 65536:
        return _BYTE_IDS[mask & 255] + _HIGH_BYTE_IDS[mask >> 8]
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def subset_key(mask: int):
    """Sort key of a subset mask: size, then the ascending member ids."""
    return mask.bit_count(), members(mask)


def _upper_covers(up) -> list[int]:
    """Upper-cover mask of each element of an order given by its up-set
    masks: j covers i when j is strictly above i and strictly above no
    other element strictly above i."""
    covers = []
    for i, m in enumerate(up):
        strict = m ^ (1 << i)
        above = 0
        for j in members(strict):
            above |= up[j] ^ (1 << j)
        covers.append(strict & ~above)
    return covers


def _closed_masks(ids, needs, start: int = 0) -> list[int]:
    """Every mask start | S, S a subset of ids, in which each member e of
    S has needs[e] within start and the members of S before it. Each id
    in turn is taken, when its needs are held, before it is left out, and
    the masks come in the order of that walk."""
    masks = [start]
    for e in ids:
        need, bit = needs[e], 1 << e
        grown = []
        for m in masks:
            if not need & ~m:
                grown.append(m | bit)
            grown.append(m)
        masks = grown
    return masks


def _positions_holding(masks) -> list[int]:
    """For each element x below the highest member bit, the bitset over
    family positions of the members holding x. The bits are set in byte
    arrays, so no int is rebuilt per member."""
    rows = [bytearray((len(masks) + 7) // 8) for _ in range(max(masks, default=0).bit_length())]
    for p, m in enumerate(masks):
        for x in members(m):
            rows[x][p >> 3] |= 1 << (p & 7)
    return [int.from_bytes(row, "little") for row in rows]


def _positions_above_below(masks):
    """For each family member p, the bitsets over family positions of the
    members containing it and of the members it contains, built from the
    bitset of positions holding each element: O(k n) for k members over
    n elements, n being the highest member bit plus one."""
    holds = _positions_holding(masks)
    n = len(holds)
    every = (1 << len(masks)) - 1
    above, below = [], []
    for m in masks:
        up, out = every, 0
        for x in range(n):
            if m >> x & 1:
                up &= holds[x]
            else:
                out |= holds[x]
        above.append(up)
        below.append(every & ~out)
    return above, below


def _bounds_and_tables(labels, up, down):
    """(bottom, top, meet, join) of a partial order given by its up- and
    down-set masks, meet and join as tuples of rows, read by lookup
    (module docstring). Pairs run in (a, b) order with meet before join,
    so the first failing pair is reported, by its labels."""
    n = len(up)
    full = (1 << n) - 1
    by_down = {m: i for i, m in enumerate(down)}
    by_up = {m: i for i, m in enumerate(up)}
    bottom, top = by_up.get(full), by_down.get(full)
    if bottom is None or top is None:
        raise NoBounds("order has no unique minimum or maximum")
    if bottom == top:
        raise TrivialLattice("bottom equals top")
    # Row a starts as all a, which leaves meet(a, a) = join(a, a) = a.
    meet = [[i] * n for i in range(n)]
    join = [[i] * n for i in range(n)]
    for a in range(n):
        da, ua = down[a], up[a]
        for b in range(a + 1, n):
            try:
                meet[a][b] = meet[b][a] = by_down[da & down[b]]
            except KeyError:
                raise NotALattice(
                    f"elements {labels[a]!r}, {labels[b]!r} have no meet",
                    pair=(a, b)) from None
            try:
                join[a][b] = join[b][a] = by_up[ua & up[b]]
            except KeyError:
                raise NotALattice(
                    f"elements {labels[a]!r}, {labels[b]!r} have no join",
                    pair=(a, b)) from None
    return bottom, top, tuple(map(tuple, meet)), tuple(map(tuple, join))


class Lattice:
    """Immutable finite bounded lattice.

    Instances are built from an explicit order (tuple of up-set bitmasks)
    or via :meth:`from_covers`. Derived data computed by other modules is
    memoised on the instance through :meth:`memo`; the structure itself
    never changes once built.
    """

    __slots__ = ("n", "labels", "name", "bottom", "top",
                 "_up", "_down", "_meet", "_join", "_memo")

    def __init__(self, labels, up_masks, name: str = ""):
        labels = tuple(str(x) for x in labels)
        n = len(labels)
        if n == 0:
            raise InvalidParameter("a lattice needs at least one element")
        if n > ELEMENT_CAP:
            raise SizeCapExceeded(f"{n} elements exceed the {ELEMENT_CAP} element cap")
        if len(set(labels)) != n:
            raise InvalidParameter("duplicate element labels")
        up = tuple(up_masks)
        if not all(isinstance(m, int) for m in up):
            raise InvalidParameter("order rows must be int bitmasks")
        if len(up) != n:
            raise InvalidParameter("order rows do not match label count")
        full = (1 << n) - 1
        for i in range(n):
            if up[i] & ~full:
                raise InvalidParameter("order row references unknown element")
            if not up[i] >> i & 1:
                raise InvalidParameter("order is not reflexive")
        down = [0] * n
        for i in range(n):
            m = up[i]
            for j in members(m):
                if j != i and up[j] >> i & 1:
                    raise InvalidParameter("order is not antisymmetric")
                if up[j] & ~m:
                    raise InvalidParameter("order is not transitive")
                down[j] |= 1 << i
        self.n = n
        self.labels = labels
        self.name = name
        self._up = up
        self._down = down = tuple(down)
        self._memo = {}
        self.bottom, self.top, self._meet, self._join = _bounds_and_tables(labels, up, down)

    # -- construction ------------------------------------------------

    @classmethod
    def from_covers(cls, labels, covers, name: str = "") -> "Lattice":
        """Build from a Hasse diagram given as (lower, upper) label pairs."""
        labels = tuple(str(x) for x in labels)
        n = len(labels)
        if len(set(labels)) != n:
            raise InvalidParameter("duplicate element labels")
        index = {lab: i for i, lab in enumerate(labels)}
        succ = [set() for _ in range(n)]
        for lo, hi in covers:
            if lo not in index:
                raise InvalidParameter(f"cover references unknown element {lo!r}")
            if hi not in index:
                raise InvalidParameter(f"cover references unknown element {hi!r}")
            if lo == hi:
                raise CycleDetected(f"cover {lo!r} < {hi!r} is a self-loop")
            succ[index[lo]].add(index[hi])

        # Kahn topological sort doubles as the cycle check.
        indeg = [0] * n
        for i in range(n):
            for j in succ[i]:
                indeg[j] += 1
        queue = [i for i in range(n) if indeg[i] == 0]
        topo = []
        while queue:
            i = queue.pop()
            topo.append(i)
            for j in succ[i]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    queue.append(j)
        if len(topo) != n:
            cyc = sorted(labels[i] for i in range(n) if indeg[i] > 0)
            raise CycleDetected(f"cover relation has a cycle through {', '.join(cyc)}")

        up = [1 << i for i in range(n)]
        for i in reversed(topo):
            for j in succ[i]:
                up[i] |= up[j]
        return cls(labels, up, name=name)

    @staticmethod
    def _natural(labels: tuple, up: tuple, down: tuple, key) -> "Lattice":
        """A lattice from the up- and down-set mask tuples of an order
        already proved a lattice, its canonical form stored as the
        canonical key. Nothing is validated: the lattice enumerator calls
        this, and every other input goes through __init__. The bounds and
        tables are built on first read (_Untabled)."""
        lat = object.__new__(_Untabled)
        lat.n = len(labels)
        lat.labels = labels
        lat.name = ""
        lat._up = up
        lat._down = down
        lat._memo = {"canonical_key": key}
        return lat

    # -- queries -----------------------------------------------------

    @property
    def elements(self) -> range:
        return range(self.n)

    @property
    def universe(self) -> frozenset:
        return frozenset(self.elements)

    # The queries below reject foreign ids; loops inside the package
    # index _up, _down, _meet and _join directly instead.

    def leq(self, a: int, b: int) -> bool:
        check_ids(self, a, b)
        return bool(self._up[a] >> b & 1)

    def lt(self, a: int, b: int) -> bool:
        check_ids(self, a, b)
        return a != b and bool(self._up[a] >> b & 1)

    def meet(self, a: int, b: int) -> int:
        check_ids(self, a, b)
        return self._meet[a][b]

    def join(self, a: int, b: int) -> int:
        check_ids(self, a, b)
        return self._join[a][b]

    def label(self, a: int) -> str:
        check_ids(self, a)
        return self.labels[a]

    def id_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise InvalidParameter(f"no element labelled {label!r}") from None

    def covers(self) -> tuple[tuple[int, int], ...]:
        """Hasse edges as (lower, upper) id pairs, sorted; memoised."""
        return self.memo("covers", lambda: tuple(
            (i, j) for i, m in enumerate(_upper_covers(self._up)) for j in members(m)))

    def up_set(self, a: int) -> frozenset:
        check_ids(self, a)
        return to_set(self._up[a])

    def down_set(self, a: int) -> frozenset:
        check_ids(self, a)
        return to_set(self._down[a])

    def up_mask(self, a: int) -> int:
        check_ids(self, a)
        return self._up[a]

    def down_mask(self, a: int) -> int:
        check_ids(self, a)
        return self._down[a]

    def memo(self, key, fn):
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = fn()
            return value

    def __repr__(self) -> str:
        tag = self.name or f"{self.n} elements"
        return f"<Lattice {tag}>"


class _Untabled(Lattice):
    """A Lattice whose bounds and meet and join tables are unset until
    first read, as the enumerator builds them: most of its lattices are
    only keyed. The first read of an unset slot falls through to
    __getattr__, which fills all four and makes the instance a plain
    Lattice, so every later read is a slot read."""

    __slots__ = ()

    def __getattr__(self, name):
        if name not in ("bottom", "top", "_meet", "_join"):
            raise AttributeError(name)
        self.bottom, self.top, self._meet, self._join = _bounds_and_tables(
            self.labels, self._up, self._down)
        self.__class__ = Lattice
        return getattr(self, name)


def format_element_set(lat: Lattice, s: frozenset) -> str:
    """Render a subset: label concatenation when every label is one
    character, otherwise comma-separated braces. Empty set renders as ∅.
    Raises InvalidParameter for an id outside 0..n-1."""
    check_ids(lat, *s)
    if not s:
        return "∅"
    labs = [lat.labels[i] for i in sorted(s)]
    if all(len(x) == 1 for x in lat.labels):
        return "".join(labs)
    return "{" + ",".join(labs) + "}"


def check_ids(lat: Lattice, *ids: int) -> None:
    """Raises InvalidParameter unless every id is an int in 0..n-1."""
    for i in ids:
        if not (isinstance(i, int) and 0 <= i < lat.n):
            raise InvalidParameter(f"id {i!r} is not in 0..{lat.n - 1}")


def to_mask(lat: Lattice, s) -> int:
    """The mask of a set of element ids. Raises InvalidParameter for an
    id that is not an int in 0..n-1."""
    m = 0
    for x in s:
        if not (isinstance(x, int) and 0 <= x < lat.n):
            raise InvalidParameter(f"id {x!r} is not in 0..{lat.n - 1}")
        m |= 1 << x
    return m


def to_set(mask: int) -> frozenset:
    """The frozenset of the ids of a subset mask."""
    return frozenset(members(mask))


def labelled(lat: Lattice, names: str):
    """Witness for law(): the leading ids of a tuple as "a=x b=y", with
    one letter of names per id and the element labels as values."""
    return lambda *ids: " ".join(f"{k}={lat.labels[i]}" for k, i in zip(names, ids))


# -- text format -----------------------------------------------------

def parse_lattice_text(text: str) -> Lattice:
    """Parse the lattice text format:

        lattice <name>
        elements: 0 a b c 1
        covers: 0<a a<c c<1 0<b b<1

    '#' starts a comment; elements:/covers: lines may repeat.
    """
    name = None
    elements: list[str] = []
    seen: set[str] = set()
    covers: list[tuple[str, str, int]] = []
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        if head == "lattice":
            if len(tokens) != 2:
                raise ParseError("expected exactly one name after 'lattice'", ln)
            if name is not None:
                raise ParseError("duplicate 'lattice' line", ln)
            name = tokens[1]
        elif head == "elements:":
            for t in tokens[1:]:
                if "<" in t:
                    raise ParseError(f"element name may not contain '<': {t!r}", ln)
                if t in seen:
                    raise ParseError(f"duplicate element {t!r}", ln)
                seen.add(t)
                elements.append(t)
        elif head == "covers:":
            for t in tokens[1:]:
                parts = t.split("<")
                if len(parts) != 2 or not parts[0] or not parts[1]:
                    raise ParseError(f"cover must look like lower<upper: {t!r}", ln)
                covers.append((parts[0], parts[1], ln))
        else:
            raise ParseError(f"unknown directive {head!r}", ln)
    if name is None:
        raise ParseError("missing 'lattice <name>' line", 1)
    if not elements:
        raise ParseError("no elements declared", 1)
    for lo, hi, ln in covers:
        if lo not in seen:
            raise ParseError(f"cover references unknown element {lo!r}", ln)
        if hi not in seen:
            raise ParseError(f"cover references unknown element {hi!r}", ln)
    return Lattice.from_covers(elements, [(lo, hi) for lo, hi, _ in covers], name=name)


def load_lattice_file(path: str) -> Lattice:
    with open(path, "rb") as fh:
        data = fh.read().removeprefix(BOM_UTF8)  # one leading byte-order mark is ignored
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8: byte 0x{data[exc.start]:02x}",
                         len((data[:exc.start].decode() + ".").splitlines())) from None
    return parse_lattice_text(text)


# -- predicates ------------------------------------------------------

def is_modular(lat: Lattice) -> bool:
    """a <= b implies a v (x ^ b) == (a v x) ^ b for all x."""
    def compute():
        for a in lat.elements:
            for b in members(lat._up[a]):
                for x in lat.elements:
                    if lat._join[a][lat._meet[x][b]] != lat._meet[lat._join[a][x]][b]:
                        return False
        return True
    return lat.memo("is_modular", compute)


def is_distributive(lat: Lattice) -> bool:
    def compute():
        for x in lat.elements:
            for y in lat.elements:
                for z in lat.elements:
                    if lat._meet[x][lat._join[y][z]] != lat._join[lat._meet[x][y]][lat._meet[x][z]]:
                        return False
        return True
    return lat.memo("is_distributive", compute)


def is_complemented(lat: Lattice) -> bool:
    def compute():
        for a in lat.elements:
            if not any(lat._join[a][x] == lat.top and lat._meet[a][x] == lat.bottom
                       for x in lat.elements):
                return False
        return True
    return lat.memo("is_complemented", compute)


def antichain_mask(lat: Lattice, m: int) -> bool:
    """No two distinct members of the subset mask m are comparable."""
    up, down = lat._up, lat._down
    return all((up[a] | down[a]) & m == 1 << a for a in members(m))


def convex_mask(lat: Lattice, m: int) -> bool:
    """Every element between two members of the subset mask m is one."""
    up, down = lat._up, lat._down
    ids = members(m)
    return all(not up[a] & down[b] & ~m for a in ids for b in ids)


def meet_closed_mask(lat: Lattice, m: int) -> bool:
    """The meet of any two members of the subset mask m is one."""
    meet = lat._meet
    ids = members(m)
    return all(m >> meet[x][y] & 1 for x in ids for y in ids)


def is_antichain(lat: Lattice, s: frozenset) -> bool:
    return antichain_mask(lat, to_mask(lat, s))


def is_convex(lat: Lattice, s: frozenset) -> bool:
    return convex_mask(lat, to_mask(lat, s))


def find_n5_through_bounds(lat: Lattice):
    """First (bottom, e, f, g, top) pentagon with e < f and g a common
    complement of both, scanning e, f, g in ascending id order."""
    bot, top, up = lat.bottom, lat.top, lat._up
    for e in lat.elements:
        if e == bot or e == top:
            continue
        for f in lat.elements:
            if f in (bot, top, e) or not up[e] >> f & 1:
                continue
            for g in lat.elements:
                if g in (bot, top, e, f):
                    continue
                if (lat._join[e][g] == top and lat._join[f][g] == top
                        and lat._meet[e][g] == bot and lat._meet[f][g] == bot):
                    return (bot, e, f, g, top)
    return None


_TABLE_LAWS = ("meet commutative", "join commutative", "absorption",
               "order agrees with meet/join", "associativity")


def check_lattice_axioms(lat: Lattice) -> PropertyReport:
    """Cross-check the precomputed tables against the order relation.

    When every meet[a][b] has the down-set down[a] & down[b] and every
    join[a][b] the up-set up[a] & up[b], an O(n^2) premise, the tables
    are the glb and lub of the order, which construction validated, and
    the five table laws pass without a scan. An element is fixed by
    its down-set (the order is antisymmetric), so both sides of
    commutativity and of associativity, having the same down-set or
    up-set, are equal. a lies in up[a] & up[b], the up-set of a v b, so
    a <= a v b and a ^ (a v b) has down-set down[a], so it is a; dually
    a v (a ^ b) = a. And a <= b iff down[a] & down[b] = down[a] iff
    a ^ b = a, and iff up[a] & up[b] = up[b] iff a v b = b. "bounds" is
    read off the tables either way.

    Otherwise, as on a table placed in a test, the laws are scanned.
    Associativity is decided one (a, b) row at a time: over c, the
    values (a ^ b) ^ c are the table row of a ^ b, and a ^ (b ^ c) are
    row a read at the entries of row b, which one itemgetter per row b
    gives at once."""
    meet, join, up, down = lat._meet, lat._join, lat._up, lat._down
    bounds = CheckResult("bounds", meet[lat.bottom][lat.top] == lat.bottom
                         and join[lat.bottom][lat.top] == lat.top)
    if (all([down[m] for m in row] == [da & d for d in down] for da, row in zip(down, meet))
            and all([up[j] for j in row] == [ua & u for u in up] for ua, row in zip(up, join))):
        return PropertyReport("lattice axioms", tuple(
            CheckResult(name, True) for name in _TABLE_LAWS) + (bounds,))

    pairs = list(product(lat.elements, repeat=2))
    ab = labelled(lat, "ab")
    at_meet, at_join = [itemgetter(*r) for r in meet], [itemgetter(*r) for r in join]

    def unassociated(a, b):
        ma, ja = meet[a], join[a]
        lm, lj = meet[ma[b]], join[ja[b]]
        if lm == at_meet[b](ma) and lj == at_join[b](ja):
            return 0
        mb, jb = meet[b], join[b]
        return sum(1 << c for c in lat.elements if lm[c] != ma[mb[c]] or lj[c] != ja[jb[c]])

    return PropertyReport("lattice axioms", (
        law(_TABLE_LAWS[0], lambda a, b: meet[a][b] == meet[b][a], pairs, True, ab),
        law(_TABLE_LAWS[1], lambda a, b: join[a][b] == join[b][a], pairs, True, ab),
        law(_TABLE_LAWS[2],
            lambda a, b: meet[a][join[a][b]] == a and join[a][meet[a][b]] == a,
            pairs, True, ab),
        law(_TABLE_LAWS[3],
            lambda a, b: bool(up[a] >> b & 1) == (meet[a][b] == a) == (join[a][b] == b),
            pairs, True, ab),
        row_law(_TABLE_LAWS[4], unassociated, pairs, True, labelled(lat, "abc")),
        bounds,
    ))


# -- isomorphism -----------------------------------------------------

def canonical_form(up, down):
    """Canonical form of the order given by up- and down-set masks (each
    element in its own up- and down-set): the least token sequence over
    all permutations that fill positions colour by colour in ascending
    order, an element's colour being its (down-set size, up-set size).
    Any order-invariant colouring gives an exact form this way. Equal
    forms mean isomorphic orders; the form's values are not stable
    across changes to the colouring and are never printed.

    An element's strict down-set is smaller than its own, so by the time
    e is placed every element below it is placed and none above it. Its
    token is the set of positions of its strict down-set, one bit each;
    the tokens of a permutation spell out the whole order on positions.
    The search places one element per position, and at each it computes
    the token of every unplaced member of the position's colour class and
    descends only into those whose token is least. This is exact: the
    form is the lexicographic minimum of the sequence, so a member with a
    larger token at position p cannot lead to it. While a best sequence
    is kept, every node's prefix ties it, so the least token is compared
    with it at p alone: a larger one returns, a smaller one drops it.

    Tied members have equal strict down-sets. Those that also have equal
    strict up-sets are twins: swapping two of them is an automorphism
    that fixes every other element, so the search branches on the lowest
    id of each twin set only. The atoms of M:n are one branch instead of
    n!, and a lattice without twins reaches about one leaf per
    automorphism (120 on B:5). A discrete colouring admits exactly one
    permutation, so it is read off with no search."""
    n = len(up)
    # (down-set size, up-set size) as one int; each size is at most n.
    color = [down[i].bit_count() * (n + 1) + up[i].bit_count() for i in range(n)]
    posrank = sorted(color)
    byrank: dict[int, list[int]] = {}
    for i, c in enumerate(color):
        byrank.setdefault(c, []).append(i)
    bit = [0] * n  # bit[e]: 1 << (e's position), read once e is placed
    cur = [0] * n

    if len(byrank) == n:
        for p, r in enumerate(posrank):
            (e,) = byrank[r]
            t = 0
            for q in members(down[e] ^ 1 << e):
                t |= bit[q]
            cur[p] = t
            bit[e] = 1 << p
        return (n, tuple(posrank), tuple(cur))

    best: list[int] | None = None

    def dfs(p: int, free: int):
        nonlocal best
        while p < n:
            least = None
            for e in byrank[posrank[p]]:
                if free >> e & 1:
                    t = 0
                    for q in members(down[e] ^ 1 << e):
                        t |= bit[q]
                    if least is None or t < least:
                        least, ties = t, [e]
                    elif t == least:
                        ties.append(e)
            if best is not None:
                if least > best[p]:
                    return
                if least < best[p]:
                    best = None
            cur[p] = least
            if len(ties) > 1:
                # The lowest id per strict up-set: one member of each twin set.
                first: dict[int, int] = {}
                for e in ties:
                    first.setdefault(up[e] ^ 1 << e, e)
                if len(first) > 1:
                    for e in first.values():
                        bit[e] = 1 << p
                        dfs(p + 1, free ^ 1 << e)
                    return
            e = ties[0]
            bit[e] = 1 << p
            free ^= 1 << e
            p += 1
        best = cur[:]

    dfs(0, (1 << n) - 1)
    return (n, tuple(posrank), tuple(best))


def canonical_key(lat: Lattice):
    """canonical_form of the lattice's order, memoised on the lattice."""
    return lat.memo("canonical_key", lambda: canonical_form(lat._up, lat._down))


def is_isomorphic(a: Lattice, b: Lattice) -> bool:
    return a.n == b.n and canonical_key(a) == canonical_key(b)

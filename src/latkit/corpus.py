"""Builtin lattices, generic constructions, and a small-lattice enumerator.

The enumerator produces every bounded lattice on n elements up to
isomorphism. It walks naturally labeled posets (element ids respect the
order) by choosing each element's strict down-set, pruning branches
where some pair has no meet; a finite poset with a top in which all
binary meets exist is a lattice.

It also prunes a labelling when the walk reaches an isomorph of every
completion first, by one rule of McKay's orderly generation
("Isomorph-free exhaustive generation", J. Algorithms 1998). If no bit
of the new element k's down-set m lies in j..k-1, k is incomparable to
j..k-1 and could take position j. The walk lists the down-sets holding the lower
of two differing bits first, so comparing m with downs[j] has three
outcomes. If m holds the lowest differing bit, k at position j is a
natural labelling the walk reaches first, and this one is pruned. If
they are equal and nothing placed between is above j, j and k are twins
from below: swapping them gives another natural labelling of every
completion, as both have the same elements below, the elements above
have ids past k, and the elements between are above neither. The two
labellings agree up to the first later element whose down-set holds
exactly one twin, and differ there in the twins' bits alone; if it
holds the higher twin, the swapped labelling comes first and this one
is pruned, and if the lower, the pair is dropped. Otherwise the
comparison prunes nothing. The walk keeps, for each prefix, the twin
pairs that no later element has yet told apart.

Each complete candidate's canonical form is computed straight from its
down- and up-set masks, so a duplicate isomorph is rejected before any
Lattice is built: only the first member of each isomorphism class in
walk order becomes a Lattice, with that form stored as its canonical
key. The walk has proved that candidate a lattice, so it is built from
those masks by Lattice._natural without validating the order again; its
bounds and meet and join tables are built on first read, by the same
function that builds them for every Lattice, so an unfiltered
enumeration builds none. The rule removes only candidates that are
never first, so the output is the same as without it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .complementation import satisfies_dblplus_identity
from .core import (ELEMENT_CAP, Lattice, _closed_masks, canonical_form,
                   is_complemented, is_distributive, is_isomorphic, is_modular,
                   members)
from .errors import InvalidParameter, SizeCapExceeded

ENUM_CAP = 10
CORPUS_ENUM_MAX = 6  # default_corpus holds the complemented lattices up to this size

TAG_PREDICATES = {
    "complemented": is_complemented,
    "modular": is_modular,
    "distributive": is_distributive,
    "dblplus_identity": satisfies_dblplus_identity,
}


def tags_of(lat: Lattice) -> frozenset:
    return frozenset(t for t, pred in TAG_PREDICATES.items() if pred(lat))


@dataclass(frozen=True)
class CorpusEntry:
    """A named corpus lattice; its tags are computed on first access."""
    name: str
    lattice: Lattice

    @functools.cached_property
    def tags(self) -> frozenset:
        return tags_of(self.lattice)


def entry_for(name: str, lat: Lattice) -> CorpusEntry:
    return CorpusEntry(name, lat)


# -- constructions -----------------------------------------------------

def make_chain(k: int) -> Lattice:
    if not isinstance(k, int) or k < 1:
        raise InvalidParameter(f"chain length must be a positive int, got {k!r}")
    if k > ELEMENT_CAP:
        raise SizeCapExceeded(f"chain length {k} exceeds the {ELEMENT_CAP} element cap")
    if k == 1:
        labels = ["0"]
    else:
        labels = ["0"] + [f"m{i}" for i in range(1, k - 1)] + ["1"]
    ups = [sum(1 << j for j in range(i, k)) for i in range(k)]
    return Lattice(labels, ups, name=f"chain:{k}")


def make_boolean(k: int) -> Lattice:
    """Powerset of k atoms; elements are labeled by k-bit strings."""
    if not isinstance(k, int) or k < 1:
        raise InvalidParameter(f"boolean exponent must be a positive int, got {k!r}")
    # 2^k exceeds the cap exactly when k reaches the cap's bit length;
    # comparing k first keeps a huge k from allocating 1 << k.
    if k >= ELEMENT_CAP.bit_length():
        raise SizeCapExceeded(f"2^{k} elements exceed the {ELEMENT_CAP} element cap")
    n = 1 << k
    labels = [format(i, f"0{k}b") for i in range(n)]
    ups = [sum(1 << j for j in range(n) if i & j == i) for i in range(n)]
    return Lattice(labels, ups, name=f"B:{k}")


def make_Mn(n: int) -> Lattice:
    """Bounds plus n pairwise incomparable atoms."""
    if not isinstance(n, int) or n < 2:
        raise InvalidParameter(f"diamond width must be an int of at least 2, got {n!r}")
    if n + 2 > ELEMENT_CAP:
        raise SizeCapExceeded(f"{n + 2} elements exceed the {ELEMENT_CAP} element cap")
    labels = ["0"] + [f"a{i}" for i in range(1, n + 1)] + ["1"]
    top = n + 1
    ups = [(1 << (n + 2)) - 1]
    ups += [(1 << i) | (1 << top) for i in range(1, n + 1)]
    ups.append(1 << top)
    return Lattice(labels, ups, name=f"M:{n}")


def make_N5() -> Lattice:
    return Lattice.from_covers(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")],
        name="N5")


def make_M3() -> Lattice:
    return Lattice.from_covers(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")],
        name="M3")


def make_fig2() -> Lattice:
    """Twelve elements: four atom/coatom rails a-g, b-h, c-i, d-j, a
    second bottom cover e under all coatoms, and a second top cover f
    over all atoms."""
    labels = ["0", "a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "1"]
    covers = [("0", x) for x in "abcde"]
    covers += [(x, "f") for x in "abcd"]
    covers += [("e", y) for y in "ghij"]
    covers += [("a", "g"), ("b", "h"), ("c", "i"), ("d", "j")]
    covers += [("f", "1")] + [(y, "1") for y in "ghij"]
    return Lattice.from_covers(labels, covers, name="fig2")


def direct_product(l1: Lattice, l2: Lattice) -> Lattice:
    n1, n2 = l1.n, l2.n
    if n1 * n2 > ELEMENT_CAP:
        raise SizeCapExceeded(
            f"product would have {n1 * n2} elements, cap is {ELEMENT_CAP}")
    labels = [f"{x}.{y}" for x in l1.labels for y in l2.labels]
    ups = []
    for i in l1.elements:
        for j in l2.elements:
            m = 0
            for x in members(l1.up_mask(i)):
                for y in members(l2.up_mask(j)):
                    m |= 1 << (x * n2 + y)
            ups.append(m)
    name = f"({l1.name or '?'})x({l2.name or '?'})"
    return Lattice(labels, ups, name=name)


# -- enumeration -------------------------------------------------------

def enumerate_lattices(n: int, filters: frozenset = frozenset(),
                       cap: int = ENUM_CAP) -> list[Lattice]:
    """All bounded lattices on n elements up to isomorphism, optionally
    keeping only those carrying every requested tag."""
    if not isinstance(n, int) or n < 1:
        raise InvalidParameter(f"element count must be a positive int, got {n!r}")
    if n > cap:
        raise SizeCapExceeded(f"enumeration capped at {cap} elements, got {n}")
    if isinstance(filters, str):
        raise InvalidParameter(f"filters {filters!r} is a string, not a collection of tag names")
    unknown = set(filters) - set(TAG_PREDICATES)
    if unknown:
        raise InvalidParameter(f"unknown tags: {sorted(unknown)}")
    if n == 1:
        return []

    downs = [0] * n
    full = (1 << n) - 1
    labels = tuple(f"x{i}" for i in range(n))
    out: list[Lattice] = []
    seen: set = set()
    # Test each lattice as the walk keeps it, so no dropped one stays held.
    preds = [TAG_PREDICATES[t] for t in sorted(filters)]
    keep = (lambda lat: all(p(lat) for p in preds) and out.append(lat)) if preds else out.append

    def place(k: int, twins: list):
        if k == n - 1:
            # The top sits above all else, and accept would prune nothing
            # here: its down-set holds every earlier element, so each meet
            # with it exists, no earlier position is open to it, and it
            # tells no twin pair apart.
            downs[k] = full ^ 1 << k
            down = [m | 1 << i for i, m in enumerate(downs)]
            up = [1 << i for i in range(n)]
            for j in range(1, n):
                for i in members(downs[j]):
                    up[i] |= 1 << j
            key = canonical_form(up, down)
            if key not in seen:
                seen.add(key)
                keep(Lattice._natural(labels, tuple(up), tuple(down), key))
            return
        # Everything sits above the bottom.
        for m in _closed_masks(range(1, k), downs, 1):
            untold = accept(k, m, twins)
            if untold is not None:
                downs[k] = m
                place(k + 1, untold)

    def accept(k: int, m: int, twins: list):
        # None when the down-set m of the new element k is pruned (module
        # docstring); else the twin pairs, each (both bits, the lower bit),
        # that k leaves untold, plus each new pair (j, k).
        untold = []
        for pair, low in twins:
            held = m & pair
            if held == pair ^ low:
                return None
            if held != low:
                untold.append((pair, low))
        free = m.bit_length()
        above = 0
        for j in range(k - 1, 0, -1):
            dj = downs[j]
            if not m >> j & 1:
                # The common lower bounds of j and k, the bottom among them,
                # need a greatest member; ids respect the order, so only the
                # highest can be it.
                common = dj & m
                t = common.bit_length() - 1
                if common & ~(downs[t] | 1 << t):
                    return None
            if j >= free:
                # k is incomparable to j..k-1, so it could take position j.
                d = m ^ dj
                if m & d & -d:
                    return None
                if not d and not above >> j & 1:
                    untold.append((1 << j | 1 << k, 1 << j))
            above |= dj
        return untold

    place(1, [])
    return out


# -- naming and the default corpus -------------------------------------

def named_lattice(name: str) -> Lattice:
    """Resolve a corpus name: N5, M3, fig2, M:n, B:k, chain:k."""
    token = name.strip()
    low = token.lower()
    if low == "n5":
        return make_N5()
    if low == "m3":
        return make_M3()
    if low == "fig2":
        return make_fig2()
    head, sep, tail = token.partition(":")
    if sep:
        try:
            k = int(tail)
        except ValueError:
            raise InvalidParameter(f"bad numeric suffix in lattice name {name!r}") from None
        kind = head.lower()
        if kind == "m":
            return make_Mn(k)
        if kind == "b":
            return make_boolean(k)
        if kind == "chain":
            return make_chain(k)
    raise InvalidParameter(
        f"unknown lattice name {name!r}; expected N5, M3, fig2, M:n, B:k, or chain:k")


def complemented_sweep(max_n: int):
    """(enum{n}.{i}, lattice) for each complemented lattice with 2 to max_n elements."""
    for n in range(2, max_n + 1):
        for i, lat in enumerate(enumerate_lattices(n, frozenset(("complemented",)))):
            yield f"enum{n}.{i}", lat


def default_corpus() -> list[CorpusEntry]:
    """Named lattices plus every complemented lattice with at most
    CORPUS_ENUM_MAX elements, deduplicated up to isomorphism."""
    entries: list[CorpusEntry] = []

    def add(name: str, lat: Lattice):
        # is_isomorphic compares sizes first, so a canonical key is only
        # computed for a lattice that shares its size with an earlier entry.
        if not any(is_isomorphic(lat, e.lattice) for e in entries):
            entries.append(entry_for(name, lat))

    add("N5", make_N5())
    add("M3", make_M3())
    add("fig2", make_fig2())
    for n in range(2, 7):
        add(f"M:{n}", make_Mn(n))
    for k in range(1, 5):
        add(f"B:{k}", make_boolean(k))
    for name, lat in complemented_sweep(CORPUS_ENUM_MAX):
        add(name, lat)
    return entries

"""Meet/join tables from the linear extension, the enumerator's canonical
keys, its lattices against the validating constructor, and its output
against an unpruned walk, canonical forms against the ordered-matrix
oracle, canonical keys under relabelling, id checks of the deduction
predicates, and the class count in the substitution-equivalence witness."""

import hashlib
import random

import pytest

from latkit import core, corpus
from latkit.complementation import complement_sets
from latkit.connectives import implies_table
from latkit.core import (Lattice, canonical_form, canonical_key,
                         is_complemented, is_isomorphic, parse_lattice_text)
from latkit.corpus import (direct_product, enumerate_lattices, make_boolean, make_chain,
                           make_fig2, make_M3, make_Mn, make_N5)
from latkit.deduction import (check_substitution_equivalences, is_deductive_system,
                              is_filter, is_order_filter)
from latkit.errors import InvalidParameter, NotALattice

from .oracles import (bounded_posets, brute_covers, brute_join, brute_meet,
                      first_lattice_per_class, first_missing_bound,
                      natural_lattice_labellings, ordered_matrix_key, relabel)
from .strategies import fresh, place

# sha256 over one line per lattice, repr((labels, up masks)), in output order,
# of enumerate_lattices(n) for n = 2..9, as recorded before candidates that
# can never be first of their class were pruned.
ENUMERATION_SHA256 = "447dad228862907f13a5ad263516a8d3610800c79ca73a70d334fbaff5d7f880"
# The same rows of enumerate_lattices(10), as recorded before twin-swapped
# labellings were pruned.
ENUMERATION_10_SHA256 = "137fc0e1446b8d58bdcb18cf0424e38e9014984660bcd30618342757abfde8b0"


def shuffled(lat: Lattice, rng: random.Random) -> Lattice:
    perm = list(lat.elements)
    rng.shuffle(perm)
    return relabel(lat, perm)


def test_tables_match_brute_force_scans():
    rng = random.Random(7)
    count = 0
    for n in range(2, 8):
        for lat in enumerate_lattices(n):
            for image in (lat, shuffled(lat, rng), shuffled(lat, rng)):
                for a in image.elements:
                    for b in image.elements:
                        assert image.meet(a, b) == brute_meet(image, a, b)
                        assert image.join(a, b) == brute_join(image, a, b)
                assert image.covers() == brute_covers(image)
                count += 1
    assert count == 3 * 77


def test_non_lattices_report_first_pair_meet_before_join():
    rng = random.Random(11)
    seen = 0
    for n in range(4, 8):
        labels = [f"e{i}" for i in range(n)]
        for up in bounded_posets(n):
            images = [up]
            for _ in range(3):
                perm = list(range(n))
                rng.shuffle(perm)
                moved = [0] * n
                for i in range(n):
                    moved[perm[i]] = sum(1 << perm[j] for j in range(n) if up[i] >> j & 1)
                images.append(moved)
            for rows in images:
                want = first_missing_bound(labels, rows)
                if want is None:
                    Lattice(labels, rows)
                    continue
                with pytest.raises(NotALattice) as err:
                    Lattice(labels, rows)
                assert (err.value.pair, str(err.value)) == want
                seen += 1
    assert seen == 4 * 38


def test_non_lattice_pairs_pinned():
    labels = ["0", "a", "b", "c", "d", "1"]
    covers = [("0", "a"), ("0", "b"), ("a", "c"), ("a", "d"),
              ("b", "c"), ("b", "d"), ("c", "1"), ("d", "1")]
    with pytest.raises(NotALattice) as err:
        Lattice.from_covers(labels, covers)
    assert err.value.pair == (1, 2)
    assert str(err.value) == "elements 'a', 'b' have no join"
    # The same order listed top first: c and d now come first and have no meet.
    with pytest.raises(NotALattice) as err:
        Lattice.from_covers(labels[::-1], covers)
    assert err.value.pair == (1, 2)
    assert str(err.value) == "elements 'd', 'c' have no meet"


def test_enumerator_key_equals_fresh_key(nine):
    """Each of the 1,377 lattices on 2 to 9 elements, built by the walk
    from its proved masks, stores its canonical form as its key and
    equals in every slot the lattice that the validating constructor
    builds from its labels and up-sets."""
    lats = [lat for n in range(2, 9) for lat in enumerate_lattices(n, cap=8)] + nine
    for lat in lats:
        stored = lat.memo("canonical_key", lambda: pytest.fail("key not stored"))
        fresh = Lattice(lat.labels, [lat.up_mask(i) for i in lat.elements])
        for slot in ("n", "labels", "name", "bottom", "top", "_up", "_down", "_meet", "_join"):
            assert getattr(lat, slot) == getattr(fresh, slot), (lat.labels, lat._up, slot)
        assert stored == canonical_key(fresh) == canonical_form(lat._up, lat._down)
    assert len(lats) == 1377


def test_enumerated_tables_are_built_on_first_read():
    """An enumerated lattice holds no bounds or tables until one of them
    is read. The first read, of each of the four in turn, sets all four
    as the validating constructor does and leaves a plain Lattice."""
    slots = ("bottom", "top", "_meet", "_join")
    lats = [lat for n in range(2, 9) for lat in enumerate_lattices(n, cap=8)]
    for i, lat in enumerate(lats):
        for slot in slots:
            with pytest.raises(AttributeError):
                object.__getattribute__(lat, slot)
        getattr(lat, slots[i % 4])
        assert type(lat) is Lattice
        want = fresh(lat)
        for slot in slots:
            assert object.__getattribute__(lat, slot) == getattr(want, slot), (lat._up, slot)
    assert len(lats) == 299


def test_enumerate_eight_elements():
    lats = enumerate_lattices(8, cap=8)
    keys = {canonical_key(Lattice(lat.labels, [lat.up_mask(i) for i in lat.elements]))
            for lat in lats}
    assert len(lats) == 222 and len(keys) == 222
    assert sum(is_complemented(lat) for lat in lats) == 71


@pytest.fixture(scope="module")
def nine():
    return enumerate_lattices(9, cap=9)


def test_enumeration_skips_validation_and_the_boundary_keeps_it(monkeypatch):
    """The walk builds no lattice through __init__; user input still goes
    through it and is refused when it is not a lattice."""
    calls = []
    real = Lattice.__init__
    monkeypatch.setattr(Lattice, "__init__",
                        lambda self, *args, **kw: calls.append(args) or real(self, *args, **kw))
    assert len(enumerate_lattices(8, cap=8)) == 222
    assert calls == []
    covers = [("0", "a"), ("0", "b"), ("a", "c"), ("a", "d"),
              ("b", "c"), ("b", "d"), ("c", "1"), ("d", "1")]
    with pytest.raises(NotALattice):
        Lattice.from_covers(["0", "a", "b", "c", "d", "1"], covers)
    text = ("lattice bad\nelements: 0 a b c d 1\ncovers: "
            + " ".join(f"{lo}<{hi}" for lo, hi in covers) + "\n")
    with pytest.raises(NotALattice):
        parse_lattice_text(text)
    assert len(calls) == 2


def rows_digest(lats) -> str:
    digest = hashlib.sha256()
    for lat in lats:
        row = repr((tuple(lat.labels), tuple(lat.up_mask(i) for i in lat.elements)))
        digest.update(row.encode() + b"\n")
    return digest.hexdigest()


def test_enumeration_digest_pinned(nine):
    lats = [lat for n in range(2, 9) for lat in enumerate_lattices(n, cap=8)]
    assert rows_digest(lats + nine) == ENUMERATION_SHA256


def test_enumerate_nine_elements(nine):
    """OEIS A006966: 1,078 lattices on 9 elements, 307 of them complemented."""
    keys = {canonical_key(Lattice(lat.labels, [lat.up_mask(i) for i in lat.elements]))
            for lat in nine}
    assert len(nine) == 1078 and len(keys) == 1078
    assert sum(is_complemented(lat) for lat in nine) == 307


def test_enumerate_ten_elements_digest_pinned():
    """OEIS A006966: 5,994 lattices on 10 elements, 1,594 of them
    complemented, in the order and labelling pinned by their digest."""
    ten = enumerate_lattices(10, cap=10)
    keys = {canonical_key(Lattice(lat.labels, [lat.up_mask(i) for i in lat.elements]))
            for lat in ten}
    assert len(ten) == 5994 and len(keys) == 5994
    assert sum(is_complemented(lat) for lat in ten) == 1594
    assert rows_digest(ten) == ENUMERATION_10_SHA256


def test_enumeration_equals_first_of_each_class_in_unpruned_walk():
    for n in range(1, 9):
        got = [[lat.up_mask(i) for i in lat.elements] for lat in enumerate_lattices(n, cap=8)]
        assert got == first_lattice_per_class(n), n


def test_pruned_labellings_never_reach_canonical_form(monkeypatch):
    """The walk computes a canonical form for 348 of the 4,007 lattice
    labellings on 2 to 8 elements, fewer than a tenth. Each of the other
    3,659 is pruned because moving its newest element, or swapping two
    twins, gives an isomorph that the walk reaches first."""
    calls = []
    real = corpus.canonical_form
    monkeypatch.setattr(corpus, "canonical_form",
                        lambda up, down: calls.append(len(up)) or real(up, down))
    assert sum(len(enumerate_lattices(n, cap=8)) for n in range(2, 9)) == 299
    assert len(calls) == 348


def test_discrete_start_colourings_skip_the_cover_scan(monkeypatch):
    """Of the 348 candidates that reach canonical_form on 2 to 8 elements,
    93 are told apart by their down- and up-set sizes alone and the other
    255 are searched. The colouring reads those sizes only, so none of
    them computes upper covers."""
    calls = []
    real = core._upper_covers
    monkeypatch.setattr(core, "_upper_covers", lambda up: calls.append(len(up)) or real(up))
    assert sum(len(enumerate_lattices(n, cap=8)) for n in range(2, 9)) == 299
    assert calls == []


def test_canonical_form_against_ordered_matrix_key_in_each_regime():
    """On the 370 unpruned lattice labellings on 2 to 7 elements, forms are
    equal exactly when the oracle keys are. The sample holds both regimes:
    a discrete colouring read off with no search (146), and a searched
    one (224)."""
    form_to_key, key_to_form = {}, {}
    regimes = [0, 0]
    for n in range(2, 8):
        for up in natural_lattice_labellings(n):
            down = [sum(1 << i for i in range(n) if up[i] >> j & 1) for j in range(n)]
            form, key = canonical_form(up, down), ordered_matrix_key(up)
            assert form_to_key.setdefault(form, key) == key
            assert key_to_form.setdefault(key, form) == form
            start = {(down[i].bit_count(), up[i].bit_count()) for i in range(n)}
            regimes[len(start) < n] += 1
    assert regimes == [146, 224]


def test_enumerated_keys_invariant_under_one_relabelling(nine):
    """Each of the 1,377 lattices on 2 to 9 elements, moved by one seeded
    shuffle and rebuilt by the validating constructor, has the canonical
    key that the enumerator stored for it."""
    rng = random.Random(5)
    lats = [lat for n in range(2, 9) for lat in enumerate_lattices(n, cap=8)] + nine
    for lat in lats:
        stored = lat.memo("canonical_key", lambda: pytest.fail("key not stored"))
        assert canonical_key(shuffled(lat, rng)) == stored, (lat.labels, lat._up)
    assert len(lats) == 1377


def test_canonical_key_invariant_under_relabelling():
    """Twins (the atoms of M:n) are searched once; comparable elements that
    agree on every other element, as in a chain, are not twins."""
    rng = random.Random(3)
    lats = [make_Mn(10), make_Mn(3), make_fig2(), make_boolean(3), make_N5(),
            direct_product(make_Mn(3), make_chain(2))]
    lats += [make_chain(k) for k in range(2, 10)]
    for lat in lats:
        key = canonical_key(lat)
        for _ in range(4):
            assert canonical_key(shuffled(lat, rng)) == key, lat
    assert len({canonical_key(lat) for lat in lats}) == len(lats)


def test_twin_free_symmetric_lattices_keyed_under_relabelling():
    """B:5 and M3 x M3 have no twins and colour classes of up to 10 and 9
    members, so a search that branched on every member would not finish;
    branching on the least tokens only reaches about one leaf per
    automorphism. Each key survives three seeded relabellings, and B:5 is
    not isomorphic to chain:4 x chain:8, another 32-element lattice."""
    rng = random.Random(17)
    b5 = make_boolean(5)
    for lat in (b5, direct_product(make_M3(), make_M3())):
        key = canonical_key(lat)
        for _ in range(3):
            assert canonical_key(shuffled(lat, rng)) == key, lat
    grid = direct_product(make_chain(4), make_chain(8))
    assert grid.n == b5.n == 32
    assert not is_isomorphic(b5, grid)


@pytest.mark.parametrize("bad", [-1, 5])
def test_deduction_predicates_reject_foreign_ids(bad):
    n5 = make_N5()
    for pred in (is_deductive_system, is_order_filter, is_filter):
        with pytest.raises(InvalidParameter):
            pred(n5, frozenset((n5.top, bad)))
    with pytest.raises(InvalidParameter):
        is_deductive_system(n5, {4, 99})


def test_substitution_witness_counts_classes():
    """With 2 added to the complements of 0, the first implication-
    substitution equivalence without complement substitution has two
    classes and 13 ordered pairs; the witness gives the classes."""
    n5 = make_N5()
    comp = list(complement_sets(n5))
    comp[0] = comp[0] | {2}
    lat = Lattice(n5.labels, [n5.up_mask(i) for i in n5.elements], name=n5.name)
    place(lat, "implies_table", implies_table(n5))
    place(lat, "complement_sets", comp)
    rep = check_substitution_equivalences(lat)
    bad = rep.find("implication substitution gives complement substitution")
    assert not rep.ok and not bad.passed and bad.witness == "classes=2"

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latkit.core import (Lattice, canonical_key, check_lattice_axioms,
                         find_n5_through_bounds,
                         format_element_set, is_antichain, is_complemented,
                         is_convex, is_distributive, is_isomorphic, is_modular,
                         parse_lattice_text)
from latkit.corpus import (enumerate_lattices, make_boolean, make_chain,
                           make_fig2, make_M3, make_Mn, make_N5)
from latkit.errors import (CycleDetected, InvalidParameter, NoBounds,
                           NotALattice, ParseError, SizeCapExceeded,
                           TrivialLattice)

from .oracles import find_n5_sublattice, relabel

N5_TEXT = """\
lattice N5
# the pentagon
elements: 0 a b c 1
covers: 0<a a<c c<1
covers: 0<b b<1
"""


def test_chain_structure():
    c4 = make_chain(4)
    assert c4.n == 4
    assert c4.bottom == 0 and c4.top == 3
    for i, j in itertools.product(c4.elements, repeat=2):
        assert c4.leq(i, j) == (i <= j)
        assert c4.meet(i, j) == min(i, j)
        assert c4.join(i, j) == max(i, j)


def test_boolean_structure():
    b3 = make_boolean(3)
    assert b3.n == 8
    for i, j in itertools.product(b3.elements, repeat=2):
        assert b3.leq(i, j) == (i & j == i)
        assert b3.meet(i, j) == i & j
        assert b3.join(i, j) == i | j


def test_cover_relation(n5):
    assert set(n5.covers()) == {(0, 1), (1, 3), (3, 4), (0, 2), (2, 4)}
    assert len(make_Mn(4).covers()) == 8
    assert len(make_fig2().covers()) == 22


def test_up_down_sets(n5):
    a, c = n5.id_of("a"), n5.id_of("c")
    assert n5.up_set(a) == {a, c, n5.top}
    assert n5.down_set(c) == {n5.bottom, a, c}


def test_axioms_pass_everywhere(corpus):
    for entry in corpus:
        rep = check_lattice_axioms(entry.lattice)
        assert rep.ok, (entry.name, [c for c in rep.results if not c.passed])


def test_from_covers_rejects_duplicates():
    with pytest.raises(InvalidParameter):
        Lattice.from_covers(["a", "a"], [("a", "a")])
    # The constructor behind it takes int rows only, never a truncated float.
    for bad in (3.5, "3", "x", None):
        with pytest.raises(InvalidParameter):
            Lattice(["a", "b"], [bad, 2])


def test_from_covers_rejects_unknown_reference():
    with pytest.raises(InvalidParameter):
        Lattice.from_covers(["a", "b"], [("a", "z")])


def test_from_covers_rejects_cycle():
    with pytest.raises(CycleDetected):
        Lattice.from_covers(["a", "b", "c"],
                            [("a", "b"), ("b", "c"), ("c", "a")])
    with pytest.raises(CycleDetected):
        Lattice.from_covers(["a", "b"], [("a", "a"), ("a", "b")])


def test_from_covers_rejects_missing_bounds():
    with pytest.raises(NoBounds):
        Lattice.from_covers(["a", "b"], [])


def test_element_cap_enforced_on_construction():
    labels = [f"c{i}" for i in range(70)]
    with pytest.raises(SizeCapExceeded):
        Lattice.from_covers(labels, list(zip(labels, labels[1:])))


def test_single_element_rejected():
    with pytest.raises(TrivialLattice):
        Lattice.from_covers(["a"], [])


def test_non_lattice_detected():
    # Two incomparable middles with two incomparable uppers: no join.
    with pytest.raises(NotALattice) as err:
        Lattice.from_covers(
            ["0", "a", "b", "c", "d", "1"],
            [("0", "a"), ("0", "b"), ("a", "c"), ("a", "d"),
             ("b", "c"), ("b", "d"), ("c", "1"), ("d", "1")])
    assert err.value.pair is not None


def test_parse_roundtrip():
    lat = parse_lattice_text(N5_TEXT)
    assert lat.name == "N5"
    assert is_isomorphic(lat, make_N5())


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_lattice_text("lattice x\nelements: a b\ncovers: a<b\nbogus t\n")
    assert err.value.line == 4
    with pytest.raises(ParseError):
        parse_lattice_text("elements: a b\ncovers: a<b\n")
    with pytest.raises(ParseError):
        parse_lattice_text("lattice x\nelements: a a\n")
    with pytest.raises(ParseError):
        parse_lattice_text("lattice x\nelements: a b\ncovers: a<z\n")
    with pytest.raises(ParseError):
        parse_lattice_text("lattice x\nelements: a b\ncovers: ab\n")


def test_format_element_set(n5, mn3):
    a, b = n5.id_of("a"), n5.id_of("b")
    assert format_element_set(n5, frozenset()) == "∅"
    assert format_element_set(n5, frozenset((b, a))) == "ab"
    one = mn3.id_of("a1")
    assert format_element_set(mn3, frozenset((one,))) == "{a1}"


@pytest.mark.parametrize("bad", [{9}, {-1}, {0, 5}, {1.5}])
def test_format_element_set_rejects_foreign_ids(n5, bad):
    # -1 would index the top's label and 9 past the end of the labels.
    with pytest.raises(InvalidParameter):
        format_element_set(n5, bad)


def test_predicates(n5, m3, fig2):
    assert is_complemented(n5) and not is_modular(n5)
    assert is_modular(m3) and not is_distributive(m3)
    assert is_modular(fig2) and not is_distributive(fig2)
    b3 = make_boolean(3)
    assert is_distributive(b3) and is_modular(b3) and is_complemented(b3)
    c3 = make_chain(3)
    assert is_distributive(c3) and not is_complemented(c3)


def test_modularity_matches_pentagon_search(corpus):
    for entry in corpus:
        lat = entry.lattice
        assert is_modular(lat) == (find_n5_sublattice(lat) is None), entry.name


def test_pentagon_through_bounds(n5, m3, fig2):
    found = find_n5_through_bounds(n5)
    assert found is not None
    bot, e, f, g, top = found
    assert bot == n5.bottom and top == n5.top and n5.lt(e, f)
    assert n5.meet(e, g) == bot and n5.join(e, g) == top
    assert n5.meet(f, g) == bot and n5.join(f, g) == top
    assert find_n5_through_bounds(m3) is None
    assert find_n5_through_bounds(fig2) is None


def test_antichain_and_convex(n5, m3):
    a, b, c = (n5.id_of(x) for x in "abc")
    assert is_antichain(n5, frozenset((a, b)))
    assert not is_antichain(n5, frozenset((a, c)))
    assert is_convex(n5, frozenset((a, c)))
    assert not is_convex(n5, frozenset((n5.bottom, c)))
    assert is_antichain(m3, frozenset(m3.id_of(x) for x in "abc"))


def test_isomorphism_basics(n5, m3):
    assert is_isomorphic(make_Mn(2), make_boolean(2))
    assert is_isomorphic(make_chain(2), make_boolean(1))
    assert not is_isomorphic(n5, m3)
    assert not is_isomorphic(n5, make_chain(5))
    assert is_isomorphic(make_fig2(), make_fig2())


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_canonical_key_is_relabeling_invariant(data):
    pool = [make_N5(), make_M3(), make_Mn(4), make_boolean(3), make_fig2()]
    lat = data.draw(st.sampled_from(pool))
    perm = data.draw(st.permutations(list(lat.elements)))
    image = relabel(lat, list(perm))
    assert canonical_key(image) == canonical_key(lat)


def test_id_of_unknown_label(n5):
    with pytest.raises(InvalidParameter):
        n5.id_of("zz")


def test_enumerated_lattices_pass_axioms():
    for lat in enumerate_lattices(5):
        assert check_lattice_axioms(lat).ok


def test_package_export_surface():
    import latkit

    missing = [name for name in latkit.__all__ if not hasattr(latkit, name)]
    assert missing == []
    public = {
        name for name, value in vars(latkit).items()
        if not name.startswith("_") and not isinstance(value, type(latkit))
    }
    assert public == set(latkit.__all__)
    # every law check is reachable without submodule imports
    checks = [name for name in latkit.__all__ if name.startswith("check_")]
    assert len(checks) == 19
    for name in ("lattice_suite", "corpus_suite", "suite_ok"):
        assert name in latkit.__all__

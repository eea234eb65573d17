import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latkit.complementation import plus, satisfies_dblplus_identity
from latkit.connectives import (check_adjointness, check_conjunction_laws,
                                check_diamond_residuation,
                                check_implication_laws,
                                check_implication_meet_link,
                                check_minimal_dblplus, check_modus_laws,
                                implies, implies_sets, implies_union,
                                is_mn_shaped, odot, odot_sets, op_table)
from latkit.core import is_complemented, is_modular
from latkit.corpus import make_boolean, make_fig2, make_M3, make_Mn, make_N5
from latkit.errors import LatticeError
from latkit.render import render_op_table
from latkit.setops import set_le

POOL = [make_N5(), make_M3(), make_boolean(3), make_fig2()]


def ids_of(lat, labels):
    return frozenset(lat.id_of(x) for x in labels)


def by_label(lat, fn, x, y):
    return fn(lat, lat.id_of(x), lat.id_of(y))


def test_twelve_element_implication_values(fig2):
    assert by_label(fig2, implies, "a", "b") == ids_of(fig2, "hij")
    assert by_label(fig2, implies, "a", "f") == frozenset((fig2.top,))
    assert by_label(fig2, implies, "a", "g") == frozenset((fig2.top,))
    assert by_label(fig2, implies, "a", "h") == ids_of(fig2, "hij")
    assert by_label(fig2, implies, "f", "e") == ids_of(fig2, "e")
    assert by_label(fig2, implies, "g", "h") == ids_of(fig2, "hij")
    assert by_label(fig2, implies, "g", "h") == plus(fig2, ids_of(fig2, "a"))


def test_pentagon_conjunction_table(n5):
    rows = {"0": "00000", "a": "0a0ca", "b": "00b0b", "c": "0a0cc",
            "1": "0abc1"}
    for x, cells in rows.items():
        for y, cell in zip("0abc1", cells):
            assert by_label(n5, odot, x, y) == ids_of(n5, cell), (x, y)


def test_diamond_conjunction_table(m3):
    rows = {"0": ["0", "0", "0", "0", "0"],
            "a": ["0", "a", "0b", "0c", "a"],
            "b": ["0", "0a", "b", "0c", "b"],
            "c": ["0", "0a", "0b", "c", "c"],
            "1": ["0", "a", "b", "c", "1"]}
    for x, cells in rows.items():
        for y, cell in zip("0abc1", cells):
            assert by_label(m3, odot, x, y) == ids_of(m3, cell), (x, y)


def test_diamond_family_implication_pattern():
    for n in range(2, 6):
        lat = make_Mn(n)
        for a in lat.elements:
            for b in lat.elements:
                got = implies(lat, a, b)
                if lat.leq(a, b):
                    assert got == frozenset((lat.top,))
                elif a == lat.top:
                    assert got == frozenset((b,))
                else:
                    assert got == plus(lat, frozenset((a,)))


def test_implication_set_level_agreement(fig2):
    a, h = fig2.id_of("a"), fig2.id_of("h")
    assert implies_sets(fig2, frozenset((a,)), frozenset((h,))) == \
        implies(fig2, a, h)
    assert odot_sets(fig2, frozenset((a,)), frozenset((h,))) == \
        ids_of(fig2, "0b")


def test_implies_union(n5):
    a = n5.id_of("a")
    targets = ids_of(n5, "0c")
    expected = implies(n5, a, n5.id_of("0")) | implies(n5, a, n5.id_of("c"))
    assert implies_union(n5, a, targets) == expected
    assert implies_union(n5, a, frozenset()) == frozenset()


def test_pinned_pentagon_non_theorems(n5):
    # truth of the implication does not imply order: c -> a is true yet c > a
    c, a = n5.id_of("c"), n5.id_of("a")
    assert implies(n5, c, a) == frozenset((n5.top,))
    assert n5.lt(a, c)
    assert not satisfies_dblplus_identity(n5)


def test_implication_law_reports(corpus):
    for entry in corpus:
        rep = check_implication_laws(entry.lattice)
        assert rep.ok, (entry.name,
                        [c.name for c in rep.results if c.asserted and not c.passed])


def test_modular_law_reports(corpus):
    for entry in corpus:
        for rep in (check_modus_laws(entry.lattice),
                    check_implication_meet_link(entry.lattice),
                    check_minimal_dblplus(entry.lattice),
                    check_conjunction_laws(entry.lattice),
                    check_diamond_residuation(entry.lattice)):
            assert rep.ok, (entry.name, rep.title,
                            [c.name for c in rep.results
                             if c.asserted and not c.passed])


def test_adjointness_on_modular_corpus(corpus):
    for entry in corpus:
        rep = check_adjointness(entry.lattice)
        assert rep.ok, entry.name
        if is_complemented(entry.lattice) and is_modular(entry.lattice):
            assert all(c.asserted for c in rep.results), entry.name


def test_adjointness_explicit(fig2):
    for a in fig2.elements:
        for b in fig2.elements:
            for c in fig2.elements:
                left = set_le(fig2, odot(fig2, a, b), frozenset((c,)))
                right = set_le(fig2, frozenset((a,)), implies(fig2, b, c))
                assert left == right, (a, b, c)


def test_mn_shape_predicate(m3, n5, fig2):
    assert is_mn_shaped(m3)
    assert is_mn_shaped(make_Mn(5))
    assert not is_mn_shaped(n5)
    assert not is_mn_shaped(fig2)
    assert not is_mn_shaped(make_boolean(3))


def test_op_table_rejects_unknown(n5):
    with pytest.raises(ValueError):
        op_table(n5, "nand")


@pytest.mark.parametrize("fn", [op_table, render_op_table])
def test_unknown_operation_is_a_lattice_error(n5, fn):
    with pytest.raises(LatticeError, match="unknown operation 'nand'"):
        fn(n5, "nand")


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_singleton_set_agreement(data):
    lat = data.draw(st.sampled_from(POOL))
    a = data.draw(st.integers(0, lat.n - 1))
    b = data.draw(st.integers(0, lat.n - 1))
    assert implies_sets(lat, frozenset((a,)), frozenset((b,))) == implies(lat, a, b)
    assert odot_sets(lat, frozenset((a,)), frozenset((b,))) == odot(lat, a, b)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_implication_always_nonempty_on_complemented(data):
    lat = data.draw(st.sampled_from(POOL))
    a = data.draw(st.integers(0, lat.n - 1))
    b = data.draw(st.integers(0, lat.n - 1))
    assert implies(lat, a, b)
    assert odot(lat, a, b)

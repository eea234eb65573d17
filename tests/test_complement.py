import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latkit.complementation import (check_complement_sets,
                                    check_descending_chains,
                                    check_dblplus_characterization,
                                    check_galois_laws, check_modular_antichains,
                                    check_order_reversal, closed_sets,
                                    closure_lattice, complement_sets,
                                    complements,
                                    dblplus_injective, double_plus,
                                    find_closed_element_in_dblplus, is_closed,
                                    plus, satisfies_dblplus_identity)
from latkit.core import Lattice, is_complemented, is_modular
from latkit.corpus import (enumerate_lattices, make_boolean, make_chain,
                           make_fig2, make_M3, make_N5, named_lattice)
from latkit.errors import InvalidParameter
from latkit.report import CheckResult
from latkit.suite import closure_report

from .oracles import brute_closed_sets, brute_galois_report, brute_plus
from .strategies import place

POOL = [make_N5(), make_M3(), make_boolean(3), make_fig2()]


def ids_of(lat, labels):
    return frozenset(lat.id_of(x) for x in labels)


def table_of(lat, fn):
    return [fn(lat, frozenset((x,))) for x in lat.elements]


def test_pentagon_complement_table(n5):
    assert table_of(n5, plus) == [ids_of(n5, s) for s in
                                  ["1", "b", "ac", "b", "0"]]
    assert table_of(n5, double_plus) == [ids_of(n5, s) for s in
                                         ["0", "ac", "b", "ac", "1"]]


def test_diamond_complement_table(m3):
    assert table_of(m3, plus) == [ids_of(m3, s) for s in
                                  ["1", "bc", "ac", "ab", "0"]]
    assert table_of(m3, double_plus) == [ids_of(m3, s) for s in
                                         ["0", "a", "b", "c", "1"]]


def test_twelve_element_complement_table(fig2):
    expected = ["1", "hij", "gij", "ghj", "ghi", "f", "e",
                "bcd", "acd", "abd", "abc", "0"]
    assert table_of(fig2, plus) == [ids_of(fig2, s) for s in expected]
    for x in fig2.elements:
        assert double_plus(fig2, frozenset((x,))) == frozenset((x,))
    assert satisfies_dblplus_identity(fig2)


def test_complements_of_element(fig2, m3):
    g = fig2.id_of("g")
    assert complements(fig2, g) == ids_of(fig2, "bcd")
    assert complements(m3, m3.id_of("a")) == ids_of(m3, "bc")


def test_plus_of_sets(n5, fig2):
    assert plus(n5, frozenset()) == n5.universe
    assert plus(n5, n5.universe) == frozenset()
    a, c = n5.id_of("a"), n5.id_of("c")
    assert plus(n5, frozenset((a, c))) == ids_of(n5, "b")
    # common complements intersect memberwise
    g, h = fig2.id_of("g"), fig2.id_of("h")
    assert plus(fig2, frozenset((g, h))) == ids_of(fig2, "cd")


def test_closed_predicates(n5):
    b = n5.id_of("b")
    assert is_closed(n5, frozenset((b,)))
    assert not is_closed(n5, frozenset((n5.id_of("a"),)))
    assert not satisfies_dblplus_identity(n5)
    assert double_plus(n5, frozenset((n5.id_of("a"),))) == ids_of(n5, "ac")


def test_dblplus_injective(n5, m3, fig2):
    assert dblplus_injective(m3)
    assert dblplus_injective(fig2)
    # the pentagon maps a and c to the same double complement set
    assert not dblplus_injective(n5)


def test_closed_sets_match_brute_force(corpus):
    for entry in corpus:
        lat = entry.lattice
        if lat.n > 12:
            continue
        assert set(closed_sets(lat)) == brute_closed_sets(lat), entry.name


def test_plus_matches_brute_force(n5, fig2):
    for lat in (n5, fig2):
        for mask in range(0, 1 << lat.n, 7):
            s = frozenset(i for i in lat.elements if mask >> i & 1)
            assert plus(lat, s) == brute_plus(lat, s)


def test_closure_lattice_structure(corpus):
    for entry in corpus:
        rep = closure_lattice(entry.lattice)
        assert rep.violations == (), (entry.name, rep.violations)
        family = rep.closed
        assert frozenset() in family and entry.lattice.universe in family
        # orthocomplement is an involution on the family
        for i, s in enumerate(family):
            j = rep.orthocomplement[i]
            assert family[rep.orthocomplement[j]] == s


def test_closure_report_decides_m12_by_proof(monkeypatch):
    """On M:12 the complement relation is a polarity, so the report
    comes from the proof alone and no 4,098 x 4,098 table is built."""
    def refuse(lat):
        raise AssertionError("closure_lattice called")
    monkeypatch.setattr("latkit.suite.closure_lattice", refuse)
    rep = closure_report(named_lattice("M:12"))
    assert rep.results == (CheckResult("complete ortholattice on 4098 closed sets", True),)


def test_pentagon_closure_family(n5):
    fam = closed_sets(n5)
    assert len(fam) == 6
    assert set(fam) == {frozenset(), n5.universe, ids_of(n5, "0"),
                        ids_of(n5, "1"), ids_of(n5, "b"), ids_of(n5, "ac")}


def test_galois_laws_pass(corpus):
    for entry in corpus:
        rep = check_galois_laws(entry.lattice)
        assert rep.ok, (entry.name, [c.name for c in rep.results if not c.passed])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_galois_properties(data):
    lat = data.draw(st.sampled_from(POOL))
    mask_a = data.draw(st.integers(0, (1 << lat.n) - 1))
    mask_b = data.draw(st.integers(0, (1 << lat.n) - 1))
    a = frozenset(i for i in lat.elements if mask_a >> i & 1)
    b = frozenset(i for i in lat.elements if mask_b >> i & 1)
    assert a <= double_plus(lat, a)
    assert plus(lat, double_plus(lat, a)) == plus(lat, a)
    if a <= b:
        assert plus(lat, b) <= plus(lat, a)
    assert (a <= plus(lat, b)) == (b <= plus(lat, a))
    assert not (plus(lat, a) & double_plus(lat, a))


def test_complement_set_shape_checks(corpus):
    for entry in corpus:
        for rep in (check_complement_sets(entry.lattice),
                    check_modular_antichains(entry.lattice),
                    check_order_reversal(entry.lattice),
                    check_dblplus_characterization(entry.lattice),
                    check_descending_chains(entry.lattice)):
            assert rep.ok, (entry.name, rep.title,
                            [c.name for c in rep.results
                             if c.asserted and not c.passed])


def test_closed_element_in_dblplus(n5, m3, corpus):
    # neither element of a++ is closed in the pentagon, so the search fails
    assert find_closed_element_in_dblplus(n5, n5.id_of("a")) is None
    a = m3.id_of("a")
    assert find_closed_element_in_dblplus(m3, a) == a
    b3 = make_boolean(3)
    for x in b3.elements:
        assert find_closed_element_in_dblplus(b3, x) == x
    for entry in corpus:
        lat = entry.lattice
        if not (is_complemented(lat) and dblplus_injective(lat)):
            continue
        for x in lat.elements:
            got = find_closed_element_in_dblplus(lat, x)
            assert got is not None and got in double_plus(lat, frozenset((x,)))


def test_chain_has_no_complements():
    c3 = make_chain(3)
    mid = 1
    assert complements(c3, mid) == frozenset()
    assert plus(c3, frozenset((mid,))) == frozenset()
    assert not is_complemented(c3)


def test_plus_rejects_foreign_ids(n5):
    for bad in ({99}, {0, 5}, {-1}, {1.5}):
        with pytest.raises(InvalidParameter):
            plus(n5, frozenset(bad))


def test_galois_laws_match_frozenset_reference():
    for n in range(2, 6):
        for lat in enumerate_lattices(n):
            assert check_galois_laws(lat) == brute_galois_report(lat), lat
    for lat in (make_fig2(), make_boolean(4)):
        for seed in (0, 1):
            assert check_galois_laws(lat, seed=seed) == \
                brute_galois_report(lat, seed=seed), (lat, seed)


def with_complement_table(lat, table):
    """A fresh copy of lat whose memo holds the given complement sets."""
    out = Lattice(lat.labels, [lat.up_mask(i) for i in lat.elements], name=lat.name)
    place(out, "complement_sets", table)
    return out


def test_galois_laws_can_fail():
    # N5 with the complement 1 of 0 dropped: 1 still lists 0, so the
    # relation is no longer symmetric and {1}++ loses 1.
    n5 = make_N5()
    table = [set(s) for s in complement_sets(n5)]
    table[n5.bottom].discard(n5.top)
    rep = check_galois_laws(with_complement_table(n5, table))
    bad = rep.find("A contained in A++")
    assert not rep.ok and not bad.passed and bad.witness == "A=1"
    # fig2 with every element its own complement: A+ meets A++.
    fig2 = make_fig2()
    rep = check_galois_laws(with_complement_table(fig2, [fig2.elements] * fig2.n))
    bad = rep.find("A+ disjoint from A++")
    assert rep.title == "galois laws (exhaustive)"
    assert not bad.passed and bad.witness == "A=∅"

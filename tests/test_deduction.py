import ast
import pathlib

import pytest

import latkit

from latkit.core import is_complemented, is_modular
from latkit.corpus import (enumerate_lattices, make_boolean, make_chain,
                           make_fig2, make_M3, make_Mn, make_N5)
from latkit.deduction import (all_deductive_systems, all_meet_congruences,
                              all_partitions, check_compatible_kernel_recovery,
                              check_deductive_family,
                              check_filters_vs_deductive_systems,
                              check_meet_congruence_kernels,
                              check_substitution_equivalences,
                              compatible_systems, ds_lattice_is_boolean_2n,
                              find_meet_congruence_with_kernel, has_sp_implies,
                              has_sp_plus, is_compatible_ds,
                              is_deductive_system, is_equivalence, is_filter,
                              is_meet_congruence, is_order_filter, kernel,
                              order_filters, relation_of_blocks, theta)
from latkit.errors import InvalidParameter, SizeCapExceeded

from .oracles import brute_deductive_systems, brute_meet_congruences


def ids_of(lat, labels):
    return frozenset(lat.id_of(x) for x in labels)


def test_pentagon_deductive_systems(n5):
    dsl = all_deductive_systems(n5)
    expected = {ids_of(n5, "1"), ids_of(n5, "b1"), ids_of(n5, "ac1"),
                n5.universe}
    assert set(dsl.systems) == expected
    assert dsl.systems[dsl.bottom_index] == ids_of(n5, "1")
    assert dsl.systems[dsl.top_index] == n5.universe


def test_pentagon_rejects_partial_upset(n5):
    # c -> a is the whole-top set, so a deductive system containing c
    # must contain a as well
    assert not is_deductive_system(n5, ids_of(n5, "c1"))
    assert is_deductive_system(n5, ids_of(n5, "ac1"))


def test_deductive_systems_match_brute_force(corpus):
    for entry in corpus:
        lat = entry.lattice
        if lat.n > 12:
            continue
        fast = list(all_deductive_systems(lat).systems)
        assert fast == brute_deductive_systems(lat), entry.name


def test_diamond_family_boolean():
    for n in (2, 3, 4):
        lat = make_Mn(n)
        dsl = all_deductive_systems(lat)
        assert len(dsl.systems) == 1 << n
        assert ds_lattice_is_boolean_2n(lat)


def test_boolean_check_fails_on_a_dropped_system():
    # Each system of M:3 in turn is dropped from the memoised family.
    for drop in range(8):
        lat = make_Mn(3)
        assert ds_lattice_is_boolean_2n(lat)
        masks, dsl = lat._memo["deductive_systems"]
        lat._memo["deductive_systems"] = (masks[:drop] + masks[drop + 1:], dsl)
        assert not ds_lattice_is_boolean_2n(lat), drop


def test_boolean_check_rejects_other_shapes(n5):
    with pytest.raises(InvalidParameter):
        ds_lattice_is_boolean_2n(n5)


def test_ds_lattice_tables(m3):
    dsl = all_deductive_systems(m3)
    sysix = {s: i for i, s in enumerate(dsl.systems)}
    for i, a in enumerate(dsl.systems):
        for j, b in enumerate(dsl.systems):
            assert dsl.meet_table[i][j] == sysix[a & b]
            join = dsl.systems[dsl.join_table[i][j]]
            assert a | b <= join
            for c in dsl.systems:
                if a | b <= c:
                    assert join <= c


def test_size_cap_on_enumeration():
    with pytest.raises(SizeCapExceeded):
        all_deductive_systems(make_boolean(3), cap=4)
    with pytest.raises(SizeCapExceeded):
        all_meet_congruences(make_boolean(4), cap=10)


def test_filters(n5, m3):
    assert is_order_filter(n5, ids_of(n5, "c1"))
    assert not is_order_filter(n5, ids_of(n5, "a1"))
    assert not is_order_filter(n5, frozenset())
    assert is_filter(m3, ids_of(m3, "a1"))
    assert not is_filter(m3, ids_of(m3, "ab1"))
    fs = order_filters(m3)
    assert len(fs) == len(set(fs))
    for f in fs:
        assert is_order_filter(m3, f)


def test_filter_reports(corpus):
    for entry in corpus:
        for rep in (check_filters_vs_deductive_systems(entry.lattice),
                    check_deductive_family(entry.lattice)):
            assert rep.ok, (entry.name, rep.title,
                            [c.name for c in rep.results
                             if c.asserted and not c.passed])


def test_meet_congruences_match_brute_force(corpus):
    for entry in corpus:
        lat = entry.lattice
        if lat.n > 6:
            continue
        fast = set(all_meet_congruences(lat))
        assert fast == brute_meet_congruences(lat), entry.name
        for rel in fast:
            assert is_meet_congruence(lat, rel)


def test_counterexample_kernel_absent(mn3):
    ker = ids_of(mn3, ("a1", "a2", "1"))
    assert is_deductive_system(mn3, ker)
    assert find_meet_congruence_with_kernel(mn3, ker) is None


def test_kernel_present_for_whole_relation(mn3):
    everything = relation_of_blocks([list(mn3.elements)])
    assert kernel(mn3, everything) == mn3.universe
    assert find_meet_congruence_with_kernel(mn3, mn3.universe) == everything


def test_theta_identity_on_diamond(m3):
    rel = theta(m3, frozenset((m3.top,)))
    assert rel == frozenset((x, x) for x in m3.elements)
    assert is_equivalence(m3, rel)


def test_theta_of_whole_carrier(n5):
    rel = theta(n5, n5.universe)
    assert rel == frozenset((x, y) for x in n5.elements for y in n5.elements)


def test_congruence_kernel_reports(corpus):
    for entry in corpus:
        rep = check_meet_congruence_kernels(entry.lattice)
        assert rep.ok, (entry.name,
                        [c.name for c in rep.results if c.asserted and not c.passed])


def test_substitution_property_predicates(m3):
    identity = frozenset((x, x) for x in m3.elements)
    assert not has_sp_implies(m3, identity)
    allrel = frozenset((x, y) for x in m3.elements for y in m3.elements)
    assert has_sp_implies(m3, allrel)
    assert has_sp_plus(m3, allrel)


def test_substitution_equivalence_reports(corpus):
    for entry in corpus:
        rep = check_substitution_equivalences(entry.lattice)
        assert rep.ok, (entry.name,
                        [c.name for c in rep.results if c.asserted and not c.passed])


def test_compatible_kernel_recovery(corpus):
    for entry in corpus:
        rep = check_compatible_kernel_recovery(entry.lattice)
        assert rep.ok, (entry.name,
                        [c.name for c in rep.results if c.asserted and not c.passed])


def test_compatible_systems_form(mn3):
    compat = compatible_systems(mn3)
    assert mn3.universe in compat
    for d in compat:
        assert is_compatible_ds(mn3, d)
        rel = theta(mn3, d)
        assert is_equivalence(mn3, rel)
        assert has_sp_implies(mn3, rel)
        assert kernel(mn3, rel) == d


def test_all_partitions_counts():
    # Bell numbers
    for n, bell in ((1, 1), (2, 2), (3, 5), (4, 15), (5, 52)):
        assert sum(1 for _ in all_partitions(n)) == bell


def test_modular_filters_are_deductive(corpus):
    for entry in corpus:
        lat = entry.lattice
        if not (is_complemented(lat) and is_modular(lat)):
            continue
        for f in order_filters(lat):
            if is_filter(lat, f):
                assert is_deductive_system(lat, f), entry.name


def test_boolean_five_has_32_substitution_equivalences():
    rep = check_substitution_equivalences(make_boolean(5))
    assert rep.ok
    assert rep.results[-1].name == "surveyed 32 substitution equivalences"


def test_no_module_imports_random():
    """Every check is exact: nothing in the package draws samples."""
    for path in pathlib.Path(latkit.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            assert "random" not in names, path.name


def test_chain_systems():
    c2 = make_chain(2)
    dsl = all_deductive_systems(c2)
    assert set(dsl.systems) == {frozenset((c2.top,)), c2.universe}


def test_memoised_systems_keep_the_cap():
    lat = make_boolean(3)
    assert all_deductive_systems(lat) is all_deductive_systems(lat)
    with pytest.raises(SizeCapExceeded):
        all_deductive_systems(lat, cap=4)


def test_compatibility_accepts_plain_sets():
    lat = make_Mn(3)
    compat = compatible_systems(make_Mn(3))
    for d in all_deductive_systems(lat).systems:
        assert is_compatible_ds(lat, set(d)) == (d in compat)
    assert not is_compatible_ds(lat, {lat.bottom})

"""The checks that decide a law by an O(n^2) premise instead of a scan
or a family walk, against the scan or the walk they replace: the
closed-set count by components, the family antichain law by the sets
C(x, y), the closure report and the lattice axioms. Also the Fast
Close-by-One walk of the substitution family against two independent
walks, its closure counts, and verify on M:n far past 2^16 closed
sets."""

import json
import random
import time

import pytest

import latkit.deduction as dmod
from latkit.cli import main
from latkit.complementation import (_count_by_components, _is_polarity,
                                    _polarity_proves_ortholattice,
                                    check_modular_antichains, closed_count,
                                    closed_masks, closure_lattice, complement_sets)
from latkit.connectives import implies_table
from latkit.core import antichain_mask, check_lattice_axioms, format_element_set, members
from latkit.corpus import (default_corpus, direct_product, enumerate_lattices, make_boolean,
                           make_chain, make_M3, make_Mn, named_lattice)
from latkit.errors import SizeCapExceeded
from latkit.report import CheckResult
from latkit.suite import closure_report

from .oracles import (brute_lattice_axioms, brute_substitution_family,
                      merge_walk_substitution_family)
from .strategies import SMALL, fresh, place
from .test_galois_exact import corrupted_tables

ALL_TO_9 = [lat for n in range(2, 10) for lat in enumerate_lattices(n)]


def unpaired(lat):
    """lat with its first complement pair removed both ways: symmetric,
    irreflexive, and the table of no lattice."""
    comp = complement_sets(lat)
    x, y = next((x, y) for x, row in enumerate(comp) for y in row)
    work = fresh(lat)
    place(work, "complement_sets", tuple(row - {y} if i == x else row - {x} if i == y else row
                                         for i, row in enumerate(comp)))
    return work


def test_component_count_equals_the_family_size():
    products = [direct_product(make_M3(), make_M3()), direct_product(make_Mn(6), make_Mn(6)),
                direct_product(make_Mn(4), make_chain(2)),
                direct_product(make_Mn(6), make_chain(2))]
    placed = [unpaired(e.lattice) for e in default_corpus() if e.lattice.n <= 8]
    assert len(ALL_TO_9) == 1377
    for lat in ALL_TO_9 + products + placed:
        assert _is_polarity(lat), lat
        assert _count_by_components(lat) == len(closed_masks(lat)), lat
        assert closed_count(lat) == len(closed_masks(lat)), lat
    assert [len(closed_masks(lat)) for lat in products[:1] + products[2:]] == [66, 34, 130]


def test_count_lists_no_large_family():
    lat = make_Mn(30)
    assert closed_count(lat) == (1 << 30) + 2
    assert "closed_masks" not in lat._memo


def family_antichain_by_scan(lat) -> CheckResult:
    """The family antichain law over closed_masks, as the family walk
    decided it: the first member but the carrier, in (size, ids) order,
    that is not an antichain."""
    full = (1 << lat.n) - 1
    rep = check_modular_antichains(lat)
    name = "A+ an antichain for every nonempty A"
    asserted = rep.find(name).asserted
    bad = next((m for m in closed_masks(lat) if m != full and not antichain_mask(lat, m)), None)
    if bad is None:
        return CheckResult(name, True, None, asserted)
    return CheckResult(name, False, f"A+={format_element_set(lat, members(bad))}", asserted)


def closure_report_by_scan(lat):
    """closure_report as the family check decided it."""
    violations = () if _polarity_proves_ortholattice(lat) else closure_lattice(lat).violations
    return [(v, False) for v in violations] or [
        (f"complete ortholattice on {len(closed_masks(lat))} closed sets", True)]


def test_premise_paths_match_the_family_scans():
    """Real tables, and random symmetric, looped, asymmetric and arbitrary
    complement tables: the family antichain law reads the sets C(x, y)
    and closure_report the premise, and both agree with the family scans;
    the antichain law fails somewhere, and so does the premise."""
    rng = random.Random(3)
    lats = list(SMALL) + [named_lattice("fig2"), make_boolean(4)]
    works, seen = [], set()
    for lat in lats:
        works.append(fresh(lat))
        for table in corrupted_tables(lat, rng).values():
            work = fresh(lat)
            place(work, "complement_sets", table)
            works.append(work)
        work = fresh(lat)
        place(work, "complement_sets", [{y for y in lat.elements if rng.random() < 0.4}
                                        for _ in lat.elements])
        works.append(work)
    for work in works:
        got = check_modular_antichains(work).find("A+ an antichain for every nonempty A")
        assert got == family_antichain_by_scan(work), work
        seen.add(got.passed)
        rep = closure_report(work)
        assert [(r.name, r.passed) for r in rep.results] == closure_report_by_scan(work), work
        seen.add(("polarity", _is_polarity(work)))
    assert seen == {True, False, ("polarity", True), ("polarity", False)}


def test_lattice_axioms_on_real_tables_match_the_scan():
    for lat in [e.lattice for e in default_corpus()] + [
            direct_product(make_M3(), make_M3()), make_boolean(5), make_chain(20)]:
        assert check_lattice_axioms(lat) == brute_lattice_axioms(lat), lat


def test_fcbo_family_matches_independent_walks():
    """Against the partition walk of brute_substitution_family on every
    lattice with 2 to 6 elements, chain:7, B:3 and fig2, and against the
    walk that merges every two classes of every member on B:4 and B:5."""
    for lat in list(SMALL) + [make_chain(7), make_boolean(3), named_lattice("fig2")]:
        family = [dmod._pairs(rows) for rows in dmod._substitution_family(lat)]
        assert family == brute_substitution_family(lat, implies_table(lat), 1000), lat
    for lat in (make_boolean(4), make_boolean(5)):
        family = dmod._substitution_family(lat)
        assert family == merge_walk_substitution_family(lat), lat
    assert len(family) == 32


@pytest.mark.parametrize("name, members_, closures", [("B:4", 16, 132), ("chain:7", 675, 676)])
def test_fcbo_closes_each_member_about_once(monkeypatch, name, members_, closures):
    """The merge walk ran 273 closures on B:4 and 3,947 on chain:7."""
    calls = []
    close = dmod._close

    def counted(*args):
        calls.append(1)
        return close(*args)
    monkeypatch.setattr(dmod, "_close", counted)
    assert len(dmod._substitution_family(named_lattice(name))) == members_
    assert len(calls) == closures


def test_fcbo_stops_at_the_cap_without_recursion():
    with pytest.raises(SizeCapExceeded, match="more than 1000 substitution equivalences"):
        dmod._substitution_family(make_chain(16))


def test_verify_counts_closed_sets_of_large_diamonds(capsys):
    assert main(["verify", "--lattice", "M:30", "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    names = [c["name"] for r in out["lattices"][0]["reports"] for c in r["checks"]]
    assert "complete ortholattice on 1073741826 closed sets" in names
    start = time.perf_counter()
    assert main(["verify", "--lattice", "M:19"]) == 0
    assert time.perf_counter() - start < 2

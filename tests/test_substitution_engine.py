"""One substitution engine over three tables: is_meet_congruence,
has_sp_plus and has_sp_implies against their definitions on arbitrary
relations and corrupted tables; the kernel closure of
find_meet_congruence_with_kernel against the first kernel match among
all meet congruences (_meet_congruence_rows, the intersection closure of
the n ~f); and check_meet_congruence_kernels, which reads the n theta_f,
against its two laws run over all of them."""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from latkit.complementation import complement_sets
from latkit.connectives import implies_table
from latkit.core import format_element_set, is_complemented, is_modular, members, to_set
from latkit.corpus import default_corpus, enumerate_lattices, make_boolean, make_fig2
from latkit.deduction import (PARTITION_CAP, _is_deductive, _kernel,
                              _meet_congruence_rows, _pairs, _theta,
                              check_meet_congruence_kernels,
                              find_meet_congruence_with_kernel, has_sp_implies,
                              has_sp_plus)
from latkit.report import PropertyReport, law
from latkit.suite import lattice_suite

from .oracles import (brute_has_sp_implies, brute_has_sp_plus,
                      brute_is_equivalence, brute_is_meet_congruence,
                      is_meet_congruence, recursive_partitions, relation_of_blocks)
from .strategies import SMALL, fresh, lattices_with_tables
from .test_witnesses import suite_variants


def verdicts(lat, rels) -> set:
    """Each relation decided three ways, each verdict against its
    definition; the (name, equivalence, verdict) triples seen."""
    comp, it = complement_sets(lat), implies_table(lat)
    seen = set()
    for rel in rels:
        equivalence = brute_is_equivalence(lat, rel)
        for name, fast, slow in (
                ("sp+", has_sp_plus(lat, rel), brute_has_sp_plus(rel, comp)),
                ("sp->", has_sp_implies(lat, rel), brute_has_sp_implies(lat, rel, it)),
                ("meet", is_meet_congruence(lat, rel), brute_is_meet_congruence(lat, rel))):
            assert fast == slow, (lat, name, sorted(rel))
            seen.add((name, equivalence, fast))
    return seen


@settings(max_examples=60, deadline=None)
@given(lattices_with_tables(max_n=16, extended=True), st.data())
def test_three_tables_match_their_definitions(lat, data):
    """The identity, the full relation, a drawn partition, the partition
    with a few pairs toggled, and an arbitrary set of pairs, on tables
    that may be corrupted."""
    ids = st.integers(0, lat.n - 1)
    labels = data.draw(st.lists(ids, min_size=lat.n, max_size=lat.n))
    blocks = relation_of_blocks(
        [frozenset(x for x in lat.elements if labels[x] == k) for k in set(labels)])
    toggled = blocks ^ data.draw(st.frozensets(st.tuples(ids, ids), max_size=3))
    drawn = data.draw(st.frozensets(st.tuples(ids, ids)))
    identity = frozenset((x, x) for x in lat.elements)
    full = frozenset((x, y) for x in lat.elements for y in lat.elements)
    verdicts(lat, [identity, full, blocks, toggled, drawn])


def test_verdicts_meet_both_answers_on_both_kinds_of_relation():
    """Every lattice with 2 to 5 elements, on every partition, each
    partition with one pair toggled, and every relation of at most two
    pairs: each routine says yes and no to an equivalence, and the
    substitution properties also say yes and no to a relation that is
    not one."""
    rng = random.Random(5)
    seen = set()
    for lat in SMALL:
        if lat.n > 5:
            continue
        rels = [relation_of_blocks(p) for p in recursive_partitions(lat.n)]
        rels += [rel ^ {(rng.randrange(lat.n), rng.randrange(lat.n))} for rel in rels]
        pairs = list(itertools.product(lat.elements, repeat=2))
        rels += map(frozenset, itertools.combinations(pairs, 1))
        rels += map(frozenset, itertools.combinations(pairs, 2))
        seen |= verdicts(lat, rels)
    assert seen == {(name, equivalence, verdict) for name in ("sp+", "sp->", "meet")
                    for equivalence in (True, False) for verdict in (True, False)
                    if equivalence or verdict is False or name != "meet"}


def first_kernel_matches(lat, cap: int) -> dict:
    """Kernel mask -> the first meet congruence with that kernel in the
    _pair_key order of _meet_congruence_rows."""
    firsts = {}
    for rows in _meet_congruence_rows(lat, cap):
        firsts.setdefault(_kernel(lat, rows), _pairs(rows))
    return firsts


def test_kernel_closure_matches_the_walk_on_every_subset():
    """Every subset of every lattice with 2 to 7 elements."""
    found = tried = 0
    for n in range(2, 8):
        for lat in enumerate_lattices(n):
            firsts = first_kernel_matches(lat, PARTITION_CAP)
            for m in range(1 << n):
                want = firsts.get(m)
                assert find_meet_congruence_with_kernel(lat, to_set(m)) == want, (lat, m)
                found += want is not None
                tried += 1
    assert (found, tried) == (499, 7948)


def test_kernel_closure_matches_the_walk_past_the_partition_cap():
    """fig2 (12 elements) on every subset and B:4 (16) on every subset
    holding the top, against _meet_congruence_rows run with a cap of 16."""
    for lat, top_only in ((make_fig2(), False), (make_boolean(4), True)):
        firsts = first_kernel_matches(lat, 16)
        assert len(firsts) > 1
        for m in range(1 << lat.n):
            if top_only and not m >> lat.top & 1:
                continue
            assert find_meet_congruence_with_kernel(lat, to_set(m)) == firsts.get(m), (lat, m)


def test_kernel_query_runs_no_closure(monkeypatch):
    """With the closure engine made to raise, the kernel query still
    matches _meet_congruence_rows on every subset of fig2: it reads
    theta_f off the up-sets."""
    import latkit.deduction as dmod
    lat = make_fig2()
    firsts = first_kernel_matches(lat, 16)

    def closed(*_):
        raise AssertionError("_close was called")
    monkeypatch.setattr(dmod, "_close", closed)
    for m in range(1 << lat.n):
        assert find_meet_congruence_with_kernel(lat, to_set(m)) == firsts.get(m), m


def enumerated_kernel_report(lat, cap: int) -> PropertyReport:
    """check_meet_congruence_kernels by its definition: both laws over
    every meet congruence of _meet_congruence_rows, in _pair_key order."""
    asserted = is_complemented(lat) and is_modular(lat)
    kernels = [(_kernel(lat, rows), rows) for rows in _meet_congruence_rows(lat, cap)]
    witness = lambda k, rows: f"kernel={format_element_set(lat, members(k))}"
    return PropertyReport("meet congruence kernels", (
        law("kernel of every meet congruence a deductive system",
            lambda k, rows: _is_deductive(lat, k), kernels, asserted, witness),
        law("theta of kernel within the congruence",
            lambda k, rows: all(t & ~r == 0 for t, r in zip(_theta(lat, k), rows)),
            kernels, asserted, witness),
    ))


def test_kernel_check_matches_the_walk():
    """Every lattice with 2 to 7 elements, fig2 and B:4, and the
    real and corrupted-table variants of the default corpus and of every
    lattice with at most 6 elements: the theta_f check gives the same
    results, witnesses included, as its laws over every meet congruence
    (the intersection closure of the n ~f). Both
    laws fail somewhere, asserted and not."""
    lats = [lat for n in range(2, 8) for lat in enumerate_lattices(n)]
    works = [fresh(lat) for lat in lats + [make_fig2(), make_boolean(4)]]
    for i, lat in enumerate([e.lattice for e in default_corpus()] + list(SMALL)):
        works += [work for _, work in suite_variants(lat, random.Random(i))]
    failed = set()
    for work in works:
        got = check_meet_congruence_kernels(work, 16)
        assert got == enumerated_kernel_report(work, 16), (work.name, work.labels)
        failed |= {(r.name, r.asserted) for r in got.results if not r.passed}
    assert failed == {(name, asserted) for asserted in (True, False) for name in
                      ("kernel of every meet congruence a deductive system",
                       "theta of kernel within the congruence")}


def test_suite_runs_no_partition_walk(monkeypatch):
    """With the meet-congruence enumeration made to raise, lattice_suite
    still runs on every default-corpus lattice: the kernel check reads
    theta_f. (No library code walks partitions.)"""
    import latkit.deduction as dmod

    def enumerate_all(*_):
        raise AssertionError("the meet congruences were enumerated")
    monkeypatch.setattr(dmod, "_meet_congruence_rows", enumerate_all)
    for e in default_corpus():
        assert len(lattice_suite(fresh(e.lattice))) == 20, e.name

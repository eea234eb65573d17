"""Subsets are int masks inside the package: the mask paths against
frozenset definitions, foreign ids at the boundary, and no mask leaking
out of the public API."""

import itertools
import random

import pytest

import latkit
from latkit import (InvalidParameter, Lattice, all_deductive_systems,
                    all_meet_congruences, closed_sets, closure_lattice,
                    compatible_systems, complements, double_plus,
                    enumerate_lattices, find_meet_congruence_with_kernel,
                    has_sp_implies, has_sp_plus, implies, implies_sets,
                    implies_union, is_compatible_ds, kernel, make_fig2,
                    make_Mn, make_N5, odot, odot_sets, op_table, plus,
                    set_join, set_le, set_le1, set_le2, set_meet, singleton,
                    theta)
from latkit.complementation import complement_sets
from latkit.connectives import implies_table
from latkit.core import members
from latkit.corpus import default_corpus, make_boolean
from latkit.deduction import (_pairs, _substitution_family, all_partitions,
                              check_compatible_kernel_recovery,
                              check_deductive_family,
                              check_filters_vs_deductive_systems,
                              check_meet_congruence_kernels,
                              check_substitution_equivalences,
                              relation_of_blocks)

from .oracles import (brute_closure_scan, brute_has_sp_implies,
                      brute_has_sp_plus, brute_is_compatible_ds,
                      brute_set_join, brute_set_le, brute_set_le1,
                      brute_set_le2, brute_set_meet, brute_theta)

SET_OPS = ((set_join, brute_set_join), (set_meet, brute_set_meet),
           (set_le, brute_set_le), (set_le1, brute_set_le1),
           (set_le2, brute_set_le2))


def subsets(lat):
    return [frozenset(i for i in lat.elements if m >> i & 1) for m in range(1 << lat.n)]


def fresh(lat):
    return Lattice(lat.labels, [lat.up_mask(i) for i in lat.elements], name=lat.name)


def test_set_operations_match_frozenset_definitions():
    for n in range(2, 6):
        for lat in enumerate_lattices(n):
            subs = subsets(lat)
            for a in subs:
                for b in subs:
                    for fast, slow in SET_OPS:
                        assert fast(lat, a, b) == slow(lat, a, b), (lat, fast, a, b)


@pytest.mark.parametrize("bad", [-1, 5])
def test_set_operations_reject_foreign_ids(bad):
    n5 = make_N5()
    for fn, _ in SET_OPS:
        for a, b in (({bad}, {0}), ({0}, {bad}), ({0, bad}, {1})):
            with pytest.raises(InvalidParameter):
                fn(n5, frozenset(a), frozenset(b))


@pytest.mark.parametrize("bad", [-1, 5])
def test_lattice_queries_reject_foreign_ids(bad):
    n5 = make_N5()
    for query in (n5.meet, n5.join, n5.leq, n5.lt):
        for a, b in ((bad, 0), (0, bad)):
            with pytest.raises(InvalidParameter):
                query(a, b)


def toggled(rng, table, n, flips):
    """table with `flips` random element memberships flipped."""
    out = [set(s) for s in table]
    for _ in range(flips):
        out[rng.randrange(len(out))] ^= {rng.randrange(n)}
    return tuple(frozenset(s) for s in out)


def test_closure_lattice_matches_frozenset_scan():
    """On corrupted complement tables, and on families with members
    dropped (seeded as the memoised closed masks), closure_lattice gives
    the tables and violations of the O(k^3) frozenset scan. Without the
    full carrier an escaped intersection stands for the last member, and
    only then can a meet fail to be greatest."""
    rng = random.Random(5)
    lats = [e.lattice for e in default_corpus() if e.lattice.n <= 8]
    seen = set()
    for lat in lats:
        for variant in range(4):
            work = fresh(lat)
            table = toggled(rng, complement_sets(lat), lat.n, 1 + variant)
            work.memo("complement_sets", lambda t=table: t)
            family = list(closed_sets(work))
            if variant >= 2 and len(family) > 3:
                for _ in range(variant - 1):
                    family.pop(rng.randrange(len(family)))
                if variant == 3:
                    family.pop()
                masks = tuple(sum(1 << x for x in s) for s in family)
                work._memo["closed_masks"] = masks
                work._memo.pop("closed_sets")
            rep = closure_lattice(work)
            assert rep.closed == tuple(family), (lat, variant)
            assert (rep.meet_table, rep.join_table, rep.orthocomplement,
                    rep.violations) == brute_closure_scan(work, table, tuple(family)), \
                (lat, variant)
            seen |= {v.split(":")[0] for v in rep.violations}
    assert {"join not least", "meet not greatest", "intersection escapes the family",
            "orthocomplement not antitone", "family member not closed"} <= seen


def relations_to_try(lat, rng):
    """Every equivalence, and ten random relations."""
    rels = [relation_of_blocks(p) for p in all_partitions(lat.n)]
    pairs = [(x, y) for x in lat.elements for y in lat.elements]
    rels += [frozenset(rng.sample(pairs, rng.randrange(len(pairs)))) for _ in range(10)]
    return rels


def test_deduction_masks_match_brute_force():
    rng = random.Random(7)
    verdicts = set()
    for n in range(2, 7):
        for lat in enumerate_lattices(n):
            plain = fresh(lat)
            corrupt = fresh(lat)
            table = [toggled(rng, row, n, 2) for row in implies_table(lat)]
            corrupt.memo("implies_table", lambda t=tuple(table): t)
            for work in (plain, corrupt):
                it, comp = implies_table(work), complement_sets(work)
                for d in subsets(work):
                    ok = is_compatible_ds(work, d)
                    assert ok == brute_is_compatible_ds(work, it, d), (lat, d)
                    verdicts.add(ok)
                    assert theta(work, d) == brute_theta(work, it, d), (lat, d)
                for rel in relations_to_try(work, rng):
                    sp = has_sp_implies(work, rel)
                    assert sp == brute_has_sp_implies(work, rel, it), (lat, rel)
                    assert has_sp_plus(work, rel) == brute_has_sp_plus(rel, comp), (lat, rel)
                    verdicts.add(("sp", sp))
    assert verdicts == {True, False, ("sp", True), ("sp", False)}


def collapses(lat):
    """Every equivalence that merges one pair of elements, then every
    join of two of them, without repeats."""
    pairs = list(itertools.combinations(lat.elements, 2))
    out = {}
    for ps in itertools.chain(((p,) for p in pairs), itertools.combinations(pairs, 2)):
        blocks = [{x} for x in lat.elements]
        for a, b in ps:
            merged = blocks[a] | blocks[b]
            for x in merged:
                blocks[x] = merged
        out.setdefault(relation_of_blocks(map(frozenset, blocks)), None)
    return list(out)


def test_deduction_fast_paths_match_brute_force_above_8_elements():
    """fig2 (12 elements), B:4 (16) and M:8 (10) take members() past one
    byte and fill the theta memo, with the real implication table and
    with a corrupted one seeded on a fresh lattice before the first call.
    Theta comes first on the real table and the compatibility verdict,
    which seeds the memo, first on the corrupted one. The relations are
    every single-pair collapse, every join of two, the exact family of
    substitution equivalences and the thetas."""
    rng = random.Random(11)
    verdicts = set()
    for lat in (make_fig2(), make_boolean(4), make_Mn(8)):
        plain, corrupt = fresh(lat), fresh(lat)
        table = tuple(toggled(rng, row, lat.n, 2) for row in implies_table(lat))
        corrupt.memo("implies_table", lambda t=table: t)
        for work in (plain, corrupt):
            it = implies_table(work)
            thetas = []
            for d in all_deductive_systems(work).systems:
                if work is plain:
                    thetas.append(theta(work, d))
                ok = is_compatible_ds(work, d)
                if work is corrupt:
                    thetas.append(theta(work, d))
                assert thetas[-1] == brute_theta(work, it, d), (lat, d)
                assert ok == brute_is_compatible_ds(work, it, d), (lat, d)
                verdicts.add(ok)
            for rel in collapses(work) + [_pairs(rows) for rows in _substitution_family(work)] \
                    + thetas:
                sp = has_sp_implies(work, rel)
                assert sp == brute_has_sp_implies(work, rel, it), (lat, rel)
                verdicts.add(("sp", sp))
    assert verdicts == {True, False, ("sp", True), ("sp", False)}


DEDUCTION_CHECKS = (check_filters_vs_deductive_systems, check_deductive_family,
                    check_meet_congruence_kernels, check_substitution_equivalences,
                    check_compatible_kernel_recovery)


def test_deduction_results_do_not_depend_on_call_order():
    """theta, is_compatible_ds and the five deduction checks share the
    theta and verdict memos of a lattice; on fresh lattices, real and
    corrupted, the public calls before the checks in suite order agree
    with the checks in reverse order before the public calls."""
    rng = random.Random(13)

    def run(lat, steps):
        out = {}
        for step in steps:
            systems = all_deductive_systems(lat).systems
            if step == "theta":
                out[step] = [theta(lat, d) for d in systems]
            elif step == "compatible":
                out[step] = [is_compatible_ds(lat, d) for d in systems]
            else:
                out[step.__name__] = step(lat)
        return out

    forward = ("theta", "compatible") + DEDUCTION_CHECKS
    for lat in (make_N5(), make_Mn(4), make_boolean(3), make_fig2()):
        table = tuple(toggled(rng, row, lat.n, 2) for row in implies_table(lat))
        for corrupted in (False, True):
            runs = []
            for steps in (forward, forward[::-1]):
                work = fresh(lat)
                if corrupted:
                    work.memo("implies_table", lambda t=table: t)
                runs.append(run(work, steps))
            assert runs[0] == runs[1], (lat, corrupted)


def test_members_matches_a_bit_loop():
    rng = random.Random(17)
    masks = [0, 1, 255, 256, 65535, 65536]
    masks += [rng.getrandbits(rng.randint(1, 64)) for _ in range(3000)]
    for m in masks:
        assert members(m) == tuple(i for i in range(m.bit_length()) if m >> i & 1), m


def ids_of(lat, s):
    return type(s) is frozenset and all(type(x) is int and 0 <= x < lat.n for x in s)


def pairs_of(lat, rel):
    return type(rel) is frozenset and all(
        type(p) is tuple and len(p) == 2 and ids_of(lat, frozenset(p)) for p in rel)


@pytest.mark.parametrize("make", [make_N5, make_fig2])
def test_public_functions_return_frozensets(make):
    lat = make()
    a, b = 1, 2
    s, t = frozenset((a, lat.top)), frozenset((b,))
    for name, value in (
            ("plus", plus(lat, s)), ("double_plus", double_plus(lat, s)),
            ("complements", complements(lat, a)),
            ("implies", implies(lat, a, b)), ("odot", odot(lat, a, b)),
            ("implies_sets", implies_sets(lat, s, t)),
            ("odot_sets", odot_sets(lat, s, t)),
            ("implies_union", implies_union(lat, a, s)),
            ("set_join", set_join(lat, s, t)), ("set_meet", set_meet(lat, s, t)),
            ("singleton", singleton(a)),
            ("kernel", kernel(lat, theta(lat, s)))):
        assert name in latkit.__all__
        assert ids_of(lat, value), name
    assert pairs_of(lat, theta(lat, s))
    for group in (closed_sets(lat), closure_lattice(lat).closed,
                  all_deductive_systems(lat).systems, compatible_systems(lat),
                  [cell for which in ("implies", "odot")
                   for row in op_table(lat, which).entries for cell in row]):
        assert group and all(ids_of(lat, x) for x in group)
    if lat.n <= 10:
        rels = all_meet_congruences(lat)
        assert rels and all(pairs_of(lat, r) for r in rels)
        assert pairs_of(lat, find_meet_congruence_with_kernel(lat, lat.universe))


def test_public_relations_round_trip():
    m3 = make_Mn(3)
    for d in compatible_systems(m3):
        rel = theta(m3, d)
        assert kernel(m3, rel) == d
        assert has_sp_implies(m3, rel) and has_sp_plus(m3, rel)
    with pytest.raises(InvalidParameter):
        kernel(m3, frozenset({(0, m3.n)}))

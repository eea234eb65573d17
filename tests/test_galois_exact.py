"""check_galois_laws decides the laws exactly from the complement
relation and the family of all A+, on every table at every size. Its
reports are compared with the frozenset oracle reading the same
(corrupted) table."""

import random
from itertools import permutations

import pytest

from latkit import complementation
from latkit.complementation import check_galois_laws, complement_sets
from latkit.core import format_element_set
from latkit.corpus import default_corpus, enumerate_lattices, make_boolean, make_chain, make_fig2

from .oracles import brute_galois_report
from .test_complement import with_complement_table

SMALL = [lat for n in range(2, 6) for lat in enumerate_lattices(n)]


def corrupted_tables(lat, rng):
    """Three complement tables: a random symmetric irreflexive relation,
    the real relation with one loop, and the real relation with one
    cell flipped so it is no longer symmetric."""
    n = lat.n
    sym = [set() for _ in range(n)]
    for x in range(n):
        for y in range(x + 1, n):
            if rng.random() < 0.5:
                sym[x].add(y)
                sym[y].add(x)
    loop = [set(s) for s in complement_sets(lat)]
    x = rng.randrange(n)
    loop[x].add(x)
    asym = [set(s) for s in complement_sets(lat)]
    x, y = rng.sample(range(n), 2)
    asym[x] ^= {y}
    return {"symmetric": sym, "loop": loop, "asymmetric": asym}


@pytest.mark.parametrize("lat", SMALL + [make_fig2(), make_boolean(4)], ids=str)
@pytest.mark.parametrize("seed", (0, 1))
def test_corrupted_tables_match_oracle(lat, seed):
    for kind, table in corrupted_tables(lat, random.Random(seed)).items():
        rep = check_galois_laws(with_complement_table(lat, table), seed=seed)
        assert rep == brute_galois_report(lat, seed=seed, table=table), (kind, table)
        if kind == "symmetric":
            assert rep.ok, table


def test_asymmetric_boolean_witness():
    # B:4 with 0011 added to the complements of 0000 only: {0000}+ =
    # {0011, 1111}, whose plus is empty, so {0000}++ loses 0000 and
    # {0000}+++ is the carrier.
    b4 = make_boolean(4)
    table = [set(s) for s in complement_sets(b4)]
    table[b4.bottom].add(3)
    rep = check_galois_laws(with_complement_table(b4, table))
    assert rep.title == "galois laws (exhaustive)"
    assert [(r.name, r.witness) for r in rep.failures()] == [
        ("A contained in A++", "A={0000}"), ("A+++ equals A+", "A={0000}"),
        ("A within B+ iff B within A+", "A={0000} B={0011}")]


def test_oracle_reads_given_table():
    # The 2-chain with 0 its own complement: A+ meets A++ at A = ∅.
    chain = make_chain(2)
    table = [{0, 1}, {0}]
    rep = brute_galois_report(chain, table=table)
    assert rep.find("A+ disjoint from A++").witness == "A=∅"
    assert rep == check_galois_laws(with_complement_table(chain, table))
    assert brute_galois_report(chain).ok


def test_default_corpus_decided_without_sampling():
    assert not hasattr(complementation, "random")
    for entry in default_corpus():
        rep = check_galois_laws(entry.lattice)
        assert rep.title == "galois laws (exhaustive)", entry.lattice
        assert rep.ok and all(r.witness is None for r in rep.results), entry.lattice


@pytest.mark.parametrize("lat", [make_boolean(4), make_fig2()], ids=str)
def test_every_one_cell_flip_fails(lat):
    """Flipping y in the complements of x makes the relation asymmetric
    at (x, y) only: A within A++ fails at {x} when y was added and at {y}
    when it was removed, and the pair law at the singletons of the lesser
    and the greater of x and y."""
    one = lambda x: format_element_set(lat, (x,))
    for x, y in permutations(lat.elements, 2):
        table = [set(s) for s in complement_sets(lat)]
        table[x] ^= {y}
        rep = check_galois_laws(with_complement_table(lat, table))
        lo, hi = sorted((x, y))
        assert rep.find("A contained in A++").witness == \
            f"A={one(x if y in table[x] else y)}", (x, y)
        assert rep.find("A within B+ iff B within A+").witness == \
            f"A={one(lo)} B={one(hi)}", (x, y)


def test_arbitrary_tables_match_oracle():
    """Tables with every cell drawn at random, at four densities, on
    every lattice with 2 to 6 elements: the reports equal the exhaustive
    oracle's, and every law that can fail does so somewhere."""
    rng = random.Random(0)
    failed = set()
    for lat in (lat for n in range(2, 7) for lat in enumerate_lattices(n)):
        for density in (0.1, 0.3, 0.5, 0.8):
            table = [{y for y in lat.elements if rng.random() < density}
                     for _ in lat.elements]
            rep = check_galois_laws(with_complement_table(lat, table))
            assert rep == brute_galois_report(lat, table=table), (lat, table)
            failed |= {r.name for r in rep.failures()}
    assert failed == {"A contained in A++", "A+++ equals A+", "A+ disjoint from A++",
                      "A within B+ iff B within A+"}

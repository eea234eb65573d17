"""check_galois_laws decides the laws from the complement relation: a
symmetric, irreflexive table passes without a search, and any other
table falls back to the search. Both paths are compared with the
frozenset oracle reading the same (corrupted) table."""

import random

import pytest

from latkit.complementation import check_galois_laws, complement_sets
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
    # B:4 with 0011 added to the complements of 0000 only: for
    # A = {0000, 1100}, A+ = {0011} and A++ = {1100} loses 0000.
    b4 = make_boolean(4)
    table = [set(s) for s in complement_sets(b4)]
    table[b4.bottom].add(3)
    rep = check_galois_laws(with_complement_table(b4, table))
    assert rep.title == "galois laws (10000 sampled pairs)"
    assert [(r.name, r.witness) for r in rep.failures()] == \
        [("A contained in A++", "A={0000,1100}")]


def test_oracle_reads_given_table():
    # The 2-chain with 0 its own complement: A+ meets A++ at A = ∅.
    chain = make_chain(2)
    table = [{0, 1}, {0}]
    rep = brute_galois_report(chain, table=table)
    assert rep.find("A+ disjoint from A++").witness == "A=∅"
    assert rep == check_galois_laws(with_complement_table(chain, table))
    assert brute_galois_report(chain).ok


def test_default_corpus_decided_without_sampling(monkeypatch):
    corpus = default_corpus()

    def no_sampling(*args, **kwargs):
        raise AssertionError("check_galois_laws drew random samples")

    monkeypatch.setattr("latkit.complementation.random.Random", no_sampling)
    for entry in corpus:
        rep = check_galois_laws(entry.lattice)
        assert rep.ok and all(r.witness is None for r in rep.results), entry.lattice

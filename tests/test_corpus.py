import itertools
import tracemalloc

import pytest

from latkit.complementation import complements, satisfies_dblplus_identity
from latkit.core import (is_complemented, is_distributive, is_isomorphic,
                         is_modular)
from latkit.corpus import (CorpusEntry, default_corpus, direct_product,
                           enumerate_lattices, make_boolean, make_chain,
                           make_fig2, make_M3, make_Mn, make_N5, named_lattice,
                           tags_of)
from latkit.errors import InvalidParameter, SizeCapExceeded, TrivialLattice

from .oracles import matrix_key_of, naive_lattice_keys


def test_construction_errors():
    with pytest.raises(InvalidParameter):
        make_chain(0)
    with pytest.raises(TrivialLattice):
        make_chain(1)
    with pytest.raises(InvalidParameter):
        make_Mn(1)
    with pytest.raises(InvalidParameter):
        make_boolean(0)
    with pytest.raises(SizeCapExceeded):
        make_boolean(7)
    with pytest.raises(SizeCapExceeded):
        make_chain(65)


@pytest.mark.parametrize("build", [enumerate_lattices, make_chain, make_boolean, make_Mn])
def test_sizes_that_are_not_ints_are_refused(build):
    with pytest.raises(InvalidParameter):
        build(2.5)


def test_boolean_exponent_is_capped_before_the_shift():
    """B:6 has 64 elements, the cap. For B:100000000 the exponent is
    compared with the cap before anything is built: 1 << k alone would
    take 12.5 MB."""
    assert make_boolean(6).n == 64
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapExceeded,
                           match=r"^2\^100000000 elements exceed the 64 element cap$"):
            named_lattice("B:100000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_diamond_complements():
    for n in (2, 3, 5):
        lat = make_Mn(n)
        atoms = [x for x in lat.elements if x not in (lat.bottom, lat.top)]
        for a in atoms:
            assert complements(lat, a) == frozenset(atoms) - {a}


def test_boolean_unique_complements():
    b3 = make_boolean(3)
    for x in b3.elements:
        assert len(complements(b3, x)) == 1
    assert satisfies_dblplus_identity(b3)


def test_fig2_anchors(fig2):
    assert fig2.n == 12
    assert len(fig2.covers()) == 22
    assert complements(fig2, fig2.id_of("g")) == \
        frozenset(fig2.id_of(x) for x in "bcd")
    assert is_complemented(fig2) and is_modular(fig2)


def test_products():
    assert is_isomorphic(direct_product(make_chain(2), make_chain(2)),
                         make_boolean(2))
    assert is_isomorphic(direct_product(make_Mn(4), make_chain(2)),
                         make_fig2())
    with pytest.raises(SizeCapExceeded):
        direct_product(make_boolean(4), make_boolean(3))


def test_product_order_is_componentwise():
    prod = direct_product(make_chain(3), make_chain(2))
    assert prod.n == 6
    for i in range(3):
        for j in range(2):
            for k in range(3):
                for m in range(2):
                    a = prod.id_of(f"{make_chain(3).label(i)}.{make_chain(2).label(j)}")
                    b = prod.id_of(f"{make_chain(3).label(k)}.{make_chain(2).label(m)}")
                    assert prod.leq(a, b) == (i <= k and j <= m)


def test_enumeration_counts():
    expected = {2: 1, 3: 1, 4: 2, 5: 5, 6: 15, 7: 53}
    for n, count in expected.items():
        assert len(enumerate_lattices(n)) == count
    assert enumerate_lattices(1) == []


def test_enumeration_limits():
    with pytest.raises(SizeCapExceeded):
        enumerate_lattices(11)
    with pytest.raises(InvalidParameter):
        enumerate_lattices(0)
    with pytest.raises(InvalidParameter):
        enumerate_lattices(4, frozenset(("shiny",)))


def test_enumeration_filters():
    comp5 = enumerate_lattices(5, frozenset(("complemented",)))
    assert len(comp5) == 2
    kinds = {is_modular(lat) for lat in comp5}
    assert kinds == {True, False}
    for lat in comp5:
        target = make_M3() if is_modular(lat) else make_N5()
        assert is_isomorphic(lat, target)
    dist = enumerate_lattices(4, frozenset(("distributive",)))
    assert len(dist) == 2


def test_enumeration_no_isomorphic_pair():
    lats = enumerate_lattices(6)
    for a, b in itertools.combinations(lats, 2):
        assert not is_isomorphic(a, b)


def test_enumerator_agrees_with_naive_oracle():
    for n in range(2, 6):
        fast = {matrix_key_of(lat) for lat in enumerate_lattices(n)}
        assert fast == naive_lattice_keys(n), n


def test_named_lattice_forms():
    assert named_lattice("N5").name == "N5"
    assert named_lattice("m3").n == 5
    assert named_lattice("FIG2").n == 12
    assert named_lattice("M:4").n == 6
    assert named_lattice("B:3").n == 8
    assert named_lattice("chain:4").n == 4
    for bad in ("", "Q7", "M:", "M:x", "B:0", "chain:1", "M4"):
        with pytest.raises((InvalidParameter, TrivialLattice)):
            named_lattice(bad)


def test_default_corpus_shape(corpus):
    names = [e.name for e in corpus]
    assert len(names) == len(set(names))
    for want in ("N5", "M3", "fig2", "M:4", "M:5", "M:6", "B:3", "B:4"):
        assert want in names
    for entry in corpus:
        assert isinstance(entry, CorpusEntry)
        assert entry.tags == tags_of(entry.lattice)
        assert ("complemented" in entry.tags) == is_complemented(entry.lattice)
        assert ("modular" in entry.tags) == is_modular(entry.lattice)
        assert ("distributive" in entry.tags) == is_distributive(entry.lattice)
        assert ("dblplus_identity" in entry.tags) == \
            satisfies_dblplus_identity(entry.lattice)


def test_default_corpus_deduplicated(corpus):
    for a, b in itertools.combinations(corpus, 2):
        assert not is_isomorphic(a.lattice, b.lattice), (a.name, b.name)


def test_default_corpus_covers_small_complemented(corpus):
    for n in range(2, 7):
        for lat in enumerate_lattices(n, frozenset(("complemented",))):
            assert any(is_isomorphic(lat, e.lattice) for e in corpus)

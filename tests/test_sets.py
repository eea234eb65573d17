from hypothesis import given, settings
from hypothesis import strategies as st

from latkit.corpus import make_boolean, make_fig2, make_M3, make_N5
from latkit.setops import set_join, set_le, set_le1, set_le2, set_meet, singleton

from .oracles import is_singleton_of

POOL = [make_N5(), make_M3(), make_boolean(3), make_fig2()]


def subsets_of(lat, data, k):
    out = []
    for _ in range(k):
        mask = data.draw(st.integers(0, (1 << lat.n) - 1))
        out.append(frozenset(i for i in lat.elements if mask >> i & 1))
    return out


def test_pointwise_operations(n5):
    a, b, c = (n5.id_of(x) for x in "abc")
    ab = frozenset((a, b))
    assert set_join(n5, ab, singleton(c)) == frozenset((c, n5.top))
    assert set_meet(n5, ab, singleton(c)) == frozenset((a, n5.bottom))
    assert set_join(n5, frozenset(), ab) == frozenset()
    assert set_meet(n5, ab, frozenset()) == frozenset()


def test_set_relations(n5):
    a, b, c = (n5.id_of(x) for x in "abc")
    assert set_le(n5, frozenset((n5.bottom, a)), frozenset((c, n5.top)))
    assert not set_le(n5, frozenset((a, b)), frozenset((c,)))
    assert set_le1(n5, frozenset((a, b)), frozenset((c, n5.top)))
    assert set_le2(n5, frozenset((n5.bottom,)), frozenset((a, b)))
    assert not set_le2(n5, frozenset((a,)), frozenset((a, b)))


def test_empty_conventions(n5):
    some = frozenset((n5.id_of("a"),))
    # set_le is vacuously true when either side is empty
    assert set_le(n5, frozenset(), some)
    assert set_le(n5, some, frozenset())
    assert set_le(n5, frozenset(), frozenset())
    # set_le1 fails only when A is nonempty and B empty
    assert set_le1(n5, frozenset(), some)
    assert set_le1(n5, frozenset(), frozenset())
    assert not set_le1(n5, some, frozenset())
    # set_le2 is the mirror image
    assert set_le2(n5, some, frozenset())
    assert set_le2(n5, frozenset(), frozenset())
    assert not set_le2(n5, frozenset(), some)


def test_singleton_helpers(n5):
    a = n5.id_of("a")
    assert singleton(a) == frozenset((a,))
    assert is_singleton_of(frozenset((a,)), a)
    assert not is_singleton_of(frozenset((a, n5.top)), a)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_nonempty_le_implies_both_weak_orders(data):
    lat = data.draw(st.sampled_from(POOL))
    a, b = subsets_of(lat, data, 2)
    if a and b and set_le(lat, a, b):
        assert set_le1(lat, a, b)
        assert set_le2(lat, a, b)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_join_meet_monotone_in_arguments(data):
    lat = data.draw(st.sampled_from(POOL))
    a, b = subsets_of(lat, data, 2)
    joined = set_join(lat, a, b)
    met = set_meet(lat, a, b)
    if a and b:
        assert len(joined) <= len(a) * len(b)
    else:
        assert joined == frozenset() and met == frozenset()
    for x in a:
        for y in b:
            assert lat.join(x, y) in joined
            assert lat.meet(x, y) in met

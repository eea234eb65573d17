"""The one routine kept for each job, against independent references in
tests/oracles.py: the `inclusion covers:` line and the deductive-system
join table against a frozenset scan, and the meet congruences against a
scan of every partition up to seven elements and against pinned digests
on four larger lattices."""

import hashlib

import pytest

from latkit.cli import main
from latkit.core import load_lattice_file
from latkit.corpus import enumerate_lattices, make_Mn, named_lattice
from latkit.deduction import all_deductive_systems, all_meet_congruences

from .oracles import brute_inclusion_covers, brute_meet_congruences, is_meet_congruence


def lattice_text(name: str, lat) -> str:
    covers = " ".join(f"{lat.labels[i]}<{lat.labels[j]}" for i, j in lat.covers())
    return f"lattice {name}\nelements: {' '.join(lat.labels)}\ncovers: {covers}\n"


def test_inclusion_covers_and_join_table(capsys, tmp_path, corpus):
    lats = [(e.name, e.lattice) for e in corpus]
    lats += [(f"M:{k}", make_Mn(k)) for k in range(2, 9)]
    path = tmp_path / "lattice.txt"
    for name, lat in lats:
        path.write_text(lattice_text(name, lat), encoding="utf-8")
        assert main(["deductive-systems", "--file", str(path), "--lattice-of"]) == 0
        line = next(x for x in capsys.readouterr().out.splitlines()
                    if x.startswith("inclusion covers:"))
        dsl = all_deductive_systems(load_lattice_file(str(path)))
        covers = brute_inclusion_covers(dsl.systems)
        assert line == "inclusion covers: " + (
            "; ".join(f"S{i} < S{j}" for i, j in covers) or "none"), name

        # up[i]: the positions the covers reach from i. Systems come in
        # size order, so every cover (i, j) has i < j.
        k = len(dsl.systems)
        up = [1 << i for i in range(k)]
        for i, j in reversed(covers):
            up[i] |= up[j]
        for i in range(k):
            for j in range(k):
                common, join = up[i] & up[j], dsl.join_table[i][j]
                assert common >> join & 1 and not common & ~up[join], (name, i, j)


def test_meet_congruences_match_the_partition_scan_up_to_seven():
    count = 0
    for n in range(2, 8):
        for lat in enumerate_lattices(n):
            got = all_meet_congruences(lat)
            assert len(got) == len(set(got))
            assert set(got) == brute_meet_congruences(lat), lat.labels
            count += 1
    assert count == 77


# (count, sha256 over one line per congruence, repr of its sorted pairs, in
# the order all_meet_congruences(lat, 16) gives), recorded from a pruned
# partition walk, an enumeration independent of the intersection closure.
MEET_CONGRUENCE_SHA256 = {
    "fig2": (503, "0a694e869ce4ed516472ff1f4502d648003e5253a45303009335f769ec3440e4"),
    "M:8": (265, "67c9a6e8ffc121f5cdf06f35217c972e141a8a404ee780283e8d491c85c5f0a1"),
    "M:10": (1035, "c53581d925a55cdb378f9f2de63447abe2738f5a589af31e3027c7190b858cd4"),
    "B:4": (2480, "14749e6cc9e8a964f958084b71f976bb6fbdd43f0e45249975b1def191b0c4ac"),
}


@pytest.mark.parametrize("name", sorted(MEET_CONGRUENCE_SHA256))
def test_meet_congruence_digest_above_seven(name):
    lat = named_lattice(name)
    got = all_meet_congruences(lat, 16)
    digest = hashlib.sha256()
    for rel in got:
        digest.update(repr(sorted(rel)).encode() + b"\n")
    assert (len(got), digest.hexdigest()) == MEET_CONGRUENCE_SHA256[name]
    assert len(set(got)) == len(got)
    assert all(is_meet_congruence(lat, rel) for rel in got)

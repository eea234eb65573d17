"""Pinned reports: the digests of `verify` outputs, among them `verify
--format json` on the default corpus, and the witnesses that law checks
give on corrupted tables."""

import hashlib
import json
import random

import pytest

from latkit.cli import _report_json, main
from latkit.complementation import complement_sets
from latkit.connectives import (check_conjunction_laws, check_implication_laws,
                                check_modus_laws, implies_table, odot_table)
from latkit.core import Lattice
from latkit.corpus import default_corpus, make_fig2, make_N5
from latkit.deduction import (check_filters_vs_deductive_systems,
                              check_substitution_equivalences)
from latkit.suite import lattice_suite

from .strategies import SMALL, corrupted, fresh, place

VERIFY_JSON_SHA256 = "2b42af97c3efa374bf6aef12799fe6de17a2705a0d1c61308b7458954f26d11a"

# sha256 of the standard output of five more verify runs: the
# complemented lattices up to 7 elements, the largest diamond of the
# builtins, the text report of the default corpus, and B:4 and fig2, the
# default-corpus lattices over the partition cap, with the cap raised so
# their kernel check runs (they have 2,480 and 503 meet congruences).
VERIFY_OUTPUT_SHA256 = {
    "verify --corpus 7 --seed 3 --format json":
        "2bd5a279ccb0bd2bfde841288e167d596d5eb13b6e2aef472788c490ed0495b2",
    "verify --lattice B:4 --max-partitions 16 --format json":
        "c63d318b60d762d41ba373234f02a1978cffc07e9c7108bfcd7da98ad041fe77",
    "verify --lattice fig2 --max-partitions 16 --format json":
        "2067091f8cd10eb0277558de90fcbd02ffbd5ec4f8655b49ad5032ffc2a28860",
    "verify --lattice M:8 --format json":
        "f6fabdc3413c49b6e9ed86e136ad04624d2fb3a5e9a03b83025bd394ca15b435",
    "verify --seed 0":
        "4ab8579e15efb05c5c596e77e22b27754c380f01720246400cc0d374070a6243",
}

# sha256 of the JSON form of lattice_suite over the default corpus and
# every lattice with at most 6 elements, each with its real tables and
# with one membership flipped or one entry emptied in implies_table,
# odot_table or complement_sets (273 runs, 706 failing reports).
CORRUPTED_SUITE_SHA256 = "e28da5e9705651a664805fb840546ae806401ee3f7825e9c9e9eb6087930c1ed"


# Equivalences with the implication substitution property on each
# default-corpus lattice, all of them, at every size.
SUBSTITUTION_COUNTS = {"N5": 4, "M3": 1, "fig2": 2, "M:2": 4, "M:4": 1, "M:5": 1, "M:6": 1,
                       "B:1": 2, "B:3": 8, "B:4": 16, "enum6.0": 4, "enum6.1": 4,
                       "enum6.2": 4, "enum6.3": 1, "enum6.4": 2}


def test_default_corpus_substitution_reports_are_exhaustive():
    for e in default_corpus():
        rep = check_substitution_equivalences(e.lattice)
        assert rep.title == "substitution equivalences (exhaustive)", e.name
        assert rep.results[-1].name == \
            f"surveyed {SUBSTITUTION_COUNTS[e.name]} substitution equivalences", e.name
        assert rep.ok and all(r.asserted for r in rep.results[:-1]), e.name


def test_verify_json_digest(capsys):
    code = main(["verify", "--format", "json", "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == VERIFY_JSON_SHA256


@pytest.mark.parametrize("command", sorted(VERIFY_OUTPUT_SHA256))
def test_verify_output_digests(capsys, command):
    code = main(command.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == VERIFY_OUTPUT_SHA256[command]


def with_corrupted_tables(lat):
    """A fresh copy of lat whose memo holds an implication table with
    1->a = {1} and a conjunction table with a(.)a = {0}, a the element 1."""
    it = [list(row) for row in implies_table(lat)]
    ot = [list(row) for row in odot_table(lat)]
    it[lat.top][1] = frozenset((lat.top,))
    ot[1][1] = frozenset((lat.bottom,))
    out = Lattice(lat.labels, [lat.up_mask(i) for i in lat.elements], name=lat.name)
    place(out, "implies_table", it)
    place(out, "odot_table", ot)
    return out


def test_connective_witnesses_on_corrupted_tables():
    n5 = with_corrupted_tables(make_N5())
    rep = check_modus_laws(n5)
    assert rep.find("modus ponens: a ^ (a->b) = {a^b}").witness == "a=c b=a got=c"
    rep = check_conjunction_laws(n5)
    bad = rep.find("a^b below a(.)b below b; b below a collapses to {b}")
    assert not rep.ok and bad.witness == "a=a b=a got=0"
    fig2 = with_corrupted_tables(make_fig2())
    rep = check_implication_laws(fig2)
    bad = rep.find("b below c makes a->b below a->c (both set orders)")
    assert not rep.ok and not bad.passed and bad.witness == "a=1 b=a c=f"


def test_deduction_witnesses_on_corrupted_tables():
    n5 = with_corrupted_tables(make_N5())
    rep = check_substitution_equivalences(n5)
    bad = rep.find("kernel a deductive system")
    assert not rep.ok and bad.witness == "kernel=1"
    fig2 = with_corrupted_tables(make_fig2())
    rep = check_filters_vs_deductive_systems(fig2)
    bad = rep.find("every filter a deductive system")
    assert not rep.ok and bad.witness == "F=1"


def suite_variants(lat, rng):
    """lat with its real tables, then with one cell of implies_table,
    odot_table or complement_sets flipped or emptied, each placed in the
    memo of a fresh copy before first use."""
    yield "real", fresh(lat)
    for key, table in (("implies_table", implies_table(lat)),
                       ("odot_table", odot_table(lat)),
                       ("complement_sets", (complement_sets(lat),))):
        for how in ("flip", "empty"):
            a, b, x = (rng.randrange(lat.n) for _ in range(3))
            if key == "complement_sets":
                bad = corrupted(table, how, 0, a, x)[0]
            else:
                bad = corrupted(table, how, a, b, x)
            work = fresh(lat)
            place(work, key, bad)
            yield f"{key} {how}", work


def test_corrupted_suite_digest():
    lats = [e.lattice for e in default_corpus()] + list(SMALL)
    runs = []
    for i, lat in enumerate(lats):
        for tag, work in suite_variants(lat, random.Random(i)):
            runs.append([lat.name, tag, _report_json(lattice_suite(work))])
    out = json.dumps(runs, ensure_ascii=False)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CORRUPTED_SUITE_SHA256

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

from .strategies import SMALL, corrupted, fresh

VERIFY_JSON_SHA256 = "d4d759b2b5a2062003525a51750e2e859a4c91bd6bc2faa598cd4b1b2f16093a"

# sha256 of the standard output of three more verify runs: the
# complemented lattices up to 7 elements, the largest diamond of the
# builtins, and the text report of the default corpus.
VERIFY_OUTPUT_SHA256 = {
    "verify --corpus 7 --seed 3 --format json":
        "46a61c2f9f68c3e0539c12d16433146e12413ad6ba2fcd0b73a427b9611d5816",
    "verify --lattice M:8 --format json":
        "0b242b44a4e43f3368d51a7041b52d7c81843b366fc32907290442351a1b6d37",
    "verify --seed 0":
        "4ab8579e15efb05c5c596e77e22b27754c380f01720246400cc0d374070a6243",
}

# sha256 of the JSON form of lattice_suite over the default corpus and
# every lattice with at most 6 elements, each with its real tables and
# with one membership flipped or one entry emptied in implies_table,
# odot_table or complement_sets (273 runs, 705 failing reports).
CORRUPTED_SUITE_SHA256 = "48efcf771bd0ec6e7b3e7b190945fb3a277fc2120cd684fc054f18cfdad1ee49"


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
    out.memo("implies_table", lambda: tuple(tuple(r) for r in it))
    out.memo("odot_table", lambda: tuple(tuple(r) for r in ot))
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
            work.memo(key, lambda t=bad: t)
            yield f"{key} {how}", work


def test_corrupted_suite_digest():
    lats = [e.lattice for e in default_corpus()] + list(SMALL)
    runs = []
    for i, lat in enumerate(lats):
        for tag, work in suite_variants(lat, random.Random(i)):
            runs.append([lat.name, tag, _report_json(lattice_suite(work))])
    out = json.dumps(runs, ensure_ascii=False)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CORRUPTED_SUITE_SHA256

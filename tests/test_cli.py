import json
import time

import pytest

from latkit.cli import _verify_text, main
from latkit.report import CheckResult, PropertyReport

N5_PLUS_TABLE = """\
x   | 0 | a  | b  | c  | 1
x⁺  | 1 | b  | ac | b  | 0
x⁺⁺ | 0 | ac | b  | ac | 1
"""

M3_PLUS_TABLE = """\
x   | 0 | a  | b  | c  | 1
x⁺  | 1 | bc | ac | ab | 0
x⁺⁺ | 0 | a  | b  | c  | 1
"""

FIG2_PLUS_TABLE = """\
x   | 0 | a   | b   | c   | d   | e | f | g   | h   | i   | j   | 1
x⁺  | 1 | hij | gij | ghj | ghi | f | e | bcd | acd | abd | abc | 0
x⁺⁺ | 0 | a   | b   | c   | d   | e | f | g   | h   | i   | j   | 1
"""

N5_ODOT_TABLE = """\
⊙ | 0 | a | b | c | 1
0 | 0 | 0 | 0 | 0 | 0
a | 0 | a | 0 | c | a
b | 0 | 0 | b | 0 | b
c | 0 | a | 0 | c | c
1 | 0 | a | b | c | 1
"""

M3_ODOT_TABLE = """\
⊙ | 0 | a  | b  | c  | 1
0 | 0 | 0  | 0  | 0  | 0
a | 0 | a  | 0b | 0c | a
b | 0 | 0a | b  | 0c | b
c | 0 | 0a | 0b | c  | c
1 | 0 | a  | b  | c  | 1
"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_info_pentagon(capsys):
    code, out, _ = run(capsys, "info", "--lattice", "N5")
    assert code == 0
    assert "5 elements" in out
    assert "complemented, non-modular" in out


def test_info_twelve(capsys):
    code, out, _ = run(capsys, "info", "--lattice", "fig2")
    assert code == 0
    assert "complemented, modular" in out
    assert "x⁺⁺≈x" in out


def test_info_chain(capsys):
    code, out, _ = run(capsys, "info", "--lattice", "chain:3")
    assert code == 0
    assert "not complemented" in out


def test_info_json(capsys):
    code, out, _ = run(capsys, "info", "--lattice", "M:4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["elements"] == 6 and doc["covers"] == 8
    assert doc["complemented"] and doc["modular"] and not doc["distributive"]


def test_plus_tables(capsys):
    for name, want in (("N5", N5_PLUS_TABLE), ("M3", M3_PLUS_TABLE),
                       ("fig2", FIG2_PLUS_TABLE)):
        code, out, _ = run(capsys, "plus-table", "--lattice", name)
        assert code == 0
        assert out == want


def test_odot_tables(capsys):
    for name, want in (("N5", N5_ODOT_TABLE), ("M3", M3_ODOT_TABLE)):
        code, out, _ = run(capsys, "op-table", "--lattice", name, "--op", "odot")
        assert code == 0
        assert out == want


def test_implies_table_diamond(capsys):
    code, out, _ = run(capsys, "op-table", "--lattice", "M:3",
                       "--op", "implies")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split(" | ")[0].strip() == "→"
    assert "{a2,a3}" in lines[2]
    row_top = lines[5].split(" | ")
    assert [c.strip() for c in row_top[1:]] == \
        ["{0}", "{a1}", "{a2}", "{a3}", "{1}"]


def test_op_table_json(capsys):
    code, out, _ = run(capsys, "op-table", "--lattice", "N5", "--op",
                       "implies", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["op"] == "implies"
    assert doc["elements"] == ["0", "a", "b", "c", "1"]
    # row c, column a: the pinned non-theorem value {1}
    assert doc["cells"][3][1] == ["1"]


def test_verify_single_lattice(capsys):
    code, out, _ = run(capsys, "verify", "--lattice", "fig2")
    assert code == 0
    assert "all asserted checks passed" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--lattice", "N5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["lattices"][0]["name"] == "N5"
    checks = [c for rep in doc["lattices"][0]["reports"]
              for c in rep["checks"]]
    assert checks and all(set(c) == {"name", "passed", "asserted", "witness"}
                          for c in checks)
    assert all(c["passed"] for c in checks if c["asserted"])


def test_verify_chain_skips_its_substitution_family(capsys):
    """A chain has many substitution equivalences (chain:10 has 94,829),
    so on chain:16 the check stops past its cap at once and reports one
    skipped entry."""
    start = time.perf_counter()
    code, out, _ = run(capsys, "verify", "--lattice", "chain:16", "--format", "json")
    assert code == 0 and time.perf_counter() - start < 1
    reports = json.loads(out)["lattices"][0]["reports"]
    rep = next(r for r in reports if r["title"].startswith("substitution equivalences"))
    assert rep == {"title": "substitution equivalences (exhaustive)", "checks": [
        {"name": "skipped", "passed": True, "asserted": False,
         "witness": "more than 1000 substitution equivalences"}]}


def test_verify_corpus_sweep(capsys):
    code, out, _ = run(capsys, "verify", "--corpus", "5")
    assert code == 0
    assert "all asserted checks passed" in out


def test_verify_corpus_cap(capsys):
    code, _, err = run(capsys, "verify", "--corpus", "9")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    ["--corpus", "0"], ["--corpus", "1"], ["--corpus", "-3"],
    ["--lattice", "N5", "--max-subsets", "0"],
    ["--lattice", "N5", "--max-subsets", "-1"],
    ["--max-partitions", "0"], ["--corpus", "4", "--max-partitions", "-2"],
])
def test_verify_rejects_vacuous_runs(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and "error:" in err
    assert "passed" not in out


def test_verify_reports_failures(capsys, monkeypatch):
    import latkit.cli as climod
    bad = PropertyReport("doctored", (CheckResult("always wrong", False,
                                                  "w", True),))
    monkeypatch.setattr(climod, "lattice_suite",
                        lambda *a, **k: [bad])
    code, out, _ = run(capsys, "verify", "--lattice", "N5")
    assert code == 1
    assert "FAIL" in out and "always wrong" in out


def test_verify_text_rendering():
    good = PropertyReport("fine", (CheckResult("yes", True),))
    bad = PropertyReport("broken", (CheckResult("no", False, "why", True),))
    text, ok = _verify_text([("L", [good, bad])])
    assert not ok
    assert "broken: no [why]" in text


def test_max_elements_gate(capsys):
    code, _, err = run(capsys, "verify", "--lattice", "B:4",
                       "--max-elements", "10")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("argv, first", [
    (["--max-elements", "5"], "fig2 has 12"),
    (["--corpus", "6", "--max-elements", "5"], "enum6.0 has 6"),
])
def test_max_elements_caps_every_swept_lattice(capsys, argv, first):
    """A sweep stops with exit code 2 at its first lattice over the cap;
    a cap that every lattice meets changes nothing."""
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and f"error: lattice {first} elements, over the cap 5" in err
    assert "passed" not in out
    code, out, _ = run(capsys, "verify", "--corpus", "5", "--max-elements", "5")
    assert code == 0 and out == run(capsys, "verify", "--corpus", "5")[1]


def test_deductive_systems_listing(capsys):
    code, out, _ = run(capsys, "deductive-systems", "--lattice", "M:3")
    assert code == 0
    assert "8 deductive systems" in out
    assert "boolean with 3 atoms: yes" in out
    code, out, _ = run(capsys, "deductive-systems", "--lattice", "N5")
    assert code == 0
    assert "4 deductive systems" in out
    assert "{1}" in out and "{b,1}" in out and "{a,c,1}" in out
    code, out, _ = run(capsys, "deductive-systems", "--lattice", "chain:2")
    assert code == 0
    assert "{1}" in out and "{0,1}" in out


def test_deductive_systems_order(capsys):
    code, out, _ = run(capsys, "deductive-systems", "--lattice", "M:2",
                       "--lattice-of")
    assert code == 0
    assert "inclusion covers:" in out
    code, out, _ = run(capsys, "deductive-systems", "--lattice", "M:3",
                       "--format", "json")
    doc = json.loads(out)
    assert doc["boolean_2n"] is True
    assert len(doc["systems"]) == 8
    assert sum(1 for s in doc["systems"] if s["compatible"]) >= 1


def test_export_dot(capsys, tmp_path):
    code, out, _ = run(capsys, "export-dot", "--lattice", "N5")
    assert code == 0
    assert out.count("label=") == 5 and out.count(" -> ") == 5
    code, out, _ = run(capsys, "export-dot", "--lattice", "M:4")
    assert out.count("label=") == 6 and out.count(" -> ") == 8
    target = tmp_path / "fig2.dot"
    code, out, _ = run(capsys, "export-dot", "--lattice", "fig2",
                       "-o", str(target))
    assert code == 0 and out == ""
    text = target.read_text(encoding="utf-8")
    assert text.count(" -> ") == 22 and text.startswith("digraph")


def test_file_source_roundtrip(capsys, tmp_path):
    src = tmp_path / "pent.lat"
    src.write_text("lattice pent\nelements: 0 a b c 1\n"
                   "covers: 0<a a<c c<1 0<b b<1\n", encoding="utf-8")
    code, out, _ = run(capsys, "info", "--file", str(src))
    assert code == 0
    assert "complemented, non-modular" in out


def test_input_errors(capsys, tmp_path):
    code, _, err = run(capsys, "info", "--lattice", "nope")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "info", "--file", str(tmp_path / "missing.lat"))
    assert code == 2 and "error:" in err
    bad = tmp_path / "bad.lat"
    bad.write_text("lattice x\nelements: a\ncovers: a<z\n", encoding="utf-8")
    code, _, err = run(capsys, "info", "--file", str(bad))
    assert code == 2 and "line 3" in err


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as err:
        main(["op-table", "--lattice", "N5"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["info", "--lattice", "N5", "--file", "x"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["info"])
    assert err.value.code == 2


def test_output_file_writing(capsys, tmp_path):
    target = tmp_path / "table.txt"
    code, out, _ = run(capsys, "plus-table", "--lattice", "N5",
                       "-o", str(target))
    assert code == 0 and out == ""
    assert target.read_text(encoding="utf-8") == N5_PLUS_TABLE

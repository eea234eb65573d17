"""The shared counterexample search, id checks at the public boundary, and
how skipped checks are counted."""

import os
import subprocess
import sys
from itertools import product

import pytest

import latkit
from latkit.cli import main
from latkit.complementation import complements
from latkit.connectives import implies, odot
from latkit.core import labelled
from latkit.corpus import make_N5
from latkit.errors import InvalidParameter
from latkit.report import CheckResult, law


def test_law_reports_first_counterexample(n5):
    ab = labelled(n5, "ab")
    seen = []

    def pred(a, b):
        seen.append((a, b))
        return a + b < 5

    res = law("sum below 5", pred, product(n5.elements, repeat=2), False, ab)
    assert res == CheckResult("sum below 5", False, "a=a b=1", False)
    assert seen[-1] == (1, 4) and len(seen) == 10
    assert law("true", lambda a: True, product(n5.elements), True, ab) == \
        CheckResult("true", True, None, True)


@pytest.mark.parametrize("bad", [-1, 5])
def test_foreign_ids_rejected(bad):
    n5 = make_N5()
    with pytest.raises(InvalidParameter):
        complements(n5, bad)
    for op in (implies, odot):
        with pytest.raises(InvalidParameter):
            op(n5, bad, 0)
        with pytest.raises(InvalidParameter):
            op(n5, 0, bad)


def test_verify_text_counts_skips(capsys):
    code = main(["verify", "--lattice", "B:4", "--max-subsets", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == \
        "ok   B:4: 61 checks, 0 failures, 9 informational, 4 skipped"
    main(["verify", "--lattice", "N5"])
    assert capsys.readouterr().out.splitlines()[0] == \
        "ok   N5: 72 checks, 0 failures, 27 informational"


def test_cli_import_starts_no_thread_pool():
    src = os.path.dirname(os.path.dirname(os.path.abspath(latkit.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, latkit.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "False"

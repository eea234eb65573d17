"""Self-test of the benchmark's own guards.

    PYTHONPATH=src python3 bench/selftest.py

Checks that the tracer refuses a lattice shared by two timed calls, that
the layer probe times the suite checks on lattices identical to the one
lattice_suite sees and notices a check list that drifts from the
suite's, and that every workload's output check can fail, including on
a vacuous verify run with no lattices. Exits 0 when every guard holds.
"""

from __future__ import annotations

import sys

import probe
from latkit import is_modular, make_M3, make_N5
from probe import Probe, SharedLattice, Tracer, signature, suite_input
from workloads import (A006966, Enumerate8, SingleLattice, VerifyDefault,
                       call_cli, load_expected)


def test_shared_lattice_refused():
    tracer = Tracer()
    lat = make_N5()
    tracer.timed("core.predicates", lat, is_modular)
    try:
        tracer.timed("core.predicates", lat, is_modular)
    except SharedLattice:
        return
    raise AssertionError("a lattice shared by two timed calls was accepted")


def test_probe_cold_and_faithful():
    tracer = Tracer()
    pr = Probe(tracer, seed=3)
    lattices = [("N5", make_N5()), ("M3", make_M3())]
    for name, lat in lattices:
        pr.layers(lat)
        pr.suite(name, lat)
    assert not pr.problems, pr.problems
    names = {f"suite.{name}" for name in probe.CHECK_NAMES}
    checks = [s for s in tracer.spans if s["name"] in names]
    assert len(checks) == len(probe.CHECK_NAMES) * len(lattices), len(checks)
    assert signature(suite_input("N5", make_N5())) == signature(make_N5())


def test_probe_notices_drift():
    original = probe.suite_checks
    probe.suite_checks = lambda seed: original(seed)[1:]
    try:
        pr = Probe(Tracer(), seed=0)
        pr.suite("N5", make_N5())
    finally:
        probe.suite_checks = original
    assert any("differ from lattice_suite" in p for p in pr.problems), pr.problems


def test_output_checks_fail():
    expected = load_expected()
    verify = VerifyDefault(0, expected)
    attempted, failed, _ = verify.check((0, "result: all asserted checks passed\n"))
    assert failed == attempted == 15, "a verify run with no lattices passed"
    code, text = call_cli(["verify", "--seed", "0"])
    assert verify.check((code, text))[1] == 0
    fewer = text.replace("N5: 72 checks", "N5: 71 checks")
    assert verify.check((code, fewer))[1] == 1, "a lattice with fewer checks passed"

    enum = Enumerate8(0, expected)
    assert enum.check({n: [] for n in A006966})[1] == len(A006966)

    single = SingleLattice(0, expected)
    outputs = [call_cli(argv) for argv in single.commands]
    assert single.check(outputs)[1] == 0
    outputs[0] = (outputs[0][0], outputs[0][1] + " ")
    assert single.check(outputs)[1] == 1, "a changed output passed"


def main() -> int:
    tests = [test_shared_lattice_refused, test_probe_cold_and_faithful,
             test_probe_notices_drift, test_output_checks_fail]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

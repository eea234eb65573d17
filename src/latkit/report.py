"""Pass/fail reporting for quantified law checks.

Checks record one CheckResult per law. Results whose hypotheses are not
met by the lattice under test are reported with asserted=False: they are
informative but do not count against the verdict. A law is checked by
law(), which searches its domain for the first counterexample, or by
row_law(), which decides a whole row of the domain at once.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

# Name of the one entry of a check that did not run.
SKIPPED = "skipped"


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: str | None = None
    asserted: bool = True


@dataclass(frozen=True)
class PropertyReport:
    title: str
    results: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results if r.asserted)

    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if r.asserted and not r.passed]

    def find(self, name: str) -> CheckResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)


def law(name: str, pred: Callable[..., bool], tuples: Iterable[tuple],
        asserted: bool, witness: Callable[..., str]) -> CheckResult:
    """The result of "pred(*t) for every t in tuples": it fails at the
    first tuple where pred is false, with witness(*t) as its witness.
    tuples keeps the search order; itertools.product(ids) gives 1-tuples."""
    for t in tuples:
        if not pred(*t):
            return CheckResult(name, False, witness(*t), asserted)
    return CheckResult(name, True, None, asserted)


def row_law(name: str, fails: Callable[..., int], rows: Iterable[tuple],
            asserted: bool, witness: Callable[..., str]) -> CheckResult:
    """law() over the tuples t + (c,), t from rows and c ascending, one
    row t at a time: fails(*t) is the mask of the c where the law fails,
    and the witness is witness(*t, c) at the lowest such c, which is the
    first failing tuple of that scan."""
    for t in rows:
        bad = fails(*t)
        if bad:
            return CheckResult(name, False, witness(*t, (bad & -bad).bit_length() - 1),
                               asserted)
    return CheckResult(name, True, None, asserted)

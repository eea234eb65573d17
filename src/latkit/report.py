"""Pass/fail reporting for quantified law checks.

Checks record one CheckResult per law. Results whose hypotheses are not
met by the lattice under test are reported with asserted=False: they are
informative but do not count against the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass


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

"""A fixed reference computation that does not touch latkit.

The measuring host is shared, and its speed drifts by up to 1.8x over
seconds to minutes (bench/NOTES.md has the figures). A run alternates
this computation with the workload's passes and divides each pass's time
by the time of the reference runs on either side of it. The quotient
changes when latkit's speed changes and hardly at all when the host's
does, so runs taken minutes apart can be compared.

The work is the kind latkit does: small tuples of ints, sorting, set and
dict look-ups and frozensets, over a working set of a few megabytes.
Its containers are emptied every ``BATCH`` items, so it never holds more
memory than the workloads do and leaves their peak RSS alone. Do not
change it: every normalised figure is in units of its running time.
"""

from __future__ import annotations

import random

ITEMS = 80_000
BATCH = 1_000
SEED = 2


def reference_pass() -> int:
    """One run of the reference work; returns how many distinct sorted
    rows it met, so the work cannot be skipped."""
    rng = random.Random(SEED)
    seen: set = set()
    memo: dict = {}
    distinct = 0
    for i in range(ITEMS):
        rows = tuple(rng.getrandbits(3) for _ in range(8))
        key = tuple(sorted(rows))
        memo[key, i & 7] = frozenset(j for j, r in enumerate(rows) if r & 1)
        if key not in seen:
            seen.add(key)
            distinct += 1
        if len(memo) >= BATCH:
            memo.clear()
            seen.clear()
    return distinct

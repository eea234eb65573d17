"""Records the reference outputs the benchmark checks against: the
per-lattice check counts of verify-default and the sha256 of every
interactive command's output.

    PYTHONPATH=src python3 bench/record_expected.py

Re-record only for a change that is meant to alter these outputs, and say
so in that change; a performance change must leave them byte-identical.
"""

from __future__ import annotations

import hashlib
import json

from workloads import EXPECTED_PATH, VERIFY_LINE, SingleLattice, call_cli


def main() -> None:
    code, text = call_cli(["verify", "--seed", "0"])
    assert code == 0, text
    default = {m.group(2): int(m.group(3))
               for m in map(VERIFY_LINE.match, text.splitlines()) if m}
    single = {}
    for argv in sorted(SingleLattice(0, {"single-lattice": {}}).commands):
        code, out = call_cli(argv)
        assert code == 0, argv
        single[" ".join(argv)] = hashlib.sha256(out.encode("utf-8")).hexdigest()
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump({"verify-default": default, "single-lattice": single},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

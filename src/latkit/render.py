"""Text renderings: complementation tables, operation tables, DOT export.

Set cells use label concatenation when every element label is a single
character ("abc"), comma-separated braces otherwise. All output is
deterministic: elements appear in lattice order, covers sorted by id.
"""

from __future__ import annotations

from .complementation import complement_masks, dblplus_masks
from .connectives import op_table
from .core import Lattice, format_element_set, members


def _grid(rows: list[list[str]]) -> str:
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    lines = []
    for r in rows:
        cells = [c.ljust(w) for c, w in zip(r, widths)]
        lines.append(" | ".join(cells).rstrip())
    return "\n".join(lines)


def render_plus_table(lat: Lattice) -> str:
    """Three rows x / x+ / x++, one column per element."""
    head = ["x"] + [lat.label(x) for x in lat.elements]
    row1 = ["x⁺"] + [format_element_set(lat, members(m)) for m in complement_masks(lat)]
    row2 = ["x⁺⁺"] + [format_element_set(lat, members(m)) for m in dblplus_masks(lat)]
    return _grid([head, row1, row2])


def render_op_table(lat: Lattice, which: str) -> str:
    """n by n grid for an implication or conjunction table; rows are the
    left operand."""
    table = op_table(lat, which)
    symbol = "→" if which == "implies" else "⊙"
    rows = [[symbol] + [lat.label(x) for x in lat.elements]]
    for a in lat.elements:
        rows.append([lat.label(a)] +
                    [format_element_set(lat, table.entries[a][b])
                     for b in lat.elements])
    return _grid(rows)


def to_dot(lat: Lattice) -> str:
    """Hasse diagram as a DOT digraph with bottom-up ranks; a backslash or
    double quote in a label is escaped."""
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for x in lat.elements:
        label = lat.label(x).replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{x} [label="{label}"];')
    for lo, hi in sorted(lat.covers()):
        lines.append(f"  n{lo} -> n{hi};")
    lines.append("}")
    return "\n".join(lines) + "\n"

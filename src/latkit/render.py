"""Text renderings: complementation tables, operation tables, DOT export.

Set cells are subset masks printed by core.format_mask: label
concatenation when every element label is a single character ("abc"),
comma-separated braces otherwise. All output is
deterministic: elements appear in lattice order, covers sorted by id.
"""

from __future__ import annotations

from .complementation import complement_masks, dblplus_masks
from .connectives import op_masks
from .core import Lattice, format_mask


def _grid(rows: list[list[str]]) -> str:
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    lines = []
    for r in rows:
        cells = [c.ljust(w) for c, w in zip(r, widths)]
        lines.append(" | ".join(cells).rstrip())
    return "\n".join(lines)


def render_plus_table(lat: Lattice) -> str:
    """Three rows x / x+ / x++, one column per element."""
    return _grid([["x", *lat.labels],
                  ["x⁺"] + [format_mask(lat, m) for m in complement_masks(lat)],
                  ["x⁺⁺"] + [format_mask(lat, m) for m in dblplus_masks(lat)]])


def render_op_table(lat: Lattice, which: str) -> str:
    """n by n grid for an implication or conjunction table; rows are the
    left operand."""
    table = op_masks(lat, which)
    symbol = "→" if which == "implies" else "⊙"
    return _grid([[symbol, *lat.labels]] +
                 [[lat.labels[a]] + [format_mask(lat, m) for m in row]
                  for a, row in enumerate(table)])


def to_dot(lat: Lattice) -> str:
    """Hasse diagram as a DOT digraph with bottom-up ranks; a backslash or
    double quote in a label is escaped."""
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for x, label in enumerate(lat.labels):
        label = label.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{x} [label="{label}"];')
    for lo, hi in sorted(lat.covers()):
        lines.append(f"  n{lo} -> n{hi};")
    lines.append("}")
    return "\n".join(lines) + "\n"

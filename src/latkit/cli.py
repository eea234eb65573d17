"""Command line surface for the toolkit.

Subcommands: info, plus-table, op-table, verify, deductive-systems,
export-dot. Lattices come from builtin names (--lattice) or text files
(--file); verify can also sweep a corpus. Exit codes: 0 success, 1 an
asserted check failed, 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import sys

from .complementation import complement_masks, dblplus_masks, satisfies_dblplus_identity
from .connectives import is_mn_shaped, op_table
from .core import (ELEMENT_CAP, Lattice, _positions_holding, is_complemented,
                   is_distributive, is_modular, load_lattice_file, members)
from .corpus import (ENUM_CAP, complemented_sweep, default_corpus, entry_for,
                     named_lattice)
from .deduction import (PARTITION_CAP, SUBSET_CAP, _is_compatible, all_deductive_systems,
                        ds_lattice_is_boolean_2n)
from .errors import InvalidParameter, LatticeError
from .render import render_op_table, render_plus_table, to_dot
from .report import SKIPPED, PropertyReport
from .suite import corpus_suite, lattice_suite


def _add_source(sub, required: bool = True):
    grp = sub.add_mutually_exclusive_group(required=required)
    grp.add_argument("--lattice", metavar="NAME",
                     help="builtin name: N5, M3, fig2, M:n, B:k, chain:k")
    grp.add_argument("--file", metavar="PATH", help="lattice text file")
    return grp


def _add_output(sub):
    sub.add_argument("--format", dest="fmt", choices=("text", "json"),
                     default="text")
    sub.add_argument("-o", "--output", metavar="PATH", help="write here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latkit",
        description="Finite-lattice toolkit: set-valued complements, unsharp "
                    "connectives, closure structure, deductive systems.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("info", help="size, bounds, predicate tags")
    _add_source(p)
    _add_output(p)

    p = subs.add_parser("plus-table", help="x / x+ / x++ table")
    _add_source(p)
    _add_output(p)

    p = subs.add_parser("op-table", help="implication or conjunction table")
    _add_source(p)
    p.add_argument("--op", choices=("implies", "odot"), required=True)
    _add_output(p)

    p = subs.add_parser("verify", help="run every applicable law check")
    grp = _add_source(p, required=False)
    grp.add_argument("--corpus", type=int, metavar="N",
                     help="all complemented lattices with at most N elements")
    p.add_argument("--max-subsets", type=int, default=SUBSET_CAP,
                   help="largest lattice for deductive-system enumeration")
    p.add_argument("--max-partitions", type=int, default=PARTITION_CAP,
                   help="largest lattice for congruence enumeration")
    p.add_argument("--max-elements", type=int, default=ELEMENT_CAP,
                   help="reject lattices larger than this")
    p.add_argument("--seed", type=int, default=0,
                   help="has no effect; accepted so older command lines still run")
    _add_output(p)

    p = subs.add_parser("deductive-systems", help="enumerate deductive systems")
    _add_source(p)
    p.add_argument("--lattice-of", action="store_true",
                   help="print the inclusion order of the systems")
    _add_output(p)

    p = subs.add_parser("export-dot", help="Hasse diagram as DOT")
    _add_source(p)
    p.add_argument("-o", "--output", metavar="PATH")

    # The size cap load_source reads, for subcommands that have no option for it.
    parser.set_defaults(max_elements=ELEMENT_CAP)
    return parser


def load_source(args: argparse.Namespace) -> Lattice:
    if args.lattice is not None:
        lat = named_lattice(args.lattice)
    elif args.file is not None:
        lat = load_lattice_file(args.file)
    else:
        raise InvalidParameter("no lattice source given")
    _check_size(args, lat)
    return lat


def _check_size(args: argparse.Namespace, lat: Lattice, name: str = "") -> None:
    """Raises InvalidParameter when lat has more than --max-elements
    elements; name says which lattice of a sweep it is."""
    if lat.n > args.max_elements:
        what = f"lattice {name}" if name else "lattice"
        raise InvalidParameter(
            f"{what} has {lat.n} elements, over the cap {args.max_elements}")


def _emit(args: argparse.Namespace, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _set_labels(lat: Lattice, s: frozenset) -> list[str]:
    return [lat.label(x) for x in sorted(s)]


def _braced(lat: Lattice, s: frozenset) -> str:
    return "{" + ",".join(_set_labels(lat, s)) + "}"


# -- subcommands -------------------------------------------------------

def cmd_info(args: argparse.Namespace) -> int:
    lat = load_source(args)
    tags = []
    tags.append("complemented" if is_complemented(lat) else "not complemented")
    tags.append("modular" if is_modular(lat) else "non-modular")
    tags.append("distributive" if is_distributive(lat) else "non-distributive")
    identity = satisfies_dblplus_identity(lat)
    if identity:
        tags.append("x⁺⁺≈x")
    name = lat.name or (args.file or "lattice")
    if args.fmt == "json":
        _emit(args, json.dumps({
            "name": name, "elements": lat.n,
            "bottom": lat.label(lat.bottom), "top": lat.label(lat.top),
            "covers": len(lat.covers()),
            "complemented": is_complemented(lat), "modular": is_modular(lat),
            "distributive": is_distributive(lat), "dblplus_identity": identity,
        }, ensure_ascii=False, indent=2))
    else:
        lines = [f"lattice {name}: {lat.n} elements, {len(lat.covers())} cover pairs",
                 f"bottom {lat.label(lat.bottom)}, top {lat.label(lat.top)}",
                 "tags: " + ", ".join(tags)]
        _emit(args, "\n".join(lines))
    return 0


def cmd_plus_table(args: argparse.Namespace) -> int:
    lat = load_source(args)
    if args.fmt == "json":
        _emit(args, json.dumps({
            "elements": [lat.label(x) for x in lat.elements],
            "plus": [_set_labels(lat, members(m)) for m in complement_masks(lat)],
            "dblplus": [_set_labels(lat, members(m)) for m in dblplus_masks(lat)],
        }, ensure_ascii=False, indent=2))
    else:
        _emit(args, render_plus_table(lat))
    return 0


def cmd_op_table(args: argparse.Namespace) -> int:
    lat = load_source(args)
    if args.fmt == "json":
        table = op_table(lat, args.op)
        _emit(args, json.dumps({
            "op": args.op,
            "elements": [lat.label(x) for x in lat.elements],
            "cells": [[_set_labels(lat, cell) for cell in row]
                      for row in table.entries],
        }, ensure_ascii=False, indent=2))
    else:
        _emit(args, render_op_table(lat, args.op))
    return 0


def _verify_results(args: argparse.Namespace):
    # A cap below one turns every capped check into a passing skip, or
    # rejects every lattice as too large.
    for flag, cap in (("--max-subsets", args.max_subsets),
                      ("--max-partitions", args.max_partitions),
                      ("--max-elements", args.max_elements)):
        if cap < 1:
            raise InvalidParameter(f"{flag} must be positive, got {cap}")
    if args.lattice is not None or args.file is not None:
        lat = load_source(args)
        name = lat.name or (args.file or "lattice")
        return [(name, lattice_suite(lat, args.max_subsets, args.max_partitions))]
    if args.corpus is None:
        entries = default_corpus()
    else:
        if args.corpus > ENUM_CAP:
            raise InvalidParameter(
                f"corpus sweep capped at {ENUM_CAP} elements, got {args.corpus}")
        entries = [entry_for(name, lat) for name, lat in complemented_sweep(args.corpus)]
        if not entries:
            raise InvalidParameter(
                f"no complemented lattice has at most {args.corpus} elements")
    # Each lattice of a sweep meets the cap a single source meets; the
    # first one over it is named.
    for e in entries:
        _check_size(args, e.lattice, e.name)
    return corpus_suite(entries, args.max_subsets, args.max_partitions)


def _all_ok(results) -> bool:
    """The verdict of a verify run: every report of every lattice ok."""
    return all(r.ok for _, reports in results for r in reports)


def _verify_text(results) -> tuple[str, bool]:
    lines = []
    for name, reports in results:
        checks = sum(len(r.results) for r in reports)
        fails = [(r.title, c) for r in reports for c in r.failures()]
        info = [c for r in reports for c in r.results if not c.asserted]
        skips = sum(1 for c in info if c.name == SKIPPED)
        status = "ok  " if not fails else "FAIL"
        lines.append(f"{status} {name}: {checks} checks, "
                     f"{len(fails)} failures, {len(info) - skips} informational"
                     + (f", {skips} skipped" if skips else ""))
        for title, c in fails:
            where = f" [{c.witness}]" if c.witness else ""
            lines.append(f"     {title}: {c.name}{where}")
    ok = _all_ok(results)
    lines.append("result: " + ("all asserted checks passed" if ok
                               else "asserted checks FAILED"))
    return "\n".join(lines), ok


def _report_json(reports: list[PropertyReport]):
    return [{
        "title": r.title,
        "checks": [{"name": c.name, "passed": c.passed, "asserted": c.asserted,
                    "witness": c.witness} for c in r.results],
    } for r in reports]


def cmd_verify(args: argparse.Namespace) -> int:
    results = _verify_results(args)
    ok = _all_ok(results)
    if args.fmt == "json":
        _emit(args, json.dumps({
            "ok": ok,
            "lattices": [{"name": name, "reports": _report_json(reports)}
                         for name, reports in results],
        }, ensure_ascii=False, indent=2))
    else:
        text, _ = _verify_text(results)
        _emit(args, text)
    return 0 if ok else 1


def _inclusion_covers(masks):
    """Yield, in order, the position pairs (i, j) of the deductive systems
    where system j covers system i. The family is intersection closed and
    in (size, ids) order (check_deductive_family proves both), so the
    least member holding a set S is the first position holding it, L(S):
    the lowest set bit of the AND of the position bitsets of S's
    elements. Each upper cover of D is L(D | {x}) for an x outside D, and
    such an L is a cover exactly when L(D | {y}) = L for every y that it
    adds to D. No k x k table is built."""
    carrier = masks[-1]
    holds = _positions_holding(masks)
    for i, d in enumerate(masks):
        containing = -1
        for x in members(d):
            containing &= holds[x]
        reach: dict[int, int] = {}
        for x in members(carrier & ~d):
            both = containing & holds[x]
            j = (both & -both).bit_length() - 1
            reach[j] = reach.get(j, 0) | 1 << x
        for j in sorted(reach):
            if reach[j] == masks[j] & ~d:
                yield i, j


def cmd_deductive_systems(args: argparse.Namespace) -> int:
    lat = load_source(args)
    dsl = all_deductive_systems(lat)
    compat = [_is_compatible(lat, d) for d in dsl.masks]
    boolean = ds_lattice_is_boolean_2n(lat) if is_mn_shaped(lat) else None

    if args.fmt == "json":
        _emit(args, json.dumps({
            "lattice": lat.name or (args.file or "lattice"),
            "systems": [{"elements": _set_labels(lat, d), "compatible": c}
                        for d, c in zip(dsl.systems, compat)],
            "boolean_2n": boolean,
        }, ensure_ascii=False, indent=2))
        return 0

    lines = [f"{len(dsl.systems)} deductive systems of "
             f"{lat.name or 'the lattice'}:"]
    for i, (d, c) in enumerate(zip(dsl.systems, compat)):
        mark = "  (compatible)" if c else ""
        lines.append(f"  S{i} = {_braced(lat, d)}{mark}")
    if args.lattice_of:
        edges = [f"S{i} < S{j}" for i, j in _inclusion_covers(dsl.masks)]
        lines.append("inclusion covers: " + ("; ".join(edges) if edges else "none"))
    if boolean is not None:
        atoms = lat.n - 2
        lines.append(f"boolean with {atoms} atoms: {'yes' if boolean else 'NO'}")
    _emit(args, "\n".join(lines))
    return 0


def cmd_export_dot(args: argparse.Namespace) -> int:
    lat = load_source(args)
    _emit(args, to_dot(lat))
    return 0


COMMANDS = {
    "info": cmd_info,
    "plus-table": cmd_plus_table,
    "op-table": cmd_op_table,
    "verify": cmd_verify,
    "deductive-systems": cmd_deductive_systems,
    "export-dot": cmd_export_dot,
}


def main(argv=None) -> int:
    parser = build_parser()
    # Each subcommand but verify requires exactly one of --lattice and
    # --file, which argparse enforces.
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (LatticeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

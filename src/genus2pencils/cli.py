"""Command line front end.

Four subcommands: canonical (print a built-in model), verify-example
(recheck one), search-types (run the numeric search; a row at the
adjoint-degree cap adds a "ceiling reached" line; --apply-exclusion
works on the general table in genus 2 only, and is a usage error with
--special or another genus), dual-graph (print or DOT a fibre's
component graph).  Exit codes: 0 success, 1 failed checks, 2 bad usage
or unparseable input, 3 a check raised an unexpected error (a fault in
the library rather than a failed claim).
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

from . import catalog
from .fibres import ade_classify, dual_graph
from .lattice import Fibration
from .modelfile import ParseError, parse, to_fibration
from .numerics import apply_exclusion, search_general, search_special

__all__ = ["main"]


def _format_multiplicities(mults: tuple[int, ...]) -> str:
    if not mults:
        return "-"
    pieces = []
    run_value, run_length = mults[0], 0
    for m in mults + (0,):
        if m == run_value:
            run_length += 1
            continue
        pieces.append(f"{run_value}^{run_length}" if run_length > 1 else f"{run_value}")
        run_value, run_length = m, 1
    return " ".join(pieces)


def _cmd_canonical(args: argparse.Namespace) -> int:
    try:
        entry = catalog.get(args.tag)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    exp = entry.expected
    print(f"model {entry.tag}")
    print(f"fibre class: {entry.fibration.fibre_class}")
    print(f"adjoint square: {exp.adjoint_square}")
    print(f"picard rank: {exp.picard_rank}")
    n = exp.numeric
    print(
        "numeric type: "
        f"adjoint degree {n.adjoint_degree}, twice offset {n.twice_offset}, "
        f"points {n.base_point_count}, "
        f"multiplicities {_format_multiplicities(n.multiplicities)}"
    )
    print(
        f"plane model: degree {exp.plane.degree}, "
        f"singularities {_format_multiplicities(exp.plane.multiplicities)}"
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        entry = catalog.get(args.tag)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    report = catalog.verify(entry.tag)
    errors = sum(1 for c in report.checks if c.error)
    failures = sum(1 for c in report.checks if not c.passed) - errors
    code = 3 if errors else 1 if failures else 0
    if args.report:
        exp = entry.expected
        checks = []
        for c in report.checks:
            checks.append({"name": c.name, "passed": c.passed, "detail": c.detail})
            if c.error:
                checks[-1]["error"] = c.error
        payload = {
            "tag": report.tag,
            "passed": report.passed,
            "checks": checks,
            "block_sizes": list(exp.block_sizes),
            "component_counts": list(exp.component_counts),
            "mordell_weil_rank": exp.mordell_weil_rank,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return code
    for check in report.checks:
        if check.passed:
            print(f"ok {check.name}" + (f": {check.detail}" if check.detail else ""))
        elif check.error:
            print(f"ERROR {check.name}: {check.error}: {check.detail}")
        else:
            print(f"FAIL {check.name}: {check.detail}")
    if failures:
        print(f"{report.tag}: {failures} of {len(report.checks)} checks failed")
    if errors:
        print(f"{report.tag}: {errors} of {len(report.checks)} checks raised an error")
    if not code:
        print(f"{report.tag}: all {len(report.checks)} checks passed")
    return code


def _cmd_search(args: argparse.Namespace) -> int:
    if args.ksq_min < 1 or args.ksq_min > args.ksq_max:
        print("the adjoint-square window must satisfy 1 <= min <= max", file=sys.stderr)
        return 2
    if args.apply_exclusion and args.special:
        print("the exclusion argument applies to the general table only", file=sys.stderr)
        return 2
    if args.apply_exclusion and args.genus != 2:
        print("the exclusion argument is specific to genus 2", file=sys.stderr)
        return 2
    search = search_special if args.special else search_general
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = search(args.genus, args.ksq_min, args.ksq_max, prune=not args.no_prune)
    # the search warns only when a row sits at its adjoint-degree cap
    ceiling = max(row.adjoint_degree for row in rows) if caught else None
    excluded = ()
    if args.special:
        print("degree  extra  points  ksq  multiplicities")
        for row in rows:
            print(
                f"{row.adjoint_degree:>6}  {row.extra_multiplicity:>5}  "
                f"{row.base_point_count:>6}  {row.adjoint_square:>3}  "
                f"{_format_multiplicities(row.multiplicities)}"
            )
    else:
        if args.apply_exclusion:
            kept = apply_exclusion(rows)
            excluded = tuple(r for r in rows if r not in kept)
            rows = kept
        print("degree  offset  points  ksq  indices  multiplicities")
        for row in rows:
            indices = ",".join(str(d) for d in row.admissible_indices) or "-"
            print(
                f"{row.adjoint_degree:>6}  {row.twice_offset:>6}  "
                f"{row.base_point_count:>6}  {row.adjoint_square:>3}  "
                f"{indices:<7}  {_format_multiplicities(row.multiplicities)}"
            )
    print(f"{len(rows)} rows")
    if ceiling is not None:
        print(f"ceiling reached: rows above adjoint degree {ceiling} are not ruled out")
    for row in excluded:
        print(
            f"excluded: adjoint degree {row.adjoint_degree}, "
            f"multiplicities {_format_multiplicities(row.multiplicities)}"
        )
    return 0


def _normalize_fibre_name(name: str) -> str:
    return name.replace("_", "").replace("-", "").lower()


def _load_fibration(source: str) -> tuple[str, Fibration] | int:
    try:
        entry = catalog.get(source)
        return entry.tag, entry.fibration
    except KeyError:
        pass
    try:
        with open(source, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"cannot read {source!r}: {exc.strerror}", file=sys.stderr)
        return 2
    try:
        model = parse(text)
        fib = to_fibration(model)
    except (ParseError, ValueError) as exc:
        print(f"{source}: {exc}", file=sys.stderr)
        return 2
    return source, fib


def _cmd_dual_graph(args: argparse.Namespace) -> int:
    loaded = _load_fibration(args.source)
    if isinstance(loaded, int):
        return loaded
    label, fib = loaded
    wanted = _normalize_fibre_name(args.fibre)
    dec = next(
        (d for d in fib.fibres if _normalize_fibre_name(d.name) == wanted), None
    )
    if dec is None:
        known = ", ".join(d.name for d in fib.fibres) or "none"
        print(f"no fibre named {args.fibre!r} (known: {known})", file=sys.stderr)
        return 2
    graph = dual_graph(fib, dec)
    if args.dot:
        safe_label = label.replace("/", "_").replace("\\", "_").replace('"', "")
        print(f'graph "{safe_label}_{dec.name}" {{')
        print("  node [shape=circle];")
        for name, _, genus in graph.nodes:
            attrs = " [peripheries=2]" if genus >= 1 else ""
            print(f'  "{name}"{attrs};')
        for i, j, weight in graph.edges:
            attrs = f' [label="{weight}"]' if weight > 1 else ""
            print(f'  "{graph.nodes[i][0]}" -- "{graph.nodes[j][0]}"{attrs};')
        print("}")
        return 0
    print(f"fibre {dec.name} of {label} ({len(dec.components)} components)")
    for comp, (_, self_int, genus) in zip(dec.components, graph.nodes):
        print(f"  {comp.name} (mult {comp.multiplicity}, self {self_int}, genus {genus})")
    if graph.edges:
        print("edges:")
        for i, j, weight in graph.edges:
            suffix = f" ({weight})" if weight > 1 else ""
            print(f"  {graph.nodes[i][0]} - {graph.nodes[j][0]}{suffix}")
    labels = [lab for _, lab in ade_classify(dec)]
    if labels:
        print("diagrams: " + ", ".join(labels))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genus2pencils",
        description="genus-two pencils on rational surfaces: models, searches, checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("canonical", help="print one built-in model")
    p.add_argument("tag", help="A, B1, B2, C, or Ex4_3 .. Ex4_6")
    p.set_defaults(func=_cmd_canonical)

    p = sub.add_parser("verify-example", help="recheck one built-in model")
    p.add_argument("tag")
    p.add_argument("--report", action="store_true", help="emit a JSON report")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search-types", help="search numeric types of pencils")
    p.add_argument("--genus", type=int, default=2)
    p.add_argument("--ksq-min", type=int, default=1)
    p.add_argument("--ksq-max", type=int, default=3)
    p.add_argument("--apply-exclusion", action="store_true")
    p.add_argument("--no-prune", action="store_true")
    p.add_argument("--special", action="store_true")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("dual-graph", help="print a fibre's component graph")
    p.add_argument("source", metavar="TAG_OR_FILE")
    p.add_argument("--fibre", required=True)
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=_cmd_dual_graph)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())

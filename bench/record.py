"""Record the output table the benchmark gates compare against.

Run from the repository root on a commit whose results are trusted:

    python3 bench/record.py

It rewrites bench/expected.json with the verify check names per tag, the
class count of every class-enum grid query, the row count of every
type-search window, and the canonical and dual-graph key values per tag.
A later commit that changes any of these counts fails the gates.
"""

from __future__ import annotations

import json
import os
import sys
import warnings

import workloads as wl

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from genus2pencils import catalog, curves  # noqa: E402
from genus2pencils.fibres import ade_classify  # noqa: E402
from genus2pencils.lattice import hirzebruch_blowup, plane_blowup  # noqa: E402
from genus2pencils.numerics import search_general, search_special  # noqa: E402


def main() -> int:
    warnings.simplefilter("ignore")
    table: dict = {"verify": {}, "canonical": {}, "fibres": {}, "enum": {}, "search": {}}
    for tag in wl.TAGS:
        report = catalog.verify(tag)
        if not report.passed:
            print(f"{tag} does not verify; refusing to record", file=sys.stderr)
            return 1
        table["verify"][tag] = [c.name for c in report.checks]
        entry = catalog.get(tag)
        table["canonical"][tag] = {
            "adjoint_square": entry.expected.adjoint_square,
            "picard_rank": entry.expected.picard_rank,
        }
        for dec in entry.fibration.fibres:
            table["fibres"][f"{tag}:{dec.name}"] = {
                "components": len(dec.components),
                "diagrams": ", ".join(label for _, label in ade_classify(dec)),
            }
    for kind, index in wl.ENUM_SURFACES:
        for n in wl.ENUM_BLOWUPS:
            surface = plane_blowup(n) if kind == "plane" else hirzebruch_blowup(index, n)
            for query in wl.ENUM_QUERIES:
                for cap in wl.ENUM_CAPS:
                    found = curves.enum_classes(surface, curves.ClassQuery(*query, cap))
                    table["enum"][wl.enum_key(kind, index, n, query, cap)] = len(found)
    for kind, fn in (("general", search_general), ("special", search_special)):
        for genus in wl.SEARCH_GENERA:
            for lo, hi in wl.search_windows(genus):
                table["search"][wl.search_key(kind, genus, lo, hi)] = len(fn(genus, lo, hi))
    with open(wl.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=0, sort_keys=True)
        handle.write("\n")
    grid = wl.enum_grid(table)
    print(f"recorded {len(table['verify'])} tags, {len(grid)} of {len(table['enum'])} "
          f"enumeration queries in the grid ({sum(q['count'] for q in grid)} classes), "
          f"{len(table['search'])} search windows")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

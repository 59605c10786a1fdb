"""Every recorded benchmark point at the repository root agrees with
BENCHMARK.json.

A BENCH_*.json file names the change it measured, an optional claim and,
per workload, one block per end-to-end metric with the parent's and the
change's runs.  The claim is null or names a listed workload and
end-to-end metric, in that metric's direction, and the file holds that
workload's block for it; every metric block holds numeric medians for
both sides.
"""

from __future__ import annotations

import json
from numbers import Real
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
METRICS = {m["name"]: m for m in BENCHMARK["end_to_end"]}
POINTS = sorted(ROOT.glob("BENCH_*.json"))


def _numeric(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


def test_the_points_are_found():
    assert len(POINTS) >= 12


@pytest.mark.parametrize("path", POINTS, ids=[p.name for p in POINTS])
def test_a_point_matches_the_benchmark(path):
    point = json.loads(path.read_text(encoding="utf-8"))
    claim = point["claim"]
    if claim is not None:
        assert claim["workload"] in WORKLOADS, claim
        assert claim["metric"] in METRICS, claim
        assert claim["better"] == METRICS[claim["metric"]]["better"], claim
        assert claim["metric"] in point[claim["workload"]], claim
    blocks = [(w, m, point[w][m]) for w in WORKLOADS & point.keys() for m in METRICS.keys() & point[w].keys()]
    assert blocks
    for workload, metric, block in blocks:
        for side in ("parent", "change"):
            assert _numeric(block[side]["median"]), (workload, metric, side)

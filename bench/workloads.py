"""Seeded input generators for the four benchmark workloads.

Every workload is a sequence of rounds.  A round has a fixed composition
drawn from a fixed grid; the seed only chooses the order and, where the
grid is larger than a round, the selection.  Measuring whole rounds keeps
the mix of cheap and expensive operations the same from run to run.
"""

from __future__ import annotations

import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

TAGS = ("A", "B1", "B2", "C", "Ex4_3", "Ex4_4", "Ex4_5", "Ex4_6")

# class-enum grid: every surface, query type and cap below whose result
# holds at most ENUM_MAX_CLASSES classes (the larger ones take 0.6-2.5 s each)
ENUM_SURFACES = (("plane", 0), ("hirzebruch", 0), ("hirzebruch", 1), ("hirzebruch", 2))
ENUM_BLOWUPS = range(8, 14)
ENUM_QUERIES = ((-1, -1), (-2, 0), (0, -2))
ENUM_CAPS = (2, 3, 4)
ENUM_MAX_CLASSES = 30_000

# type-search grid: every window 1 <= lo <= hi <= 2g+2 for g = 2..10
SEARCH_GENERA = range(2, 11)
UNPRUNED_GENERA = (2, 3, 4)
SEARCH_KINDS = ("general", "special")

ENUM_TRACE_OPS = 60
SEARCH_TRACE_PRUNED = 240


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def search_key(kind: str, genus: int, lo: int, hi: int) -> str:
    return f"{kind}:{genus}:{lo}:{hi}"


def search_windows(genus: int) -> list[tuple[int, int]]:
    top = 2 * genus + 2
    return [(lo, hi) for lo in range(1, top + 1) for hi in range(lo, top + 1)]


def enum_key(kind: str, index: int, n: int, query: tuple[int, int], cap: int) -> str:
    return f"{kind}:{index}:{n}:{query[0]}:{query[1]}:{cap}"


def enum_grid(expected: dict) -> list[dict]:
    return [
        {"surface": [kind, index, n], "query": list(query), "cap": cap,
         "count": expected["enum"][enum_key(kind, index, n, query, cap)]}
        for kind, index in ENUM_SURFACES
        for n in ENUM_BLOWUPS
        for query in ENUM_QUERIES
        for cap in ENUM_CAPS
        if expected["enum"][enum_key(kind, index, n, query, cap)] <= ENUM_MAX_CLASSES
    ]


class Deck:
    """Deals items in seed-shuffled order without replacement, reshuffling
    when empty, so that every item is drawn once before any repeats."""

    def __init__(self, items: list, rng: random.Random) -> None:
        self.items, self.rng, self.left = list(items), rng, []

    def deal(self, count: int) -> list:
        out = []
        while len(out) < count:
            if not self.left:
                self.left = self.items[:]
                self.rng.shuffle(self.left)
            out.append(self.left.pop())
        return out


def verify_rounds(rng: random.Random, expected: dict):
    """A round is two fresh-worker passes over the eight tags: a seed-drawn
    order and its reverse, so that each tag comes first in a pair of tags
    sharing an enumeration as often as the other."""
    while True:
        tags = list(TAGS)
        rng.shuffle(tags)
        yield [[{"tag": t, "checks": expected["verify"][t]} for t in order]
               for order in (tags, tags[::-1])]


def enum_rounds(rng: random.Random, expected: dict):
    """A round is the whole grid in a seed-drawn order, in one fresh worker."""
    grid = enum_grid(expected)
    while True:
        ops = grid[:]
        rng.shuffle(ops)
        yield [ops]


def _search_op(kind: str, genus: int, window: tuple[int, int], prune: bool, expected: dict) -> dict:
    lo, hi = window
    return {"kind": kind, "genus": genus, "lo": lo, "hi": hi, "prune": prune,
            "rows": expected["search"][search_key(kind, genus, lo, hi)]}


def _window_decks(rng: random.Random) -> dict[str, Deck]:
    grid = [(g, w) for g in SEARCH_GENERA for w in search_windows(g)]
    return {kind: Deck(grid, rng) for kind in SEARCH_KINDS}


def search_rounds(rng: random.Random, expected: dict):
    """A round is one fresh worker: every pruned window of both kinds, plus
    one unpruned walk per kind and genus 2..4 on a seed-drawn window, each
    checked against the pruned call on the same window."""
    grid = [(kind, g, w) for kind in SEARCH_KINDS for g in SEARCH_GENERA for w in search_windows(g)]
    while True:
        ops = [_search_op(kind, g, w, True, expected) for kind, g, w in grid]
        for kind in SEARCH_KINDS:
            for genus in UNPRUNED_GENERA:
                window = rng.choice(search_windows(genus))
                pair = rng.getrandbits(32)
                for prune in (False, True):
                    op = _search_op(kind, genus, window, prune, expected)
                    op["pair"] = pair
                    ops.append(op)
        rng.shuffle(ops)
        yield [ops]


def cli_rounds(rng: random.Random, expected: dict, model_paths: dict[str, str]):
    """A round is 40 CLI processes: each tag once under canonical and
    verify-example --report, every catalog fibre once under dual-graph on
    its tag and once on its model file, and four general and four special
    search-types windows dealt from the g = 2..10 grid."""
    decks = _window_decks(rng)
    while True:
        ops = []
        for tag in TAGS:
            ops.append({"sub": "canonical", "argv": ["canonical", tag], "tag": tag})
            ops.append({"sub": "verify-example", "argv": ["verify-example", tag, "--report"],
                        "tag": tag})
        for key in sorted(expected["fibres"]):
            tag, fibre = key.split(":")
            ops.append({"sub": "dual-graph", "argv": ["dual-graph", tag, "--fibre", fibre],
                        "key": key, "label": tag})
            path = model_paths[tag]
            ops.append({"sub": "dual-graph-file", "argv": ["dual-graph", path, "--fibre", fibre],
                        "key": key, "label": path})
        for kind in SEARCH_KINDS:
            for genus, (lo, hi) in decks[kind].deal(4):
                argv = ["search-types", "--genus", str(genus), "--ksq-min", str(lo),
                        "--ksq-max", str(hi)] + (["--special"] if kind == "special" else [])
                ops.append({"sub": "search-types", "argv": argv,
                            "rows": expected["search"][search_key(kind, genus, lo, hi)]})
        rng.shuffle(ops)
        yield [ops]


def rounds(workload: str, seed: int, expected: dict, model_paths: dict[str, str]):
    """The workload's rounds for this seed: an endless iterator of lists of
    operation lists, one list per fresh worker (or, for cli, per round)."""
    rng = random.Random(seed)
    if workload == "verify-catalog":
        return verify_rounds(rng, expected)
    if workload == "class-enum":
        return enum_rounds(rng, expected)
    if workload == "type-search":
        return search_rounds(rng, expected)
    return cli_rounds(rng, expected, model_paths)


def replay(workload: str, round_: list[list[dict]], rng: random.Random) -> list[list[dict]]:
    """The round to run again in a later sweep: the same operations, each
    worker's list reshuffled, except verify-catalog, whose order decides
    which operation pays for an enumeration the others reuse."""
    if workload == "verify-catalog":
        return round_
    return [rng.sample(ops, len(ops)) for ops in round_]


def trace_ops(workload: str, seed: int, expected: dict, model_paths: dict[str, str]) -> list[dict]:
    """The fixed operation list a traced run repeats, from the first round:
    one verify pass, the first ENUM_TRACE_OPS enumeration queries, the
    twelve paired searches and the first SEARCH_TRACE_PRUNED other pruned
    windows, or the first CLI operation of each subcommand."""
    first_round = next(rounds(workload, seed, expected, model_paths))[0]
    if workload == "class-enum":
        return first_round[:ENUM_TRACE_OPS]
    if workload == "type-search":
        paired = [op for op in first_round if "pair" in op]
        return paired + [op for op in first_round if "pair" not in op][:SEARCH_TRACE_PRUNED]
    if workload == "cli":
        seen: dict[str, dict] = {}
        for op in first_round:
            seen.setdefault(op["sub"], op)
        return list(seen.values())
    return first_round

"""Output gates: each returns None when an output is right, else a reason.

The gates compare against bench/expected.json, recorded by record.py, and
recompute the defining properties of each result with their own
arithmetic rather than the library's, so a library bug that changes a
result fails the gate instead of being measured as a speed change.
"""

from __future__ import annotations

import json
from operator import mul


def classes_gate(coords: list[tuple[int, ...]], op: dict) -> str | None:
    """Class count as recorded; every class has the queried C*C and K*C and
    reference degree in [0, cap]; strictly ascending (degree part, then
    multiplicities) order, hence no duplicates.

    With t the exceptional coefficients, s1 = sum(t) and s2 = sum(t*t):
    on P2 blown up, C = dL + ..., C*C = d^2 - s2, K*C = -3d - s1, degree d;
    on F_e blown up, C = xD0 + yG + ..., C*C = -e x^2 + 2xy - s2,
    K*C = (e-2)x - 2y - s1, degree (D0 + (e+1)G)*C = x + y.
    """
    kind, e, n = op["surface"]
    self_int, k_deg = op["query"]
    cap = op["cap"]
    if len(coords) != op["count"]:
        return f"{len(coords)} classes, expected {op['count']}"
    head = 1 if kind == "plane" else 2
    prev = None
    for c in coords:
        if len(c) != head + n:
            return f"class {c} has the wrong rank"
        base, tail = c[:head], c[head:]
        s1, s2 = sum(tail), sum(map(mul, tail, tail))
        if head == 1:
            (d,) = base
            square, canonical, degree = d * d - s2, -3 * d - s1, d
        else:
            x, y = base
            square, canonical, degree = -e * x * x + 2 * x * y - s2, (e - 2) * x - 2 * y - s1, x + y
        if square != self_int:
            return f"class {c} has C*C = {square}, not {self_int}"
        if canonical != k_deg:
            return f"class {c} has K*C = {canonical}, not {k_deg}"
        if not 0 <= degree <= cap:
            return f"class {c} has degree {degree} outside [0, {cap}]"
        # ascending degree part, then descending exceptional coefficients
        if prev is not None and not (prev[0] < base or (prev[0] == base and prev[1] > tail)):
            return f"class {c} out of order or repeated"
        prev = (base, tail)
    return None


def report_gate(summary: dict, op: dict) -> str | None:
    """A verify report passes every check, with the recorded check names."""
    names = [name for name, _ in summary["checks"]]
    if names != op["checks"]:
        return f"checks {names}, expected {op['checks']}"
    failed = [name for name, passed in summary["checks"] if not passed]
    if failed or not summary["passed"]:
        return f"failed checks {failed}"
    return None


def rows_gate(count: int, op: dict) -> str | None:
    if count != op["rows"]:
        return f"{count} rows, expected {op['rows']}"
    return None


def pair_gate(pruned: list, unpruned: list) -> str | None:
    """Pruned and unpruned walks of one window return the same rows."""
    if pruned != unpruned:
        return f"pruned rows differ from unpruned rows ({len(pruned)} vs {len(unpruned)})"
    return None


def cli_gate(returncode: int, output: str, op: dict, expected: dict) -> str | None:
    """Exit code 0 and the key lines of each subcommand's output."""
    if returncode != 0:
        return f"exit code {returncode}"
    lines = output.splitlines()
    sub = op["sub"]
    if sub == "canonical":
        want = expected["canonical"][op["tag"]]
        needed = [f"model {op['tag']}", f"adjoint square: {want['adjoint_square']}",
                  f"picard rank: {want['picard_rank']}"]
    elif sub == "verify-example":
        try:
            payload = json.loads(output)
        except json.JSONDecodeError:
            return "verify-example --report printed no JSON report"
        summary = {"passed": payload.get("passed"),
                   "checks": [(c["name"], c["passed"]) for c in payload.get("checks", ())]}
        return report_gate(summary, {"checks": expected["verify"][op["tag"]]})
    elif sub == "search-types":
        needed = [f"{op['rows']} rows"]
    else:
        fibre = expected["fibres"][op["key"]]
        name = op["key"].split(":")[1]
        needed = [f"fibre {name} of {op['label']} ({fibre['components']} components)"]
        if fibre["diagrams"]:
            needed.append(f"diagrams: {fibre['diagrams']}")
    missing = [line for line in needed if line not in lines]
    if missing:
        return f"missing output lines {missing}"
    return None


def self_test(expected: dict) -> list[str]:
    """Feed each gate a known-good output and a tampered one; return the
    gates that failed to tell them apart (empty when every gate trips)."""
    problems = []
    plane_line = [(0, 1) + (0,) * 7, (1, -1, -1) + (0,) * 6]
    op = {"surface": ["plane", 0, 8], "query": [-1, -1], "cap": 1, "count": 2}
    cases = [
        ("classes: right output", classes_gate(plane_line, op) is None),
        ("classes: wrong expected count", classes_gate(plane_line, dict(op, count=3)) is not None),
        ("classes: wrong C*C", classes_gate([plane_line[0], (1, -1, -1, -1) + (0,) * 5], op) is not None),
        ("classes: repeated class", classes_gate([plane_line[0]] * 2, op) is not None),
        ("classes: out of order", classes_gate(plane_line[::-1], op) is not None),
    ]
    names = expected["verify"]["C"]
    good = {"passed": True, "checks": [(n, True) for n in names]}
    tampered = {"passed": True, "checks": [(n, n != "section") for n in names]}
    dropped = {"passed": True, "checks": [(n, True) for n in names[:-1]]}
    op = {"checks": names}
    cases += [
        ("report: right report", report_gate(good, op) is None),
        ("report: tampered check", report_gate(tampered, op) is not None),
        ("report: dropped check", report_gate(dropped, op) is not None),
        ("report: not passed", report_gate(dict(good, passed=False), op) is not None),
        ("rows: wrong expected count", rows_gate(5, {"rows": 6}) is not None),
        ("rows: pruned differs", pair_gate([1, 2], [1, 2, 3]) is not None),
    ]
    canonical = {"sub": "canonical", "tag": "A"}
    text = "model A\nadjoint square: 1\npicard rank: 13\n"
    cases += [
        ("cli: right output", cli_gate(0, text, canonical, expected) is None),
        ("cli: nonzero exit", cli_gate(1, text, canonical, expected) is not None),
        ("cli: wrong value", cli_gate(0, text.replace(": 1\n", ": 2\n"), canonical, expected) is not None),
    ]
    for label, ok in cases:
        if not ok:
            problems.append(label)
    return problems

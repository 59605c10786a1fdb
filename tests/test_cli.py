"""Command line contract tests: golden output, exit codes, JSON report."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from genus2pencils import catalog, sharp
from genus2pencils.cli import _format_multiplicities, main
from genus2pencils.modelfile import from_fibration, serialize

CANONICAL_A = """\
model A
fibre class: 6L-2E1-2E2-2E3-2E4-2E5-2E6-2E7-2E8-E9-E10-E11-E12
adjoint square: 1
picard rank: 13
numeric type: adjoint degree 2, twice offset 0, points 7, multiplicities 2^7
plane model: degree 6, singularities 2^8
"""

SEARCH_TABLE = """\
degree  offset  points  ksq  indices  multiplicities
     2       0       7    1  0,1,2    2^7
     2       2      10    2  0,1,2    2^10
     4       0       9    2  0,1,2    3^7 2^2
     6       2       9    3  0,1,2    4^9
     8       0       9    3  0,1,2    5^7 4 3
5 rows
"""

SEARCH_TABLE_EXCLUDED = """\
degree  offset  points  ksq  indices  multiplicities
     2       0       7    1  0,1,2    2^7
     2       2      10    2  0,1,2    2^10
     4       0       9    2  0,1,2    3^7 2^2
     6       2       9    3  0,1,2    4^9
4 rows
excluded: adjoint degree 8, multiplicities 5^7 4 3
"""

DUAL_GRAPH_TEXT = """\
fibre F0 of Ex4_3 (4 components)
  TH11 (mult 1, self -2, genus 0)
  TH9 (mult 1, self -2, genus 0)
  TH10 (mult 2, self -2, genus 0)
  TH12 (mult 2, self -1, genus 1)
edges:
  TH11 - TH10
  TH9 - TH10
  TH10 - TH12
diagrams: A3
"""

DUAL_GRAPH_DOT = """\
graph "Ex4_6_F0" {
  node [shape=circle];
  "TH2";
  "TH11";
  "TH5";
  "TH8" [peripheries=2];
  "TH2" -- "TH5";
  "TH11" -- "TH5";
  "TH5" -- "TH8";
}
"""


def test_format_multiplicities():
    assert _format_multiplicities(()) == "-"
    assert _format_multiplicities((2,)) == "2"
    assert _format_multiplicities((2,) * 7) == "2^7"
    assert _format_multiplicities((5,) * 7 + (4, 3)) == "5^7 4 3"
    assert _format_multiplicities((3, 3, 2, 2)) == "3^2 2^2"


def test_canonical_model(capsys):
    assert main(["canonical", "A"]) == 0
    assert capsys.readouterr().out == CANONICAL_A


def test_canonical_unknown_tag(capsys):
    assert main(["canonical", "Q"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown example tag 'Q'" in captured.err


def test_search_types_table(capsys):
    assert main(["search-types"]) == 0
    assert capsys.readouterr().out == SEARCH_TABLE


def test_search_types_exclusion(capsys):
    assert main(["search-types", "--apply-exclusion"]) == 0
    assert capsys.readouterr().out == SEARCH_TABLE_EXCLUDED


def test_search_types_unpruned_matches(capsys):
    assert main(["search-types", "--no-prune"]) == 0
    assert capsys.readouterr().out == SEARCH_TABLE


def test_search_types_special_window_is_empty(capsys):
    assert main(["search-types", "--special"]) == 0
    assert capsys.readouterr().out == "degree  extra  points  ksq  multiplicities\n0 rows\n"


def test_search_types_reports_the_ceiling(capsys):
    # genus 3 up to adjoint square 8 has a row at the default degree cap 12
    assert main(["search-types", "--genus", "3", "--ksq-max", "8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == [
        "19 rows",
        "ceiling reached: rows above adjoint degree 12 are not ruled out",
    ]


def test_search_types_usage_errors(capsys):
    assert main(["search-types", "--ksq-min", "0"]) == 2
    assert "must satisfy 1 <= min <= max" in capsys.readouterr().err
    assert main(["search-types", "--ksq-min", "5", "--ksq-max", "3"]) == 2
    capsys.readouterr()
    assert main(["search-types", "--genus", "3", "--apply-exclusion"]) == 2
    assert "specific to genus 2" in capsys.readouterr().err
    for genus in ("1", "0", "-2"):
        assert main(["search-types", "--genus", genus]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "the genus must be at least 2\n")


def test_search_types_exclusion_is_not_for_the_special_table(capsys):
    for genus in ("2", "3"):
        argv = ["search-types", "--special", "--apply-exclusion", "--genus", genus]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "applies to the general table only" in captured.err


def test_verify_example_text(capsys):
    assert main(["verify-example", "B1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "ok fibration: adjoint square 2, rank 12"
    assert lines[-1] == "B1: all 5 checks passed"
    assert all(line.startswith("ok ") for line in lines[:-1])


def test_verify_example_json(capsys):
    assert main(["verify-example", "ex4.3", "--report"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tag"] == "Ex4_3"
    assert payload["passed"] is True
    assert len(payload["checks"]) == 12
    assert all(c["passed"] for c in payload["checks"])
    assert payload["block_sizes"] == [2, 3, 8]
    assert payload["component_counts"] == [4, 9]
    assert payload["mordell_weil_rank"] == 0


def test_verify_report_prints_the_derived_sizes(tmp_path, monkeypatch, capsys):
    # Ex4_4 without its Finf block: the payload reports the model's fibres
    # and derived blocks, not the expected record's (2, 5, 5) and (6, 6)
    with open(os.path.join(catalog._MODELS, "Ex4_4.model"), encoding="utf-8") as handle:
        text = handle.read()
    start = text.index("fibre Finf:\n")
    (tmp_path / "Ex4_4.model").write_text(text[:start] + text[text.index("effective:"):], encoding="utf-8")
    monkeypatch.setattr(catalog, "_MODELS", str(tmp_path))
    monkeypatch.setattr(catalog, "_CACHE", {})
    assert main(["verify-example", "Ex4_4", "--report"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["block_sizes"] == [2, 5]
    assert payload["component_counts"] == [6]
    assert payload["passed"] is False


def _raise(exc):
    def broken(*args, **kwargs):
        raise exc

    return broken


def test_verify_example_library_fault_is_an_error(monkeypatch, capsys):
    from genus2pencils import catalog

    monkeypatch.setattr(catalog, "minus_one_section_exists", _raise(TypeError("bad operand")))
    assert main(["verify-example", "B1"]) == 3
    lines = capsys.readouterr().out.splitlines()
    (error,) = [line for line in lines if not line.startswith("ok ")][:-1]
    assert error.startswith("ERROR section: TypeError at test_cli.py:")
    assert error.endswith(": bad operand")
    assert lines[-1] == "B1: 1 of 5 checks raised an error"
    (check,) = [c for c in catalog.verify("B1").checks if not c.passed]
    assert check.error.startswith("TypeError at test_cli.py:")

    assert main(["verify-example", "B1", "--report"]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is False
    with_error = [c for c in payload["checks"] if "error" in c]
    assert [c["name"] for c in with_error] == ["section"]
    assert with_error[0]["error"].startswith("TypeError at test_cli.py:")


def test_verify_example_failed_claim_is_a_failure(monkeypatch, capsys):
    from genus2pencils import catalog

    monkeypatch.setattr(catalog, "minus_one_section_exists", _raise(AssertionError("wrong")))
    assert main(["verify-example", "B1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "FAIL section: wrong" in lines
    assert lines[-1] == "B1: 1 of 5 checks failed"
    assert not any(line.startswith("ERROR") for line in lines)

    assert main(["verify-example", "B1", "--report"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert not any("error" in c for c in payload["checks"])


def test_verify_example_broken_invariant_is_an_error(monkeypatch, capsys):
    from genus2pencils import sharp

    def forgetting(surface, pencil, curves, e):
        # drops the curve without contracting it, so K^2 never rises; a
        # carried curve is (coordinates, K*C, C*C, pencil*C)
        return surface, pencil, [c for c in curves if c[0] != e]

    monkeypatch.setattr(sharp, "_contract", forgetting)
    assert main(["verify-example", "A"]) == 3
    lines = capsys.readouterr().out.splitlines()
    (error,) = [line for line in lines if line.startswith("ERROR")]
    assert error.startswith("ERROR pipeline: InvariantError at sharp.py:")
    assert error.endswith("over 4 contractions")
    assert not any(line.startswith("FAIL") for line in lines)


@pytest.mark.parametrize("tag", ["B1", "C", "Ex4_4", "Ex4_6"])
def test_verify_example_greedy_fault_is_an_error(tag, monkeypatch, capsys):
    # these models have no reduction step, so only the greedy phase sees a
    # fault inside a contraction; it is a library error, not a failed claim
    from genus2pencils import sharp

    real = sharp._contract

    def doubling(surface, pencil, curves, e):
        smaller, pushed, rest = real(surface, pencil, curves, e)
        return smaller, 2 * pushed, rest

    monkeypatch.setattr(sharp, "_contract", doubling)
    assert main(["verify-example", tag]) == 3
    lines = capsys.readouterr().out.splitlines()
    (error,) = [line for line in lines if line.startswith("ERROR")]
    assert error.startswith("ERROR pipeline: InvariantError at sharp.py:")
    assert "adjoint square went from" in error
    assert not any(line.startswith("FAIL") for line in lines)


_REAL_CONTRACT = sharp._contract


def _doubling(surface, pencil, curves, e):
    # contracts, then doubles the pushed pencil: (K + pencil)^2 jumps
    smaller, pushed, rest = _REAL_CONTRACT(surface, pencil, curves, e)
    return smaller, 2 * pushed, rest


def _forgetting(surface, pencil, curves, e):
    # drops the curve without contracting it, so K^2 never rises; a
    # carried curve is (coordinates, K*C, C*C, pencil*C)
    return surface, pencil, [c for c in curves if c[0] != e]


@pytest.mark.parametrize("fake", [_doubling, _forgetting], ids=["doubling", "forgetting"])
@pytest.mark.parametrize("tag", catalog.tags())
def test_verify_example_contraction_fault_is_an_error(tag, fake, monkeypatch, capsys):
    # on every model, also where a forgetting fault leaves the greedy
    # phase without curves: the run's identities are checked first
    monkeypatch.setattr(sharp, "_contract", fake)
    assert main(["verify-example", tag]) == 3
    lines = capsys.readouterr().out.splitlines()
    (error,) = [line for line in lines if line.startswith("ERROR")]
    assert error.startswith("ERROR pipeline: InvariantError at sharp.py:")
    assert not any(line.startswith("FAIL") for line in lines)


_REAL_PIPELINE = catalog.sharp_minimal_pipeline


def _malformed_pipeline(fib, curves):
    # a library bug: the pipeline is handed a curve that is not a class
    return _REAL_PIPELINE(fib, [*curves, 5])


@pytest.mark.parametrize("tag", catalog.tags())
def test_verify_example_malformed_argument_is_an_error(tag, monkeypatch, capsys):
    # a wrong-typed argument from library code is a fault, never a failed claim
    monkeypatch.setattr(catalog, "sharp_minimal_pipeline", _malformed_pipeline)
    assert main(["verify-example", tag]) == 3
    lines = capsys.readouterr().out.splitlines()
    (error,) = [line for line in lines if line.startswith("ERROR")]
    assert error.startswith("ERROR pipeline: TypeError at ")
    assert not any(line.startswith("FAIL") for line in lines)

    assert main(["verify-example", tag, "--report"]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert [c["name"] for c in payload["checks"] if "error" in c] == ["pipeline"]


def test_verify_example_unknown_tag(capsys):
    assert main(["verify-example", "4.9"]) == 2
    assert "unknown example tag" in capsys.readouterr().err


def test_dual_graph_text(capsys):
    assert main(["dual-graph", "Ex4_3", "--fibre", "f0"]) == 0
    assert capsys.readouterr().out == DUAL_GRAPH_TEXT


def test_dual_graph_dot(capsys):
    assert main(["dual-graph", "Ex4_6", "--fibre", "F0", "--dot"]) == 0
    assert capsys.readouterr().out == DUAL_GRAPH_DOT


def test_dual_graph_unknown_fibre(capsys):
    assert main(["dual-graph", "Ex4_6", "--fibre", "F9"]) == 2
    assert "no fibre named 'F9' (known: F0, F1, Finf)" in capsys.readouterr().err


# the sextic pencil of model A blown up twice more at a point of one
# member: its strict transform C, the (-2)-curve A = E13 - E14 and the
# last exceptional curve O, counted twice, sum to F
MODEL_TEXT = """\
surface plane n=14
class F = 6 -2 -2 -2 -2 -2 -2 -2 -2 -1 -1 -1 -1 0 0
class A = 0 0 0 0 0 0 0 0 0 0 0 0 0 1 -1
class O = 0 0 0 0 0 0 0 0 0 0 0 0 0 0 1
class C = 6 -2 -2 -2 -2 -2 -2 -2 -2 -1 -1 -1 -1 -1 -1
fibre F0:
    1 A
    2 O
    1 C
"""


def test_dual_graph_from_file(tmp_path, capsys):
    path = tmp_path / "model.txt"
    path.write_text(MODEL_TEXT, encoding="utf-8")
    assert main(["dual-graph", str(path), "--fibre", "F0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("fibre F0 of ") and lines[0].endswith("(3 components)")
    assert lines[1] == "  A (mult 1, self -2, genus 0)"
    assert lines[2] == "  O (mult 2, self -1, genus 0)"
    assert lines[3] == "  C (mult 1, self -2, genus 2)"
    assert lines[4:] == ["edges:", "  A - O", "  O - C", "diagrams: A1"]


def test_dual_graph_rejects_a_fibre_that_does_not_sum_to_f(tmp_path, capsys):
    text = serialize(from_fibration(catalog.get("Ex4_3").fibration))
    assert text.count("    10 TH3 self=-2 genus=0\n") == 1
    path = tmp_path / "broken.txt"
    path.write_text(text.replace("    10 TH3 self=-2 genus=0\n", "    3 TH3 self=-2 genus=0\n"), encoding="utf-8")
    assert main(["dual-graph", str(path), "--fibre", "Finf"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "decomposition does not sum to F: fibre Finf" in captured.err


def test_dual_graph_missing_file(capsys):
    assert main(["dual-graph", "/no/such/file", "--fibre", "F0"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_dual_graph_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("surface plane n=1\nwat\n", encoding="utf-8")
    assert main(["dual-graph", str(path), "--fibre", "F0"]) == 2
    err = capsys.readouterr().err
    assert "line 2: unrecognized line 'wat'" in err


def test_dual_graph_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "bad.model"
    path.write_bytes(b"\xff\xfe")
    assert main(["dual-graph", str(path), "--fibre", "F0"]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line == f"cannot read {str(path)!r}: not UTF-8 text (byte 0)"


# a quoted DOT ID: no bare double quote, any backslash escapes one character
DOT_ID = r'"(?:[^"\\]|\\.)*"'


def test_dual_graph_dot_escapes_quotes_and_backslashes(tmp_path, capsys):
    text = (Path(catalog.__file__).parent / "models" / "Ex4_6.model").read_text(encoding="utf-8")
    text = re.sub(r"\bTH2\b", 'TH2"x', text).replace("fibre F0:", "fibre F\\0:")
    path = tmp_path / "quoted.model"
    path.write_text(text, encoding="utf-8")
    assert main(["dual-graph", str(path), "--fibre", "F\\0", "--dot"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert re.fullmatch(rf"graph {DOT_ID} {{", lines[0])
    assert lines[0].endswith('_F\\\\0" {')
    # the catalog fibre's graph, with the one name escaped
    assert lines[1:] == DUAL_GRAPH_DOT.replace('"TH2"', '"TH2\\"x"').splitlines()[1:]
    statement = re.compile(rf"  {DOT_ID}( -- {DOT_ID})?( \[\w+=(\w+|{DOT_ID})\])?;")
    assert all(statement.fullmatch(line) for line in lines[2:-1])


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "genus2pencils.cli", "canonical", "A"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == CANONICAL_A

"""Catalog verification: every built-in model must reproduce its record.

The per-tag check lists are frozen so that a silently skipped check (a
condition that stops being exercised) fails loudly here.
"""

from __future__ import annotations

import os

import oracles
import pytest

from genus2pencils import catalog
from genus2pencils.cli import main
from genus2pencils.fibres import _gram, complement_lattice, orthogonal_decomposition_check
from genus2pencils.intmat import hermite_normal_form

CHECKS = {
    "A": ("fibration", "numeric-type", "pipeline", "section"),
    "B1": ("fibration", "numeric-type", "pipeline", "section", "pencil-identity"),
    "B2": ("fibration", "numeric-type", "pipeline", "section"),
    "C": (
        "fibration",
        "numeric-type",
        "pipeline",
        "section",
        "pencil-identity",
        "pencil-query",
        "cremona",
    ),
    "Ex4_3": (
        "fibration",
        "numeric-type",
        "fibres",
        "dual-graphs",
        "section-meets",
        "shioda",
        "blocks",
        "complement",
        "fibre-degrees",
        "pipeline",
        "section",
        "reconstructed-E8",
    ),
    "Ex4_4": (
        "fibration",
        "numeric-type",
        "fibres",
        "dual-graphs",
        "section-meets",
        "shioda",
        "blocks",
        "complement",
        "fibre-degrees",
        "pipeline",
        "section",
        "pencil-identity",
    ),
    "Ex4_5": (
        "fibration",
        "numeric-type",
        "fibres",
        "dual-graphs",
        "section-meets",
        "shioda",
        "blocks",
        "complement",
        "fibre-degrees",
        "pipeline",
        "section",
        "reconstructed-EH8",
    ),
    "Ex4_6": (
        "fibration",
        "numeric-type",
        "fibres",
        "dual-graphs",
        "section-meets",
        "shioda",
        "blocks",
        "complement",
        "fibre-degrees",
        "pipeline",
        "section",
        "pencil-identity",
        "pencil-query",
        "cremona",
    ),
}


def test_tag_listing_matches_check_table():
    assert catalog.tags() == tuple(CHECKS)


@pytest.mark.parametrize("tag", tuple(CHECKS))
def test_catalog_entry_verifies(tag):
    report = catalog.verify(tag)
    assert tuple(c.name for c in report.checks) == CHECKS[tag]
    failed = [c for c in report.checks if not c.passed]
    assert report.passed, failed
    for check in report.checks:
        assert check.detail


def test_extremal_entries_certify_rank_zero():
    for tag in ("Ex4_3", "Ex4_4", "Ex4_5", "Ex4_6"):
        entry = catalog.get(tag)
        assert entry.expected.mordell_weil_rank == 0
        assert entry.blocks[0][0] == "F"
        assert sum(entry.expected.block_sizes) == entry.expected.picard_rank


def test_blocks_are_derived_from_the_fibres():
    # each model's trivial lattice, written out by hand: each derived
    # block holds the same classes, in the same block order
    written = {
        "Ex4_3": (("F", "O"), ("TH9", "TH10", "TH12"), tuple(f"TH{i}" for i in range(1, 9))),
        "Ex4_4": (("F", "O"), ("TH7", "TH8", "TH9", "TH10", "TH11"),
                  ("TH1", "TH3", "TH4", "TH5", "TH6")),
        "Ex4_5": (("F", "O"), tuple(f"TH{i}" for i in range(10))),
        "Ex4_6": (("F", "O"), ("TH5", "TH8", "TH11"), ("TH6", "TH9", "TH12"),
                  ("TH7", "TH10", "TH13")),
    }
    for tag in catalog.tags():
        blocks = catalog.get(tag).blocks
        assert [set(b) for b in blocks] == [set(b) for b in written.get(tag, ())], tag
        assert all(len(set(b)) == len(b) for b in blocks)
    # within a block, the fibre's components keep their file order
    assert catalog.get("Ex4_6").blocks[1] == ("TH11", "TH5", "TH8")


def test_a_missing_fibre_fails_the_lattice_checks(tmp_path, monkeypatch):
    with open(os.path.join(catalog._MODELS, "Ex4_4.model"), encoding="utf-8") as handle:
        text = handle.read()
    start = text.index("fibre Finf:\n")
    end = text.index("effective:")
    assert text[start:end].count("\n") == 7
    (tmp_path / "Ex4_4.model").write_text(text[:start] + text[end:], encoding="utf-8")
    monkeypatch.setattr(catalog, "_MODELS", str(tmp_path))
    monkeypatch.setattr(catalog, "_CACHE", {})
    assert catalog.get("Ex4_4").blocks == (("F", "O"), ("TH7", "TH8", "TH9", "TH10", "TH11"))
    checks = {c.name: c for c in catalog.verify("Ex4_4").checks}
    # the blocks and the Shioda rank are read off the model, not the record
    for name in ("shioda", "blocks", "complement"):
        assert (checks[name].passed, checks[name].error) == (False, None), name
    assert checks["shioda"].detail == "shioda rank 5"
    assert "not a basis: 7 classes on a rank-12 lattice" in checks["blocks"].detail
    assert checks["complement"].detail == "block span is not the full orthogonal complement"


EXTREMAL = ("Ex4_3", "Ex4_4", "Ex4_5", "Ex4_6")


def _kernel_oracle(fib, rest):
    """The complement check by the kernel route: (passes, detail).  The
    saturated complement of <F, O> is in Hermite form, so the rest
    classes span it exactly when their Hermite form is its basis."""
    comp = complement_lattice(fib.surface, (fib.fibre_class, fib.named("O")))
    spans = tuple(c.coords for c in comp.basis) == hermite_normal_form([c.coords for c in rest])
    return spans, f"complement rank {len(comp.basis)}, discriminant {comp.discriminant}"


@pytest.mark.parametrize("tag", EXTREMAL)
def test_complement_certificate_agrees_with_the_kernel_oracle(tag):
    entry = catalog.get(tag)
    fib = entry.fibration
    rest = [fib.named(n) for block in entry.blocks[1:] for n in block]
    checks = {c.name: c for c in catalog.verify(tag).checks}
    assert (checks["complement"].passed, checks["complement"].detail) == _kernel_oracle(fib, rest)
    assert checks["complement"].passed


@pytest.mark.parametrize("tag", EXTREMAL)
def test_an_index_two_block_span_fails_the_complement_check(tag, monkeypatch):
    # doubling one rest class leaves a sublattice of index 2 in the
    # complement: the determinant certificate and the kernel oracle both
    # reject it
    entry = catalog.get(tag)
    fib = entry.fibration
    doubled = entry.blocks[1][0]
    named = tuple((n, c + c if n == doubled else c) for n, c in fib.named_classes)
    broken = fib._replace(named_classes=named)
    monkeypatch.setitem(catalog._CACHE, tag, entry._replace(fibration=broken))
    rest = [broken.named(n) for block in entry.blocks[1:] for n in block]
    assert not _kernel_oracle(broken, rest)[0]
    checks = {c.name: c for c in catalog.verify(tag).checks}
    assert (checks["complement"].passed, checks["complement"].error) == (False, None)
    assert checks["complement"].detail == "block span is not the full orthogonal complement"
    assert (checks["blocks"].passed, checks["blocks"].error) == (False, None)
    assert checks["blocks"].detail == "not a basis: index 2"


def test_one_verify_builds_each_gram_matrix_once(monkeypatch):
    # the fibres check reads back the two matrices the model's loading
    # built, dual-graphs reads them again, and complement reads the one
    # of blocks: 2 + 2 + 1 hits
    _gram.cache_clear()
    monkeypatch.setattr(catalog, "_CACHE", {})
    catalog.verify("Ex4_3")
    info = _gram.cache_info()
    # the two fibres' component matrices and the blocks' 13 x 13 one
    assert info.misses == info.currsize == 3
    assert info.hits == 5
    # a loaded model's verify builds only the blocks' matrix again
    _gram.cache_clear()
    catalog.verify("Ex4_3")
    assert _gram.cache_info()[:2] == (3, 3)


def test_verify_resolves_each_name_as_fibration_named_does(monkeypatch):
    # a missing name is a KeyError fault in each check that asks for it,
    # and a repeated name resolves to its first binding
    entry = catalog.get("C")
    fib = entry.fibration
    missing = fib._replace(named_classes=tuple((n, c) for n, c in fib.named_classes if n != "P"))
    monkeypatch.setitem(catalog._CACHE, "C", entry._replace(fibration=missing))
    checks = {c.name: c for c in catalog.verify("C").checks}
    for name in ("section", "pencil-identity", "pencil-query"):
        assert (checks[name].passed, checks[name].detail) == (False, "'P'")
        assert checks[name].error.startswith("KeyError at ")
    assert all(c.passed for n, c in checks.items() if not n.startswith(("section", "pencil")))
    repeated = fib._replace(named_classes=fib.named_classes + (("P", fib.fibre_class),))
    monkeypatch.setitem(catalog._CACHE, "C", entry._replace(fibration=repeated))
    assert catalog.verify("C").passed


RECONSTRUCTED = (("Ex4_3", "E8"), ("Ex4_5", "EH8"))


@pytest.mark.parametrize("tag, name", RECONSTRUCTED)
def test_reconstructed_class_is_the_enumerated_solution(tag, name):
    # the check enumerates nothing; the class-by-class filter up to
    # degree 3 finds the stored class and no other
    fib = catalog.get(tag).fibration
    ((stored, query, constraints),) = catalog.get(tag).expected.reconstructed
    assert stored == name
    assert oracles.reconstructed_solutions(fib, query, constraints) == [fib.named(name)]
    rows = [(fib.fibre_class if n == "F" else fib.named(n)).coords for n, _ in constraints]
    assert oracles.rational_rank(rows) == fib.surface.rank


def _reconstruction_failure(monkeypatch, capsys, tag, change):
    """verify-example's exit code and its lines other than ok, with the
    tag's one reconstruction claim (name, query, constraints) changed."""
    claims = catalog._CLAIMS[tag]
    (claim,) = claims.expected.reconstructed
    expected = claims.expected._replace(reconstructed=(change(*claim),))
    monkeypatch.setitem(catalog._CLAIMS, tag, claims._replace(expected=expected))
    monkeypatch.setattr(catalog, "_CACHE", {})
    code = main(["verify-example", tag])
    return code, [line for line in capsys.readouterr().out.splitlines() if not line.startswith("ok ")]


@pytest.mark.parametrize("tag, name", RECONSTRUCTED)
def test_reconstruction_with_a_short_rank_fails(tag, name, monkeypatch, capsys):
    fib = catalog.get(tag).fibration
    ((_, _, constraints),) = catalog.get(tag).expected.reconstructed
    rows = [(fib.fibre_class if n == "F" else fib.named(n)).coords for n, _ in constraints]
    kept = len(rows)
    while oracles.rational_rank(rows[:kept]) == fib.surface.rank:
        kept -= 1
    rank = oracles.rational_rank(rows[:kept])
    code, lines = _reconstruction_failure(
        monkeypatch, capsys, tag, lambda n, q, c: (n, q, c[:kept])
    )
    # a short rank fails even when no other class of degree at most 3 fits
    assert code == 1
    assert lines == [
        f"FAIL reconstructed-{name}: constraint rank {rank}, expected {fib.surface.rank}",
        f"{tag}: 1 of 12 checks failed",
    ]


@pytest.mark.parametrize("tag, name", RECONSTRUCTED)
def test_reconstruction_with_a_wrong_constraint_value_fails(tag, name, monkeypatch, capsys):
    def wrong(n, q, c):
        return n, q, c[:2] + ((c[2][0], c[2][1] + 1),) + c[3:]

    code, lines = _reconstruction_failure(monkeypatch, capsys, tag, wrong)
    assert code == 1
    assert lines == [
        f"FAIL reconstructed-{name}: {name} pairs 1 with TH7, expected 2",
        f"{tag}: 1 of 12 checks failed",
    ]


@pytest.mark.parametrize("tag, name", RECONSTRUCTED)
def test_reconstruction_with_wrong_numerics_fails(tag, name, monkeypatch, capsys):
    swapped = {(-1, -1): (-2, 0), (-2, 0): (-1, -1)}
    ((_, query, _),) = catalog.get(tag).expected.reconstructed
    code, lines = _reconstruction_failure(
        monkeypatch, capsys, tag, lambda n, q, c: (n, swapped[q], c)
    )
    assert code == 1
    assert lines == [
        f"FAIL reconstructed-{name}: {name} has C*C, K*C = {query} at degree 0, "
        f"expected {swapped[query]} at 0..3",
        f"{tag}: 1 of 12 checks failed",
    ]


def test_reconstruction_beyond_degree_three_fails(tmp_path, monkeypatch, capsys):
    # a (-1)-class of degree 4 has the queried numerics but lies outside
    # the range the printed claim covers
    with open(os.path.join(catalog._MODELS, "Ex4_3.model"), encoding="utf-8") as handle:
        text = handle.read()
    quartic = "class Q = 4 -2 -2 -2 -1 -1 -1 -1 -1 0 0 0 0\n"
    text = text.replace("fibre F0:", quartic + "fibre F0:")
    (tmp_path / "Ex4_3.model").write_text(text, encoding="utf-8")
    monkeypatch.setattr(catalog, "_MODELS", str(tmp_path))
    code, lines = _reconstruction_failure(
        monkeypatch, capsys, "Ex4_3", lambda n, q, c: ("Q", q, c)
    )
    assert code == 1
    assert lines == [
        "FAIL reconstructed-Q: Q has C*C, K*C = (-1, -1) at degree 4, expected (-1, -1) at 0..3",
        "Ex4_3: 1 of 12 checks failed",
    ]


def test_normalize_tag_spellings():
    for raw in ("a", " A ", "A"):
        assert catalog.normalize_tag(raw) == "A"
    assert catalog.normalize_tag("b1") == "B1"
    for raw in ("4.3", "4_3", "4-3", "ex4.3", "Ex4_3", "EX4-3"):
        assert catalog.normalize_tag(raw) == "Ex4_3"
    assert catalog.normalize_tag("ex4.6") == "Ex4_6"
    for raw in ("D", "4.7", "Ex4_2", "", "ex"):
        with pytest.raises(KeyError, match="unknown example tag"):
            catalog.normalize_tag(raw)


@pytest.mark.parametrize("tag", (5, None, b"A"), ids=("int", "none", "bytes"))
def test_a_tag_that_is_not_a_string_is_unknown(tag):
    for lookup in (catalog.normalize_tag, catalog.get):
        with pytest.raises(KeyError) as info:
            lookup(tag)
        assert info.value.args == (f"unknown example tag {tag!r}",)


def test_get_caches_entries():
    assert catalog.get("4.5") is catalog.get("Ex4_5")
    assert catalog.get("A").tag == "A"


def test_misfiled_block_class_breaks_orthogonality():
    # moving TH11 into the second block makes it meet the zero section
    entry = catalog.get("Ex4_3")
    fib = entry.fibration
    blocks = [list(names) for names in entry.blocks]
    assert blocks[1] == ["TH9", "TH10", "TH12"]
    blocks[1][2] = "TH11"
    classes = [[fib.named(n) for n in block] for block in blocks]
    report = orthogonal_decomposition_check(fib, classes)
    assert not report.passed
    assert any("not orthogonal" in m for m in report.messages)


def test_corrupted_fibre_class_fails_validation():
    entry = catalog.get("B2")
    wrong = entry.fibration.fibre_class + entry.fibration.surface.exceptional(1)
    broken = entry.fibration._replace(fibre_class=wrong)
    with pytest.raises(Exception, match="self-intersection"):
        broken.validate()


def test_annotations_and_titles():
    assert catalog.get("Ex4_3").annotation
    for tag in CHECKS:
        assert catalog.get(tag).title


def test_check_outcomes_are_pass_fail_or_error():
    from genus2pencils.curves import BudgetExceededError
    from genus2pencils.lattice import LatticeError
    from genus2pencils.sharp import InvariantError

    def raising(exc):
        def check():
            raise exc

        return check

    checks: list[catalog.CheckResult] = []
    catalog._run(checks, "holds", lambda: "fine")
    catalog._run(checks, "claim", raising(AssertionError("claim broken")))
    catalog._run(checks, "lattice", raising(LatticeError("not a class")))
    catalog._run(checks, "fault", raising(KeyError("P")))
    # a broken library invariant is a RuntimeError and an argument of the
    # wrong type a TypeError, so both are faults; running out of budget
    # leaves the claim unproved, a failure
    catalog._run(checks, "invariant", raising(InvariantError("invariant broken")))
    catalog._run(checks, "budget", raising(BudgetExceededError("budget exceeded")))
    catalog._run(checks, "argument", raising(TypeError("fib must be a Fibration, not 5")))
    assert [(c.name, c.passed, c.error is None) for c in checks] == [
        ("holds", True, True),
        ("claim", False, True),
        ("lattice", False, True),
        ("fault", False, False),
        ("invariant", False, False),
        ("budget", False, True),
        ("argument", False, False),
    ]
    assert checks[3].error.startswith("KeyError at test_catalog.py:")
    assert checks[4].error.startswith("InvariantError at test_catalog.py:")
    assert checks[6].error.startswith("TypeError at test_catalog.py:")

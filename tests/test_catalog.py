"""Catalog verification: every built-in model must reproduce its record.

The per-tag check lists are frozen so that a silently skipped check (a
condition that stops being exercised) fails loudly here.
"""

from __future__ import annotations

import os

import pytest

from genus2pencils import catalog
from genus2pencils.fibres import orthogonal_decomposition_check

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
    # a broken library invariant is a fault although it is a LatticeError;
    # running out of budget leaves the claim unproved, a failure
    catalog._run(checks, "invariant", raising(InvariantError("invariant broken")))
    catalog._run(checks, "budget", raising(BudgetExceededError("budget exceeded")))
    assert [(c.name, c.passed, c.error is None) for c in checks] == [
        ("holds", True, True),
        ("claim", False, True),
        ("lattice", False, True),
        ("fault", False, False),
        ("invariant", False, False),
        ("budget", False, True),
    ]
    assert checks[3].error.startswith("KeyError at test_catalog.py:")
    assert checks[4].error.startswith("InvariantError at test_catalog.py:")

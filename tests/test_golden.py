"""Byte-for-byte CLI output for every catalog tag.

The files under tests/golden/ were recorded with the command line tool
before the catalog's builders were rewritten on top of the base-pencil
table; any change to an entry's data, to a check's detail text or to the
report format shows up here as a diff.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from genus2pencils import catalog
from genus2pencils.cli import main

GOLDEN = Path(__file__).parent / "golden"
TAGS = ("A", "B1", "B2", "C", "Ex4_3", "Ex4_4", "Ex4_5", "Ex4_6")
COMMANDS = {
    "verify.txt": ("verify-example",),
    "report.json": ("verify-example", "--report"),
    "canonical.txt": ("canonical",),
}


def test_golden_files_cover_the_catalog():
    assert catalog.tags() == TAGS
    recorded = sorted(p.name for p in GOLDEN.iterdir())
    assert recorded == sorted(f"{tag}.{suffix}" for tag in TAGS for suffix in COMMANDS)


@pytest.mark.parametrize("suffix", sorted(COMMANDS))
@pytest.mark.parametrize("tag", TAGS)
def test_cli_output_matches_golden(tag, suffix, capsys):
    command, *flags = COMMANDS[suffix]
    assert main([command, tag, *flags]) == 0
    got = capsys.readouterr().out
    assert got == (GOLDEN / f"{tag}.{suffix}").read_bytes().decode()

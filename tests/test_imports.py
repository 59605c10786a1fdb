"""Lazy package exports and per-command CLI imports.

Each check runs in a fresh interpreter, so modules the test process has
already imported cannot hide an export that fails to resolve or a command
that loads more than it uses.  Every assertion is about which names and
modules exist, never about time.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import genus2pencils

# the directory holding the package under test, first on the child's path
SRC = os.path.dirname(os.path.dirname(os.path.abspath(genus2pencils.__file__)))

PRELUDE = """
import json, sys
from importlib import import_module
import genus2pencils as g

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "genus2pencils")

def dataclasses_defined():
    return sum(
        1
        for m in loaded()
        for v in vars(sys.modules[m]).values()
        if isinstance(v, type) and v.__module__ == m and "__dataclass_fields__" in v.__dict__
    )
"""


def _child(code: str):
    """Run PRELUDE + code in a new interpreter; its last stdout line is JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_package_import_loads_no_submodule():
    assert _child("print(json.dumps(loaded()))") == ["genus2pencils"]


def test_every_export_resolves_to_its_defining_module():
    wrong = _child(
        """
out = []
for name in g.__all__:
    value = getattr(g, name)
    if name == "__version__":
        continue
    home = import_module("genus2pencils." + g._EXPORTS[name])
    if value is not getattr(home, name) or name not in home.__all__:
        out.append(name)
print(json.dumps(out))
"""
    )
    assert wrong == []


def test_star_import_binds_every_name():
    unbound = _child(
        """
ns = {}
exec("from genus2pencils import *", ns)
print(json.dumps(sorted(set(g.__all__) - set(ns))))
"""
    )
    assert unbound == []


def test_dir_covers_all():
    assert _child("print(json.dumps(sorted(set(g.__all__) - set(dir(g)))))") == []


def test_unknown_name_raises_attribute_error():
    got = _child(
        """
try:
    g.no_such_export
except AttributeError as exc:
    out = [str(exc)]
try:
    from genus2pencils import no_such_export
except ImportError:
    out.append("ImportError")
print(json.dumps(out + loaded()))
"""
    )
    assert got == [
        "module 'genus2pencils' has no attribute 'no_such_export'",
        "ImportError",
        "genus2pencils",
    ]


def test_export_table_and_all_agree():
    # __all__ is __version__ and then every table entry, each once
    names, table = _child("print(json.dumps([g.__all__, sorted(g._EXPORTS)]))")
    assert names == ["__version__", *table]


# standard-library modules the package does not need: dataclasses pulls in
# inspect (and through it ast, dis and tokenize), fractions pulls in decimal
HEAVY = ("dataclasses", "inspect", "fractions", "decimal")


def _after_command(argv: list[str]):
    """(package modules loaded, dataclasses defined, HEAVY modules loaded)
    after one CLI command in a fresh interpreter."""
    return _child(
        f"""
import contextlib, io
from genus2pencils.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    try:
        main({argv!r})
    except SystemExit:
        pass
print(json.dumps([loaded(), dataclasses_defined(), [m for m in {HEAVY!r} if m in sys.modules]]))
"""
    )


def test_search_types_loads_numerics_alone():
    modules, dataclasses, heavy = _after_command(["search-types"])
    assert modules == ["genus2pencils", "genus2pencils.cli", "genus2pencils.numerics"]
    assert dataclasses == 0
    assert heavy == []


def test_help_loads_no_library_module():
    modules, dataclasses, heavy = _after_command(["--help"])
    assert modules == ["genus2pencils", "genus2pencils.cli"]
    assert dataclasses == 0
    assert heavy == []


@pytest.mark.parametrize(
    "argv",
    (
        ["canonical", "A"],
        ["verify-example", "Ex4_3"],
        ["dual-graph", "Ex4_3", "--fibre", "F0"],
        ["dual-graph", os.path.join(SRC, "genus2pencils", "models", "Ex4_3.model"), "--fibre", "F0"],
    ),
)
def test_model_commands_create_few_dataclasses(argv):
    # every record type is a tuple or a plain class, so none is a dataclass
    modules, dataclasses, heavy = _after_command(argv)
    assert "genus2pencils.catalog" in modules
    assert dataclasses == 0
    assert heavy == []


def test_catalog_import_loads_no_dataclasses_or_fractions():
    modules, heavy = _child(
        f"""
from genus2pencils import catalog
print(json.dumps([loaded(), [m for m in {HEAVY!r} if m in sys.modules]]))
"""
    )
    assert "genus2pencils.catalog" in modules
    assert heavy == []

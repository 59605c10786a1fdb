"""Lazy package exports, per-command CLI imports and unused imports.

Each run-time check runs in a fresh interpreter, so modules the test
process has already imported cannot hide an export that fails to resolve
or a command that loads more than it uses.  Every assertion is about which
names and modules exist, never about time.  The unused-import check reads
the package's source with ast and runs none of it.
"""

from __future__ import annotations

import ast
import glob
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


def _child(code: str, *flags: str):
    """Run PRELUDE + code in a new interpreter started with ``flags``; its
    last stdout line is JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, *flags, "-c", PRELUDE + code], capture_output=True, text=True, env=env
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
    # numerics and the record base its rows are built on
    modules, dataclasses, heavy = _after_command(["search-types"])
    assert modules == [
        "genus2pencils", "genus2pencils._record", "genus2pencils.cli", "genus2pencils.numerics",
    ]
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


# Without site (python -S) the interpreter starts with almost nothing
# loaded, so this sees every standard-library module the package pulls in.
# typing is one: annotations are strings, records need no NamedTuple.
@pytest.mark.parametrize(
    "code",
    (
        "from genus2pencils import catalog",
        """
import contextlib, io
from genus2pencils.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(["search-types"])
""",
    ),
    ids=("catalog", "search-types"),
)
def test_without_site_no_typing_or_heavy_module_loads(code):
    unwanted = ("typing", *HEAVY)
    assert _child(f"{code}\nprint(json.dumps([m for m in {unwanted!r} if m in sys.modules]))", "-S") == []


def _module_imports(tree: ast.Module):
    """(bound name, line) of every import at module level, including those
    under a module-level ``if`` such as ``if TYPE_CHECKING:``; __future__
    imports bind nothing."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.If):
            pending.extend(node.body + node.orelse)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, the names in __all__, and the names in
    string annotations (parsed as expressions)."""
    used = set()
    strings = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(
                n.value for n in ast.walk(node.value) if isinstance(n, ast.Constant)
            )
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in filter(None, annotations):
            strings.extend(
                n.value for n in ast.walk(annotation)
                if isinstance(n, ast.Constant) and isinstance(n.value, str)
            )
    for text in strings:
        used.update(n.id for n in ast.walk(ast.parse(text, mode="eval")) if isinstance(n, ast.Name))
    return used


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(glob.glob(os.path.join(SRC, "genus2pencils", "*.py"))):
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), path)
        used = _used_names(tree)
        unused.extend(
            f"{os.path.basename(path)}:{line}: {name}"
            for name, line in _module_imports(tree)
            if name not in used
        )
    assert sorted(unused) == []


# a raise whose message says that an argument has the wrong type; no
# message about the mathematics uses these phrases
_WRONG_TYPE_PHRASES = (
    "must be a ", "must be an integer", "must be integers", "must hold integers",
    "not a divisor class", "divisor classes", "need a divisor class", "not on ",
)


def test_every_wrong_type_message_is_a_type_error():
    """A wrong-typed argument is a TypeError, so verify files it as a fault
    in the library; a LatticeError would read as a failed claim."""
    from genus2pencils.lattice import LatticeError
    from genus2pencils.sharp import InvariantError

    raised = []
    for path in sorted(glob.glob(os.path.join(SRC, "genus2pencils", "*.py"))):
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), path)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)):
                continue
            message = "".join(
                n.value for arg in node.exc.args for n in ast.walk(arg)
                if isinstance(n, ast.Constant) and isinstance(n.value, str)
            )
            if any(phrase in message for phrase in _WRONG_TYPE_PHRASES):
                site = f"{os.path.basename(path)}:{node.lineno}"
                raised.append((site, ast.unparse(node.exc.func)))
    # the sites: _expect, _integer and the hand-written checks
    assert len(raised) == 17
    assert [site for site, name in raised if name != "TypeError"] == []
    # a broken invariant is a fault too, so it is no LatticeError
    assert not issubclass(InvariantError, LatticeError)

"""The contract every tuple record of the package keeps.

Each record class is a tuple of its named fields: construction by
position, by keyword and with defaults; ``_fields``, ``_field_defaults``,
``_make``, ``_replace``, ``_asdict`` and ``__match_args__``; the
``Name(field=value, ...)`` repr; equality and hash of the plain tuple;
pickle and copy round trips; read-only fields and no instance
``__dict__``.  The classes are found by walking the package's modules,
so a record added or removed without updating RECORDS fails here, and
so does a tuple class that is no record unless NOT_RECORDS names it.
Every record declares its fields in its own class body.  NumericType,
SpecialType and ClassQuery validate in a ``__new__`` of their own, next
to their fields, so they get sample values that pass their checks and
one value that fails.  Creating a record class compiles no code: every
``__new__`` is a function of the package's source files.
"""

from __future__ import annotations

import copy
import json
import os
import pickle
import subprocess
import sys
from importlib import import_module

import pytest

from genus2pencils._record import Record
from genus2pencils.lattice import LatticeError

MODULES = ("catalog", "cli", "curves", "fibres", "intmat", "lattice", "modelfile", "numerics", "sharp")

RECORDS = (
    "catalog.ExpectedData", "catalog.CatalogEntry", "catalog.CheckResult",
    "catalog.VerifyReport", "catalog._Claims",
    "curves.ClassQuery", "curves._Orbit", "curves.SectionSearch",
    "fibres.FibreComponent", "fibres.FibreDecomposition", "fibres.FibreReport",
    "fibres.DualGraph", "fibres.DecompositionReport", "fibres.ComplementLattice",
    "lattice.ElementaryTransformResult", "lattice.Fibration",
    "modelfile.ModelFile",
    "numerics.NumericType", "numerics.SpecialType", "numerics.MinimalAmbientVerdict",
    "numerics.ExclusionCertificate",
    "sharp.TraceStep", "sharp.ContractionTrace", "sharp.ReducedPencil",
    "sharp.ElementaryTransformRepair", "sharp.SharpModelData", "sharp.PlaneModel",
    "sharp.PipelineResult",
)

# the tuple classes that are not records: a divisor class is its
# (surface, coords) pair, with its own repr, arithmetic and equality
NOT_RECORDS = ("lattice.DivisorClass",)


def _record(path: str) -> type:
    module, name = path.split(".")
    return getattr(import_module(f"genus2pencils.{module}"), name)


# (valid values, the same values with one field replaced by a value the
# constructor rejects, the error) for the records that validate
VALIDATED = {
    "curves.ClassQuery": ((-1, -1, 2), {"degree_cap": 0}, LatticeError),
    "numerics.NumericType": ((2, 0, (2,) * 7, 1), {"adjoint_square": 2}, ValueError),
    "numerics.SpecialType": ((3, 2, (2, 2), 13), {"adjoint_square": 12}, ValueError),
}


def _values(path: str) -> tuple:
    """One value per field: a validated record's sample, else a distinct,
    hashable and picklable string per field."""
    if path in VALIDATED:
        return VALIDATED[path][0]
    return tuple(f"{path}.{name}" for name in _record(path)._fields)


def _required(kind: type) -> int:
    return len(kind._fields) - len(kind._field_defaults)


def test_every_record_class_is_listed():
    found = set()
    for module in MODULES:
        mod = import_module(f"genus2pencils.{module}")
        for name, value in vars(mod).items():
            if isinstance(value, type) and value.__module__ == mod.__name__ and issubclass(value, tuple):
                found.add(f"{module}.{name}")
    assert found == set(RECORDS) | set(NOT_RECORDS)
    assert len(RECORDS) == 28
    assert not any(issubclass(_record(path), Record) for path in NOT_RECORDS)
    # each record declares its fields in its own body, none in a base
    for path in RECORDS:
        kind = _record(path)
        assert tuple(vars(kind).get("__annotations__", {})) == kind._fields, path


@pytest.fixture(params=RECORDS)
def path(request) -> str:
    return request.param


def test_fields_defaults_and_match_args(path):
    kind = _record(path)
    fields = kind._fields
    # the field names are the annotations of the class that declares them
    declared = next(vars(k)["__annotations__"] for k in kind.__mro__ if vars(k).get("__annotations__"))
    assert fields == tuple(declared) and len(set(fields)) == len(fields)
    assert kind.__match_args__ == fields
    # the defaulted fields are the trailing ones
    assert tuple(kind._field_defaults) == fields[_required(kind):]


def test_positional_keyword_and_default_construction(path):
    kind, values = _record(path), _values(path)
    x = kind(*values)
    assert type(x) is kind and tuple(x) == values
    assert tuple(getattr(x, name) for name in kind._fields) == values
    assert kind(**dict(zip(kind._fields, values))) == x
    k = _required(kind)
    assert kind(*values[:1], **dict(zip(kind._fields[1:k], values[1:k]))) == kind(*values[:k])
    assert kind(*values[:k]) == values[:k] + tuple(kind._field_defaults.values())


def test_missing_and_unknown_fields_raise_type_error(path):
    kind, values = _record(path), _values(path)
    k = _required(kind)
    with pytest.raises(TypeError, match=f"missing 1 required positional argument: '{kind._fields[k - 1]}'"):
        kind(*values[: k - 1])
    with pytest.raises(TypeError, match="unexpected keyword argument 'no_such_field'"):
        kind(*values, no_such_field=1)
    with pytest.raises(TypeError, match="positional arguments? but"):
        kind(*values, None)
    with pytest.raises(TypeError, match=f"multiple values for argument '{kind._fields[0]}'"):
        kind(*values, **{kind._fields[0]: values[0]})


def test_make_replace_and_asdict(path):
    kind, values = _record(path), _values(path)
    x = kind(*values)
    made = kind._make(iter(values))
    assert type(made) is kind and made == x
    with pytest.raises(TypeError):
        kind._make(values + (None,))
    last = kind._fields[-1]
    if path not in VALIDATED:
        y = x._replace(**{last: "new"})
        assert type(y) is kind and y == values[:-1] + ("new",) and x == values
    assert x._replace() == x and type(x._replace()) is kind
    with pytest.raises(ValueError, match="no_such_field"):
        x._replace(no_such_field=1)
    assert x._asdict() == dict(zip(kind._fields, values))
    assert list(x._asdict()) == list(kind._fields)


@pytest.mark.skipif(sys.version_info < (3, 13), reason="copy.replace is new in Python 3.13")
def test_copy_replace_is_replace():
    for path in RECORDS:
        kind, values = _record(path), _values(path)
        x = kind(*values)
        assert copy.replace(x) == x and type(copy.replace(x)) is kind


def test_repr_equality_and_hash(path):
    kind, values = _record(path), _values(path)
    x = kind(*values)
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(kind._fields, values))
    assert repr(x) == f"{kind.__name__}({fields})"
    assert x == values and values == x and hash(x) == hash(values)
    assert x == kind(*values) and x != values[:-1] and len({x, kind(*values)}) == 1


def test_pickle_and_copy_round_trips(path):
    kind, values = _record(path), _values(path)
    x = kind(*values)
    copies = [pickle.loads(pickle.dumps(x, protocol)) for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)]
    for y in (*copies, copy.copy(x), copy.deepcopy(x)):
        assert type(y) is kind and y == x and repr(y) == repr(x)


def test_fields_are_read_only_and_there_is_no_instance_dict(path):
    kind, values = _record(path), _values(path)
    x = kind(*values)
    name = kind._fields[0]
    with pytest.raises(AttributeError):
        setattr(x, name, values[0])
    with pytest.raises(AttributeError):
        delattr(x, name)
    with pytest.raises(AttributeError):
        x.no_such_field = 1
    assert not hasattr(x, "__dict__")
    assert all("__dict__" not in vars(k) for k in kind.__mro__ if k is not object)


@pytest.mark.parametrize("path", sorted(VALIDATED))
def test_replace_and_pickle_validate_again(path):
    kind = _record(path)
    values, change, error = VALIDATED[path]
    bad_values = tuple(change.get(name, v) for name, v in zip(kind._fields, values))
    with pytest.raises(error):
        kind(*values)._replace(**change)
    with pytest.raises(error):
        kind._make(bad_values)
    bad = tuple.__new__(kind, bad_values)
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        with pytest.raises(error):
            pickle.loads(pickle.dumps(bad, protocol))
    for round_trip in (copy.copy, copy.deepcopy):
        with pytest.raises(error):
            round_trip(bad)


def test_no_record_new_is_compiled_from_a_string(path):
    code = _record(path).__new__.__code__
    assert os.path.isfile(code.co_filename)
    assert os.path.basename(os.path.dirname(code.co_filename)) == "genus2pencils"


def test_creating_a_record_class_runs_no_compile_or_exec():
    # an audit hook cannot be removed, so it is installed in a child
    # interpreter; the class statements run after every import
    code = """
import json, pickle, sys
from genus2pencils._record import Record
events = []
sys.addaudithook(lambda event, args: events.append(event) if event in ("compile", "exec") else None)

class Point(Record):
    x: int
    y: int = 0

class Checked(Point):
    def __new__(cls, x, y=0):
        return super().__new__(cls, x, y)

class Natural(Record):
    n: int
    step: int = 1

    def __new__(cls, n, step=1):
        if n < 0:
            raise ValueError(f"{n} is negative")
        return super().__new__(cls, n, step)

point = Checked(1)._replace(y=2)
bad = tuple.__new__(Natural, (-1, 1))
rejected = []
for attempt in (lambda: Natural._make((-2, 1)), lambda: Natural(0)._replace(n=-3),
                lambda: pickle.loads(pickle.dumps(bad))):
    try:
        attempt()
    except ValueError as exc:
        rejected.append(str(exc))
print(json.dumps([events, repr(point), repr(Natural(2)), rejected]))
"""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(import_module("genus2pencils").__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [
        [], "Checked(x=1, y=2)", "Natural(n=2, step=1)",
        ["-2 is negative", "-3 is negative", "-1 is negative"],
    ]


def test_record_class_definition_errors():
    from genus2pencils._record import Record

    with pytest.raises(TypeError, match="a field without a default follows one with a default"):
        type(Record)("Bad", (Record,), {"__annotations__": {"x": "int", "y": "int"}, "x": 0})
    with pytest.raises(TypeError, match="record subclass Wider cannot add fields"):
        type(Record)("Wider", (_record("sharp.PlaneModel"),), {"__annotations__": {"z": "int"}})


def test_missing_fields_are_listed_like_a_python_call():
    kind = _record("sharp.TraceStep")
    with pytest.raises(TypeError, match="missing 2 required positional arguments: 'surface_after' and 'pencil_after'"):
        kind(1, 2)
    with pytest.raises(TypeError, match="missing 3 required positional arguments: "
                       "'pencil_degree', 'surface_after', and 'pencil_after'"):
        kind(1)
    with pytest.raises(TypeError, match=r"takes from 3 to 7 positional arguments but 8 were given"):
        _record("lattice.Fibration")(*range(7))

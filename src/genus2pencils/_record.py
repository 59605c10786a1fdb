"""Tuple records: the one base of every result and value record.

A record class names its fields by annotation, in order, and may give
the trailing ones defaults, as with ``typing.NamedTuple``::

    class PlaneModel(Record):
        degree: int
        multiplicities: tuple[int, ...]

An instance is a tuple of its field values, with a read-only property
per field, the ``PlaneModel(degree=3, multiplicities=())`` repr,
``_fields``, ``_field_defaults``, ``_make``, ``_replace``, ``_asdict``
and ``__match_args__``, and no instance ``__dict__``.  Unlike
``collections.namedtuple``, creating a class compiles no code: one
``__new__`` binds the arguments of every record class, and a
positional call takes a fast path.  A record class may override
``__new__`` next to its fields to validate them, and so may a subclass
of one, which adds no fields; ``_make``, ``_replace``, pickle and copy
all go through that override.
"""

from __future__ import annotations

# the C field descriptor collections.namedtuple uses
from collections import _tuplegetter

__all__ = ["Record"]

_tuple_new = tuple.__new__
_MISSING = object()


class _RecordType(type):
    """Turns a record class's annotations into its fields, and gives it
    (and every subclass) empty slots."""

    def __new__(mcls, name: str, bases: tuple, ns: dict):
        ns.setdefault("__slots__", ())
        annotations = ns.get("__annotations__", {})
        if any(getattr(base, "_fields", ()) for base in bases):
            if annotations:
                raise TypeError(f"record subclass {name} cannot add fields")
        else:
            fields = tuple(annotations)
            defaults = {field: ns.pop(field) for field in fields if field in ns}
            if tuple(defaults) != fields[len(fields) - len(defaults):]:
                raise TypeError(f"record {name}: a field without a default follows one with a default")
            for i, field in enumerate(fields):
                ns[field] = _tuplegetter(i, f"Alias for field number {i}")
            ns["_fields"] = ns["__match_args__"] = fields
            ns["_field_defaults"] = defaults
            ns["_defaults"] = tuple(defaults.values())
            ns["_repr_fmt"] = "(" + ", ".join(f"{field}=%r" for field in fields) + ")"
        return super().__new__(mcls, name, bases, ns)


def _quoted(names: list[str]) -> str:
    """'a', 'a' and 'b', or 'a', 'b', and 'c', as Python's own call errors list names."""
    quoted = [repr(name) for name in names]
    if len(quoted) < 3:
        return " and ".join(quoted)
    return ", ".join(quoted[:-1]) + ", and " + quoted[-1]


def _bind(cls: type, args: tuple, kwargs: dict) -> tuple:
    """The field values of cls(*args, **kwargs), with the TypeError of a
    Python function of the same signature for a bad call."""
    fields, defaults = cls._fields, cls._field_defaults
    call = f"{cls.__name__}.__new__()"
    for name in kwargs:
        if name not in fields:
            raise TypeError(f"{call} got an unexpected keyword argument {name!r}")
        if fields.index(name) < len(args):
            raise TypeError(f"{call} got multiple values for argument {name!r}")
    if len(args) > len(fields):
        takes = len(fields) + 1
        if defaults:
            takes = f"from {takes - len(defaults)} to {takes}"
        raise TypeError(f"{call} takes {takes} positional arguments but {len(args) + 1} were given")
    values = args + tuple(kwargs.get(name, defaults.get(name, _MISSING)) for name in fields[len(args):])
    missing = [name for name, value in zip(fields, values) if value is _MISSING]
    if missing:
        plural = "s" if len(missing) > 1 else ""
        raise TypeError(
            f"{call} missing {len(missing)} required positional argument{plural}: {_quoted(missing)}"
        )
    return values


class Record(tuple, metaclass=_RecordType):
    """Base of the tuple records; see the module docstring."""

    def __new__(cls, *args, **kwargs):
        # positional calls, the library's, bind here; keywords in _bind
        if not kwargs:
            short = len(cls._fields) - len(args)
            if not short:
                return _tuple_new(cls, args)
            if 0 < short <= len(cls._defaults):
                return _tuple_new(cls, args + cls._defaults[-short:])
        return _tuple_new(cls, _bind(cls, args, kwargs))

    @classmethod
    def _make(cls, iterable):
        values = tuple(iterable)
        if len(values) != len(cls._fields):
            raise TypeError(f"Expected {len(cls._fields)} arguments, got {len(values)}")
        return cls.__new__(cls, *values)

    def _replace(self, /, **changes):
        values = tuple(map(changes.pop, self._fields, self))
        if changes:
            raise ValueError(f"Got unexpected field names: {list(changes)!r}")
        return self._make(values)

    # copy.replace (Python 3.13) calls it, as it does on a named tuple
    __replace__ = _replace

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self))

    def __repr__(self) -> str:
        return type(self).__name__ + self._repr_fmt % self

    def __getnewargs__(self) -> tuple:
        return tuple(self)

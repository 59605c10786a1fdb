"""Plain-text model files.

A file describes one blown-up surface, a dictionary of named divisor
classes, optional fibre decompositions, and an optional list of effective
curves.  The grammar is line based:

    surface plane n=12
    surface hirzebruch d=2 n=4
    class F = 6 -2 -2 -2 -2 -2 -2 -2 -2 -1 -1 -1 -1
    fibre F0:
        1 TH11
        2 TH12 self=-1 genus=1
    effective: O TH0 TH1

A plane takes only n and a Hirzebruch surface only d and n, each at most
once (a missing one is 0); class names are single tokens and component
multiplicities are at least 1.  A component line may declare the
component's self-intersection and genus, each at most once and in either
order; serialize() writes self= before genus= and only what is declared,
so a fibration round-trips through the text without loss.  Coordinates
are listed in basis order.  Lines may carry '#' comments; serialize()
never emits them, so parse/serialize round-trips are exact on serialized
output.  The built-in catalog models are files in this format.
"""

from __future__ import annotations

from ._record import Record
from .fibres import FibreComponent, FibreDecomposition, validate_fibre
from .lattice import DivisorClass, Fibration, Surface, hirzebruch_blowup, plane_blowup

__all__ = [
    "ParseError",
    "ModelFile",
    "parse",
    "serialize",
    "to_fibration",
    "from_fibration",
]


class ParseError(ValueError):
    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class ModelFile(Record):
    surface: Surface
    classes: tuple[tuple[str, DivisorClass], ...]
    fibres: tuple[FibreDecomposition, ...] = ()
    effective: tuple[str, ...] = ()

    def named(self, name: str) -> DivisorClass:
        for key, value in self.classes:
            if key == name:
                return value
        raise KeyError(f"no class named {name!r}")

    def class_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.classes)


# the parameters each surface kind takes; a missing one defaults to 0
_SURFACE_PARAMETERS = {"plane": ("n",), "hirzebruch": ("d", "n")}
# the optional declarations of a component line, in serialized order
_COMPONENT_FIELDS = ("self", "genus")


def _integer_fields(pieces: list[str], what: str, line_number: int) -> dict[str, int]:
    """``key=<integer>`` pieces as a dict; a piece without '=', a repeated
    key or a non-integer value is a ParseError."""
    fields: dict[str, int] = {}
    for piece in pieces:
        key, eq, value = piece.partition("=")
        if not eq:
            raise ParseError(f"bad {what} {piece!r}", line_number)
        if key in fields:
            raise ParseError(f"duplicate {what} {key!r}", line_number)
        try:
            fields[key] = int(value)
        except ValueError:
            raise ParseError(f"bad integer in {piece!r}", line_number) from None
    return fields


def _parse_surface(rest: str, line_number: int) -> Surface:
    parts = rest.split()
    if not parts:
        raise ParseError("surface line needs a kind", line_number)
    kind, params = parts[0], _integer_fields(parts[1:], "surface parameter", line_number)
    if kind not in _SURFACE_PARAMETERS:
        raise ParseError(f"unknown surface kind {kind!r}", line_number)
    for key in params:
        if key not in _SURFACE_PARAMETERS[kind]:
            raise ParseError(f"unexpected {kind} parameter {key!r}", line_number)
    try:
        if kind == "plane":
            return plane_blowup(params.get("n", 0))
        return hirzebruch_blowup(params.get("d", 0), params.get("n", 0))
    except ValueError as exc:
        raise ParseError(str(exc), line_number) from None


def parse(text: str) -> ModelFile:
    surface: Surface | None = None
    classes: dict[str, DivisorClass] = {}
    fibres: list[FibreDecomposition] = []
    effective: tuple[str, ...] | None = None
    open_fibre: tuple[str, list[FibreComponent], int] | None = None

    def close_fibre() -> None:
        nonlocal open_fibre
        if open_fibre is None:
            return
        name, components, opened_at = open_fibre
        if not components:
            raise ParseError(f"fibre {name} has no component lines", opened_at)
        fibres.append(FibreDecomposition(name, tuple(components)))
        open_fibre = None

    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        indented = line[0].isspace()
        if indented:
            if open_fibre is None:
                raise ParseError("indented line outside a fibre block", line_number)
            parts = line.split()
            if len(parts) < 2 or any("=" not in piece for piece in parts[2:]):
                raise ParseError(
                    "component lines read '<multiplicity> <class>' "
                    "and then optional self=<n> and genus=<n>",
                    line_number,
                )
            try:
                mult = int(parts[0])
            except ValueError:
                raise ParseError(f"bad multiplicity {parts[0]!r}", line_number) from None
            if mult < 1:
                raise ParseError(f"multiplicity {mult} is below 1", line_number)
            if parts[1] not in classes:
                raise ParseError(f"unknown class name {parts[1]!r}", line_number)
            declared = _integer_fields(parts[2:], "component field", line_number)
            for key in declared:
                if key not in _COMPONENT_FIELDS:
                    raise ParseError(f"unknown component field {key!r}", line_number)
            open_fibre[1].append(
                FibreComponent(parts[1], classes[parts[1]], mult,
                               declared.get("self"), declared.get("genus"))
            )
            continue
        close_fibre()
        head, _, rest = line.partition(" ")
        if head == "surface":
            if surface is not None:
                raise ParseError("duplicate surface line", line_number)
            surface = _parse_surface(rest.strip(), line_number)
        elif head == "class":
            if surface is None:
                raise ParseError("class line before the surface line", line_number)
            name, eq, coords_text = rest.partition("=")
            name = name.strip()
            if not eq or not name:
                raise ParseError("class lines read 'class <name> = <coords>'", line_number)
            if len(name.split()) != 1:
                raise ParseError(f"class name {name!r} is not a single token", line_number)
            if name in classes:
                raise ParseError(f"duplicate class name {name!r}", line_number)
            try:
                coords = tuple(map(int, coords_text.split()))
            except ValueError:
                raise ParseError("bad integer in coordinates", line_number) from None
            if len(coords) != surface.rank:
                raise ParseError(
                    f"expected {surface.rank} coordinates, got {len(coords)}", line_number
                )
            classes[name] = DivisorClass(surface, coords)
        elif head == "fibre":
            if surface is None:
                raise ParseError("fibre block before the surface line", line_number)
            name = rest.strip()
            if not name.endswith(":") or not name[:-1].strip():
                raise ParseError("fibre lines read 'fibre <name>:'", line_number)
            open_fibre = (name[:-1].strip(), [], line_number)
        elif head == "effective:" or (head == "effective" and rest.strip().startswith(":")):
            names = rest.strip() if head == "effective:" else rest.strip()[1:]
            if effective is not None:
                raise ParseError("duplicate effective line", line_number)
            effective = tuple(names.split())
            for name in effective:
                if name not in classes:
                    raise ParseError(f"unknown class name {name!r}", line_number)
        else:
            raise ParseError(f"unrecognized line {line.strip()!r}", line_number)
    close_fibre()
    if surface is None:
        raise ParseError("no surface line", max(1, text.count("\n") + 1))
    return ModelFile(
        surface,
        tuple(classes.items()),
        tuple(fibres),
        effective if effective is not None else (),
    )


def serialize(model: ModelFile) -> str:
    surface = model.surface
    lines = []
    if surface.kind == "plane":
        lines.append(f"surface plane n={surface.blowups}")
    else:
        lines.append(f"surface hirzebruch d={surface.index} n={surface.blowups}")
    for name, divisor in model.classes:
        coords = " ".join(str(c) for c in divisor.coords)
        lines.append(f"class {name} = {coords}")
    for dec in model.fibres:
        lines.append(f"fibre {dec.name}:")
        for comp in dec.components:
            declared = zip(_COMPONENT_FIELDS, (comp.declared_self_intersection, comp.declared_genus))
            fields = "".join(f" {key}={value}" for key, value in declared if value is not None)
            lines.append(f"    {comp.multiplicity} {comp.name}{fields}")
    if model.effective:
        lines.append("effective: " + " ".join(model.effective))
    return "\n".join(lines) + "\n"


def to_fibration(model: ModelFile, genus: int = 2) -> Fibration:
    """Promote a model file to a fibration.

    The class named F is the fibre class.  Sections are detected: any named
    class with negative self-intersection meeting F once.  Every fibre
    block goes through ``validate_fibre``, so components that do not sum
    to F (or break another fibre identity) raise a ``FibreError``.
    """
    names = dict(model.classes)
    if "F" not in names:
        raise ValueError("model file defines no class named F")
    f = names["F"]
    sections = tuple(
        c for name, c in model.classes if name != "F" and f * c == 1 and c * c < 0
    )
    fib = Fibration(
        model.surface,
        f,
        genus=genus,
        sections=sections,
        fibres=model.fibres,
        named_classes=model.classes,
    ).validate()
    for dec in fib.fibres:
        validate_fibre(fib, dec)
    return fib


def from_fibration(fib: Fibration, effective: tuple[str, ...] = ()) -> ModelFile:
    return ModelFile(fib.surface, fib.named_classes, fib.fibres, effective)

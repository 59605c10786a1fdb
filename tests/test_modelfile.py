"""Model file grammar: golden parses, exact round trips, and line-numbered
rejections."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from genus2pencils import catalog
from genus2pencils.fibres import FibreError
from genus2pencils.modelfile import (
    ModelFile,
    ParseError,
    from_fibration,
    parse,
    serialize,
    to_fibration,
)
from genus2pencils.lattice import hirzebruch_blowup, plane_blowup

SAMPLE = """\
# sextic pencil with two of its exceptional classes
surface plane n=12
class F = 6 -2 -2 -2 -2 -2 -2 -2 -2 -1 -1 -1 -1
class O = 0 0 0 0 0 0 0 0 0 0 0 0 1   # the last point
class A = 0 0 0 0 0 0 0 0 0 1 -1 0 0

fibre F0:
    1 A
    2 O

effective: O A
"""


def test_parse_sample():
    model = parse(SAMPLE)
    assert model.surface == plane_blowup(12)
    assert model.class_names() == ("F", "O", "A")
    assert model.named("O") == model.surface.exceptional(12)
    assert len(model.fibres) == 1
    dec = model.fibres[0]
    assert dec.name == "F0"
    assert [(c.name, c.multiplicity) for c in dec.components] == [("A", 1), ("O", 2)]
    assert model.effective == ("O", "A")
    with pytest.raises(KeyError, match="no class named 'Z'"):
        model.named("Z")


def test_parse_hirzebruch_surface_line():
    model = parse("surface hirzebruch d=2 n=4\nclass F = 8 17 -4 -4 -4 -4\n")
    assert model.surface == hirzebruch_blowup(2, 4)
    assert model.named("F").coords == (8, 17, -4, -4, -4, -4)


def test_serialize_parse_round_trip_exact():
    model = parse(SAMPLE)
    text = serialize(model)
    again = parse(text)
    assert again == model
    assert serialize(again) == text


def test_catalog_entry_round_trips_as_text():
    entry = catalog.get("Ex4_3")
    model = from_fibration(entry.fibration, entry.effective)
    text = serialize(model)
    reparsed = parse(text)
    assert reparsed.surface == model.surface
    assert reparsed.classes == model.classes
    assert reparsed.effective == model.effective
    # declared self-intersections and genera do not survive the text form,
    # but names, classes, and multiplicities do
    for got, want in zip(reparsed.fibres, model.fibres):
        assert got.name == want.name
        assert [(c.name, c.divisor, c.multiplicity) for c in got.components] == [
            (c.name, c.divisor, c.multiplicity) for c in want.components
        ]
    assert serialize(reparsed) == text


# SAMPLE's F0 (A + 2O, with the section O) does not sum to F; here the
# pencil of SAMPLE is blown up twice more at a point of one member, whose
# strict transform C, the (-2)-curve A = E13 - E14 and the last exceptional
# curve B, counted twice, make up F0
FIBRED_SAMPLE = """\
surface plane n=14
class F = 6 -2 -2 -2 -2 -2 -2 -2 -2 -1 -1 -1 -1 0 0
class O = 0 0 0 0 0 0 0 0 0 0 0 0 1 0 0
class A = 0 0 0 0 0 0 0 0 0 0 0 0 0 1 -1
class B = 0 0 0 0 0 0 0 0 0 0 0 0 0 0 1
class C = 6 -2 -2 -2 -2 -2 -2 -2 -2 -1 -1 -1 -1 -1 -1
fibre F0:
    1 A
    2 B
    1 C
"""


def test_to_fibration_detects_sections():
    model = parse(FIBRED_SAMPLE)
    fib = to_fibration(model)
    assert fib.genus == 2
    assert fib.fibre_class == model.named("F")
    assert fib.sections == (model.named("O"),)
    assert fib.named("A") == model.named("A")
    assert fib.fibres == model.fibres


def test_to_fibration_requires_a_fibre_class():
    model = parse("surface plane n=2\nclass Q = 1 0 0\n")
    with pytest.raises(ValueError, match="model file defines no class named F"):
        to_fibration(model)


def test_to_fibration_validates():
    model = parse(SAMPLE)
    with pytest.raises(ValueError, match="canonical degree 2 does not match genus 3"):
        to_fibration(model, genus=3)


def test_to_fibration_validates_every_fibre():
    with pytest.raises(FibreError, match="does not sum to F: fibre F0"):
        to_fibration(parse(SAMPLE))
    entry = catalog.get("Ex4_3")
    text = serialize(from_fibration(entry.fibration))
    broken = parse(text.replace("    10 TH3\n", "    3 TH3\n"))
    with pytest.raises(FibreError, match="does not sum to F: fibre Finf"):
        to_fibration(broken)
    assert to_fibration(parse(text)).fibre_class == entry.fibration.fibre_class


def reject(text: str, line_number: int, message: str) -> None:
    with pytest.raises(ParseError) as info:
        parse(text)
    assert info.value.line_number == line_number
    assert message in str(info.value)
    assert str(info.value).startswith(f"line {line_number}:")


def test_parse_error_catalogue():
    reject("surface\n", 1, "surface line needs a kind")
    reject("surface plane x12\n", 1, "bad surface parameter 'x12'")
    reject("surface plane n=abc\n", 1, "bad integer in 'n=abc'")
    reject("surface torus n=1\n", 1, "unknown surface kind 'torus'")
    reject("surface plane n=-1\n", 1, "index and blow-up count must be nonnegative")
    reject("surface plane n=1\n  1 X\n", 2, "indented line outside a fibre block")
    reject(
        "surface plane n=1\nclass F = 1 0\nfibre F0:\n  1 F extra\n",
        4,
        "component lines read '<multiplicity> <class>'",
    )
    reject(
        "surface plane n=1\nclass F = 1 0\nfibre F0:\n  one F\n",
        4,
        "bad multiplicity 'one'",
    )
    reject(
        "surface plane n=1\nclass F = 1 0\nfibre F0:\n  1 Q\n",
        4,
        "unknown class name 'Q'",
    )
    reject("surface plane n=1\nsurface plane n=2\n", 2, "duplicate surface line")
    reject("class F = 1 0\n", 1, "class line before the surface line")
    reject("surface plane n=1\nclass F 1 0\n", 2, "class lines read")
    reject(
        "surface plane n=1\nclass F = 1 0\nclass F = 1 0\n",
        3,
        "duplicate class name 'F'",
    )
    reject("surface plane n=1\nclass F = 1 zero\n", 2, "bad integer in coordinates")
    reject("surface plane n=12\nclass F = 1 0 0\n", 2, "expected 13 coordinates, got 3")
    reject("surface plane n=1\nclass F = 1 0\nfibre F0\n", 3, "fibre lines read")
    reject("fibre F0:\n", 1, "fibre block before the surface line")
    reject(
        "surface plane n=1\nclass F = 1 0\nfibre F0:\nclass G = 0 1\n",
        3,
        "fibre F0 has no component lines",
    )
    reject(
        "surface plane n=1\nclass F = 1 0\nfibre F0:\n",
        3,
        "fibre F0 has no component lines",
    )
    reject(
        "surface plane n=1\nclass F = 1 0\neffective: F\neffective: F\n",
        4,
        "duplicate effective line",
    )
    reject("surface plane n=1\neffective: Q\n", 2, "unknown class name 'Q'")
    reject("surface plane n=1\nbogus here\n", 2, "unrecognized line 'bogus here'")
    reject("", 1, "no surface line")
    reject("# only a comment\n\n", 3, "no surface line")


def test_model_equality_is_structural():
    a = parse("surface plane n=1\nclass F = 1 0\n")
    b = ModelFile(plane_blowup(1), a.classes)
    assert a == b


def test_surface_parameters_are_checked():
    reject("surface plane foo=3\n", 1, "unexpected plane parameter 'foo'")
    reject("surface plane n=1 n=2\n", 1, "duplicate surface parameter 'n'")
    reject("surface plane d=4\n", 1, "unexpected plane parameter 'd'")
    reject("surface hirzebruch d=1 n=2 d=1\n", 1, "duplicate surface parameter 'd'")
    reject("# model\nsurface hirzebruch d=1 m=2\n", 2, "unexpected hirzebruch parameter 'm'")
    assert parse("surface hirzebruch n=3 d=1\n").surface == hirzebruch_blowup(1, 3)


def test_class_name_is_a_single_token():
    reject("surface plane n=1\nclass my class = 1 0\n", 2, "class name 'my class' is not a single token")


def test_component_multiplicity_is_positive():
    head = "surface plane n=1\nclass X = 0 1\nfibre F0:\n"
    reject(head + "  0 X\n", 4, "multiplicity 0 is below 1")
    reject(head + "  1 X\n  -2 X\n", 5, "multiplicity -2 is below 1")


# A well-formed model text (three-coordinate classes, fibre blocks,
# effective lines), into which arbitrary lines are then inserted: many
# draws parse, the rest fail somewhere.  Every number stays small.
_SURFACES = ("surface plane n=2", "surface hirzebruch d=1 n=1", "surface hirzebruch n=1 d=0")
_WORDS = st.sampled_from((
    "surface", "plane", "n=2", "n=2 n=2", "d=1", "foo=3", "class", "fibre", "effective:",
    "F", "O", "my class", "F0:", "=", ":", "0", "1", "-2", "#", "  ", "\t",
))
_NOISE = st.one_of(st.lists(_WORDS, min_size=1, max_size=6).map(" ".join), st.text(max_size=10))


@st.composite
def _texts(draw):
    names = draw(st.lists(st.sampled_from(("F", "O", "X", "TH1", "E8")), unique=True, max_size=4))
    coords = st.lists(st.integers(-3, 3), min_size=3, max_size=3).map(lambda c: " ".join(map(str, c)))
    lines = [draw(st.sampled_from(_SURFACES))]
    lines += [f"class {name} = {draw(coords)}" for name in names]
    for i in range(draw(st.integers(0, 2)) if names else 0):
        lines.append(f"fibre F{i}:")
        for name in draw(st.lists(st.sampled_from(names), min_size=1, max_size=3)):
            lines.append(f"  {draw(st.integers(1, 4))} {name}")
    if names and draw(st.booleans()):
        lines.append("effective: " + " ".join(draw(st.lists(st.sampled_from(names), max_size=3))))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_NOISE))
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(_texts())
def test_parse_gives_a_model_or_a_parse_error(text):
    try:
        model = parse(text)
    except ParseError as exc:
        assert str(exc).startswith(f"line {exc.line_number}:")
        return
    assert isinstance(model, ModelFile)
    once = serialize(model)
    assert parse(once) == model
    assert serialize(parse(once)) == once

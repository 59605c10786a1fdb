"""Surfaces, divisor classes, and the basic isometries."""

from __future__ import annotations

import copy
import dataclasses
import pickle
import re

import oracles
import pytest
from hypothesis import given, settings, strategies as st

from genus2pencils import catalog
from genus2pencils.lattice import (
    DivisorClass,
    Fibration,
    ForeignClassError,
    LatticeError,
    NotContractibleError,
    RulingChoiceError,
    Surface,
    adjoint_square,
    arithmetic_genus,
    blow_down,
    cremona,
    elementary_transform,
    hirzebruch_blowup,
    is_minus_one_class,
    pairings,
    picard_number,
    plane_blowup,
    plane_curve,
    ruled_curve,
)
from genus2pencils.lattice import _contract_rows


def test_plane_gram_frozen():
    s = plane_blowup(3)
    assert s.rank == 4
    assert s.gram() == (
        (1, 0, 0, 0),
        (0, -1, 0, 0),
        (0, 0, -1, 0),
        (0, 0, 0, -1),
    )
    assert s.canonical().coords == (-3, 1, 1, 1)
    assert s.basis_names() == ("L", "E1", "E2", "E3")


def test_hirzebruch_gram_frozen():
    s = hirzebruch_blowup(2, 2)
    assert s.rank == 4
    assert s.gram() == (
        (-2, 1, 0, 0),
        (1, 0, 0, 0),
        (0, 0, -1, 0),
        (0, 0, 0, -1),
    )
    assert s.canonical().coords == (-2, -4, 1, 1)
    assert s.basis_names() == ("D0", "G", "E1", "E2")
    assert s.minimal_section.coords == (1, 0, 0, 0)
    assert s.ruling.coords == (0, 1, 0, 0)


def test_surface_validation():
    with pytest.raises(LatticeError, match="unknown surface kind"):
        hirzebruch_blowup(2, 2).__class__("torus", 0, 3)
    with pytest.raises(LatticeError, match="no Hirzebruch index"):
        plane_blowup(2).__class__("plane", 1, 2)
    with pytest.raises(LatticeError, match="nonnegative"):
        plane_blowup(-1)
    with pytest.raises(LatticeError, match="the line class lives on the plane kind"):
        _ = hirzebruch_blowup(1, 0).line
    with pytest.raises(LatticeError, match="ruled kind"):
        _ = plane_blowup(1).ruling
    with pytest.raises(LatticeError, match="no exceptional class E3 on a 2-point surface"):
        plane_blowup(2).exceptional(3)


def test_surface_rejects_non_integer_parameters():
    with pytest.raises(TypeError, match="must be integers"):
        Surface("hirzebruch", 1.5, 2)
    with pytest.raises(TypeError, match="must be integers"):
        plane_blowup(2.5)
    with pytest.raises(TypeError, match="must be integers"):
        hirzebruch_blowup(1, "2")
    # integer-like parameters are stored as plain ints
    s = Surface("hirzebruch", True, True)
    assert type(s.index) is int and type(s.blowups) is int
    assert s == hirzebruch_blowup(1, 1)
    assert s.rank == 3


def test_canonical_class_is_built_once_per_surface():
    s = plane_blowup(4)
    k = s.canonical()
    assert s.canonical() is k
    assert k.coords == (-3, 1, 1, 1, 1)
    # equal surfaces are one object, so they share the cached class
    twin = plane_blowup(4)
    assert twin is s
    assert twin.canonical() is k
    h = hirzebruch_blowup(2, 1)
    assert h.canonical() is h.canonical()
    assert h.canonical().coords == (-2, -4, 1)


def test_copies_after_the_canonical_class_is_cached():
    # the cached canonical class points back at its surface; pickle and
    # copy rebuild the surface through the constructor, which returns the
    # interned surface with its cached class
    s = plane_blowup(3)
    c = s.divisor(1, 0, 0, 0)
    k = s.canonical()
    fibrations = [catalog.get(tag).fibration for tag in catalog.tags()]
    assert len(fibrations) == 8
    for fib in fibrations:
        fib.validate()  # caches the surface's canonical class
    for x in (c, k, s, *fibrations):
        for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
            assert type(y) is type(x) and y == x and hash(y) == hash(x)
    for y in (pickle.loads(pickle.dumps(c)), copy.deepcopy(c)):
        assert y.surface.canonical() == k and y * y.surface.canonical() == -3
    for fib in fibrations:
        for y in (pickle.loads(pickle.dumps(fib)), copy.deepcopy(fib)):
            assert y.validate() == fib
            assert y.surface.canonical() == fib.surface.canonical()


def test_intersection_numbers_frozen():
    s = plane_blowup(8)
    f = plane_curve(s, 6, (2,) * 8)
    assert f.coords == (6, -2, -2, -2, -2, -2, -2, -2, -2)
    assert f * f == 36 - 4 * 8
    assert s.canonical() * f == -18 + 16
    e1 = s.exceptional(1)
    assert e1 * e1 == -1
    assert f * e1 == 2
    assert arithmetic_genus(f) == (4 + (-2)) // 2 + 1

    h = hirzebruch_blowup(2, 9)
    g = ruled_curve(h, 8, 17, (4,) * 9)
    assert g.coords == (8, 17) + (-4,) * 9
    assert g * g == -2 * 64 + 2 * 8 * 17 - 16 * 9 == 0
    assert h.canonical() * g == 2
    assert g * h.ruling == 8


def test_divisor_class_arithmetic():
    s = plane_blowup(2)
    a = plane_curve(s, 1, (1,))
    b = s.exceptional(2)
    assert (a + b).coords == (1, -1, 1)
    assert (a - b).coords == (1, -1, -1)
    assert (3 * a).coords == (3, -3, 0)
    assert (-a).coords == (-1, 1, 0)
    assert sum([a, b]).coords == (1, -1, 1)
    assert a * b == 0
    assert str(a) == "L-E1"
    assert str(s.zero()) == "0"
    assert str(plane_curve(s, 6, (2, 1))) == "6L-2E1-E2"
    assert repr(b) == "<E2>"


def test_divisor_class_rejects_bad_coords():
    s = plane_blowup(1)
    with pytest.raises(TypeError, match="coordinates must be integers"):
        DivisorClass(s, (1.5, 0))
    with pytest.raises(LatticeError, match="does not match lattice rank"):
        DivisorClass(s, (1, 0, 0))
    with pytest.raises(ForeignClassError):
        _ = plane_curve(s, 1) * plane_curve(plane_blowup(2), 1)
    with pytest.raises(LatticeError, match="more multiplicities"):
        plane_curve(s, 1, (1, 1))


def test_divisor_class_needs_a_surface():
    with pytest.raises(TypeError, match="a class lives on a Surface, not on 'plane'"):
        DivisorClass("plane", (1,))
    with pytest.raises(TypeError, match="not on None"):
        DivisorClass(None, ())


def test_divisor_classes_are_slotted_and_frozen():
    s = plane_blowup(3)
    c = s.divisor(1, -1, 0, 0)
    ruled = ruled_curve(hirzebruch_blowup(2, 2), 1, 2, (1,))
    derived = c + s.exceptional(2)
    (reflected,) = cremona(s, 1, 2, 3, (c,))
    for x in (c, ruled, derived, reflected):
        assert not hasattr(x, "__dict__")
        assert isinstance(x, tuple) and tuple(x) == (x.surface, x.coords)
        for name in ("coords", "surface", "degree"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(x, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(x, name)
        # equality and hash are those of the (surface, coords) pair
        assert hash(x) == hash((x.surface, x.coords))
        for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
            assert type(y) is DivisorClass
            assert y == x and hash(y) == hash(x)
            assert y.surface is x.surface and y.coords == x.coords
    assert c == DivisorClass(plane_blowup(3), (1, -1, 0, 0))
    assert c != DivisorClass(plane_blowup(3), (1, 0, -1, 0))
    assert c != DivisorClass(plane_blowup(4), (1, -1, 0, 0, 0))
    assert len({c, DivisorClass(plane_blowup(3), (1, -1, 0, 0)), ruled}) == 2
    # a bulk build takes each row as the class's coordinates, not a copy
    rows = [(1, 0, 0, 0), (0, 1, 0, 0), (1, -1, -1, -1)]
    made = DivisorClass._derived_all(s, iter(rows))
    assert type(made) is tuple and len(made) == len(rows)
    for x, row in zip(made, rows):
        assert type(x) is DivisorClass and x.surface is s and x.coords is row


class _Index:
    def __index__(self) -> int:
        return 2


def test_a_divisor_class_is_not_its_bare_pair():
    # a class is a tuple in shape only: len, iteration and indexing give
    # (surface, coords); equality, order and addition are those of a
    # class, not of the tuple
    s = plane_blowup(2)
    c, e = s.line, s.exceptional(1)
    pair = (c.surface, c.coords)
    assert len(c) == 2 and c[0] is s and c[1] == (1, 0, 0) and tuple(c) == pair
    assert not c == pair and not pair == c
    assert c != pair and pair != c
    assert c == s.line and not c != s.line and c != e
    for compare in (
        lambda: c < e, lambda: c <= e, lambda: c > e, lambda: c >= e,
        lambda: c < pair, lambda: pair < c, lambda: sorted([c, e]),
    ):
        with pytest.raises(TypeError, match="no order"):
            compare()
    assert sum([c, e]) == c + e and 0 + c == c
    for bad in (
        lambda: (1, 2) + c, lambda: pair + c, lambda: 1 + c, lambda: c + (1,),
        lambda: c * _Index(), lambda: _Index() * c,
    ):
        with pytest.raises(TypeError, match="unsupported operand"):
            bad()


def test_pairings_name_what_is_not_a_class():
    s = plane_blowup(2)
    line = s.line
    assert pairings(line, [line, s.exceptional(1)]) == (1, 0)
    with pytest.raises(TypeError, match="need divisor classes, not 1$"):
        pairings(line, [1, 2])
    with pytest.raises(TypeError, match=r"need a divisor class, not \(1, 0, 0\)$"):
        pairings((1, 0, 0), [line])
    with pytest.raises(TypeError, match="need divisor classes, not Surface"):
        pairings(line, [line, s])
    with pytest.raises(ForeignClassError):
        pairings(line, [line, plane_blowup(3).line])


def test_minus_one_class_detection():
    s = plane_blowup(5)
    assert is_minus_one_class(s.exceptional(3))
    assert is_minus_one_class(plane_curve(s, 2, (1, 1, 1, 1, 1)))
    assert not is_minus_one_class(s.exceptional(1) - s.exceptional(2))
    assert not is_minus_one_class(plane_curve(s, 1))


def test_blow_down_basis_class():
    s = plane_blowup(3)
    c = plane_curve(s, 4, (2, 1, 1))
    smaller, (image,) = blow_down(s, s.exceptional(2), (c,))
    assert smaller.blowups == 2
    assert image.coords == (4, -2, -1)


def test_blow_down_non_basis_class_uses_an_isometry():
    s = plane_blowup(5)
    e = plane_curve(s, 2, (1, 1, 1, 1, 1))
    k = s.canonical()
    carried = plane_curve(s, 6, (3, 2, 2, 1, 1))
    smaller, (image,) = blow_down(s, e, (carried,))
    assert smaller.blowups == 4
    # pushforward: self-intersection gains the square of the point
    # multiplicity, the canonical degree loses the multiplicity
    assert image * image == carried * carried + (carried * e) ** 2
    assert smaller.canonical() * image == k * carried - (carried * e)
    disjoint = s.exceptional(1) - s.exceptional(2)
    assert disjoint * e == 0
    _, (img,) = blow_down(s, e, (disjoint,))
    assert img * img == disjoint * disjoint


def test_blow_down_errors():
    s = plane_blowup(2)
    with pytest.raises(NotContractibleError, match="is not a \\(-1\\)-class"):
        blow_down(s, plane_curve(s, 1))
    # a non-basis (-1)-class on two points cannot reach a basis class
    with pytest.raises(NotContractibleError, match="no isometry moves"):
        blow_down(s, plane_curve(s, 1, (1, 1)))
    h = hirzebruch_blowup(1, 0)
    assert is_minus_one_class(h.minimal_section)
    with pytest.raises(NotContractibleError, match="only basis classes contract"):
        blow_down(h, h.minimal_section)
    with pytest.raises(ForeignClassError):
        blow_down(s, plane_blowup(3).exceptional(1))


def test_blow_down_names_a_surface_or_class_that_is_wrong():
    s = plane_blowup(3)
    e = s.exceptional(1)
    for args, message in (
        ((None, e), "surface must be a Surface, not None"),
        ((s, None), "e must be a DivisorClass, not None"),
        ((s, 5), "e must be a DivisorClass, not 5"),
        ((s, e, (5,)), "carried class 0 must be a DivisorClass, not 5"),
        ((s, e, (s.line, "E1")), "carried class 1 must be a DivisorClass, not 'E1'"),
        ((s, e, e), "the carried classes must be a collection, not <E1>"),
    ):
        with pytest.raises(TypeError) as info:
            blow_down(*args)
        assert str(info.value) == message


def _random_minus_one_class(rng, surface):
    """A basis exceptional class moved by a few random quadratic transforms
    on the plane kind; a basis exceptional class on the ruled kind."""
    e = surface.exceptional(rng.randint(1, surface.blowups))
    if surface.kind == "plane" and surface.blowups >= 3:
        for _ in range(rng.randint(0, 4)):
            (e,) = cremona(surface, *rng.sample(range(1, surface.blowups + 1), 3), (e,))
    return e


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_contract_rows_match_cremona_then_dropping_the_coordinate(rng):
    # random (-1)-classes, most of them off the basis and so carried onto
    # one by contracting_isometry first, against the reference that
    # applies cremona at each move and pairs by the intersection form
    if rng.random() < 0.75:
        surface = plane_blowup(rng.randint(1, 9))
    else:
        surface = hirzebruch_blowup(rng.randint(0, 3), rng.randint(1, 6))
    e = _random_minus_one_class(rng, surface)
    rows = [tuple(rng.randint(-3, 3) for _ in range(surface.rank)) for _ in range(rng.randint(0, 5))]
    rows += [e.coords, (0,) * surface.rank, (-e).coords]
    rng.shuffle(rows)
    assert _contract_rows(surface, e.coords, rows) == oracles.contract_rows(surface, e.coords, rows)


def test_contractions_share_their_target_surface():
    # two blow-downs to equal surfaces return one object, so its canonical
    # class and the dual vector of K are built once
    s = plane_blowup(5)
    first, _ = blow_down(s, s.exceptional(2))
    second, _ = blow_down(plane_blowup(5), plane_curve(s, 1, (1, 1)))
    assert first is second
    assert first.canonical() is second.canonical()
    assert first._canonical_dual == first.dual(first.canonical().coords)
    bigger = plane_blowup(5)
    assert blow_down(bigger, bigger.exceptional(1))[0] is first
    h = hirzebruch_blowup(1, 2)
    assert blow_down(h, h.exceptional(1))[0] is blow_down(h, h.exceptional(2))[0]
    # contractions and the constructor share one surface per field tuple
    assert first is plane_blowup(4)


@pytest.mark.parametrize("n", (0, 1, 4, 9))
def test_the_constructor_returns_the_one_surface_of_its_fields(n):
    assert Surface("plane", 0, n) is plane_blowup(n)
    for index in (0, 1, 2):
        assert Surface("hirzebruch", index, n) is hirzebruch_blowup(index, n)
    # integer-like fields intern as their plain int values
    assert Surface("hirzebruch", True, n) is hirzebruch_blowup(1, n)
    assert Surface("plane", 0, n) is not Surface("plane", 0, n + 1)


def test_pickle_and_copy_return_the_one_surface():
    s = hirzebruch_blowup(2, 3)
    c = s.divisor(1, 2, 0, -1, 0)
    k = s.canonical()
    for copy_of in (lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy):
        assert copy_of(s) is s
        assert copy_of(c).surface is s
        assert copy_of(c).surface.canonical() is k


def test_cremona_is_the_reflection_in_alpha():
    s = plane_blowup(5)
    e = [s.exceptional(i) for i in range(1, 6)]
    alpha = s.line - e[1] - e[3] - e[4]
    classes = (plane_curve(s, 6, (3, 2, 2, 1, 1)), s.canonical(), e[0], 2 * s.line - e[1], alpha)
    images = cremona(s, 2, 4, 5, classes)
    assert images == tuple(c + (c * alpha) * alpha for c in classes)
    assert images[-1] == -1 * alpha


def test_cremona_reflection_frozen():
    s = plane_blowup(3)
    line = plane_curve(s, 1)
    (image,) = cremona(s, 1, 2, 3, (line,))
    assert image.coords == (2, -1, -1, -1)
    (back,) = cremona(s, 1, 2, 3, (image,))
    assert back == line
    (k_image,) = cremona(s, 1, 2, 3, (s.canonical(),))
    assert k_image == s.canonical()
    with pytest.raises(LatticeError, match="three distinct points"):
        cremona(s, 1, 1, 2)
    with pytest.raises(LatticeError, match="quadratic transforms need the plane kind"):
        cremona(hirzebruch_blowup(0, 3), 1, 2, 3)


@pytest.mark.parametrize(
    "points, message",
    [
        ((2.0, 2, 3), "i must be an integer, not 2.0"),
        ((1, "2", 3), "j must be an integer, not '2'"),
        ((1, 2, None), "k must be an integer, not None"),
    ],
)
def test_cremona_names_a_point_that_is_not_an_integer(points, message):
    # 2.0 is not read as a second point 2: the three points are not
    # reported as repeated
    s = plane_blowup(3)
    with pytest.raises(TypeError) as info:
        cremona(s, *points, (s.line,))
    assert str(info.value) == message


def test_cremona_names_a_surface_or_class_that_is_wrong():
    s = plane_blowup(3)
    for args, message in (
        ((None, 1, 2, 3), "surface must be a Surface, not None"),
        ((s, 1, 2, 3, (5,)), "carried class 0 must be a DivisorClass, not 5"),
        ((s, 1, 2, 3, (s.line, "E1")), "carried class 1 must be a DivisorClass, not 'E1'"),
    ):
        with pytest.raises(TypeError) as info:
            cremona(*args)
        assert str(info.value) == message


def _lone_class_calls():
    fib = catalog.get("A").fibration
    e1 = fib.surface.exceptional(1)
    plane = plane_blowup(3)
    return {
        "sections": (
            lambda: fib._replace(sections=e1).validate(), "the sections must be a tuple, not <E1>"
        ),
        "cremona": (
            lambda: cremona(plane, 1, 2, 3, plane.line),
            "the carried classes must be a collection, not <L>",
        ),
        "pairings": (
            lambda: pairings(fib.fibre_class, e1), "classes must be a collection, not <E1>"
        ),
    }


@pytest.mark.parametrize("entry", ["sections", "cremona", "pairings"])
def test_a_lone_class_where_classes_belong_is_named(entry):
    # a class is itself the tuple (surface, coords), so it passes a tuple
    # check and iterates as its fields, the surface then named as item 0
    call, message = _lone_class_calls()[entry]
    with pytest.raises(TypeError) as info:
        call()
    assert str(info.value) == message


def test_elementary_transform_family():
    down = elementary_transform(2, (8, 17), 4)
    assert down == (1, (8, 13), 4)
    down2 = elementary_transform(down.index, down.curve, 4)
    assert down2 == (0, (8, 9), 4)
    up = elementary_transform(0, (8, 9), 4, on_minimal_section=True)
    assert up == (1, (8, 13), 4)
    up2 = elementary_transform(1, (8, 13), 4, on_minimal_section=True)
    assert up2 == (2, (8, 17), 4)


def test_elementary_transform_errors():
    with pytest.raises(RulingChoiceError, match="ruling choice required"):
        elementary_transform(0, (8, 9), 4)
    with pytest.raises(LatticeError, match="nonnegative"):
        elementary_transform(-1, (8, 9), 4)
    with pytest.raises(LatticeError, match="between 0 and the section coefficient"):
        elementary_transform(1, (8, 13), 9)


@pytest.mark.parametrize(
    "args, message",
    [
        ((1.0, (8, 13), 4), "index must be an integer, not 1.0"),
        ((1, (8.5, 13), 4), "the section coefficient of curve must be an integer, not 8.5"),
        ((1, (8, "13"), 4), "the fibre coefficient of curve must be an integer, not '13'"),
        ((1, (2, 3), 1.5), "multiplicity must be an integer, not 1.5"),
        ((1, (2, 3), "x"), "multiplicity must be an integer, not 'x'"),
    ],
)
def test_elementary_transform_names_a_number_that_is_not_an_integer(args, message):
    with pytest.raises(TypeError, match=re.escape(message)):
        elementary_transform(*args)


def test_fibration_validation():
    s = plane_blowup(12)
    f = plane_curve(s, 6, (2,) * 8 + (1,) * 4)
    fib = Fibration(s, f).validate()
    assert adjoint_square(fib) == 1
    assert picard_number(fib) == 13
    with pytest.raises(LatticeError, match="self-intersection 1, expected 0"):
        Fibration(s, plane_curve(s, 1)).validate()
    with pytest.raises(LatticeError, match="does not match genus"):
        Fibration(s, f, genus=3).validate()
    with pytest.raises(LatticeError, match="pairs 2 with the fibre"):
        Fibration(s, f, sections=(s.exceptional(1),)).validate()
    named = Fibration(s, f, named_classes=(("F", f),))
    assert named.named("F") == f
    with pytest.raises(KeyError):
        named.named("Q")


@pytest.mark.parametrize(
    "field, bad, message",
    [
        ("genus", 2.0, "genus must be an integer, not 2.0"),
        ("genus", "2", "genus must be an integer, not '2'"),
        ("genus", None, "genus must be an integer, not None"),
        ("fibre_class", None, "the fibre class must be a DivisorClass, not None"),
        ("sections", (None,), "section 0 must be a DivisorClass, not None"),
        ("sections", None, "the sections must be a tuple, not None"),
        ("surface", None, "the surface must be a Surface, not None"),
    ],
    ids=[
        "float-genus", "string-genus", "no-genus", "no-fibre-class", "no-section", "no-sections",
        "no-surface",
    ],
)
def test_fibration_validation_names_a_malformed_field(field, bad, message):
    fib = catalog.get("A").fibration
    with pytest.raises(TypeError) as info:
        fib._replace(**{field: bad}).validate()
    assert str(info.value) == message

"""Surfaces, divisor classes, and the basic isometries."""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

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
    blow_up,
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
    with pytest.raises(LatticeError, match="must be integers"):
        Surface("hirzebruch", 1.5, 2)
    with pytest.raises(LatticeError, match="must be integers"):
        plane_blowup(2.5)
    with pytest.raises(LatticeError, match="must be integers"):
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
    # the cached class changes neither equality nor hashing
    twin = plane_blowup(4)
    assert twin == s and hash(twin) == hash(s)
    assert twin.canonical() == k and twin.canonical() is not k
    h = hirzebruch_blowup(2, 1)
    assert h.canonical() is h.canonical()
    assert h.canonical().coords == (-2, -4, 1)


def test_copies_after_the_canonical_class_is_cached():
    # the cached canonical class points back at its surface; pickle and
    # copy rebuild the surface from its fields and recompute it on use
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
    with pytest.raises(LatticeError, match="coordinates must be integers"):
        DivisorClass(s, (1.5, 0))
    with pytest.raises(LatticeError, match="does not match lattice rank"):
        DivisorClass(s, (1, 0, 0))
    with pytest.raises(ForeignClassError):
        _ = plane_curve(s, 1) * plane_curve(plane_blowup(2), 1)
    with pytest.raises(LatticeError, match="more multiplicities"):
        plane_curve(s, 1, (1, 1))


def test_divisor_class_needs_a_surface():
    with pytest.raises(LatticeError, match="a class lives on a Surface, not on 'plane'"):
        DivisorClass("plane", (1,))
    with pytest.raises(LatticeError, match="not on None"):
        DivisorClass(None, ())


def test_divisor_classes_are_slotted_and_frozen():
    s = plane_blowup(3)
    c = s.divisor(1, -1, 0, 0)
    ruled = ruled_curve(hirzebruch_blowup(2, 2), 1, 2, (1,))
    derived = c + s.exceptional(2)
    for x in (c, ruled, derived):
        assert not hasattr(x, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            x.coords = (0,) * x.surface.rank
        with pytest.raises(dataclasses.FrozenInstanceError):
            x.degree = 1
        # equality and hash are those of the (surface, coords) pair
        assert hash(x) == hash((x.surface, x.coords))
        for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
            assert type(y) is DivisorClass
            assert y == x and hash(y) == hash(x)
            assert y.surface == x.surface and y.coords == x.coords
    assert c == DivisorClass(plane_blowup(3), (1, -1, 0, 0))
    assert c != DivisorClass(plane_blowup(3), (1, 0, -1, 0))
    assert c != DivisorClass(plane_blowup(4), (1, -1, 0, 0, 0))
    assert len({c, DivisorClass(plane_blowup(3), (1, -1, 0, 0)), ruled}) == 2


def test_pairings_name_what_is_not_a_class():
    s = plane_blowup(2)
    line = s.line
    assert pairings(line, [line, s.exceptional(1)]) == (1, 0)
    with pytest.raises(LatticeError, match="need divisor classes, not 1$"):
        pairings(line, [1, 2])
    with pytest.raises(LatticeError, match=r"need a divisor class, not \(1, 0, 0\)$"):
        pairings((1, 0, 0), [line])
    with pytest.raises(LatticeError, match="need divisor classes, not Surface"):
        pairings(line, [line, s])
    with pytest.raises(ForeignClassError):
        pairings(line, [line, plane_blowup(3).line])


def test_minus_one_class_detection():
    s = plane_blowup(5)
    assert is_minus_one_class(s.exceptional(3))
    assert is_minus_one_class(plane_curve(s, 2, (1, 1, 1, 1, 1)))
    assert not is_minus_one_class(s.exceptional(1) - s.exceptional(2))
    assert not is_minus_one_class(plane_curve(s, 1))


def test_blow_up_appends_zero():
    s = plane_blowup(2)
    c = plane_curve(s, 3, (2, 1))
    bigger, (image,) = blow_up(s, (c,))
    assert bigger.blowups == 3
    assert image.coords == (3, -2, -1, 0)
    assert image * image == c * c
    assert bigger.canonical() * image == s.canonical() * c


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


def test_contractions_share_their_target_surface():
    # two blow-downs to equal surfaces return one object, so its canonical
    # class and the dual vector of K are built once
    s = plane_blowup(5)
    first, _ = blow_down(s, s.exceptional(2))
    second, _ = blow_down(plane_blowup(5), plane_curve(s, 1, (1, 1)))
    assert first is second
    assert first.canonical() is second.canonical()
    assert first._canonical_dual == first.dual(first.canonical().coords)
    bigger, _ = blow_up(first)
    assert blow_up(second)[0] is bigger
    assert blow_down(bigger, bigger.exceptional(1))[0] is first
    h = hirzebruch_blowup(1, 2)
    assert blow_down(h, h.exceptional(1))[0] is blow_down(h, h.exceptional(2))[0]
    # sharing changes neither equality nor hashing
    assert first == plane_blowup(4) and hash(first) == hash(plane_blowup(4))


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

"""Class enumeration against the coordinate-box oracle, plus the pairing
identities built on it."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from itertools import combinations_with_replacement, permutations
from math import factorial, prod

import oracles
import pytest
from hypothesis import given, settings, strategies as st
from oracles import box_classes, flat_classes

import genus2pencils
from genus2pencils import catalog
from genus2pencils.curves import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    ClassQuery,
    _SPLIT_AT,
    _arrangements,
    _blocks,
    _deals,
    _expand,
    _orbit_degrees,
    _orbits,
    _orbits_cached,
    clear_caches,
    enum_classes,
    fibre_intersection_identity,
    minus_one_section_exists,
)
from genus2pencils.lattice import (
    DivisorClass,
    Fibration,
    ForeignClassError,
    LatticeError,
    cremona,
    hirzebruch_blowup,
    pairings,
    plane_blowup,
    plane_curve,
    ruled_curve,
)


def test_enum_matches_box_oracle_plane():
    for n in (0, 1, 2, 4, 6):
        s = plane_blowup(n)
        for query in (
            ClassQuery(-1, -1, 3),
            ClassQuery(-2, 0, 3),
            ClassQuery(0, -2, 3),
            ClassQuery(-1, -1, 2),
        ):
            assert list(enum_classes(s, query)) == box_classes(s, query)


def test_enum_matches_box_oracle_hirzebruch():
    for d, n in ((0, 2), (1, 3), (2, 4)):
        s = hirzebruch_blowup(d, n)
        for query in (ClassQuery(-1, -1, 3), ClassQuery(0, -2, 2)):
            assert list(enum_classes(s, query)) == box_classes(s, query)


QUERY_KINDS = ((-1, -1), (-2, 0), (0, -2))


def test_sorted_walk_matches_flat_walk_on_catalog_surfaces():
    surfaces = {catalog.get(tag).fibration.surface for tag in catalog.tags()}
    for s in sorted(surfaces, key=lambda s: s.blowups):
        for query in QUERY_KINDS:
            for cap in (1, 2, 3):
                q = ClassQuery(*query, cap)
                assert list(enum_classes(s, q)) == flat_classes(s, q)


def test_sorted_walk_matches_flat_walk_at_cap_four():
    s = plane_blowup(12)
    q = ClassQuery(-1, -1, 4)
    found = enum_classes(s, q)
    assert len(found) == 42_714
    assert list(found) == flat_classes(s, q)


def test_sorted_walk_matches_flat_walk_on_ruled_surfaces():
    for d in (0, 1, 2):
        s = hirzebruch_blowup(d, 8)
        for query in QUERY_KINDS:
            for cap in (1, 2, 3, 4):
                q = ClassQuery(*query, cap)
                assert list(enum_classes(s, q)) == flat_classes(s, q)


# On P^2 blown up in n <= 8 general points the classes orthogonal to K form
# the root lattice of E_n: E3 = A2 + A1, E4 = A4, E5 = D5, then E6, E7, E8,
# with 0, 2, 8, 20, 40, 72, 126, 240 roots for n = 1..8.  The (-2)-classes
# with K*C = 0 are exactly the roots.  A root of degree 0 is +-(Ei - Ej),
# n(n-1) of them, and C -> -C pairs the others by the sign of their degree,
# so enum_classes, which lists degrees 0..cap, finds n(n-1) + (roots -
# n(n-1))/2: for n = 8, 56 + 92 = 148.  Every root has degree at most 3.
# The (-1)-classes with K*C = -1 are the exceptional curves of the del
# Pezzo surface of degree 9 - n: 1, 3, 6, 10, 16, 27 (the lines of the
# cubic surface), 56 and 240 (for n = 8, C -> C + K maps them onto the
# roots), all of degree 0..6.  Cap 6 therefore lists both sets whole.
DEL_PEZZO_MINUS_ONE = (1, 3, 6, 10, 16, 27, 56, 240)
DEL_PEZZO_MINUS_TWO = (0, 2, 7, 16, 30, 51, 84, 148)


def _weyl_orbit(surface, seeds) -> set:
    """Every class reached from the seeds by the reflections in the simple
    roots E_i - E_{i+1} (swapping two coordinates) and L - E1 - E2 - E3
    (lattice.cremona); the surface has at least three points."""
    n = surface.blowups
    seen, todo = set(seeds), list(seeds)
    while todo:
        c = todo.pop()
        images = list(cremona(surface, 1, 2, 3, (c,)))
        for i in range(1, n):
            x = list(c.coords)
            x[i], x[i + 1] = x[i + 1], x[i]
            images.append(DivisorClass(surface, x))
        for d in images:
            if d not in seen:
                seen.add(d)
                todo.append(d)
    return seen


@pytest.mark.parametrize("n", range(1, 9))
def test_del_pezzo_counts_are_the_root_system_counts(n):
    s = plane_blowup(n)
    lines = enum_classes(s, ClassQuery(-1, -1, 6))
    roots = enum_classes(s, ClassQuery(-2, 0, 6))
    assert (len(lines), len(roots)) == (DEL_PEZZO_MINUS_ONE[n - 1], DEL_PEZZO_MINUS_TWO[n - 1])
    assert sum(c.coords[0] == 0 for c in roots) == n * (n - 1)
    if n >= 3:
        # one Weyl orbit of E1; the roots are the orbit of the simple roots
        assert set(lines) == _weyl_orbit(s, [s.exceptional(1)])
        simple = [s.exceptional(i) - s.exceptional(i + 1) for i in range(1, n)]
        simple.append(s.divisor(1, -1, -1, -1, *(0,) * (n - 3)))
        assert set(roots) == {r for r in _weyl_orbit(s, simple) if r.coords[0] >= 0}


def test_walk_nodes_stay_within_the_entry_walk(monkeypatch):
    # deterministic: every query kind at caps 2 and 3 on P^2 and F0-F2
    # blown up in 8 points; the entry-by-entry tail walk before the shared
    # walk visited 1,737 nodes here
    from genus2pencils import curves

    nodes = 0
    walk = curves._multisets

    def counted(*args):
        *args, budget_spend = args

        def spend():
            nonlocal nodes
            nodes += 1
            budget_spend()

        return walk(*args, spend)

    monkeypatch.setattr(curves, "_multisets", counted)
    for s in (plane_blowup(8), *(hirzebruch_blowup(d, 8) for d in (0, 1, 2))):
        for query in QUERY_KINDS:
            for cap in (2, 3):
                enum_classes(s, ClassQuery(*query, cap))
    assert 0 < nodes <= 1_737


def test_cap_five_sections_fit_the_default_budget():
    # the count was checked once against oracles.flat_classes, which takes
    # about twice the time and memory to rerun
    s = plane_blowup(12)
    k = s.canonical()
    found = enum_classes(s, ClassQuery(-1, -1, 5), DEFAULT_BUDGET)
    assert len(found) == 209_760
    for c in found:
        assert c * c == -1 and k * c == -1
        assert 0 <= c.coords[0] <= 5
    keys = [c.coords[:1] + tuple(-x for x in c.coords[1:]) for c in found]
    assert all(a < b for a, b in zip(keys, keys[1:]))


def test_enum_known_members_and_order():
    s = plane_blowup(8)
    found = enum_classes(s, ClassQuery(-1, -1, 3))
    e = s.exceptional
    assert found[0] == e(1)
    assert found[1] == e(2)
    # ties inside one degree resolve by negated exceptional coordinates
    lines = [c for c in found if c.coords[0] == 1]
    assert lines[0] == plane_curve(s, 1, (0, 0, 0, 0, 0, 0, 1, 1))
    assert lines[-1] == plane_curve(s, 1, (1, 1))
    cubic = plane_curve(s, 3, (2, 1, 1, 1, 1, 1, 1))
    assert cubic in found
    assert all(c * c == -1 and s.canonical() * c == -1 for c in found)
    assert len(found) == len(set(found))


def test_enum_degree_cap_monotone():
    s = plane_blowup(5)
    small = set(enum_classes(s, ClassQuery(-1, -1, 1)))
    big = set(enum_classes(s, ClassQuery(-1, -1, 3)))
    assert small < big
    assert all(c.coords[0] * 1 <= 1 for c in small)


def test_query_validation():
    with pytest.raises(ValueError, match="degree cap must be at least 1"):
        ClassQuery(-1, -1, 0)


def test_query_fields_must_be_integers():
    # a non-integer field is refused before any walk: as K*C it would
    # otherwise match no class at all
    for fields in ((-1.0, -1, 2), (-1, -1, 2.5), (-1, -1.5, 2)):
        with pytest.raises(TypeError, match="query fields must be integers"):
            enum_classes(plane_blowup(3), ClassQuery(*fields))
    query = ClassQuery(True, -1, 2)
    assert (query.self_int, type(query.self_int)) == (1, int)


def test_budget_exhaustion():
    s = plane_blowup(8)
    with pytest.raises(BudgetExceededError, match="budget exceeded"):
        enum_classes(s, ClassQuery(-1, -1, 3), budget=10)


def test_smallest_budget_counts_walk_nodes_and_classes():
    # one rule for every query: the walk's nodes plus its orbits, and the
    # class count, must each fit the budget; here the class count binds
    # (walk plus orbits: 12, 36, 12 and 20)
    for s, query, smallest in (
        (plane_blowup(8), ClassQuery(-1, -1, 3), 148),
        (plane_blowup(12), ClassQuery(-1, -1, 4), 42_714),
        (hirzebruch_blowup(1, 9), ClassQuery(-2, 0, 3), 327),
    ):
        assert len(enum_classes(s, query, smallest)) == smallest
        with pytest.raises(BudgetExceededError, match="budget exceeded"):
            enum_classes(s, query, smallest - 1)
    fib = _b1_fibration()
    query = ClassQuery(-1, -1, 3)
    assert len(fibre_intersection_identity(fib, fib.named("P"), 2, query, 2_948).classes) == 2_948
    with pytest.raises(BudgetExceededError, match="budget exceeded"):
        fibre_intersection_identity(fib, fib.named("P"), 2, query, 2_947).classes


class _Index:
    """An integer-like budget that hashes by identity."""

    def __init__(self, n: int) -> None:
        self.n = n

    def __index__(self) -> int:
        return self.n


def test_budget_must_be_an_integer():
    s = plane_blowup(3)
    query = ClassQuery(-1, -1, 2)
    fib = _b1_fibration()
    for bad in ("10", None, 2.5):
        with pytest.raises(TypeError, match="budget must be an integer"):
            enum_classes(s, query, bad)
        with pytest.raises(TypeError, match="budget must be an integer"):
            minus_one_section_exists(fib, 2, budget=bad)
        with pytest.raises(TypeError, match="budget must be an integer"):
            fibre_intersection_identity(fib, fib.named("P"), 2, query, bad)
    assert enum_classes(s, query, _Index(DEFAULT_BUDGET)) == enum_classes(s, query)
    # the orbit cache is keyed by the coerced budget
    clear_caches()
    minus_one_section_exists(fib, 2, budget=_Index(DEFAULT_BUDGET))
    minus_one_section_exists(fib, 2)
    assert _orbits_cached.cache_info().hits == 1
    report = fibre_intersection_identity(fib, fib.named("P"), 2, ClassQuery(-1, -1, 3), _Index(500))
    with pytest.raises(BudgetExceededError, match="budget exceeded"):
        report.classes


def test_arrangements_are_the_distinct_permutations():
    # every non-increasing tuple over -2..2 of length at most 8, on both
    # sides of the split
    for n in range(9):
        for tail in combinations_with_replacement(range(2, -3, -1), n):
            got = _arrangements(tail)
            assert len(got) == len(set(got))
            assert set(got) == set(permutations(tail)), tail
            if len(got) < _SPLIT_AT:
                assert got == sorted(got, reverse=True)


def test_arrangements_of_long_tails():
    # too many permutations to list: check each is a distinct rearrangement
    # and count them by the multinomial
    for tail in (
        (1,) + (0,) * 12,
        (1, 1) + (0,) * 11,
        (1,) * 4 + (0,) * 5 + (-1,) * 4,
        (2, 1, 1, 1) + (0,) * 7 + (-1, -1),
    ):
        got = _arrangements(tail)
        count = factorial(13) // prod(map(factorial, Counter(tail).values()))
        assert (count < _SPLIT_AT) == (tail == (1,) + (0,) * 12)
        assert len(got) == len(set(got)) == count
        assert all(sorted(a, reverse=True) == list(tail) for a in got)


def _b1_fibration() -> Fibration:
    s = plane_blowup(11)
    f = plane_curve(s, 7, (3,) + (2,) * 10)
    p = plane_curve(s, 1, (1,))
    return Fibration(s, f, named_classes=(("F", f), ("P", p)))


def test_fibre_intersection_identity_holds():
    fib = _b1_fibration()
    p = fib.named("P")
    report = fibre_intersection_identity(fib, p, 2, ClassQuery(-1, -1, 3))
    assert report.holds
    assert report.shift == 2
    assert report.minimum == 2
    assert len(report.classes) == len(report.fibre_degrees)
    for c, fd, pd in zip(report.classes, report.fibre_degrees, report.pencil_degrees):
        assert fd == fib.fibre_class * c
        assert pd == p * c
        assert fd == pd + 2
    for w in report.witnesses:
        assert fib.fibre_class * w == report.minimum


def test_fibre_intersection_identity_rejects_mismatch():
    fib = _b1_fibration()
    with pytest.raises(ValueError, match="identity inapplicable"):
        fibre_intersection_identity(fib, fib.named("P"), 3, ClassQuery(-1, -1, 3))
    # surfaces compare by value, so a foreign class needs a different shape
    other = plane_curve(plane_blowup(10), 1, (1,))
    with pytest.raises(ValueError, match="pencil lives on another surface"):
        fibre_intersection_identity(fib, other, 2, ClassQuery(-1, -1, 3))


@pytest.mark.parametrize("bad", (2.0, "2", None))
def test_shift_must_be_an_integer(bad):
    fib = _b1_fibration()
    p = fib.named("P")
    with pytest.raises(TypeError, match="shift must be an integer"):
        fibre_intersection_identity(fib, p, bad, ClassQuery(-1, -1, 2))
    with pytest.raises(TypeError, match="shift must be an integer"):
        minus_one_section_exists(fib, 2, p, bad)
    # an __index__ shift is taken as the int it stands for
    assert fibre_intersection_identity(fib, p, _Index(2), ClassQuery(-1, -1, 2)).shift == 2
    assert minus_one_section_exists(fib, 2, p, _Index(2)).certified_bound == 2


@pytest.mark.parametrize("shift", (2, "x"))
def test_section_search_refuses_a_shift_without_a_pencil(shift):
    with pytest.raises(LatticeError, match="a shift needs a pencil"):
        minus_one_section_exists(_b1_fibration(), 3, None, shift)


@pytest.mark.parametrize(
    "call, name",
    (
        (lambda fib: fibre_intersection_identity(fib, (1, 0, 0), 2, ClassQuery(-1, -1, 2)), "pencil"),
        (lambda fib: minus_one_section_exists(fib, 2, "P", 2), "pencil"),
        (
            lambda fib: minus_one_section_exists(Fibration(plane_blowup(3), (1, 0, 0, 0)), 2),
            "the fibre class of fib",
        ),
        (lambda fib: minus_one_section_exists("B1", 2), "fib"),
        (lambda fib: fibre_intersection_identity("B1", fib.named("P"), 2, ClassQuery(-1, -1, 2)), "fib"),
        (lambda fib: enum_classes("plane", ClassQuery(-1, -1, 2)), "surface"),
        (lambda fib: enum_classes(plane_blowup(3), (-1, -1, 2)), "query"),
        (lambda fib: fibre_intersection_identity(fib, fib.named("P"), 2, (-1, -1, 2)), "query"),
    ),
)
def test_entry_points_name_an_argument_of_the_wrong_type(call, name):
    # a TypeError naming the argument, not an AttributeError from deep
    # inside, raised before any walk or orbit-cache lookup
    clear_caches()
    with pytest.raises(TypeError, match=f"^{name} must be a "):
        call(_b1_fibration())
    assert _orbits_cached.cache_info().currsize == 0


def test_section_search_checks_the_decomposition_before_the_walk():
    # a budget of 5 is far too small for the cap-3 walk, so the walk would
    # raise BudgetExceededError if it ran before the check
    fib = _b1_fibration()
    with pytest.raises(BudgetExceededError):
        minus_one_section_exists(fib, 3, budget=5)
    with pytest.raises(LatticeError, match="identity inapplicable") as raised:
        minus_one_section_exists(fib, 3, fib.named("P"), 3, budget=5)
    assert not isinstance(raised.value, BudgetExceededError)


def test_section_search_with_witness():
    s = plane_blowup(12)
    f = plane_curve(s, 6, (2,) * 8 + (1,) * 4)
    search = minus_one_section_exists(Fibration(s, f))
    assert search.exists
    assert str(search.witness) == "E9"
    assert search.minimum == 1
    assert search.certified_bound is None


def test_section_search_certified_absence():
    fib = _b1_fibration()
    search = minus_one_section_exists(fib, 3, fib.named("P"), 2)
    assert not search.exists
    assert search.witness is None
    assert search.minimum == 2
    assert search.certified_bound == 2
    assert "pair at least 2" in search.note


def test_section_certificate_needs_a_nonnegative_pencil():
    # F = E1 - 2K on P^2 blown up in six points: the decomposition holds,
    # but the pencil E1 pairs -1 with itself, so E1 meets F once and no
    # bound of 2 may be certified
    s = plane_blowup(6)
    p = s.exceptional(1)
    fib = Fibration(s, p + (-2) * s.canonical())
    search = minus_one_section_exists(fib, 3, p, 2)
    assert search.exists
    assert str(search.witness) == "E1"
    assert search.minimum == 1
    assert search.certified_bound is None
    assert search.note == ""
    assert search == oracles.minus_one_section_exists(fib, 3, p, 2)
    certified = {
        tag: minus_one_section_exists(fib, 3, pencil, shift).certified_bound
        for tag, fib, pencil, shift in _catalog_pencils()
        if pencil is not None
    }
    assert certified == {"B1": 2, "C": 4, "Ex4_4": 2, "Ex4_6": 4}


# Block orbits: the section search, the pairing identity and the orbits
# of one degree, expanded, against the class-by-class references in oracles.

IDENTITY_FIELDS = (
    "holds", "shift", "pencil", "classes", "fibre_degrees", "pencil_degrees",
    "minimum", "witnesses",
)


def _assert_same_identity(got, want):
    for name in IDENTITY_FIELDS:
        assert getattr(got, name) == getattr(want, name), name
    assert got.count == len(want.classes)


def _catalog_pencils():
    for tag in catalog.tags():
        entry = catalog.get(tag)
        shift = entry.expected.pencil_shift
        pencil = entry.fibration.named("P") if shift is not None else None
        yield tag, entry.fibration, pencil, shift


def test_section_search_matches_reference_on_catalog():
    for tag, fib, pencil, shift in _catalog_pencils():
        for cap in (1, 2, 3, 4):
            assert minus_one_section_exists(fib, cap) == oracles.minus_one_section_exists(fib, cap), tag
            if pencil is not None:
                got = minus_one_section_exists(fib, cap, pencil, shift)
                assert got == oracles.minus_one_section_exists(fib, cap, pencil, shift), tag


def test_identity_matches_reference_on_catalog():
    for tag, fib, pencil, shift in _catalog_pencils():
        if pencil is None:
            continue
        for query in QUERY_KINDS:
            for cap in (1, 2, 3, 4):
                q = ClassQuery(*query, cap)
                _assert_same_identity(
                    fibre_intersection_identity(fib, pencil, shift, q),
                    oracles.fibre_intersection_identity(fib, pencil, shift, q),
                )


def _meeting(surface, d, degree, query):
    """The classes of enum_classes(surface, query) with d*C == degree, in
    the same order: only the block orbits of d that pair to degree are
    expanded."""
    blocks = _blocks(surface, (d,))
    orbits = _orbits(surface, query, blocks, DEFAULT_BUDGET)
    keep = tuple(o for o, v in zip(orbits, _orbit_degrees(d, blocks, orbits)) if v == degree)
    return _expand(surface, blocks, keep, DEFAULT_BUDGET)


def test_classes_meeting_matches_filtered_enumeration_on_catalog():
    for tag, fib, _, _ in _catalog_pencils():
        f = fib.fibre_class
        q = ClassQuery(-1, -1, 3)
        every = enum_classes(fib.surface, q)
        degrees = pairings(f, every)
        for degree in sorted(set(degrees)) + [max(degrees) + 1]:
            want = [c for c, d in zip(every, degrees) if d == degree]
            assert list(_meeting(fib.surface, f, degree, q)) == want, (tag, degree)


@st.composite
def _tails(draw, n: int):
    """Exceptional coordinates that split the indices into blocks: a few
    repeated values, sometimes interleaved as 2, 1, 2, 1, ..."""
    if draw(st.booleans()):
        a, b = draw(st.integers(1, 3)), draw(st.integers(0, 2))
        return tuple(-(a if i % 2 == 0 else b) for i in range(n))
    values = draw(st.lists(st.integers(-3, 1), min_size=1, max_size=3))
    return tuple(draw(st.sampled_from(values)) for _ in range(n))


@st.composite
def _pencil_data(draw):
    n = draw(st.integers(0, 8))
    if draw(st.booleans()):
        s = plane_blowup(n)
        head = (draw(st.integers(0, 5)),)
    else:
        s = hirzebruch_blowup(draw(st.integers(0, 2)), min(n, 7))
        head = (draw(st.integers(0, 3)), draw(st.integers(0, 4)))
    pencil = DivisorClass(s, head + draw(_tails(s.blowups)))
    shift = draw(st.integers(0, 3))
    fib = Fibration(s, pencil + (-shift) * s.canonical())
    query = ClassQuery(*draw(st.sampled_from(QUERY_KINDS)), draw(st.integers(1, 3)))
    return fib, pencil, shift, query


@settings(max_examples=60, deadline=None)
@given(_pencil_data())
def test_orbit_consumers_match_reference(data):
    fib, pencil, shift, query = data
    _assert_same_identity(
        fibre_intersection_identity(fib, pencil, shift, query),
        oracles.fibre_intersection_identity(fib, pencil, shift, query),
    )
    cap = query.degree_cap
    assert minus_one_section_exists(fib, cap) == oracles.minus_one_section_exists(fib, cap)
    got = minus_one_section_exists(fib, cap, pencil, shift)
    assert got == oracles.minus_one_section_exists(fib, cap, pencil, shift)
    every = enum_classes(fib.surface, query)
    degrees = pairings(pencil, every)
    for degree in set(degrees[:3]):
        want = [c for c, d in zip(every, degrees) if d == degree]
        assert list(_meeting(fib.surface, pencil, degree, query)) == want


def test_interleaved_blocks_are_split_by_position():
    s = plane_blowup(6)
    f = plane_curve(s, 4, (2, 1, 2, 1, 2, 1))
    assert _blocks(s, (f,)) == ((0, 2, 4), (1, 3, 5))
    assert _blocks(s, (s.canonical(),)) == ((0, 1, 2, 3, 4, 5),)
    assert _blocks(s, ()) == ((0, 1, 2, 3, 4, 5),)
    assert _blocks(plane_blowup(0), ()) == ()


def test_interleaved_blocks_expand_in_enumeration_order():
    # the blocks (0, 2, 4) and (1, 3, 5) are joined block after block and
    # must be put back in position order before the classes are sorted;
    # the whole enumeration is closed under permutations, so only the
    # subsets (witnesses, classes of one degree) show a misplaced column
    s = plane_blowup(6)
    f = plane_curve(s, 4, (2, 1, 2, 1, 2, 1))
    p = f + 2 * s.canonical()
    query = ClassQuery(-1, -1, 3)
    report = fibre_intersection_identity(Fibration(s, f), p, 2, query)
    want = enum_classes(s, query)
    assert len(want) > 1
    assert report.classes == want
    degrees = pairings(f, want)
    assert report.witnesses == tuple(c for c, d in zip(want, degrees) if d == report.minimum)
    for degree in set(degrees):
        meeting = tuple(c for c, d in zip(want, degrees) if d == degree)
        assert _meeting(s, f, degree, query) == meeting


def test_ruled_interleaved_blocks_expand_in_enumeration_order():
    # the head has two coordinates, so the one permutation that puts a
    # row in position order must keep D0 and G in front and put the
    # blocks (0, 2, 4, 6) and (1, 3, 5, 7) back in place behind them
    s = hirzebruch_blowup(1, 8)
    f = ruled_curve(s, 2, 6, (2, 1) * 4)
    fib = Fibration(s, f, genus=0).validate()
    assert _blocks(s, (f,)) == ((0, 2, 4, 6), (1, 3, 5, 7))
    p = f + s.canonical()
    for query in (ClassQuery(-1, -1, 3), ClassQuery(-2, 0, 2), ClassQuery(0, -2, 2)):
        want = enum_classes(s, query)
        degrees = pairings(f, want)
        assert len(set(degrees)) > 1
        report = fibre_intersection_identity(fib, p, 1, query)
        assert report.classes == want
        assert report.witnesses == tuple(c for c, d in zip(want, degrees) if d == report.minimum)
        for degree in set(degrees):
            meeting = tuple(c for c, d in zip(want, degrees) if d == degree)
            assert _meeting(s, f, degree, query) == meeting
    found = minus_one_section_exists(fib, 3)
    want = enum_classes(s, ClassQuery(-1, -1, 3))
    degrees = pairings(f, want)
    assert found.witness == next(c for c, d in zip(want, degrees) if d == 1)
    assert found.minimum_witness == want[degrees.index(min(degrees))]


_MEMORY_PROBE = """
import json, tracemalloc
from genus2pencils.curves import ClassQuery, enum_classes
from genus2pencils.lattice import plane_blowup
s = plane_blowup(12)
tracemalloc.start()
classes = enum_classes(s, ClassQuery(-1, -1, 4))
print(json.dumps([len(classes), tracemalloc.get_traced_memory()[0]]))
"""


def test_enumerated_classes_cost_one_row_and_one_small_object():
    # a class is a (surface, coords) tuple over its coordinate row, about
    # 215 bytes on P^2 blown up in 12 points.  Measured in a fresh interpreter, as a
    # benchmark worker runs: there the first bulk build of a class with an
    # instance dict gives every class a whole dict (about 480 bytes each),
    # and a second row per class would also pass 300
    src = os.path.dirname(os.path.dirname(os.path.abspath(genus2pencils.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _MEMORY_PROBE], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    count, retained = json.loads(proc.stdout)
    assert count == 42_714
    assert retained / count <= 300


def test_orbit_sizes_count_the_enumeration():
    s = plane_blowup(12)
    f = plane_curve(s, 6, (2,) * 8 + (1,) * 4)
    q = ClassQuery(-1, -1, 4)
    orbits = _orbits_cached(s, q, _blocks(s, (f,)), DEFAULT_BUDGET)
    assert sum(o.size for o in orbits) == len(enum_classes(s, q)) == 42_714


def test_orbit_degrees_refuse_a_class_that_splits_a_block():
    s = plane_blowup(4)
    blocks = _blocks(s, (s.canonical(),))
    orbits = _orbits_cached(s, ClassQuery(-1, -1, 2), blocks, DEFAULT_BUDGET)
    with pytest.raises(LatticeError, match="not constant on the exceptional block"):
        _orbit_degrees(plane_curve(s, 1, (1,)), blocks, orbits)


def test_section_search_rejects_foreign_fibre_class():
    f = plane_curve(plane_blowup(9), 3, (1,) * 9)
    with pytest.raises(ForeignClassError):
        minus_one_section_exists(Fibration(plane_blowup(8), f))


def test_orbit_walk_budget():
    fib = _b1_fibration()
    with pytest.raises(BudgetExceededError, match="budget exceeded"):
        minus_one_section_exists(fib, 3, budget=10)
    # the walk fits, but expanding every class does not
    report = fibre_intersection_identity(fib, fib.named("P"), 2, ClassQuery(-1, -1, 3), 500)
    assert report.count == 2_948
    with pytest.raises(BudgetExceededError, match="budget exceeded"):
        report.classes


def test_section_search_at_cap_six_fits_the_default_budget():
    a = catalog.get("A").fibration
    b1 = catalog.get("B1").fibration
    p = b1.named("P")
    # the cap-6 answers agree with the class-by-class reference at cap 4
    assert minus_one_section_exists(a, 4) == oracles.minus_one_section_exists(a, 4)
    assert minus_one_section_exists(b1, 4, p, 2) == oracles.minus_one_section_exists(b1, 4, p, 2)
    try:
        found = minus_one_section_exists(a, 6, budget=DEFAULT_BUDGET)
        assert found.exists
        assert str(found.witness) == "E9"
        assert found.minimum == 1
        absent = minus_one_section_exists(b1, 6, p, 2, DEFAULT_BUDGET)
        assert not absent.exists
        assert absent.witness is None
        assert absent.minimum == 2
        assert absent.certified_bound == 2
    finally:
        clear_caches()


def test_clear_caches_drops_orbits():
    fib = _b1_fibration()
    minus_one_section_exists(fib, 2)
    assert _orbits_cached.cache_info().currsize
    clear_caches()
    assert _orbits_cached.cache_info().currsize == 0


def _dealt_by_arrangement(tail, sizes):
    """{(one sorted tail per block): how many arrangements of the tail deal
    to it}, by writing out every distinct arrangement and cutting it into
    the blocks."""
    counts = Counter()
    for row in set(permutations(tail)):
        cuts, start = [], 0
        for size in sizes:
            cuts.append(tuple(sorted(row[start:start + size], reverse=True)))
            start += size
        counts[tuple(cuts)] += 1
    return counts


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(-2, 2), max_size=7).map(lambda t: tuple(sorted(t, reverse=True))),
    st.randoms(use_true_random=False),
)
def test_deals_on_count_vectors_match_the_arrangements(tail, rng):
    # every deal once, the first block's ways outermost and largest first,
    # each with the multinomial count of the arrangements it stands for
    cuts = sorted(rng.sample(range(len(tail) + 1), rng.randrange(min(3, len(tail) + 1) + 1)))
    sizes = tuple(b - a for a, b in zip([0] + cuts, cuts + [len(tail)])) if tail else ()
    factorials = [factorial(i) for i in range(len(tail) + 1)]
    got = _deals(tail, sizes, factorials)
    assert dict(got) == _dealt_by_arrangement(tail, sizes) if sizes else got == [((), 1)]
    assert len({tails for tails, _ in got}) == len(got)
    assert [tails for tails, _ in got] == sorted((tails for tails, _ in got), reverse=True)


# the orbit tables of one verify pass, recorded before the depth-first deal:
# (-1,-1,3) on the fibre blocks of A, B1, B2 and C (the Ex4 tags share
# their keys), and (0,-2,3) on B1's and C's
VERIFY_ORBITS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "verify_orbits.json")


def test_the_verify_orbit_tables_are_frozen():
    with open(VERIFY_ORBITS, encoding="utf-8") as handle:
        frozen = json.load(handle)
    assert len(frozen) == 6
    for key, want in frozen.items():
        tag, *query = key.split()
        fib = catalog.get(tag).fibration
        blocks = _blocks(fib.surface, (fib.fibre_class,))
        orbits = _orbits(fib.surface, ClassQuery(*map(int, query)), blocks, DEFAULT_BUDGET)
        got = [[list(o.head), [list(t) for t in o.tails], o.size] for o in orbits]
        assert got == want, key

"""Class enumeration against the coordinate-box oracle, plus the pairing
identities built on it."""

from __future__ import annotations

import pytest
from oracles import box_classes, flat_classes

from genus2pencils import catalog
from genus2pencils.curves import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    ClassQuery,
    _enum_cached,
    enum_classes,
    fibre_intersection_identity,
    minus_one_section_exists,
    reference_class,
)
from genus2pencils.lattice import (
    Fibration,
    hirzebruch_blowup,
    plane_blowup,
    plane_curve,
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


def test_cap_five_sections_fit_the_default_budget():
    # the count was checked once against oracles.flat_classes, which takes
    # about twice the time and memory to rerun
    s = plane_blowup(12)
    k = s.canonical()
    try:
        found = enum_classes(s, ClassQuery(-1, -1, 5), DEFAULT_BUDGET)
        assert len(found) == 209_760
        for c in found:
            assert c * c == -1 and k * c == -1
            assert 0 <= c.coords[0] <= 5
        keys = [c.coords[:1] + tuple(-x for x in c.coords[1:]) for c in found]
        assert all(a < b for a, b in zip(keys, keys[1:]))
    finally:
        # a result this large should not outlive the test
        _enum_cached.cache_clear()


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


def test_budget_exhaustion():
    s = plane_blowup(8)
    with pytest.raises(BudgetExceededError, match="budget exceeded"):
        enum_classes(s, ClassQuery(-1, -1, 3), budget=10)


def test_reference_class():
    assert reference_class(plane_blowup(2)).coords == (1, 0, 0)
    h = hirzebruch_blowup(2, 1)
    ref = reference_class(h)
    assert ref.coords == (1, 3, 0)
    assert ref * h.minimal_section == 1
    assert ref * h.ruling == 1


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

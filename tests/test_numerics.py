"""Numeric-type search against the blunt oracle, frozen classification
rows, lower bounds and exclusion arithmetic."""

from __future__ import annotations

from fractions import Fraction

import pytest
from oracles import (
    blunt_mult_vectors,
    naive_obstruction_minima,
    naive_search_general,
    naive_search_special,
)

from genus2pencils.numerics import (
    NumericType,
    SpecialType,
    _floor_cuts,
    _mult_vectors,
    apply_exclusion,
    exclude_p2_and_hirzebruch,
    search_general,
    search_special,
    triple_point_image_obstruction,
)

FIVE_ROWS = (
    NumericType(2, 0, (2,) * 7, 1),
    NumericType(2, 2, (2,) * 10, 2),
    NumericType(4, 0, (3,) * 7 + (2, 2), 2),
    NumericType(6, 2, (4,) * 9, 3),
    NumericType(8, 0, (5,) * 7 + (4, 3), 3),
)


def test_genus_two_window_frozen():
    rows = search_general(2, 1, 3)
    assert rows == FIVE_ROWS
    assert tuple(r.adjoint_square for r in rows) == (1, 2, 2, 3, 3)
    assert tuple(r.pencil_square for r in rows) == (4, 0, 1, 0, 0)
    assert tuple(r.base_point_count for r in rows) == (7, 10, 9, 9, 9)
    for r in rows:
        assert r.genus == 2
        assert r.adjoint_square + r.pencil_square + r.base_point_count == 12


def test_special_window_empty_for_genus_two():
    assert search_special(2, 1, 3) == ()
    assert search_special(2, 1, 3, prune=False) == ()
    # the one candidate shape dies on a negative pencil square
    cand = SpecialType(3, 2, (2,) * 12, 3)
    assert cand.genus == 2
    assert cand.pencil_square == -3


def test_special_candidate_killed_by_pencil_square():
    # adjoint degree 3, extra multiplicity 2: the pair sum forces twelve
    # double points and the pencil square lands at -3
    a, m0, genus = 3, 2, 2
    pair_sum = a * (a + 1) // 2 + m0 * (a + 1) - genus
    assert pair_sum == 12
    gsq = (a + 2) * (a + 2 + 2 * m0) - 12 * 4
    assert gsq == -3


def test_search_equals_oracle_genus_two():
    naive = naive_search_general(2, 1, 3, adjoint_cap=10, point_cap=12)
    assert search_general(2, 1, 3) == naive
    assert search_general(2, 1, 3, prune=False) == naive


def test_search_equals_oracle_genus_three():
    naive = naive_search_general(3, 1, 4, adjoint_cap=8, point_cap=15)
    assert search_general(3, 1, 4, adjoint_cap=8) == naive
    assert search_general(3, 1, 4, prune=False, adjoint_cap=8) == naive
    assert naive  # the window is not vacuous


def test_special_search_equals_oracle():
    for genus in (2, 8):
        naive = naive_search_special(genus, 1, 10, adjoint_cap=9, point_cap=4 * genus + 3)
        assert search_special(genus, 1, 10, adjoint_cap=9) == naive
        assert search_special(genus, 1, 10, prune=False, adjoint_cap=9) == naive
    assert naive


def test_mult_vector_generator_equals_blunt():
    from genus2pencils.numerics import _mult_vectors

    for pair_sum in range(0, 16):
        for m_max in (2, 3, 4):
            for slots in (3, 6, 10):
                blunt = sorted(blunt_mult_vectors(pair_sum, m_max, slots))
                got = sorted(_mult_vectors(pair_sum, m_max, slots, None))
                assert got == blunt


def test_mult_vectors_of_a_negative_pair_sum_are_empty():
    # no tuple has a negative sum of m(m-1)/2, whatever the largest entry
    for pair_sum in (-1, -3, -10):
        for m_max in range(0, 7):
            for slots in (0, 5):
                for window in (None, (0, 30)):
                    assert list(_mult_vectors(pair_sum, m_max, slots, window)) == []


def test_mult_vector_window_never_drops_in_window_tuples():
    from genus2pencils.numerics import _mult_vectors

    for pair_sum in (6, 9, 12):
        for m_max in (3, 4):
            blunt = set(blunt_mult_vectors(pair_sum, m_max, 10))
            for lo, hi in ((0, 8), (4, 12), (9, 30)):
                got = set(_mult_vectors(pair_sum, m_max, 10, (lo, hi)))
                wanted = {
                    t for t in blunt if lo <= sum((m - 1) ** 2 for m in t) <= hi
                }
                assert wanted <= got <= blunt


def test_mult_vector_hints_filter_exactly():
    # m_max up to 7 runs above the largest value that fits the small pair
    # sums, and slots from 1 make the slot limit meet the tail of 3s and 2s
    for pair_sum in range(0, 41):
        for m_max in range(2, 8):
            for slots in range(1, 13):
                blunt = []
                for t in blunt_mult_vectors(pair_sum, m_max, slots):
                    extra = sum((m - 1) ** 2 for m in t)
                    assert extra == 2 * pair_sum - sum(m - 1 for m in t)
                    assert sum(m * m for m in t) == 2 * pair_sum + sum(t)
                    blunt.append((t, extra))
                windows = (
                    (0, 2 * pair_sum),
                    (pair_sum, pair_sum + pair_sum // 2),
                    (pair_sum + pair_sum // 3, 2 * pair_sum),
                    (pair_sum + 2, pair_sum + 5),
                )
                for lo, hi in windows:
                    got = set(_mult_vectors(pair_sum, m_max, slots, (lo, hi)))
                    assert got == {t for t, extra in blunt if lo <= extra <= hi}


def _windows(genus):
    top = 2 * genus + 2
    return [(lo, hi) for lo in range(1, top + 1) for hi in range(lo, top + 1)]


@pytest.mark.filterwarnings("ignore:search reached the adjoint-degree ceiling")
@pytest.mark.parametrize("genus", (2, 3, 4))
def test_every_window_equals_the_oracle_pruned_and_unpruned(genus):
    # the oracles take the whole proved point range of each window
    for lo, hi in _windows(genus):
        caps = dict(adjoint_cap=8, point_cap=4 * genus + 4 - lo)
        general = naive_search_general(genus, lo, hi, **caps)
        special = naive_search_special(genus, lo, hi, **caps)
        for prune in (True, False):
            assert search_general(genus, lo, hi, prune=prune, adjoint_cap=8) == general
            assert search_special(genus, lo, hi, prune=prune, adjoint_cap=8) == special


@pytest.mark.filterwarnings("ignore:search reached the adjoint-degree ceiling")
@pytest.mark.parametrize("genus", (2, 3, 4, 5, 6))
def test_every_row_meets_the_pencil_square_identity(genus):
    # the identities behind the point bound, on every row of every window
    # 1..4g+3 at the default adjoint cap; e = m - 1
    general = search_general(genus, 1, 4 * genus + 3)
    special = search_special(genus, 1, 4 * genus + 3)
    assert general and (special or genus == 2)  # genus 2 has no special row
    for row in general + special:
        ksq, ms = row.adjoint_square, row.multiplicities
        assert row.pencil_square == 4 * genus + 4 - ksq - len(ms)
        a, es = row.adjoint_degree, [m - 1 for m in ms]
        if isinstance(row, NumericType):
            t = row.twice_offset
            assert sum(es) == 4 * a + 2 + t - 2 * genus + ksq
            assert sum(e * e for e in es) == a * (2 * a + t) - ksq
        else:
            assert sum(es) == 3 * a + 2 * row.extra_multiplicity - 2 * genus + ksq


def test_numeric_type_validation():
    with pytest.raises(ValueError, match="adjoint degree must be positive"):
        NumericType(0, 0, (), 0)
    with pytest.raises(ValueError, match="even adjoint degree forces an even twice-offset"):
        NumericType(2, 1, (2,) * 7, 1)
    with pytest.raises(ValueError, match="exceeds half the pencil degree"):
        NumericType(2, 0, (3,), 1)
    with pytest.raises(ValueError, match="disagrees with the defining equation"):
        NumericType(2, 0, (2,) * 7, 2)
    row = NumericType(6, 2, (4,) * 9, 3)
    assert row.pencil_degree == 8
    assert row.admissible_indices == (0, 1, 2)


def test_numeric_rows_take_integers_only():
    # floats, strings and non-sequences are rejected, not truncated
    for args in (
        (2, 0, (2.9,) * 7, 1),
        (2, 0, ("2",) * 7, 1),
        (2.0, 0, (2,) * 7, 1),
        (2, 0.0, (2,) * 7, 1),
        (2, 0, (2,) * 7, 1.0),
        (2, 0, 2, 1),
    ):
        with pytest.raises(ValueError, match="must hold integers"):
            NumericType(*args)
    for args in ((3.0, 2, (2,) * 12, 3), (3, "2", (2,) * 12, 3), (3, 2, (2.0,) * 12, 3),
                 (3, 2, (2,) * 12, Fraction(3))):
        with pytest.raises(ValueError, match="must hold integers"):
            SpecialType(*args)
    # any integer type is stored as int and a list as a tuple
    row = NumericType(2, False, [2] * 7, 1)
    assert row == FIVE_ROWS[0]
    assert all(type(v) is int for v in (row.adjoint_degree, row.twice_offset, *row.multiplicities))
    assert type(row.multiplicities) is tuple
    assert SpecialType(3, 2, [2] * 12, 3).multiplicities == (2,) * 12


def test_admissible_indices_family():
    # the degree-8 fibre coefficients across indices follow b = 9 + 4d
    row = NumericType(6, 2, (4,) * 9, 3)
    for d in row.admissible_indices:
        t = row.twice_offset
        b2 = t + (d + 2) * row.pencil_degree
        assert b2 % 2 == 0
        assert b2 // 2 == 9 + 4 * d


def test_search_cap_warning():
    with pytest.warns(UserWarning, match="adjoint-degree ceiling"):
        search_general(2, 1, 3, adjoint_cap=8)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        search_general(2, 1, 3)  # default caps clear the last row


def test_special_search_warns_at_the_ceiling():
    with pytest.warns(UserWarning, match="adjoint-degree ceiling"):
        rows = search_special(3, 1, 8, adjoint_cap=11)
    assert any(row.adjoint_degree == 11 for row in rows)


def test_search_window_validation():
    with pytest.raises(ValueError, match="genus must be at least 2"):
        search_general(1, 1, 3)
    with pytest.raises(ValueError, match="window must satisfy"):
        search_general(2, 0, 3)
    with pytest.raises(ValueError, match="window must satisfy"):
        search_general(2, 3, 1)


@pytest.mark.parametrize("search", (search_general, search_special))
@pytest.mark.parametrize(
    "args, kwargs, message",
    (
        # a float, a string or None is refused, not truncated or compared
        ((2, 1, 3.5), {}, "must be integers"),
        ((2.0, 1, 3), {}, "must be integers"),
        (("2", 1, 3), {}, "must be integers"),
        ((2, None, 3), {}, "must be integers"),
        ((2, 1, 3), {"adjoint_cap": 8.0}, "must be integers"),
        ((2, 1, 3), {"adjoint_cap": 0}, "adjoint_cap must be at least 1"),
        ((2, 1, 3), {"adjoint_cap": -4}, "adjoint_cap must be at least 1"),
    ),
)
def test_search_argument_validation(search, args, kwargs, message):
    with pytest.raises(ValueError, match=message):
        search(*args, **kwargs)


def _cuts(genus, a, t, prefix, m, ksq_hi):
    """The general walk's floor at cell (a, t) after a multiplicity prefix,
    completed by entries at most m: does it rule out ksq <= ksq_hi?"""
    base = a * (2 * a + t) - sum((x - 1) ** 2 for x in prefix)
    pair_total = (a + 1) * (2 * (a + 1) + t) // 2 - genus
    pair_left = pair_total - sum(x * (x - 1) // 2 for x in prefix)
    return _floor_cuts(base - ksq_hi, pair_left, m)


def test_prefix_lower_bound_spot_values():
    # each floor value v cuts the window ending at v - 1 and keeps the one ending at v
    for genus, a, t, prefix, m, floor in (
        (2, 4, 0, (3,) * 7, 1, 4),
        (2, 6, 2, (), 4, 3),
        (2, 3, 0, (), 2, 4),
    ):
        assert _cuts(genus, a, t, prefix, m, floor - 1)
        assert not _cuts(genus, a, t, prefix, m, floor)


def test_prefix_bound_below_actual_on_all_rows():
    for row in FIVE_ROWS:
        mults = row.multiplicities
        for cut in range(len(mults) + 1):
            tail_max = mults[cut] if cut < len(mults) else 1
            assert not _cuts(
                2, row.adjoint_degree, row.twice_offset, mults[:cut], tail_max, row.adjoint_square
            )


def test_odd_bound_equality_case():
    # adjoint degree 3, genus 8: eight double points meet the floor exactly
    rows = naive_search_general(8, 10, 10, adjoint_cap=3, point_cap=26)
    row = NumericType(3, 0, (2,) * 8, 10)
    assert row in rows
    assert row.genus == 8
    assert _cuts(8, 3, 0, (), 2, 9)
    assert not _cuts(8, 3, 0, (), 2, 10)
    with pytest.warns(UserWarning, match="adjoint-degree ceiling"):
        assert row in search_general(8, 10, 10, adjoint_cap=3)


def test_exclusion_ruled_indices_match_a_fraction_scan():
    for g in range(2, 13):
        for ksq in range(1, 4 * g + 1):
            expected = tuple(
                c for c in range((g - 1) // 2 + 1) if Fraction(2 * c * (g - c - 1), c + 1) == ksq
            )
            assert exclude_p2_and_hirzebruch(g, ksq).ruled_indices == expected


def test_exclude_p2_and_hirzebruch():
    for ksq in (1, 2, 3):
        verdict = exclude_p2_and_hirzebruch(2, ksq)
        assert not verdict.plane_possible
        assert not verdict.ruled_possible
        assert not verdict.any_possible
    open_case = exclude_p2_and_hirzebruch(10, 9)
    assert open_case.plane_possible
    assert open_case.plane_degrees == (6,)
    assert open_case.ruled_possible
    assert open_case.ruled_indices == (3,)


def test_obstruction_certificate():
    cert = triple_point_image_obstruction()
    assert cert.excluded == NumericType(8, 0, (5,) * 7 + (4, 3), 3)
    assert cert.required_degree == 1
    assert cert.case_counts == (64, 240)
    assert cert.case_minima == (2, 2)
    assert cert.holds
    (first_min, first_count), (second_min, second_count) = naive_obstruction_minima()
    assert cert.case_minima == (first_min, second_min)
    assert cert.case_counts == (first_count, second_count)


def test_apply_exclusion_filters_the_degree_eight_row():
    kept = apply_exclusion(FIVE_ROWS)
    assert kept == FIVE_ROWS[:4]
    assert apply_exclusion(FIVE_ROWS[:2]) == FIVE_ROWS[:2]


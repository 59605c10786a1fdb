"""Numeric-type search against the blunt oracle, frozen classification
rows, lower bounds and exclusion arithmetic."""

from __future__ import annotations

from fractions import Fraction

import pytest
from oracles import (
    _flat_tails,
    blunt_mult_vectors,
    naive_obstruction_minima,
    naive_search_general,
    naive_search_special,
)

from genus2pencils import numerics
from genus2pencils.numerics import (
    NumericType,
    SpecialType,
    _chord_cuts,
    _multisets,
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


def _mult_vectors(pair_sum, m_max, slots, extra_window=None):
    """The multiplicity vectors of a pair sum P with entries in [2, m_max]
    and at most ``slots`` entries, from the shared walk: sum (m-1)^2 is
    2P - sum (m-1), so bounds on it are bounds on sum (m-1), and with no
    window 0 <= sum (m-1) <= P holds for every vector."""
    if extra_window is None:
        return _multisets(pair_sum, 2, m_max, slots, 0, pair_sum)
    lo, hi = extra_window
    return _multisets(pair_sum, 2, m_max, slots, 2 * pair_sum - hi, 2 * pair_sum - lo)


def test_mult_vector_generator_equals_blunt():
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
    # sums, and slots from 1 make the slot limit meet the closed-form tail
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
                    got = list(_mult_vectors(pair_sum, m_max, slots, (lo, hi)))
                    assert len(got) == len(set(got))
                    assert set(got) == {t for t, extra in blunt if lo <= extra <= hi}


def _padded(ms, slots):
    """A tuple of the shared walk as the class walk reads it: t = m - 1,
    with its zeros put back between the positive and the negative entries."""
    ts = [m - 1 for m in ms]
    k = sum(t > 0 for t in ts)
    return tuple(ts[:k] + [0] * (slots - len(ts)) + ts[k:])


def _sorted_flat_tails(square_sum, linear_sum, slots):
    """The non-increasing tuples of the flat oracle walk, in its order."""
    return [
        t for t in _flat_tails(square_sum, linear_sum, slots) if all(map(int.__ge__, t, t[1:]))
    ]


def test_shared_walk_lists_the_sorted_flat_tails_in_order():
    # t = m - 1 turns sum t^2 = S, sum t = L into pair sum (S + L)/2 and
    # sum (m-1) = L, negative entries included; an odd S - L has no tail
    count = 0
    for square_sum in range(0, 21):
        for linear_sum in range(-16, 9):
            for slots in range(0, 7):
                want = _sorted_flat_tails(square_sum, linear_sum, slots)
                if (square_sum - linear_sum) % 2:
                    assert want == []
                    continue
                pair_sum = (square_sum + linear_sum) // 2
                walk = _multisets(pair_sum, None, None, slots, linear_sum, linear_sum)
                assert [_padded(ms, slots) for ms in walk] == want
                count += len(want)
    assert count == 991


@pytest.mark.parametrize(
    "square_sum, linear_sum, slots",
    (
        # pair sum 0: only -1, 0 fit (bottom b = -1, where p(-1) = p(0) = 0)
        (3, -3, 5),
        (0, 0, 4),
        (5, -5, 5),
        # pair sum 1: values -2..1 (bottom b = -2)
        (4, -2, 6),
        (2, 0, 3),
        (6, -4, 6),
        # pair sum 3 and 4: values -3..2, walked down to the closed form on -3..-1
        (9, -3, 6),
        (10, -2, 8),
    ),
)
def test_shared_walk_at_the_degenerate_bottoms(square_sum, linear_sum, slots):
    pair_sum = (square_sum + linear_sum) // 2
    walk = list(_multisets(pair_sum, None, None, slots, linear_sum, linear_sum))
    want = _sorted_flat_tails(square_sum, linear_sum, slots)
    assert want
    assert [_padded(ms, slots) for ms in walk] == want
    assert all(1 not in ms for ms in walk)


def test_shared_walk_equals_the_blunt_vectors_under_the_exact_window():
    # every d window over every vector of the blunt oracle
    for pair_sum in range(0, 25):
        for m_max in range(2, 7):
            for slots in range(0, 10):
                blunt = list(blunt_mult_vectors(pair_sum, m_max, slots))
                for d_lo in range(0, pair_sum + 1, 3):
                    for d_hi in (d_lo, d_lo + 2, pair_sum):
                        got = list(_multisets(pair_sum, 2, m_max, slots, d_lo, d_hi))
                        want = [t for t in blunt if d_lo <= sum(t) - len(t) <= d_hi]
                        assert sorted(got, reverse=True) == got
                        assert sorted(got) == sorted(want)


def test_chord_is_the_completion_floor_at_bottom_zero():
    # with b = 0 the chord is m * need > 2(m-1) * pair_left, need = 2P - d_hi
    for pair_sum in range(0, 30):
        for m in range(1, 8):
            for need in range(-5, 40):
                floor = m * need > 2 * (m - 1) * pair_sum
                assert _chord_cuts(pair_sum, m, 0, 2 * pair_sum - need) == floor


@pytest.mark.filterwarnings("ignore:search reached the adjoint-degree ceiling")
def test_walk_nodes_on_the_pruned_windows_stay_within_the_old_count_walk(monkeypatch):
    # deterministic: every pruned window of both kinds for g = 2..5; the
    # multiplicity walk of the searches before the shared walk visited
    # 47,021 nodes here
    nodes = 0

    def spend():
        nonlocal nodes
        nodes += 1

    walk = numerics._multisets
    monkeypatch.setattr(numerics, "_multisets", lambda *args: walk(*args, spend))
    for genus in range(2, 6):
        for lo, hi in _windows(genus):
            search_general(genus, lo, hi)
            search_special(genus, lo, hi)
    assert 0 < nodes <= 47_021


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
    return _chord_cuts(pair_left, m, 0, 2 * pair_left - base + ksq_hi)


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


@pytest.mark.parametrize("args", ((2, 1.5), (2, "1"), (2.0, 1), ("2", 1), (2, None), (None, 1)))
def test_exclusion_takes_integers_only(args):
    # a float, a string or None is refused, not stored in the verdict
    with pytest.raises(ValueError, match="must be integers"):
        exclude_p2_and_hirzebruch(*args)


def test_exclusion_stores_integer_arguments_as_ints():
    verdict = exclude_p2_and_hirzebruch(_Index(10), _Index(9))
    assert verdict == exclude_p2_and_hirzebruch(10, 9)
    assert type(verdict.genus) is int and type(verdict.adjoint_square) is int


class _Index:
    def __init__(self, n: int) -> None:
        self.n = n

    def __index__(self) -> int:
        return self.n


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


"""Feasibility search over pencil numerics on ruled models.

A pencil of genus-g curves on a relatively minimal ruled model is pinned
numerically by its degree over the ruling, a normalized height (stored
doubled so odd degrees stay integral), and the multiplicities of its
base points.  The searches below enumerate every solution of the degree,
genus and nonnegativity equations inside stated caps, exactly.  Both
share one cell walk and one pruning bound, the completion floor of
``_floor_cuts``; pruning is optional and is checked against the unpruned
walk in tests.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import count, product
from operator import index
from typing import Iterator, NamedTuple, Sequence

__all__ = [
    "NumericType",
    "SpecialType",
    "search_general",
    "search_special",
    "MinimalAmbientVerdict",
    "exclude_p2_and_hirzebruch",
    "ExclusionCertificate",
    "triple_point_image_obstruction",
    "apply_exclusion",
]


def _tri(m: int) -> int:
    return m * (m - 1) // 2


def _coerce_fields(row) -> None:
    """Store every field of a row as exact ints, the multiplicities as a
    tuple of them; a non-integer (a float, a string) is a ValueError, not
    silently truncated."""
    try:
        for name in row.__dataclass_fields__:
            value = getattr(row, name)
            value = tuple(map(index, value)) if name == "multiplicities" else index(value)
            object.__setattr__(row, name, value)
    except TypeError:
        raise ValueError(f"numeric type field {name} must hold integers") from None


@dataclass(frozen=True)
class NumericType:
    """Numerical data of a pencil on a ruled model, independent of the index.

    ``adjoint_degree`` is the pairing of (K + pencil) with a ruling fibre;
    the pencil itself pairs to adjoint_degree + 2.  ``twice_offset`` is
    twice the normalized height of the pencil over the ruling (doubling
    keeps odd adjoint degrees integral).  ``multiplicities`` lists the
    base-point multiplicities, non-increasing and each at least 2, no
    entry above half the pencil degree.  ``adjoint_square`` is the
    self-intersection of K + pencil and is validated against the defining
    equation on construction.
    """

    adjoint_degree: int
    twice_offset: int
    multiplicities: tuple[int, ...]
    adjoint_square: int

    def __post_init__(self) -> None:
        _coerce_fields(self)
        a, t, ms = self.adjoint_degree, self.twice_offset, self.multiplicities
        if a < 1:
            raise ValueError("adjoint degree must be positive")
        if t < 0:
            raise ValueError("twice-offset must be nonnegative")
        if a % 2 == 0 and t % 2:
            raise ValueError("an even adjoint degree forces an even twice-offset")
        if any(m < 2 for m in ms):
            raise ValueError("multiplicities must be at least 2")
        if any(ms[i] < ms[i + 1] for i in range(len(ms) - 1)):
            raise ValueError("multiplicities must be non-increasing")
        if ms and 2 * ms[0] > a + 2:
            raise ValueError(
                f"largest multiplicity {ms[0]} exceeds half the pencil degree {a + 2}"
            )
        if self.adjoint_square != a * (2 * a + t) - sum((m - 1) ** 2 for m in ms):
            raise ValueError("stored adjoint square disagrees with the defining equation")

    @property
    def pencil_degree(self) -> int:
        return self.adjoint_degree + 2

    @property
    def base_point_count(self) -> int:
        return len(self.multiplicities)

    @property
    def genus(self) -> int:
        a, t = self.adjoint_degree, self.twice_offset
        return ((a + 1) * (2 * (a + 1) + t)) // 2 - sum(_tri(m) for m in self.multiplicities)

    @property
    def pencil_square(self) -> int:
        a, t = self.adjoint_degree, self.twice_offset
        return (a + 2) * (2 * (a + 2) + t) - sum(m * m for m in self.multiplicities)

    @property
    def admissible_indices(self) -> tuple[int, ...]:
        """Hirzebruch indices in {0, 1, 2} with integral, section-compatible data."""
        out = []
        pd = self.pencil_degree
        for d in (0, 1, 2):
            twice_b = self.twice_offset + (d + 2) * pd
            if twice_b % 2:
                continue
            b = twice_b // 2
            if b < pd * max(d, 1):
                continue
            if d == 1 and self.multiplicities and self.multiplicities[0] > b - pd:
                continue
            out.append(d)
        return tuple(out)

    def sort_key(self) -> tuple:
        return (
            self.adjoint_degree,
            self.twice_offset,
            self.base_point_count,
            self.multiplicities,
        )


@dataclass(frozen=True)
class SpecialType:
    """Pencil data on the index-1 model with one distinguished base point
    of multiplicity below the generic floor, recorded via its plane
    presentation of degree adjoint_degree + 2 + extra_multiplicity."""

    adjoint_degree: int
    extra_multiplicity: int
    multiplicities: tuple[int, ...]
    adjoint_square: int

    def __post_init__(self) -> None:
        _coerce_fields(self)
        a, m0, ms = self.adjoint_degree, self.extra_multiplicity, self.multiplicities
        if a < 3:
            raise ValueError("special data needs adjoint degree at least 3")
        if m0 < 2 or 2 * m0 >= a + 2:
            raise ValueError("the distinguished multiplicity must lie in [2, (a+1)/2]")
        if any(m < 2 or m > m0 for m in ms):
            raise ValueError("multiplicities must lie in [2, the distinguished multiplicity]")
        if any(ms[i] < ms[i + 1] for i in range(len(ms) - 1)):
            raise ValueError("multiplicities must be non-increasing")
        expected = (a + m0 - 1) ** 2 - (m0 - 1) ** 2 - sum((m - 1) ** 2 for m in ms)
        if self.adjoint_square != expected:
            raise ValueError("stored adjoint square disagrees with the defining equation")

    @property
    def plane_degree(self) -> int:
        return self.adjoint_degree + 2 + self.extra_multiplicity

    @property
    def base_point_count(self) -> int:
        return len(self.multiplicities)

    @property
    def genus(self) -> int:
        b = self.plane_degree
        return _tri(b - 1) - _tri(self.extra_multiplicity) - sum(_tri(m) for m in self.multiplicities)

    @property
    def pencil_square(self) -> int:
        a, m0 = self.adjoint_degree, self.extra_multiplicity
        return (a + 2) * (a + 2 + 2 * m0) - sum(m * m for m in self.multiplicities)

    def sort_key(self) -> tuple:
        return (
            self.adjoint_degree,
            self.extra_multiplicity,
            self.base_point_count,
            self.multiplicities,
        )


def _floor_cuts(need: int, pair_left: int, m: int) -> bool:
    """The completion floor, the one pruning bound of both searches.

    ``need`` is how much more the sum of (m-1)^2 must grow to bring the
    adjoint square down into the window, and ``pair_left`` the sum of
    m(m-1)/2 still to place with entries at most m.  Each entry adds
    (m-1)^2 = 2(m-1)/m * m(m-1)/2, so the completions add at most
    2(m-1)/m * pair_left (equality iff every entry is m); True when that
    falls short of ``need``.
    """
    return m * need > 2 * (m - 1) * pair_left


def _mult_vectors(
    pair_sum: int,
    m_max: int,
    slots: int,
    extra_window: tuple[int, int] | None,
    square_budget: int | None,
) -> Iterator[tuple[int, ...]]:
    """Non-increasing tuples with entries in [2, m_max] and
    sum of m(m-1)/2 equal to pair_sum, at most ``slots`` entries.

    Once the pair sum P is fixed, (m-1)^2 = 2 tri(m) - (m-1) and
    m^2 = 2 tri(m) + m give sum (m-1)^2 = 2P - d and sum m^2 = 2P + S,
    with d = sum (m-1) and S = sum m.  So ``extra_window``, bounds on the
    total sum of (m-1)^2, is the window 2P - hi <= d <= 2P - lo, and
    ``square_budget``, a cap on the total sum of m^2, is S <= budget - 2P.
    Both filter exactly: the tuples yielded are those inside them, every
    tuple when they are None.  ``_walk`` keeps its own exact filter, so the
    unpruned walk, given no hints, checks the pruned one.

    The walk picks, from m_max down, how many entries equal each value,
    carrying d and S.  Below 4 it is closed-form: the count c of 3s fixes
    that of 2s as s - 3c, every constraint (slots, the d window, the S cap)
    is linear in c, and the valid c form an interval emitted directly.  The
    nodes sit on one explicit stack, so the tuples come one at a time from
    a single generator: no generator is nested per entry, and no list of
    them is held (an unpruned cell at genus 4 holds megabytes of tuples).
    """
    if pair_sum < 0 or (pair_sum and m_max < 2):
        return
    if extra_window is None:
        # every tuple has 0 <= d <= P and S <= 2P, so nothing is cut
        d_lo, d_hi = 0, pair_sum
    else:
        d_lo, d_hi = 2 * pair_sum - extra_window[1], 2 * pair_sum - extra_window[0]
    s_cap = 2 * pair_sum if square_budget is None else square_budget - 2 * pair_sum
    stack = [(pair_sum, m_max, slots, 0, 0, ())]
    while stack:
        s, m, left, d, total, prefix = stack.pop()
        if m <= 3 or s == 0:
            # c threes and s - 3c twos: d grows by s - c, S by 2s - 3c
            top = min(s // 3 if m == 3 else 0, d + s - d_lo)
            low = max(0, -((left - s) // 2), d + s - d_hi, -((s_cap - total - 2 * s) // 3))
            for c in range(top, low - 1, -1):
                yield prefix + (3,) * c + (2,) * (s - 3 * c)
            continue
        tm = _tri(m)
        if s > left * tm:
            continue
        # each unit of pair sum adds at most 1 to d
        if d + s < d_lo:
            continue
        # the completion floor written in d: the rest adds at least 2s/m to d
        if _floor_cuts(2 * s + d - d_hi, s, m):
            continue
        # at least ceil(s / tri(m)) more entries, each adding at least 2 to S
        if total + 2 * -(-s // tm) > s_cap:
            continue
        # pushed by rising count, so the largest count is walked first
        for c in range(min(s // tm, left) + 1):
            stack.append((s - c * tm, m - 1, left - c, d + c * (m - 1), total + c * m, prefix + (m,) * c))


def _caps(
    genus: int, ksq_lo: int, ksq_hi: int, adjoint_cap: int | None, point_cap: int | None
) -> tuple[int, int]:
    if genus < 2:
        raise ValueError("genus must be at least 2")
    if not 1 <= ksq_lo <= ksq_hi:
        raise ValueError("the adjoint-square window must satisfy 1 <= lo <= hi")
    return (
        adjoint_cap if adjoint_cap is not None else 2 * genus + 6,
        point_cap if point_cap is not None else 4 * genus + 4,
    )


def _walk(row_type, cells, ksq_lo: int, ksq_hi: int, a_cap: int, n_cap: int, prune: bool):
    """Rows of every cell (degree, second field, base, pair sum, largest
    multiplicity, square cap): the multiplicity vectors of the pair sum
    whose adjoint square base - sum (m-1)^2 lies in the window and whose
    pencil square cap - sum m^2 is nonnegative, sorted.  With the pair sum
    P fixed these read base - 2P + sum (m-1) and cap - 2P - sum m (see
    ``_mult_vectors``); the filter is applied in both modes, so the
    unpruned walk, given no hints, checks the pruned one.  A row at the
    adjoint-degree cap warns, since the next degree may hold more rows."""
    found = []
    for a, second, base, pair_sum, m_max, square_cap in cells:
        if not 0 <= pair_sum <= n_cap * _tri(m_max):
            continue
        hints = ((max(0, base - ksq_hi), base - ksq_lo), square_cap) if prune else (None, None)
        for ms in _mult_vectors(pair_sum, m_max, n_cap, *hints):
            total = sum(ms)
            ksq = base - 2 * pair_sum + total - len(ms)
            if ksq_lo <= ksq <= ksq_hi and total <= square_cap - 2 * pair_sum:
                found.append(row_type(a, second, ms, ksq))
    if any(row.adjoint_degree == a_cap for row in found):
        warnings.warn(
            "search reached the adjoint-degree ceiling; raise adjoint_cap to rule out further rows",
            stacklevel=3,
        )
    found.sort(key=row_type.sort_key)
    return tuple(found)


def search_general(
    genus: int,
    ksq_lo: int,
    ksq_hi: int,
    *,
    prune: bool = True,
    adjoint_cap: int | None = None,
    point_cap: int | None = None,
) -> tuple[NumericType, ...]:
    """Every pencil numeric with the given genus and adjoint square in
    [ksq_lo, ksq_hi], within the caps, ordered by (degree, offset, count).

    The rows are exhaustive only within the caps, adjoint degree at most
    ``adjoint_cap`` (default 2*genus + 6) and at most ``point_cap`` base
    points (default 4*genus + 4); the defaults are limits, not a proof
    that no type lies beyond them (genus 3 with adjoint square at most 8
    has 19 rows at the defaults and 25 at twice the caps).  A row at the
    degree cap triggers a warning; no warning is a heuristic, not a proof.
    """
    a_cap, n_cap = _caps(genus, ksq_lo, ksq_hi, adjoint_cap, point_cap)

    def cells():
        for a in range(1, a_cap + 1):
            m_max = (a + 2) // 2
            for t in count(0, 2 - a % 2):
                base = a * (2 * a + t)
                pair_sum = (a + 1) * (2 * (a + 1) + t) // 2 - genus
                if pair_sum > n_cap * _tri(m_max):
                    break
                # at m_max the floor rises with t (slope a/(a+2) for even a,
                # 1 for odd a), so the first cut offset ends the degree
                if prune and _floor_cuts(base - ksq_hi, pair_sum, m_max):
                    break
                yield a, t, base, pair_sum, m_max, (a + 2) * (2 * (a + 2) + t)

    return _walk(NumericType, cells(), ksq_lo, ksq_hi, a_cap, n_cap, prune)


def search_special(
    genus: int,
    ksq_lo: int,
    ksq_hi: int,
    *,
    prune: bool = True,
    adjoint_cap: int | None = None,
    point_cap: int | None = None,
) -> tuple[SpecialType, ...]:
    """Every special pencil numeric in the window, within the same caps and
    with the same ceiling warning as ``search_general``; empty in the
    windows the package certifies (the nonnegativity of the pencil square
    kills every candidate there), but the walk itself is fully general."""
    a_cap, n_cap = _caps(genus, ksq_lo, ksq_hi, adjoint_cap, point_cap)

    def cells():
        for a in range(3, a_cap + 1):
            for m0 in range(2, (a + 1) // 2 + 1):
                base = (a + m0 - 1) ** 2 - (m0 - 1) ** 2
                pair_sum = a * (a + 1) // 2 + m0 * (a + 1) - genus
                if not (prune and _floor_cuts(base - ksq_hi, pair_sum, m0)):
                    yield a, m0, base, pair_sum, m0, (a + 2) * (a + 2 + 2 * m0)

    return _walk(SpecialType, cells(), ksq_lo, ksq_hi, a_cap, n_cap, prune)


class MinimalAmbientVerdict(NamedTuple):
    """Which relatively minimal rational ambients fit a (genus, adjoint-square) pair."""

    genus: int
    adjoint_square: int
    plane_degrees: tuple[int, ...]
    ruled_indices: tuple[int, ...]

    @property
    def plane_possible(self) -> bool:
        return bool(self.plane_degrees)

    @property
    def ruled_possible(self) -> bool:
        return bool(self.ruled_indices)

    @property
    def any_possible(self) -> bool:
        return self.plane_possible or self.ruled_possible


def exclude_p2_and_hirzebruch(genus: int, ksq: int) -> MinimalAmbientVerdict:
    """Decide whether a plane or ruled minimal model matches the pair exactly.

    A plane model of degree b needs genus (b-1)(b-2)/2 and adjoint square
    (b-3)^2 simultaneously; a ruled model needs the adjoint square to hit
    2c(genus-c-1)/(c+1) for some admissible c.  Both conditions are scanned
    over their full finite ranges.
    """
    if genus < 2:
        raise ValueError("genus must be at least 2")
    planes = tuple(
        b
        for b in range(4, 2 * genus + 4)
        if (b - 1) * (b - 2) // 2 == genus and (b - 3) ** 2 == ksq
    )
    ruled = tuple(
        c
        for c in range((genus - 1) // 2 + 1)
        if 2 * c * (genus - c - 1) == ksq * (c + 1)
    )
    return MinimalAmbientVerdict(genus, ksq, planes, ruled)


class ExclusionCertificate(NamedTuple):
    """Finite enumeration witnessing that one candidate type has no geometry.

    The candidate would force a curve on a quadric of anticanonical degree
    equal to ``required_degree``; the per-case minima over every marking
    pattern sit strictly above it.
    """

    excluded: NumericType
    required_degree: int
    case_minima: tuple[int, int]
    case_counts: tuple[int, int]

    @property
    def holds(self) -> bool:
        return all(m > self.required_degree for m in self.case_minima)


def triple_point_image_obstruction() -> ExclusionCertificate:
    """Rule out the remaining adjoint-square-3 candidate by direct count.

    Were the candidate realized, the exceptional curve over its smallest
    base point would land on the minimal model as a rational curve of
    anticanonical degree min(multiplicities) - 2 = 1, lying on a quadric
    in one of two bidegrees and passing through six marked points with
    multiplicity patterns in {0,1}^6, resp. {0,1,2}^6 with two entries
    equal to 2.  Every pattern yields anticanonical degree at least 2.
    """
    excluded = NumericType(8, 0, (5,) * 7 + (4, 3), 3)
    case1 = [8 - sum(marks) for marks in product(range(2), repeat=6)]
    case2 = [
        10 - sum(marks)
        for marks in product(range(3), repeat=6)
        if marks.count(2) == 2
    ]
    return ExclusionCertificate(
        excluded,
        min(excluded.multiplicities) - 2,
        (min(case1), min(case2)),
        (len(case1), len(case2)),
    )


def apply_exclusion(types: Sequence[NumericType]) -> tuple[NumericType, ...]:
    """Drop the certificate's excluded row from a search result."""
    cert = triple_point_image_obstruction()
    if not cert.holds:  # pragma: no cover - the count above is a constant
        return tuple(types)
    return tuple(t for t in types if t != cert.excluded)

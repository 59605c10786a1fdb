"""Feasibility search over pencil numerics on ruled models.

A pencil of genus-g curves on a relatively minimal ruled model is pinned
numerically by its degree over the ruling, a normalized height (stored
doubled so odd degrees stay integral), and the multiplicities of its
base points.  The searches below enumerate every solution of the degree,
genus and nonnegativity equations up to an adjoint-degree cap, exactly.
The base-point count needs no cap of its own: every row has pencil square
4g + 4 - ksq - n, so its n base points number at most 4g + 4 - ksq.

Both searches walk cells and list the multiplicity vectors of each cell
with ``_multisets``, the one multiset walk of the package: the class
enumeration of ``curves`` lists its exceptional tails with it too.  It
walks multiplicity counts with one set of cuts (entry clamp, range,
chord, lower hull) and a closed-form tail, and the cell skips of both
searches call the same chord bound, ``_chord_cuts``.  Pruning by the
adjoint-square window is optional and is checked against the unpruned
walk in tests.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable, Iterator, Sequence
from itertools import count, product
from math import isqrt
from operator import index

from ._record import Record

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


_new_tuple = tuple.__new__


def _coerced(names: tuple[str, ...], degree, second, multiplicities, square) -> tuple:
    """A row's fields as exact ints, the multiplicities as a tuple of them;
    a non-integer (a float, a string) is a TypeError naming the first such
    field, not silently truncated."""
    try:
        return index(degree), index(second), tuple(map(index, multiplicities)), index(square)
    except TypeError:
        for name, value in zip(names, (degree, second, multiplicities, square)):
            try:
                tuple(map(index, value)) if name == "multiplicities" else index(value)
            except TypeError:
                raise TypeError(f"numeric type field {name} must hold integers") from None
        raise


class NumericType(Record):
    """Numerical data of a pencil on a ruled model, independent of the index.

    ``adjoint_degree`` is the pairing of (K + pencil) with a ruling fibre;
    the pencil itself pairs to adjoint_degree + 2.  ``twice_offset`` is
    twice the normalized height of the pencil over the ruling (doubling
    keeps odd adjoint degrees integral).  ``multiplicities`` lists the
    base-point multiplicities, non-increasing and each at least 2, no
    entry above half the pencil degree.  ``adjoint_square`` is the
    self-intersection of K + pencil and is validated against the defining
    equation on construction.  A row is a tuple of its four fields; pickle,
    copy and ``_replace`` validate again through the constructor.
    """

    adjoint_degree: int
    twice_offset: int
    multiplicities: tuple[int, ...]
    adjoint_square: int

    def __new__(cls, adjoint_degree: int, twice_offset: int, multiplicities, adjoint_square: int):
        a, t, ms, ksq = _coerced(
            cls._fields, adjoint_degree, twice_offset, multiplicities, adjoint_square
        )
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
        if ksq != a * (2 * a + t) - sum((m - 1) ** 2 for m in ms):
            raise ValueError("stored adjoint square disagrees with the defining equation")
        return _new_tuple(cls, (a, t, ms, ksq))

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


class SpecialType(Record):
    """Pencil data on the index-1 model with one distinguished base point
    of multiplicity below the generic floor, recorded via its plane
    presentation of degree adjoint_degree + 2 + extra_multiplicity.  A
    tuple of its four fields, validated like NumericType."""

    adjoint_degree: int
    extra_multiplicity: int
    multiplicities: tuple[int, ...]
    adjoint_square: int

    def __new__(cls, adjoint_degree: int, extra_multiplicity: int, multiplicities, adjoint_square: int):
        a, m0, ms, ksq = _coerced(
            cls._fields, adjoint_degree, extra_multiplicity, multiplicities, adjoint_square
        )
        if a < 3:
            raise ValueError("special data needs adjoint degree at least 3")
        if m0 < 2 or 2 * m0 >= a + 2:
            raise ValueError("the distinguished multiplicity must lie in [2, (a+1)/2]")
        if any(m < 2 or m > m0 for m in ms):
            raise ValueError("multiplicities must lie in [2, the distinguished multiplicity]")
        if any(ms[i] < ms[i + 1] for i in range(len(ms) - 1)):
            raise ValueError("multiplicities must be non-increasing")
        expected = (a + m0 - 1) ** 2 - (m0 - 1) ** 2 - sum((m - 1) ** 2 for m in ms)
        if ksq != expected:
            raise ValueError("stored adjoint square disagrees with the defining equation")
        return _new_tuple(cls, (a, m0, ms, ksq))

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


def _chord_cuts(pairs: int, slope: int, e_lo: int, e_hi: int) -> bool:
    """The chord, the upper-hull bound of the multiset walk.

    Take n values x in [b, v] with sum s of p(x) = x(x+1)/2 and sum D.  p
    is convex, so it lies under its chord from b to v,
    p(x) <= p(b) + (x - b)(v + b + 1)/2, and summed over the values,
    2(s - n p(b)) <= (v + b + 1)(D - n b).  Given pairs = s - n p(b),
    slope = v + b + 1 and D - n b in [e_lo, e_hi], True when no D there
    meets it.  With b = 0 and m = v + 1 it is the completion floor: every
    entry at most m adds at most 2(m-1)/m to the sum of (m-1)^2 per unit
    of the pair sum m(m-1)/2.  At the top of the range, D = n v, it is the
    pair cap s <= n p(v).
    """
    return 2 * pairs > slope * (e_hi if slope >= 0 else e_lo)


def _multisets(
    pair_sum: int,
    lo: int | None,
    hi: int | None,
    slots: int,
    d_lo: int,
    d_hi: int,
    spend: Callable[[], None] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Non-increasing tuples of integers m != 1 in [lo, hi] (lo <= 2; None
    bounds nothing), at most ``slots`` of them, with sum of m(m-1)/2 equal
    to pair_sum and sum of (m-1) in [d_lo, d_hi]; padded with 1s to
    ``slots`` entries, they come in descending lexicographic order.

    m = 1 adds nothing to either sum, so it stands for an absent entry: in
    x = m - 1, with p(x) = x(x+1)/2, the walk places exactly ``slots``
    values, x = 0 among them.  It picks, from the largest value down, how
    many entries equal each value, largest count first, carrying the pair
    sum s left to place and the sum of x so far.  At every node, with n
    values left in [b, v] summing to D:

    - entry clamp: p(x) <= s, so x lies in [-r-1, r] with r(r+1)/2 <= s;
    - range: D lies in [n b, n v];
    - chord: ``_chord_cuts``, which covers the pair cap s <= n p(v);
    - lower hull: p(x) >= x and p(x) >= -x - 1 put D in [-s - n, s], and
      Cauchy-Schwarz, with sum x^2 = 2s - D, gives D(D + n) <= 2ns.

    Over the last three values b, b+1, b+2 it is closed-form: with
    e = D - n b and rr = s - n p(b), their counts are rr - (b+1)e,
    (2b+3)e - 2rr and n + rr - (b+2)e, each linear in e, so the valid e
    form an interval that is emitted directly.  The nodes sit on one
    explicit stack, so the tuples come one at a time from one generator
    and no list of them is held (an unpruned cell at genus 4 holds
    megabytes of tuples).  ``spend`` is called once per node.
    """
    if pair_sum < 0:
        return
    floor = -pair_sum - 1 if lo is None else lo - 1 if lo < 1 else 0
    stack = [(pair_sum, pair_sum if hi is None else hi - 1, slots, 0, ())]
    while stack:
        s, v, left, d, prefix = stack.pop()
        if spend is not None:
            spend()
        # a floor of -1 or more is above -r-1 whatever r is, and p is 0 on
        # -1 and 0
        if floor < -1 or v * (v + 1) > 2 * s:
            r = (isqrt(8 * s + 1) - 1) >> 1
            if v > r:
                v = r
            b = floor if floor > -r - 1 else -r - 1
            rr = s - ((left * b * (b + 1)) >> 1)
        else:
            b = floor
            rr = s
        # D - left*b, in [0, left*(v - b)]
        nb = left * b
        e_lo = d_lo - d - nb
        e_hi = d_hi - d - nb
        if e_lo < 0:
            e_lo = 0
        if e_hi > left * (v - b):
            e_hi = left * (v - b)
        if _chord_cuts(rr, v + b + 1, e_lo, e_hi):
            continue
        if e_lo > e_hi or s < e_lo + nb or e_hi + nb < -s - left:
            continue
        dl = e_lo + nb
        dh = e_hi + nb
        if 2 * dl + left > 0 and dl * (dl + left) > 2 * left * s:
            continue
        if 2 * dh + left < 0 and dh * (dh + left) > 2 * left * s:
            continue
        if v - b > 2:
            pv = (v * (v + 1)) >> 1
            top = left if pv == 0 or s // pv > left else s // pv
            unit = (v + 1,) if v else ()
            # pushed by rising count, so the largest count is walked first
            for c in range(top + 1):
                stack.append((s - c * pv, v - 1, left - c, d + c * v, prefix + unit * c))
            continue
        # each count beta - alpha*e is nonnegative; a value above v has
        # count zero as well
        bounds = [(b + 1, rr), (-2 * b - 3, -2 * rr), (b + 2, left + rr)]
        if v < b + 2:
            bounds.append((-b - 1, -rr))
            if v < b + 1:
                bounds.append((2 * b + 3, 2 * rr))
        for alpha, beta in bounds:
            if alpha > 0:
                if beta // alpha < e_hi:
                    e_hi = beta // alpha
            elif alpha < 0:
                if -(beta // -alpha) > e_lo:
                    e_lo = -(beta // -alpha)
            elif beta < 0:
                e_hi = e_lo - 1
        units = [(b + 3,), (b + 2,), (b + 1,)]
        if -2 <= b <= 0:
            units[2 + b] = ()  # m = 1, an absent entry
        u2, u1, u0 = units
        # descending lexicographic: the count of b+2 falls as e rises
        # exactly when b >= 0
        for e in range(e_lo, e_hi + 1) if b >= 0 else range(e_hi, e_lo - 1, -1):
            yield prefix + u2 * (rr - (b + 1) * e) + u1 * ((2 * b + 3) * e - 2 * rr) + u0 * (
                left + rr - (b + 2) * e
            )


def _caps(genus, ksq_lo, ksq_hi, adjoint_cap) -> tuple[int, int, int, int, int]:
    """The search arguments as ints, the adjoint-degree cap, and the point
    bound 4g + 4: every row of both searches has pencil square
    4g + 4 - ksq - n, with n its number of base points, so a nonnegative
    pencil square is n <= 4g + 4 - ksq."""
    try:
        genus, ksq_lo, ksq_hi = index(genus), index(ksq_lo), index(ksq_hi)
        a_cap = 2 * genus + 6 if adjoint_cap is None else index(adjoint_cap)
    except TypeError:
        raise TypeError("genus, window bounds and adjoint_cap must be integers") from None
    if genus < 2:
        raise ValueError("genus must be at least 2")
    if not 1 <= ksq_lo <= ksq_hi:
        raise ValueError("the adjoint-square window must satisfy 1 <= lo <= hi")
    if a_cap < 1:
        raise ValueError("adjoint_cap must be at least 1")
    return genus, ksq_lo, ksq_hi, a_cap, 4 * genus + 4


def _walk(row_type, cells, ksq_lo: int, ksq_hi: int, a_cap: int, points: int, prune: bool):
    """Rows of every cell (degree, second field, base, pair sum, largest
    multiplicity): the multiplicity vectors of the pair sum whose adjoint
    square base - sum (m-1)^2 lies in the window and whose pencil square
    points - ksq - n is nonnegative, sorted.  With the pair sum P fixed,
    (m-1)^2 = 2 m(m-1)/2 - (m-1) gives sum (m-1)^2 = 2P - d with
    d = sum (m-1), so the window is 2P - base + lo <= d <= 2P - base + hi;
    the unpruned walk passes 0 <= d <= P instead, which holds for every
    vector.  No row has more than points - ksq_lo base points.  The filter
    is applied in both modes, so the unpruned walk checks the pruned one.
    A row at the adjoint-degree cap warns, since the next degree may hold
    more rows."""
    found = []
    for a, second, base, pair_sum, m_max in cells:
        if prune:
            d_lo, d_hi = 2 * pair_sum - base + ksq_lo, 2 * pair_sum - base + ksq_hi
        else:
            d_lo, d_hi = 0, pair_sum
        for ms in _multisets(pair_sum, 2, m_max, points - ksq_lo, d_lo, d_hi):
            ksq = base - 2 * pair_sum + sum(ms) - len(ms)
            if ksq_lo <= ksq <= ksq_hi and len(ms) <= points - ksq:
                found.append(row_type(a, second, ms, ksq))
    if any(row.adjoint_degree == a_cap for row in found):
        warnings.warn(
            "search reached the adjoint-degree ceiling; raise adjoint_cap to rule out further rows",
            stacklevel=3,
        )
    found.sort(key=row_type.sort_key)
    return tuple(found)


def search_general(
    genus: int, ksq_lo: int, ksq_hi: int, *, prune: bool = True, adjoint_cap: int | None = None
) -> tuple[NumericType, ...]:
    """Every pencil numeric with the given genus and adjoint square in
    [ksq_lo, ksq_hi] and adjoint degree at most ``adjoint_cap`` (default
    2*genus + 6), ordered by (degree, offset, count).

    The base-point count needs no cap: the pencil square is
    4*genus + 4 - ksq - n, so n <= 4*genus + 4 - ksq_lo is proved.  The
    degree cap is a limit, not a proof that no type lies beyond it (genus 3
    with adjoint square at most 8 has 19 rows at the default and 25 at
    twice the adjoint cap).  A row at the degree cap triggers a warning; no
    warning is a heuristic, not a proof.
    """
    genus, ksq_lo, ksq_hi, a_cap, points = _caps(genus, ksq_lo, ksq_hi, adjoint_cap)
    slots = points - ksq_lo

    def cells():
        for a in range(1, a_cap + 1):
            m_max = (a + 2) // 2
            for t in count(0, 2 - a % 2):
                base = a * (2 * a + t)
                pair_sum = (a + 1) * (2 * (a + 1) + t) // 2 - genus
                # the walk's root chord, the window capped at the top of the
                # range, where the chord is the pair cap (unpruned, the pair
                # cap alone): it rises with t (slope a/(a+2) for even a, 1
                # for odd a), so the first cut offset ends the degree
                d_hi = slots * (m_max - 1)
                if prune and d_hi > 2 * pair_sum - base + ksq_hi:
                    d_hi = 2 * pair_sum - base + ksq_hi
                if _chord_cuts(pair_sum, m_max, 0, d_hi):
                    break
                yield a, t, base, pair_sum, m_max

    return _walk(NumericType, cells(), ksq_lo, ksq_hi, a_cap, points, prune)


def search_special(
    genus: int, ksq_lo: int, ksq_hi: int, *, prune: bool = True, adjoint_cap: int | None = None
) -> tuple[SpecialType, ...]:
    """Every special pencil numeric in the window, within the same degree
    cap, point bound and ceiling warning as ``search_general``; empty in the
    windows the package certifies (the nonnegativity of the pencil square
    kills every candidate there), but the walk itself is fully general."""
    genus, ksq_lo, ksq_hi, a_cap, points = _caps(genus, ksq_lo, ksq_hi, adjoint_cap)

    def cells():
        for a in range(3, a_cap + 1):
            for m0 in range(2, (a + 1) // 2 + 1):
                base = (a + m0 - 1) ** 2 - (m0 - 1) ** 2
                pair_sum = a * (a + 1) // 2 + m0 * (a + 1) - genus
                # the walk's root makes this cut too, but only after starting
                # a generator; most special cells of a window end here
                if not (prune and _chord_cuts(pair_sum, m0, 0, 2 * pair_sum - base + ksq_hi)):
                    yield a, m0, base, pair_sum, m0

    return _walk(SpecialType, cells(), ksq_lo, ksq_hi, a_cap, points, prune)


class MinimalAmbientVerdict(Record):
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
    over their full finite ranges.  Both arguments must be integers.

    Public API with no caller inside the library: the search and the
    catalog never ask for it, and the command line's --apply-exclusion
    runs apply_exclusion; kept as the paper's exclusion of the plane and
    ruled minimal models, pair by pair.
    """
    try:
        genus, ksq = index(genus), index(ksq)
    except TypeError:
        raise TypeError("genus and adjoint square must be integers") from None
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


class ExclusionCertificate(Record):
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

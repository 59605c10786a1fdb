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
from fractions import Fraction
from itertools import count, product
from typing import Iterator, Sequence

__all__ = [
    "NumericType",
    "SpecialType",
    "search_general",
    "search_special",
    "GenusContext",
    "MinimalAmbientVerdict",
    "exclude_p2_and_hirzebruch",
    "ExclusionCertificate",
    "triple_point_image_obstruction",
    "apply_exclusion",
    "BranchNumerics",
    "branch_consistency",
    "enumerate_branch_numerics",
]


def _tri(m: int) -> int:
    return m * (m - 1) // 2


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
        object.__setattr__(self, "multiplicities", tuple(int(m) for m in self.multiplicities))
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
        object.__setattr__(self, "multiplicities", tuple(int(m) for m in self.multiplicities))
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

    ``extra_window`` bounds the total sum of (m-1)^2 and ``square_budget``
    the total sum of m^2; both are pruning hints only, exact filtering
    stays with the caller.
    """

    def rec(s: int, m: int, left: int, extra: int, square: int, prefix: tuple[int, ...]):
        if s == 0:
            yield prefix
            return
        if left == 0 or m < 2:
            return
        if s > left * _tri(m):
            return
        if extra_window is not None:
            lo, hi = extra_window
            if extra + s > hi:
                # each unit of pair-sum adds at least 1 to the extra total
                return
            if _floor_cuts(lo - extra, s, m):
                return
        if square_budget is not None:
            entries = -(-s // _tri(m))
            if square + 2 * s + 2 * entries > square_budget:
                return
        if m == 2:
            if s <= left:
                yield prefix + (2,) * s
            return
        for v in range(m, 1, -1):
            tv = _tri(v)
            if tv > s:
                continue
            yield from rec(s - tv, v, left - 1, extra + (v - 1) ** 2, square + v * v, prefix + (v,))

    if pair_sum == 0:
        yield ()
    elif pair_sum > 0 and m_max >= 2:
        yield from rec(pair_sum, m_max, slots, 0, 0, ())


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
    pencil square cap - sum m^2 is nonnegative, sorted.  A row at the
    adjoint-degree cap warns, since the next degree may hold more rows."""
    found = []
    for a, second, base, pair_sum, m_max, square_cap in cells:
        if not 0 <= pair_sum <= n_cap * _tri(m_max):
            continue
        hints = ((max(0, base - ksq_hi), base - ksq_lo), square_cap) if prune else (None, None)
        for ms in _mult_vectors(pair_sum, m_max, n_cap, *hints):
            ksq = base - sum((m - 1) ** 2 for m in ms)
            if ksq_lo <= ksq <= ksq_hi and sum(m * m for m in ms) <= square_cap:
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


@dataclass(frozen=True)
class GenusContext:
    """A genus together with a pencil-trope index c on a ruled minimal model."""

    genus: int
    clifford_index: int

    def __post_init__(self) -> None:
        if self.genus < 2:
            raise ValueError("genus must be at least 2")
        if not 0 <= 2 * self.clifford_index <= self.genus - 1:
            raise ValueError("the index must lie in [0, (genus-1)/2]")

    @property
    def pencil_adjoint_square(self) -> Fraction:
        c, g = self.clifford_index, self.genus
        return Fraction(2 * c * (g - c - 1), c + 1)


@dataclass(frozen=True)
class MinimalAmbientVerdict:
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
        if GenusContext(genus, c).pencil_adjoint_square == ksq
    )
    return MinimalAmbientVerdict(genus, ksq, planes, ruled)


@dataclass(frozen=True)
class ExclusionCertificate:
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


@dataclass(frozen=True)
class BranchNumerics:
    """Counts of branch-singularity germs by class and half-period k.

    Five classes occur: two odd-weight families (counts_i, counts_iii,
    weight 2k-1), two even-weight families (counts_ii, counts_iv, weight
    2k), and a single unindexed class (count_v, weight 1).  ``epsilon``
    counts the germs needing a base change and must equal the sum of the
    first and third family counts plus count_v.
    """

    counts_i: tuple[int, ...] = ()
    counts_ii: tuple[int, ...] = ()
    counts_iii: tuple[int, ...] = ()
    counts_iv: tuple[int, ...] = ()
    count_v: int = 0
    epsilon: int = 0

    def __post_init__(self) -> None:
        for field_val in (self.counts_i, self.counts_ii, self.counts_iii, self.counts_iv):
            if any(x < 0 for x in field_val):
                raise ValueError("germ counts must be nonnegative")
        if self.count_v < 0:
            raise ValueError("germ counts must be nonnegative")
        expected = sum(self.counts_i) + sum(self.counts_iii) + self.count_v
        if self.epsilon != expected:
            raise ValueError(
                f"epsilon {self.epsilon} disagrees with its defining count {expected}"
            )

    @property
    def degree(self) -> int:
        return (
            sum((2 * i + 1) * c for i, c in enumerate(self.counts_i))
            + sum((2 * i + 2) * c for i, c in enumerate(self.counts_ii))
            + sum((2 * i + 1) * c for i, c in enumerate(self.counts_iii))
            + sum((2 * i + 2) * c for i, c in enumerate(self.counts_iv))
            + self.count_v
        )


def branch_consistency(bn: BranchNumerics, ksq: int) -> bool:
    """The total germ weight must equal the adjoint square.

    (The epsilon identity is already enforced on construction.)
    """
    return bn.degree == ksq


def _trim(xs: list[int]) -> tuple[int, ...]:
    while xs and xs[-1] == 0:
        xs.pop()
    return tuple(xs)


def enumerate_branch_numerics(ksq: int) -> tuple[BranchNumerics, ...]:
    """All consistent germ-count vectors with total weight ksq."""
    if ksq < 0:
        raise ValueError("the adjoint square must be nonnegative")
    k_odd = (ksq + 1) // 2
    k_even = ksq // 2
    slots: list[tuple[str, int, int]] = []
    for fam, k_max, weight_of in (
        ("i", k_odd, lambda k: 2 * k - 1),
        ("ii", k_even, lambda k: 2 * k),
        ("iii", k_odd, lambda k: 2 * k - 1),
        ("iv", k_even, lambda k: 2 * k),
    ):
        for k in range(1, k_max + 1):
            slots.append((fam, k, weight_of(k)))
    slots.append(("v", 0, 1))
    out: list[BranchNumerics] = []

    def rec(pos: int, left: int, acc: list[tuple[str, int, int]]):
        if pos == len(slots):
            if left == 0:
                fams: dict[str, list[int]] = {
                    "i": [0] * k_odd,
                    "ii": [0] * k_even,
                    "iii": [0] * k_odd,
                    "iv": [0] * k_even,
                }
                v_count = 0
                for fam, k, count in acc:
                    if fam == "v":
                        v_count = count
                    else:
                        fams[fam][k - 1] = count
                eps = sum(fams["i"]) + sum(fams["iii"]) + v_count
                out.append(
                    BranchNumerics(
                        _trim(fams["i"]),
                        _trim(fams["ii"]),
                        _trim(fams["iii"]),
                        _trim(fams["iv"]),
                        v_count,
                        eps,
                    )
                )
            return
        fam, k, weight = slots[pos]
        for count in range(left // weight + 1):
            rec(pos + 1, left - count * weight, acc + [(fam, k, count)])

    rec(0, ksq, [])
    out.sort(
        key=lambda bn: (bn.counts_i, bn.counts_ii, bn.counts_iii, bn.counts_iv, bn.count_v)
    )
    return tuple(out)

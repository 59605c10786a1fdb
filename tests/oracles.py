"""Independent oracles the tests compare library output against.

Everything here is deliberately blunt: coordinate boxes instead of pruned
walks, unfiltered nested loops instead of interval cuts.  The only shared
ingredient is the intersection form itself, which has its own frozen-matrix
tests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from genus2pencils.curves import (
    DEFAULT_BUDGET,
    ClassQuery,
    SectionSearch,
    enum_classes,
)
from genus2pencils.lattice import DivisorClass, Fibration, LatticeError, Surface, pairings
from genus2pencils.numerics import NumericType, SpecialType


def box_classes(surface: Surface, query: ClassQuery) -> list[DivisorClass]:
    """Enumerate by filtering a coordinate box large enough to hold every
    solution, using vectorized Gram arithmetic."""
    gram = np.array(surface.gram(), dtype=np.int64)
    k = np.array(surface.canonical().coords, dtype=np.int64)
    h = np.array(
        (
            [1] + [0] * surface.blowups
            if surface.kind == "plane"
            else [1, surface.index + 1] + [0] * surface.blowups
        ),
        dtype=np.int64,
    )
    h = gram @ h
    found: list[DivisorClass] = []
    for degree in range(query.degree_cap + 1):
        for head in _head_choices(surface, degree):
            sq = _tail_square(surface, head, query.self_int)
            if sq < 0:
                continue
            radius = math.isqrt(sq)
            values = np.arange(-radius, radius + 1, dtype=np.int16)
            if surface.blowups:
                grids = np.meshgrid(*([values] * surface.blowups), indexing="ij")
                tails = np.stack([g.reshape(-1) for g in grids], axis=1).astype(np.int64)
            else:
                tails = np.zeros((1, 0), dtype=np.int64)
            coords = np.hstack(
                [np.broadcast_to(np.array(head, dtype=np.int64), (len(tails), len(head))), tails]
            )
            keep = ((coords @ gram) * coords).sum(axis=1) == query.self_int
            keep &= coords @ (gram @ k) == query.k_deg
            keep &= coords @ h == degree
            for row in coords[keep]:
                c = DivisorClass(surface, tuple(int(v) for v in row))
                if c != surface.zero():
                    found.append(c)
    found.sort(key=lambda c: tuple(c.coords[: surface.base_rank])
               + tuple(-v for v in c.coords[surface.base_rank:]))
    return found


def flat_classes(surface: Surface, query: ClassQuery) -> list[DivisorClass]:
    """The enumeration's former flat walk, kept as a reference: every tail
    with the right square and linear sums, depth-first over all integer
    coordinates with no symmetry reduction, then sorted by head ascending
    and tail descending."""
    found: list[DivisorClass] = []
    for head in _flat_heads(surface, query):
        square_sum = _tail_square(surface, head, query.self_int)
        if surface.kind == "plane":
            linear_sum = -3 * head[0] - query.k_deg
        else:
            x, y = head
            linear_sum = (surface.index - 2) * x - 2 * y - query.k_deg
        for tail in _flat_tails(square_sum, linear_sum, surface.blowups):
            found.append(DivisorClass(surface, head + tail))
    found = [c for c in found if c != surface.zero()]
    base = surface.base_rank
    found.sort(key=lambda c: c.coords[:base] + tuple(-x for x in c.coords[base:]))
    return found


# The section search and the pairing identity as they stood before they
# moved to block orbits: every enumerated class is built and paired.  The
# orbit versions in curves must return the same fields.


@dataclass(frozen=True)
class IdentityReport:
    """Per-class check of F*C = pencil*C - shift*(K*C) over an enumeration
    (the reference record: every class built and paired)."""

    holds: bool
    shift: int
    pencil: DivisorClass
    classes: tuple[DivisorClass, ...]
    fibre_degrees: tuple[int, ...]
    pencil_degrees: tuple[int, ...]
    minimum: int | None
    witnesses: tuple[DivisorClass, ...]


def fibre_intersection_identity(
    fib: Fibration,
    pencil: DivisorClass,
    shift: int,
    query: ClassQuery,
    budget: int = DEFAULT_BUDGET,
) -> IdentityReport:
    """Certify the fibre pairing against a pencil decomposition F = P - shift*K.

    The decomposition is verified first; the identity then pins F*C for
    every enumerated class, and in particular bounds it below by
    shift*(-K*C) plus the pairing with the moving part.
    """
    f = fib.fibre_class
    k = fib.surface.canonical()
    if pencil.surface != fib.surface:
        raise LatticeError("identity inapplicable: pencil lives on another surface")
    if f != pencil + (-shift) * k:
        raise LatticeError("identity inapplicable: fibre class is not pencil minus shift times canonical")
    classes = enum_classes(fib.surface, query, budget)
    fds = pairings(f, classes)
    pds = pairings(pencil, classes)
    kds = pairings(k, classes)
    holds = all(fd == pd - shift * kd for fd, pd, kd in zip(fds, pds, kds))
    minimum = min(fds) if fds else None
    witnesses = tuple(c for c, fd in zip(classes, fds) if fd == minimum) if fds else ()
    return IdentityReport(holds, shift, pencil, classes, fds, pds, minimum, witnesses)


def minus_one_section_exists(
    fib: Fibration,
    cap: int = 3,
    pencil: DivisorClass | None = None,
    shift: int | None = None,
    budget: int = DEFAULT_BUDGET,
) -> SectionSearch:
    """Search enumerated (-1)-classes for a section of the pencil.

    When a pencil decomposition (pencil, shift) is supplied, the pairing
    identity F*C = pencil*C + shift holds on classes with K*C = -1, and
    shift is certified as a lower bound for the enumerated range when
    pencil*C >= 0 on every enumerated class.
    """
    classes = enum_classes(fib.surface, ClassQuery(-1, -1, cap), budget)
    degrees = pairings(fib.fibre_class, classes)
    witness = next((c for c, d in zip(classes, degrees) if d == 1), None)
    minimum = min(degrees) if degrees else None
    minimum_witness = (
        next(c for c, d in zip(classes, degrees) if d == minimum) if degrees else None
    )
    certified = None
    note = ""
    if pencil is not None and shift is not None:
        report = fibre_intersection_identity(fib, pencil, shift, ClassQuery(-1, -1, cap), budget)
        if report.holds and all(pd >= 0 for pd in report.pencil_degrees):
            certified = shift
            note = (
                f"F*C = pencil*C + {shift} and pencil*C >= 0 on every enumerated "
                f"(-1)-class, so the enumerated classes pair at least {shift}"
            )
    return SectionSearch(witness is not None, witness, minimum, minimum_witness, certified, note)


def _flat_heads(surface: Surface, query: ClassQuery):
    for degree in range(query.degree_cap + 1):
        if surface.kind == "plane":
            yield (degree,)
            continue
        reach = degree + abs(query.self_int) + 3
        for x in range(-reach, reach + 1):
            yield (x, degree - x)


def _flat_tails(square_sum: int, linear_sum: int, slots: int):
    if slots == 0:
        if square_sum == 0 and linear_sum == 0:
            yield ()
        return
    if square_sum < 0 or linear_sum * linear_sum > slots * square_sum:
        return
    if (square_sum - linear_sum) % 2:
        return
    top = math.isqrt(square_sum)
    for v in range(top, -top - 1, -1):
        for rest in _flat_tails(square_sum - v * v, linear_sum - v, slots - 1):
            yield (v,) + rest


def _head_choices(surface: Surface, degree: int):
    if surface.kind == "plane":
        yield (degree,)
        return
    bound = degree + 3 * (surface.index + 2) + 12
    for x in range(-bound, bound + 1):
        yield (x, degree - x)


def _tail_square(surface: Surface, head, self_int: int) -> int:
    if surface.kind == "plane":
        return head[0] * head[0] - self_int
    x, y = head
    return -surface.index * x * x + 2 * x * y - self_int


def _tri(m: int) -> int:
    return m * (m - 1) // 2


def blunt_mult_vectors(pair_sum: int, m_max: int, slots: int):
    """Every non-increasing tuple with entries in [2, m_max], at most the
    given number of slots, whose triangular numbers sum as required."""
    if pair_sum == 0:
        yield ()
        return

    def rec(prefix: tuple[int, ...], remaining: int, top: int):
        if remaining == 0:
            yield prefix
            return
        if len(prefix) >= slots:
            return
        for m in range(min(top, m_max), 1, -1):
            if _tri(m) <= remaining:
                yield from rec(prefix + (m,), remaining - _tri(m), m)

    yield from rec((), pair_sum, m_max)


def naive_search_general(
    genus: int, lo: int, hi: int, adjoint_cap: int, point_cap: int
) -> tuple[NumericType, ...]:
    rows = []
    for a in range(1, adjoint_cap + 1):
        m_max = (a + 2) // 2
        t = 0
        while True:
            pair_sum = ((a + 1) * (2 * (a + 1) + t)) // 2 - genus
            if pair_sum > point_cap * _tri(m_max):
                break
            if pair_sum >= 0:
                for mults in blunt_mult_vectors(pair_sum, m_max, point_cap):
                    ksq = a * (2 * a + t) - sum((m - 1) ** 2 for m in mults)
                    gsq = (a + 2) * (2 * (a + 2) + t) - sum(m * m for m in mults)
                    if lo <= ksq <= hi and gsq >= 0:
                        rows.append(NumericType(a, t, mults, ksq))
            t += 2 if a % 2 == 0 else 1
    rows.sort(key=lambda r: r.sort_key())
    return tuple(rows)


def naive_search_special(
    genus: int, lo: int, hi: int, adjoint_cap: int, point_cap: int
) -> tuple[SpecialType, ...]:
    rows = []
    for a in range(3, adjoint_cap + 1):
        for m0 in range(2, (a + 1) // 2 + 1):
            pair_sum = a * (a + 1) // 2 + m0 * (a + 1) - genus
            if pair_sum < 0:
                continue
            for mults in blunt_mult_vectors(pair_sum, m0, point_cap):
                ksq = (a + m0 - 1) ** 2 - (m0 - 1) ** 2 - sum((m - 1) ** 2 for m in mults)
                gsq = (a + 2) * (a + 2 + 2 * m0) - sum(m * m for m in mults)
                if lo <= ksq <= hi and gsq >= 0:
                    rows.append(SpecialType(a, m0, mults, ksq))
    rows.sort(key=lambda r: r.sort_key())
    return tuple(rows)


def naive_branch_count(ksq: int) -> int:
    """Count germ vectors of total weight ksq by unrestricted products."""
    k_top = max(1, (ksq + 1) // 2)
    weights_odd = [2 * k - 1 for k in range(1, k_top + 1)]
    weights_even = [2 * k for k in range(1, k_top + 1)]
    span = range(ksq + 1)
    total = 0
    for ci in itertools.product(span, repeat=k_top):
        di = sum(w * c for w, c in zip(weights_odd, ci))
        if di > ksq:
            continue
        for cii in itertools.product(span, repeat=k_top):
            dii = di + sum(w * c for w, c in zip(weights_even, cii))
            if dii > ksq:
                continue
            for ciii in itertools.product(span, repeat=k_top):
                diii = dii + sum(w * c for w, c in zip(weights_odd, ciii))
                if diii > ksq:
                    continue
                for civ in itertools.product(span, repeat=k_top):
                    div = diii + sum(w * c for w, c in zip(weights_even, civ))
                    if div > ksq:
                        continue
                    if (ksq - div) >= 0:
                        total += 1
    return total


def naive_obstruction_minima() -> tuple[tuple[int, int], tuple[int, int]]:
    """Minimum image degree and case count over the two finite families."""
    first = [8 - sum(marks) for marks in itertools.product((0, 1), repeat=6)]
    second = [
        10 - sum(marks)
        for marks in itertools.product((0, 1, 2), repeat=6)
        if sum(1 for m in marks if m == 2) == 2
    ]
    return (min(first), len(first)), (min(second), len(second))


def rational_rank(rows) -> int:
    """Rank over the rationals by Gauss-Jordan elimination on fractions."""
    m = [[Fraction(x) for x in r] for r in rows]
    if m and any(len(r) != len(m[0]) for r in m):
        raise ValueError("ragged matrix")
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank

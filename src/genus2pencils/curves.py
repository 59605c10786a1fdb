"""Exhaustive enumeration of curve classes by numerical data.

Classes are enumerated by their pairing with a fixed nef reference class
(the line, or minimal-section-plus-ruling shapes on the ruled kind) up to
a degree cap, constrained to the requested self-intersection and
canonical degree.  Permuting the exceptional coordinates fixes all three
numbers, so the depth-first walk visits only non-increasing tails, one
representative per orbit, with exact integer window pruning; each
representative is then expanded into its distinct arrangements.  A node
budget guards against runaway caps: it counts the walk's nodes plus every
class emitted.  Results are cached for a few recent queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from operator import itemgetter

from .lattice import (
    DivisorClass,
    Fibration,
    LatticeError,
    Surface,
    pairings,
)

__all__ = [
    "BudgetExceededError",
    "ClassQuery",
    "enum_classes",
    "reference_class",
    "minus_one_section_exists",
    "SectionSearch",
    "fibre_intersection_identity",
    "IdentityReport",
]

DEFAULT_BUDGET = 2_000_000


class BudgetExceededError(LatticeError):
    """The enumeration visited more states than the configured budget."""


@dataclass(frozen=True)
class ClassQuery:
    """Target numerical data: C*C, K*C, and a cap on the reference degree."""

    self_int: int
    k_deg: int
    degree_cap: int = 3

    def __post_init__(self) -> None:
        if self.degree_cap < 1:
            raise LatticeError("degree cap must be at least 1")


def reference_class(surface: Surface) -> DivisorClass:
    """The nef class measuring enumeration degree: L, or D0 + (index+1)*G."""
    if surface.kind == "plane":
        return surface.line
    return surface.minimal_section + (surface.index + 1) * surface.ruling


class _Budget:
    __slots__ = ("left",)

    def __init__(self, n: int) -> None:
        self.left = n

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise BudgetExceededError("budget exceeded")


def _sorted_tails(square_sum: int, linear_sum: int, slots: int, top: int, budget: _Budget):
    """Non-increasing integer tuples t of the given length, every entry at
    most top, with sum(t_i^2) = square_sum and sum(t_i) = linear_sum.

    These are the representatives of the orbits of the permutations of the
    exceptional coordinates, which fix C*C, K*C and the reference degree.
    """
    budget.spend()
    if slots == 0:
        if square_sum == 0 and linear_sum == 0:
            yield ()
        return
    if square_sum < 0:
        return
    # Cauchy-Schwarz window, the square/linear parity match, and no entry
    # may exceed the one before it
    if linear_sum * linear_sum > slots * square_sum:
        return
    if (square_sum - linear_sum) % 2:
        return
    if linear_sum > slots * top:
        return
    bound = isqrt(square_sum)
    for v in range(min(top, bound), -bound - 1, -1):
        for rest in _sorted_tails(square_sum - v * v, linear_sum - v, slots - 1, v, budget):
            yield (v,) + rest


def _arrangements(tail: tuple[int, ...]):
    """Distinct permutations of a non-increasing tuple, in descending
    lexicographic order (repeated previous-permutation steps)."""
    t = list(tail)
    last = len(t) - 1
    while True:
        yield tuple(t)
        i = last - 1
        while i >= 0 and t[i] <= t[i + 1]:
            i -= 1
        if i < 0:
            return
        j = last
        while t[j] >= t[i]:
            j -= 1
        t[i], t[j] = t[j], t[i]
        t[i + 1:] = t[:i:-1]


def _heads(surface: Surface, query: ClassQuery):
    """(head coordinates, tail square sum, tail linear sum) for every head
    whose reference degree lies between 0 and the cap."""
    if surface.kind == "plane":
        for degree in range(query.degree_cap + 1):
            yield (degree,), degree * degree - query.self_int, -3 * degree - query.k_deg
        return
    d = surface.index
    for degree in range(query.degree_cap + 1):
        # degree = x + (coefficient of G contribution): H*(x D0 + y G + ...) = x*(index+1) - x*index + ... = x + y
        for x in range(-degree - abs(query.self_int) - 3, degree + abs(query.self_int) + 4):
            y = degree - x
            square_sum = -(d + 2) * x * x + 2 * degree * x - query.self_int
            if square_sum < 0:
                continue
            yield (x, y), square_sum, (d - 2) * x - 2 * y - query.k_deg


# A verify pass over the catalog needs 5 distinct queries.  One result
# that fits the default budget can hold hundreds of thousands of classes
# (P^2 blown up in 14 points at cap 4: 403,613 classes, about 210 MB), so
# a larger cache would have no sane memory ceiling.
@lru_cache(maxsize=16)
def _enum_cached(surface: Surface, query: ClassQuery, budget_size: int) -> tuple[DivisorClass, ...]:
    budget = _Budget(budget_size)
    n = surface.blowups
    rows: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for head, square_sum, linear_sum in _heads(surface, query):
        top = isqrt(max(square_sum, 0))
        for rep in _sorted_tails(square_sum, linear_sum, n, top, budget):
            for tail in _arrangements(rep):
                budget.spend()
                rows.append((head, tail))
    # heads ascending, tails descending within a head
    rows.sort(key=itemgetter(1), reverse=True)
    rows.sort(key=itemgetter(0))
    zero = (0,) * surface.rank
    return tuple(
        DivisorClass(surface, coords)
        for coords in (head + tail for head, tail in rows)
        if coords != zero
    )


def enum_classes(
    surface: Surface, query: ClassQuery, budget: int = DEFAULT_BUDGET
) -> tuple[DivisorClass, ...]:
    """Every class with the queried numerical data and reference degree
    between 0 and the cap, in ascending (degree part, multiplicities) order."""
    return _enum_cached(surface, query, budget)


@dataclass(frozen=True)
class IdentityReport:
    """Per-class check of F*C = pencil*C - shift*(K*C) over an enumeration."""

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


@dataclass(frozen=True)
class SectionSearch:
    """Result of hunting a (-1)-class meeting the fibre exactly once."""

    exists: bool
    witness: DivisorClass | None
    minimum: int | None
    minimum_witness: DivisorClass | None
    certified_bound: int | None
    note: str


def minus_one_section_exists(
    fib: Fibration,
    cap: int = 3,
    pencil: DivisorClass | None = None,
    shift: int | None = None,
    budget: int = DEFAULT_BUDGET,
) -> SectionSearch:
    """Search enumerated (-1)-classes for a section of the pencil.

    When a pencil decomposition (pencil, shift) is supplied, the pairing
    identity certifies shift as a lower bound for F*C over classes with
    K*C = -1, turning the empirical minimum into a proof for the
    enumerated range.
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
        if report.holds:
            certified = shift
            note = (
                f"F*C = pencil*C + {shift} on every enumerated (-1)-class, "
                f"so effective classes pair at least {shift}"
            )
    return SectionSearch(witness is not None, witness, minimum, minimum_witness, certified, note)

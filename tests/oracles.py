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
from genus2pencils.lattice import (
    DivisorClass,
    Fibration,
    LatticeError,
    Surface,
    blow_down,
    contracting_isometry,
    cremona,
    pairings,
)
from genus2pencils.numerics import NumericType, SpecialType
from genus2pencils.sharp import (
    ContractionTrace,
    ElementaryTransformRepair,
    IncompleteGeometryError,
    InvariantError,
    PipelineResult,
    ReducedPencil,
    ReductionError,
    SharpModelData,
    TraceStep,
)


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


# The reconstruction check as it stood before the rank certificate: every
# class of the queried numerics up to reference degree 3, filtered by each
# printed constraint.  The catalog's claims leave exactly the stored class.


def reconstructed_solutions(fib: Fibration, query, constraints) -> list[DivisorClass]:
    classes = list(enum_classes(fib.surface, ClassQuery(*query, 3)))
    for name, want in constraints:
        target = fib.fibre_class if name == "F" else fib.named(name)
        classes = [c for c in classes if target * c == want]
    return classes


# The contraction pipeline as it stood before it moved to coordinate rows:
# every carried curve is a class, each scan pairs K and the pencil with the
# whole list, and every step calls blow_down.  sharp_minimal_pipeline must
# return an equal PipelineResult, or raise the same error.


def _ref_check_carried(surface: Surface, c: DivisorClass) -> None:
    if c.surface != surface:
        raise ReductionError(f"foreign class: {c} lives on another surface")
    square = c * c
    if square >= 0:
        raise ReductionError(
            f"rejected: {c} has self-intersection {square}, not a contractible configuration curve"
        )
    g = (square + surface.canonical() * c) // 2 + 1
    if g not in (0, 1):
        raise ReductionError(f"rejected: {c} has arithmetic genus {g}")


def contract_rows(surface: Surface, e: tuple[int, ...], rows) -> tuple[Surface, list]:
    """lattice._contract_rows by its definition: cremona at each move
    contracting_isometry finds carries e onto a basis class E_i and the
    rows along, E_i's coordinate is dropped, and each row is paired with e
    by the intersection form on the classes as given."""
    target = DivisorClass(surface, e)
    classes = [DivisorClass(surface, row) for row in rows]
    meets = [target * c for c in classes]
    if surface.kind == "plane":
        moves, i = contracting_isometry(surface, target)
        for move in moves:
            (target, *classes) = cremona(surface, *move, (target, *classes))
        assert target == surface.exceptional(i)
    else:
        # only basis classes contract off the plane kind
        i = next(i for i in range(1, surface.blowups + 1) if target == surface.exceptional(i))
    pos = surface.base_rank + i - 1
    smaller = Surface(surface.kind, surface.index, surface.blowups - 1)
    return smaller, [(c.coords[:pos] + c.coords[pos + 1:], a) for c, a in zip(classes, meets)]


def _ref_minus_one_curves(surface, pencil, curves):
    k_degrees = pairings(surface.canonical(), curves)
    pencil_degrees = pairings(pencil, curves)
    return [
        (p, c)
        for c, k, p in zip(curves, k_degrees, pencil_degrees)
        if k == -1 and c * c == -1
    ]


def _ref_contract(surface, pencil, curves, e):
    smaller, pushed = blow_down(surface, e, (pencil, *curves))
    zero = smaller.zero()
    return smaller, pushed[0], [c for c in pushed[1:] if c != zero]


def reference_reduction(fib: Fibration, effective) -> ReducedPencil:
    fib.validate()
    surface = fib.surface
    pencil = fib.fibre_class
    curves: list[DivisorClass] = []
    for c in effective:
        _ref_check_carried(surface, c)
        curves.append(c)
    start = surface
    k_start_sq = surface.canonical() * surface.canonical()
    adj_start = (surface.canonical() + pencil) * (surface.canonical() + pencil)
    steps: list[TraceStep] = []
    while True:
        cands = [c for p, c in _ref_minus_one_curves(surface, pencil, curves) if p == 1]
        if not cands:
            break
        e = min(cands, key=lambda c: c.coords)
        surface, pencil, curves = _ref_contract(surface, pencil, curves, e)
        steps.append(TraceStep(e, 1, surface, pencil))
    k_end = surface.canonical()
    adj_end = (k_end + pencil) * (k_end + pencil)
    if adj_end != adj_start:
        raise InvariantError(
            f"invariant broken: adjoint square went from {adj_start} to {adj_end}"
        )
    k_end_sq = k_end * k_end
    if k_end_sq != k_start_sq + len(steps):
        raise InvariantError(
            f"invariant broken: K^2 went from {k_start_sq} to {k_end_sq} "
            f"over {len(steps)} contractions"
        )
    return ReducedPencil(
        surface, pencil, tuple(curves), ContractionTrace(start, surface, tuple(steps))
    )


def reference_greedy(reduced: ReducedPencil) -> SharpModelData:
    surface = reduced.surface
    pencil = reduced.pencil
    curves = list(reduced.curves)
    for p, c in _ref_minus_one_curves(surface, pencil, curves):
        if p == 1:
            raise ReductionError(f"not a reduction: {c} still meets the pencil once")
    start = surface
    steps: list[TraceStep] = []
    mults: list[int] = []
    violations: list[str] = []
    while surface.rank > 2:
        cands = _ref_minus_one_curves(surface, pencil, curves)
        if not cands:
            raise IncompleteGeometryError(
                f"incomplete geometry: no (-1)-curve supplied at rank {surface.rank}"
            )
        m, e = min(cands, key=lambda pc: (pc[0], pc[1].coords))
        if mults and m < mults[-1]:
            violations.append(
                f"contraction multiplicity dropped from {mults[-1]} to {m} at {e}"
            )
        surface, pencil, curves = _ref_contract(surface, pencil, curves, e)
        steps.append(TraceStep(e, m, surface, pencil))
        mults.append(m)
    if surface.kind == "plane":
        if surface.rank == 1:
            raise ReductionError("the reduction ended on P^2 itself: no ruled model to read")
        g0, g1 = pencil.coords
        index = 1
        ruling_pairing = g0 + g1
        fibre_coefficient = g0
    else:
        index = surface.index
        alpha, beta = pencil.coords[0], pencil.coords[1]
        if index == 0 and alpha > beta:
            alpha, beta = beta, alpha
            pencil = DivisorClass(surface, (alpha, beta))
        ruling_pairing = alpha
        fibre_coefficient = beta
    ordered = tuple(sorted(mults, reverse=True))
    repair = None
    if fibre_coefficient < ruling_pairing * max(index, 1):
        violations.append(
            f"pencil pairs negatively with the minimal section "
            f"(fibre coefficient {fibre_coefficient} below {ruling_pairing * max(index, 1)})"
        )
    top = ordered[0] if ordered else 0
    if 2 * top > ruling_pairing or (
        index == 1 and top > fibre_coefficient - ruling_pairing
    ):
        violations.append(
            f"largest multiplicity {top} exceeds the minimality ceiling on the index-{index} model"
        )
        # an elementary transform takes a point of multiplicity at most the
        # section coefficient; beyond it there is nothing to repair with
        if 0 <= top <= ruling_pairing:
            repair = ElementaryTransformRepair(
                (index - 1, fibre_coefficient - top) if index >= 1 else None,
                (index + 1, fibre_coefficient + ruling_pairing - top),
            )
    return SharpModelData(
        index, ruling_pairing - 2, fibre_coefficient, ordered, surface, pencil,
        ContractionTrace(start, surface, tuple(steps)), tuple(violations), repair,
    )


def reference_pipeline(fib: Fibration, effective) -> PipelineResult:
    red = reference_reduction(fib, effective)
    return PipelineResult(red, reference_greedy(red))

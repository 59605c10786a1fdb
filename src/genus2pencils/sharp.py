"""Reduction of a pencil to its minimal ruled model by exact contractions.

Both phases run one contraction loop, which differs between them only in
the curve it picks.  The reduction phase contracts supplied (-1)-curves
meeting the fibre exactly once.  The greedy phase then contracts the
remaining (-1)-curves, always choosing a smallest pencil multiplicity,
until the rank-2 minimal model is reached; the endpoint data (index,
degree over the ruling, fibre coefficient, recorded multiplicities) is
the numerical type the pencil realizes.

Every curve is paired once, on entry, and carried with K*C, C*C and
pencil*C; a contraction moves the three numbers by the blow-up
identities instead of pairing the rows again, and only the curve a step
chooses is paired again from its coordinates.  The loop keeps one
invariant for both phases: contracting a (-1)-curve of pencil degree m
raises K^2 by one and the adjoint square (K + pencil)^2 by (m - 1)^2,
whatever the input, since K = pi*K' + E and pencil = pi*pencil' - mE on
the blow-up.  A run that breaks either identity, carries numbers its
chosen curve does not have, or contracts more often than its start rank
allows raises InvariantError, a fault in the library and never a failed
claim about the pencil: it is a RuntimeError, not a LatticeError.  An
argument of the wrong type is a TypeError naming it.
"""

from __future__ import annotations

from operator import itemgetter, mul

from ._record import Record
from .lattice import (
    DivisorClass,
    Fibration,
    ForeignClassError,
    LatticeError,
    Surface,
    _contract_rows,
    _expect,
    _expect_many,
    elementary_transform,
)
from .numerics import NumericType

__all__ = [
    "ReductionError",
    "InvariantError",
    "IncompleteGeometryError",
    "TraceStep",
    "ContractionTrace",
    "ReducedPencil",
    "reduction",
    "SharpModelData",
    "ElementaryTransformRepair",
    "greedy_sharp_minimal",
    "classify_type",
    "PlaneModel",
    "canonical_p2_model",
    "PipelineResult",
    "sharp_minimal_pipeline",
]


# the coordinate row of a carried curve (C, K*C, C*C, pencil*C)
_row = itemgetter(0)


class ReductionError(LatticeError):
    """Input outside the reduction pipeline's domain."""


class InvariantError(RuntimeError):
    """An identity the reduction must keep was broken: a fault in the
    library, not in its input, so it is not a LatticeError."""


class IncompleteGeometryError(ReductionError):
    """The supplied curve list ran out before the minimal model was reached."""


class TraceStep(Record):
    contracted: DivisorClass
    pencil_degree: int
    surface_after: Surface
    pencil_after: DivisorClass


class ContractionTrace(Record):
    start: Surface
    end: Surface
    steps: tuple[TraceStep, ...]

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(s.pencil_degree for s in self.steps)


class ReducedPencil(Record):
    """Endpoint of the reduction phase: no supplied (-1)-curve meets the
    pencil exactly once any more."""

    surface: Surface
    pencil: DivisorClass
    curves: tuple[DivisorClass, ...]
    trace: ContractionTrace


def _check_carried(
    surface: Surface, pencil: DivisorClass, effective
) -> list[tuple[tuple[int, ...], int, int, int]]:
    """The carried form of every curve of ``effective``, in order, once
    each is checked to be a curve the reduction may carry; the first that
    is not raises."""
    carry = _carrier(surface, pencil)
    curves = []
    for c in effective:
        _expect(c, DivisorClass, "an effective curve")
        if c.surface is not surface:
            raise ReductionError(f"foreign class: {c} lives on another surface")
        carried = carry(c.coords)
        _, k, square, _ = carried
        if square >= 0:
            raise ReductionError(
                f"rejected: {c} has self-intersection {square}, not a contractible configuration curve"
            )
        # adjunction; the canonical class is characteristic, so the sum is even
        g = (square + k) // 2 + 1
        if g not in (0, 1):
            raise ReductionError(f"rejected: {c} has arithmetic genus {g}")
        curves.append(carried)
    return curves


def _carrier(surface: Surface, pencil: DivisorClass):
    """The map from a coordinate row C to its carried form
    (C, K*C, C*C, pencil*C): K*C and pencil*C are dot products with the
    two dual vectors."""
    k_dual = surface._canonical_dual
    p_dual = surface.dual(pencil.coords)
    square = surface.intersect
    return lambda c: (c, sum(map(mul, k_dual, c)), square(c, c), sum(map(mul, p_dual, c)))


def _contract(
    surface: Surface,
    pencil: DivisorClass,
    curves: list[tuple],
    e: tuple[int, ...],
) -> tuple[Surface, DivisorClass, list[tuple]]:
    """Contract the (-1)-curve e: the smaller surface, the pushed pencil
    and the carried curves pushed forward, rows pushed to zero dropped.

    A row C meeting e a = C*e times pushes to C' with pi*C' = C + a e, so
    with m = pencil*e the carried numbers move by the blow-up identities
    K'*C' = K*C - a, C'^2 = C^2 + a^2 and pencil'*C' = pencil*C + a m;
    no row is paired again.  The pencil row goes last, so the curves zip
    against the pushed rows without a copy."""
    smaller, pushed = _contract_rows(surface, e, [*map(_row, curves), pencil.coords])
    p_row, m = pushed[-1]
    return smaller, DivisorClass._derived(smaller, p_row), [
        (row, k - a, square + a * a, p + a * m)
        for (row, a), (_, k, square, p) in zip(pushed, curves)
        if any(row)
    ]


def _squares(surface: Surface, pencil: DivisorClass) -> tuple[int, int]:
    """K^2 and the adjoint square (K + pencil)^2."""
    k = surface.canonical()
    k_sq = k * k
    return k_sq, k_sq + 2 * (k * pencil) + pencil * pencil


def _check_run(
    before: tuple[int, int], surface: Surface, pencil: DivisorClass, steps
) -> tuple[int, int]:
    """The squares after the run, once they are checked: InvariantError
    unless, from the squares ``before`` the run, K^2 rose by one per step
    and the adjoint square by (m - 1)^2 per step of pencil degree m."""
    after = _squares(surface, pencil)
    (k_start_sq, adj_start), (k_end_sq, adj_end) = before, after
    adj_want = adj_start + sum((s.pencil_degree - 1) ** 2 for s in steps)
    if adj_end != adj_want:
        raise InvariantError(
            f"invariant broken: adjoint square went from {adj_start} to {adj_end}, "
            f"expected {adj_want}"
        )
    if k_end_sq != k_start_sq + len(steps):
        raise InvariantError(
            f"invariant broken: K^2 went from {k_start_sq} to {k_end_sq} "
            f"over {len(steps)} contractions"
        )
    return after


def _contractions(
    surface: Surface, pencil: DivisorClass, curves: list[tuple], pick, before: tuple[int, int]
) -> tuple[Surface, DivisorClass, list[tuple], ContractionTrace, tuple[int, int]]:
    """Contract the (-1)-curve ``pick`` chooses until it chooses none;
    ``before`` holds the squares of K and K + pencil at the start, and the
    run returns them at its end with the trace.

    ``curves`` holds each row in its carried form (C, K*C, C*C, pencil*C),
    and _contract moves the three numbers along by the blow-up identities.
    ``pick(surface, pairs)`` gets the (pencil * C, C) pair of every row
    carried as a (-1)-curve and returns one pair or None.  The chosen
    curve alone is paired again from its coordinates, and carried numbers
    it does not match raise InvariantError.  Each contraction of pencil
    degree m raises K^2 by one and the adjoint square (K + pencil)^2 by
    (m - 1)^2, whatever the classes are; both identities are checked over
    the run and a violation raises InvariantError.  They are checked too
    before any other InvariantError or a pick's IncompleteGeometryError
    leaves, so a contraction that drops its curve uncontracted is a fault,
    not a lack of curves.  Each contraction lowers the rank by one, so a
    run choosing a curve after start.rank contractions is a fault too.
    """
    start, limit = surface, surface.rank
    steps: list[TraceStep] = []

    def fault(message: str):
        _check_run(before, surface, pencil, steps)
        return InvariantError(f"invariant broken: {message}")

    try:
        while (
            chosen := pick(surface, [(p, c) for c, k, square, p in curves if k == square == -1])
        ) is not None:
            m, e = chosen
            contracted = DivisorClass._derived(surface, e)
            if len(steps) == limit:
                raise fault(
                    f"{contracted} chosen after {limit} contractions from rank {limit}, "
                    "though each lowers the rank by one"
                )
            got = (
                sum(map(mul, surface._canonical_dual, e)),
                surface.intersect(e, e),
                surface.intersect(pencil.coords, e),
            )
            if got != (-1, -1, m):
                raise fault(
                    f"{contracted} was carried with K*C, C*C, pencil*C = (-1, -1, {m}), "
                    f"its coordinates give {got}"
                )
            surface, pencil, curves = _contract(surface, pencil, curves, e)
            steps.append(TraceStep(contracted, m, surface, pencil))
    except IncompleteGeometryError:
        _check_run(before, surface, pencil, steps)
        raise
    after = _check_run(before, surface, pencil, steps)
    return surface, pencil, curves, ContractionTrace(start, surface, tuple(steps)), after


def _pick_reduction(surface: Surface, pairs):
    # pencil degree one, ties to the smallest coordinates
    return min((pc for pc in pairs if pc[0] == 1), default=None)


def reduction(fib: Fibration, effective) -> ReducedPencil:
    """Contract away every supplied (-1)-curve meeting the fibre once.

    Ties go to the smallest coordinate vector.  The adjoint square is
    unchanged at every step while the canonical self-intersection rises by
    one.  The curves are carried as coordinate rows; classes are built
    only for the trace and the result.  A single class passed as
    ``effective`` is a TypeError naming it.
    """
    return _reduce(fib, effective)[0]


def _reduce(fib: Fibration, effective) -> tuple[ReducedPencil, list[tuple], tuple[int, int]]:
    """reduction, with the curves it ends on in carried form and the
    squares of K and K + pencil there, for the greedy phase to start from."""
    _expect(fib, Fibration, "fib")
    fib.validate()
    surface = fib.surface
    pencil = fib.fibre_class
    _expect_many(effective, "effective")
    curves = _check_carried(surface, pencil, effective)
    surface, pencil, curves, trace, after = _contractions(
        surface, pencil, curves, _pick_reduction, _squares(surface, pencil)
    )
    rows = DivisorClass._derived_all(surface, map(_row, curves))
    return ReducedPencil(surface, pencil, rows, trace), curves, after


class ElementaryTransformRepair(Record):
    """The two one-step elementary transforms lowering an offending
    multiplicity: (new index, new fibre coefficient) off and on the
    minimal section; off-section is unavailable at index 0."""

    off_section: tuple[int, int] | None
    on_section: tuple[int, int]


class SharpModelData(Record):
    """Endpoint of the greedy contraction on the rank-2 minimal model."""

    hirzebruch_index: int
    adjoint_degree: int
    fibre_coefficient: int
    multiplicities: tuple[int, ...]
    surface: Surface
    pencil: DivisorClass
    trace: ContractionTrace
    violations: tuple[str, ...] = ()
    repair: ElementaryTransformRepair | None = None

    @property
    def pencil_degree(self) -> int:
        return self.adjoint_degree + 2

    @property
    def twice_offset(self) -> int:
        return 2 * self.fibre_coefficient - (self.hirzebruch_index + 2) * self.pencil_degree

    @property
    def extra_multiplicity(self) -> int | None:
        if self.hirzebruch_index != 1:
            return None
        return self.fibre_coefficient - self.pencil_degree

    @property
    def type_tag(self) -> str:
        return classify_type(self)

    def numeric_type(self) -> NumericType:
        if self.violations:
            raise ReductionError(
                "model violates the minimality conditions: " + "; ".join(self.violations)
            )
        ksq = self.adjoint_degree * (2 * self.adjoint_degree + self.twice_offset) - sum(
            (m - 1) ** 2 for m in self.multiplicities
        )
        return NumericType(self.adjoint_degree, self.twice_offset, self.multiplicities, ksq)


def _pick_greedy(surface: Surface, pairs):
    if surface.rank <= 2:
        return None
    if not pairs:
        raise IncompleteGeometryError(
            f"incomplete geometry: no (-1)-curve supplied at rank {surface.rank}"
        )
    # (pencil degree, coordinates): ties go to the smallest coordinates
    return min(pairs)


def greedy_sharp_minimal(reduced: ReducedPencil) -> SharpModelData:
    """Contract remaining (-1)-curves, smallest pencil multiplicity first,
    down to the rank-2 model.

    The input must be a completed reduction (no supplied (-1)-curve of
    pencil degree one).  Multiplicities recorded along the way must never
    decrease; a decrease, or an endpoint violating the minimality
    conditions, is reported in ``violations`` together with the repairing
    elementary transforms where one exists.  A reduction that ended on P^2
    itself (rank 1) has no ruled model and raises ReductionError.  A
    surface, pencil or curve of ``reduced`` of the wrong type is a
    TypeError naming it; the trace is not read.
    """
    _expect(reduced, ReducedPencil, "reduced")
    surface = reduced.surface
    pencil = reduced.pencil
    _expect(surface, Surface, "the surface of reduced")
    _expect(pencil, DivisorClass, "the pencil of reduced")
    _expect_many(reduced.curves, "the curves of reduced", tuple)
    curves: list[tuple[int, ...]] = []
    for c in reduced.curves:
        _expect(c, DivisorClass, "a curve of reduced")
        if c.surface is not surface:
            raise ForeignClassError("foreign class: operands live on different surfaces")
        curves.append(c.coords)
    if curves and pencil.surface is not surface:
        raise ForeignClassError("foreign class: operands live on different surfaces")
    curves = list(map(_carrier(surface, pencil), curves))
    for c, k, square, p in curves:
        if k == square == -1 and p == 1:
            raise ReductionError(
                f"not a reduction: {DivisorClass._derived(surface, c)} still meets the pencil once"
            )
    return _greedy(surface, pencil, curves, _squares(surface, pencil))


def _greedy(
    surface: Surface, pencil: DivisorClass, curves: list[tuple], squares: tuple[int, int]
) -> SharpModelData:
    """greedy_sharp_minimal from a checked reduction's surface, pencil,
    carried curves and squares of K and K + pencil."""
    surface, pencil, _, trace, _ = _contractions(surface, pencil, curves, _pick_greedy, squares)
    mults = trace.multiplicities
    violations = [
        f"contraction multiplicity dropped from {before} to {m} at {step.contracted}"
        for before, m, step in zip(mults, mults[1:], trace.steps[1:])
        if m < before
    ]
    if surface.kind == "plane":
        if surface.rank == 1:
            raise ReductionError("the reduction ended on P^2 itself: no ruled model to read")
        # rank 2 with one exceptional class is the index-1 model in plane coordinates
        g0, g1 = pencil.coords
        index = 1
        ruling_pairing = g0 + g1
        fibre_coefficient = g0
    else:
        index = surface.index
        alpha, beta = pencil.coords[0], pencil.coords[1]
        if index == 0 and alpha > beta:
            # the two rulings are interchangeable at index 0; normalize
            alpha, beta = beta, alpha
            pencil = DivisorClass._derived(surface, (alpha, beta))
        ruling_pairing = alpha
        fibre_coefficient = beta
    adjoint_degree = ruling_pairing - 2
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
        curve = (ruling_pairing, fibre_coefficient)
        try:
            on = elementary_transform(index, curve, top, on_minimal_section=True)
            off = elementary_transform(index, curve, top) if index >= 1 else None
        except LatticeError:
            pass  # no transform takes this multiplicity: nothing to repair with
        else:
            repair = ElementaryTransformRepair(
                None if off is None else (off.index, off.curve[1]), (on.index, on.curve[1])
            )
    return SharpModelData(
        index,
        adjoint_degree,
        fibre_coefficient,
        ordered,
        surface,
        pencil,
        trace,
        tuple(violations),
        repair,
    )


def classify_type(sharp: SharpModelData) -> str:
    """Return "general" when the pencil clears twice the degree floor,
    else "special" (which can only happen on the index-1 model)."""
    return "general" if sharp.twice_offset >= 0 else "special"


class PlaneModel(Record):
    degree: int
    multiplicities: tuple[int, ...]


def canonical_p2_model(sharp: SharpModelData) -> PlaneModel:
    """Plane presentation reached by contracting the minimal section.

    Only the index-1 model sits one contraction away from the plane; the
    section contracts onto a point whose multiplicity is the fibre
    coefficient minus the pencil degree, recorded when it is an actual
    singularity (at least 2).
    """
    if sharp.hirzebruch_index != 1:
        raise ReductionError("not a plane-adjacent model")
    m0 = sharp.extra_multiplicity
    ms = sharp.multiplicities + ((m0,) if m0 >= 2 else ())
    return PlaneModel(sharp.fibre_coefficient, tuple(sorted(ms, reverse=True)))


class PipelineResult(Record):
    reduced: ReducedPencil
    model: SharpModelData


def sharp_minimal_pipeline(fib: Fibration, effective) -> PipelineResult:
    """Reduction followed by greedy contraction, with both traces.  The
    greedy phase starts from the numbers the reduction carried to its end,
    so no curve is paired again between the phases."""
    red, curves, squares = _reduce(fib, effective)
    return PipelineResult(red, _greedy(red.surface, red.pencil, curves, squares))

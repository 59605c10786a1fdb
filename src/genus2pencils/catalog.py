"""Built-in models: four canonical plane pencils (A, B1, B2, C) and one
extremal configuration with trivial Mordell-Weil group over each
(Ex4_3 .. Ex4_6).

Each base pencil is one row of a table: its surface, fibre class F, the
pencil class P where it has one, and its complete expected record.  An
extremal entry builds on its base's row and adds only its own curves
(the section O, the fibre components THi, extra named curves), fibres,
blocks and the expected fields it changes.  verify() recomputes every
claim from the lattice data and compares.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import NamedTuple

from .curves import ClassQuery, _classes_meeting, fibre_intersection_identity, minus_one_section_exists
from .fibres import (
    FibreComponent, FibreDecomposition, ade_classify, complement_lattice,
    orthogonal_decomposition_check, shioda_rank, validate_fibre,
)
from .intmat import hermite_normal_form
from .lattice import (
    DivisorClass, Fibration, LatticeError, adjoint_square, cremona, pairings,
    picard_number, plane_blowup, plane_curve,
)
from .numerics import NumericType
from .sharp import InvariantError, PlaneModel, canonical_p2_model, sharp_minimal_pipeline

__all__ = [
    "CatalogEntry", "ExpectedData", "CheckResult", "VerifyReport",
    "tags", "normalize_tag", "get", "verify",
]


@dataclass(frozen=True)
class ExpectedData:
    adjoint_square: int
    picard_rank: int
    numeric: NumericType
    plane: PlaneModel
    has_minus_one_section: bool
    section_witness: str | None
    empirical_minimum: int
    pencil_shift: int | None
    reduction_order: tuple[str, ...]
    greedy_order: tuple[str, ...]
    greedy_multiplicities: tuple[int, ...]
    reduced_anticanonical_multiple: int | None = None
    mid_anticanonical: tuple[int, int] | None = None
    component_counts: tuple[int, ...] = ()
    ade_labels: tuple[tuple[str, tuple[str, ...]], ...] = ()
    block_sizes: tuple[int, ...] = ()
    mordell_weil_rank: int | None = None
    section_meets: tuple[str, ...] = ()
    fibre_degrees: tuple[tuple[str, int], ...] = ()
    reconstructed: tuple[tuple[str, tuple[int, int], tuple[tuple[str, int], ...]], ...] = ()
    cremona_fixes_fibre: tuple[int, int, int] | None = None
    pencil_query_minimum: int | None = None


@dataclass(frozen=True)
class CatalogEntry:
    tag: str
    title: str
    fibration: Fibration
    effective: tuple[str, ...]
    blocks: tuple[tuple[str, ...], ...]
    expected: ExpectedData
    annotation: str = ""


@dataclass(frozen=True)
class CheckResult:
    """One check's outcome.  A failed claim has passed False; a check that
    raised anything but AssertionError or LatticeError, or raised the
    InvariantError of a broken library invariant, also carries ``error``,
    the exception type and the file:line it was raised at.  Running out of
    the enumeration budget (BudgetExceededError) is a failed claim: the
    claim was not established within the budget."""

    name: str
    passed: bool
    detail: str = ""
    error: str | None = None


@dataclass(frozen=True)
class VerifyReport:
    tag: str
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


class _Base(NamedTuple):
    """A canonical pencil: F = degree*L - sum(mults_i*E_i) on the plane
    blown up in ``blowups`` points; P = L - E1 is named when ``pencil``."""

    blowups: int
    degree: int
    mults: tuple[int, ...]
    pencil: bool
    title: str
    expected: ExpectedData


_BASES = {
    "A": _Base(
        12, 6, (2,) * 8 + (1,) * 4, False, "plane sextic pencil, adjoint square 1",
        ExpectedData(
            adjoint_square=1, picard_rank=13, numeric=NumericType(2, 0, (2,) * 7, 1),
            plane=PlaneModel(6, (2,) * 8), has_minus_one_section=True, section_witness="E9",
            empirical_minimum=1, pencil_shift=None, reduction_order=("E12", "E11", "E10", "E9"),
            greedy_order=("E8", "E7", "E6", "E5", "E4", "E3", "E2"), greedy_multiplicities=(2,) * 7,
            reduced_anticanonical_multiple=2,
        ),
    ),
    "B1": _Base(
        11, 7, (3,) + (2,) * 10, True, "plane septic pencil, adjoint square 2, no section",
        ExpectedData(
            adjoint_square=2, picard_rank=12, numeric=NumericType(2, 2, (2,) * 10, 2),
            plane=PlaneModel(7, (3,) + (2,) * 10), has_minus_one_section=False, section_witness=None,
            empirical_minimum=2, pencil_shift=2, reduction_order=(),
            greedy_order=tuple(f"E{i}" for i in range(11, 1, -1)), greedy_multiplicities=(2,) * 10,
        ),
    ),
    "B2": _Base(
        11, 9, (3,) * 8 + (2, 2, 1), False, "plane nonic pencil, adjoint square 2, with section",
        ExpectedData(
            adjoint_square=2, picard_rank=12, numeric=NumericType(4, 0, (3,) * 7 + (2, 2), 2),
            plane=PlaneModel(9, (3,) * 8 + (2, 2)), has_minus_one_section=True, section_witness="E11",
            empirical_minimum=1, pencil_shift=None, reduction_order=("E11",),
            greedy_order=("E10", "E9", "E8", "E7", "E6", "E5", "E4", "E3", "E2"),
            greedy_multiplicities=(2, 2, 3, 3, 3, 3, 3, 3, 3), mid_anticanonical=(2, 3),
        ),
    ),
    "C": _Base(
        10, 13, (5,) + (4,) * 9, True, "plane degree-13 pencil, adjoint square 3, no section",
        ExpectedData(
            adjoint_square=3, picard_rank=11, numeric=NumericType(6, 2, (4,) * 9, 3),
            plane=PlaneModel(13, (5,) + (4,) * 9), has_minus_one_section=False, section_witness=None,
            empirical_minimum=4, pencil_shift=4, reduction_order=(),
            greedy_order=tuple(f"E{i}" for i in range(10, 1, -1)), greedy_multiplicities=(4,) * 9,
            cremona_fixes_fibre=(1, 2, 3), pencil_query_minimum=8,
        ),
    ),
}


def _pencil(tag: str):
    """A base pencil on its surface: (surface, F, named F and P, table row)."""
    row = _BASES[tag]
    s = plane_blowup(row.blowups)
    f = plane_curve(s, row.degree, row.mults)
    named = (("F", f),) + ((("P", plane_curve(s, 1, (1,))),) if row.pencil else ())
    return s, f, named, row


def _canonical(tag: str) -> CatalogEntry:
    s, f, named, row = _pencil(tag)
    exceptional = tuple((f"E{i}", s.exceptional(i)) for i in range(1, s.blowups + 1))
    fib = Fibration(s, f, named_classes=named + exceptional)
    return CatalogEntry(tag, row.title, fib, tuple(n for n, _ in exceptional), (), row.expected)


def _fibre(name: str, th: dict[int, DivisorClass], *parts: tuple[int, ...]) -> FibreDecomposition:
    """Components THi from (i, multiplicity) for a smooth rational
    (-2)-curve, or (i, multiplicity, self-intersection, genus) otherwise."""
    components = []
    for i, multiplicity, *declared in parts:
        self_int, genus = declared or (-2, 0)
        components.append(FibreComponent(f"TH{i}", th[i], multiplicity, self_int, genus))
    return FibreDecomposition(name, tuple(components))


def _extremal(tag: str, title: str, base: tuple, o: DivisorClass, th: dict[int, DivisorClass],
              extra: tuple[tuple[str, DivisorClass], ...], fibres: tuple[FibreDecomposition, ...],
              blocks: tuple[tuple[str, ...], ...], annotation: str = "", **expected) -> CatalogEntry:
    """An extremal configuration over a base pencil.  O, the TH classes by
    index and the extra curves are named after F (and P); every named curve
    but F and P is effective; the expected record is the base's with the
    given fields replaced."""
    s, f, named, row = base
    named += (("O", o),) + tuple((f"TH{i}", th[i]) for i in sorted(th)) + extra
    fib = Fibration(s, f, sections=(o,), fibres=fibres, named_classes=named)
    effective = tuple(name for name, _ in named if name not in ("F", "P"))
    return CatalogEntry(tag, title, fib, effective, blocks, replace(row.expected, **expected), annotation)


def _entry_ex43(tag: str) -> CatalogEntry:
    base = _pencil("A")
    s, e = base[0], base[0].exceptional
    th = {
        0: plane_curve(s, 1, (1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1)),
        8: plane_curve(s, 1, (1, 1, 1)),
        12: plane_curve(s, 3, (1,) * 10),
    }
    th.update((i, e(i) - e(i + 1)) for i in (1, 2, 3, 4, 5, 6, 7, 9, 10, 11))
    zeros = tuple((name, 0) for name in (
        "O", "TH0", "TH1", "TH2", "TH3", "TH4", "TH5", "TH6", "TH8", "TH9", "TH10", "TH11"))
    return _extremal(
        tag, "extremal configuration over the sextic pencil", base, e(12), th, (("E8", e(8)),),
        fibres=(
            _fibre("F0", th, (11, 1), (9, 1), (10, 2), (12, 2, -1, 1)),
            _fibre("Finf", th, (0, 1, -4, 0), (1, 4), (2, 7), (3, 10), (4, 8), (5, 6), (6, 4),
                   (7, 2), (8, 5)),
        ),
        blocks=(("F", "O"), ("TH9", "TH10", "TH12"), tuple(f"TH{i}" for i in range(1, 9))),
        annotation=(
            "one branch germ of the fifth class sits over the four-component fibre "
            "(epsilon 1); placements are recorded, not checked"
        ),
        component_counts=(4, 9),
        ade_labels=(("F0", ("A3",)), ("Finf", ("E8",))),
        block_sizes=(2, 3, 8),
        mordell_weil_rank=0,
        section_meets=("TH0", "TH11"),
        fibre_degrees=(("E8", 2),),
        reconstructed=(("E8", (-1, -1), (("F", 2), ("TH12", 1), ("TH7", 1)) + zeros),),
    )


def _entry_ex44(tag: str) -> CatalogEntry:
    base = _pencil("B1")
    s, e = base[0], base[0].exceptional
    th = {
        0: plane_curve(s, 1, (1, 0, 0, 0, 0, 0, 1, 1)),
        1: plane_curve(s, 1, (1, 1, 1)),
        6: plane_curve(s, 3, (1, 1, 1, 1, 1, 0, 1, 1, 1, 1, 1)),
        11: plane_curve(s, 3, (1,) * 10),
    }
    th.update((i, e(i) - e(i + 1)) for i in (2, 3, 4, 5, 7, 8, 9, 10))
    return _extremal(
        tag, "extremal configuration over the septic pencil", base, e(1) - e(2), th,
        (("E6", e(6)), ("E11", e(11))),
        fibres=(
            _fibre("F0", th, (0, 1), (7, 1), (8, 2), (9, 2), (10, 2), (11, 2, -1, 1)),
            _fibre("Finf", th, (1, 1), (2, 1), (3, 2), (4, 2), (5, 2), (6, 2, -1, 1)),
        ),
        blocks=(("F", "O"), ("TH7", "TH8", "TH9", "TH10", "TH11"), ("TH1", "TH3", "TH4", "TH5", "TH6")),
        component_counts=(6, 6),
        ade_labels=(("F0", ("D5",)), ("Finf", ("D5",))),
        block_sizes=(2, 5, 5),
        mordell_weil_rank=0,
        section_meets=("TH0", "TH2"),
        fibre_degrees=(("E6", 2), ("E11", 2)),
    )


def _entry_ex45(tag: str) -> CatalogEntry:
    base = _pencil("B2")
    s, e = base[0], base[0].exceptional
    th = {
        0: plane_curve(s, 1, (1, 1, 1)),
        8: plane_curve(s, 3, (1, 1, 1, 1, 1, 1, 1, 0, 2, 1, 0)),
        10: plane_curve(s, 3, (1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 1)),
    }
    th.update((i, e(i) - e(i + 1)) for i in (1, 2, 3, 4, 5, 6, 7, 9))
    zeros = tuple((name, 0) for name in (
        "TH0", "TH1", "TH2", "TH3", "TH4", "TH5", "TH6", "TH8", "TH9", "E10"))
    return _extremal(
        tag, "extremal configuration over the nonic pencil", base, e(11), th,
        (("E10", e(10)), ("EH8", e(8) - e(11))),
        fibres=(
            _fibre("F0", th, (0, 3), (1, 2), (2, 4), (3, 6), (4, 5), (5, 4), (6, 3), (7, 2),
                   (8, 1, -3, 0), (9, 1), (10, 1, -1, 1)),
        ),
        blocks=(("F", "O"), tuple(f"TH{i}" for i in range(10))),
        component_counts=(11,),
        ade_labels=(("F0", ("E8", "A1")),),
        block_sizes=(2, 10),
        mordell_weil_rank=0,
        section_meets=("TH10",),
        fibre_degrees=(("E10", 2), ("EH8", 2)),
        reconstructed=(("EH8", (-2, 0), (("F", 2), ("O", 1), ("TH7", 1)) + zeros),),
    )


def _entry_ex46(tag: str) -> CatalogEntry:
    base = _pencil("C")
    s, e = base[0], base[0].exceptional
    th = {i: e(i) - e(i + 3) for i in range(2, 8)}
    th.update((i, plane_curve(s, 6, [1 if j == i else 2 for j in range(1, 11)])) for i in (8, 9, 10))
    th.update((i + 9, plane_curve(s, 1, (1,)) - e(i) - e(i + 3)) for i in (2, 3, 4))
    return _extremal(
        tag, "extremal configuration over the degree-13 pencil", base,
        plane_curve(s, 1, (0, 1, 1, 1)), th, (("E1", e(1)), ("E8", e(8)), ("E9", e(9)), ("E10", e(10))),
        fibres=tuple(
            _fibre(name, th, (i, 1), (i + 9, 1), (i + 3, 2), (i + 6, 2, -1, 1))
            for name, i in (("F0", 2), ("F1", 3), ("Finf", 4))
        ),
        blocks=(("F", "O"), ("TH5", "TH8", "TH11"), ("TH6", "TH9", "TH12"), ("TH7", "TH10", "TH13")),
        component_counts=(4, 4, 4),
        ade_labels=(("F0", ("A3",)), ("F1", ("A3",)), ("Finf", ("A3",))),
        block_sizes=(2, 3, 3, 3),
        mordell_weil_rank=0,
        section_meets=("TH2", "TH3", "TH4"),
        fibre_degrees=(("E1", 5), ("E8", 4), ("E9", 4), ("E10", 4)),
    )


# every tag in catalog order; a builder is called with the tag it builds
_BUILDERS = {
    **dict.fromkeys(_BASES, _canonical),
    "Ex4_3": _entry_ex43,
    "Ex4_4": _entry_ex44,
    "Ex4_5": _entry_ex45,
    "Ex4_6": _entry_ex46,
}

_CACHE: dict[str, CatalogEntry] = {}


def tags() -> tuple[str, ...]:
    return tuple(_BUILDERS)


def normalize_tag(tag: str) -> str:
    """The tag a spelling names: case, '.' or '-' for '_' and a missing
    "Ex" prefix are forgiven."""
    cleaned = tag.strip().replace(".", "_").replace("-", "_").upper()
    for key in _BUILDERS:
        if cleaned in (key.upper(), key.upper().removeprefix("EX")):
            return key
    raise KeyError(f"unknown example tag {tag!r}")


def get(tag: str) -> CatalogEntry:
    key = normalize_tag(tag)
    if key not in _CACHE:
        _CACHE[key] = _BUILDERS[key](key)
    return _CACHE[key]


def _where(exc: Exception) -> str:
    """The exception type and the file:line it was raised at."""
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    name = os.path.basename(tb.tb_frame.f_code.co_filename)
    return f"{type(exc).__name__} at {name}:{tb.tb_lineno}"


def _run(checks: list[CheckResult], name: str, fn) -> None:
    try:
        detail = fn()
    except Exception as exc:
        # an AssertionError or LatticeError means the claim does not hold;
        # a broken invariant or anything else is a fault in the library
        failed = isinstance(exc, (AssertionError, LatticeError))
        fault = isinstance(exc, InvariantError) or not failed
        checks.append(CheckResult(name, False, str(exc), _where(exc) if fault else None))
        return
    checks.append(CheckResult(name, True, detail or ""))


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise AssertionError(message)


def verify(tag: str) -> VerifyReport:
    """Recompute every claim an entry makes and compare, check by check."""
    entry = get(tag)
    fib = entry.fibration
    exp = entry.expected
    surface = fib.surface
    f = fib.fibre_class
    checks: list[CheckResult] = []

    def check_fibration() -> str:
        fib.validate()
        _require(adjoint_square(fib) == exp.adjoint_square, "adjoint square mismatch")
        _require(picard_number(fib) == exp.picard_rank, "picard rank mismatch")
        _require(surface.rank == exp.picard_rank, "lattice rank mismatch")
        return f"adjoint square {exp.adjoint_square}, rank {exp.picard_rank}"

    _run(checks, "fibration", check_fibration)

    def check_numeric() -> str:
        from .numerics import search_general

        _require(exp.numeric.genus == fib.genus, "numeric genus mismatch")
        rows = search_general(fib.genus, exp.adjoint_square, exp.adjoint_square)
        _require(exp.numeric in rows, "numeric type not found by the search")
        return f"type {exp.numeric.multiplicities} at degree {exp.numeric.pencil_degree}"

    _run(checks, "numeric-type", check_numeric)

    if fib.fibres:

        def check_fibres() -> str:
            counts = []
            for dec in fib.fibres:
                report = validate_fibre(fib, dec)
                counts.append(report.component_count)
            _require(tuple(counts) == exp.component_counts, f"component counts {counts}")
            return f"component counts {tuple(counts)}"

        _run(checks, "fibres", check_fibres)

        def check_graphs() -> str:
            got = []
            for dec in fib.fibres:
                labels = tuple(label for _, label in ade_classify(dec))
                got.append((dec.name, labels))
            _require(tuple(got) == exp.ade_labels, f"diagram labels {got}")
            return "; ".join(f"{n}: {', '.join(ls)}" for n, ls in got)

        _run(checks, "dual-graphs", check_graphs)

        def check_section_meets() -> str:
            o = fib.named("O")
            seen = set()
            for dec in fib.fibres:
                meets = pairings(o, [comp.divisor for comp in dec.components])
                for comp, val in zip(dec.components, meets):
                    want = 1 if comp.name in exp.section_meets else 0
                    _require(
                        val == want,
                        f"section meets {comp.name} with value {val}, expected {want}",
                    )
                    if val:
                        seen.add(comp.name)
            _require(seen == set(exp.section_meets), "section meeting set mismatch")
            return f"section meets {sorted(seen)}"

        _run(checks, "section-meets", check_section_meets)

        def check_shioda() -> str:
            rank = shioda_rank(exp.picard_rank, exp.component_counts)
            _require(rank == exp.mordell_weil_rank, f"shioda rank {rank}")
            return f"Mordell-Weil rank {rank}"

        _run(checks, "shioda", check_shioda)

    if entry.blocks:

        def check_blocks() -> str:
            classes = [[fib.named(n) for n in block] for block in entry.blocks]
            report = orthogonal_decomposition_check(fib, classes)
            _require(report.passed, "; ".join(report.messages))
            _require(report.block_sizes == exp.block_sizes, f"block sizes {report.block_sizes}")
            return f"{report.certificate} (determinant {report.determinant})"

        _run(checks, "blocks", check_blocks)

        def check_complement() -> str:
            o = fib.named("O")
            comp = complement_lattice(surface, (f, o))
            rest = [fib.named(n) for block in entry.blocks[1:] for n in block]
            lhs = hermite_normal_form([list(c.coords) for c in comp.basis])
            rhs = hermite_normal_form([list(c.coords) for c in rest])
            _require(lhs == rhs, "block span is not the full orthogonal complement")
            return f"complement rank {len(comp.basis)}, discriminant {comp.discriminant}"

        _run(checks, "complement", check_complement)

    if exp.fibre_degrees:

        def check_degrees() -> str:
            for name, want in exp.fibre_degrees:
                got = f * fib.named(name)
                _require(got == want, f"F pairs {got} with {name}, expected {want}")
            return ", ".join(f"F*{n}={v}" for n, v in exp.fibre_degrees)

        _run(checks, "fibre-degrees", check_degrees)

    def check_pipeline() -> str:
        curves = [fib.named(n) for n in entry.effective]
        result = sharp_minimal_pipeline(fib, curves)
        red_order = tuple(str(s.contracted) for s in result.reduced.trace.steps)
        _require(red_order == exp.reduction_order, f"reduction order {red_order}")
        greedy_order = tuple(str(s.contracted) for s in result.model.trace.steps)
        _require(greedy_order == exp.greedy_order, f"greedy order {greedy_order}")
        mults = result.model.trace.multiplicities
        _require(mults == exp.greedy_multiplicities, f"greedy multiplicities {mults}")
        _require(not result.model.violations, "; ".join(result.model.violations))
        _require(result.model.numeric_type() == exp.numeric, "endpoint numeric type mismatch")
        _require(result.model.type_tag == "general", "endpoint is not of general type")
        if exp.reduced_anticanonical_multiple is not None:
            k = result.reduced.surface.canonical()
            _require(
                result.reduced.pencil == exp.reduced_anticanonical_multiple * (-1 * k),
                "reduced pencil is not the expected anticanonical multiple",
            )
        if exp.mid_anticanonical is not None:
            step_count, multiple = exp.mid_anticanonical
            step = result.model.trace.steps[step_count - 1]
            k = step.surface_after.canonical()
            _require(
                step.pencil_after == multiple * (-1 * k),
                "mid-pipeline pencil is not the expected anticanonical multiple",
            )
        _require(
            canonical_p2_model(result.model) == exp.plane,
            "plane presentation mismatch",
        )
        return (
            f"{len(red_order)} reduction and {len(greedy_order)} greedy contractions "
            f"to degree {exp.plane.degree}"
        )

    _run(checks, "pipeline", check_pipeline)

    def check_section() -> str:
        pencil = fib.named("P") if exp.pencil_shift is not None else None
        search = minus_one_section_exists(fib, 3, pencil, exp.pencil_shift)
        _require(search.exists == exp.has_minus_one_section, f"section existence {search.exists}")
        if exp.section_witness is not None:
            _require(str(search.witness) == exp.section_witness, f"witness {search.witness}")
        _require(search.minimum == exp.empirical_minimum, f"minimum {search.minimum}")
        if exp.pencil_shift is not None:
            _require(search.certified_bound == exp.pencil_shift, "certified bound mismatch")
            return (
                f"no section; minimum fibre degree {search.minimum} "
                f"certified by the shift-{exp.pencil_shift} identity"
            )
        return f"section {search.witness} found, minimum fibre degree {search.minimum}"

    _run(checks, "section", check_section)

    if exp.pencil_shift is not None:

        def check_identity() -> str:
            report = fibre_intersection_identity(
                fib, fib.named("P"), exp.pencil_shift, ClassQuery(-1, -1, 3)
            )
            _require(report.holds, "pairing identity failed")
            _require(report.minimum == exp.empirical_minimum, f"minimum {report.minimum}")
            return (
                f"identity holds on {report.count} classes, "
                f"minimum {report.minimum}"
            )

        _run(checks, "pencil-identity", check_identity)

    if exp.pencil_query_minimum is not None:

        def check_pencil_query() -> str:
            report = fibre_intersection_identity(
                fib, fib.named("P"), exp.pencil_shift, ClassQuery(0, -2, 3)
            )
            _require(report.holds, "pairing identity failed")
            _require(
                report.minimum == exp.pencil_query_minimum,
                f"minimum {report.minimum}",
            )
            _require(fib.named("P") in report.witnesses, "pencil class does not attain the minimum")
            return (
                f"minimum {report.minimum} over {report.count} pencil classes, "
                f"attained at {fib.named('P')}"
            )

        _run(checks, "pencil-query", check_pencil_query)

    for name, query, constraints in exp.reconstructed:

        def check_unique(name: str = name, query=query, constraints=constraints) -> str:
            stored = fib.named(name)

            def target(other: str) -> DivisorClass:
                return f if other == "F" else fib.named(other)

            # the first constraint selects whole block orbits, and only
            # their classes are built; the rest filter those classes one
            # constraint at a time
            (first, want), *rest = constraints
            hits = list(_classes_meeting(surface, target(first), want, ClassQuery(*query, 3)))
            for other, want in rest:
                hits = [c for c, v in zip(hits, pairings(target(other), hits)) if v == want]
            _require(hits == [stored], f"constraint solutions {hits}")
            return f"{name} is the unique solution of its {len(constraints)} printed constraints"

        _run(checks, f"reconstructed-{name}", check_unique)

    if exp.cremona_fixes_fibre is not None:

        def check_cremona() -> str:
            i, j, k = exp.cremona_fixes_fibre
            (image,) = cremona(surface, i, j, k, (f,))
            _require(image == f, f"fibre moved to {image}")
            (back,) = cremona(surface, i, j, k, (image,))
            _require(back == f, "double application is not the identity")
            return f"fibre class fixed by the quadratic transform at ({i},{j},{k})"

        _run(checks, "cremona", check_cremona)

    return VerifyReport(entry.tag, tuple(checks))

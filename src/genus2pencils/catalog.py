"""Built-in models: four canonical plane pencils (A, B1, B2, C) and one
extremal configuration with trivial Mordell-Weil group over each
(Ex4_3 .. Ex4_6).

Each model is a packaged model file, ``models/<tag>.model``, that get()
reads through ``parse`` and ``to_fibration`` like any user file.  This
module keeps only what the catalog claims about each model: its title,
its complete expected record and a note.  An extremal entry's record is
its base pencil's with its own fields replaced.  The orthogonal blocks
of an entry are not claimed but derived from its model: F and the
section O, then the components of each declared fibre that O does not
meet.  verify() recomputes every claim from the lattice data and
compares.
"""

from __future__ import annotations

import os

from ._record import Record
from .curves import ClassQuery, fibre_intersection_identity, minus_one_section_exists
from .fibres import (
    _gram, ade_classify, orthogonal_decomposition_check, shioda_rank, validate_fibre,
)
from .intmat import bareiss_determinant, rational_rank
from .lattice import (
    DivisorClass, Fibration, LatticeError, adjoint_square, cremona, pairings, picard_number,
)
from .modelfile import parse, to_fibration
from .numerics import NumericType
from .sharp import PlaneModel, canonical_p2_model, sharp_minimal_pipeline

__all__ = [
    "CatalogEntry", "ExpectedData", "CheckResult", "VerifyReport",
    "tags", "normalize_tag", "get", "verify",
]


class ExpectedData(Record):
    adjoint_square: int
    picard_rank: int
    numeric: NumericType
    plane: PlaneModel
    section_witness: str | None
    empirical_minimum: int
    pencil_shift: int | None
    reduction_order: tuple[str, ...]
    greedy_order: tuple[str, ...]
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


class CatalogEntry(Record):
    tag: str
    title: str
    fibration: Fibration
    effective: tuple[str, ...]
    blocks: tuple[tuple[str, ...], ...]
    expected: ExpectedData
    annotation: str = ""


class CheckResult(Record):
    """One check's outcome.  A failed claim has passed False; a check that
    raised anything but AssertionError or LatticeError is a fault in the
    library and also carries ``error``, the exception type and the
    file:line it was raised at.  So an argument of the wrong type (a
    TypeError) and a broken library invariant (sharp.InvariantError, a
    RuntimeError) are faults.  Running out of the enumeration budget
    (BudgetExceededError) is a failed claim: the claim was not
    established within the budget."""

    name: str
    passed: bool
    detail: str = ""
    error: str | None = None


class VerifyReport(Record):
    tag: str
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


class _Claims(Record):
    """What the catalog claims about one model: its title, the record
    verify() recomputes and a printed note.  The orthogonal blocks are
    derived from the model's fibres and its section O, not claimed."""

    title: str
    expected: ExpectedData
    annotation: str = ""


def _zeros(*names: str) -> tuple[tuple[str, int], ...]:
    return tuple((name, 0) for name in names)


# the canonical pencils' records; each extremal entry replaces only its
# own fields of its base pencil's record
_A = ExpectedData(
    adjoint_square=1, picard_rank=13, numeric=NumericType(2, 0, (2,) * 7, 1),
    plane=PlaneModel(6, (2,) * 8), section_witness="E9", empirical_minimum=1,
    pencil_shift=None, reduction_order=("E12", "E11", "E10", "E9"),
    greedy_order=("E8", "E7", "E6", "E5", "E4", "E3", "E2"), reduced_anticanonical_multiple=2,
)
_B1 = ExpectedData(
    adjoint_square=2, picard_rank=12, numeric=NumericType(2, 2, (2,) * 10, 2),
    plane=PlaneModel(7, (3,) + (2,) * 10), section_witness=None, empirical_minimum=2,
    pencil_shift=2, reduction_order=(), greedy_order=tuple(f"E{i}" for i in range(11, 1, -1)),
)
_B2 = ExpectedData(
    adjoint_square=2, picard_rank=12, numeric=NumericType(4, 0, (3,) * 7 + (2, 2), 2),
    plane=PlaneModel(9, (3,) * 8 + (2, 2)), section_witness="E11", empirical_minimum=1,
    pencil_shift=None, reduction_order=("E11",),
    greedy_order=("E10", "E9", "E8", "E7", "E6", "E5", "E4", "E3", "E2"), mid_anticanonical=(2, 3),
)
_C = ExpectedData(
    adjoint_square=3, picard_rank=11, numeric=NumericType(6, 2, (4,) * 9, 3),
    plane=PlaneModel(13, (5,) + (4,) * 9), section_witness=None, empirical_minimum=4,
    pencil_shift=4, reduction_order=(), greedy_order=tuple(f"E{i}" for i in range(10, 1, -1)),
    cremona_fixes_fibre=(1, 2, 3), pencil_query_minimum=8,
)

# every tag in catalog order, with its claims
_CLAIMS = {
    "A": _Claims("plane sextic pencil, adjoint square 1", _A),
    "B1": _Claims("plane septic pencil, adjoint square 2, no section", _B1),
    "B2": _Claims("plane nonic pencil, adjoint square 2, with section", _B2),
    "C": _Claims("plane degree-13 pencil, adjoint square 3, no section", _C),
    "Ex4_3": _Claims(
        "extremal configuration over the sextic pencil",
        _A._replace(
            component_counts=(4, 9),
            ade_labels=(("F0", ("A3",)), ("Finf", ("E8",))),
            block_sizes=(2, 3, 8),
            mordell_weil_rank=0,
            section_meets=("TH0", "TH11"),
            fibre_degrees=(("E8", 2),),
            reconstructed=(("E8", (-1, -1), (("F", 2), ("TH12", 1), ("TH7", 1)) + _zeros(
                "O", "TH0", "TH1", "TH2", "TH3", "TH4", "TH5", "TH6", "TH8", "TH9", "TH10", "TH11")),),
        ),
        "one branch germ of the fifth class sits over the four-component fibre "
        "(epsilon 1); placements are recorded, not checked",
    ),
    "Ex4_4": _Claims(
        "extremal configuration over the septic pencil",
        _B1._replace(
            component_counts=(6, 6),
            ade_labels=(("F0", ("D5",)), ("Finf", ("D5",))),
            block_sizes=(2, 5, 5),
            mordell_weil_rank=0,
            section_meets=("TH0", "TH2"),
            fibre_degrees=(("E6", 2), ("E11", 2)),
        ),
    ),
    "Ex4_5": _Claims(
        "extremal configuration over the nonic pencil",
        _B2._replace(
            component_counts=(11,),
            ade_labels=(("F0", ("E8", "A1")),),
            block_sizes=(2, 10),
            mordell_weil_rank=0,
            section_meets=("TH10",),
            fibre_degrees=(("E10", 2), ("EH8", 2)),
            reconstructed=(("EH8", (-2, 0), (("F", 2), ("O", 1), ("TH7", 1)) + _zeros(
                "TH0", "TH1", "TH2", "TH3", "TH4", "TH5", "TH6", "TH8", "TH9", "E10")),),
        ),
    ),
    "Ex4_6": _Claims(
        "extremal configuration over the degree-13 pencil",
        _C._replace(
            component_counts=(4, 4, 4),
            ade_labels=(("F0", ("A3",)), ("F1", ("A3",)), ("Finf", ("A3",))),
            block_sizes=(2, 3, 3, 3),
            mordell_weil_rank=0,
            section_meets=("TH2", "TH3", "TH4"),
            fibre_degrees=(("E1", 5), ("E8", 4), ("E9", 4), ("E10", 4)),
        ),
    ),
}

# the packaged model files, <tag>.model each
_MODELS = os.path.join(os.path.dirname(__file__), "models")

_CACHE: dict[str, CatalogEntry] = {}


def tags() -> tuple[str, ...]:
    return tuple(_CLAIMS)


def normalize_tag(tag: str) -> str:
    """The tag a spelling names: case, '.' or '-' for '_' and a missing
    "Ex" prefix are forgiven; anything but a string names no tag."""
    if not isinstance(tag, str):
        raise KeyError(f"unknown example tag {tag!r}")
    cleaned = tag.strip().replace(".", "_").replace("-", "_").upper()
    for key in _CLAIMS:
        if cleaned in (key.upper(), key.upper().removeprefix("EX")):
            return key
    raise KeyError(f"unknown example tag {tag!r}")


def get(tag: str) -> CatalogEntry:
    """The entry of a tag: its packaged model file, read through parse and
    to_fibration like any user file, and the catalog's claims about it.

    The blocks are the trivial lattice read off the model: F and O, then
    for each fibre, in file order, its components that O does not meet;
    a model without fibres has none."""
    key = normalize_tag(tag)
    if key not in _CACHE:
        with open(os.path.join(_MODELS, f"{key}.model"), encoding="utf-8") as handle:
            model = parse(handle.read())
        fib = to_fibration(model)
        blocks: tuple[tuple[str, ...], ...] = ()
        if fib.fibres:
            o = fib.named("O")
            blocks = (("F", "O"),) + tuple(
                tuple(c.name for c in dec.components if o * c.divisor == 0)
                for dec in fib.fibres
            )
        claims = _CLAIMS[key]
        _CACHE[key] = CatalogEntry(
            key, claims.title, fib, model.effective, blocks,
            claims.expected, claims.annotation,
        )
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
        # anything else is a fault in the library
        fault = not isinstance(exc, (AssertionError, LatticeError))
        checks.append(CheckResult(name, False, str(exc), _where(exc) if fault else None))
        return
    checks.append(CheckResult(name, True, detail or ""))


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise AssertionError(message)


def _complement_certificate(classes: tuple[DivisorClass, ...], rank: int) -> str:
    """Certify that the classes after F and O, the first two of
    ``classes``, are a basis of the orthogonal complement M of <F, O> in
    the rank-``rank`` lattice L; return the check's detail.

    The certificate reads one Gram matrix, the one the blocks check
    builds for the same classes, and checks four things: there are
    rank - 2 rest classes, each pairs 0 with F and with O, and both
    |det Gram(F, O)| and |det Gram(rest)| are 1.  Proof that they suffice:

    1. L is unimodular, as every Surface lattice is by construction.
       Gram(F, O) is invertible over the integers, so every x in L is
       y + z with y in <F, O> and z orthogonal to both: L = <F, O> + M,
       a direct orthogonal sum, and det L = det Gram(F, O) * det M makes
       M unimodular, of rank rank - 2.
    2. The rest classes lie in M, and their Gram determinant is nonzero,
       so the rank - 2 of them are independent and span a full-rank
       sublattice N of M with det N = [M : N]^2 det M.  Then |det N| = 1
       forces [M : N] = 1, that is N = M.

    A Gram determinant does not depend on the basis, so the printed
    discriminant is det M.  Any failing premise fails the check.
    """
    gram = _gram(classes)
    rest = gram[2:]
    disc = bareiss_determinant([row[2:] for row in rest])
    _require(
        len(rest) == rank - 2
        and all(row[0] == row[1] == 0 for row in rest)
        and abs(bareiss_determinant([row[:2] for row in gram[:2]])) == 1
        and abs(disc) == 1,
        "block span is not the full orthogonal complement",
    )
    return f"complement rank {len(rest)}, discriminant {disc}"


def verify(tag: str) -> VerifyReport:
    """Recompute every claim an entry makes and compare, check by check."""
    entry = get(tag)
    fib = entry.fibration
    exp = entry.expected
    surface = fib.surface
    f = fib.fibre_class
    checks: list[CheckResult] = []
    # every name resolved once; a missing one raises KeyError(name) inside
    # the check that asks for it, as Fibration.named does
    by_name: dict[str, DivisorClass] = {}
    for n, c in fib.named_classes:
        by_name.setdefault(n, c)
    named = by_name.__getitem__

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
            o = named("O")
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
            rank = shioda_rank(surface.rank, [len(dec.components) for dec in fib.fibres])
            _require(rank == exp.mordell_weil_rank, f"shioda rank {rank}")
            return f"Mordell-Weil rank {rank}"

        _run(checks, "shioda", check_shioda)

    if entry.blocks:

        def check_blocks() -> str:
            classes = [[named(n) for n in block] for block in entry.blocks]
            report = orthogonal_decomposition_check(fib, classes)
            _require(report.passed, "; ".join(report.messages))
            _require(report.block_sizes == exp.block_sizes, f"block sizes {report.block_sizes}")
            return f"{report.certificate} (determinant {report.determinant})"

        _run(checks, "blocks", check_blocks)

        def check_complement() -> str:
            # F, O and the rest, as the blocks check lists them
            classes = tuple(named(n) for block in entry.blocks for n in block)
            return _complement_certificate(classes, surface.rank)

        _run(checks, "complement", check_complement)

    if exp.fibre_degrees:

        def check_degrees() -> str:
            for name, want in exp.fibre_degrees:
                got = f * named(name)
                _require(got == want, f"F pairs {got} with {name}, expected {want}")
            return ", ".join(f"F*{n}={v}" for n, v in exp.fibre_degrees)

        _run(checks, "fibre-degrees", check_degrees)

    def check_pipeline() -> str:
        curves = [named(n) for n in entry.effective]
        result = sharp_minimal_pipeline(fib, curves)
        red_order = tuple(str(s.contracted) for s in result.reduced.trace.steps)
        _require(red_order == exp.reduction_order, f"reduction order {red_order}")
        greedy_order = tuple(str(s.contracted) for s in result.model.trace.steps)
        _require(greedy_order == exp.greedy_order, f"greedy order {greedy_order}")
        mults = result.model.trace.multiplicities
        _require(mults == exp.numeric.multiplicities[::-1], f"greedy multiplicities {mults}")
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
        pencil = named("P") if exp.pencil_shift is not None else None
        search = minus_one_section_exists(fib, 3, pencil, exp.pencil_shift)
        _require(
            search.exists == (exp.section_witness is not None), f"section existence {search.exists}"
        )
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
                fib, named("P"), exp.pencil_shift, ClassQuery(-1, -1, 3)
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
                fib, named("P"), exp.pencil_shift, ClassQuery(0, -2, 3)
            )
            _require(report.holds, "pairing identity failed")
            _require(
                report.minimum == exp.pencil_query_minimum,
                f"minimum {report.minimum}",
            )
            _require(named("P") in report.witnesses, "pencil class does not attain the minimum")
            return (
                f"minimum {report.minimum} over {report.count} pencil classes, "
                f"attained at {named('P')}"
            )

        _run(checks, "pencil-query", check_pencil_query)

    for name, query, constraints in exp.reconstructed:

        def check_unique(name: str = name, query=query, constraints=constraints) -> str:
            stored = named(name)
            # the printed numerics, at a reference degree in [0, 3]
            got = stored * stored, surface.canonical() * stored
            degree = sum(stored.coords[: surface.base_rank])
            _require(
                got == query and 0 <= degree <= 3,
                f"{name} has C*C, K*C = {got} at degree {degree}, expected {query} at 0..3",
            )
            targets = [f if other == "F" else named(other) for other, _ in constraints]
            for (other, want), value in zip(constraints, pairings(stored, targets)):
                _require(value == want, f"{name} pairs {value} with {other}, expected {want}")
            # the form is nondegenerate, so constraint classes of full rank
            # fix every pairing of a solution, hence the solution itself:
            # no other class of the lattice, of any degree, meets them so
            rank = rational_rank([t.coords for t in targets])
            _require(rank == surface.rank, f"constraint rank {rank}, expected {surface.rank}")
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

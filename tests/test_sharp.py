"""Reduction and greedy-contraction pipeline tests.

The four pencils here are built directly from their plane data rather
than through the catalog, so the pipeline is exercised independently of
the curated entries.  Expected traces (contraction orders, recorded
multiplicities, endpoint types) were computed by hand from the blow-down
pushforward rule and then frozen.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from genus2pencils import catalog, lattice, sharp
from genus2pencils.lattice import (
    DivisorClass,
    Fibration,
    ForeignClassError,
    LatticeError,
    cremona,
    hirzebruch_blowup,
    plane_blowup,
    plane_curve,
    ruled_curve,
)
from genus2pencils.numerics import NumericType
from genus2pencils.sharp import (
    ContractionTrace,
    ElementaryTransformRepair,
    IncompleteGeometryError,
    InvariantError,
    PlaneModel,
    ReducedPencil,
    ReductionError,
    SharpModelData,
    canonical_p2_model,
    classify_type,
    greedy_sharp_minimal,
    reduction,
    sharp_minimal_pipeline,
)
from oracles import reference_greedy, reference_pipeline


def exceptional_indices(trace: ContractionTrace) -> list[int]:
    """1-based basis index of each contracted class, on its own surface."""
    out = []
    surface = trace.start
    for step in trace.steps:
        coords = step.contracted.coords
        assert coords.count(1) == 1 and coords.count(0) == len(coords) - 1
        out.append(coords.index(1) - surface.base_rank + 1)
        surface = step.surface_after
    return out


def basis_effective(surface):
    return tuple(surface.exceptional(i) for i in range(1, surface.blowups + 1))


# the four plane pencils, as (surface, fibre class) pairs


def sextic_pencil():
    s = plane_blowup(12)
    return s, plane_curve(s, 6, (2,) * 8 + (1,) * 4)


def septic_pencil():
    s = plane_blowup(11)
    return s, plane_curve(s, 7, (3,) + (2,) * 10)


def nonic_pencil():
    s = plane_blowup(11)
    return s, plane_curve(s, 9, (3,) * 8 + (2, 2, 1))


def degree13_pencil():
    s = plane_blowup(10)
    return s, plane_curve(s, 13, (5,) + (4,) * 9)


def test_sextic_reduction_trace():
    s, f = sextic_pencil()
    red = reduction(Fibration(s, f), basis_effective(s))
    assert exceptional_indices(red.trace) == [12, 11, 10, 9]
    assert red.trace.multiplicities == (1, 1, 1, 1)
    assert red.surface == plane_blowup(8)
    assert red.pencil == plane_curve(red.surface, 6, (2,) * 8)
    assert len(red.curves) == 8


def test_sextic_reduced_pencil_is_twice_anticanonical():
    s, f = sextic_pencil()
    red = reduction(Fibration(s, f), basis_effective(s))
    k = red.surface.canonical()
    assert red.pencil == DivisorClass(red.surface, tuple(-2 * x for x in k.coords))


def test_sextic_greedy_endpoint():
    s, f = sextic_pencil()
    result = sharp_minimal_pipeline(Fibration(s, f), basis_effective(s))
    model = result.model
    assert exceptional_indices(model.trace) == [8, 7, 6, 5, 4, 3, 2]
    assert model.violations == ()
    assert model.repair is None
    assert model.hirzebruch_index == 1
    assert model.adjoint_degree == 2
    assert model.fibre_coefficient == 6
    assert model.multiplicities == (2,) * 7
    assert model.pencil_degree == 4
    assert model.twice_offset == 0
    assert model.extra_multiplicity == 2
    assert model.numeric_type() == NumericType(2, 0, (2,) * 7, 1)
    assert model.type_tag == "general"
    assert canonical_p2_model(model) == PlaneModel(6, (2,) * 8)


def test_septic_pipeline():
    s, f = septic_pencil()
    result = sharp_minimal_pipeline(Fibration(s, f), basis_effective(s))
    assert result.reduced.trace.steps == ()
    model = result.model
    assert exceptional_indices(model.trace) == list(range(11, 1, -1))
    assert model.multiplicities == (2,) * 10
    assert model.violations == ()
    assert model.numeric_type() == NumericType(2, 2, (2,) * 10, 2)
    assert model.twice_offset == 2
    # the uncontracted triple point becomes the extra plane singularity
    assert canonical_p2_model(model) == PlaneModel(7, (3,) + (2,) * 10)


def test_nonic_pipeline_and_mid_anticanonical():
    s, f = nonic_pencil()
    result = sharp_minimal_pipeline(Fibration(s, f), basis_effective(s))
    assert exceptional_indices(result.reduced.trace) == [11]
    model = result.model
    assert exceptional_indices(model.trace) == [10, 9, 8, 7, 6, 5, 4, 3, 2]
    assert model.trace.multiplicities == (2, 2, 3, 3, 3, 3, 3, 3, 3)
    # two double-point contractions in, the pencil is anticanonical thrice over
    mid = model.trace.steps[1]
    k = mid.surface_after.canonical()
    assert mid.pencil_after == DivisorClass(
        mid.surface_after, tuple(-3 * x for x in k.coords)
    )
    assert model.numeric_type() == NumericType(4, 0, (3,) * 7 + (2, 2), 2)
    assert canonical_p2_model(model) == PlaneModel(9, (3,) * 8 + (2, 2))


def test_degree13_pipeline():
    s, f = degree13_pencil()
    result = sharp_minimal_pipeline(Fibration(s, f), basis_effective(s))
    assert result.reduced.trace.steps == ()
    model = result.model
    assert exceptional_indices(model.trace) == list(range(10, 1, -1))
    assert model.multiplicities == (4,) * 9
    assert model.violations == ()
    assert model.numeric_type() == NumericType(6, 2, (4,) * 9, 3)
    assert model.fibre_coefficient == 13
    assert canonical_p2_model(model) == PlaneModel(13, (5,) + (4,) * 9)


def test_ruled_endpoint_index_two():
    # the degree-13 type again, realized over the index-2 ruled model
    s = hirzebruch_blowup(2, 9)
    g = ruled_curve(s, 8, 17, (4,) * 9)
    result = sharp_minimal_pipeline(Fibration(s, g), basis_effective(s))
    assert result.reduced.trace.steps == ()
    model = result.model
    assert exceptional_indices(model.trace) == list(range(9, 0, -1))
    assert model.hirzebruch_index == 2
    assert model.adjoint_degree == 6
    assert model.fibre_coefficient == 17
    assert model.twice_offset == 2
    assert model.extra_multiplicity is None
    assert model.violations == ()
    assert model.numeric_type() == NumericType(6, 2, (4,) * 9, 3)
    assert model.type_tag == "general"
    with pytest.raises(ReductionError, match="not a plane-adjacent model"):
        canonical_p2_model(model)


def test_ruled_endpoint_index_zero_normalizes_rulings():
    # both coordinate orders on the index-0 model give the same endpoint
    s = hirzebruch_blowup(0, 9)
    for section_coeff, fibre_coeff in ((8, 9), (9, 8)):
        g = ruled_curve(s, section_coeff, fibre_coeff, (4,) * 9)
        model = sharp_minimal_pipeline(Fibration(s, g), basis_effective(s)).model
        assert model.hirzebruch_index == 0
        assert model.adjoint_degree == 6
        assert model.fibre_coefficient == 9
        assert model.pencil.coords == (8, 9)
        assert model.numeric_type() == NumericType(6, 2, (4,) * 9, 3)


def test_violating_endpoint_reports_repair():
    s = hirzebruch_blowup(1, 12)
    g = ruled_curve(s, 4, 6, (3,) + (2,) * 4 + (1,) * 7)
    fib = Fibration(s, g)
    assert g * g == 0 and s.canonical() * g == 2
    result = sharp_minimal_pipeline(fib, basis_effective(s))
    assert exceptional_indices(result.reduced.trace) == [12, 11, 10, 9, 8, 7, 6]
    model = result.model
    assert exceptional_indices(model.trace) == [5, 4, 3, 2, 1]
    assert model.trace.multiplicities == (2, 2, 2, 2, 3)
    assert model.hirzebruch_index == 1
    assert model.adjoint_degree == 2
    assert model.fibre_coefficient == 6
    assert model.multiplicities == (3, 2, 2, 2, 2)
    assert len(model.violations) == 1
    assert "largest multiplicity 3 exceeds the minimality ceiling" in model.violations[0]
    assert model.repair == ElementaryTransformRepair((0, 3), (2, 7))
    with pytest.raises(ReductionError, match="violates the minimality conditions"):
        model.numeric_type()


def test_no_repair_beyond_the_section_coefficient():
    # multiplicity 4 on a curve with section coefficient 2: no elementary
    # transform takes the point, so the violation stands without a repair
    s = hirzebruch_blowup(1, 1)
    g = ruled_curve(s, 2, 5, (4,))
    model = sharp_minimal_pipeline(Fibration(s, g, genus=-3), [s.exceptional(1)]).model
    assert model.multiplicities == (4,)
    assert model.violations == (
        "largest multiplicity 4 exceeds the minimality ceiling on the index-1 model",
    )
    assert model.repair is None


def test_low_section_pairing_is_a_violation():
    # rank-2 input whose pencil meets the minimal section negatively
    s = hirzebruch_blowup(2, 0)
    g = ruled_curve(s, 4, 6)
    red = ReducedPencil(s, g, (), ContractionTrace(s, s, ()))
    model = greedy_sharp_minimal(red)
    assert model.multiplicities == ()
    assert len(model.violations) == 1
    assert "pairs negatively with the minimal section" in model.violations[0]
    assert "fibre coefficient 6 below 8" in model.violations[0]
    assert model.repair is None
    with pytest.raises(ReductionError, match="violates the minimality conditions"):
        model.numeric_type()


def test_greedy_rejects_unreduced_input():
    s, f = sextic_pencil()
    fake = ReducedPencil(s, f, (s.exceptional(9),), ContractionTrace(s, s, ()))
    with pytest.raises(ReductionError, match="not a reduction: E9 still meets the pencil once"):
        greedy_sharp_minimal(fake)


def test_greedy_requires_enough_curves():
    s, f = sextic_pencil()
    effective = tuple(s.exceptional(i) for i in (9, 10, 11, 12))
    red = reduction(Fibration(s, f), effective)
    assert red.curves == ()
    with pytest.raises(
        IncompleteGeometryError, match=r"incomplete geometry: no \(-1\)-curve supplied at rank 9"
    ):
        greedy_sharp_minimal(red)


def test_greedy_rejects_a_reduction_that_ends_on_the_plane():
    # L - E1 meets E1 once, so the reduction contracts E1 and lands on P^2
    # itself, where no ruled model is left to read the type from
    s = plane_blowup(1)
    fib = Fibration(s, plane_curve(s, 1, (1,)), genus=0)
    assert reduction(fib, [s.exceptional(1)]).surface.rank == 1
    for pipeline in (sharp_minimal_pipeline, reference_pipeline):
        with pytest.raises(ReductionError, match="the reduction ended on P\\^2 itself"):
            pipeline(fib, [s.exceptional(1)])


def test_reduction_screens_the_curve_list():
    s, f = sextic_pencil()
    fib = Fibration(s, f)
    other = plane_blowup(11)
    with pytest.raises(ReductionError, match="foreign class"):
        reduction(fib, (other.exceptional(1),))
    with pytest.raises(ReductionError, match="self-intersection 1, not a contractible"):
        reduction(fib, (s.line,))
    with pytest.raises(ReductionError, match="arithmetic genus -3"):
        reduction(fib, (plane_curve(s, 5, (3, 3, 3)),))


@pytest.mark.parametrize("run", [reduction, sharp_minimal_pipeline])
def test_reduction_names_an_argument_that_is_not_a_class(run):
    s, f = sextic_pencil()
    with pytest.raises(TypeError) as info:
        run(Fibration(s, f), [5])
    assert str(info.value) == "an effective curve must be a DivisorClass, not 5"
    with pytest.raises(TypeError) as info:
        run(5, [])
    assert str(info.value) == "fib must be a Fibration, not 5"


@pytest.mark.parametrize("run", [reduction, sharp_minimal_pipeline])
def test_reduction_names_a_lone_class_passed_as_the_curve_list(run):
    # a class is a tuple of its surface and coordinates: iterated, it would
    # report its surface as the first curve
    s, f = sextic_pencil()
    with pytest.raises(TypeError) as info:
        run(Fibration(s, f), s.exceptional(12))
    assert str(info.value) == "effective must be a collection, not <E12>"


def test_greedy_names_a_lone_class_passed_as_the_curves():
    s, f = sextic_pencil()
    red = reduction(Fibration(s, f), basis_effective(s))
    with pytest.raises(TypeError) as info:
        greedy_sharp_minimal(red._replace(curves=red.curves[0]))
    assert str(info.value) == f"the curves of reduced must be a tuple, not {red.curves[0]!r}"


def test_greedy_names_an_argument_that_is_not_a_reduced_pencil():
    with pytest.raises(TypeError) as info:
        greedy_sharp_minimal(5)
    assert str(info.value) == "reduced must be a ReducedPencil, not 5"


@pytest.mark.parametrize(
    "field, bad, message",
    [
        ("curves", (5,), "a curve of reduced must be a DivisorClass, not 5"),
        ("pencil", None, "the pencil of reduced must be a DivisorClass, not None"),
    ],
    ids=["curve", "pencil"],
)
def test_greedy_names_a_curve_or_pencil_that_is_not_a_class(field, bad, message):
    s, f = sextic_pencil()
    red = reduction(Fibration(s, f), basis_effective(s))
    with pytest.raises(TypeError) as info:
        greedy_sharp_minimal(red._replace(**{field: bad}))
    assert str(info.value) == message


@pytest.mark.parametrize("field", ReducedPencil._fields)
@pytest.mark.parametrize("bad", [None, 5, 2.0, "x"], ids=["None", "int", "float", "str"])
def test_greedy_names_every_field_of_the_reduced_pencil_that_is_wrong(field, bad):
    # a wrong-typed field is a TypeError naming it, never a failed claim
    # (a LatticeError) nor an AttributeError; the trace is not read
    s, f = sextic_pencil()
    red = reduction(Fibration(s, f), basis_effective(s))
    try:
        greedy_sharp_minimal(red._replace(**{field: bad}))
    except TypeError as exc:
        assert f"the {field} of reduced must be a" in str(exc), exc
    else:
        assert field == "trace"


def test_reduction_validates_the_fibration():
    s = plane_blowup(12)
    not_a_fibre = plane_curve(s, 6, (2,) * 8)
    with pytest.raises(Exception, match="self-intersection 4, expected 0"):
        reduction(Fibration(s, not_a_fibre), ())


def test_reduction_checks_the_adjoint_square(monkeypatch):
    real = sharp._contract

    def doubling(surface, pencil, curves, e):
        smaller, pushed, rest = real(surface, pencil, curves, e)
        return smaller, 2 * pushed, rest

    monkeypatch.setattr(sharp, "_contract", doubling)
    s, f = sextic_pencil()
    # raised, not asserted, so the check survives python -O
    with pytest.raises(InvariantError, match="adjoint square went from 1 to 6"):
        reduction(Fibration(s, f), basis_effective(s))


def test_reduction_checks_the_canonical_square(monkeypatch):
    def forgetting(surface, pencil, curves, e):
        # drops the curve without contracting it; a carried curve is
        # (coordinates, K*C, C*C, pencil*C)
        return surface, pencil, [c for c in curves if c[0] != e]

    monkeypatch.setattr(sharp, "_contract", forgetting)
    s, f = sextic_pencil()
    with pytest.raises(InvariantError, match=r"K\^2 went from -3 to -3 over 4 contractions"):
        reduction(Fibration(s, f), basis_effective(s))


def test_greedy_checks_the_adjoint_square(monkeypatch):
    real = sharp._contract

    def doubling(surface, pencil, curves, e):
        smaller, pushed, rest = real(surface, pencil, curves, e)
        return smaller, 2 * pushed, rest

    monkeypatch.setattr(sharp, "_contract", doubling)
    # the septic pencil has nothing to reduce: the greedy phase alone
    # contracts, and the doubled pencil breaks (K + pencil)^2
    s, f = septic_pencil()
    reduced = ReducedPencil(s, f, basis_effective(s), ContractionTrace(s, s, ()))
    with pytest.raises(InvariantError, match="adjoint square went from 2 to "):
        greedy_sharp_minimal(reduced)


@pytest.mark.parametrize("tag", catalog.tags())
def test_a_contraction_that_changes_nothing_is_a_fault_within_the_start_rank(tag, monkeypatch):
    # each contraction lowers the rank by one, so a step that returns its
    # input ends the run as a fault; the fake raises past start.rank + 1
    # calls, so a loop that never stops fails here instead of hanging
    entry = catalog.get(tag)
    fib = entry.fibration
    start = fib.surface
    calls = []

    def unchanged(surface, pencil, curves, e):
        calls.append(e)
        if len(calls) > start.rank + 1:
            raise AssertionError(f"{len(calls)} contractions from rank {start.rank}")
        return surface, pencil, curves

    monkeypatch.setattr(sharp, "_contract", unchanged)
    broken = (
        rf"adjoint square went from|K\^2 went from (-?\d+) to \1 over {start.rank} contractions"
    )
    with pytest.raises(InvariantError, match=broken):
        sharp_minimal_pipeline(fib, [fib.named(n) for n in entry.effective])
    assert len(calls) == start.rank


def _check_carried_rows(surface, pencil, curves):
    """Every carried (K*C, C*C, pencil*C) against its row's coordinates."""
    k = surface.canonical()
    for row, k_degree, square, pencil_degree in curves:
        c = DivisorClass(surface, row)
        assert (k_degree, square, pencil_degree) == (k * c, c * c, pencil * c), row


def _checking_contract(steps):
    """A _contract that checks the carried numbers of every row it is
    given and of every row it returns, counting its steps."""
    real = sharp._contract

    def checked(surface, pencil, curves, e):
        _check_carried_rows(surface, pencil, curves)
        smaller, pushed, rest = real(surface, pencil, curves, e)
        _check_carried_rows(smaller, pushed, rest)
        steps.append(DivisorClass(surface, e))
        return smaller, pushed, rest

    return checked


@pytest.mark.parametrize("tag", catalog.tags())
def test_carried_numbers_match_the_coordinates_at_every_catalog_step(tag, monkeypatch):
    entry = catalog.get(tag)
    fib = entry.fibration
    plain = sharp_minimal_pipeline(fib, [fib.named(n) for n in entry.effective])
    steps = []
    monkeypatch.setattr(sharp, "_contract", _checking_contract(steps))
    result = sharp_minimal_pipeline(fib, [fib.named(n) for n in entry.effective])
    assert result == plain
    assert len(steps) == len(result.reduced.trace.steps) + len(result.model.trace.steps) > 0


def test_carried_numbers_match_the_coordinates_on_random_draws(monkeypatch):
    # the draws of the reference comparison, quadratic transforms included
    steps = []
    monkeypatch.setattr(sharp, "_contract", _checking_contract(steps))
    rng = random.Random(20101018)
    for _ in range(300):
        fib, effective = random_pipeline_input(rng)
        try:
            sharp_minimal_pipeline(fib, effective)
        except LatticeError:
            pass  # the steps before a rejection were checked all the same
    assert len(steps) >= 1000
    assert sum(not _is_basis_exceptional(e) for e in steps) >= 100


def test_a_pipeline_pairs_each_curve_once(monkeypatch):
    # the counts of the second Ex4_6 run, once every surface it reaches
    # holds its canonical dual vector: 3 for validating the fibration, 17
    # for the carried curves, paired once, 2 for each of the 9 chosen
    # curves, 3 for the squares at each of the 3 points they are read, and
    # one dual vector, the pencil's; rescanning the rows after every step
    # read 86 and 12
    entry = catalog.get("Ex4_6")
    fib = entry.fibration
    effective = [fib.named(n) for n in entry.effective]
    sharp_minimal_pipeline(fib, effective)
    counts = {"intersect": 0, "dual": 0}
    real_intersect, real_dual = lattice.Surface.intersect, lattice.Surface.dual

    def intersect(surface, x, y):
        counts["intersect"] += 1
        return real_intersect(surface, x, y)

    def dual(surface, x):
        counts["dual"] += 1
        return real_dual(surface, x)

    monkeypatch.setattr(lattice.Surface, "intersect", intersect)
    monkeypatch.setattr(lattice.Surface, "dual", dual)
    result = sharp_minimal_pipeline(fib, effective)
    assert len(effective) == 17 and len(result.model.trace.steps) == 9
    assert counts == {"intersect": 47, "dual": 1}


def test_classify_type_special_branch():
    # synthetic index-1 endpoint below the degree floor: 2*7 - 5 < 2*5
    s = hirzebruch_blowup(1, 0)
    pencil = ruled_curve(s, 5, 7)
    model = SharpModelData(1, 3, 7, (2, 2), s, pencil, ContractionTrace(s, s, ()))
    assert classify_type(model) == "special"
    assert model.extra_multiplicity == 2
    assert canonical_p2_model(model) == PlaneModel(7, (2, 2, 2))


def test_plane_model_drops_trivial_extra_point():
    # fibre coefficient one above the pencil degree leaves no extra singularity
    s = hirzebruch_blowup(1, 0)
    pencil = ruled_curve(s, 4, 5)
    model = SharpModelData(1, 2, 5, (2, 2), s, pencil, ContractionTrace(s, s, ()))
    assert model.extra_multiplicity == 1
    assert canonical_p2_model(model) == PlaneModel(5, (2, 2))


def step_record(trace: ContractionTrace) -> list[tuple[str, int, int, str]]:
    """(contracted, pencil degree, blow-ups after, pencil after) per step."""
    return [
        (str(s.contracted), s.pencil_degree, s.surface_after.blowups, str(s.pencil_after))
        for s in trace.steps
    ]


def test_repeated_curves_keep_the_contraction_order():
    # every exceptional class listed twice or three times: the candidate
    # key (pencil degree, coordinates) picks the same curve at each step
    s, f = sextic_pencil()
    effective = basis_effective(s)
    result = sharp_minimal_pipeline(
        Fibration(s, f), effective + effective[::-1] + (s.exceptional(12), s.exceptional(3))
    )
    assert step_record(result.reduced.trace) == [
        ("E12", 1, 11, "6L-2E1-2E2-2E3-2E4-2E5-2E6-2E7-2E8-E9-E10-E11"),
        ("E11", 1, 10, "6L-2E1-2E2-2E3-2E4-2E5-2E6-2E7-2E8-E9-E10"),
        ("E10", 1, 9, "6L-2E1-2E2-2E3-2E4-2E5-2E6-2E7-2E8-E9"),
        ("E9", 1, 8, "6L-2E1-2E2-2E3-2E4-2E5-2E6-2E7-2E8"),
    ]
    assert [str(c) for c in result.reduced.curves] == [
        "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8",
        "E8", "E7", "E6", "E5", "E4", "E3", "E2", "E1", "E3",
    ]
    assert step_record(result.model.trace) == [
        ("E8", 2, 7, "6L-2E1-2E2-2E3-2E4-2E5-2E6-2E7"),
        ("E7", 2, 6, "6L-2E1-2E2-2E3-2E4-2E5-2E6"),
        ("E6", 2, 5, "6L-2E1-2E2-2E3-2E4-2E5"),
        ("E5", 2, 4, "6L-2E1-2E2-2E3-2E4"),
        ("E4", 2, 3, "6L-2E1-2E2-2E3"),
        ("E3", 2, 2, "6L-2E1-2E2"),
        ("E2", 2, 1, "6L-2E1"),
    ]


def test_greedy_ties_go_to_the_smallest_coordinates():
    # exceptional classes and lines through two points all meet the
    # pencil twice; the smallest coordinate vector is contracted, in
    # either list order
    s = plane_blowup(3)
    pencil = plane_curve(s, 6, (2, 2, 2))
    points = [s.exceptional(i) for i in (1, 2, 3)]
    lines = [plane_curve(s, 1, m) for m in ((1, 1, 0), (1, 0, 1), (0, 1, 1))]
    for curves in (points + lines + [points[2]], lines[::-1] + [points[2]] + points[::-1]):
        reduced = ReducedPencil(s, pencil, tuple(curves), ContractionTrace(s, s, ()))
        model = greedy_sharp_minimal(reduced)
        assert step_record(model.trace) == [("E3", 2, 2, "6L-2E1-2E2"), ("E2", 2, 1, "6L-2E1")]
        assert model.violations == ()
        assert model.multiplicities == (2, 2)


def test_greedy_ties_on_the_ruled_kind():
    # E1 and the fibre component G - E1 both meet the pencil twice
    s = hirzebruch_blowup(1, 1)
    pencil = ruled_curve(s, 4, 6, (2,))
    e1 = s.exceptional(1)
    other = s.ruling - e1
    for curves in ((e1, other), (other, e1)):
        reduced = ReducedPencil(s, pencil, curves, ContractionTrace(s, s, ()))
        model = greedy_sharp_minimal(reduced)
        assert step_record(model.trace) == [("E1", 2, 0, "4D0+6G")]


# The pipeline against the class-based reference in tests/oracles.py, on
# random fibrations.  Each draw starts from a fibre class with F.F = 0 and
# K.F = 2g - 2, adds blow-ups off the base locus, and moves everything by a
# random isometry: a permutation of the exceptional classes and, on the
# plane, a few quadratic transforms, which turn basis exceptional classes
# into non-basis (-1)-classes.

# genus -> (degree, multiplicities) on the plane
PLANE_PENCILS = {
    0: ((1, (1,)), (2, (1,) * 4)),
    1: ((3, (1,) * 9),),
    2: ((6, (2,) * 8 + (1,) * 4), (7, (3,) + (2,) * 10)),
}
# genus -> (index, section coefficient, fibre coefficient, multiplicities)
RULED_PENCILS = {
    0: ((0, 0, 1, ()), (1, 0, 1, ()), (2, 0, 1, ()), (0, 1, 0, ())),
    1: ((0, 2, 2, (1,) * 8), (1, 2, 3, (1,) * 8), (2, 2, 4, (1,) * 8)),
    2: ((0, 2, 3, (1,) * 12), (1, 2, 4, (1,) * 12), (2, 2, 5, (1,) * 12)),
}


def _permuted(coords, base, perm):
    return coords[:base] + tuple(coords[base + p] for p in perm)


def _random_curve(rng, s):
    """A (-1)- or (-2)-class of a small shape, basis or not."""
    n = s.blowups
    e = [s.exceptional(i) for i in rng.sample(range(1, n + 1), min(n, 3))]
    shapes = [lambda: e[0]]
    if s.kind == "plane":
        if n >= 2:
            shapes += [lambda: e[0] - e[1], lambda: s.line - e[0] - e[1]]
        if n >= 3:
            shapes.append(lambda: s.line - e[0] - e[1] - e[2])
    else:
        shapes.append(lambda: s.ruling - e[0])
        if n >= 2:
            shapes += [lambda: e[0] - e[1], lambda: s.ruling - e[0] - e[1]]
        if s.index:
            shapes.append(lambda: s.minimal_section)
    return rng.choice(shapes)()


def random_pipeline_input(rng):
    genus = rng.randrange(3)
    extra = rng.randrange(3)
    if rng.random() < 0.6:
        degree, mults = rng.choice(PLANE_PENCILS[genus])
        s = plane_blowup(len(mults) + extra)
        f = plane_curve(s, degree, mults)
    else:
        index, a, b, mults = rng.choice(RULED_PENCILS[genus])
        s = hirzebruch_blowup(index, max(len(mults) + extra, 1))
        f = ruled_curve(s, a, b, mults)
    n, base = s.blowups, s.base_rank
    perm = list(range(n))
    rng.shuffle(perm)

    def move(classes):
        rows = [_permuted(c.coords, base, perm) for c in classes]
        out = [DivisorClass(s, r) for r in rows]
        if s.kind == "plane" and n >= 3:
            for _ in range(rng.randrange(4)):
                i, j, k = rng.sample(range(1, n + 1), 3)
                out = list(cremona(s, i, j, k, out))
        return out

    # one isometry for the fibre and the exceptional classes alike
    f, *images = move([f] + [s.exceptional(i) for i in range(1, n + 1)])
    effective = [c for c in images if rng.random() < 0.85]
    effective += [_random_curve(rng, s) for _ in range(rng.randrange(6))]
    effective += rng.choices(effective, k=rng.randrange(3)) if effective else []
    if rng.random() < 0.05:
        # F squares to 0: the reduction rejects it
        effective.append(f)
    rng.shuffle(effective)
    return Fibration(s, f, genus), effective


def _is_basis_exceptional(c):
    base = c.surface.base_rank
    tail = c.coords[base:]
    return not any(c.coords[:base]) and tail.count(1) == 1 and tail.count(0) == len(tail) - 1


def _outcome(pipeline, fib, effective):
    """("result", the PipelineResult) or ("error", its type, its message)."""
    try:
        return "result", pipeline(fib, effective)
    except Exception as exc:
        return "error", type(exc), str(exc)


def test_pipeline_matches_the_class_based_reference():
    # whole PipelineResults compare equal: every TraceStep, the reduced
    # curves, the endpoint; or the same error type and message
    ruled = hirzebruch_blowup(1, 1)
    # multiplicity 4 above the section coefficient 2: neither gives a repair
    fixed = Fibration(ruled, ruled_curve(ruled, 2, 5, (4,)), genus=-3), [ruled.exceptional(1)]
    got = _outcome(sharp_minimal_pipeline, *fixed)
    assert got == _outcome(reference_pipeline, *fixed)
    assert got[0] == "result" and got[1].model.violations and got[1].model.repair is None
    rng = random.Random(20101018)
    non_basis_runs = 0
    complete_genera = set()
    errors: dict[str, int] = {}
    for _ in range(300):
        fib, effective = random_pipeline_input(rng)
        got = _outcome(sharp_minimal_pipeline, fib, effective)
        assert got == _outcome(reference_pipeline, fib, effective)
        if got[0] == "error":
            errors[got[1].__name__] = errors.get(got[1].__name__, 0) + 1
            continue
        result = got[1]
        complete_genera.add(fib.genus)
        steps = result.reduced.trace.steps + result.model.trace.steps
        if not all(_is_basis_exceptional(s.contracted) for s in steps):
            non_basis_runs += 1
    # the draw reaches the quadratic-transform path and every outcome
    assert non_basis_runs >= 20
    assert complete_genera == {0, 1, 2}
    assert errors["NotContractibleError"] >= 20
    assert errors["IncompleteGeometryError"] >= 50
    assert errors["ReductionError"] >= 5
    assert "ValueError" not in errors


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_each_contraction_raises_the_squares_by_the_blow_up_identities(rng):
    # K = pi*K' + E and P = pi*P' - mE on a blow-up: at every step of
    # both phases K^2 rises by one and (K + pencil)^2 by (m - 1)^2, read
    # off the recorded trace alone
    fib, effective = random_pipeline_input(rng)
    try:
        result = sharp_minimal_pipeline(fib, effective)
    except InvariantError:
        raise
    except LatticeError:
        return  # input the pipeline rejects: no trace to read
    assert result.model.trace.start == result.reduced.trace.end
    surface, pencil = result.reduced.trace.start, fib.fibre_class
    for step in result.reduced.trace.steps + result.model.trace.steps:
        k, k_after = surface.canonical(), step.surface_after.canonical()
        assert k_after * k_after == k * k + 1
        adjoint, adjoint_after = k + pencil, k_after + step.pencil_after
        assert adjoint_after * adjoint_after == adjoint * adjoint + (step.pencil_degree - 1) ** 2
        surface, pencil = step.surface_after, step.pencil_after


def test_greedy_rejects_foreign_curves_like_the_reference():
    s, f = sextic_pencil()
    other = plane_blowup(11)
    for pencil, curves in ((f, (other.exceptional(1),)), (plane_curve(other, 6), (s.exceptional(1),))):
        reduced = ReducedPencil(s, pencil, curves, ContractionTrace(s, s, ()))
        with pytest.raises(ForeignClassError, match="operands live on different surfaces"):
            greedy_sharp_minimal(reduced)
        with pytest.raises(ForeignClassError, match="operands live on different surfaces"):
            reference_greedy(reduced)


# run in a fresh interpreter, so no surface has built K before counting starts
K_COUNT = """
import json
from genus2pencils import catalog
from genus2pencils.lattice import Surface
from genus2pencils.sharp import sharp_minimal_pipeline

canonical = Surface.__dict__["_canonical"]
real = canonical.func
built = []

def counting(surface):
    built.append(surface)
    return real(surface)

canonical.func = counting
for _ in range(2):
    for tag in catalog.tags():
        assert catalog.verify(tag).passed
reached = set()
for tag in catalog.tags():
    entry = catalog.get(tag)
    fib = entry.fibration
    result = sharp_minimal_pipeline(fib, [fib.named(n) for n in entry.effective])
    for trace in (result.reduced.trace, result.model.trace):
        reached.add(trace.start)
        reached.update(step.surface_after for step in trace.steps)
print(json.dumps([len(built), len(set(built)), set(built) <= reached]))
"""


def test_verify_builds_k_once_per_distinct_surface():
    # surfaces are interned, so each distinct surface builds its canonical
    # class once over any number of verify passes
    src = os.path.dirname(os.path.dirname(os.path.abspath(lattice.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", K_COUNT], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    built, distinct, within_reached = json.loads(proc.stdout)
    assert built
    assert distinct == built
    assert within_reached

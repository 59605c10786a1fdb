"""The ten headline facts, checked end to end at zero tolerance.

Run `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion; add `-s` to see the printed summaries.  Everything here is
exact integer arithmetic: no approximation, no tolerance knobs.
"""

from __future__ import annotations

import subprocess
import sys
import time
import warnings
from pathlib import Path

from oracles import (
    box_classes,
    naive_obstruction_minima,
    naive_search_general,
    naive_search_special,
)

from genus2pencils import catalog
from genus2pencils.curves import (
    ClassQuery,
    enum_classes,
    fibre_intersection_identity,
    minus_one_section_exists,
)
from genus2pencils.fibres import (
    ade_classify,
    orthogonal_decomposition_check,
    shioda_rank,
    validate_fibre,
)
from genus2pencils.lattice import (
    cremona,
    elementary_transform,
    hirzebruch_blowup,
    plane_blowup,
)
from genus2pencils.numerics import (
    NumericType,
    apply_exclusion,
    search_general,
    search_special,
    triple_point_image_obstruction,
)
from genus2pencils.sharp import greedy_sharp_minimal, reduction

GENUS_TWO_ROWS = (
    NumericType(2, 0, (2,) * 7, 1),
    NumericType(2, 2, (2,) * 10, 2),
    NumericType(4, 0, (3,) * 7 + (2, 2), 2),
    NumericType(6, 2, (4,) * 9, 3),
    NumericType(8, 0, (5,) * 7 + (4, 3), 3),
)

SURVIVOR_TAGS = ("A", "B1", "B2", "C")


def _pipeline(tag: str):
    entry = catalog.get(tag)
    fib = entry.fibration
    curves = [fib.named(n) for n in entry.effective]
    reduced = reduction(fib, curves)
    return entry, reduced, greedy_sharp_minimal(reduced)


def test_criterion_01_genus_two_search_window():
    start = time.perf_counter()
    rows = search_general(2, 1, 3)
    elapsed = time.perf_counter() - start
    assert rows == GENUS_TWO_ROWS
    assert tuple(r.adjoint_square for r in rows) == (1, 2, 2, 3, 3)
    assert search_special(2, 1, 3) == ()
    assert elapsed < 1.0
    print(f"PASS criterion 01: five general rows, no special rows, {elapsed * 1000:.0f} ms")


def test_criterion_02_exclusion_certificate():
    cert = triple_point_image_obstruction()
    assert cert.excluded == GENUS_TWO_ROWS[-1]
    assert cert.required_degree == 1
    assert cert.case_minima == (2, 2)
    assert cert.case_counts == (64, 240)
    assert cert.holds
    assert naive_obstruction_minima() == tuple(zip(cert.case_minima, cert.case_counts))

    kept = apply_exclusion(search_general(2, 1, 3))
    assert len(kept) == 4
    signatures = []
    for row, tag in zip(kept, SURVIVOR_TAGS):
        entry = catalog.get(tag)
        assert row == entry.expected.numeric
        fib = entry.fibration
        f, k = fib.fibre_class, fib.surface.canonical()
        shift = entry.expected.pencil_shift
        if shift is None:
            found = minus_one_section_exists(fib)
        else:
            pencil = fib.surface.line - fib.surface.exceptional(1)
            found = minus_one_section_exists(fib, pencil=pencil, shift=shift)
            assert found.certified_bound == shift
            assert found.minimum == shift
        signatures.append(((k + f) * (k + f), found.exists))
    assert tuple(signatures) == ((1, True), (2, False), (2, True), (3, False))
    print("PASS criterion 02: exclusion certified, 4 surviving rows match the catalog")


def test_criterion_03_canonical_intersections():
    for tag, ksq, rho in zip(SURVIVOR_TAGS, (1, 2, 2, 3), (13, 12, 12, 11)):
        fib = catalog.get(tag).fibration
        f = fib.fibre_class
        k = fib.surface.canonical()
        assert f * f == 0
        assert k * f == 2
        assert (k + f) * (k + f) == ksq
        assert fib.surface.rank == rho
    print("PASS criterion 03: F^2, K*F, (K+F)^2, and rank agree on all four models")


def test_criterion_04_reduction_pipeline():
    for tag, target in zip(SURVIVOR_TAGS, GENUS_TWO_ROWS):
        entry, reduced, model = _pipeline(tag)
        numeric = model.numeric_type()
        assert numeric == target
        assert numeric == entry.expected.numeric
        assert (
            numeric.adjoint_square + numeric.pencil_square + numeric.base_point_count
            == 12
        )
        if tag == "A":
            assert reduced.pencil == -2 * reduced.surface.canonical()
        if tag == "B2":
            mid = model.trace.steps[1]
            assert mid.pencil_after == -3 * mid.surface_after.canonical()
    for row in GENUS_TWO_ROWS:
        assert row.adjoint_square + row.pencil_square + row.base_point_count == 12
    print("PASS criterion 04: all four pipelines land on their numeric types")


def test_criterion_05_extremal_fibre_data():
    for tag in ("Ex4_3", "Ex4_4", "Ex4_5", "Ex4_6"):
        entry = catalog.get(tag)
        fib = entry.fibration
        assert fib.fibres
        for dec in fib.fibres:
            for comp in dec.components:
                assert comp.declared_self_intersection is not None
                assert comp.declared_genus is not None
            report = validate_fibre(fib, dec)
            assert report.component_count == len(dec.components)
        for name, wanted in entry.expected.ade_labels:
            dec = next(d for d in fib.fibres if d.name == name)
            assert tuple(label for _, label in ade_classify(dec)) == wanted
        counts = tuple(len(d.components) for d in fib.fibres)
        assert counts == entry.expected.component_counts
        assert shioda_rank(fib.surface.rank, counts) == 0
        assert entry.expected.mordell_weil_rank == 0
        blocks = [[fib.named(n) for n in block] for block in entry.blocks]
        decomposition = orthogonal_decomposition_check(fib, blocks)
        assert decomposition.passed, decomposition.messages
        assert decomposition.determinant in (1, -1)
        assert decomposition.block_sizes == entry.expected.block_sizes
    print("PASS criterion 05: fibre sums, labels, Shioda rank 0, unimodular blocks")


def test_criterion_06_pairing_identities():
    for tag, shift in (("B1", 2), ("C", 4)):
        fib = catalog.get(tag).fibration
        pencil = fib.surface.line - fib.surface.exceptional(1)
        report = fibre_intersection_identity(fib, pencil, shift, ClassQuery(-1, -1, 3))
        assert report.holds
        assert report.classes
        assert all(
            fd - pd == shift
            for fd, pd in zip(report.fibre_degrees, report.pencil_degrees)
        )
        assert report.minimum == shift

    fib = catalog.get("C").fibration
    pencil = fib.surface.line - fib.surface.exceptional(1)
    pencils = fibre_intersection_identity(fib, pencil, 4, ClassQuery(0, -2, 3))
    assert pencils.holds
    assert pencils.classes
    assert all(
        fd == pd + 8
        for fd, pd in zip(pencils.fibre_degrees, pencils.pencil_degrees)
    )
    assert pencils.minimum == 8
    assert pencil in pencils.witnesses
    print("PASS criterion 06: fibre pairing identities hold with minima 2, 4, and 8")


def test_criterion_07_cremona_fixes_the_degree_13_pencil():
    entry = catalog.get("C")
    fib = entry.fibration
    s = fib.surface
    assert entry.expected.cremona_fixes_fibre == (1, 2, 3)
    probes = (
        fib.fibre_class,
        s.line,
        s.exceptional(1),
        s.exceptional(4),
        s.line - s.exceptional(2),
    )
    once = cremona(s, 1, 2, 3, probes)
    assert once[0] == fib.fibre_class
    assert cremona(s, 1, 2, 3, once) == probes
    print("PASS criterion 07: the quadratic transform fixes F and squares to 1")


def test_criterion_08_elementary_transform_family():
    numeric = NumericType(6, 2, (4,) * 9, 3)
    assert numeric.admissible_indices == (0, 1, 2)
    for index in (0, 1, 2):
        coeff = (numeric.twice_offset + (index + 2) * numeric.pencil_degree) // 2
        assert coeff == 9 + 4 * index
    assert elementary_transform(2, (8, 17), 4) == (1, (8, 13), 4)
    assert elementary_transform(1, (8, 13), 4) == (0, (8, 9), 4)
    assert elementary_transform(0, (8, 9), 4, on_minimal_section=True) == (1, (8, 13), 4)
    assert elementary_transform(1, (8, 13), 4, on_minimal_section=True) == (2, (8, 17), 4)
    print("PASS criterion 08: index 2 <-> 1 <-> 0 with fibre coefficient 9 + 4d")


def test_criterion_09_oracle_equivalence():
    assert (
        search_general(2, 1, 3)
        == search_general(2, 1, 3, prune=False)
        == naive_search_general(2, 1, 3, 10, 12)
    )
    assert search_special(2, 1, 3) == naive_search_special(2, 1, 3, 10, 12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        caps = dict(adjoint_cap=8)
        assert (
            search_general(3, 1, 7, **caps)
            == search_general(3, 1, 7, prune=False, **caps)
            == naive_search_general(3, 1, 7, 8, 15)
        )

    cases = (
        (plane_blowup(8), ClassQuery(-1, -1, 3)),
        (hirzebruch_blowup(1, 4), ClassQuery(-1, -1, 3)),
        (plane_blowup(6), ClassQuery(0, -2, 2)),
    )
    for surface, query in cases:
        assert list(enum_classes(surface, query)) == box_classes(surface, query)
    print("PASS criterion 09: pruned search and walking enumeration match brute force")


def test_criterion_10_property_suite_standalone():
    import test_properties as props

    for name in (
        "test_pairing_is_symmetric_and_bilinear",
        "test_cremona_is_a_canonical_involution",
        "test_blow_up_then_down_is_the_identity",
        "test_adjoint_square_ceiling",
        "test_chain_label_is_permutation_invariant",
    ):
        assert callable(getattr(props, name))
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "tests/test_properties.py", "-q"],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    print("PASS criterion 10: property suite passes standalone")

"""Fibre decomposition, dual graph, and lattice certificate tests.

The running example is the four-component degenerate fibre of the sextic
pencil; its Gram matrix and graph labels were computed by hand and
frozen.  Negative tests corrupt the decomposition one field at a time
via ``_replace``.
"""

from __future__ import annotations

import pytest

from genus2pencils import catalog
from genus2pencils.fibres import (
    ComplementLattice,
    FibreComponent,
    FibreDecomposition,
    FibreError,
    ade_classify,
    classify_diagram,
    complement_lattice,
    dual_graph,
    orthogonal_decomposition_check,
    shioda_rank,
    validate_fibre,
)
from genus2pencils.intmat import hermite_normal_form, is_negative_semidefinite
from genus2pencils.lattice import DivisorClass, Fibration, LatticeError, plane_blowup, plane_curve


def sextic_fibration():
    s = plane_blowup(12)
    f = plane_curve(s, 6, (2,) * 8 + (1,) * 4)
    return Fibration(s, f)


def chain_fibre(fib):
    """Reducible member: two chains of (-2)-curves hanging off a nodal cubic."""
    s = fib.surface
    e = s.exceptional
    return FibreDecomposition(
        "F0",
        (
            FibreComponent("TH11", e(11) - e(12), 1, -2, 0),
            FibreComponent("TH9", e(9) - e(10), 1, -2, 0),
            FibreComponent("TH10", e(10) - e(11), 2, -2, 0),
            FibreComponent("TH12", plane_curve(s, 3, (1,) * 10), 2, -1, 1),
        ),
    )


def test_validate_fibre_report():
    fib = sextic_fibration()
    report = validate_fibre(fib, chain_fibre(fib))
    assert report.name == "F0"
    assert report.component_count == 4
    assert report.gram == (
        (-2, 0, 1, 0),
        (0, -2, 1, 0),
        (1, 1, -2, 1),
        (0, 0, 1, -1),
    )


def test_validated_grams_are_negative_semidefinite():
    fib = sextic_fibration()
    grams = [validate_fibre(fib, chain_fibre(fib)).gram]
    for tag in catalog.tags():
        entry_fib = catalog.get(tag).fibration
        grams += [validate_fibre(entry_fib, dec).gram for dec in entry_fib.fibres]
    assert len(grams) == 9
    assert all(is_negative_semidefinite(g) for g in grams)


def test_validate_fibre_rejects_empty():
    fib = sextic_fibration()
    with pytest.raises(FibreError, match="fibre F0 has no components"):
        validate_fibre(fib, FibreDecomposition("F0", ()))


def test_validate_fibre_rejects_foreign_component():
    fib = sextic_fibration()
    alien = plane_blowup(11).exceptional(1)
    dec = FibreDecomposition("F0", (FibreComponent("Z", alien, 1),))
    with pytest.raises(FibreError, match="foreign class: component Z"):
        validate_fibre(fib, dec)


def test_validate_fibre_rejects_bad_multiplicity():
    fib = sextic_fibration()
    dec = chain_fibre(fib)
    bad = tuple(
        p._replace(multiplicity=0) if p.name == "TH9" else p for p in dec.components
    )
    with pytest.raises(FibreError, match="component TH9 has multiplicity 0"):
        validate_fibre(fib, dec._replace(components=bad))


def test_validate_fibre_rejects_wrong_sum():
    fib = sextic_fibration()
    dec = chain_fibre(fib)
    bad = tuple(
        p._replace(multiplicity=1) if p.name == "TH12" else p for p in dec.components
    )
    with pytest.raises(FibreError, match="leaves residual 3L-E1"):
        validate_fibre(fib, dec._replace(components=bad))


def test_validate_fibre_checks_declared_fields():
    fib = sextic_fibration()
    dec = chain_fibre(fib)
    bad_sq = tuple(
        p._replace(declared_self_intersection=-1) if p.name == "TH11" else p
        for p in dec.components
    )
    with pytest.raises(
        FibreError, match="component TH11 has self-intersection -2, declared -1"
    ):
        validate_fibre(fib, dec._replace(components=bad_sq))
    bad_genus = tuple(
        p._replace(declared_genus=0) if p.name == "TH12" else p for p in dec.components
    )
    with pytest.raises(FibreError, match="component TH12 has genus 1, declared 0"):
        validate_fibre(fib, dec._replace(components=bad_genus))


def test_validate_fibre_rejects_component_meeting_fibre():
    fib = sextic_fibration()
    s = fib.surface
    e12 = s.exceptional(12)
    dec = FibreDecomposition(
        "Z",
        (
            FibreComponent("X", e12, 1),
            FibreComponent("Y", fib.fibre_class - e12, 1),
        ),
    )
    with pytest.raises(FibreError, match=r"component X meets the fibre class \(1\)"):
        validate_fibre(fib, dec)


def test_validate_fibre_rejects_negative_pairing():
    # any two-part split of F pairs nonnegatively, so three parts are needed
    fib = sextic_fibration()
    s = fib.surface
    a = s.exceptional(9) - s.exceptional(10)
    dec = FibreDecomposition(
        "Z",
        (
            FibreComponent("X", a, 1),
            FibreComponent("Y", a + a, 1),
            FibreComponent("W", fib.fibre_class - a - a - a, 1),
        ),
    )
    with pytest.raises(FibreError, match=r"components X and Y pair negatively \(-4\)"):
        validate_fibre(fib, dec)


def test_dual_graph_of_chain_fibre():
    fib = sextic_fibration()
    graph = dual_graph(fib, chain_fibre(fib))
    assert graph.nodes == (
        ("TH11", -2, 0),
        ("TH9", -2, 0),
        ("TH10", -2, 0),
        ("TH12", -1, 1),
    )
    assert graph.edges == ((0, 2, 1), (1, 2, 1), (2, 3, 1))
    alien = FibreDecomposition(
        "Z", (FibreComponent("W", plane_blowup(3).exceptional(1), 1),)
    )
    with pytest.raises(FibreError, match="foreign class: component W"):
        dual_graph(fib, alien)


def test_dual_graph_builds_no_validated_class(monkeypatch):
    # the genus reads the surface's cached canonical class; nothing the
    # library derives goes through the validating constructor again
    entries = [catalog.get(tag) for tag in catalog.tags()]
    fibred = [(e.fibration, d) for e in entries for d in e.fibration.fibres]
    assert len(fibred) == 8
    validated = []
    real = DivisorClass.__init__

    def counting(self, *args):
        validated.append(args)
        real(self, *args)

    monkeypatch.setattr(DivisorClass, "__init__", counting)
    for fib, dec in fibred:
        dual_graph(fib, dec)
    assert validated == []


CHAIN = lambda n: [(i, i + 1) for i in range(n - 1)]


def test_classify_diagram_families():
    assert classify_diagram(0, []) == "unclassified"
    assert classify_diagram(1, []) == "A1"
    assert classify_diagram(2, [(0, 1)]) == "A2"
    assert classify_diagram(7, CHAIN(7)) == "A7"
    assert classify_diagram(3, [(0, 1), (1, 2), (2, 0)]) == "A2~"
    assert classify_diagram(9, CHAIN(9) + [(8, 0)]) == "A8~"
    assert classify_diagram(4, [(0, 1), (0, 2), (0, 3)]) == "D4"
    assert classify_diagram(5, [(0, 1), (0, 2), (0, 3), (0, 4)]) == "D4~"
    assert classify_diagram(5, [(0, 1), (0, 2), (0, 3), (3, 4)]) == "D5"
    assert classify_diagram(6, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)]) == "D6"


def star(arms):
    """Tree with the given arm lengths hanging off node 0."""
    edges = []
    nxt = 1
    for length in arms:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return nxt, edges


def test_classify_diagram_exceptional_families():
    for arms, label in (
        ((1, 2, 2), "E6"),
        ((1, 2, 3), "E7"),
        ((1, 2, 4), "E8"),
        ((2, 2, 2), "E6~"),
        ((1, 3, 3), "E7~"),
        ((1, 2, 5), "E8~"),
    ):
        n, edges = star(arms)
        assert classify_diagram(n, edges) == label, arms
    # affine D: two forks joined by a chain
    assert (
        classify_diagram(7, [(0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6)]) == "D6~"
    )


def test_classify_diagram_rejections():
    assert classify_diagram(2, []) == "unclassified"
    n, edges = star((1, 1, 1, 2))
    assert classify_diagram(n, edges) == "unclassified"
    n, edges = star((1, 3, 4))
    assert classify_diagram(n, edges) == "unclassified"
    # fork at one end only
    assert classify_diagram(8, [(0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7)]) == "unclassified"


def test_ade_classify_chain_fibre():
    fib = sextic_fibration()
    groups = ade_classify(chain_fibre(fib))
    assert groups == ((("TH11", "TH9", "TH10"), "A3"),)


def test_ade_classify_skips_heavy_edges_and_positive_genus():
    s = plane_blowup(12)
    e = s.exceptional
    shift = e(9) - e(10)
    heavy = FibreDecomposition(
        "Z",
        (
            FibreComponent("X", shift, 1),
            FibreComponent("Y", s.zero() - shift, 1),
        ),
    )
    assert ade_classify(heavy) == ((("X", "Y"), "unclassified"),)
    # a (-2) class of genus one is not a Dynkin node
    elliptic = plane_curve(s, 3, (1,) * 11)
    assert elliptic * elliptic == -2
    mixed = FibreDecomposition(
        "W",
        (
            FibreComponent("C", elliptic, 1),
            FibreComponent("D", e(11) - e(12), 1),
        ),
    )
    assert ade_classify(mixed) == ((("D",), "A1"),)


def test_ade_classify_rejects_components_on_two_surfaces():
    a, b = plane_blowup(3), plane_blowup(4)
    mixed = FibreDecomposition(
        "Z",
        (
            FibreComponent("X", a.exceptional(1) - a.exceptional(2), 1),
            FibreComponent("Y", b.exceptional(1), 1),
        ),
    )
    with pytest.raises(LatticeError, match="foreign class"):
        ade_classify(mixed)


def test_shioda_rank_bookkeeping():
    assert shioda_rank(13, (4, 9)) == 0
    assert shioda_rank(12, (6, 6)) == 0
    assert shioda_rank(11, (4, 4, 4)) == 0
    assert shioda_rank(10, (4,)) == 5
    assert shioda_rank(2, ()) == 0
    with pytest.raises(FibreError, match="exceed the lattice rank by 1"):
        shioda_rank(11, (11,))


def small_fibration():
    s = plane_blowup(2)
    f = s.line - s.exceptional(1)
    return Fibration(s, f, genus=0)


def test_orthogonal_decomposition_accepts_a_basis():
    fib = small_fibration()
    s = fib.surface
    report = orthogonal_decomposition_check(
        fib, [[fib.fibre_class, s.exceptional(1)], [s.exceptional(2)]]
    )
    assert report.passed
    assert report.rank == 3
    assert report.determinant is not None and abs(report.determinant) == 1
    assert report.block_sizes == (2, 1)
    assert report.messages == ()
    assert report.certificate == "trivial Mordell-Weil certificate"


def test_orthogonal_decomposition_failure_messages():
    fib = small_fibration()
    s = fib.surface
    f, o, e2 = fib.fibre_class, s.exceptional(1), s.exceptional(2)

    report = orthogonal_decomposition_check(fib, [[f], [o, e2]])
    assert not report.passed
    assert "first block must be the fibre class and a section" in report.messages

    report = orthogonal_decomposition_check(fib, [[f, e2], [o]])
    assert any(
        "first block partner pairs 0 with the fibre" in m for m in report.messages
    )

    report = orthogonal_decomposition_check(fib, [[f, o], [s.line]])
    assert "blocks 1 and 2 are not orthogonal: L-E1 * L = 1" in report.messages
    assert report.determinant is None

    report = orthogonal_decomposition_check(fib, [[f, o]])
    assert "not a basis: 2 classes on a rank-3 lattice" in report.messages

    report = orthogonal_decomposition_check(fib, [[f, o], [e2 + e2]])
    assert "not a basis: index 4" in report.messages
    assert report.determinant == 4

    alien = plane_blowup(3).exceptional(1)
    report = orthogonal_decomposition_check(fib, [[f, o], [alien]])
    assert "foreign class in block 2: E1" in report.messages
    assert report.certificate == ""


def test_complement_of_the_line():
    s = plane_blowup(2)
    comp = complement_lattice(s, (s.line,))
    assert comp.basis == (s.exceptional(1), s.exceptional(2))
    assert comp.gram == ((-1, 0), (0, -1))
    assert comp.discriminant == 1


def test_complement_edge_cases():
    s = plane_blowup(2)
    everything = complement_lattice(s, ())
    assert len(everything.basis) == 3
    assert everything.gram == s.gram()
    assert everything.discriminant == 1

    rank_one = complement_lattice(s, (s.line - s.exceptional(1), s.exceptional(1)))
    assert rank_one.basis == (s.exceptional(2),)
    assert rank_one.discriminant == -1

    with pytest.raises(LatticeError, match="foreign class: input lives on another surface"):
        complement_lattice(s, (plane_blowup(3).exceptional(1),))
    with pytest.raises(LatticeError, match="dependent input classes"):
        complement_lattice(s, (s.line, s.line + s.line))


def test_complement_basis_is_its_own_hermite_form():
    # verify's complement check compares the basis with a Hermite form as is
    rows = tuple(c.coords for c in complement_lattice(plane_blowup(2), ()).basis)
    assert hermite_normal_form(rows) == rows
    fib = sextic_fibration()
    s = fib.surface
    for sub in ((fib.fibre_class,), (fib.fibre_class, s.exceptional(9)), (s.line - s.exceptional(3),)):
        rows = tuple(c.coords for c in complement_lattice(s, sub).basis)
        assert hermite_normal_form(rows) == rows
    checked = 0
    for tag in catalog.tags():
        entry = catalog.get(tag)
        if entry.blocks:
            fib = entry.fibration
            comp = complement_lattice(fib.surface, (fib.fibre_class, fib.named("O")))
            rows = tuple(c.coords for c in comp.basis)
            assert hermite_normal_form(rows) == rows
            checked += 1
    assert checked == 4


def test_component_lookup():
    fib = sextic_fibration()
    dec = chain_fibre(fib)
    assert dec.component("TH10").multiplicity == 2
    with pytest.raises(KeyError):
        dec.component("TH99")

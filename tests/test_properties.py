"""Property-based invariants over randomly generated lattice data.

Each test states one algebraic law the implementation must satisfy for
all inputs, not just the curated models: pairing bilinearity, the
characteristic property of the canonical class, the batched pairing and
the Gram matrix against the single pairing, surface checks on mixed
operands, isometry laws for the quadratic transform, blow-up/blow-down
inverses, the pushforward pairing rule, elementary-transform inverses,
diagram label invariance, Zariski's lemma for fibre pairing matrices,
and the adjoint-square ceiling of the numeric search.
"""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from genus2pencils.curves import ClassQuery, enum_classes
from genus2pencils.fibres import classify_diagram
from genus2pencils.intmat import is_negative_semidefinite
from genus2pencils.lattice import (
    DivisorClass,
    ForeignClassError,
    Surface,
    arithmetic_genus,
    blow_down,
    blow_up,
    cremona,
    elementary_transform,
    hirzebruch_blowup,
    pairings,
    plane_blowup,
)
from genus2pencils.numerics import search_general

LIMITS = settings(max_examples=60, deadline=None)


@st.composite
def surfaces(draw, min_blowups: int = 0, max_blowups: int = 8, kind: str | None = None):
    if kind is None:
        kind = "plane" if draw(st.booleans()) else "hirzebruch"
    if kind == "plane":
        return plane_blowup(draw(st.integers(min_blowups, max_blowups)))
    return hirzebruch_blowup(
        draw(st.integers(0, 3)), draw(st.integers(min_blowups, max_blowups))
    )


@st.composite
def surface_and_classes(draw, count: int, min_blowups: int = 0, kind: str | None = None):
    s = draw(surfaces(min_blowups=min_blowups, kind=kind))
    classes = tuple(
        DivisorClass(
            s,
            tuple(
                draw(st.lists(st.integers(-5, 5), min_size=s.rank, max_size=s.rank))
            ),
        )
        for _ in range(count)
    )
    return s, classes


@LIMITS
@given(surface_and_classes(3), st.integers(-4, 4), st.integers(-4, 4))
def test_pairing_is_symmetric_and_bilinear(data, a, b):
    _, (x, y, z) = data
    assert x * y == y * x
    assert (x + y) * z == x * z + y * z
    assert (a * x + b * y) * z == a * (x * z) + b * (y * z)


KINDS = ("plane", "hirzebruch")


@pytest.mark.parametrize("kind", KINDS)
@LIMITS
@given(data=st.data())
def test_batched_pairing_matches_single_pairing(kind, data):
    _, (d, *cs) = data.draw(surface_and_classes(6, kind=kind))
    assert pairings(d, cs) == tuple(d * c for c in cs)
    assert pairings(d, ()) == ()


@pytest.mark.parametrize("kind", KINDS)
@LIMITS
@given(data=st.data())
def test_intersect_agrees_with_gram(kind, data):
    s, (x, y) = data.draw(surface_and_classes(2, kind=kind))
    gram = s.gram()
    want = sum(
        x.coords[i] * gram[i][j] * y.coords[j] for i in range(s.rank) for j in range(s.rank)
    )
    assert s.intersect(x.coords, y.coords) == want
    assert x * y == want
    assert sum(a * b for a, b in zip(s.dual(x.coords), y.coords)) == want


@pytest.mark.parametrize("kind", KINDS)
@LIMITS
@given(data=st.data(), extra=st.integers(1, 3))
def test_mixed_surfaces_raise_and_equal_surfaces_pair(kind, data, extra):
    s, (x, y) = data.draw(surface_and_classes(2, kind=kind))
    twin = Surface(s.kind, s.index, s.blowups)
    assert twin is not s
    y_twin = DivisorClass(twin, y.coords)
    assert x * y_twin == x * y
    assert pairings(x, (y, y_twin, y)) == (x * y,) * 3
    bigger = Surface(s.kind, s.index, s.blowups + extra)
    z = DivisorClass(bigger, y.coords + (0,) * extra)
    with pytest.raises(ForeignClassError):
        x * z
    with pytest.raises(ForeignClassError):
        pairings(x, (y, z))
    with pytest.raises(ForeignClassError):
        pairings(z, (y,))
    if s.kind == "hirzebruch":
        reindexed = DivisorClass(Surface(s.kind, s.index + 1, s.blowups), y.coords)
        with pytest.raises(ForeignClassError):
            pairings(x, (y_twin, reindexed))


@LIMITS
@given(surface_and_classes(1))
def test_canonical_class_is_characteristic(data):
    s, (x,) = data
    k = s.canonical()
    assert (x * x + k * x) % 2 == 0


@LIMITS
@given(surface_and_classes(1))
def test_arithmetic_genus_is_an_integer(data):
    _, (x,) = data
    assert isinstance(arithmetic_genus(x), int)


@st.composite
def cremona_input(draw):
    n = draw(st.integers(3, 9))
    s = plane_blowup(n)
    points = draw(st.permutations(range(1, n + 1)))[:3]
    classes = tuple(
        DivisorClass(
            s, tuple(draw(st.lists(st.integers(-4, 4), min_size=s.rank, max_size=s.rank)))
        )
        for _ in range(2)
    )
    return s, points, classes


@LIMITS
@given(cremona_input())
def test_cremona_is_a_canonical_involution(data):
    s, (i, j, k), (x, y) = data
    xi, yi = cremona(s, i, j, k, (x, y))
    assert xi * yi == x * y
    assert xi * xi == x * x
    assert arithmetic_genus(xi) == arithmetic_genus(x)
    (k_image,) = cremona(s, i, j, k, (s.canonical(),))
    assert k_image == s.canonical()
    assert cremona(s, i, j, k, (xi, yi)) == (x, y)


@LIMITS
@given(surface_and_classes(2))
def test_blow_up_then_down_is_the_identity(data):
    s, classes = data
    bigger, carried = blow_up(s, classes)
    assert bigger.rank == s.rank + 1
    assert all(c.coords == orig.coords + (0,) for c, orig in zip(carried, classes))
    e = bigger.exceptional(bigger.blowups)
    smaller, back = blow_down(bigger, e, carried)
    assert smaller == s
    assert back == classes


@LIMITS
@given(surface_and_classes(2, min_blowups=1))
def test_pushforward_pairing_rule(data):
    s, (x, y) = data
    e = s.exceptional(s.blowups)
    _, (px, py) = blow_down(s, e, (x, y))
    assert px * py == x * y + (x * e) * (y * e)
    assert px * px == x * x + (x * e) ** 2


@LIMITS
@given(
    st.integers(0, 4),
    st.integers(1, 8),
    st.integers(0, 12),
    st.data(),
)
def test_elementary_transform_inverses(index, section, fibre, data):
    mult = data.draw(st.integers(0, section))
    up = elementary_transform(index, (section, fibre), mult, on_minimal_section=True)
    assert up.index == index + 1
    down = elementary_transform(
        up.index, up.curve, up.new_point_multiplicity, on_minimal_section=False
    )
    assert down.index == index
    assert down.curve == (section, fibre)
    if index >= 1:
        down2 = elementary_transform(index, (section, fibre), mult)
        up2 = elementary_transform(
            down2.index, down2.curve, down2.new_point_multiplicity, True
        )
        assert up2.index == index and up2.curve == (section, fibre)


@LIMITS
@given(st.integers(1, 9), st.data())
def test_chain_label_is_permutation_invariant(n, data):
    relabel = data.draw(st.permutations(range(n)))
    edges = [(relabel[i], relabel[i + 1]) for i in range(n - 1)]
    assert classify_diagram(n, edges) == f"A{n}"


@LIMITS
@given(st.integers(3, 9), st.data())
def test_cycle_label_is_permutation_invariant(n, data):
    relabel = data.draw(st.permutations(range(n)))
    edges = [(relabel[i], relabel[(i + 1) % n]) for i in range(n)]
    assert classify_diagram(n, edges) == f"A{n - 1}~"


@st.composite
def fibre_pairings(draw):
    """A symmetric matrix obeying the rules validate_fibre checks: weights
    m_i >= 1, entries >= 0 off the diagonal, sum_j m_j G_ij = 0 in every row.
    The off-diagonal entries are scaled by lcm(m) so the diagonal is integral."""
    n = draw(st.integers(1, 7))
    mults = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    scale = math.lcm(*mults)
    g = [[0] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        g[i][j] = g[j][i] = scale * draw(st.integers(0, 3))
    for i in range(n):
        g[i][i] = -sum(m * w for m, w in zip(mults, g[i])) // mults[i]
    return mults, g


@settings(max_examples=200, deadline=None)
@given(fibre_pairings())
def test_fibre_pairing_rules_force_negative_semidefinite(drawn):
    # Zariski's lemma: validate_fibre's other checks already imply this
    mults, g = drawn
    assert all(sum(m * w for m, w in zip(mults, row)) == 0 for row in g)
    assert is_negative_semidefinite(g)


@st.composite
def enum_setup(draw):
    if draw(st.booleans()):
        s = plane_blowup(draw(st.integers(0, 4)))
    else:
        s = hirzebruch_blowup(draw(st.integers(0, 2)), draw(st.integers(0, 3)))
    self_int, k_deg = draw(st.sampled_from(((-1, -1), (-2, 0), (0, -2))))
    cap = draw(st.integers(1, 3))
    return s, ClassQuery(self_int, k_deg, cap)


@LIMITS
@given(enum_setup())
def test_enumerated_classes_satisfy_their_query(data):
    s, query = data
    k = s.canonical()
    ref = s.line if s.kind == "plane" else None
    found = enum_classes(s, query)
    assert len(set(found)) == len(found)
    for c in found:
        assert c * c == query.self_int
        assert k * c == query.k_deg
    if ref is not None:
        for c in found:
            assert 0 <= c * ref <= query.degree_cap


@settings(max_examples=3, deadline=None)
@given(st.integers(2, 3))
def test_adjoint_square_ceiling(genus):
    # nothing lives above adjoint square 4*genus - 5
    ceiling = 4 * genus - 5
    assert search_general(genus, ceiling + 1, ceiling + 7) == ()


def test_search_rows_are_sorted():
    rows = search_general(2, 1, 3)
    assert list(rows) == sorted(rows, key=lambda r: r.sort_key())

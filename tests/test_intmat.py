"""Exact integer linear algebra, checked against cofactor expansion and
numpy eigenvalues."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles

from genus2pencils.intmat import (
    bareiss_determinant,
    hermite_normal_form,
    hermite_with_transform,
    is_negative_semidefinite,
    kernel_basis,
    rational_rank,
)


def cofactor_determinant(rows) -> int:
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_determinant(minor)
    return total


def random_matrix(rng, n, m, bound=6):
    return [[rng.randint(-bound, bound) for _ in range(m)] for _ in range(n)]


def test_determinant_small_frozen():
    assert bareiss_determinant([]) == 1
    assert bareiss_determinant([[7]]) == 7
    assert bareiss_determinant([[1, 2], [3, 4]]) == -2
    assert bareiss_determinant([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
    assert bareiss_determinant([[0, 1], [1, 0]]) == -1


def test_determinant_matches_cofactor_expansion():
    rng = random.Random(7)
    for n in (1, 2, 3, 4, 5):
        for _ in range(12):
            m = random_matrix(rng, n, n)
            assert bareiss_determinant(m) == cofactor_determinant(m)


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_sparse_matrices_match_cofactors_and_fractions(rng):
    # mostly zero entries, as in the catalog's Gram matrices and the
    # class rows of its uniqueness certificates
    n = rng.randint(1, 6)
    m = rng.choice((n, rng.randint(1, 7)))
    rows = [[rng.choice((0, 0, 0, 0, 1, -1, 2, -3)) for _ in range(m)] for _ in range(n)]
    assert rational_rank(rows) == oracles.rational_rank(rows)
    if n == m:
        assert bareiss_determinant(rows) == cofactor_determinant(rows)


def test_determinant_rejects_non_square():
    with pytest.raises(ValueError):
        bareiss_determinant([[1, 2, 3], [4, 5, 6]])


def test_hermite_transform_properties():
    rng = random.Random(11)
    for _ in range(25):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        a = random_matrix(rng, n, m)
        h, u = hermite_with_transform(a)
        assert len(h) == n and len(u) == n
        assert abs(cofactor_determinant(u)) == 1
        product = [
            [sum(u[i][k] * a[k][j] for k in range(n)) for j in range(m)]
            for i in range(n)
        ]
        assert product == [list(row) for row in h]
        pivots = []
        for row in h:
            nonzero = [j for j, v in enumerate(row) if v]
            if nonzero:
                assert row[nonzero[0]] > 0
                pivots.append(nonzero[0])
        assert pivots == sorted(pivots)
        for idx in range(1, len(pivots)):
            assert pivots[idx] > pivots[idx - 1]
        # entries above a pivot are reduced into [0, pivot)
        nonzero_rows = [row for row in h if any(row)]
        for r, row in enumerate(nonzero_rows):
            p = next(j for j, v in enumerate(row) if v)
            for above in nonzero_rows[:r]:
                assert 0 <= above[p] < row[p]


@st.composite
def _integer_matrices(draw):
    """Matrices of 0 to 6 rows and 0 to 6 columns, some rows a
    combination of two others, so that the rank falls short."""
    n, m = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    bound = draw(st.sampled_from((1, 3, 50)))
    entries = st.integers(-bound, bound)
    rows = [draw(st.lists(entries, min_size=m, max_size=m)) for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        x, y = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows.append([x * a + y * b for a, b in zip(rows[0], rows[-1])])
    return rows


@settings(max_examples=150, deadline=None)
@given(_integer_matrices())
def test_hermite_form_without_transform_is_the_transformed_one(rows):
    # the two share one elimination; only the transform is skipped
    h, _ = hermite_with_transform(rows)
    assert hermite_normal_form(rows) == tuple(tuple(r) for r in h if any(r))
    assert rational_rank(rows) == oracles.rational_rank(rows)


def test_hermite_normal_form_drops_zero_rows():
    h = hermite_normal_form([[2, 4], [1, 2], [0, 0]])
    assert h == ((1, 2),)


def test_kernel_basis_annihilates_and_saturates():
    import itertools
    import math

    rng = random.Random(13)
    for _ in range(25):
        n, m = rng.randint(1, 5), rng.randint(1, 4)
        a = random_matrix(rng, n, m)
        kernel = kernel_basis(a)
        for v in kernel:
            assert all(
                sum(v[i] * a[i][j] for i in range(n)) == 0 for j in range(m)
            )
        assert len(kernel) == n - rational_rank(a)
        if kernel:
            # saturated iff the gcd over all maximal minors is 1
            r = len(kernel)
            minors = [
                cofactor_determinant([[v[j] for j in cols] for v in kernel])
                for cols in itertools.combinations(range(n), r)
            ]
            assert math.gcd(*minors) == 1


def test_rational_rank_frozen():
    assert rational_rank([[1, 0], [0, 1]]) == 2
    assert rational_rank([[1, 2], [2, 4]]) == 1
    assert rational_rank([[0, 0], [0, 0]]) == 0
    assert rational_rank([]) == 0


def test_rational_rank_matches_fraction_elimination():
    rng = random.Random(19)
    for _ in range(60):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        a = random_matrix(rng, n, m, bound=rng.choice((1, 3, 9)))
        if rng.random() < 0.4:
            # force a dependent row
            a.append([2 * x - y for x, y in zip(a[0], a[-1])])
        assert rational_rank(a) == oracles.rational_rank(a)
    for rows in ([], [[]], [[], []], [[0, 0, 0]]):
        assert rational_rank(rows) == oracles.rational_rank(rows) == 0
    for call in (rational_rank, oracles.rational_rank, is_negative_semidefinite):
        with pytest.raises(ValueError, match="ragged matrix"):
            call([[1, 2], [3]])


def test_an_entry_that_is_not_an_integer_is_named():
    # a float or a string is refused, not truncated by int()
    for call, rows, message in (
        (rational_rank, [[0.5, 0]], "matrix entry (0, 0) must be an integer, not 0.5"),
        (bareiss_determinant, [[2, 0], [0, 1.9]], "matrix entry (1, 1) must be an integer, not 1.9"),
        (hermite_normal_form, [[1, 1], ["3", 1]], "matrix entry (1, 0) must be an integer, not '3'"),
        (kernel_basis, [[1, None]], "matrix entry (0, 1) must be an integer, not None"),
        (is_negative_semidefinite, [[-0.5, 0], [0, -1]], "matrix entry (0, 0) must be an integer, not -0.5"),
        (is_negative_semidefinite, [[-2.5]], "matrix entry (0, 0) must be an integer, not -2.5"),
    ):
        with pytest.raises(TypeError) as info:
            call(rows)
        assert str(info.value) == message
    # an integer-like entry is the int it stands for
    assert bareiss_determinant([[True, 0], [0, 2]]) == 2


def test_negative_semidefinite_frozen_cases():
    # negatives of ADE Cartan matrices are negative definite
    a2 = [[-2, 1], [1, -2]]
    assert is_negative_semidefinite(a2)
    # a fibre Gram has the fibre itself in its kernel
    cycle = [[-2, 1, 1], [1, -2, 1], [1, 1, -2]]
    assert is_negative_semidefinite(cycle)
    assert not is_negative_semidefinite([[1]])
    assert not is_negative_semidefinite([[0, 1], [1, 0]])
    assert not is_negative_semidefinite([[-2, 3], [3, -2]])
    assert is_negative_semidefinite([])
    assert is_negative_semidefinite([[0]])


def test_negative_semidefinite_matches_eigenvalues():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 5)
        b = np.array(random_matrix(rng, n, n, bound=3))
        if rng.random() < 0.5:
            g = -(b @ b.T)  # semidefinite by construction
        else:
            g = b + b.T
        top = float(np.linalg.eigvalsh(g.astype(float)).max())
        got = is_negative_semidefinite([[int(v) for v in row] for row in g])
        if top > 1e-8:
            assert not got
        elif top < -1e-8 or abs(top) < 1e-12:
            assert got


def _principal_minors_nonnegative(rows) -> bool:
    """A symmetric matrix is positive semidefinite exactly when every
    principal minor, not only every leading one, is nonnegative."""
    n = len(rows)
    for mask in range(1, 1 << n):
        keep = [i for i in range(n) if mask >> i & 1]
        if cofactor_determinant([[rows[i][j] for j in keep] for i in keep]) < 0:
            return False
    return True


def test_negative_semidefinite_with_zero_pivots_and_large_entries():
    # a zero first pivot in a zero row; a pivot that turns zero after one
    # step, in a zero row and in a nonzero row
    assert is_negative_semidefinite([[0, 0, 0], [0, -2, 1], [0, 1, -2]])
    assert is_negative_semidefinite([[-1, -1, 0], [-1, -1, 0], [0, 0, -3]])
    assert not is_negative_semidefinite([[-1, -1, 1], [-1, -1, 0], [1, 0, -3]])
    # -(B B^T) with entries near 10^24 and rank below n, some rows of B zero
    # or repeated, so pivots vanish; then one diagonal entry nudged by 1,
    # which no floating-point eigenvalue resolves
    rng = random.Random(29)
    big = 10**12
    outcomes = set()
    for _ in range(60):
        n = rng.randint(2, 5)
        r = rng.randint(1, n - 1)
        b = []
        for _ in range(n):
            pick = rng.random()
            if pick < 0.2:
                b.append([0] * r)
            elif pick < 0.4 and b:
                b.append(list(rng.choice(b)))
            else:
                b.append([rng.randint(-big, big) for _ in range(r)])
        g = [[-sum(x * y for x, y in zip(bi, bj)) for bj in b] for bi in b]
        assert is_negative_semidefinite(g)
        i = rng.randrange(n)
        g[i][i] += 1
        expected = _principal_minors_nonnegative([[-x for x in row] for row in g])
        assert is_negative_semidefinite(g) == expected
        outcomes.add(expected)
    assert outcomes == {True, False}

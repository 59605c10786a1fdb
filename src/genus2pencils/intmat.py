"""Small exact linear algebra helpers over the integers.

Matrices are sequences of equal-length integer rows.  Results stay
integral wherever the mathematics guarantees it: Bareiss elimination for
determinants, and one Hermite-form elimination for kernels.  That
elimination carries a unimodular transform only for the callers that
read one (hermite_with_transform, kernel_basis); the Hermite form skips
it.  The rank needs neither pivots nor a transform: it eliminates
column by column, leaves alone a row that holds 0 in the pivot column,
and divides every row it changes by the gcd of its entries.  The
catalog's uniqueness certificates are ranks.
The semidefiniteness test scales each Schur complement by its positive
pivot, so it stays integral too.  It has no caller in the library: fibre
validation gets semidefiniteness from its other checks.  It stays as the
tests' reference for that argument, and because the benchmark's tracer
wraps it by name.  Floating point never appears: an entry that is not
an integer (a float, a string) is a TypeError naming it, not truncated.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd
from operator import index

__all__ = [
    "bareiss_determinant",
    "hermite_normal_form",
    "hermite_with_transform",
    "kernel_basis",
    "rational_rank",
    "is_negative_semidefinite",
]

Matrix = Sequence[Sequence[int]]


def _copy(rows: Matrix) -> list[list[int]]:
    try:
        out = [list(map(index, r)) for r in rows]
    except TypeError:
        for i, r in enumerate(rows):
            for j, x in enumerate(r):
                try:
                    index(x)
                except TypeError:
                    raise TypeError(
                        f"matrix entry ({i}, {j}) must be an integer, not {x!r}"
                    ) from None
        raise
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged matrix")
    return out


def bareiss_determinant(rows: Matrix) -> int:
    """Determinant of a square integer matrix, fraction-free."""
    m = _copy(rows)
    n = len(m)
    if n == 0:
        return 1
    if len(m[0]) != n:
        raise ValueError("determinant needs a square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # exact division is a theorem, not an assumption
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[-1][-1]


def _hermite(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Row Hermite form of the first ncols columns, in place: every row
    operation acts on the whole row, so columns past ncols carry a
    transform along when the caller appends one.

    The row count is kept (zero rows sink to the bottom); pivots are
    positive and entries above each pivot are reduced into [0, pivot).
    """
    nrows = len(rows)
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        while True:
            live = [i for i in range(row, nrows) if rows[i][col] != 0]
            if not live:
                break
            pivot = min(live, key=lambda i: abs(rows[i][col]))
            if pivot != row:
                rows[row], rows[pivot] = rows[pivot], rows[row]
            if rows[row][col] < 0:
                rows[row] = [-x for x in rows[row]]
            done = True
            for i in range(row + 1, nrows):
                q = rows[i][col] // rows[row][col]
                if q:
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[row])]
                if rows[i][col] != 0:
                    done = False
            if done:
                break
        if rows[row][col] != 0:
            for i in range(row):
                q = rows[i][col] // rows[row][col]
                if q:
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[row])]
            row += 1
    return rows


def hermite_with_transform(rows: Matrix) -> tuple[list[list[int]], list[list[int]]]:
    """Row Hermite form H of the input A plus a unimodular U with U*A = H.

    H keeps the full row count (zero rows sink to the bottom); pivots are
    positive and entries above each pivot are reduced into [0, pivot).
    U is read off the identity block of the eliminated [A | I].
    """
    a = _copy(rows)
    ncols = len(a[0]) if a else 0
    n = len(a)
    both = _hermite([r + [int(i == j) for j in range(n)] for i, r in enumerate(a)], ncols)
    return [r[:ncols] for r in both], [r[ncols:] for r in both]


def hermite_normal_form(rows: Matrix) -> tuple[tuple[int, ...], ...]:
    """Nonzero rows of the row Hermite form, eliminated without a transform."""
    a = _copy(rows)
    return tuple(tuple(r) for r in _hermite(a, len(a[0]) if a else 0) if any(r))


def kernel_basis(rows: Matrix) -> tuple[tuple[int, ...], ...]:
    """Basis of the saturated left integer kernel: all v with v*A = 0.

    Returned as rows; the lattice they span is exactly the kernel, not a
    finite-index sublattice, because the transform matrix is unimodular.
    """
    h, u = hermite_with_transform(rows)
    return tuple(tuple(u[i]) for i in range(len(h)) if not any(h[i]))


def rational_rank(rows: Matrix) -> int:
    """Rank over the rationals: the number of pivot columns of an integer
    row elimination.  Each changed row is p*row - a*pivot_row divided by
    the gcd of its entries: a rational combination that keeps the row
    space and keeps the entries small.  A row holding 0 in the pivot
    column is not touched, which spares most rows of the catalog's
    mostly-zero class rows."""
    m = _copy(rows)
    n = len(m)
    rank = 0
    for col in range(len(m[0]) if m else 0):
        for pivot in range(rank, n):
            if m[pivot][col]:
                break
        else:
            continue
        top = m[pivot]
        m[rank], m[pivot] = top, m[rank]
        p = top[col]
        for i in range(rank + 1, n):
            a = m[i][col]
            if a:
                row = [x * p - a * y for x, y in zip(m[i], top)]
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        rank += 1
    return rank


def is_negative_semidefinite(gram: Matrix) -> bool:
    """Exact test for x^T G x <= 0 on a symmetric integer Gram matrix."""
    g = [[-x for x in r] for r in _copy(gram)]
    n = len(g)
    if any(len(r) != n for r in g):
        raise ValueError("semidefiniteness needs a square matrix")
    # positive-semidefinite test on -G by recursive Schur complements, each
    # scaled by its pivot d > 0: d*S is an integer matrix with the same
    # signature as S
    while g:
        d = g[0][0]
        if d < 0:
            return False
        if d == 0:
            # a PSD matrix with zero diagonal entry has a zero row
            if any(g[0][j] for j in range(1, len(g))):
                return False
            g = [row[1:] for row in g[1:]]
            continue
        top = g[0]
        g = [[d * row[j] - row[0] * top[j] for j in range(1, len(g))] for row in g[1:]]
    return True

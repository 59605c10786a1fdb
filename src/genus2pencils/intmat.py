"""Small exact linear algebra helpers over the integers.

Matrices are sequences of equal-length integer rows.  Results stay
integral wherever the mathematics guarantees it: Bareiss elimination for
determinants, and one Hermite-form elimination for kernels and ranks.
The semidefiniteness test scales each Schur complement by its positive
pivot, so it stays integral too.  It has no caller in the library: fibre
validation gets semidefiniteness from its other checks.  It stays as the
tests' reference for that argument, and because the benchmark's tracer
wraps it by name.  Floating point never appears.
"""

from __future__ import annotations

from typing import Sequence

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
    out = [list(map(int, r)) for r in rows]
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


def hermite_with_transform(rows: Matrix) -> tuple[list[list[int]], list[list[int]]]:
    """Row Hermite form H of the input A plus a unimodular U with U*A = H.

    H keeps the full row count (zero rows sink to the bottom); pivots are
    positive and entries above each pivot are reduced into [0, pivot).
    """
    h = _copy(rows)
    nrows = len(h)
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    ncols = len(h[0]) if h else 0
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        while True:
            live = [i for i in range(row, nrows) if h[i][col] != 0]
            if not live:
                break
            pivot = min(live, key=lambda i: abs(h[i][col]))
            if pivot != row:
                h[row], h[pivot] = h[pivot], h[row]
                u[row], u[pivot] = u[pivot], u[row]
            if h[row][col] < 0:
                h[row] = [-x for x in h[row]]
                u[row] = [-x for x in u[row]]
            done = True
            for i in range(row + 1, nrows):
                q = h[i][col] // h[row][col]
                if q:
                    h[i] = [a - q * b for a, b in zip(h[i], h[row])]
                    u[i] = [a - q * b for a, b in zip(u[i], u[row])]
                if h[i][col] != 0:
                    done = False
            if done:
                break
        if h[row][col] != 0:
            for i in range(row):
                q = h[i][col] // h[row][col]
                if q:
                    h[i] = [a - q * b for a, b in zip(h[i], h[row])]
                    u[i] = [a - q * b for a, b in zip(u[i], u[row])]
            row += 1
    return h, u


def hermite_normal_form(rows: Matrix) -> tuple[tuple[int, ...], ...]:
    """Nonzero rows of the row Hermite form."""
    h, _ = hermite_with_transform(rows)
    return tuple(tuple(r) for r in h if any(r))


def kernel_basis(rows: Matrix) -> tuple[tuple[int, ...], ...]:
    """Basis of the saturated left integer kernel: all v with v*A = 0.

    Returned as rows; the lattice they span is exactly the kernel, not a
    finite-index sublattice, because the transform matrix is unimodular.
    """
    h, u = hermite_with_transform(rows)
    return tuple(tuple(u[i]) for i in range(len(h)) if not any(h[i]))


def rational_rank(rows: Matrix) -> int:
    """Rank over the rationals: the number of nonzero Hermite rows."""
    return len(hermite_normal_form(rows))


def is_negative_semidefinite(gram: Matrix) -> bool:
    """Exact test for x^T G x <= 0 on a symmetric integer Gram matrix."""
    g = [[-x for x in r] for r in gram]
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

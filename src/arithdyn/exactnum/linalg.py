"""Exact linear algebra over the rationals: RREF and a kernel vector."""

from __future__ import annotations

from fractions import Fraction


def rref(matrix: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rref_matrix, pivot_columns)."""
    m = [[Fraction(x) for x in row] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def kernel_vector(matrix: list[list[Fraction]], ncols: int) -> list[Fraction]:
    """The right-kernel vector of the reduced echelon form's first free column
    (1 there, 0 at the other free columns); the matrix has rows and fewer of
    them than ``ncols``, so that column exists."""
    m, pivots = rref(matrix)
    fc = next(c for c in range(ncols) if c not in pivots)
    v = [Fraction(0)] * ncols
    v[fc] = Fraction(1)
    for r, pc in enumerate(pivots):
        v[pc] = -m[r][fc]
    return v

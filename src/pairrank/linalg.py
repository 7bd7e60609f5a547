"""Exact linear algebra over the rationals.

Matrices are plain lists of lists of :class:`fractions.Fraction` (any
nested sequence works as input; rows are copied before elimination).
Nothing here ever touches floating point: pivoting compares exact
magnitudes, and a pivot is chosen only to keep intermediate numerators
and denominators small, never for numerical stability, which is not a
concept that applies.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import FullRank, RankTooLow, SingularMatrix

Matrix = list[list[Fraction]]
Vector = list[Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


def mat_vec(a: Sequence[Sequence[Fraction]], x: Sequence[Fraction]) -> Vector:
    return [sum((row[j] * x[j] for j in range(len(x))), ZERO) for row in a]


def _copy(a: Sequence[Sequence[Fraction]]) -> Matrix:
    return [[Fraction(v) for v in row] for row in a]


def solve(a: Sequence[Sequence[Fraction]], b: Sequence[Fraction]) -> Vector:
    """Solve the square system a x = b exactly.

    Parameters
    ----------
    a : n x n matrix of rationals.
    b : right-hand side of length n.

    Returns
    -------
    The unique solution vector, as Fractions.

    Raises
    ------
    SingularMatrix
        If elimination exhausts a column without finding a nonzero
        pivot, i.e. the system has no unique solution.

    Notes
    -----
    Gaussian elimination with partial pivoting on the exact absolute
    value. Every step is rational arithmetic, so the result satisfies
    a x = b identically, not approximately; callers are encouraged to
    assert that when the system matters.
    """
    n = len(a)
    if any(len(row) != n for row in a) or len(b) != n:
        raise ValueError("solve needs a square matrix and a matching vector")
    rows = _copy(a)
    rhs = [Fraction(v) for v in b]
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(rows[r][col]))
        if rows[pivot_row][col] == 0:
            raise SingularMatrix(f"no pivot in column {col}")
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            rhs[col], rhs[pivot_row] = rhs[pivot_row], rhs[col]
        pivot = rows[col][col]
        for r in range(col + 1, n):
            factor = rows[r][col] / pivot
            if factor == 0:
                continue
            for c in range(col, n):
                rows[r][c] -= factor * rows[col][c]
            rhs[r] -= factor * rhs[col]
    x = [ZERO] * n
    for i in range(n - 1, -1, -1):
        acc = rhs[i]
        for j in range(i + 1, n):
            acc -= rows[i][j] * x[j]
        x[i] = acc / rows[i][i]
    return x


def nullspace_1d(a: Sequence[Sequence[Fraction]]) -> Vector:
    """Return a nonzero vector spanning the nullspace of ``a``.

    The matrix is reduced to row echelon form exactly. Exactly one free
    column must remain: with none the nullspace is trivial (FullRank),
    with two or more it is not a line (RankTooLow) and the caller's
    model assumptions are broken. The returned vector has a 1 in the
    free coordinate and is otherwise whatever back substitution gives;
    callers normalize to taste.
    """
    rows = _copy(a)
    if not rows:
        raise ValueError("empty matrix")
    m, n = len(rows), len(rows[0])
    if any(len(row) != n for row in rows):
        raise ValueError("ragged matrix")
    pivot_cols: list[int] = []
    rank = 0
    for col in range(n):
        pivot_row = None
        best = ZERO
        for r in range(rank, m):
            if abs(rows[r][col]) > best:
                best = abs(rows[r][col])
                pivot_row = r
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pivot = rows[rank][col]
        rows[rank] = [v / pivot for v in rows[rank]]
        for r in range(m):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [v - factor * p for v, p in zip(rows[r], rows[rank])]
        pivot_cols.append(col)
        rank += 1
        if rank == m:
            break
    free_cols = [c for c in range(n) if c not in pivot_cols]
    if not free_cols:
        raise FullRank("matrix has a trivial nullspace")
    if len(free_cols) > 1:
        raise RankTooLow(f"nullspace has dimension {len(free_cols)}, expected 1")
    free = free_cols[0]
    v = [ZERO] * n
    v[free] = ONE
    for r, col in enumerate(pivot_cols):
        v[col] = -rows[r][free]
    return v

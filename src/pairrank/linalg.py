"""Exact linear algebra over the rationals, computed in integers.

Inputs are nested sequences of ints or rationals; results are lists of
ints, over one denominator D. Nothing here ever touches floating point.

Both kernels run one routine, :func:`_eliminate`: fraction-free
Gauss–Jordan elimination over Python ints (E. H. Bareiss, *Sylvester's
identity and multistep integer-preserving Gaussian elimination*, Math.
Comp. 22, 1968). Rational input is first scaled to integers row by row,
each row by the lcm of its denominators; that changes neither the
solution of a system nor the nullspace of a matrix. With ``p`` the new
pivot and ``previous`` the one before it (1 at the start), every row
other than the pivot row becomes ``(p * row - f * pivot_row) //
previous``, where ``f`` is the row's entry in the pivot column. By
Sylvester's identity every entry is then, up to sign, a minor of the
scaled input, so each division is exact, no entry grows beyond the
size of a minor, and at the end every pivot equals the last one, D.
Results are read off as those integers, and nothing is divided by D.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import FullRank, RankTooLow, SingularMatrix

Matrix = Sequence[Sequence[int | Fraction]]
Vector = list[int]


def mat_vec(a: Matrix, x: Sequence[int | Fraction]) -> list[int | Fraction]:
    """The product a x; integer input gives integers."""
    return [sum(row[j] * x[j] for j in range(len(x))) for row in a]


def _integer_row(row) -> list[int]:
    """``row`` times the lcm of its denominators, as ints."""
    values = [v if isinstance(v, int) else Fraction(v) for v in row]
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values]


def _eliminate(rows: list[list[int]], columns: int) -> tuple[list[int], int]:
    """Reduce ``rows`` in place by fraction-free Gauss–Jordan elimination.

    Columns ``0 .. columns - 1`` are eliminated left to right; a column
    with no nonzero entry at or below the current rank is skipped.
    Returns the pivot columns and the last pivot D (1 if there is none).
    Afterwards row k has D in column ``pivots[k]`` and every other row
    has 0 there, so row k reads D x[pivots[k]] + (free columns) = rhs.
    """
    m = len(rows)
    pivots: list[int] = []
    previous = 1
    for col in range(columns):
        rank = len(pivots)
        if rank == m:
            break
        pivot_index = next((r for r in range(rank, m) if rows[r][col]), None)
        if pivot_index is None:
            continue
        rows[rank], rows[pivot_index] = rows[pivot_index], rows[rank]
        pivot_row = rows[rank]
        p = pivot_row[col]
        for i in range(m):
            if i != rank:
                f = rows[i][col]
                rows[i] = [(p * x - f * y) // previous for x, y in zip(rows[i], pivot_row)]
        previous = p
        pivots.append(col)
    return pivots, previous


def solve(a: Matrix, b: Sequence[int | Fraction]) -> tuple[Vector, int]:
    """Solve the square system a x = b exactly; return ``(X, D)``, x = X / D.

    Each row of ``[a | b]`` is scaled to integers and :func:`_eliminate`
    reduces its first n columns. Row k then reads D x[k] = row[n], so
    X is the last column (Cramer's rule; D may be negative) and a X = D b.
    Raises SingularMatrix if some column has no nonzero pivot, i.e. the
    system has no unique solution.
    """
    n = len(a)
    if any(len(row) != n for row in a) or len(b) != n:
        raise ValueError("solve needs a square matrix and a matching vector")
    rows = [_integer_row([*row, v]) for row, v in zip(a, b)]
    pivots, last = _eliminate(rows, n)
    if len(pivots) < n:
        missing = next(c for c in range(n) if c not in pivots)
        raise SingularMatrix(f"no pivot in column {missing}")
    return [row[n] for row in rows], last


def nullspace_1d(a: Matrix) -> Vector:
    """Return a nonzero vector spanning the nullspace of ``a``.

    Each row is scaled to integers and :func:`_eliminate` reduces the
    whole matrix. Exactly one free column must remain: with none the
    nullspace is trivial (FullRank), with two or more it is not a line
    (RankTooLow) and the caller's model assumptions are broken. The
    returned vector has the last pivot D in the free coordinate and
    ``-row[k][free]`` in pivot column k, so its entries are integers
    (minors of the scaled input), not 1 in the free coordinate;
    callers normalize to taste.
    """
    if not a:
        raise ValueError("empty matrix")
    n = len(a[0])
    if any(len(row) != n for row in a):
        raise ValueError("ragged matrix")
    rows = [_integer_row(row) for row in a]
    pivots, last = _eliminate(rows, n)
    free_cols = [c for c in range(n) if c not in pivots]
    if not free_cols:
        raise FullRank("matrix has a trivial nullspace")
    if len(free_cols) > 1:
        raise RankTooLow(f"nullspace has dimension {len(free_cols)}, expected 1")
    free = free_cols[0]
    v = [0] * n
    v[free] = last
    for row, col in zip(rows, pivots):
        v[col] = -row[free]
    return v

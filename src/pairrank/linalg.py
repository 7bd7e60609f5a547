"""Exact linear algebra over the rationals, computed in integers.

Inputs are nested sequences of ints, and only ints: a float, a Fraction
or a bool entry raises TypeError. Results are lists of ints, over one
denominator D. Nothing here ever touches floating point.

Both kernels run fraction-free forward elimination over Python ints,
:func:`_eliminate` (E. H. Bareiss, *Sylvester's identity and multistep
integer-preserving Gaussian elimination*, Math. Comp. 22, 1968), then
integer back substitution, :func:`_back_substitute`. With ``p`` the new
pivot and ``previous`` the one before it (1 at the start), every row
below the pivot row becomes ``(p * row - f * pivot_row) // previous``
right of the pivot column, ``f`` being the row's entry in that column.
By Sylvester's identity every such entry is, up to sign, a minor of the
input, so each division is exact and no entry outgrows a minor. The
results are the integer vector D x, with D the last pivot: by Cramer's
rule its entries are minors too, so the back substitution's divisions
are exact as well, and a nonzero remainder is raised as an internal
error.

The row-sum and least-squares systems are symmetric, and elimination
keeps them so: before any row swap, the entry in row i and column j
after pivot k is the minor of the leading k + 1 rows and columns
bordered by row i and column j, and transposing that minor swaps i and
j. So on a symmetric square block each pivot updates only the entries
on and right of each lower row's diagonal, about n**3 / 6 updates in
place of n**3 / 3, and reads the row's factor ``f`` from the pivot row,
where the same minor stands above the diagonal.
"""

from __future__ import annotations

import operator
from typing import Sequence

from .errors import FullRank, RankTooLow, SingularMatrix

Matrix = Sequence[Sequence[int]]
Vector = list[int]


def mat_vec(a: Matrix, x: Sequence[int]) -> list[int]:
    """The product a x, for rows as long as x."""
    return [sum(map(operator.mul, row, x)) for row in a]


def _integer_row(row) -> list[int]:
    """A new list of ``row``'s entries; any entry but an int, even a bool, raises TypeError."""
    if set(map(type, row)) <= {int}:
        return list(row)
    bad = next(v for v in row if type(v) is not int)
    raise TypeError(f"linalg takes ints only, got {bad!r}")


def _is_symmetric(rows: list[list[int]], columns: int) -> bool:
    """Whether ``rows`` are ``columns`` rows whose leading square block is symmetric."""
    if len(rows) != columns:
        return False
    for i in range(1, columns):
        row = rows[i]
        for j in range(i):
            if row[j] != rows[j][i]:
                return False
    return True


def _eliminate(rows: list[list[int]], columns: int) -> tuple[list[int], int]:
    """Reduce ``rows`` in place to echelon form U by forward elimination.

    Columns ``0 .. columns - 1`` are eliminated left to right; a column
    with no nonzero entry at or below the current rank is skipped, and
    otherwise the first such row is swapped up to be the pivot row.
    Only the rows below it change, and only right of the pivot column;
    nothing reads the stale entries left of that. Returns the pivot
    columns and the last pivot D (1 if there is none).

    When the rows form a symmetric ``columns`` x ``columns`` block (plus
    any columns to its right), the pivots stay on the diagonal, and each
    lower row is updated only from its diagonal rightwards, with its
    factor read from the pivot row (see the module docstring). The
    entries below the diagonal are then left as given. At the first
    zero diagonal pivot a swap would break the symmetry, so the upper
    entries of the block still to be reduced are copied below its
    diagonal, where they equal what the full update would have left
    there, and elimination goes on as above: the pivots, D and every
    entry that back substitution reads are the same on either path.
    """
    m = len(rows)
    pivots: list[int] = []
    previous = 1
    symmetric = _is_symmetric(rows, columns)
    for col in range(columns):
        rank = len(pivots)
        if rank == m:
            break
        if symmetric:
            pivot_row = rows[col]
            p = pivot_row[col]
            if p:
                for i in range(col + 1, m):
                    row, f = rows[i], pivot_row[i]
                    row[i:] = [(p * x - f * y) // previous for x, y in zip(row[i:], pivot_row[i:])]
                previous = p
                pivots.append(col)
                continue
            symmetric = False
            for i in range(col + 1, m):
                rows[i][col:i] = [rows[j][i] for j in range(col, i)]
        for pivot_index in range(rank, m):
            if rows[pivot_index][col]:
                break
        else:
            continue
        rows[rank], rows[pivot_index] = rows[pivot_index], rows[rank]
        p = rows[rank][col]
        tail = rows[rank][col + 1:]
        for row in rows[rank + 1:]:
            f = row[col]
            row[col + 1:] = [(p * x - f * y) // previous for x, y in zip(row[col + 1:], tail)]
        previous = p
        pivots.append(col)
    return pivots, previous


def _back_substitute(rows: list[list[int]], pivots: list[int], v: Vector) -> Vector:
    """Fill the pivot coordinates of ``v`` so that U v = 0, and return it.

    From the last pivot row up, row k with pivot column c gives
    ``v[c] = -(sum of U[k][j] v[j] over j > c) / U[k][c]``.
    """
    for k in reversed(range(len(pivots))):
        row, col = rows[k], pivots[k]
        total = 0
        for j in range(col + 1, len(v)):
            total -= row[j] * v[j]
        v[col], remainder = divmod(total, row[col])
        if remainder:
            raise RuntimeError("internal: back substitution left a remainder")
    return v


def solve(a: Matrix, b: Sequence[int]) -> tuple[Vector, int]:
    """Solve the square system a x = b exactly; return ``(X, D)``, x = X / D.

    :func:`_eliminate` reduces the first n columns of ``[a | b]``.
    ``(X, -D)`` is in the nullspace of ``[a | b]``, so back substitution
    gives ``X[k] = (D b[k] - sum of U[k][j] X[j] over k < j < n) /
    U[k][k]``, with b the reduced last column: the integers of Cramer's
    rule (D may be negative), and a X = D b. Raises SingularMatrix,
    naming the first column without a pivot, if the system has no
    unique solution.
    """
    n = len(a)
    if not set(map(len, a)) <= {n} or len(b) != n:
        raise ValueError("solve needs a square matrix and a matching vector")
    rows = [_integer_row([*row, v]) for row, v in zip(a, b)]
    pivots, last = _eliminate(rows, n)
    if len(pivots) < n:
        missing = next(c for c in range(n) if c not in pivots)
        raise SingularMatrix(f"no pivot in column {missing}")
    return _back_substitute(rows, pivots, [0] * n + [-last])[:n], last


def nullspace_1d(a: Matrix) -> Vector:
    """Return a nonzero vector spanning the nullspace of ``a``.

    :func:`_eliminate` reduces the whole matrix. Exactly one free column
    must remain: with none the nullspace is trivial (FullRank), with two
    or more it is not a line (RankTooLow) and the caller's model
    assumptions are broken. The returned vector is D x for the member x
    with 1 in the free column: D there, the rest by back substitution.
    Its entries are minors of the input, not 1 in the free coordinate;
    callers normalize to taste.
    """
    if not a:
        raise ValueError("empty matrix")
    n = len(a[0])
    if not set(map(len, a)) <= {n}:
        raise ValueError("ragged matrix")
    rows = [_integer_row(row) for row in a]
    pivots, last = _eliminate(rows, n)
    free_cols = [c for c in range(n) if c not in pivots]
    if not free_cols:
        raise FullRank("matrix has a trivial nullspace")
    if len(free_cols) > 1:
        raise RankTooLow(f"nullspace has dimension {len(free_cols)}, expected 1")
    v = [0] * n
    v[free_cols[0]] = last
    return _back_substitute(rows, pivots, v)

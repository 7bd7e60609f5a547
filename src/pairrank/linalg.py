"""Exact linear algebra over the rationals, computed in integers.

Inputs are nested sequences of ints, and only ints: a float, a Fraction
or a bool entry raises TypeError. Results are lists of ints, over one
denominator D. Nothing here ever touches floating point.

Both kernels run fraction-free forward elimination over Python ints,
:func:`_eliminate` (E. H. Bareiss, *Sylvester's identity and multistep
integer-preserving Gaussian elimination*, Math. Comp. 22, 1968), then
integer back substitution, :func:`_back_substitute`. With ``p`` the new
pivot and ``previous`` the one before it (1 at the start), a single
step makes every row below the pivot row ``(p * row - f * pivot_row) //
previous`` right of the pivot column, ``f`` being the row's entry in
that column. By Sylvester's identity every such entry is, up to sign, a
minor of the input, so each division is exact and no entry outgrows a
minor. The results are the integer vector D x, with D the last pivot:
by Cramer's rule its entries are minors too, so the back substitution's
divisions are exact as well, and a nonzero remainder is raised as an
internal error.

A pass takes two pivots at once, by the two-step method of the same
paper. Let pivot row r have pivot p in column c, P be the previous
pivot, and every entry be at the current level. A lower row a has entry
``g = (p a[c+1] - a[c] r[c+1]) / P`` in column c + 1 one step on; the
first row with g nonzero becomes the second pivot row r', with pivot
q = its g, and takes its single step. Every row below r' then goes two
steps on at once, right of column c + 1:
``a[j] <- (q a[j] - g r'[j] + h r[j]) / P``, with
``h = (r'[c] a[c+1] - r'[c+1] a[c]) / P`` and r' still at the current
level. Expanding the second single step over the first gives this form,
with 3 products and 1 division per entry where two single steps take 4
and 2. g, h and the result are minors of the input by Sylvester's
identity (h is bordered by rows r' and a, columns c and c + 1), so each
division is exact, and the pivots, D and every pivot row from its pivot
rightwards are the ones single steps give. A single step remains at the
last column, and where no g is nonzero: column c + 1 then has no pivot
(the free column of a nullspace, or a singular system).

The row-sum and least-squares systems are symmetric, and elimination
keeps them so: before any row swap, the entry in row i and column j
after pivot k is the minor of the leading k + 1 rows and columns
bordered by row i and column j, and transposing that minor swaps i and
j. So on a symmetric square block each pass updates only the entries
on and right of each lower row's diagonal, about n**3 / 6 updates in
place of n**3 / 3. The second pivot is the diagonal entry of row c + 1
after its single step, and a lower row's g, a[c] and a[c+1] are read
from the two pivot rows, where the same minors stand above the
diagonal.
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

    A pass takes two pivots where both exist (see the module docstring):
    with pivot p in column c of row r, each lower row's next-level entry
    g in column c + 1 is computed, the first row with g nonzero is
    swapped up as the second pivot row r', brought to the next level
    with pivot q = g, and every row below it jumps two levels right of
    column c + 1. A single step remains at the last column and where no
    g is nonzero, which leaves column c + 1 without a pivot.

    When the rows form a symmetric ``columns`` x ``columns`` block (plus
    any columns to its right), the pivots stay on the diagonal, and each
    lower row is updated only from its diagonal rightwards, with g and
    its entries in columns c and c + 1 read from the pivot rows (see the
    module docstring). The entries below the diagonal are then left as
    given. At a zero first or second diagonal pivot a swap could break
    the symmetry, so the upper entries of the block still to be reduced
    are copied below its diagonal, where they equal what the full update
    would have left there, and elimination goes on as above: the pivots,
    D and every entry that back substitution reads are the same on
    either path, and the same as a single step per column gives.
    """
    m = len(rows)
    pivots: list[int] = []
    previous = 1
    symmetric = _is_symmetric(rows, columns)
    col = 0
    while col < columns and len(pivots) < m:
        rank = len(pivots)
        if symmetric:
            r = rows[col]
            p = r[col]
            if p and col + 1 < columns:
                s = rows[col + 1]
                f, d = r[col + 1], s[col + 1]
                new = [(p * x - f * y) // previous for x, y in zip(s[col + 1:], r[col + 1:])]
                q = new[0]
                if q:
                    for i in range(col + 2, m):
                        row, g, h = rows[i], new[i - col - 1], (f * s[i] - d * r[i]) // previous
                        row[i:] = [(q * x - g * y + h * z) // previous for x, y, z in zip(row[i:], s[i:], r[i:])]
                    s[col + 1:] = new
                    previous = q
                    pivots += (col, col + 1)
                    col += 2
                    continue
            elif p and col + 1 == columns:
                pivots.append(col)
                return pivots, p
            symmetric = False
            for i in range(col + 1, m):
                rows[i][col:i] = [rows[j][i] for j in range(col, i)]
        for pivot_index in range(rank, m):
            if rows[pivot_index][col]:
                break
        else:
            col += 1
            continue
        rows[rank], rows[pivot_index] = rows[pivot_index], rows[rank]
        r = rows[rank]
        p = r[col]
        below = rows[rank + 1:]
        gs = [(p * row[col + 1] - row[col] * r[col + 1]) // previous for row in below] if col + 1 < columns else []
        q = next(filter(None, gs), 0)
        if q:
            t = gs.index(q)
            if t:
                below[0], below[t], gs[t] = below[t], below[0], gs[0]
                rows[rank + 1:] = below
            s = below[0]
            a, b = s[col], s[col + 1]
            tail_r, tail_s = r[col + 2:], s[col + 2:]
            for row, g in zip(below[1:], gs[1:]):
                h = (a * row[col + 1] - b * row[col]) // previous
                row[col + 2:] = [(q * x - g * y + h * z) // previous for x, y, z in zip(row[col + 2:], tail_s, tail_r)]
            s[col + 2:] = [(p * x - a * y) // previous for x, y in zip(tail_s, tail_r)]
            s[col + 1] = q
            previous = q
            pivots += (col, col + 1)
            col += 2
            continue
        tail = r[col + 1:]
        for row in below:
            f = row[col]
            row[col + 1:] = [(p * x - f * y) // previous for x, y in zip(row[col + 1:], tail)]
        previous = p
        pivots.append(col)
        col += 1
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

"""Exact linear algebra over the rationals, computed in integers.

Inputs are nested sequences of ints, and only ints: a float, a Fraction
or a bool entry raises TypeError. Results are lists of ints, over one
denominator D. Nothing here ever touches floating point.

Both kernels run fraction-free forward elimination over Python ints,
:func:`_eliminate` (E. H. Bareiss, *Sylvester's identity and multistep
integer-preserving Gaussian elimination*, Math. Comp. 22, 1968), then
integer back substitution, :func:`_back_substitute`. Let pivot row r0
have pivot p in column c, P be the pivot before it (1 at the start),
r1 and r2 be the next two rows, and every entry be at the current
level. A single step takes each lower row a to ``(p a[j] - a[c] r0[j])
/ P`` right of column c. Let g be a's entry in column c + 1 after that
step, ``h = (r1[c] a[c+1] - r1[c+1] a[c]) / P`` and q the g of r1; two
steps take a to ``(q a[j] - g r1[j] + h r0[j]) / P``. Let u be a's entry
in column c + 2 after two steps, and g2, h2 and q2 the g, h and u of r2.
Where q and q2 are both nonzero they are the next two pivots, and every
row below r2 goes three steps on at once, right of column c + 2::

    a[j] <- (q2 a[j] - u r2[j] + g3 r1[j] + h3 r0[j]) / P
    g3 = (u g2 - q2 g) / q,  h3 = (q2 h - u h2) / q

with r1 and r2 still at the current level: 4 products and 1 division
per entry where three single steps take 6 and 3. By Sylvester's
identity every entry, g, h, u, g3 and h3 included, is up to sign a
minor of the input, so each division is exact, no entry outgrows a
minor, and the pivots, D and pivot rows are the ones single steps give.
r1's single step and r2's two steps are taken only where a three-step
pass can happen, with r2 a row and c + 2 a column to eliminate; so a
pass has two shapes, the three-step update or one single step over
every lower row. The results are the integer vector D x, with D the
last pivot: by Cramer's rule its entries are minors too, so the back
substitution's divisions are exact as well, and a nonzero remainder is
raised as an internal error.

Only a zero pivot makes the loop search the rows below for a nonzero
entry and swap; a column with none has no pivot (the free column of a
nullspace, or a singular system). The methods' systems never swap.
Without a swap the pivot after k steps is the leading principal minor
of order k + 1, and theirs are all nonzero: the row-sum and grounded
least-squares matrices are symmetric positive definite, and the
grounded fair-bets block is minus a nonsingular M-matrix, whose
principal minors are all positive (A. Berman and R. J. Plemmons,
*Nonnegative Matrices in the Mathematical Sciences*, ch. 6).

Elimination keeps a symmetric matrix symmetric: before any swap, the
entry in row i and column j after pivot k is the minor of the leading
k + 1 rows and columns bordered by row i and column j, and transposing
that minor swaps i and j. So on a symmetric square block, such as the
row-sum and least-squares systems, each lower row is updated only from
its diagonal rightwards, about n**3 / 6 updates in place of n**3 / 3,
and its a[c], a[c+1] and a[c+2] are read from the three pivot rows. A
swap could break the symmetry, so at a zero diagonal pivot the upper
entries still to be reduced are first copied below the diagonal, where
they equal what the full update would have left, and the loop goes on
as for any other matrix.
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

    Columns ``0 .. columns - 1`` are eliminated left to right, one or
    three pivots per pass (see the module docstring). The pivot is the
    current row's entry in the current column; if it is zero, the first
    lower row with a nonzero entry there is swapped up, and a column
    with none is skipped. If two more rows and two more columns remain,
    the next row takes its single step, and if that leaves a nonzero q,
    the row after it takes its two steps; if they leave a nonzero q2
    too, every row below goes three steps on. In every other case the
    pass is one single step over all lower rows, and the next column is
    treated like any other. Only the rows below the pivot rows change,
    and only right of the pivot columns; nothing reads the stale entries
    left of that. Returns the pivot columns and the last pivot D (1 if
    there is none).

    When the rows form a symmetric ``columns`` x ``columns`` block (plus
    any columns to its right), the same passes run on its upper
    triangle: each lower row is updated from its own diagonal, its
    entries in the pivot columns are read from the pivot rows, and its g
    and u are the second and third pivot rows' entries in its column
    after their single and double steps. The entries below the diagonal
    stay as given until a diagonal pivot is zero; then the block's upper
    entries still to be reduced are copied below its diagonal, and
    elimination goes on as for any other matrix. The pivots, D and every
    entry that back substitution reads are the ones a single step per
    column gives.
    """
    m = len(rows)
    pivots: list[int] = []
    previous = 1
    symmetric = _is_symmetric(rows, columns)
    col = 0
    while col < columns and len(pivots) < m:
        rank = len(pivots)
        if symmetric and not rows[col][col]:
            symmetric = False
            for i in range(col + 1, m):
                rows[i][col:i] = [rows[j][i] for j in range(col, i)]
        if not rows[rank][col]:
            pivot_index = next((i for i in range(rank + 1, m) if rows[i][col]), None)
            if pivot_index is None:
                col += 1
                continue
            rows[rank], rows[pivot_index] = rows[pivot_index], rows[rank]
        r = rows[rank]
        p = r[col]
        q = q2 = 0
        if col + 2 < columns and rank + 2 < m:
            s, t, f = rows[rank + 1], rows[rank + 2], r[col + 1]
            e = f if symmetric else s[col]
            new = [(p * x - e * y) // previous for x, y in zip(s[col + 1:], r[col + 1:])]
            q = new[0]
        if q:
            d, f2, d2 = s[col + 1], r[col + 2], s[col + 2]
            a, b = (f2, d2) if symmetric else (t[col], t[col + 1])
            g2 = new[1] if symmetric else (p * b - a * f) // previous
            h2 = (e * b - d * a) // previous
            new2 = [
                (q * x - g2 * y + h2 * z) // previous for x, y, z in zip(t[col + 2:], s[col + 2:], r[col + 2:])
            ]
            q2 = new2[0]
        if q2:
            t_tail, s_tail, r_tail = t[col + 3:], s[col + 3:], r[col + 3:]
            for i in range(rank + 3, m):
                row = rows[i]
                if symmetric:
                    a, b, g, u, j = r[i], s[i], new[i - col - 1], new2[i - col - 2], i
                    t_tail, s_tail, r_tail = t[i:], s[i:], r[i:]
                    h = (e * b - d * a) // previous
                else:
                    a, b, j = row[col], row[col + 1], col + 3
                    g = (p * b - a * f) // previous
                    h = (e * b - d * a) // previous
                    u = (q * row[col + 2] - g * d2 + h * f2) // previous
                g3 = (u * g2 - q2 * g) // q
                h3 = (q2 * h - u * h2) // q
                row[j:] = [
                    (q2 * x - u * y + g3 * z + h3 * w) // previous
                    for x, y, z, w in zip(row[j:], t_tail, s_tail, r_tail)
                ]
            s[col + 1:], t[col + 2:] = new, new2
            previous = q2
            pivots += (col, col + 1, col + 2)
            col += 3
            continue
        for i in range(rank + 1, m):
            row = rows[i]
            a, j = (r[i], i) if symmetric else (row[col], col + 1)
            row[j:] = [(p * x - a * y) // previous for x, y in zip(row[j:], r[j:])]
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

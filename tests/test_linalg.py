import random
from fractions import Fraction

import pytest

from pairrank import derive
from pairrank.errors import FullRank, RankTooLow, SingularMatrix
from pairrank.fixtures import EXAMPLE_4
from pairrank.linalg import mat_vec, nullspace_1d, solve

F = Fraction


def test_solve_small_system_exactly():
    a = [[F(2), F(1)], [F(1), F(3)]]
    b = [F(5), F(10)]
    x, d = solve(a, b)
    assert [F(v, d) for v in x] == [F(1), F(3)]
    assert mat_vec(a, x) == [d * v for v in b]


def test_solve_residual_is_exact_on_random_systems():
    rng = random.Random(11)
    solved = 0
    for _ in range(60):
        n = rng.randint(2, 5)
        a = [[F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
        b = [F(rng.randint(-9, 9)) for _ in range(n)]
        try:
            x, d = solve(a, b)
        except SingularMatrix:
            continue
        assert all(isinstance(v, int) for v in [*x, d]) and d != 0
        assert mat_vec(a, x) == [d * v for v in b]
        solved += 1
    assert solved > 40


def test_solve_rejects_singular_and_ragged():
    with pytest.raises(SingularMatrix):
        solve([[F(1), F(2)], [F(2), F(4)]], [F(1), F(1)])
    with pytest.raises(ValueError):
        solve([[F(1), F(2)]], [F(1)])
    with pytest.raises(ValueError):
        solve([[F(1), F(2)], [F(1)]], [F(1), F(1)])


def test_nullspace_of_connected_laplacian_is_constant():
    lap = derive(EXAMPLE_4).laplacian
    v = nullspace_1d(lap)
    assert v[0] != 0
    assert all(x == v[0] for x in v)
    assert all(x == 0 for x in mat_vec(lap, v))


def test_nullspace_requires_dimension_one():
    with pytest.raises(FullRank):
        nullspace_1d([[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(1)]])
    with pytest.raises(RankTooLow):
        nullspace_1d([[F(0), F(0)], [F(0), F(0)]])
    with pytest.raises(ValueError):
        nullspace_1d([])


def test_nullspace_member_is_verified():
    a = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(1), F(0), F(1)]]
    # rank 2: rows 1 and 2 are proportional
    v = nullspace_1d(a)
    assert any(x != 0 for x in v)
    assert all(x == 0 for x in mat_vec(a, v))


def _sparse_rational(rng):
    # Many zeros, so that pivots vanish and rows must be swapped.
    return F(0) if rng.random() < 0.3 else F(rng.randint(-6, 6), rng.randint(1, 4))


def _matrix_of_rank(rng, rows, cols, rank):
    """A random rows x cols rational matrix of rank at most ``rank``.

    Below full column rank, half the time one column is made a multiple
    of an earlier one, so that elimination may skip a column before the
    last.
    """
    b = [[_sparse_rational(rng) for _ in range(rank)] for _ in range(rows)]
    c = [[_sparse_rational(rng) for _ in range(cols)] for _ in range(rank)]
    if cols > 1 and rank < cols and rng.random() < 0.5:
        later = rng.randrange(1, cols)
        earlier = rng.randrange(later)
        factor = F(rng.randint(-3, 3), rng.randint(1, 3))
        for row in c:
            row[later] = factor * row[earlier]
    return [[sum((b[i][k] * c[k][j] for k in range(rank)), F(0)) for j in range(cols)] for i in range(rows)]


def test_kernels_agree_with_sympy_oracle():
    sympy = pytest.importorskip("sympy")

    def exact(a):
        return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row] for row in a])

    def fraction(v):
        return F(int(v.p), int(v.q))

    rng = random.Random(2024)
    solved = singular = skipped = swapped = 0
    for _ in range(240):
        n = rng.randint(1, 6)
        rows = max(1, n + rng.choice((-1, 0, 0, 1)))
        full = min(rows, n)
        rank = full if rng.random() < 0.5 else rng.randint(0, full)
        a = _matrix_of_rank(rng, rows, n, rank)
        m = exact(a)
        _, pivots = m.rref()
        skipped += list(pivots) != list(range(len(pivots)))
        swapped += any(m[: k + 1, list(pivots[: k + 1])].det() == 0 for k in range(len(pivots)))

        basis = m.nullspace()
        if not basis:
            with pytest.raises(FullRank):
                nullspace_1d(a)
        elif len(basis) > 1:
            with pytest.raises(RankTooLow):
                nullspace_1d(a)
        else:
            v = nullspace_1d(a)
            w = [fraction(x) for x in basis[0]]
            k = next(i for i, x in enumerate(w) if x)
            ratio = v[k] / w[k]
            assert ratio != 0
            assert v == [ratio * x for x in w]

        if rows == n:
            b = [_sparse_rational(rng) for _ in range(n)]
            if m.rank() == n:
                expected = [fraction(x) for x in m.LUsolve(exact([[v] for v in b]))]
                x, d = solve(a, b)
                assert [F(v, d) for v in x] == expected
                solved += 1
            else:
                with pytest.raises(SingularMatrix):
                    solve(a, b)
                singular += 1
    assert solved > 40 and singular > 40
    assert skipped > 20 and swapped > 20

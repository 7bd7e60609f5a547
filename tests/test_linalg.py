import math
import operator
import random
from fractions import Fraction
from itertools import chain

import pytest
from conftest import flat_round_robin, labels_for, random_problem

from pairrank import RankingProblem, derive, is_connected, is_irreducible, reasonable_epsilon
from pairrank.errors import FullRank, RankTooLow, SingularMatrix
from pairrank.fixtures import EXAMPLE_4
from pairrank.linalg import _eliminate, _integer_row, mat_vec, nullspace_1d, solve

F = Fraction


def test_solve_small_system_exactly():
    a = [[2, 1], [1, 3]]
    b = [5, 10]
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
        a, b = _scaled_system(a, b)
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
        solve([[1, 2], [2, 4]], [1, 1])
    with pytest.raises(ValueError):
        solve([[1, 2]], [1])
    with pytest.raises(ValueError):
        solve([[1, 2], [1]], [1, 1])


def test_nullspace_of_connected_laplacian_is_constant():
    lap = derive(EXAMPLE_4).laplacian
    v = nullspace_1d(lap)
    assert v[0] != 0
    assert all(x == v[0] for x in v)
    assert all(x == 0 for x in mat_vec(lap, v))


def test_nullspace_requires_dimension_one():
    with pytest.raises(FullRank):
        nullspace_1d([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(RankTooLow):
        nullspace_1d([[0, 0], [0, 0]])
    with pytest.raises(ValueError):
        nullspace_1d([])


def test_nullspace_member_is_verified():
    a = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
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
                nullspace_1d(_scaled(a))
        elif len(basis) > 1:
            with pytest.raises(RankTooLow):
                nullspace_1d(_scaled(a))
        else:
            v = nullspace_1d(_scaled(a))
            w = [fraction(x) for x in basis[0]]
            k = next(i for i, x in enumerate(w) if x)
            ratio = v[k] / w[k]
            assert ratio != 0
            assert v == [ratio * x for x in w]

        if rows == n:
            b = [_sparse_rational(rng) for _ in range(n)]
            if m.rank() == n:
                expected = [fraction(x) for x in m.LUsolve(exact([[v] for v in b]))]
                x, d = solve(*_scaled_system(a, b))
                assert [F(v, d) for v in x] == expected
                solved += 1
            else:
                with pytest.raises(SingularMatrix):
                    solve(*_scaled_system(a, b))
                singular += 1
    assert solved > 40 and singular > 40
    assert skipped > 20 and swapped > 20

    # Larger sizes, where entries grow: full rank, and a nullspace line
    # from dropping the last row.
    for n in (12, 12, 32):
        a = _matrix_of_rank(rng, n, n, n)
        b = [_sparse_rational(rng) for _ in range(n)]
        expected = [fraction(x) for x in exact(a).LUsolve(exact([[v] for v in b]))]
        x, d = solve(*_scaled_system(a, b))
        assert [F(v, d) for v in x] == expected
        (basis,) = exact(a[:-1]).nullspace()
        v = nullspace_1d(_scaled(a[:-1]))
        w = [fraction(x) for x in basis]
        ratio = F(v[-1]) / w[-1]
        assert ratio != 0 and v == [ratio * x for x in w]


def _scaled_row(row):
    scale = math.lcm(*(F(v).denominator for v in row))
    return [int(F(v) * scale) for v in row]


def _scaled(a):
    """Each row times the lcm of its denominators: the same nullspace, in ints."""
    return [_scaled_row(row) for row in a]


def _scaled_system(a, b):
    """Each row of ``[a | b]`` scaled jointly: the same solution, in ints."""
    rows = [_scaled_row([*row, v]) for row, v in zip(a, b)]
    return [row[:-1] for row in rows], [row[-1] for row in rows]


def _gauss_jordan(rows, columns):
    """Reference: fraction-free Gauss–Jordan elimination, which updates
    every row but the pivot row over its full width. Returns the pivot
    columns and the last pivot; each pivot row ends with D at its pivot."""
    pivots, previous = [], 1
    for col in range(columns):
        rank = len(pivots)
        if rank == len(rows):
            break
        hit = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if hit is None:
            continue
        rows[rank], rows[hit] = rows[hit], rows[rank]
        pivot = rows[rank]
        for i, row in enumerate(rows):
            if i != rank:
                f = row[col]
                rows[i] = [(pivot[col] * x - f * y) // previous for x, y in zip(row, pivot)]
        previous = pivot[col]
        pivots.append(col)
    return pivots, previous


def _reference_solve(a, b):
    n = len(a)
    rows = [_scaled_row([*row, v]) for row, v in zip(a, b)]
    pivots, d = _gauss_jordan(rows, n)
    if len(pivots) < n:
        raise SingularMatrix(f"no pivot in column {min(set(range(n)) - set(pivots))}")
    return [row[n] for row in rows], d


def _reference_nullspace(a):
    n = len(a[0])
    rows = [_scaled_row(row) for row in a]
    pivots, d = _gauss_jordan(rows, n)
    free = [c for c in range(n) if c not in pivots]
    if len(free) != 1:
        raise (FullRank if not free else RankTooLow)()
    v = [0] * n
    v[free[0]] = d
    for row, col in zip(rows, pivots):
        v[col] = -row[free[0]]
    return v


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (SingularMatrix, FullRank, RankTooLow) as exc:
        return type(exc)


def _cases(rng):
    """Seeded matrices of every rank, mostly small, a few at n = 12 and 32."""
    for n in [*(rng.randint(1, 6) for _ in range(200)), 12, 12, 12, 12, 32, 32]:
        rows = max(1, n + rng.choice((-1, 0, 0, 1)))
        full = min(rows, n)
        rank = full if rng.random() < 0.5 else rng.randint(max(0, full - 2), full)
        yield _matrix_of_rank(rng, rows, n, rank)


def test_kernels_match_a_gauss_jordan_reference():
    rng = random.Random(77)
    solved = nulled = 0
    for a in _cases(rng):
        v = _outcome(nullspace_1d, _scaled(a))
        assert v == _outcome(_reference_nullspace, a)
        nulled += isinstance(v, list)
        if len(a) == len(a[0]):
            b = [_sparse_rational(rng) for _ in a]
            x = _outcome(solve, *_scaled_system(a, b))
            assert x == _outcome(_reference_solve, a, b)
            solved += isinstance(x, tuple)
    assert solved > 40 and nulled > 40


def test_nullspace_with_the_free_column_first_or_inside():
    # Column 0 is zero, so it is the free column.
    first = [[0, 2, 1, 0], [0, 1, 0, 3], [0, 0, 5, 1]]
    # Column 2 is column 0 minus half column 1, so it is the free column.
    inside = [[2, 4, 0, 1], [1, -2, 2, 0], [3, 0, 3, 7]]
    for a, free in ((first, 0), (inside, 2)):
        v = nullspace_1d(a)
        assert v == _reference_nullspace(a)
        assert all(x == 0 for x in mat_vec(a, v))
        assert [c for c, x in enumerate(v) if x] == ([0] if free == 0 else [0, 1, 2])
        assert abs(v[free]) == abs(_bareiss_determinant([[r[c] for c in range(4) if c != free] for r in a]))


def test_integer_rows_are_fresh_lists_of_ints():
    # Elimination works in place, so a row of ints is copied, never
    # reused: the caller's matrix comes back unchanged.
    a = [[2, 4, 0, 1], [1, -2, 2, 0], [3, 0, 3, 7]]
    kept = [row[:] for row in a]
    nullspace_1d(a)
    assert a == kept
    square, b = [[2, 1], [1, 3]], [1, 0]
    solve(square, b)
    assert square == [[2, 1], [1, 3]] and b == [1, 0]
    row = [3, -1, 0]
    assert _integer_row(row) == row and _integer_row(row) is not row
    # Only ints: a float, a Fraction or a bool (a subclass of int) is refused.
    for bad in (0.1, F(1, 2), True):
        with pytest.raises(TypeError):
            solve([[bad, 1], [1, 3]], [1, 0])
        with pytest.raises(TypeError):
            solve([[2, 1], [1, 3]], [1, bad])
        with pytest.raises(TypeError):
            nullspace_1d([[1, 2, 3], [2, 4, bad], [1, 0, 1]])


def _bareiss_determinant(m):
    rows = [list(r) for r in m]
    pivots, d = _gauss_jordan(rows, len(rows))
    return d if len(pivots) == len(rows) else 0


def test_singular_matrix_names_the_first_column_without_a_pivot():
    cases = (
        ([[1, 2, 3], [2, 4, 1], [0, 0, 5]], 1),  # column 1 is twice column 0
        ([[1, 3, 3], [2, 1, 1], [0, 5, 5]], 2),  # column 2 repeats column 1
        ([[0, 1, 3], [0, 2, 1], [0, 0, 5]], 0),  # column 0 is zero
    )
    for a, missing in cases:
        for fn in (solve, _reference_solve):
            with pytest.raises(SingularMatrix, match=f"^no pivot in column {missing}$"):
                fn(a, [1, 2, 3])


def test_last_pivot_is_the_determinant_up_to_sign():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(5)
    checked = 0
    for n in [*(rng.randint(1, 6) for _ in range(60)), 12, 12, 32]:
        a = _matrix_of_rank(rng, n, n, n)
        b = [_sparse_rational(rng) for _ in range(n)]
        scaled, b = _scaled_system(a, b)
        det = sympy.Matrix(scaled).det()
        if det == 0:
            with pytest.raises(SingularMatrix):
                solve(scaled, b)
            continue
        x, d = solve(scaled, b)
        assert abs(d) == abs(int(det))
        checked += 1
    assert checked > 30


def test_back_substitution_refuses_a_remainder(monkeypatch):
    from pairrank import linalg

    eliminate = linalg._eliminate

    def corrupted(rows, columns):
        # Off by one in the reduced right-hand side, so D x is no longer integral.
        result = eliminate(rows, columns)
        rows[-1][-1] += 1
        return result

    assert solve([[2, 1], [1, 3]], [1, 0]) == ([3, -1], 5)
    monkeypatch.setattr(linalg, "_eliminate", corrupted)
    with pytest.raises(RuntimeError, match="remainder"):
        solve([[2, 1], [1, 3]], [1, 0])


def _net(problem):
    return [sum(row) - sum(column) for row, column in zip(problem.scaled, zip(*problem.scaled))]


def _symmetric_systems(seed, n=32):
    """The row-sum system (q I + p L) x = (q + p m n) s at the reasonable
    epsilon p/q, and the grounded least-squares system L' q = s', of two
    seeded n-object tournaments: the systems the methods solve."""
    rng = random.Random(seed)
    for _ in range(2):
        problem = random_problem(rng, n, require=is_connected)
        d = derive(problem)
        eps, net = reasonable_epsilon(problem), _net(problem)
        p, q = eps.numerator, eps.denominator
        a = [[q * (i == j) + p * v for j, v in enumerate(row)] for i, row in enumerate(d.laplacian)]
        yield a, [(q + p * d.max_matches * n) * v for v in net]
        yield [list(row[:-1]) for row in d.laplacian[:-1]], net[:-1]


def _raised(fn, *args):
    """The result of ``fn``, or the class and message of the kernel error it raised."""
    try:
        return fn(*args)
    except (SingularMatrix, FullRank, RankTooLow) as exc:
        return type(exc), str(exc)


def _reference_nullspace_raised(a):
    """``_reference_nullspace`` with the kernel's error messages."""
    rows = [list(row) for row in a]
    pivots, _ = _gauss_jordan(rows, len(a[0]))
    dimension = len(a[0]) - len(pivots)
    if dimension == 0:
        return FullRank, "matrix has a trivial nullspace"
    if dimension > 1:
        return RankTooLow, f"nullspace has dimension {dimension}, expected 1"
    return _reference_nullspace(a)


def _assert_matches_the_reference(a, b):
    """Pivots, last pivot, (X, D), the nullspace and every error as the
    Gauss–Jordan reference gives them, on a symmetric integer matrix."""
    n = len(a)
    assert all(a[i][j] == a[j][i] for i in range(n) for j in range(n))
    rows, reference = ([[*row, v] for row, v in zip(a, b)] for _ in range(2))
    assert _eliminate(rows, n) == _gauss_jordan(reference, n)
    assert _raised(solve, a, b) == _raised(_reference_solve, a, b)
    assert _raised(nullspace_1d, a) == _reference_nullspace_raised(a)


def test_symmetric_systems_of_32_objects_match_the_reference():
    systems = list(_symmetric_systems(24))
    assert [len(a) for a, _ in systems] == [32, 31, 32, 31]
    for a, b in systems:
        _assert_matches_the_reference(a, b)
        x, d = solve(a, b)
        assert mat_vec(a, x) == [d * v for v in b]


def _symmetric_matrix(rng, n, rank):
    """A seeded symmetric n x n integer matrix C^T diag(w) C of rank at
    most ``rank``, sparse enough that diagonal pivots vanish."""
    c = [[0 if rng.random() < 0.4 else rng.randint(-3, 3) for _ in range(n)] for _ in range(rank)]
    w = [rng.choice((-2, -1, 1, 2)) for _ in range(rank)]
    return [[sum(w[k] * c[k][i] * c[k][j] for k in range(rank)) for j in range(n)] for i in range(n)]


def test_symmetric_matrices_with_zero_pivots_match_the_reference():
    cases = [
        [[0, 1], [1, 0]],  # zero leading minor, nonsingular
        [[1, 1, 0], [1, 1, 1], [0, 1, 1]],  # second leading minor zero, nonsingular
        [[0, 0, 1], [0, 2, 0], [1, 0, 0]],  # zero first pivot, then a swap
        [[1, 2], [2, 4]],  # singular
        [[0, 0], [0, 0]],
        [[1, 1, 1], [1, 1, 1], [1, 1, 1]],  # rank 1
        [list(row) for row in derive(EXAMPLE_4).laplacian],  # rank n - 1
    ]
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(1, 6)
        cases.append(_symmetric_matrix(rng, n, rng.randint(max(0, n - 2), n)))
    zero_pivots = singular = 0
    for a in cases:
        b = [rng.randint(-5, 5) for _ in a]
        _assert_matches_the_reference(a, b)
        zero_pivots += any(_bareiss_determinant([row[:k] for row in a[:k]]) == 0 for k in range(1, len(a) + 1))
        singular += _bareiss_determinant(a) == 0
    assert zero_pivots > 100 and singular > 50


def test_nullspace_of_the_fair_bets_matrix_of_a_flat_problem():
    rng = random.Random(12)
    flat = [flat_round_robin(n, m) for n in (2, 3, 5) for m in (1, 2)]
    # Even splits of random schedules, which need not be round robins.
    for _ in range(20):
        played = derive(random_problem(rng, rng.randint(2, 6), require=is_connected)).matches
        flat.append(RankingProblem(labels_for(len(played)), [[F(v, 2) for v in row] for row in played]))
    for problem in flat:
        t = problem.scaled
        losses = [sum(column) for column in zip(*t)]
        a = [[v - losses[i] * (i == j) for j, v in enumerate(row)] for i, row in enumerate(t)]
        _assert_matches_the_reference(a, [0] * len(a))
        v = nullspace_1d(a)
        assert v[0] != 0 and v == [v[0]] * len(v)


def test_one_asymmetric_pair_takes_the_general_path():
    a, b = next(_symmetric_systems(26, n=6))
    for i in range(6):
        for j in range(6):
            if i != j:
                c = [row[:] for row in a]
                c[i][j] += 1
                assert _raised(solve, c, b) == _raised(_reference_solve, c, b)


def test_symmetric_elimination_leaves_the_lower_triangle_as_given():
    # Positive definite: the pivots stay on the diagonal, and each row is
    # updated from its diagonal rightwards only. The full update would
    # change row 2 in column 1 (to 4 * 3 - 2 * 1 = 10).
    a, b = [[4, 1, 2], [1, 5, 3], [2, 3, 6]], [1, 2, 3]
    rows = [[*row, v] for row, v in zip(a, b)]
    assert _eliminate(rows, 3) == ([0, 1, 2], _bareiss_determinant(a))
    assert all(rows[i][j] == a[i][j] for i in range(3) for j in range(i))
    for a, b in _symmetric_systems(25, n=8):
        rows = [[*row, v] for row, v in zip(a, b)]
        n = len(a)
        assert _eliminate(rows, n)[0] == list(range(n))
        assert all(rows[i][j] == a[i][j] for i in range(n) for j in range(i))


def _one_step_eliminate(rows, columns):
    """Reference: the fraction-free elimination with one pivot per pass,
    on the symmetric half where the rows allow it, as it stood before
    the multistep passes."""
    m = len(rows)
    pivots = []
    previous = 1
    symmetric = len(rows) == columns and all(rows[i][j] == rows[j][i] for i in range(m) for j in range(i))
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


def _integer_matrix(rng, rows, cols, rank, free=None):
    """A seeded sparse rows x cols integer matrix of rank at most
    ``rank``; column ``free``, if given, is a combination of the columns
    before it (zero if it is the first), so it takes no pivot."""
    b = [[0 if rng.random() < 0.3 else rng.randint(-4, 4) for _ in range(rank)] for _ in range(rows)]
    c = [[0 if rng.random() < 0.3 else rng.randint(-4, 4) for _ in range(cols)] for _ in range(rank)]
    a = [[sum(b[i][k] * c[k][j] for k in range(rank)) for j in range(cols)] for i in range(rows)]
    if free is not None:
        weights = [rng.randint(-2, 2) for _ in range(free)]
        for row in a:
            row[free] = sum(w * v for w, v in zip(weights, row))
    return a


def _elimination_cases(rng):
    """(rows, columns) pairs for the oracle: matrices of every rank with
    n - 1, n or n + 1 rows, eliminated whole or with the last column as a
    right-hand side; a free column first, inside and last; symmetric
    matrices whose leading minors vanish; and the row-sum, grounded
    least-squares and grounded fair-bets systems of 32- and 64-object
    tournaments."""
    for _ in range(2400):
        n = rng.randint(1, 7)
        rows = max(1, n + rng.choice((-1, 0, 1)))
        full = min(rows, n)
        a = _integer_matrix(rng, rows, n, full if rng.random() < 0.5 else rng.randint(0, full))
        yield a, n - rng.randint(0, 1)
    for _ in range(1200):
        n = rng.randint(2, 7)
        free = rng.choice((0, rng.randrange(1, n - 1) if n > 2 else 0, n - 1))
        yield _integer_matrix(rng, n - rng.randint(0, 1), n, n - 1, free), n
    for _ in range(2000):
        n = rng.randint(1, 7)
        a = _symmetric_matrix(rng, n, rng.randint(max(0, n - 2), n))
        if rng.random() < 0.5:
            yield a, n
        else:
            yield [[*row, rng.randint(-5, 5)] for row in a], n
    for n in (32, 64):
        for a, b in _tournament_systems(rng, n):
            yield [[*row, v] for row, v in zip(a, b)], len(a)


def _tournament_systems(rng, n):
    """The row-sum system at the reasonable epsilon, the grounded
    least-squares system and the grounded fair-bets system of a seeded
    irreducible n-object tournament: the systems the methods solve."""
    problem = random_problem(rng, n, require=is_irreducible)
    d = derive(problem)
    eps, net = reasonable_epsilon(problem), _net(problem)
    p, q = eps.numerator, eps.denominator
    yield [[q * (i == j) + p * v for j, v in enumerate(row)] for i, row in enumerate(d.laplacian)], [
        (q + p * d.max_matches * n) * v for v in net
    ]
    yield [list(row[:-1]) for row in d.laplacian[:-1]], net[:-1]
    t = problem.scaled
    losses = [sum(column) for column in zip(*t)]
    a = [[v - losses[i] * (i == j) for j, v in enumerate(row)] for i, row in enumerate(t)]
    yield [row[:-1] for row in a[:-1]], [-row[-1] for row in a[:-1]]


def test_multistep_elimination_matches_one_step_elimination():
    rng = random.Random(2026)
    # Each fallback to a single step, on a symmetric and a general matrix,
    # with and without a right-hand side; a swap follows at a later
    # column. In the first two the next row's pivot q is zero after its
    # single step and a later row's is not. In the last two q is nonzero
    # but the row after it has a zero pivot q2 after its two steps.
    fallbacks = (
        [[1, 1, 0], [1, 1, 1], [0, 1, 1]],
        [[1, 1, 0], [1, 1, 1], [0, 2, 1]],
        [[1, 1, 1, 0], [1, 2, 2, 0], [1, 2, 2, 1], [0, 0, 1, 1]],
        [[1, 1, 1, 0], [1, 2, 2, 0], [1, 2, 2, 1], [2, 0, 1, 1]],
    )
    fixed = [
        *((a, len(a)) for a in fallbacks),
        *(([[*row, v] for row, v in zip(a, (1, -2, 3, -4))], len(a)) for a in fallbacks),
    ]
    # One system of each small shape: 1, 2 and 3 rows, symmetric and
    # general, with and without a right-hand side, and one row eliminated
    # whole. In the singular [[1, 2], [2, 4]] q is zero after the single
    # step, and in the singular 3 x 3 system q2 is.
    small = (
        [[3]],
        [[2, 1], [1, 3]],
        [[1, 2], [3, 4]],
        [[1, 2], [2, 4]],
        [[2, 1, 0], [1, 3, 1], [0, 1, 4]],
        [[1, 2, 3], [4, 5, 6], [7, 8, 10]],
        [[1, 1, 1], [1, 2, 2], [1, 2, 2]],
    )
    shapes = [
        ([[2, 3]], 2),
        *((a, len(a)) for a in small),
        *(([[*row, v] for row, v in zip(a, (1, -2, 3))], len(a)) for a in small),
    ]
    cases = free = swapped = zero_minors = symmetric = 0
    for a, columns in chain(fixed, shapes, _elimination_cases(rng)):
        rows, reference = [row[:] for row in a], [row[:] for row in a]
        given = reference[:]
        pivots, d = _eliminate(rows, columns)
        assert (pivots, d) == _one_step_eliminate(reference, columns)
        for k, col in enumerate(pivots):
            assert rows[k][col:] == reference[k][col:]
        in_place = all(map(operator.is_, reference, given))
        assert cases >= len(fixed) or (pivots == list(range(columns)) and not in_place)
        swapped += not in_place
        if len(a) == columns and all(a[i][j] == a[j][i] for i in range(columns) for j in range(i)):
            # Every pivot on the diagonal, with no row swapped: every
            # leading minor is nonzero, and the symmetric path never ends.
            if pivots == list(range(columns)) and in_place:
                symmetric += 1
                assert all(rows[i][j] == a[i][j] for i in range(columns) for j in range(i))
            else:
                zero_minors += 1
        free += len(pivots) < min(len(a), columns)
        cases += 1
    assert cases > 5500 and free > 3000 and swapped > 1000
    assert symmetric > 450 and zero_minors > 1500

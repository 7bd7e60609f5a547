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
    x = solve(a, b)
    assert x == [F(1), F(3)]
    assert mat_vec(a, x) == b


def test_solve_residual_is_exact_on_random_systems():
    rng = random.Random(11)
    solved = 0
    for _ in range(60):
        n = rng.randint(2, 5)
        a = [[F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
        b = [F(rng.randint(-9, 9)) for _ in range(n)]
        try:
            x = solve(a, b)
        except SingularMatrix:
            continue
        assert mat_vec(a, x) == b
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

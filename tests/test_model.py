import itertools
import math
import random
from fractions import Fraction

import pytest
from conftest import assert_same_problem, random_problem

from pairrank import (
    Method,
    Permutation,
    RankingProblem,
    build_problem,
    derive,
    flat_results,
    is_connected,
    is_irreducible,
    is_round_robin,
    negate,
    permute,
    sum_problems,
)
from pairrank.errors import (
    DiagonalNonZero,
    DuplicateLabel,
    FewerThanTwoObjects,
    InvalidEpsilon,
    LabelMismatch,
    NegativeEntry,
    NonIntegerPairSum,
    UnknownLabel,
)
from pairrank import fixtures
from pairrank.fixtures import EXAMPLE_1, EXAMPLE_4
from pairrank.model import add, as_rational, relabel, transpose
from pairrank.search import _buckets

F = Fraction


def test_construction_normalizes_entries():
    p = RankingProblem(("a", "b"), ((0, "3/2"), (F(1, 2), 0)))
    assert p.entry(0, 1) == F(3, 2)
    assert all(isinstance(v, F) for row in p.tournament for v in row)
    assert p.index_of("b") == 1
    with pytest.raises(UnknownLabel):
        p.index_of("c")


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        RankingProblem(("a", "b"), ((0, 0.5), (0.5, 0)))


def test_a_zero_denominator_is_a_value_error():
    # Fraction("1/0") raises ZeroDivisionError, which is no ValueError:
    # every entry point that reads a rational must still name the error.
    with pytest.raises(ValueError, match="zero denominator in '1/0'"):
        as_rational("1/0")
    with pytest.raises(InvalidEpsilon, match="zero denominator"):
        Method("grs", "1/0")
    with pytest.raises(ValueError, match="zero denominator"):
        RankingProblem(("a", "b"), ((0, "1/0"), (0, 0)))
    with pytest.raises(ValueError, match="zero denominator"):
        build_problem(("a", "b"), [("a", "b", "1/0")])


@pytest.mark.parametrize(
    "rows, error",
    [
        (((0, -1), (2, 0)), NegativeEntry),
        (((1, 0), (1, 0)), DiagonalNonZero),
        (((0, "1/2"), (F(3, 4), 0)), NonIntegerPairSum),
    ],
)
def test_invalid_matrices(rows, error):
    with pytest.raises(error):
        RankingProblem(("a", "b"), rows)


def test_scaled_construction_validates_like_fractions():
    labels = ("a", "b")
    assert RankingProblem.from_scaled(labels, ((0, 3), (1, 0)), 2).entry(0, 1) == F(3, 2)
    for rows, error in (
        (((0, -2), (4, 0)), NegativeEntry),
        (((2, 0), (2, 0)), DiagonalNonZero),
        (((0, 1), (2, 0)), NonIntegerPairSum),
        (((0, 1, 1), (1, 0)), ValueError),
    ):
        # The same structural defect at scale 1/2, through both
        # constructors: one validator, so one error and one message.
        with pytest.raises(error) as scaled:
            RankingProblem.from_scaled(labels, rows, 2)
        with pytest.raises(error) as rational:
            RankingProblem(labels, tuple(tuple(F(v, 2) for v in row) for row in rows))
        assert type(rational.value) is type(scaled.value)
        assert str(rational.value) == str(scaled.value)
    for rows in (((0, 1.0), (1, 0)), ((0, F(1)), (1, 0))):
        with pytest.raises(TypeError):
            RankingProblem.from_scaled(labels, rows, 2)
    with pytest.raises(ValueError):
        RankingProblem.from_scaled(labels, ((0, 1), (1, 0)), 0)


def test_doubled_integers_and_fractions_build_equal_problems():
    labels = ("a", "b", "c")
    for dt in itertools.chain.from_iterable(_buckets(3, 2, "all")):
        doubled = RankingProblem.from_scaled(labels, dt, 2)
        exact = RankingProblem(labels, tuple(tuple(F(v, 2) for v in row) for row in dt))
        assert doubled == exact and hash(doubled) == hash(exact)
        assert doubled.tournament == exact.tournament
        all_even = all(v % 2 == 0 for row in dt for v in row)
        assert doubled.denominator == (1 if all_even else 2)
    even = RankingProblem.from_scaled(labels, ((0, 4, 2), (0, 0, 2), (2, 0, 0)), 2)
    assert even.denominator == 1 and even.scaled == ((0, 2, 1), (0, 0, 1), (1, 0, 0))
    assert even == RankingProblem(labels, even.scaled)


def test_too_few_objects_and_duplicate_labels():
    with pytest.raises(FewerThanTwoObjects):
        RankingProblem(("a",), ((0,),))
    with pytest.raises(DuplicateLabel):
        RankingProblem(("a", "a"), ((0, 1), (0, 0)))


def test_ragged_matrix_rejected():
    with pytest.raises(ValueError):
        RankingProblem(("a", "b"), ((0, 1, 2), (1, 0)))


def test_build_problem_accumulates():
    p = build_problem(
        ("A", "B", "C"),
        [("A", "B", "1/2"), ("B", "A", F(1, 2)), ("A", "B", 1), ("B", "A", 0)],
    )
    assert p.entry(0, 1) == F(3, 2)
    assert p.entry(1, 0) == F(1, 2)
    assert p.entry(0, 2) == 0
    with pytest.raises(UnknownLabel):
        build_problem(("A", "B"), [("A", "Z", 1)])


def test_derive_on_worked_example():
    d = derive(EXAMPLE_4)
    assert d.matches == ((0, 2, 1), (2, 0, 3), (1, 3, 0))
    assert d.laplacian == ((3, -2, -1), (-2, 5, -3), (-1, -3, 4))
    assert d.max_matches == 3


def test_matches_are_integers_even_for_split_scores():
    rng = random.Random(5)
    for _ in range(25):
        p = random_problem(rng, rng.choice((3, 4, 5)))
        d = derive(p)
        assert all(isinstance(v, int) for row in d.matches for v in row)
        for i in range(p.size):
            for j in range(p.size):
                assert d.matches[i][j] == d.matches[j][i]
            assert sum(d.laplacian[i]) == 0


def test_negate_transposes():
    q = negate(EXAMPLE_4)
    assert q.entry(0, 1) == EXAMPLE_4.entry(1, 0)
    assert negate(q) == EXAMPLE_4
    assert derive(q).matches == derive(EXAMPLE_4).matches


def test_sum_problems():
    total = sum_problems(EXAMPLE_4, EXAMPLE_4)
    assert total.entry(1, 2) == 6
    other = RankingProblem(("Y1", "Y2", "Y3"), EXAMPLE_4.tournament)
    with pytest.raises(LabelMismatch):
        sum_problems(EXAMPLE_4, other)


def test_transforms_build_the_problems_the_validator_builds():
    # negate, permute and sum_problems skip the structural check on their
    # results; each must be the problem from_scaled checks and builds.
    problems = []
    for value in vars(fixtures).values():
        for p in value if isinstance(value, tuple) else (value,):
            if isinstance(p, RankingProblem):
                problems.append(p)
    assert len(problems) >= 12
    for p in problems:
        labels, scaled, d = p.labels, p.scaled, p.denominator
        assert_same_problem(negate(p), RankingProblem.from_scaled(labels, transpose(scaled), d))
        for image in (tuple(range(1, p.size)) + (0,), tuple(reversed(range(p.size)))):
            sigma = Permutation(image)
            moved = tuple(labels[i] for i in sigma.inverse().image)
            assert_same_problem(permute(p, sigma), RankingProblem.from_scaled(moved, relabel(scaled, sigma), d))
        for q in problems:
            if q.labels == labels:
                total = math.lcm(d, q.denominator)
                a, b = ([[v * (total // r.denominator) for v in row] for row in r.scaled] for r in (p, q))
                assert_same_problem(sum_problems(p, q), RankingProblem.from_scaled(labels, add(a, b), total))


def test_permutation_validation_and_inverse():
    sigma = Permutation((1, 0, 2))
    assert sigma(0) == 1 and sigma(2) == 2
    assert sigma.inverse().image == (1, 0, 2)
    assert Permutation.from_one_based((2, 1, 3)) == sigma
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))
    with pytest.raises(TypeError):
        Permutation((1.9, 0.2, 2.7))
    with pytest.raises(TypeError):
        Permutation.from_one_based((2.5, 1, 3))


def test_permute_moves_scores_with_labels():
    for image in itertools.permutations(range(3)):
        sigma = Permutation(image)
        moved = permute(EXAMPLE_4, sigma)
        # X_i's score against X_j travels to positions sigma(i), sigma(j).
        for i in range(3):
            for j in range(3):
                assert moved.entry(sigma(i), sigma(j)) == EXAMPLE_4.entry(i, j)
            assert moved.labels[sigma(i)] == EXAMPLE_4.labels[i]
        inverse = permute(moved, sigma.inverse())
        assert inverse == EXAMPLE_4


def test_connectivity_and_irreducibility():
    assert is_connected(EXAMPLE_1)
    assert not is_irreducible(EXAMPLE_1)  # nobody ever scores against X1
    assert is_irreducible(EXAMPLE_4)
    disconnected = RankingProblem(
        ("a", "b", "c", "d"),
        ((0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)),
    )
    assert not is_connected(disconnected)
    assert not is_irreducible(disconnected)


def test_round_robin_and_flatness():
    rr = RankingProblem(
        ("a", "b", "c"), ((0, 1, "1/2"), (0, 0, "1/2"), ("1/2", "1/2", 0))
    )
    assert is_round_robin(rr)
    assert not is_round_robin(EXAMPLE_4)
    flat = RankingProblem(
        ("a", "b", "c"), ((0, "1/2", 1), ("1/2", 0, 0), (1, 0, 0))
    )
    assert flat_results(flat)
    assert not flat_results(rr)

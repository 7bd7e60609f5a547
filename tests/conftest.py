"""Seeded generators shared by the randomized tests.

Everything is deterministic: each test owns a random.Random with a fixed
seed, and candidates are built from it alone. Problems use small
denominators so exact arithmetic stays fast.
"""

import random
from fractions import Fraction

from pairrank import RankingProblem, derive, methods


def labels_for(n: int) -> tuple[str, ...]:
    return tuple(f"X{i + 1}" for i in range(n))


def random_problem(
    rng: random.Random,
    n: int,
    max_matches: int = 3,
    max_denominator: int = 4,
    require=None,
) -> RankingProblem:
    """A random problem: every pair plays 0..max_matches matches and the
    score split is an exact rational with a small denominator.

    ``require`` filters (connectivity, irreducibility, ...); generation
    retries until it holds.
    """
    for _ in range(1000):
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                matches = rng.randint(0, max_matches)
                if matches:
                    den = rng.randint(1, max_denominator)
                    rows[i][j] = Fraction(rng.randint(0, matches * den), den)
                    rows[j][i] = matches - rows[i][j]
        problem = RankingProblem(labels_for(n), tuple(tuple(row) for row in rows))
        if require is None or require(problem):
            return problem
    raise RuntimeError("no candidate satisfied the requirement in 1000 draws")


def random_round_robin(
    rng: random.Random,
    n: int,
    max_matches: int = 3,
    max_denominator: int = 4,
) -> RankingProblem:
    """A random problem where every pair plays the same number of matches."""
    matches = rng.randint(1, max_matches)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            den = rng.randint(1, max_denominator)
            rows[i][j] = Fraction(rng.randint(0, matches * den), den)
            rows[j][i] = matches - rows[i][j]
    return RankingProblem(labels_for(n), tuple(tuple(row) for row in rows))


def random_same_matches(
    rng: random.Random, problem: RankingProblem, max_denominator: int = 4
) -> RankingProblem:
    """A problem playing exactly the schedule of ``problem`` with fresh results."""
    matches = derive(problem).matches
    n = problem.size
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m = matches[i][j]
            if m:
                den = rng.randint(1, max_denominator)
                rows[i][j] = Fraction(rng.randint(0, m * den), den)
                rows[j][i] = m - rows[i][j]
    return RankingProblem(problem.labels, tuple(tuple(row) for row in rows))


def flat_round_robin(n: int, matches: int = 1) -> RankingProblem:
    """Every pair plays ``matches`` matches and splits them evenly."""
    half = Fraction(matches, 2)
    rows = tuple(
        tuple(half if i != j else Fraction(0) for j in range(n)) for i in range(n)
    )
    return RankingProblem(labels_for(n), rows)


def tie_broken_score(problem: RankingProblem) -> methods.RatingVector:
    """Score with ties broken by object index: a planted method that is
    neither neutral nor flat on flat problems."""
    base = methods.score(problem)
    n = problem.size
    return methods.RatingVector(
        "score", problem.labels, [n * v + i for i, v in enumerate(base.scaled)], n * base.denominator
    )


def assert_same_problem(vouched: RankingProblem, checked: RankingProblem) -> None:
    """A problem built without the structural check is the one the check
    builds: equal, hashed alike, and stored as the same tuples of ints."""
    assert vouched == checked and hash(vouched) == hash(checked)
    assert vouched.scaled == checked.scaled and vouched.denominator == checked.denominator
    for problem in (vouched, checked):
        assert type(problem.scaled) is tuple and all(type(row) is tuple for row in problem.scaled)


def problem_pool(seed: int, count: int, sizes=(3, 4, 5), **kwargs):
    rng = random.Random(seed)
    return [random_problem(rng, rng.choice(sizes), **kwargs) for _ in range(count)]

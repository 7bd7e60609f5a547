"""Rating methods for ranking problems.

Six procedures, all exact:

* ``score``: net results, row sums of A.
* ``generalized_row_sum``: the parametric correction x(eps) solving
  (I + eps L) x = (1 + eps m n) s, which interpolates between the score
  (eps -> 0) and, after scaling by 1/(m n), least squares (eps -> inf).
* ``least_squares``: potential q with L q = s centred by e^T q = 0.
* ``fair_bets``: the positive fixed point of redistributing wins
  against losses, defined on strongly connected problems.
* ``dual_fair_bets``: the same construction applied to the reversed
  problem, negated, so it punishes losses the way fair bets rewards
  wins.
* ``copeland_fair_bets``: the sum of the two, a compromise rating.

Every function returns a :class:`RatingVector`, integers over one
denominator; ties in it are real ties, since nothing is rounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import groupby

from . import linalg
from .errors import (
    DisconnectedProblem,
    InvalidEpsilon,
    NoComparisons,
    ReducibleProblem,
    UndefinedForSmallN,
)
from .model import (
    Matrix,
    RankingProblem,
    as_rational,
    derive,
    is_connected,
    is_irreducible,
    # Not called here, but the benchmark tracer wraps it here.
    negate,
    transpose,
)

METHOD_KEYS = ("score", "grs", "ls", "fb", "dfb", "cfb")

REASONABLE = "reasonable"


@dataclass(frozen=True)
class RatingVector:
    """Exact ratings ``scaled[i] / denominator``, best is largest. The
    denominator is kept positive and coprime to the numerators, so
    numerators order like the ratings and equal ratings compare equal.
    """

    method: str
    labels: tuple[str, ...]
    scaled: tuple[int, ...]
    denominator: int
    epsilon: Fraction | None = None

    def __post_init__(self):
        if self.denominator == 0:
            raise ValueError("a rating's denominator must be nonzero")
        common = math.gcd(self.denominator, *self.scaled) * (1 if self.denominator > 0 else -1)
        object.__setattr__(self, "scaled", tuple(v // common for v in self.scaled))
        object.__setattr__(self, "denominator", self.denominator // common)

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.denominator) for v in self.scaled)


@dataclass(frozen=True)
class WeakOrder:
    """Objects grouped into tiers, best tier first, ties inside a tier."""

    tiers: tuple[tuple[int, ...], ...]

    def describe(self, labels: tuple[str, ...]) -> str:
        return " > ".join(" = ".join(labels[i] for i in tier) for tier in self.tiers)


def ranking(rating: RatingVector) -> WeakOrder:
    """Collapse a rating vector into its weak order."""
    keys = rating.scaled
    order = sorted(range(len(keys)), key=lambda i: (-keys[i], i))
    return WeakOrder(tuple(tuple(tier) for _, tier in groupby(order, key=keys.__getitem__)))


def _net_results(problem: RankingProblem) -> list[int]:
    """Wins minus losses of each object, times the problem's denominator."""
    won = [sum(row) for row in problem.scaled]
    lost = [sum(column) for column in zip(*problem.scaled)]
    return [w - l for w, l in zip(won, lost)]


def score(problem: RankingProblem) -> RatingVector:
    """Net result of each object: wins minus losses, summed over all pairs."""
    return RatingVector("score", problem.labels, _net_results(problem), problem.denominator)


def reasonable_epsilon(problem: RankingProblem) -> Fraction:
    """Upper bound 1 / (m (n - 2)) below which the row-sum correction stays mild.

    Undefined with two objects (the bound would divide by zero) and
    meaningless without comparisons.
    """
    return _reasonable_epsilon(problem, derive(problem))


def _reasonable_epsilon(problem: RankingProblem, derived) -> Fraction:
    n = problem.size
    if n < 3:
        raise UndefinedForSmallN("the reasonable bound needs at least three objects")
    m = derived.max_matches
    if m == 0:
        raise NoComparisons("no pair has played, the bound is undefined")
    return Fraction(1, m * (n - 2))


def _checked_epsilon(epsilon) -> Fraction:
    try:
        value = as_rational(epsilon)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidEpsilon(str(exc)) from None
    if value <= 0:
        raise InvalidEpsilon(f"epsilon must be positive, got {value}")
    return value


def generalized_row_sum(problem: RankingProblem, epsilon) -> RatingVector:
    """Solve (I + eps L) x = (1 + eps m n) s exactly.

    The parameter must be a positive rational, or ``"reasonable"`` for
    the problem's own bound (see :func:`reasonable_epsilon`). The
    coefficient matrix is then strictly diagonally dominant, hence
    nonsingular, so the system always has a unique solution. With
    eps = p/q the solver gets the integer system
    (q I + p L) x = (q + p m n) (denominator * s).
    """
    d = derive(problem)
    eps = _reasonable_epsilon(problem, d) if epsilon == REASONABLE else _checked_epsilon(epsilon)
    p, q = eps.numerator, eps.denominator
    a = [[q * (i == j) + p * v for j, v in enumerate(row)] for i, row in enumerate(d.laplacian)]
    multiplier = q + p * d.max_matches * problem.size
    rhs = [multiplier * v for v in _net_results(problem)]
    x, pivot = linalg.solve(a, rhs)
    # The identity (q I + p L) x = (q + p m n) net, checked in integers on x = X / D.
    if linalg.mat_vec(a, x) != [pivot * v for v in rhs]:
        raise RuntimeError("internal: row-sum solve left a nonzero residual")
    return RatingVector("grs", problem.labels, x, pivot * problem.denominator, epsilon=eps)


def least_squares(problem: RankingProblem) -> RatingVector:
    """Potential ratings q with L q = s, centred so the total is zero.

    Needs a connected comparison multigraph; otherwise components could
    drift against each other and the system has no meaning (and no
    unique centred solution). The last equation, implied by the others,
    is replaced by the centring e^T q = 0.
    """
    if not is_connected(problem):
        raise DisconnectedProblem("comparison multigraph is not connected")
    laplacian = derive(problem).laplacian
    net = _net_results(problem)
    x, pivot = linalg.solve([*laplacian[:-1], [1] * problem.size], [*net[:-1], 0])
    # The identity L x = net, e^T x = 0, checked in integers on x = X / D.
    if linalg.mat_vec(laplacian, x) != [pivot * v for v in net] or sum(x) != 0:
        raise RuntimeError("internal: constrained solve left a nonzero residual")
    return RatingVector("ls", problem.labels, x, pivot * problem.denominator)


def _require_irreducible(problem: RankingProblem) -> None:
    if not is_irreducible(problem):
        raise ReducibleProblem("results digraph is not strongly connected")


def _fair_bets_vector(t: Matrix) -> tuple[list[int], int]:
    """Fixed point v of the integer tournament matrix ``t`` of an
    irreducible problem, and sum(v) to divide by.

    The nullspace and its normalized member do not depend on the common
    scale, so the integer matrix stands in for the tournament. The caller
    checks irreducibility.
    """
    losses = [sum(column) for column in zip(*t)]
    a = [
        [v - losses[i] if i == j else v for j, v in enumerate(row)]
        for i, row in enumerate(t)
    ]
    v = linalg.nullspace_1d(a)
    if any(linalg.mat_vec(a, v)):
        raise RuntimeError("internal: fixed-point vector is not in the nullspace")
    if not (all(x > 0 for x in v) or all(x < 0 for x in v)):
        raise RuntimeError("internal: fixed-point vector changes sign")
    total = sum(v)
    if total == 0 or any(x * total <= 0 for x in v):
        raise RuntimeError("internal: fixed-point normalization failed")
    return v, total


def fair_bets(problem: RankingProblem) -> RatingVector:
    """The positive unit-sum fixed point of T v = diag(losses) v.

    Each object's rating is the share of a stake that flows to it when
    every object keeps redistributing its stake to the objects it lost
    points to, in proportion to those losses. Strong connectivity of
    the results digraph makes the fixed point unique and positive.
    """
    _require_irreducible(problem)
    v, total = _fair_bets_vector(problem.scaled)
    return RatingVector("fb", problem.labels, v, total)


def dual_fair_bets(problem: RankingProblem) -> RatingVector:
    """Fair bets of the reversed problem, negated.

    Reversing every result turns wins into losses; rating the reversed
    problem and flipping the sign yields a method that blames losses
    instead of crediting wins. Entries are negative and sum to -1. The
    reversed problem is the transposed integer matrix, rated as it is:
    no second problem is built.
    """
    _require_irreducible(problem)
    v, total = _fair_bets_vector(transpose(problem.scaled))
    return RatingVector("dfb", problem.labels, v, -total)


def copeland_fair_bets(problem: RankingProblem) -> RatingVector:
    """Sum of fair bets and dual fair bets, rewarding wins and punishing losses."""
    # Reversing every arc keeps a digraph strongly connected, so one test
    # covers the problem and its reversal.
    _require_irreducible(problem)
    w, w_total = _fair_bets_vector(problem.scaled)
    l, l_total = _fair_bets_vector(transpose(problem.scaled))
    # w / sum(w) - l / sum(l), over the product of the two sums.
    scaled = [a * l_total - b * w_total for a, b in zip(w, l)]
    return RatingVector("cfb", problem.labels, scaled, w_total * l_total)


@dataclass(frozen=True)
class Method:
    """A rating method plus, for the row sum, its parameter.

    ``epsilon`` may be a rational, the string ``"reasonable"`` to use
    each problem's own bound 1/(m (n-2)), or None for methods that take
    no parameter.
    """

    key: str
    epsilon: Fraction | str | None = None

    def __post_init__(self):
        if self.key not in METHOD_KEYS:
            raise ValueError(f"unknown method {self.key!r}, expected one of {METHOD_KEYS}")
        if self.key == "grs":
            if self.epsilon is None:
                raise ValueError("the generalized row sum needs an epsilon")
            if self.epsilon != REASONABLE:
                object.__setattr__(self, "epsilon", _checked_epsilon(self.epsilon))
        elif self.epsilon is not None:
            raise ValueError(f"method {self.key!r} takes no epsilon")

    @property
    def label(self) -> str:
        if self.key == "grs":
            return f"grs[eps={self.epsilon}]"
        return self.key

    def rate(self, problem: RankingProblem) -> RatingVector:
        if self.key == "grs":
            return generalized_row_sum(problem, self.epsilon)
        return _PLAIN[self.key](problem)


_PLAIN = {
    "score": score,
    "ls": least_squares,
    "fb": fair_bets,
    "dfb": dual_fair_bets,
    "cfb": copeland_fair_bets,
}

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
    """Net result of each object: wins minus losses, summed over all pairs.

    Balance lemma: the net results sum to zero, so they are all tied
    exactly when all are zero, that is when the problem is balanced,
    every object winning as much as it loses.
    """
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

    Balance lemma: it rates the problem flat exactly when s = 0. As
    L 1 = 0, (I + eps L) c 1 = c 1, so a flat x = c 1 forces
    s = c / (1 + eps m n) 1; the net results sum to zero, so s = 0.
    Conversely s = 0 gives x = 0.

    It reads the problem only through L, m, n, eps and s. All but s
    depend on the schedule alone, the match count of each pair, and so
    does either error of the reasonable bound. So two problems with one
    schedule and one vector of net results get one rating, or one error.
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
    unique centred solution). The last object is grounded at q_n = 0:
    the last equation is implied by the others, and on a connected
    problem the rest, L without its last row and column, is symmetric
    positive definite, so the symmetric elimination solves it without a
    row swap. Subtracting the mean then centres q: with q = Q / D, the
    rating is x = (n Q - sum(Q)) / (n D).

    Balance lemma: it rates the problem flat exactly when s = 0. L 1 = 0,
    so a flat q gives s = L q = 0; and on a connected problem the kernel
    of L is spanned by 1, so s = 0 leaves only flat solutions.

    It reads the problem only through its connectivity, L and s.
    Connectivity (which pairs have played) and L depend on the schedule
    alone, the match count of each pair. So two problems with one
    schedule and one vector of net results get one rating, or one error.
    """
    if not is_connected(problem):
        raise DisconnectedProblem("comparison multigraph is not connected")
    laplacian = derive(problem).laplacian
    net = _net_results(problem)
    q, pivot = linalg.solve([row[:-1] for row in laplacian[:-1]], net[:-1])
    q.append(0)
    total, n = sum(q), problem.size
    x = [n * v - total for v in q]
    pivot *= n
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

    The columns of a = T - diag(losses) sum to zero, so the last row of
    a v = 0 follows from the others, and the last object is grounded at
    v_n = D: the leading (n - 1) x (n - 1) block of a, solved against
    minus the first n - 1 entries of its last column, gives v = [X, D].
    On an irreducible problem -a is an irreducible singular M-matrix, and
    the block is one of its proper principal submatrices, so the system
    is nonsingular.
    """
    losses = [sum(column) for column in zip(*t)]
    a = [
        [v - losses[i] if i == j else v for j, v in enumerate(row)]
        for i, row in enumerate(t)
    ]
    x, d = linalg.solve([row[:-1] for row in a[:-1]], [-row[-1] for row in a[:-1]])
    v = [*x, d]
    if any(linalg.mat_vec(a, v)):
        raise RuntimeError("internal: fixed-point vector is not in the nullspace")
    if not (all(x > 0 for x in v) or all(x < 0 for x in v)):
        raise RuntimeError("internal: fixed-point vector changes sign")
    return v, sum(v)


def fair_bets(problem: RankingProblem) -> RatingVector:
    """The positive unit-sum fixed point of T v = diag(losses) v.

    Each object's rating is the share of a stake that flows to it when
    every object keeps redistributing its stake to the objects it lost
    points to, in proportion to those losses. Strong connectivity of
    the results digraph makes the fixed point unique and positive.

    Balance lemma: it rates the problem flat exactly when every object's
    wins equal its losses. The fixed point is unique, so it is uniform
    exactly when the uniform vector solves T v = diag(losses) v, and
    T 1 = diag(losses) 1 says that each row sum (wins) equals its column
    sum (losses).
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

    Balance lemma: it rates the problem flat exactly when every object's
    wins equal its losses, by the argument of :func:`fair_bets` on the
    reversed problem, which is balanced exactly when the problem is.
    """
    _require_irreducible(problem)
    v, total = _fair_bets_vector(transpose(problem.scaled))
    return RatingVector("dfb", problem.labels, v, -total)


def copeland_fair_bets(problem: RankingProblem) -> RatingVector:
    """Sum of fair bets and dual fair bets, rewarding wins and punishing losses.

    Balance lemma: it rates the problem flat exactly when every object's
    wins equal its losses. The rating is w / sum(w) - l / sum(l), with
    w = fb(T) and l = fb(T^T). A flat difference sums to zero, so it is
    zero, and w and l normalize to one vector v. Adding the two
    fixed-point equations at v, T v = diag(losses) v and
    T^T v = diag(wins) v, row i gives sum_j m_ij (v_j - v_i) = 0, with
    m_ij = t_ij + t_ji the matches of the pair: the Laplacian of the
    comparison multigraph annihilates v. An irreducible problem is
    connected, so v is constant, and T 1 = diag(losses) 1 says that
    wins equal losses. Conversely a balanced problem has w and l
    uniform, by the argument of :func:`fair_bets`, and a zero rating.
    """
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

"""Ranking problems built from generalized paired comparisons.

A ranking problem is an ordered set of labelled objects together with a
square tournament matrix of exact rationals. Entry ``t[i][j]`` is the
total score object ``i`` collected against object ``j`` over all of
their encounters, so a pair may meet any number of times (including
zero) and a single encounter may end in a draw, splitting one point
half and half. The only structural requirements are that scores are
nonnegative, nobody plays themselves, and ``t[i][j] + t[j][i]`` counts
a whole number of encounters.

A problem stores its tournament as integers over one common
denominator, ``t[i][j] = scaled[i][j] / denominator``, with the
smallest denominator that makes every numerator an integer, so equal
tournaments are stored, compare and hash alike. Values enter and leave
the API as :class:`fractions.Fraction`: the constructor takes exact
rationals, converts them once to integers over their lcm, and validates
those; ``tournament`` gives them back. Floats are rejected at the
boundary so no rounding error can enter a problem.

A problem is validated once, where its matrix enters the package. Every
public constructor (``RankingProblem(...)``, :meth:`RankingProblem.from_scaled`,
:func:`build_problem`) and both file readers run the full structural
check. The private ``RankingProblem._vouched`` trusts its caller's
integer matrix and only reduces it: :func:`negate`, :func:`permute` and
:func:`sum_problems` use it on matrices built from valid problems, and
the counterexample search on the grid matrices it rates. Both paths end
in the same gcd reduction, so equal tournaments stay equal and hash
alike whichever path built them.

The structural predicates and transforms are kernels over integer
matrices. None of them depends on the common scale, so they apply
unchanged to any positive multiple of a tournament, such as the
denominator-2 grid of the counterexample search.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable

from .errors import (
    DiagonalNonZero,
    DuplicateLabel,
    FewerThanTwoObjects,
    LabelMismatch,
    NegativeEntry,
    NonIntegerPairSum,
    UnknownLabel,
)

Matrix = tuple[tuple[int, ...], ...]


def as_rational(value) -> Fraction:
    """Coerce ``value`` to an exact Fraction.

    Accepts Fraction, int, and strings such as ``"3"``, ``"-1/2"`` or
    ``"0.75"``. Floats are refused: they carry binary rounding error and
    every quantity in this package is exact. ``"1/0"`` raises ValueError.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError(f"refusing inexact float {value!r}; pass a Fraction, int or string")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


def default_labels(n: int) -> tuple[str, ...]:
    """The labels ``X1..Xn`` of a problem whose objects are not named."""
    return tuple(f"X{i + 1}" for i in range(n))


@dataclass(frozen=True, init=False)
class RankingProblem:
    """Labelled objects plus their tournament matrix.

    ``RankingProblem(labels, tournament)`` takes exact rationals and
    scales them to integers over their lcm; :meth:`from_scaled` takes
    integers over a denominator. Both then run the same integer check
    of every structural invariant, so an instance that exists is valid.

    :meth:`_vouched` skips that check for callers inside the package
    that vouch for their input: labels a tuple of distinct strings, at
    least two of them; rows tuples of ints, square, nonnegative, with a
    zero diagonal; and every pair sum a multiple of the denominator. It
    runs only :meth:`_reduce`, the gcd reduction the check ends with.
    """

    labels: tuple[str, ...]
    scaled: Matrix
    denominator: int

    def __init__(self, labels, tournament):
        rows = [tuple(map(as_rational, row)) for row in tournament]
        d = math.lcm(*(v.denominator for row in rows for v in row))
        scaled = [[v.numerator * (d // v.denominator) for v in row] for row in rows]
        self.__post_init__(labels, scaled, d)

    @classmethod
    def from_scaled(cls, labels, scaled, denominator: int) -> "RankingProblem":
        """The problem whose tournament is ``scaled[i][j] / denominator``."""
        problem = cls.__new__(cls)
        problem.__post_init__(labels, scaled, denominator)
        return problem

    @classmethod
    def _vouched(cls, labels, scaled, denominator: int) -> "RankingProblem":
        """The problem of a valid matrix, built without the check."""
        problem = cls.__new__(cls)
        problem._reduce(labels, scaled, denominator)
        return problem

    def __post_init__(self, labels, rows, denominator):
        # The one validation step every constructor runs, on integers
        # ``rows`` over ``denominator``.
        labels = tuple(str(label) for label in labels)
        if len(labels) < 2:
            raise FewerThanTwoObjects(f"need at least two objects, got {len(labels)}")
        if len(set(labels)) != len(labels):
            raise DuplicateLabel(f"labels are not distinct: {labels}")
        n = len(labels)
        checked = []
        for i, row in enumerate(rows):
            row = tuple(map(operator.index, row))
            if len(row) != n:
                raise ValueError(f"tournament row {i} has {len(row)} entries, expected {n}")
            checked.append(row)
        if len(checked) != n:
            raise ValueError(f"tournament has {len(checked)} rows, expected {n}")
        if operator.index(denominator) <= 0:
            raise ValueError(f"denominator must be positive, got {denominator}")
        for i in range(n):
            if checked[i][i] != 0:
                raise DiagonalNonZero(f"object {labels[i]} is scored against itself")
            for j in range(n):
                if checked[i][j] < 0:
                    raise NegativeEntry(
                        f"negative score {Fraction(checked[i][j], denominator)}"
                        f" for {labels[i]} against {labels[j]}"
                    )
                if j > i and (checked[i][j] + checked[j][i]) % denominator:
                    total = Fraction(checked[i][j] + checked[j][i], denominator)
                    raise NonIntegerPairSum(
                        f"{labels[i]} and {labels[j]} played {total} matches,"
                        " which is not a whole number"
                    )
        self._reduce(labels, checked, denominator)

    def _reduce(self, labels, rows, denominator):
        # Store ``rows`` over ``denominator`` in lowest terms.
        common = math.gcd(denominator, *(v for row in rows for v in row))
        if common > 1:
            rows = [tuple(v // common for v in row) for row in rows]
            denominator //= common
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "scaled", tuple(rows))
        object.__setattr__(self, "denominator", denominator)

    @cached_property
    def tournament(self) -> tuple[tuple[Fraction, ...], ...]:
        """The tournament matrix as exact Fractions."""
        d = self.denominator
        return tuple(tuple(Fraction(v, d) for v in row) for row in self.scaled)

    @property
    def size(self) -> int:
        return len(self.labels)

    def entry(self, i: int, j: int) -> Fraction:
        return self.tournament[i][j]

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownLabel(f"no object labelled {label!r}") from None


@dataclass(frozen=True)
class DerivedStructure:
    """Integer matrices derived from a tournament: matches and Laplacian."""

    matches: tuple[tuple[int, ...], ...]
    laplacian: tuple[tuple[int, ...], ...]
    max_matches: int


def build_problem(labels: Iterable, entries: Iterable[tuple]) -> RankingProblem:
    """Assemble a problem from (label_i, label_j, score) contributions.

    ``labels`` fixes the object order. Each entry adds ``score`` to the
    running total of the first label against the second, so repeated
    mentions of a pair accumulate. Pairs never mentioned stay at zero.
    """
    labels = tuple(str(label) for label in labels)
    index = {label: k for k, label in enumerate(labels)}
    n = len(labels)
    totals = [[0] * n for _ in range(n)]
    for entry in entries:
        try:
            ref_i, ref_j, value = entry
        except (TypeError, ValueError):
            raise ValueError(f"entry {entry!r} is not a (label, label, score) triple") from None
        try:
            i = index[str(ref_i)]
            j = index[str(ref_j)]
        except KeyError as exc:
            raise UnknownLabel(f"entry references unknown label {exc.args[0]!r}") from None
        totals[i][j] += as_rational(value)
    return RankingProblem(labels, totals)


def derive(problem: RankingProblem) -> DerivedStructure:
    """Compute the matches M = T + T^t and the Laplacian, in one pass
    over the rows of T and of its transpose.

    Match counts are integers by the pair-sum invariant, and the
    Laplacian is L = diag(degrees) - M where a degree is the total
    number of matches an object played.
    """
    d = problem.denominator
    matches, laplacian = [], []
    for i, (row, column) in enumerate(zip(problem.scaled, zip(*problem.scaled))):
        played = tuple([(a + b) // d for a, b in zip(row, column)])
        matches.append(played)
        negated = [-v for v in played]
        negated[i] = sum(played)
        laplacian.append(tuple(negated))
    return DerivedStructure(tuple(matches), tuple(laplacian), max(map(max, matches)))


# --- kernels over integer tournament matrices -------------------------------

def transpose(m: Matrix) -> Matrix:
    """Every result swapped: entry (i, j) becomes entry (j, i)."""
    return tuple(zip(*m))


def add(a: Matrix, b: Matrix) -> Matrix:
    """Entrywise sum of two matrices on one scale."""
    return tuple([tuple(map(operator.add, ra, rb)) for ra, rb in zip(a, b)])


def relabel(m: Matrix, sigma: Permutation) -> Matrix:
    """The matrix with new[sigma(i)][sigma(j)] = m[i][j]."""
    # source[k] is the object that sigma moves to k.
    source = sorted(range(sigma.size), key=sigma.image.__getitem__)
    return tuple([tuple([m[i][j] for j in source]) for i in source])


def _reaches_all(n: int, arc) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in range(n):
            if w not in seen and arc(v, w):
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def connected(m: Matrix) -> bool:
    """True when the undirected matches multigraph has a single component."""
    return _reaches_all(len(m), lambda v, w: m[v][w] > 0 or m[w][v] > 0)


def irreducible(m: Matrix) -> bool:
    """True when the directed "scored against" graph is strongly connected.

    There is an arc i -> j whenever m[i][j] > 0. Strong connectivity is
    checked by reaching every vertex from vertex 0 along arcs and again
    along reversed arcs.
    """
    n = len(m)
    return _reaches_all(n, lambda v, w: m[v][w] > 0) and _reaches_all(n, lambda v, w: m[w][v] > 0)


def round_robin(m: Matrix) -> bool:
    """True when every pair met the same positive number of times."""
    n = len(m)
    count = m[0][1] + m[1][0]
    if count <= 0:
        return False
    return all(m[i][j] + m[j][i] == count for i in range(n) for j in range(i + 1, n))


def flat(m: Matrix) -> bool:
    """True when every comparison ended balanced, m[i][j] == m[j][i]."""
    n = len(m)
    return all(m[i][j] == m[j][i] for i in range(n) for j in range(i + 1, n))


# --- the same, on problems ---------------------------------------------------

def negate(problem: RankingProblem) -> RankingProblem:
    """Swap every result: the transposed tournament on the same objects.

    A transpose keeps every entry, the zero diagonal and every pair sum,
    so the result of a valid problem needs no second check.
    """
    return RankingProblem._vouched(problem.labels, transpose(problem.scaled), problem.denominator)


def sum_problems(first: RankingProblem, second: RankingProblem) -> RankingProblem:
    """Entrywise sum of two tournaments over the same labelled objects.

    Both inputs are valid and scaled to one denominator, so the sum has
    nonnegative entries, a zero diagonal and pair sums that are
    multiples of it, and needs no second check.
    """
    if first.labels != second.labels:
        raise LabelMismatch(f"label sets differ: {first.labels} vs {second.labels}")
    d = math.lcm(first.denominator, second.denominator)
    a, b = (
        tuple(tuple(v * (d // p.denominator) for v in row) for row in p.scaled)
        for p in (first, second)
    )
    return RankingProblem._vouched(first.labels, add(a, b), d)


@dataclass(frozen=True)
class Permutation:
    """A relabelling of n objects; ``image[i]`` is where object i moves."""

    image: tuple[int, ...]

    def __post_init__(self):
        image = tuple(map(operator.index, self.image))
        if sorted(image) != list(range(len(image))):
            raise ValueError(f"{image} is not a permutation of 0..{len(image) - 1}")
        object.__setattr__(self, "image", image)

    @classmethod
    def from_one_based(cls, images: Iterable[int]) -> "Permutation":
        return cls(tuple(operator.index(v) - 1 for v in images))

    def __call__(self, i: int) -> int:
        return self.image[i]

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.image)
        for i, v in enumerate(self.image):
            inv[v] = i
        return Permutation(tuple(inv))

    @property
    def size(self) -> int:
        return len(self.image)


def permute(problem: RankingProblem, sigma: Permutation) -> RankingProblem:
    """Relabel objects by sigma, moving scores with them.

    The returned problem satisfies new_t[sigma(i)][sigma(j)] = t[i][j]
    and carries label i to position sigma(i). A relabelling moves
    entries and labels together, so the result of a valid problem needs
    no second check.
    """
    n = problem.size
    if sigma.size != n:
        raise ValueError(f"permutation acts on {sigma.size} objects, problem has {n}")
    labels = tuple(problem.labels[i] for i in sigma.inverse().image)
    return RankingProblem._vouched(labels, relabel(problem.scaled, sigma), problem.denominator)


def is_connected(problem: RankingProblem) -> bool:
    """See :func:`connected`."""
    return connected(problem.scaled)


def is_irreducible(problem: RankingProblem) -> bool:
    """See :func:`irreducible`."""
    return irreducible(problem.scaled)


def is_round_robin(problem: RankingProblem) -> bool:
    """See :func:`round_robin`."""
    return round_robin(problem.scaled)


def flat_results(problem: RankingProblem) -> bool:
    """See :func:`flat`."""
    return flat(problem.scaled)


def changed_pairs(first: RankingProblem, second: RankingProblem) -> list[tuple[int, int]]:
    """Pairs i < j, in order, whose comparisons differ between two
    problems on the same objects."""
    a, da = first.scaled, first.denominator
    b, db = second.scaled, second.denominator
    n = first.size
    return [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if a[i][j] * db != b[i][j] * da or a[j][i] * db != b[j][i] * da
    ]

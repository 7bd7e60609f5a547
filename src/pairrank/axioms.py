"""Axiom checks for rating methods, run against explicit witnesses.

Nine properties are supported, in three families:

* invariance of a single problem: relabelling equivariance (NEU), flat
  ratings on flat problems (SYM), order reversal under result reversal
  (INV);
* additivity over a pair of problems on the same objects: consistency
  of the order under summation (CS), flatness preservation (FP),
  preservation of pairwise rating ties (EP), and consistency restricted
  to pairs playing the same schedule (RCS);
* independence over a pair of problems differing in one edited pair:
  the relative order of two untouched objects must not move, whether
  the edit changes the number of matches (IIM) or only the result of a
  fixed number of matches (IIR).

A check never samples anything. It takes a concrete witness, rates the
problems involved, and reports every object pair on which the required
implication fails, with exact ratings attached.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import (
    LabelMismatch,
    MatchesChanged,
    MatchesMismatch,
    MethodPreconditionError,
    MissingPermutation,
    NotFlat,
    NotSingleDifference,
    PreconditionUnmet,
    TooFewObjects,
)
from .methods import Method, RatingVector
from .model import (
    Permutation,
    RankingProblem,
    changed_pairs,
    derive,
    flat_results,
    negate,
    permute,
    sum_problems,
)


class AxiomKind(Enum):
    INVARIANCE = "invariance"
    ADDITIVITY = "additivity"
    INDEPENDENCE = "independence"


class Axiom(Enum):
    NEU = ("NEU", AxiomKind.INVARIANCE, "relabelling invariance")
    SYM = ("SYM", AxiomKind.INVARIANCE, "flat problems rated flat")
    INV = ("INV", AxiomKind.INVARIANCE, "reversal of results reverses the order")
    CS = ("CS", AxiomKind.ADDITIVITY, "order consistency under summation")
    FP = ("FP", AxiomKind.ADDITIVITY, "flatness preserved by summation")
    EP = ("EP", AxiomKind.ADDITIVITY, "pairwise ties preserved by summation")
    RCS = ("RCS", AxiomKind.ADDITIVITY, "order consistency under same-schedule summation")
    IIM = ("IIM", AxiomKind.INDEPENDENCE, "matches of an outside pair do not matter")
    IIR = ("IIR", AxiomKind.INDEPENDENCE, "results of an outside pair do not matter")

    def __init__(self, ident: str, kind: AxiomKind, title: str):
        self.ident = ident
        self.kind = kind
        self.title = title

    @classmethod
    def from_id(cls, ident: str) -> "Axiom":
        try:
            return cls[ident.upper()]
        except KeyError:
            raise ValueError(f"unknown axiom {ident!r}") from None


@dataclass(frozen=True)
class SingleWitness:
    problem: RankingProblem
    permutation: Permutation | None = None


@dataclass(frozen=True)
class PairWitness:
    first: RankingProblem
    second: RankingProblem


@dataclass(frozen=True)
class ChangedPairWitness:
    first: RankingProblem
    second: RankingProblem
    pair: tuple[int, int]


Witness = SingleWitness | PairWitness | ChangedPairWitness


@dataclass(frozen=True)
class Violation:
    """One object pair on which the axiom's implication fails."""

    objects: tuple[int, int]
    labels: tuple[str, str]
    premise: str
    outcome: str

    def describe(self) -> str:
        return f"{self.labels[0]} vs {self.labels[1]}: {self.premise}, but {self.outcome}"


@dataclass(frozen=True)
class AuditReport:
    axiom: Axiom
    method: str
    context: str
    violations: tuple[Violation, ...]
    ratings: tuple[RatingVector, ...]

    @property
    def satisfied(self) -> bool:
        return not self.violations

    @property
    def verdict(self) -> str:
        return "satisfied" if self.satisfied else "violated"


def _is_flat(values) -> bool:
    return all(v == values[0] for v in values)


def _compare(values, i: int, j: int) -> int:
    a, b = values[i], values[j]
    return (a > b) - (a < b)


_REL = {-1: "<", 0: "=", 1: ">"}


def _relation(labels, values, i: int, j: int) -> str:
    """How ``values`` order objects i and j, as in ``"X1 < X2"``."""
    return f"{labels[i]} {_REL[_compare(values, i, j)]} {labels[j]}"


def _report(axiom: Axiom, method: Method, context: str, labels, bad, explain, ratings) -> AuditReport:
    """The report on the failing object pairs ``bad``. For pair (i, j),
    ``explain(i, j)`` gives the violation's premise and outcome."""
    violations = tuple(Violation((i, j), (labels[i], labels[j]), *explain(i, j)) for i, j in bad)
    return AuditReport(axiom, method.label, context, violations, ratings)


def _same_objects(witness) -> tuple[RankingProblem, RankingProblem]:
    """The witness's two problems, which must rank the same objects."""
    if witness.first.labels != witness.second.labels:
        raise LabelMismatch("the two problems must rank the same objects")
    return witness.first, witness.second


def _rate(method: Method, problem: RankingProblem, role: str) -> RatingVector:
    try:
        return method.rate(problem)
    except MethodPreconditionError as exc:
        raise PreconditionUnmet(f"{method.label} is undefined on {role}: {exc}") from exc


# --- shared comparison cores ----------------------------------------------
#
# The cores compare ratings only within one vector, so they work on any
# indexable values that order like the ratings: the checkers pass each
# rating's integer numerators, the counterexample search its weak orders.

def invariance_failures(axiom: Axiom, before, after, sigma: Permutation | None = None):
    """Pairs (i, j) with i < j on which an invariance axiom fails."""
    if axiom.kind is not AxiomKind.INVARIANCE:
        raise ValueError(f"{axiom.ident} is not an invariance axiom")
    neu, sym = axiom is Axiom.NEU, axiom is Axiom.SYM
    n = len(before)
    bad = []
    for i in range(n):
        for j in range(i + 1, n):
            c = _compare(before, i, j)
            if neu:
                ok = c == _compare(after, sigma(i), sigma(j))
            elif sym:
                ok = c == 0
            else:
                ok = c == -_compare(after, i, j)
            if not ok:
                bad.append((i, j))
    return bad


def _direction_holds(c1: int, c2: int, ct: int) -> bool:
    # Premise "at least as good in both inputs"; conclusion must hold in
    # the sum, strictly when either input comparison is strict.
    if c1 < 0 or c2 < 0:
        return True
    if c1 > 0 or c2 > 0:
        return ct > 0
    return ct >= 0


def additivity_failures(axiom: Axiom, first, second, total):
    """Pairs (i, j) with i < j on which an additivity axiom fails."""
    if axiom.kind is not AxiomKind.ADDITIVITY:
        raise ValueError(f"{axiom.ident} is not an additivity axiom")
    consistency = axiom in (Axiom.CS, Axiom.RCS)
    n = len(total)
    bad = []
    for i in range(n):
        for j in range(i + 1, n):
            c1 = _compare(first, i, j)
            c2 = _compare(second, i, j)
            ct = _compare(total, i, j)
            if consistency:
                ok = _direction_holds(c1, c2, ct) and _direction_holds(-c1, -c2, -ct)
            else:  # EP and FP: a tie in both inputs stays a tie
                ok = ct == 0 if (c1 == 0 and c2 == 0) else True
            if not ok:
                bad.append((i, j))
    return bad


def independence_failures(first, second, pair):
    """Pairs disjoint from the edited one whose relative order moved."""
    n = len(first)
    k, l = pair
    bad = []
    for i in range(n):
        if i in (k, l):
            continue
        for j in range(i + 1, n):
            if j in (k, l):
                continue
            if _compare(first, i, j) != _compare(second, i, j):
                bad.append((i, j))
    return bad


# --- the three checkers ----------------------------------------------------

def check_invariance(axiom: Axiom, method: Method, witness: SingleWitness) -> AuditReport:
    """Audit NEU, SYM or INV on one problem.

    NEU needs the witness to carry a permutation; SYM rejects problems
    whose results are not flat, since the axiom says nothing there.
    """
    if axiom.kind is not AxiomKind.INVARIANCE:
        raise ValueError(f"{axiom.ident} takes a different witness shape")
    problem = witness.problem
    labels = problem.labels
    if axiom is Axiom.SYM:
        if not flat_results(problem):
            raise NotFlat("symmetry is only about problems with flat results")
        rating = _rate(method, problem, "the problem")
        bad = invariance_failures(axiom, rating.scaled, rating.scaled)
        return _report(
            axiom, method, "flat problem", labels, bad,
            lambda i, j: ("all results are flat", _relation(labels, rating.scaled, i, j)),
            (rating,),
        )
    if axiom is Axiom.NEU:
        sigma = witness.permutation
        if sigma is None:
            raise MissingPermutation("relabelling invariance needs a permutation")
        moved = permute(problem, sigma)
        before = _rate(method, problem, "the problem")
        after = _rate(method, moved, "the relabelled problem")
        context, change = f"relabelling {tuple(v + 1 for v in sigma.image)}", "relabelling"
        # Object i is rated at position sigma(i) of the relabelled problem.
        seen = [after.scaled[k] for k in sigma.image]
    else:  # INV
        sigma = None
        before = _rate(method, problem, "the problem")
        after = _rate(method, negate(problem), "the reversed problem")
        context, change = "reversed results", "reversing every result"
        seen = after.scaled
    bad = invariance_failures(axiom, before.scaled, after.scaled, sigma)
    return _report(
        axiom, method, context, labels, bad,
        lambda i, j: (
            f"{_relation(labels, before.scaled, i, j)} originally",
            f"{_relation(labels, seen, i, j)} after {change}",
        ),
        (before, after),
    )


def check_additivity(axiom: Axiom, method: Method, witness: PairWitness) -> AuditReport:
    """Audit CS, FP, EP or RCS on a pair of problems and their sum."""
    if axiom.kind is not AxiomKind.ADDITIVITY:
        raise ValueError(f"{axiom.ident} takes a different witness shape")
    first, second = _same_objects(witness)
    if axiom is Axiom.RCS and derive(first).matches != derive(second).matches:
        raise MatchesMismatch("restricted consistency needs identical match schedules")
    labels = first.labels
    f = _rate(method, first, "the first problem")
    g = _rate(method, second, "the second problem")
    if axiom is Axiom.FP and not (_is_flat(f.scaled) and _is_flat(g.scaled)):
        raise NotFlat("flatness preservation is only about inputs rated flat")
    total = _rate(method, sum_problems(first, second), "the summed problem")
    bad = additivity_failures(axiom, f.scaled, g.scaled, total.scaled)
    return _report(
        axiom, method, "pair of problems and their sum", labels, bad,
        lambda i, j: (
            f"{_relation(labels, f.scaled, i, j)} and {_relation(labels, g.scaled, i, j)} in the inputs",
            f"{_relation(labels, total.scaled, i, j)} in the sum",
        ),
        (f, g, total),
    )


def check_independence(axiom: Axiom, method: Method, witness: ChangedPairWitness) -> AuditReport:
    """Audit IIM or IIR on two problems differing in one edited pair."""
    if axiom.kind is not AxiomKind.INDEPENDENCE:
        raise ValueError(f"{axiom.ident} takes a different witness shape")
    first, second = _same_objects(witness)
    n = first.size
    if n < 4:
        raise TooFewObjects("independence needs a pair disjoint from the edited one")
    k, l = witness.pair
    if not (0 <= k < n and 0 <= l < n) or k == l:
        raise ValueError(f"edited pair {witness.pair} is not a pair of distinct objects")
    k, l = min(k, l), max(k, l)
    labels = first.labels
    diffs = changed_pairs(first, second)
    others = [pair for pair in diffs if pair != (k, l)]
    # Report whichever defect comes first in pair order.
    if (k, l) not in diffs and not (others and others[0] < (k, l)):
        raise NotSingleDifference("the edited pair's comparisons are identical")
    if others:
        i, j = others[0]
        raise NotSingleDifference(f"problems also differ on {labels[i]} vs {labels[j]}")
    if axiom is Axiom.IIR and derive(first).matches[k][l] != derive(second).matches[k][l]:
        raise MatchesChanged("the edit must keep the pair's number of matches")
    f = _rate(method, first, "the original problem")
    g = _rate(method, second, "the edited problem")
    bad = independence_failures(f.scaled, g.scaled, (k, l))
    edited = f"{labels[k]} vs {labels[l]}"
    return _report(
        axiom, method, f"edited pair {edited}", labels, bad,
        lambda i, j: (
            f"{_relation(labels, f.scaled, i, j)} before editing {edited}",
            f"{_relation(labels, g.scaled, i, j)} after",
        ),
        (f, g),
    )


def run_check(axiom: Axiom, method: Method, witness: Witness) -> AuditReport:
    """Dispatch a witness to the checker its axiom family requires."""
    if axiom.kind is AxiomKind.INVARIANCE:
        if not isinstance(witness, SingleWitness):
            raise TypeError(f"{axiom.ident} needs a SingleWitness")
        return check_invariance(axiom, method, witness)
    if axiom.kind is AxiomKind.ADDITIVITY:
        if not isinstance(witness, PairWitness):
            raise TypeError(f"{axiom.ident} needs a PairWitness")
        return check_additivity(axiom, method, witness)
    if not isinstance(witness, ChangedPairWitness):
        raise TypeError(f"{axiom.ident} needs a ChangedPairWitness")
    return check_independence(axiom, method, witness)

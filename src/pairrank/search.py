"""Exhaustive and randomized counterexample search over small problems.

Candidates are tournaments in the integer form a
:class:`~pairrank.model.RankingProblem` stores, at denominator 2: a
matrix ``dt`` with ``dt[i][j] = 2 t[i][j]``, which makes the search
space a finite grid. A pair playing ``m`` matches contributes
``dt[i][j] = m + a`` and ``dt[j][i] = m - a`` for an integer result
``a`` between ``-m`` and ``m``, so every candidate score is a
half-integer. The canonical order is: ascending object count, then
ascending total number of matches, then lexicographic on the flattened
matrix. Domain filters and the transforms the axioms need (transpose,
relabel, sum) are the scale-free kernels of :mod:`pairrank.model`,
applied to the grid directly; a problem is built only to rate a
candidate not rated before, or to report a witness.

The scan evaluates ratings exactly and shares its comparison logic with
the public checkers. A candidate can be skipped only when it
provably cannot witness a violation (wrong shape for the axiom, method
undefined, or a premise that cannot hold, such as no common input tie
for tie preservation). Every hit is replayed through the public checker
before it is returned, so a reported witness is never a scan artifact.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations, permutations, product

from .axioms import (
    Axiom,
    AxiomKind,
    ChangedPairWitness,
    PairWitness,
    SingleWitness,
    additivity_failures,
    independence_failures,
    invariance_failures,
    run_check,
)
from .errors import MethodPreconditionError, PreconditionUnmet, WitnessError
from .methods import Method
from .model import (
    Matrix,
    Permutation,
    RankingProblem,
    add,
    connected,
    flat,
    irreducible,
    relabel,
    round_robin,
    transpose,
)

DOMAINS = ("all", "connected", "irreducible", "roundrobin")
MODES = ("exhaustive", "random")


@dataclass(frozen=True)
class SearchConfig:
    """Shape of the candidate space and how to walk it.

    ``object_counts`` lists the problem sizes to try, ``max_matches``
    caps how often a pair may meet, and ``domain`` restricts candidates
    (all, connected, irreducible, roundrobin). Results are always
    integers, so the grid is finite. In random mode each candidate is a
    pure function of (seed, index), which makes runs reproducible; the
    budget says how many candidates to draw. The search stops after
    ``limit`` verified witnesses either way.
    """

    object_counts: tuple[int, ...] = (4,)
    max_matches: int = 1
    domain: str = "all"
    mode: str = "exhaustive"
    seed: int = 0
    budget: int = 10_000
    limit: int = 1

    def __post_init__(self):
        object.__setattr__(self, "object_counts", tuple(sorted(set(int(n) for n in self.object_counts))))
        if not self.object_counts or self.object_counts[0] < 2:
            raise ValueError("object counts must all be at least 2")
        if self.max_matches < 1:
            raise ValueError("max_matches must be at least 1")
        if self.domain not in DOMAINS:
            raise ValueError(f"unknown domain {self.domain!r}, expected one of {DOMAINS}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}, expected one of {MODES}")
        if self.budget < 1 or self.limit < 1:
            raise ValueError("budget and limit must be positive")


@dataclass(frozen=True)
class SearchHit:
    witness: object
    report: object


@dataclass(frozen=True)
class SearchResult:
    hits: tuple[SearchHit, ...]
    examined: int
    admissible: int
    exhausted: bool

    @property
    def found(self) -> bool:
        return bool(self.hits)


def _labels(n: int) -> tuple[str, ...]:
    return tuple(f"X{i + 1}" for i in range(n))


def _problem(dt: Matrix) -> RankingProblem:
    return RankingProblem.from_scaled(_labels(len(dt)), dt, 2)


def _pairs(n: int) -> list[tuple[int, int]]:
    return list(combinations(range(n), 2))


def _even_split(dt: Matrix) -> Matrix:
    """Rebalance each pair's matches into an even split, keeping counts."""
    return tuple(tuple(v // 2 for v in row) for row in add(dt, transpose(dt)))


_DOMAIN_TEST = {
    "all": lambda dt: True,
    "connected": connected,
    "irreducible": irreducible,
    "roundrobin": round_robin,
}


def _compositions(total: int, parts: int, cap: int):
    """All ways to write ``total`` as ``parts`` ordered summands in 0..cap."""
    if parts == 1:
        if 0 <= total <= cap:
            yield (total,)
        return
    for head in range(min(cap, total) + 1):
        for rest in _compositions(total - head, parts - 1, cap):
            yield (head,) + rest


def _build_dt(n: int, pairs, mvec, avec) -> Matrix:
    dt = [[0] * n for _ in range(n)]
    for (i, j), m, a in zip(pairs, mvec, avec):
        dt[i][j] = m + a
        dt[j][i] = m - a
    return tuple(tuple(row) for row in dt)


def enumerate_doubled(n: int, max_matches: int, domain: str):
    """Yield the candidate matrices (at denominator 2) for one object
    count, in canonical order."""
    pairs = _pairs(n)
    test = _DOMAIN_TEST[domain]
    if domain == "roundrobin":
        for m in range(1, max_matches + 1):
            bucket = []
            mvec = (m,) * len(pairs)
            for avec in product(*(range(-m, m + 1) for _ in pairs)):
                dt = _build_dt(n, pairs, mvec, avec)
                bucket.append(dt)
            bucket.sort()
            yield from bucket
        return
    for total in range(0, len(pairs) * max_matches + 1):
        bucket = []
        for mvec in _compositions(total, len(pairs), max_matches):
            for avec in product(*(range(-m, m + 1) for m in mvec)):
                dt = _build_dt(n, pairs, mvec, avec)
                if test(dt):
                    bucket.append(dt)
        bucket.sort()
        yield from bucket


def _order_keys(values) -> tuple[int, ...]:
    # The ratings times the lcm of their denominators: integers that
    # compare exactly as the ratings do.
    scale = math.lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (scale // v.denominator) for v in values)


class _Evaluator:
    """Cached rating order keys for candidate matrices.

    A candidate is rated through the method's public implementation, and
    its ratings are kept as integer order keys. Every comparison core
    only compares ratings of one vector, so the keys give the same
    verdicts. ``None`` marks a candidate the method is undefined on.
    """

    def __init__(self, method: Method):
        self.method = method
        self._cache: dict[Matrix, tuple[int, ...] | None] = {}

    def values(self, dt: Matrix):
        try:
            return self._cache[dt]
        except KeyError:
            pass
        try:
            out = _order_keys(self.method.rate(_problem(dt)).values)
        except MethodPreconditionError:
            out = None
        self._cache[dt] = out
        return out


def _tie_mask(values, pairs) -> int:
    mask = 0
    for bit, (i, j) in enumerate(pairs):
        if values[i] == values[j]:
            mask |= 1 << bit
    return mask


class _Budget:
    """Mutable counters threaded through one search run."""

    def __init__(self, limit: int):
        self.limit = limit
        self.examined = 0
        self.admissible = 0
        self.hits: list[SearchHit] = []

    def full(self) -> bool:
        return len(self.hits) >= self.limit


def _verify_hit(axiom: Axiom, method: Method, witness, budget: _Budget):
    report = run_check(axiom, method, witness)
    if report.satisfied:
        raise RuntimeError("internal: scan flagged a witness the checker accepts")
    budget.hits.append(SearchHit(witness, report))


def _search_invariance(axiom, method, config, budget):
    evaluator = _Evaluator(method)
    for n in config.object_counts:
        sigmas = None
        if axiom is Axiom.NEU:
            sigmas = [
                Permutation(p) for p in permutations(range(n)) if p != tuple(range(n))
            ]
        domain = config.domain
        for dt in enumerate_doubled(n, config.max_matches, domain):
            if axiom is Axiom.SYM and not flat(dt):
                continue
            base = evaluator.values(dt)
            if axiom is Axiom.NEU:
                for sigma in sigmas:
                    budget.examined += 1
                    if base is None:
                        continue
                    moved = evaluator.values(relabel(dt, sigma))
                    if moved is None:
                        continue
                    budget.admissible += 1
                    if invariance_failures(axiom, base, moved, sigma):
                        _verify_hit(
                            axiom, method, SingleWitness(_problem(dt), sigma), budget
                        )
                        if budget.full():
                            return
                continue
            budget.examined += 1
            if base is None:
                continue
            if axiom is Axiom.SYM:
                budget.admissible += 1
                if invariance_failures(axiom, base, base):
                    _verify_hit(axiom, method, SingleWitness(_problem(dt)), budget)
                    if budget.full():
                        return
                continue
            flipped = evaluator.values(transpose(dt))
            if flipped is None:
                continue
            budget.admissible += 1
            if invariance_failures(axiom, base, flipped):
                _verify_hit(axiom, method, SingleWitness(_problem(dt)), budget)
                if budget.full():
                    return


def _search_additivity(axiom, method, config, budget):
    evaluator = _Evaluator(method)
    for n in config.object_counts:
        pairs = _pairs(n)
        cands = list(enumerate_doubled(n, config.max_matches, config.domain))
        values = [evaluator.values(dt) for dt in cands]
        if axiom is Axiom.FP:
            # Only inputs the method rates flat can witness this axiom.
            keep = [
                idx
                for idx, v in enumerate(values)
                if v is not None and all(x == v[0] for x in v)
            ]
            cands = [cands[idx] for idx in keep]
            values = [values[idx] for idx in keep]
        masks = None
        if axiom is Axiom.EP:
            masks = [None if v is None else _tie_mask(v, pairs) for v in values]
        groups: list[list[int]]
        if axiom is Axiom.RCS:
            by_schedule: dict[Matrix, list[int]] = {}
            for idx, dt in enumerate(cands):
                by_schedule.setdefault(add(dt, transpose(dt)), []).append(idx)
            groups = list(by_schedule.values())
        else:
            groups = [list(range(len(cands)))]
        for group in groups:
            for ai in range(len(group)):
                pi = group[ai]
                vp = values[pi]
                for bi in range(ai, len(group)):
                    qi = group[bi]
                    budget.examined += 1
                    vq = values[qi]
                    if vp is None or vq is None:
                        continue
                    budget.admissible += 1
                    if masks is not None and not (masks[pi] & masks[qi]):
                        continue
                    vt = evaluator.values(add(cands[pi], cands[qi]))
                    if vt is None:
                        continue
                    if additivity_failures(axiom, vp, vq, vt):
                        witness = PairWitness(_problem(cands[pi]), _problem(cands[qi]))
                        _verify_hit(axiom, method, witness, budget)
                        if budget.full():
                            return


def _pair_edits(axiom, dt: Matrix, k: int, l: int, max_matches: int) -> list[Matrix]:
    """Every grid matrix that differs from ``dt`` on pair (k, l) alone, as
    the axiom may edit it: IIR keeps the pair's matches, IIM need not."""
    m = (dt[k][l] + dt[l][k]) // 2
    a = (dt[k][l] - dt[l][k]) // 2
    counts = (m,) if axiom is Axiom.IIR else range(0, max_matches + 1)
    edits = []
    for m2 in counts:
        for a2 in range(-m2, m2 + 1):
            if (m2, a2) != (m, a):
                edited = [list(row) for row in dt]
                edited[k][l] = m2 + a2
                edited[l][k] = m2 - a2
                edits.append(tuple(tuple(row) for row in edited))
    return edits


def _search_independence(axiom, method, config, budget):
    evaluator = _Evaluator(method)
    test = _DOMAIN_TEST[config.domain]
    for n in config.object_counts:
        if n < 4:
            continue
        pairs = _pairs(n)
        for dt in enumerate_doubled(n, config.max_matches, config.domain):
            base = evaluator.values(dt)
            for k, l in pairs:
                for dt2 in _pair_edits(axiom, dt, k, l, config.max_matches):
                    if not test(dt2):
                        continue
                    budget.examined += 1
                    if base is None:
                        continue
                    other = evaluator.values(dt2)
                    if other is None:
                        continue
                    budget.admissible += 1
                    if independence_failures(base, other, (k, l)):
                        witness = ChangedPairWitness(_problem(dt), _problem(dt2), (k, l))
                        _verify_hit(axiom, method, witness, budget)
                        if budget.full():
                            return


def _random_dt(rng, n, max_matches, domain) -> Matrix | None:
    pairs = _pairs(n)
    for _ in range(200):
        if domain == "roundrobin":
            m = rng.randint(1, max_matches)
            mvec = [m] * len(pairs)
        else:
            mvec = [rng.randint(0, max_matches) for _ in pairs]
        avec = [rng.randint(-m, m) for m in mvec]
        dt = _build_dt(n, pairs, mvec, avec)
        if _DOMAIN_TEST[domain](dt):
            return dt
    return None


def _random_witness(axiom, rng, config):
    counts = [n for n in config.object_counts if n >= 4] if axiom.kind is AxiomKind.INDEPENDENCE else list(config.object_counts)
    if not counts:
        return None
    n = rng.choice(counts)
    dt = _random_dt(rng, n, config.max_matches, config.domain)
    if dt is None:
        return None
    if axiom.kind is AxiomKind.INVARIANCE:
        if axiom is Axiom.NEU:
            image = list(range(n))
            while image == list(range(n)):
                rng.shuffle(image)
            return SingleWitness(_problem(dt), Permutation(tuple(image)))
        if axiom is Axiom.SYM:
            # Split each pair's matches evenly: entries (m - a) + a = m.
            return SingleWitness(_problem(_even_split(dt)))
        return SingleWitness(_problem(dt))
    if axiom.kind is AxiomKind.ADDITIVITY:
        pairs = _pairs(n)
        if axiom is Axiom.FP:
            dt_b = _random_dt(rng, n, config.max_matches, config.domain)
            if dt_b is None:
                return None
            return PairWitness(_problem(_even_split(dt)), _problem(_even_split(dt_b)))
        if axiom is Axiom.RCS:
            avec = [
                rng.randint(-(dt[i][j] + dt[j][i]) // 2, (dt[i][j] + dt[j][i]) // 2)
                for i, j in pairs
            ]
            mvec = [(dt[i][j] + dt[j][i]) // 2 for i, j in pairs]
            dt_b = _build_dt(n, pairs, mvec, avec)
            return PairWitness(_problem(dt), _problem(dt_b))
        dt_b = _random_dt(rng, n, config.max_matches, config.domain)
        if dt_b is None:
            return None
        return PairWitness(_problem(dt), _problem(dt_b))
    pairs = _pairs(n)
    for _ in range(200):
        k, l = pairs[rng.randrange(len(pairs))]
        edits = _pair_edits(axiom, dt, k, l, config.max_matches)
        if not edits:
            continue
        dt2 = edits[rng.randrange(len(edits))]
        if _DOMAIN_TEST[config.domain](dt2):
            return ChangedPairWitness(_problem(dt), _problem(dt2), (k, l))
    return None


def _draw_rng(seed: int, index: int) -> random.Random:
    # One stream per (seed, index). A string seed is hashed with sha512,
    # so distinct keys give unrelated streams on every run.
    return random.Random(f"{seed}:{index}")


def _search_random(axiom, method, config, budget):
    for index in range(config.budget):
        rng = _draw_rng(config.seed, index)
        witness = _random_witness(axiom, rng, config)
        budget.examined += 1
        if witness is None:
            continue
        try:
            report = run_check(axiom, method, witness)
        except (WitnessError, PreconditionUnmet):
            continue
        budget.admissible += 1
        if not report.satisfied:
            budget.hits.append(SearchHit(witness, report))
            if budget.full():
                return


def search(method: Method, axiom: Axiom, config: SearchConfig) -> SearchResult:
    """Look for witnesses violating ``axiom`` under ``method``.

    Exhaustive mode walks the whole candidate grid in canonical order
    and is deterministic; random mode draws ``config.budget`` candidates
    derived from the seed. Returns the verified hits plus how many
    candidates were examined and how many were admissible (shape valid
    and method defined). ``exhausted`` is False exactly when the walk
    stopped early because the witness limit was reached.
    """
    budget = _Budget(config.limit)
    if config.mode == "random":
        _search_random(axiom, method, config, budget)
    elif axiom.kind is AxiomKind.INVARIANCE:
        _search_invariance(axiom, method, config, budget)
    elif axiom.kind is AxiomKind.ADDITIVITY:
        _search_additivity(axiom, method, config, budget)
    else:
        _search_independence(axiom, method, config, budget)
    return SearchResult(
        hits=tuple(budget.hits),
        examined=budget.examined,
        admissible=budget.admissible,
        exhausted=not budget.full(),
    )

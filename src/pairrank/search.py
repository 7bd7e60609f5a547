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

A search is one scan over candidates from one of two sources: the grid
walks the whole space in canonical order (exhaustive mode), and the
draws make ``budget`` candidates from the seed (random mode). A
candidate is a small tuple: ``(dt, sigma)`` for invariance, ``(first,
second)`` for additivity, ``(first, second, pair)`` for independence,
or ``None`` for a draw that failed. An additivity input is a slot
``[dt, None]``: the grid makes one per input matrix, which every pair
of its group shares, and each draw gets fresh ones. Both
sources yield only the shape the axiom takes (a flat problem for SYM,
one schedule for RCS, a single edited pair on at least four objects for
IIM and IIR), and the grid also skips FP inputs the method does not rate
flat, which cannot witness that axiom.

One judge per axiom family decides a candidate exactly. The evaluator
rates each matrix once per search and keeps its weak order, the dense
ranks of its ratings. Every method is neutral: relabelling the objects
relabels the ratings and nothing else. So on up to four objects the
evaluator rates only one canonical representative per relabelling orbit
and maps its weak order back to each member, which changes no verdict; a
NEU search, which tests exactly that property, rates every matrix
itself. Every judge decides with the rule the public checker runs on:
a few bitwise operations on three bit masks per weak order, the object
pairs it ranks above, below and tied (:func:`~pairrank.axioms.pair_masks`).
The rules compare ratings only within one vector, so they give the same
verdicts on weak orders as on ratings. The additivity judge fills an
input's slot the first time it reads it, with the input packed into an
int and its masks, and looks a sum up by adding two codes, building it
only the first time it is rated. A judge returns ``None`` exactly where
the checker would refuse the witness, and the failing object pairs
otherwise, so only a flagged candidate is built into a witness. That
witness is replayed through the public checker before it is returned,
in both modes, and must fail on the same pairs, so a reported witness
is never a scan artifact.

On up to four objects, exhaustive additivity also works one pair orbit
at a time. Relabelling both inputs of a pair at once relabels their
sum, so a neutral method gives every pair of an orbit one verdict. The
grid judges the first member of each orbit of inputs against every
partner (for RCS, its own schedule group); if none fails, no pair of
that object count fails, and the count is settled without yielding a
candidate (:func:`_settle`). A failing pair does not say which pair the
canonical walk meets first, so it hands the object count back to that
walk, which reports the same witness, counts and replay as before.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from functools import cache
from itertools import chain, combinations, combinations_with_replacement, groupby, permutations, product

from .axioms import (
    Axiom,
    AxiomKind,
    ChangedPairWitness,
    PairWitness,
    SingleWitness,
    # Not called here, but the benchmark tracer wraps the three cores here.
    additivity_failures,
    additivity_rule,
    disjoint_pairs,
    independence_breaks,
    independence_failures,
    invariance_failures,
    invariance_rule,
    mask_pairs,
    pair_masks,
    run_check,
)
from .errors import MethodPreconditionError
from .methods import Method
from .model import (
    Matrix,
    Permutation,
    RankingProblem,
    add,
    connected,
    flat,
    irreducible,
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
    ``limit`` verified witnesses either way. Every count must be an
    integer: a float raises ``TypeError`` instead of being truncated.
    """

    object_counts: tuple[int, ...] = (4,)
    max_matches: int = 1
    domain: str = "all"
    mode: str = "exhaustive"
    seed: int = 0
    budget: int = 10_000
    limit: int = 1

    def __post_init__(self):
        counts = tuple(sorted({operator.index(n) for n in self.object_counts}))
        object.__setattr__(self, "object_counts", counts)
        for name in ("max_matches", "seed", "budget", "limit"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if not counts:
            raise ValueError("object counts must not be empty")
        if counts[0] < 2:
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
    # One group of match schedules per total number of matches, each
    # group's candidates sorted. A round robin's total is m C(n, 2), and
    # its schedule makes it a round robin, so no candidate needs the test.
    if domain == "roundrobin":
        groups = ([(m,) * len(pairs)] for m in range(1, max_matches + 1))
        test = _DOMAIN_TEST["all"]
    else:
        totals = range(len(pairs) * max_matches + 1)
        groups = (_compositions(total, len(pairs), max_matches) for total in totals)
        test = _DOMAIN_TEST[domain]
    for schedules in groups:
        bucket = []
        for mvec in schedules:
            for avec in product(*(range(-m, m + 1) for m in mvec)):
                dt = _build_dt(n, pairs, mvec, avec)
                if test(dt):
                    bucket.append(dt)
        bucket.sort()
        yield from bucket


_MISSING = object()

# The most objects a matrix may have for the search to work one
# relabelling orbit at a time, both in rating it and in pairing it.
ORBIT_OBJECTS = 4


class _Evaluator(dict):
    """Weak orders of candidate matrices, computed on first lookup.

    ``evaluator[dt]`` rates a candidate once, through the method's public
    implementation, and keeps its weak order: the dense rank 0..k-1 of
    each rating, taken from the rating's integer numerators, which order
    like the ratings. Equal weak orders share one tuple, and
    ``masks(order)`` gives its :func:`~pairrank.axioms.pair_masks`, which
    every judge decides on. ``None`` marks a candidate the method is
    undefined on. ``rate`` computes a weak order without keeping it under
    ``dt``: the additivity judge rates sums that way and keeps only their
    pair masks, under the sum's code, in a table of its own.

    With ``orbits`` on, the evaluator rates one representative per
    relabelling orbit of a matrix on at most ``ORBIT_OBJECTS`` objects
    (see :func:`_canonical`), keeps its weak order under the
    representative, and maps it back to each member. That is exact
    because every method is neutral: relabelling the objects relabels
    their ratings and nothing else, and the preconditions a method checks
    (connectivity, irreducibility, n and m) do not depend on the labels,
    so ``None`` is shared too. A NEU search tests exactly that
    assumption, so it turns ``orbits`` off and rates every relabelling
    itself. Larger matrices are rated directly: at four objects a matrix
    has at most 4! = 24 tie orders to try, and no larger size has been
    measured.

    The same neutrality lets the additivity grid judge one pair per
    orbit, since every other pair relabels one of those; a failing pair
    hands the object count back to the canonical walk, whose first
    witness may lie in another orbit. ``representative`` gives the grid
    the representative an input is rated through, so no input is
    canonicalised twice.
    """

    def __init__(self, method: Method, orbits: bool = True):
        super().__init__()
        self.method = method
        self.orbits = orbits
        self.interned: dict[tuple[int, ...], tuple[int, ...]] = {}
        self.masks = cache(pair_masks)

    def _weak_order(self, dt: Matrix) -> tuple[int, ...] | None:
        try:
            keys = self.method.rate(_problem(dt)).scaled
        except MethodPreconditionError:
            return None
        rank = {key: r for r, key in enumerate(sorted(set(keys)))}
        order = tuple(rank[key] for key in keys)
        return self.interned.setdefault(order, order)

    def rate(self, dt: Matrix) -> tuple[int, ...] | None:
        if not self.orbits or len(dt) > ORBIT_OBJECTS:
            return self._weak_order(dt)
        return self._relabelled(*_canonical(dt))

    def representative(self, dt: Matrix) -> Matrix:
        """The representative of the orbit of ``dt``, which has at most
        ``ORBIT_OBJECTS`` objects; ``dt`` is rated on the way."""
        rep, objs = _canonical(dt)
        self[dt] = self._relabelled(rep, objs)
        return rep

    def _relabelled(self, rep: Matrix, objs: tuple[int, ...]) -> tuple[int, ...] | None:
        shared = self.get(rep, _MISSING)
        if shared is _MISSING:
            shared = self[rep] = self._weak_order(rep)
        if shared is None:
            return None
        # Position k of the representative is object objs[k] of dt.
        order = [0] * len(objs)
        for k, i in enumerate(objs):
            order[i] = shared[k]
        order = tuple(order)
        return self.interned.setdefault(order, order)

    def __missing__(self, dt: Matrix):
        order = self[dt] = self.rate(dt)
        return order


def _canonical(dt: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """The representative of the relabelling orbit of ``dt``, and the
    object order ``objs`` with ``rep[k][l] = dt[objs[k]][objs[l]]``.

    Objects are sorted by (won, lost), the row and column sums, which a
    relabelling carries along with the object. Every order of the
    objects within each tie class is tried, and the representative is
    the least matrix they give. Every member of the orbit offers the
    same set of relabelled matrices, so all of them meet the same least
    one. The tie classes of n objects allow up to n! orders. ``dt`` has
    at least two objects, as every candidate has.
    """
    key = list(zip(map(sum, dt), map(sum, zip(*dt))))
    ranked = sorted(range(len(dt)), key=key.__getitem__)
    if len(set(key)) == len(dt):
        orders = [ranked]
    else:
        classes = [tuple(group) for _, group in groupby(ranked, key=key.__getitem__)]
        orders = [list(chain.from_iterable(parts)) for parts in product(*map(permutations, classes))]
    best = objs = None
    for order in orders:
        pick = operator.itemgetter(*order)
        rep = tuple(map(pick, pick(dt)))
        if best is None or rep < best:
            best, objs = rep, order
    return best, tuple(objs)


def _pack(dt: Matrix, radix: int) -> int:
    """``dt`` as one int: its object count, then its entries row by row
    as digits in base ``radix``.

    Every digit must lie in ``[0, radix)``. Then no digit carries into
    the next, so two matrices of one size whose entrywise sum stays
    below ``radix`` have ``_pack(a) + _pack(b) - _pack(zeros)`` as the
    code of their sum. The leading count keeps matrices of different
    sizes apart, even where the first rows are zero.
    """
    code = len(dt)
    for row in dt:
        for v in row:
            if not 0 <= v < radix:
                raise ValueError(f"entry {v} does not fit radix {radix}")
            code = code * radix + v
    return code


# --- where candidates come from -------------------------------------------

def _grid(axiom: Axiom, config: SearchConfig, evaluator: _Evaluator, judge=None, settled=None):
    """Every exhaustive-mode candidate, in canonical order.

    Given the search's additivity ``judge``, an object count of at most
    ``ORBIT_OBJECTS`` is first judged one pair orbit at a time (see
    :func:`_settle`). A count with no violation yields no candidates: its
    examined and admissible pair counts are added to ``settled`` instead.
    """
    for n in config.object_counts:
        cands = enumerate_doubled(n, config.max_matches, config.domain)
        if axiom is Axiom.NEU:
            sigmas = [Permutation(p) for p in permutations(range(n)) if p != tuple(range(n))]
            for dt in cands:
                for sigma in sigmas:
                    yield dt, sigma
        elif axiom.kind is AxiomKind.INVARIANCE:
            for dt in cands:
                if axiom is not Axiom.SYM or flat(dt):
                    yield dt, None
        elif axiom.kind is AxiomKind.ADDITIVITY:
            by_orbit = judge is not None and n <= ORBIT_OBJECTS
            # A representative rates its input on the way, so the FP
            # filter below canonicalises nothing a second time.
            cands = [(dt, evaluator.representative(dt) if by_orbit else None) for dt in cands]
            if axiom is Axiom.FP:
                # Only inputs rated flat (dense ranks all 0) can witness this axiom.
                cands = [c for c in cands if (v := evaluator[c[0]]) is not None and not any(v)]
            # One slot per input, which the judge fills when it first
            # reads it; RCS pairs only inputs of one schedule.
            groups: dict[Matrix | None, list] = {}
            orbits: dict[Matrix, list] = {}
            for dt, rep in cands:
                slot = [dt, None]
                group = groups.setdefault(add(dt, transpose(dt)) if axiom is Axiom.RCS else None, [])
                group.append(slot)
                if by_orbit:
                    orbits.setdefault(rep, [slot, group, 0])[2] += 1
            if orbits:
                admissible = _settle(judge, orbits.values())
                if admissible is not None:
                    settled[0] += sum(len(group) * (len(group) + 1) // 2 for group in groups.values())
                    settled[1] += admissible
                    continue
            for group in groups.values():
                yield from combinations_with_replacement(group, 2)
        elif n >= 4:
            test = _DOMAIN_TEST[config.domain]
            pairs = _pairs(n)
            for dt in cands:
                for pair in pairs:
                    for edited in _pair_edits(axiom, dt, *pair, config.max_matches):
                        if test(edited):
                            yield dt, edited, pair


def _settle(judge, orbits) -> int | None:
    """The admissible pairs of an additivity grid with no violation, or
    None at the first violation.

    ``orbits`` holds, per relabelling orbit of inputs, the slot of its
    first member R, R's partners and the orbit's size. A grid pair
    (A, B) relabels to a pair (R, B'), where B' is a partner of R: the
    domains and the FP filter are closed under relabelling, and B' keeps
    R's schedule when B keeps A's. A neutral method gives both the same
    verdict, and both rules are symmetric in the inputs. An orbit of
    size s stands for s ordered pairs per admissible partner; counting
    the pairs (A, A) twice makes the ordered count twice the unordered.
    """
    ordered = diagonal = 0
    for first, partners, size in orbits:
        for partner in partners:
            bad = judge(first, partner)
            if bad:
                return None
            if bad is not None:
                ordered += size
                if partner is first:
                    diagonal += size
    return (ordered + diagonal) // 2


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
                row_k, row_l = list(dt[k]), list(dt[l])
                row_k[l], row_l[k] = m2 + a2, m2 - a2
                edited = list(dt)
                edited[k], edited[l] = tuple(row_k), tuple(row_l)
                edits.append(tuple(edited))
    return edits


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


def _random_candidate(axiom, rng, config):
    """One random-mode candidate, or None when the draw failed."""
    counts = config.object_counts
    if axiom.kind is AxiomKind.INDEPENDENCE:
        counts = [n for n in counts if n >= 4]
    if not counts:
        return None
    n = rng.choice(counts)
    pairs = _pairs(n)
    dt = _random_dt(rng, n, config.max_matches, config.domain)
    if dt is None:
        return None
    if axiom.kind is AxiomKind.INVARIANCE:
        if axiom is Axiom.NEU:
            image = list(range(n))
            while image == list(range(n)):
                rng.shuffle(image)
            return dt, Permutation(tuple(image))
        if axiom is Axiom.SYM:
            # Split each pair's matches evenly: entries (m - a) + a = m.
            return _even_split(dt), None
        return dt, None
    if axiom is Axiom.RCS:
        # The second input keeps the first one's schedule, and must lie in
        # the domain too: irreducibility depends on the results.
        mvec = [(dt[i][j] + dt[j][i]) // 2 for i, j in pairs]
        for _ in range(200):
            dt_b = _build_dt(n, pairs, mvec, [rng.randint(-m, m) for m in mvec])
            if _DOMAIN_TEST[config.domain](dt_b):
                return [dt, None], [dt_b, None]
        return None
    if axiom.kind is AxiomKind.ADDITIVITY:
        dt_b = _random_dt(rng, n, config.max_matches, config.domain)
        if dt_b is None:
            return None
        if axiom is Axiom.FP:
            dt, dt_b = _even_split(dt), _even_split(dt_b)
        return [dt, None], [dt_b, None]
    for _ in range(200):
        k, l = pairs[rng.randrange(len(pairs))]
        edits = _pair_edits(axiom, dt, k, l, config.max_matches)
        if not edits:
            continue
        dt2 = edits[rng.randrange(len(edits))]
        if _DOMAIN_TEST[config.domain](dt2):
            return dt, dt2, (k, l)
    return None


def _draw_rng(seed: int, index: int) -> random.Random:
    # One stream per (seed, index). A string seed is hashed with sha512,
    # so distinct keys give unrelated streams on every run.
    return random.Random(f"{seed}:{index}")


# --- how a candidate is judged ----------------------------------------------
#
# A judge returns the object pairs on which the axiom fails, or None
# when the public checker would refuse the candidate's witness. Each
# applies its family's rule on pair bit masks (``invariance_rule``,
# ``additivity_rule``, ``independence_breaks``), the rule the matching
# ``*_failures`` core runs on, and never calls a core itself.

def _invariance_judge(axiom: Axiom, evaluator: _Evaluator, max_matches: int):
    neu, sym = axiom is Axiom.NEU, axiom is Axiom.SYM
    breaks = invariance_rule(axiom)
    masks = evaluator.masks
    # One item getter per relabelling, as in model.relabel: picking rows,
    # then entries, in the order of the objects sigma moves to 0, 1, ...
    relabellers = cache(lambda image: operator.itemgetter(*sorted(range(len(image)), key=image.__getitem__)))

    def judge(dt, sigma):
        before = evaluator[dt]
        if before is None:
            return None
        if neu:
            pick = relabellers(sigma.image)
            after = evaluator[tuple(map(pick, pick(dt)))]
            if after is None:
                return None
            # Object i is rated at position sigma(i) of the relabelled problem.
            after = tuple(map(after.__getitem__, sigma.image))
        elif sym:
            after = before
        else:
            after = evaluator[transpose(dt)]
        if after is None:
            return None
        return mask_pairs(breaks(masks(before), masks(after)), len(dt))

    return judge


def _additivity_judge(axiom: Axiom, evaluator: _Evaluator, max_matches: int):
    fp, ep = axiom is Axiom.FP, axiom is Axiom.EP
    breaks = additivity_rule(axiom)
    # Inputs have entries in [0, 2 max_matches], so the entries of a sum
    # stay below the radix, and a sum's code is the code of one input
    # plus the digits of the other: no sum is built to be looked up.
    # Inputs and sums share one table of pair masks, so a matrix that is
    # both is rated once.
    radix = 4 * max_matches + 1
    masks = evaluator.masks
    by_code: dict[int, tuple[int, int, int] | None] = {}

    def masks_of(order):
        return None if order is None else masks(order)

    def enter(slot):
        """Fill an input slot ``[dt, None]`` with its record: the code of
        ``dt``, its digits without the object count, and its pair masks;
        ``()`` if the method is undefined on it."""
        dt = slot[0]
        if max(map(max, dt)) > 2 * max_matches:
            raise ValueError(f"entries of {dt} exceed twice max_matches={max_matches}")
        code = _pack(dt, radix)
        if code not in by_code:
            by_code[code] = masks_of(evaluator[dt])
        dt_masks = by_code[code]
        n = len(dt)
        slot[1] = () if dt_masks is None else (code, code - n * radix ** (n * n), dt_masks)
        return slot[1]

    def judge(first, second):
        a = first[1]
        if a is None:
            a = enter(first)
        b = second[1]
        if b is None:
            b = enter(second)
        if not (a and b):
            return None
        code, _, f = a
        _, digits, g = b
        # Inputs rated flat rank no pair above or below.
        if fp and (f[0] | f[1] | g[0] | g[1]):
            return None
        # Every method rates the sum of two problems it rates: connectivity
        # and irreducibility survive added matches, and the reasonable
        # epsilon needs only three objects and one match. So inputs with
        # no common tie are admissible and cannot witness EP.
        if ep and not f[2] & g[2]:
            return []
        code += digits
        total = by_code.get(code, _MISSING)
        if total is _MISSING:
            total = by_code[code] = masks_of(evaluator.rate(add(first[0], second[0])))
        if total is None:
            return None
        return mask_pairs(breaks(f, g, total), len(first[0]))

    return judge


def _independence_judge(axiom: Axiom, evaluator: _Evaluator, max_matches: int):
    masks = evaluator.masks
    disjoint = cache(disjoint_pairs)

    def judge(first, second, pair):
        f = evaluator[first]
        if f is None:
            return None
        g = evaluator[second]
        if g is None:
            return None
        n = len(first)
        return mask_pairs(independence_breaks(masks(f), masks(g), disjoint(n, pair)), n)

    return judge


_JUDGES = {
    AxiomKind.INVARIANCE: _invariance_judge,
    AxiomKind.ADDITIVITY: _additivity_judge,
    AxiomKind.INDEPENDENCE: _independence_judge,
}


def _witness(axiom: Axiom, candidate):
    """The public witness a candidate stands for."""
    if axiom.kind is AxiomKind.INVARIANCE:
        dt, sigma = candidate
        return SingleWitness(_problem(dt), sigma)
    if axiom.kind is AxiomKind.ADDITIVITY:
        first, second = candidate
        return PairWitness(_problem(first[0]), _problem(second[0]))
    first, second, pair = candidate
    return ChangedPairWitness(_problem(first), _problem(second), pair)


def search(method: Method, axiom: Axiom, config: SearchConfig) -> SearchResult:
    """Look for witnesses violating ``axiom`` under ``method``.

    Exhaustive mode scans the whole candidate grid in canonical order
    and is deterministic; random mode scans ``config.budget`` candidates
    derived from the seed. Either way each candidate is judged exactly,
    and each flagged one is replayed through the public checker. Returns
    the verified hits plus how many candidates were examined and how
    many were admissible (shape valid and method defined). ``exhausted``
    is False exactly when the scan stopped early because the witness
    limit was reached.
    """
    evaluator = _Evaluator(method, orbits=axiom is not Axiom.NEU)
    judge = _JUDGES[axiom.kind](axiom, evaluator, config.max_matches)
    settled = [0, 0]  # examined and admissible pairs of the object counts _settle decided
    if config.mode == "random":
        source = (
            _random_candidate(axiom, _draw_rng(config.seed, index), config)
            for index in range(config.budget)
        )
    else:
        source = _grid(axiom, config, evaluator, judge, settled)
    examined = admissible = 0
    hits: list[SearchHit] = []
    for candidate in source:
        examined += 1
        if candidate is None:
            continue
        bad = judge(*candidate)
        if bad is None:
            continue
        admissible += 1
        if bad:
            witness = _witness(axiom, candidate)
            report = run_check(axiom, method, witness)
            if [v.objects for v in report.violations] != bad:
                raise RuntimeError("internal: scan and checker fail different pairs of a witness")
            hits.append(SearchHit(witness, report))
            if len(hits) >= config.limit:
                break
    examined += settled[0]
    admissible += settled[1]
    return SearchResult(tuple(hits), examined, admissible, exhausted=len(hits) < config.limit)

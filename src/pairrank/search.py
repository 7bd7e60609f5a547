"""Exhaustive and randomized counterexample search over small problems.

Candidates are built from tournaments in the integer form a
:class:`~pairrank.model.RankingProblem` stores, at denominator 2: a
matrix ``dt`` with ``dt[i][j] = 2 t[i][j]``. A pair playing ``m``
matches has ``dt[i][j] = m + a`` and ``dt[j][i] = m - a`` for an integer
result ``a`` between ``-m`` and ``m``, so the space is a finite grid. A
candidate is ``(dt, sigma)`` for invariance, two input slots
``(first, second)`` for additivity, ``(first, second, pair)`` for
independence, or ``None`` for a failed draw. It comes only in the shape
its axiom takes: flat for SYM, one schedule for RCS, one edited pair on
at least four objects for IIM and IIR. An FP input is refused unless the
method rates it flat, in both modes, and by the balance lemma
(:func:`_flat_order`) balance is tested first: an unbalanced input is
refused without being named or rated. The canonical order is ascending
object count, then ascending total number of matches, then lexicographic
on the flattened matrix.

Two invariants hold throughout. Every method is assumed neutral:
relabelling the objects relabels their ratings and nothing else, and no
precondition reads the labels. On up to ``ORBIT_OBJECTS`` objects the
search rates and judges one member per relabelling orbit on that
assumption; the NEU judge tests exactly it, so it rates directly. Every
witness is replayed through :func:`~pairrank.axioms.run_check` before it
is returned, in both modes, and must fail on the pairs the judge named.

The grid is built by :func:`_schedules`, :func:`_buckets`, :func:`_grid`
and :func:`_rows`, the draws by :func:`_random_candidate`.
:class:`_Evaluator` rates, and it is the one place where a matrix is
named by its orbit: from the marks of the bucket it is sweeping
(:meth:`_Evaluator.sweep`) when the matrix lies there, else by
:func:`_canonical`, which gives the same name. The judges decide, and
:func:`_settle` and :func:`search` count what orbits settle.
"""

from __future__ import annotations

import operator
import random
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache
from itertools import chain, combinations, combinations_with_replacement, compress, groupby, permutations, product, repeat

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
    default_labels,
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
    (all, connected, irreducible, roundrobin). In random mode each
    candidate is a pure function of (seed, index), which makes runs
    reproducible; the budget says how many candidates to draw. The search
    stops after ``limit`` verified witnesses either way. Every count must
    be an integer: a float raises ``TypeError`` instead of being truncated.
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


_labels = cache(default_labels)


def _problem(dt: Matrix) -> RankingProblem:
    """The problem of a matrix the search built and rates, unchecked.

    Every grid matrix, draw, transpose, relabelling, sum and edit of
    them has entries ``m ± a`` with ``|a| <= m``, a zero diagonal and
    pair sums ``2m``, so the search vouches for it; witnesses are
    validated (:func:`_witness`).
    """
    return RankingProblem._vouched(_labels(len(dt)), dt, 2)


@cache
def _pairs(n: int) -> tuple[tuple[int, int], ...]:
    return tuple(combinations(range(n), 2))


_DOMAIN_TEST = {
    "all": lambda dt: True,
    "connected": connected,
    "irreducible": irreducible,
    "roundrobin": round_robin,
}


def _build_dt(n: int, pairs, mvec, avec) -> Matrix:
    dt = [[0] * n for _ in range(n)]
    for (i, j), m, a in zip(pairs, mvec, avec):
        dt[i][j] = m + a
        dt[j][i] = m - a
    return tuple(map(tuple, dt))


def _schedules(n: int, max_matches: int, domain: str):
    """The schedules of the grid on ``n`` objects that the domain admits,
    as one list per total number of matches, by ascending total. A
    schedule gives each object pair, in :func:`_pairs` order, its number
    of matches, between 0 and ``max_matches``. Every schedule is built
    once and grouped by its total; the sort is stable, so each total's
    schedules stay in lexicographic order.
    """
    pairs = _pairs(n)
    # A round robin's total is m C(n, 2), and its schedule makes it a
    # round robin, so no candidate needs the test.
    if domain == "roundrobin":
        yield from ([(m,) * len(pairs)] for m in range(1, max_matches + 1))
        return
    # Which pairs meet decides connectivity, and irreducibility needs it,
    # so each set of meeting pairs is tested once, on one match per pair.
    joined = cache(lambda support: connected(_build_dt(n, pairs, support, repeat(0))))
    for _, schedules in groupby(sorted(product(range(max_matches + 1), repeat=len(pairs)), key=sum), key=sum):
        yield list(schedules) if domain == "all" else [mvec for mvec in schedules if joined(tuple(map(bool, mvec)))]


def _row_table(n: int, i: int, pairs, mvec, rows) -> tuple[dict, operator.itemgetter]:
    """Every row object ``i`` takes on schedule ``mvec``, under its
    results on the pairs that contain it, and the ``key`` that picks
    those results out of a results vector. A row is row ``i`` of
    :func:`_build_dt` on those pairs alone, and equal rows are one
    tuple, the one in ``rows``."""
    incident = [k for k, pair in enumerate(pairs) if i in pair]
    star = [pairs[k] for k in incident], [mvec[k] for k in incident]
    table = {}
    for results in product(*(range(-m, m + 1) for m in star[1])):
        row = _build_dt(n, *star, results)[i]
        # On two objects the key picks one bare result, not a tuple.
        table[results if n > 2 else results[0]] = rows.setdefault(row, row)
    return table, operator.itemgetter(*incident)


def _buckets(n: int, max_matches: int, domain: str):
    """The candidate matrices (at denominator 2) for one object count, in
    canonical order, as one sorted list per total number of matches: the
    results of each schedule of :func:`_schedules`.

    Per schedule each object's rows are tabulated once
    (:func:`_row_table`), and a matrix is n lookups, one per object.
    Equal rows are one tuple throughout, which keeps a bucket small and
    quick to sort and search. A relabelling keeps the total and the
    domain, so each bucket is closed under relabelling. No bucket is kept
    once yielded, so a consumer that drops it frees it before the next.
    """
    pairs = _pairs(n)
    rows: dict[tuple[int, ...], tuple[int, ...]] = {}
    for schedules in _schedules(n, max_matches, domain):
        bucket = []
        for mvec in schedules:
            lookups = [_row_table(n, i, pairs, mvec, rows) for i in range(n)]
            matrices = (
                tuple([table[key(avec)] for table, key in lookups])
                for avec in product(*(range(-m, m + 1) for m in mvec))
            )
            bucket += filter(irreducible, matrices) if domain == "irreducible" else matrices
        bucket.sort()
        yield bucket


_MISSING = object()

# The most objects a matrix may have for the search to work one
# relabelling orbit at a time, both in rating it and in pairing it.
ORBIT_OBJECTS = 4


class _Evaluator(dict):
    """Weak orders of candidate matrices under one method, whatever the
    axiom, computed on first lookup; ``None`` where the method is undefined.

    ``weak_order(dt)`` rates ``dt`` directly, through the method's public
    implementation, and gives the dense rank 0..k-1 of each rating, from
    its integer numerators, which order like the ratings. Equal weak
    orders share one tuple, and ``masks(order)`` gives its
    :func:`~pairrank.axioms.pair_masks`, which every judge decides on.
    ``evaluator[dt]`` keeps the weak order of ``dt``; ``rate`` answers
    from what is kept, else computes it without keeping it, as the
    additivity judge rates sums.

    Both rate one representative per relabelling orbit of a matrix on at
    most ``ORBIT_OBJECTS`` objects, keep its weak order, ``None`` included,
    under the representative, and map it back to each member. The
    evaluator is the one place where a matrix is named (:meth:`name`):
    from the marks of the bucket being swept (:meth:`sweep`) when the
    matrix lies in it, else by :func:`_canonical`. Both give the same
    name, so the marks only save work.
    """

    def __init__(self, method: Method):
        super().__init__()
        self.method = method
        self.interned: dict[tuple[int, ...], tuple[int, ...]] = {}
        self.masks = cache(pair_masks)
        # The bucket being swept, its marks, its orbits' names and its
        # relabellings, or None.
        self.swept: tuple | None = None

    def weak_order(self, dt: Matrix) -> tuple[int, ...] | None:
        try:
            keys = self.method.rate(_problem(dt)).scaled
        except MethodPreconditionError:
            return None
        rank = {key: r for r, key in enumerate(sorted(set(keys)))}
        order = tuple(rank[key] for key in keys)
        return self.interned.setdefault(order, order)

    def rate(self, dt: Matrix) -> tuple[int, ...] | None:
        if dt in self:
            return self[dt]
        if len(dt) > ORBIT_OBJECTS:
            return self.weak_order(dt)
        rep, objs = self.name(dt)
        shared = self.get(rep, _MISSING)
        if shared is _MISSING:
            shared = self[rep] = self.weak_order(rep)
        if shared is None:
            return None
        # Object objs[k] sits at position k of the representative.
        order = [0] * len(objs)
        for k, i in enumerate(objs):
            order[i] = shared[k]
        order = tuple(order)
        return self.interned.setdefault(order, order)

    def __missing__(self, dt: Matrix):
        order = self[dt] = self.rate(dt)
        return order

    def name(self, dt: Matrix) -> tuple[Matrix, tuple[int, ...]]:
        """What :func:`_canonical` gives ``dt``: its orbit's representative
        and an object order onto it. It is read off the sweep's marks when
        ``dt`` lies in the bucket being swept, in an orbit the sweep has
        reached; a later member dt = p(first) composes its order from the
        first member's, ``objs[k] = p^-1(objs_first[k])``."""
        if self.swept is not None:
            bucket, marks, names, relabellings = self.swept
            i = bisect_left(bucket, dt)
            if i < len(bucket) and bucket[i] == dt and marks[i] >= 0:
                orbit, index = divmod(marks[i], len(relabellings))
                rep, objs = names[orbit]
                return rep, tuple(map(relabellings[index][1].__getitem__, objs))
        return _canonical(dt)

    def sweep(self, bucket: list[Matrix]):
        """Each matrix of ``bucket``, in order, as ``(dt, rep)``: the
        representative :func:`_canonical` gives its orbit. Matrices on more
        than ``ORBIT_OBJECTS`` objects are not named: each comes as
        ``(dt, None)``.

        ``bucket`` must be sorted and closed under relabelling, as every
        bucket of :func:`_buckets` is, the part of one that the FP filter
        keeps, and the sorted even splits of one total's schedules. The
        first member of an orbit met in the walk is the only one
        canonicalised: it marks each of its n! relabellings, found by
        bisection, with one int, its orbit's number times n! plus the
        index of the relabelling that reaches it. The evaluator keeps the
        bucket and its marks only while the sweep runs, and :meth:`name`
        reads them: chained by ``chain.from_iterable``, a bucket and its
        marks are freed before the next bucket is built.
        """
        if not bucket or len(bucket[0]) > ORBIT_OBJECTS:
            yield from zip(bucket, repeat(None))
            return
        relabellings = _relabellings(len(bucket[0]))
        marks = array("q", [-1]) * len(bucket)
        names: list[tuple[Matrix, tuple[int, ...]]] = []
        self.swept = bucket, marks, names, relabellings
        try:
            for i, dt in enumerate(bucket):
                if marks[i] < 0:
                    for index, (pick, _) in enumerate(relabellings):
                        image = tuple(map(pick, pick(dt)))
                        j = bisect_left(bucket, image)
                        if j == len(bucket) or bucket[j] != image:
                            raise RuntimeError("internal: a bucket is not closed under relabelling")
                        if marks[j] < 0:
                            marks[j] = len(names) * len(relabellings) + index
                    names.append(_canonical(dt))
                yield dt, names[marks[i] // len(relabellings)][0]
        finally:
            self.swept = None


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


@cache
def _relabellings(n: int) -> list[tuple[operator.itemgetter, tuple[int, ...]]]:
    """Every relabelling p of ``n`` objects, the identity first, as a pair
    ``(pick, inverse)``: ``pick`` takes rows, then entries, so that
    ``image[k][l] = dt[p[k]][p[l]]``, and ``inverse`` is p's inverse."""
    return [
        (operator.itemgetter(*p), tuple(sorted(range(n), key=p.__getitem__)))
        for p in permutations(range(n))
    ]


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


# The balance lemma: each of the six methods rates a problem flat, all
# objects tied, exactly when the problem is balanced, every row sum equal
# to its column sum, so that its net results are all zero. Each method's
# docstring proves it. FP concerns flat inputs only, so an unbalanced
# input is refused without a rating, and every balanced input the method
# rates must be rated flat.

def _balanced(dt: Matrix) -> bool:
    """Whether every object of ``dt`` won as much as it lost."""
    return list(map(sum, dt)) == list(map(sum, zip(*dt)))


def _flat_order(evaluator: _Evaluator, dt: Matrix) -> tuple[int, ...] | None:
    """The weak order of the FP input ``dt``, or None where FP refuses it:
    unrated where ``dt`` is unbalanced, and where the method is undefined."""
    if not _balanced(dt):
        return None
    order = evaluator[dt]
    # A flat rating has dense ranks all 0.
    if order is not None and any(order):
        raise RuntimeError("internal: the method rates a balanced input as not flat")
    return order


# --- where candidates come from -------------------------------------------

def _grid(axiom: Axiom, config: SearchConfig, evaluator: _Evaluator):
    """Every exhaustive-mode candidate in canonical order, as one block
    ``(rows, tables)`` per object count; the grid decides nothing.

    ``rows`` is a lazy iterator of ``(orbit, candidates)`` that binds its
    own inputs, so blocks may be taken before any is walked. An additivity
    block is one row of all its pairs, with ``orbit`` None; the other
    axioms make one row per grid matrix (:func:`_rows`). FP tests balance
    before rating: its block keeps only the balanced matrices of each
    bucket (:func:`_flat_order`), so no other matrix is named or rated. An
    additivity input that the evaluator's sweep names is looked up while
    its bucket is being swept, so that the sweep's marks name it, and its
    orbit is recorded. ``tables`` is None, except
    for an additivity block that recorded orbits: then it is the
    ``(groups, orbits)`` that :func:`_settle` may decide the count by.
    """
    for n in config.object_counts:
        if axiom.kind is not AxiomKind.ADDITIVITY:
            yield _rows(axiom, config, n, evaluator), None
            continue
        # One slot per input, which the judge fills when it first reads
        # it; RCS pairs only inputs of one schedule.
        groups: dict[Matrix | None, list] = {}
        orbits: dict[Matrix, list] = {}
        buckets = _buckets(n, config.max_matches, config.domain)
        if axiom is Axiom.FP:
            # Balance moves with the objects, so the kept part of a bucket
            # is still sorted and closed under relabelling, as the sweep needs.
            buckets = ([dt for dt in bucket if _balanced(dt)] for bucket in buckets)
        for dt, rep in chain.from_iterable(map(evaluator.sweep, buckets)):
            # A named input is looked up while its bucket is swept, so the
            # sweep's marks name it.
            if rep is not None:
                evaluator[dt]
            if axiom is Axiom.FP and _flat_order(evaluator, dt) is None:
                continue
            slot = [dt, None]
            group = groups.setdefault(add(dt, transpose(dt)) if axiom is Axiom.RCS else None, [])
            group.append(slot)
            if rep is not None:
                orbit = orbits.setdefault(rep, [slot, group, 0, len(orbits)])
                orbit[2] += 1
                slot.append(orbit[3])
        pairs = chain.from_iterable(combinations_with_replacement(group, 2) for group in groups.values())
        yield [(None, pairs)], (groups.values(), orbits.values()) if orbits else None


def _rows(axiom: Axiom, config: SearchConfig, n: int, evaluator: _Evaluator):
    """The invariance or independence candidates on ``n`` objects, as one
    row ``(orbit, candidates)`` per grid matrix, in canonical order:
    ``orbit`` is the representative the evaluator's sweep names, or None.

    A row carries no name. Its candidates are judged while its bucket is
    being swept, so the evaluator names the row's matrix from the sweep's
    marks, and so its transpose and IIR edits, which lie in the same
    bucket, once the sweep has reached their orbits. ``candidates`` are
    lazy: a row that :func:`search` settles by its orbit, or that has no
    candidate, is never looked up, builds no edit and runs no domain test.
    """
    if axiom.kind is AxiomKind.INDEPENDENCE and n < 4:
        return
    pairs = _pairs(n)
    if axiom is Axiom.SYM:
        # A flat grid matrix is the even split of its schedule, and it lies
        # in the domain exactly when its schedule does (on a connected
        # schedule it is irreducible), so SYM builds no bucket.
        splits = lambda schedules: sorted(_build_dt(n, pairs, mvec, repeat(0)) for mvec in schedules)
        buckets = map(splits, _schedules(n, config.max_matches, config.domain))
    else:
        buckets = _buckets(n, config.max_matches, config.domain)
    if axiom is Axiom.NEU:
        sigmas = [Permutation(p) for p in permutations(range(n)) if p != tuple(range(n))]
        each = lambda dt: zip(repeat(dt), sigmas)
    elif axiom.kind is AxiomKind.INVARIANCE:
        each = lambda dt: ((dt, None),)
    else:
        test = _DOMAIN_TEST[config.domain]
        each = lambda dt: _edited(axiom, dt, pairs, test, config.max_matches)

    for dt, rep in chain.from_iterable(map(evaluator.sweep, buckets)):
        yield rep, each(dt)


def _edited(axiom: Axiom, dt: Matrix, pairs, test, max_matches: int):
    """The independence candidates of ``dt``: each edit of each pair that
    stays in the domain."""
    for k, l in pairs:
        for edit in _pair_edits(axiom, dt, k, l, max_matches):
            edited = _with_pair(dt, k, l, *edit)
            if test(edited):
                yield dt, edited, (k, l)


def _settle(judge, groups, orbits) -> tuple[int, int] | None:
    """The examined and admissible pairs of an additivity block with no
    violation, or None at the first violation.

    ``groups`` are the block's input groups: g (g + 1) / 2 pairs each.
    ``orbits`` holds, per relabelling orbit of inputs in the order the
    orbits first appear, the slot of its first member R, R's partners,
    the orbit's size and its number, which each slot carries as its
    third entry. A grid pair (A, B) relabels to a pair (R, B'), with B' a
    partner of R in B's orbit: the domains and the FP filter are closed
    under relabelling, and B' keeps R's schedule when B keeps A's. So a
    neutral method gives both one verdict, and an orbit of size s stands
    for s ordered pairs per admissible partner.

    Both rules are symmetric in the inputs, so R is judged only against
    the partners in its own orbit or a later one, in canonical order, and
    an admissible partner in a later orbit also stands for the swapped
    pairs: 2 s ordered pairs. Counting the pairs (A, A) twice makes the
    ordered count twice the unordered.
    """
    ordered = diagonal = 0
    number_of = operator.itemgetter(2)
    for first, partners, size, number in orbits:
        for partner in compress(partners, map(number.__le__, map(number_of, partners))):
            bad = judge(first, partner)
            if bad:
                return None
            if bad is not None:
                ordered += size if partner[2] == number else 2 * size
                if partner is first:
                    diagonal += size
    return sum(len(group) * (len(group) + 1) // 2 for group in groups), (ordered + diagonal) // 2


def _pair_edits(axiom, dt: Matrix, k: int, l: int, max_matches: int) -> list[tuple[int, int]]:
    """The edits the axiom may make to pair (k, l) of ``dt``, in grid
    order, as the (matches, result) pairs other than its own: IIR keeps
    the pair's matches, IIM need not. :func:`_with_pair` makes the matrix
    of one edit."""
    m = (dt[k][l] + dt[l][k]) // 2
    a = (dt[k][l] - dt[l][k]) // 2
    counts = (m,) if axiom is Axiom.IIR else range(0, max_matches + 1)
    return [(m2, a2) for m2 in counts for a2 in range(-m2, m2 + 1) if (m2, a2) != (m, a)]


def _with_pair(dt: Matrix, k: int, l: int, m: int, a: int) -> Matrix:
    """``dt`` with pair (k, l) playing ``m`` matches for result ``a``."""
    row_k, row_l = list(dt[k]), list(dt[l])
    row_k[l], row_l[k] = m + a, m - a
    edited = list(dt)
    edited[k], edited[l] = tuple(row_k), tuple(row_l)
    return tuple(edited)


def _retry(draw):
    """The first of up to 200 calls of ``draw`` that is not None, or None."""
    return next((found for found in (draw() for _ in range(200)) if found is not None), None)


def _random_dt(rng, n, max_matches, domain, schedule=None) -> tuple[Matrix, list[int]] | None:
    """A drawn matrix in the domain and its schedule, or None.

    Each try draws the schedule, unless ``schedule`` is given: one count
    for every pair of a round robin, else one per pair in :func:`_pairs`
    order; then one result per pair. ``rng.randrange(a, b + 1)`` is
    ``rng.randint(a, b)`` by definition, so the stream is ``randint``'s.
    """
    pairs = _pairs(n)
    test = _DOMAIN_TEST[domain]
    randrange = rng.randrange

    def draw():
        if schedule is not None:
            mvec = schedule
        elif domain == "roundrobin":
            mvec = [randrange(1, max_matches + 1)] * len(pairs)
        else:
            mvec = [randrange(0, max_matches + 1) for _ in pairs]
        dt = _build_dt(n, pairs, mvec, [randrange(-m, m + 1) for m in mvec])
        return (dt, mvec) if test(dt) else None

    return _retry(draw)


def _random_candidate(axiom, rng, config):
    """One random-mode candidate, or None when the draw failed.

    The draw takes an object count, then a matrix (:func:`_random_dt`),
    then what the axiom adds to it: a relabelling for NEU, the second
    input for additivity, or a pair and one of its edits for IIM and IIR.
    Additivity inputs are plain draws for FP too: the judge refuses those
    the method does not rate flat. Only the edit drawn is built into a
    matrix (:func:`_with_pair`).
    """
    counts = config.object_counts
    if axiom.kind is AxiomKind.INDEPENDENCE:
        counts = [n for n in counts if n >= 4]
    if not counts:
        return None
    n = rng.choice(counts)
    pairs = _pairs(n)
    drawn = _random_dt(rng, n, config.max_matches, config.domain)
    if drawn is None:
        return None
    dt, mvec = drawn
    if axiom.kind is AxiomKind.INVARIANCE:
        if axiom is Axiom.NEU:
            image = list(range(n))
            while image == list(range(n)):
                rng.shuffle(image)
            return dt, Permutation(tuple(image))
        if axiom is Axiom.SYM:
            # The even split of the drawn schedule: m to each side of a pair.
            return _build_dt(n, pairs, mvec, repeat(0)), None
        return dt, None
    if axiom.kind is AxiomKind.ADDITIVITY:
        # RCS's second input keeps the drawn schedule: only its results are
        # drawn again, until they too lie in the domain.
        drawn = _random_dt(rng, n, config.max_matches, config.domain, mvec if axiom is Axiom.RCS else None)
        if drawn is None:
            return None
        return [dt, None], [drawn[0], None]

    def edit():
        k, l = pairs[rng.randrange(len(pairs))]
        edits = _pair_edits(axiom, dt, k, l, config.max_matches)
        if not edits:
            return None
        dt2 = _with_pair(dt, k, l, *edits[rng.randrange(len(edits))])
        return (dt, dt2, (k, l)) if _DOMAIN_TEST[config.domain](dt2) else None

    return _retry(edit)


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
# ``*_failures`` core runs on, and never calls a core itself. The rules
# compare ratings only within one vector, so weak orders give the
# verdicts the ratings give. A judge names no matrix: it looks matrices
# up in the evaluator, which names them, except that the NEU judge rates
# directly, since it tests the neutrality that naming assumes. The
# invariance judge reads its second order one way for NEU, SYM and INV:
# that of the relabelled matrix or of the transpose, which for SYM's flat
# matrix is the matrix itself, already kept.

def _invariance_judge(axiom: Axiom, evaluator: _Evaluator, max_matches: int):
    neu = axiom is Axiom.NEU
    breaks = invariance_rule(axiom)
    masks = evaluator.masks
    rated = cache(evaluator.weak_order) if neu else evaluator.__getitem__

    def judge(dt, sigma):
        before = rated(dt)
        if before is None:
            return None
        after = rated(relabel(dt, sigma) if neu else transpose(dt))
        if after is None:
            return None
        if neu:
            # Object i is rated at position sigma(i) of the relabelled problem.
            after = tuple(map(after.__getitem__, sigma.image))
        return mask_pairs(breaks(masks(before), masks(after)), len(dt))

    return judge


def _additivity_judge(axiom: Axiom, evaluator: _Evaluator, max_matches: int):
    """The judge of a pair of input slots ``(first, second)``.

    It enters the first input and refuses the pair (None) if the method
    is undefined on it or, for FP, does not rate it flat; only then does
    it enter the second, and refuse it the same way. Such a pair was
    never admissible, so entering one input less changes no verdict. FP
    tests an input's balance before rating it (:func:`_flat_order`), so an
    unbalanced input is refused unrated.
    """
    fp, ep = axiom is Axiom.FP, axiom is Axiom.EP
    breaks = additivity_rule(axiom)
    # Inputs have entries in [0, 2 max_matches], so the entries of a sum
    # stay below the radix and two inputs' codes add up to a key of their
    # sum (:func:`_pack`): no sum is built to be looked up. ``by_code``
    # holds the pair masks of sums only; inputs are rated in the evaluator.
    radix = 4 * max_matches + 1
    masks = evaluator.masks
    by_code: dict[int, tuple[int, int, int] | None] = {}

    def enter(slot):
        """Fill an input slot ``[dt, None]`` with the code of ``dt`` and its
        pair masks, or with ``()`` if the input refuses every pair."""
        dt = slot[0]
        if max(map(max, dt)) > 2 * max_matches:
            raise ValueError(f"entries of {dt} exceed twice max_matches={max_matches}")
        # Inputs rated flat, dense ranks all 0, rank no pair above or below.
        order = _flat_order(evaluator, dt) if fp else evaluator[dt]
        slot[1] = () if order is None else (_pack(dt, radix), masks(order))
        return slot[1]

    def judge(first, second):
        a = first[1]
        if a is None:
            a = enter(first)
        if not a:
            return None
        b = second[1]
        if b is None:
            b = enter(second)
        if not b:
            return None
        code, f = a
        other, g = b
        # Every method rates the sum of two problems it rates: connectivity
        # and irreducibility survive added matches, and the reasonable
        # epsilon needs only three objects and one match. So inputs with
        # no common tie are admissible and cannot witness EP.
        if ep and not f[2] & g[2]:
            return []
        code += other
        total = by_code.get(code, _MISSING)
        if total is _MISSING:
            # A sum may equal an input the evaluator has already kept.
            order = evaluator.rate(add(first[0], second[0]))
            total = by_code[code] = None if order is None else masks(order)
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
    """The public witness a candidate stands for. Unlike the matrices
    :func:`_problem` rates, its problems go through the full check of
    :meth:`~pairrank.model.RankingProblem.from_scaled` before
    :func:`~pairrank.axioms.run_check` replays them."""

    def problem(dt):
        return RankingProblem.from_scaled(_labels(len(dt)), dt, 2)

    if axiom.kind is AxiomKind.INVARIANCE:
        dt, sigma = candidate
        return SingleWitness(problem(dt), sigma)
    if axiom.kind is AxiomKind.ADDITIVITY:
        first, second = candidate
        return PairWitness(problem(first[0]), problem(second[0]))
    first, second, pair = candidate
    return ChangedPairWitness(problem(first), problem(second), pair)


def search(method: Method, axiom: Axiom, config: SearchConfig) -> SearchResult:
    """Look for witnesses violating ``axiom`` under ``method``.

    Exhaustive mode scans the grid in canonical order and is
    deterministic; random mode scans ``config.budget`` draws from the
    seed. Returns the verified hits, and how many candidates were
    examined and admissible (shape valid and method defined).
    ``exhausted`` is False exactly when the scan stopped at the limit.

    An additivity block that :func:`_settle` finds clean takes its
    closed-form counts unwalked. A row whose matrix is not the first
    member R of its orbit takes the counts of R's row unjudged, if that
    row was clean. For SYM, INV, IIM and IIR clean means without a hit:
    their judges read the orbit table, and a relabelled matrix has the
    relabelled candidates, so every verdict follows the relabelling. As
    the NEU judge rates directly, a NEU row is clean only when all n! - 1
    candidates of R are admissible and none fails, which shows every
    member's weak order to be R's relabelled. Either way the hits, their
    order, the counts at a limit stop and the replays are those of the
    full walk, and no row is judged twice.
    """
    evaluator = _Evaluator(method)
    judge = _JUDGES[axiom.kind](axiom, evaluator, config.max_matches)
    if config.mode == "random":
        draws = (_random_candidate(axiom, _draw_rng(config.seed, index), config) for index in range(config.budget))
        blocks = [([(None, draws)], None)]
    else:
        blocks = _grid(axiom, config, evaluator)
    examined = admissible = 0
    hits: list[SearchHit] = []
    for rows, tables in blocks:
        counts = tables and _settle(judge, *tables)
        if counts:
            examined, admissible = examined + counts[0], admissible + counts[1]
            continue
        # Per relabelling orbit met in this block: the counts of its first
        # member's row if that row was clean, else None.
        clean: dict[Matrix, tuple[int, int] | None] = {}
        for orbit, candidates in rows:
            if counts := clean.get(orbit):
                examined, admissible = examined + counts[0], admissible + counts[1]
                continue
            start = examined, admissible, len(hits)
            for candidate in candidates:
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
                        return SearchResult(tuple(hits), examined, admissible, exhausted=False)
            if orbit is not None and orbit not in clean:
                counts = examined - start[0], admissible - start[1]
                whole = axiom is not Axiom.NEU or counts[0] == counts[1]
                clean[orbit] = counts if whole and len(hits) == start[2] else None
    return SearchResult(tuple(hits), examined, admissible, exhausted=True)

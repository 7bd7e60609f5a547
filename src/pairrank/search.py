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

A search is one scan over blocks of candidates from one of two sources:
the grid walks the whole space in canonical order, one block per object
count (exhaustive mode), and the draws make one block of ``budget``
candidates from the seed (random mode). A block is a sequence of rows,
each a run of candidates: one row per grid matrix for the axioms that
take one matrix, else one row for the whole block. A candidate is a
small tuple: ``(dt, sigma)`` for invariance, ``(first, second)`` for
additivity, ``(first, second, pair)`` for independence, or ``None`` for
a draw that failed. An additivity input is a slot ``[dt, None]``: the
grid makes one per input matrix, which every pair of its group shares
(on up to four objects it appends the number of the input's orbit),
and each draw gets fresh ones. Both sources yield only the shape the
axiom takes (a flat problem for SYM, one schedule for RCS, a single
edited pair on at least four objects for IIM and IIR), and the grid
also skips FP inputs the method does not rate flat, which cannot
witness that axiom. The grid's matrices are the results of its
schedules, the numbers of matches per object pair that the domain
admits (:func:`_schedules`). Per schedule, each object's rows are
tabulated once, since a row depends only on the results of the pairs
that contain its object, and a matrix is assembled from one row per
object (:func:`_buckets`). A flat matrix is the even split of its
schedule, so SYM takes one candidate per schedule, and the grid builds
no other matrix for it.

One judge per axiom family decides a candidate exactly. The evaluator
depends on the method only: it rates each matrix once per search and
keeps its weak order, the dense ranks of its ratings. Every method is
neutral: relabelling the objects relabels the ratings and nothing else.
So on up to four objects the evaluator rates only one canonical
representative per relabelling orbit and maps its weak order back to
each member, which changes no verdict. The NEU judge, which tests
exactly that property, rates every matrix it judges directly, in a table
of its own. Every judge decides with the rule the public checker runs on:
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

On up to four objects the grid names the orbit of each of its matrices
in one sweep per bucket, the matrices with one total number of matches.
A relabelling keeps the total, the domain, flatness and the FP filter,
so a bucket, the even splits of its schedules and the inputs the FP
filter keeps are each closed under relabelling. The sweep canonicalises
the first member of each orbit it meets and marks that member's n!
relabellings in the bucket; every later member takes the same
representative, with its object order composed from the first member's
(:func:`_sweep`). Above four objects the sweep names nothing, and every
matrix takes the same path with no orbit to go by. A named grid matrix
reaches the evaluator by its sweep name only: the additivity grid enters
each input under it, and a judged SYM, INV, IIM or IIR row enters its
matrix before its first candidate. So :func:`_canonical` runs only on
the first member of each orbit a sweep meets, on the sums, transposes
and edits the judges make, and on the draws.

On up to four objects, exhaustive additivity also works one pair orbit
at a time. Relabelling both inputs of a pair at once relabels their
sum, so a neutral method gives every pair of an orbit one verdict. Such
a block carries its schedule groups and input orbits, numbered in the
order they first appear. The search first judges the first member of
each orbit against every partner (for RCS, in its own schedule group)
in its own orbit or a later one. Both rules are symmetric in the
inputs, so a partner in a later orbit also stands for the swapped
pairs, and each unordered pair of input orbits is judged from one row.
If none fails, the count is settled in closed form without walking the
block (:func:`_settle`). A failing pair does not say which pair the
canonical walk meets first, so the search then walks the block: same
witness, counts and replay as before.

On up to four objects, exhaustive NEU, SYM, INV, IIM and IIR work one
matrix orbit at a time. Each row names the orbit of its matrix (above
four objects none, and every row is judged), and the search walks the
rows in canonical order but judges a row only if its matrix is the
first member of its orbit, or that member's row was not clean; any
other row takes the first member's examined and admissible counts
unjudged, and never builds its candidates. SYM, INV, IIM and IIR
read the orbit table, and their candidate sets (the even splits, the
domain test, the pair edits) are closed under relabelling, so every
verdict follows the relabelling. The NEU judge rates directly, so there
the first member R's row is clean only when all n! - 1 of its candidates
are admissible and none fails. That rates every member sigma R directly
and shows each one's weak order to be R's relabelled, so no candidate
of a later member can fail either. Hits, their order, the counts at a
limit stop and the replays are those of the full walk, and no row is
judged twice.
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


def _problem(dt: Matrix) -> RankingProblem:
    return RankingProblem.from_scaled(default_labels(len(dt)), dt, 2)


def _pairs(n: int) -> list[tuple[int, int]]:
    return list(combinations(range(n), 2))


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
    return tuple(tuple(row) for row in dt)


def _schedules(n: int, max_matches: int, domain: str):
    """The schedules of the grid on ``n`` objects that the domain admits,
    as one list per total number of matches, by ascending total. A
    schedule gives each object pair, in :func:`_pairs` order, its number
    of matches, between 0 and ``max_matches``.

    Every schedule is built once and grouped by its total; the sort is
    stable, so each total's schedules stay in lexicographic order. A
    relabelling keeps the total and the domain.
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

    Object i's row depends only on the results of the pairs that contain
    i, so per schedule each object's rows are tabulated once
    (:func:`_row_table`), and a matrix is n lookups, one per object, by
    its results. Equal rows are one tuple throughout, which keeps a
    bucket small and quick to sort and search. A relabelling keeps the
    total and the domain, so each bucket is closed under relabelling. No
    bucket is kept once it is yielded, so a consumer that drops it frees
    it before the next one is built.
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
    axiom, computed on first lookup.

    ``weak_order(dt)`` rates ``dt`` directly, through the method's public
    implementation, and gives the dense rank 0..k-1 of each rating, taken
    from the rating's integer numerators, which order like the ratings.
    Equal weak orders share one tuple, and ``masks(order)`` gives its
    :func:`~pairrank.axioms.pair_masks`, which every judge decides on.
    ``None`` marks a candidate the method is undefined on.
    ``evaluator[dt]`` keeps the weak order of ``dt``; ``rate`` computes it
    without keeping it: the additivity judge rates sums that way and
    keeps only their pair masks, under the sum's code, in its own table.

    Both rate one representative per relabelling orbit of a matrix on at
    most ``ORBIT_OBJECTS`` objects (see :func:`_canonical`), keep its
    weak order under the representative, and map it back to each member.
    That is exact because every method is neutral: relabelling the
    objects relabels their ratings and nothing else, and the
    preconditions a method checks (connectivity, irreducibility, n and m)
    do not depend on the labels, so ``None`` is shared too. The NEU judge
    tests exactly that assumption, so it keeps a table of direct ratings
    of its own. Larger matrices are rated directly, since
    :func:`_canonical` may try n! orders of their objects.

    The grid stores the weak order of each named matrix with
    ``relabelled(rep, objs)`` from the sweep of its bucket
    (:func:`_sweep`): every additivity input, and the matrix of every
    judged SYM, INV, IIM or IIR row (:func:`_rows`). So ``rate`` names by
    :func:`_canonical` only the matrices the grid does not hand over by
    name: a sum, a transpose, an edit or a draw. The additivity judge looks a sum up
    here before it rates it, so a sum equal to an input is not named
    twice either.
    """

    def __init__(self, method: Method):
        super().__init__()
        self.method = method
        self.interned: dict[tuple[int, ...], tuple[int, ...]] = {}
        self.masks = cache(pair_masks)

    def weak_order(self, dt: Matrix) -> tuple[int, ...] | None:
        try:
            keys = self.method.rate(_problem(dt)).scaled
        except MethodPreconditionError:
            return None
        rank = {key: r for r, key in enumerate(sorted(set(keys)))}
        order = tuple(rank[key] for key in keys)
        return self.interned.setdefault(order, order)

    def rate(self, dt: Matrix) -> tuple[int, ...] | None:
        if len(dt) > ORBIT_OBJECTS:
            return self.weak_order(dt)
        return self.relabelled(*_canonical(dt))

    def relabelled(self, rep: Matrix, objs: tuple[int, ...]) -> tuple[int, ...] | None:
        """The weak order of the matrix whose object ``objs[k]`` sits at
        position k of the representative ``rep``."""
        shared = self.get(rep, _MISSING)
        if shared is _MISSING:
            shared = self[rep] = self.weak_order(rep)
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


@cache
def _relabellings(n: int) -> list[tuple[operator.itemgetter, tuple[int, ...]]]:
    """Every relabelling p of ``n`` objects, the identity first, as a pair
    ``(pick, inverse)``: ``pick`` takes rows, then entries, so that
    ``image[k][l] = dt[p[k]][p[l]]``, and ``inverse`` is p's inverse."""
    return [
        (operator.itemgetter(*p), tuple(sorted(range(n), key=p.__getitem__)))
        for p in permutations(range(n))
    ]


def _sweep(bucket: list[Matrix]):
    """Each matrix of ``bucket``, in order, as ``(dt, rep, objs)``: the
    representative :func:`_canonical` gives its orbit, and an object
    order with ``rep[k][l] = dt[objs[k]][objs[l]]``. Matrices on more
    than ``ORBIT_OBJECTS`` objects are not named: each comes as
    ``(dt, None, None)``.

    ``bucket`` must be sorted and closed under relabelling, as every
    bucket of :func:`_buckets` is, and so is any part of one that a
    relabelling-closed filter keeps, such as the inputs the FP filter
    keeps. The sorted even splits of one total's schedules, SYM's
    candidates, are one too. The first member of an orbit met in
    the walk is the only one canonicalised: it marks each of its n!
    relabellings, found by bisection, with one int, its orbit's number
    times n! plus the index of the relabelling that reaches it. A later
    member dt = p(first) then composes its order from the first
    member's: ``objs[k] = p^-1(objs_first[k])``. The marks live only
    while the bucket is walked: chained as
    ``chain.from_iterable(map(_sweep, buckets))``, a bucket and its marks
    are freed before the next bucket is built.
    """
    if not bucket:
        return
    if len(bucket[0]) > ORBIT_OBJECTS:
        yield from zip(bucket, repeat(None), repeat(None))
        return
    relabellings = _relabellings(len(bucket[0]))
    marks = array("q", [-1]) * len(bucket)
    named: list[tuple[Matrix, tuple[int, ...]]] = []
    for i, dt in enumerate(bucket):
        if marks[i] < 0:
            for index, (pick, _) in enumerate(relabellings):
                image = tuple(map(pick, pick(dt)))
                j = bisect_left(bucket, image)
                if j == len(bucket) or bucket[j] != image:
                    raise RuntimeError("internal: a bucket is not closed under relabelling")
                if marks[j] < 0:
                    marks[j] = len(named) * len(relabellings) + index
            named.append(_canonical(dt))
        orbit, index = divmod(marks[i], len(relabellings))
        rep, objs = named[orbit]
        yield dt, rep, tuple(map(relabellings[index][1].__getitem__, objs))


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

def _grid(axiom: Axiom, config: SearchConfig, evaluator: _Evaluator):
    """Every exhaustive-mode candidate in canonical order, as one block
    ``(rows, tables)`` per object count; the grid decides nothing.

    ``rows`` is a lazy iterator of ``(orbit, candidates)`` that binds its
    own inputs, so blocks may be taken before any is walked. An additivity
    block is one row of all its pairs, with ``orbit`` None; the other
    axioms make one row per grid matrix (see :func:`_rows`). Either way
    the matrices come from :func:`_sweep`. An additivity input that the
    sweep names is entered in the evaluator under that name, and its
    orbit is recorded. ``tables`` is None, except for an additivity block
    that recorded orbits: then it is the ``(groups, orbits)`` that
    :func:`_settle` may decide the count by.
    """
    for n in config.object_counts:
        if axiom.kind is not AxiomKind.ADDITIVITY:
            yield _rows(axiom, config, n, evaluator), None
            continue
        # One slot per input, which the judge fills when it first reads
        # it; RCS pairs only inputs of one schedule.
        groups: dict[Matrix | None, list] = {}
        orbits: dict[Matrix, list] = {}
        for dt, rep, objs in chain.from_iterable(map(_sweep, _buckets(n, config.max_matches, config.domain))):
            # Rate a named dt through its sweep name, so that neither the FP
            # filter (only inputs rated flat, dense ranks all 0) nor the
            # judge canonicalises it.
            if rep is not None:
                evaluator[dt] = evaluator.relabelled(rep, objs)
            if axiom is Axiom.FP and ((v := evaluator[dt]) is None or any(v)):
                continue
            slot = [dt, None]
            group = groups.setdefault(add(dt, transpose(dt)) if axiom is Axiom.RCS else None, [])
            group.append(slot)
            if rep is not None:
                # Orbits are numbered in the order they first appear, and
                # the slot carries its orbit's number for _settle.
                orbit = orbits.setdefault(rep, [slot, group, 0, len(orbits)])
                orbit[2] += 1
                slot.append(orbit[3])
        pairs = chain.from_iterable(combinations_with_replacement(group, 2) for group in groups.values())
        yield [(None, pairs)], (groups.values(), orbits.values()) if orbits else None


def _rows(axiom: Axiom, config: SearchConfig, n: int, evaluator: _Evaluator):
    """The invariance or independence candidates on ``n`` objects, as one
    row ``(orbit, candidates)`` per grid matrix, in canonical order. For
    SYM the grid matrices are the even splits of the schedules, one per
    schedule, sorted per total, and no bucket is built.

    ``orbit`` is the representative that the sweep of the matrix's bucket
    gives it (:func:`_sweep`), or None where the sweep names nothing; the
    search judges every such row. A named row's candidates first enter
    its matrix in the evaluator under the sweep's name,
    ``relabelled(rep, objs)``, as the additivity grid enters its inputs,
    so no judge puts the row's matrix in canonical form again. NEU rows
    enter nothing: the NEU judge rates directly. ``candidates`` are
    lazy: a row that :func:`search` settles by its orbit never enters
    its matrix, builds its edited pairs nor runs the domain test on
    them.
    """
    if axiom.kind is AxiomKind.INDEPENDENCE and n < 4:
        return
    pairs = _pairs(n)
    if axiom is Axiom.SYM:
        # A flat grid matrix is the even split of its schedule, and it lies
        # in the domain exactly when its schedule does: on a connected
        # schedule it is irreducible.
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

    def named(dt, rep, objs):
        evaluator[dt] = evaluator.relabelled(rep, objs)
        yield from each(dt)

    for dt, rep, objs in chain.from_iterable(map(_sweep, buckets)):
        yield rep, each(dt) if rep is None or axiom is Axiom.NEU else named(dt, rep, objs)


def _edited(axiom: Axiom, dt: Matrix, pairs, test, max_matches: int):
    """The independence candidates of ``dt``: each edit of each pair that
    stays in the domain."""
    for pair in pairs:
        for edited in _pair_edits(axiom, dt, *pair, max_matches):
            if test(edited):
                yield dt, edited, pair


def _settle(judge, groups, orbits) -> tuple[int, int] | None:
    """The examined and admissible pairs of an additivity block with no
    violation, or None at the first violation.

    ``groups`` are the block's input groups: g (g + 1) / 2 pairs each.
    ``orbits`` holds, per relabelling orbit of inputs in the order the
    orbits first appear, the slot of its first member R, R's partners,
    the orbit's size and its number; each slot carries its orbit's
    number as its third entry. A grid pair (A, B) relabels to a pair
    (R, B'), where B' is a partner of R in B's orbit: the domains and
    the FP filter are closed under relabelling, and B' keeps R's
    schedule when B keeps A's. A neutral method gives both the same
    verdict. An orbit of size s stands for s ordered pairs per
    admissible partner, and counting the pairs (A, A) twice makes the
    ordered count twice the unordered.

    Both rules are symmetric in the inputs, so the pairs with A in
    orbit O and B in a later orbit O' have the verdicts of their swaps,
    the pairs with A in O' and B in O. So R is judged only against the
    partners in its own orbit or a later one, in their canonical order,
    and an admissible partner in a later orbit counts for both: 2 s
    ordered pairs. Each unordered pair of orbits is judged from one of
    its two rows, not from both.
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


def _retry(draw):
    """The first of up to 200 calls of ``draw`` that is not None, or None."""
    return next((found for found in (draw() for _ in range(200)) if found is not None), None)


def _random_dt(rng, n, max_matches, domain) -> tuple[Matrix, list[int]] | None:
    """A drawn matrix in the domain and its schedule, or None."""
    pairs = _pairs(n)

    def draw():
        if domain == "roundrobin":
            mvec = [rng.randint(1, max_matches)] * len(pairs)
        else:
            mvec = [rng.randint(0, max_matches) for _ in pairs]
        dt = _build_dt(n, pairs, mvec, [rng.randint(-m, m) for m in mvec])
        return (dt, mvec) if _DOMAIN_TEST[domain](dt) else None

    return _retry(draw)


def _random_candidate(axiom, rng, config):
    """One random-mode candidate, or None when the draw failed."""
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
    if axiom is Axiom.RCS:
        # The second input keeps the drawn schedule, and must lie in the
        # domain too: irreducibility depends on the results.
        def second():
            dt_b = _build_dt(n, pairs, mvec, [rng.randint(-m, m) for m in mvec])
            return ([dt, None], [dt_b, None]) if _DOMAIN_TEST[config.domain](dt_b) else None

        return _retry(second)
    if axiom.kind is AxiomKind.ADDITIVITY:
        drawn = _random_dt(rng, n, config.max_matches, config.domain)
        if drawn is None:
            return None
        dt_b, mvec_b = drawn
        if axiom is Axiom.FP:
            dt, dt_b = _build_dt(n, pairs, mvec, repeat(0)), _build_dt(n, pairs, mvec_b, repeat(0))
        return [dt, None], [dt_b, None]

    def edit():
        k, l = pairs[rng.randrange(len(pairs))]
        edits = _pair_edits(axiom, dt, k, l, config.max_matches)
        if not edits:
            return None
        dt2 = edits[rng.randrange(len(edits))]
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
# ``*_failures`` core runs on, and never calls a core itself.

def _invariance_judge(axiom: Axiom, evaluator: _Evaluator, max_matches: int):
    neu, sym = axiom is Axiom.NEU, axiom is Axiom.SYM
    breaks = invariance_rule(axiom)
    masks = evaluator.masks
    # NEU tests the neutrality the orbit table assumes: it rates directly.
    rated = cache(evaluator.weak_order) if neu else evaluator.__getitem__

    def judge(dt, sigma):
        before = rated(dt)
        if before is None:
            return None
        if neu:
            after = rated(relabel(dt, sigma))
            if after is None:
                return None
            # Object i is rated at position sigma(i) of the relabelled problem.
            after = tuple(map(after.__getitem__, sigma.image))
        elif sym:
            after = before
        else:
            after = rated(transpose(dt))
        if after is None:
            return None
        return mask_pairs(breaks(masks(before), masks(after)), len(dt))

    return judge


def _additivity_judge(axiom: Axiom, evaluator: _Evaluator, max_matches: int):
    fp, ep = axiom is Axiom.FP, axiom is Axiom.EP
    breaks = additivity_rule(axiom)
    # Inputs have entries in [0, 2 max_matches], so the entries of a sum
    # stay below the radix, and the codes of two inputs add up to the
    # sum's code plus the zero matrix's: no sum is built to be looked up.
    # The leading count, 2 n, keeps sums of different sizes apart.
    # Inputs are rated in the evaluator; ``by_code`` holds the pair masks
    # of sums only, under their inputs' codes added.
    radix = 4 * max_matches + 1
    masks = evaluator.masks
    by_code: dict[int, tuple[int, int, int] | None] = {}

    def enter(slot):
        """Fill an input slot ``[dt, None]`` with its record: the code of
        ``dt`` and its pair masks; ``()`` if the method is undefined on
        it."""
        dt = slot[0]
        if max(map(max, dt)) > 2 * max_matches:
            raise ValueError(f"entries of {dt} exceed twice max_matches={max_matches}")
        order = evaluator[dt]
        slot[1] = () if order is None else (_pack(dt, radix), masks(order))
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
        code, f = a
        other, g = b
        # Inputs rated flat rank no pair above or below.
        if fp and (f[0] | f[1] | g[0] | g[1]):
            return None
        # Every method rates the sum of two problems it rates: connectivity
        # and irreducibility survive added matches, and the reasonable
        # epsilon needs only three objects and one match. So inputs with
        # no common tie are admissible and cannot witness EP.
        if ep and not f[2] & g[2]:
            return []
        code += other
        total = by_code.get(code, _MISSING)
        if total is _MISSING:
            # A sum may equal an input the evaluator has already named.
            dt = add(first[0], second[0])
            order = evaluator.get(dt, _MISSING)
            if order is _MISSING:
                order = evaluator.rate(dt)
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

    Exhaustive mode scans the whole candidate grid in canonical order,
    one object count at a time, and is deterministic; a count that
    :func:`_settle` decides is counted without being walked, and so is a
    row whose orbit's first member was clean. Random mode
    scans ``config.budget`` candidates derived from the seed. Either way
    each candidate is judged exactly, and each flagged one is replayed
    through the public checker. Returns
    the verified hits plus how many candidates were examined and how
    many were admissible (shape valid and method defined). ``exhausted``
    is False exactly when the scan stopped early because the witness
    limit was reached.
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
                # NEU rates directly, so only a first member whose every
                # relabelling is admissible speaks for the others.
                whole = axiom is not Axiom.NEU or counts[0] == counts[1]
                clean[orbit] = counts if whole and len(hits) == start[2] else None
    return SearchResult(tuple(hits), examined, admissible, exhausted=True)

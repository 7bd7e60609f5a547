import importlib
import random
from dataclasses import replace
from fractions import Fraction
from functools import cache
from itertools import chain, combinations, combinations_with_replacement, islice, permutations, product, repeat
from math import comb, factorial, prod
from operator import itemgetter

import pytest
from conftest import tie_broken_score

from pairrank import (
    Axiom,
    AxiomKind,
    Method,
    SearchConfig,
    SearchHit,
    SearchResult,
    is_connected,
    is_irreducible,
    is_round_robin,
    run_check,
    search,
)
from pairrank import methods
from pairrank.axioms import PairWitness, invariance_failures
from pairrank.errors import MethodPreconditionError, NoComparisons, PreconditionUnmet, WitnessError
from pairrank.model import Permutation, add, flat, irreducible, relabel, transpose
from pairrank.search import (
    DOMAINS,
    _JUDGES,
    _buckets,
    _canonical,
    _draw_rng,
    _Evaluator,
    _grid,
    _pack,
    _problem,
    _random_candidate,
    _schedules,
    _sweep,
    _witness,
)


def _matrices(n, max_matches, domain):
    """Every grid matrix on ``n`` objects, in canonical order."""
    return chain.from_iterable(_buckets(n, max_matches, domain))


def _walked(axiom, config, evaluator):
    """Every candidate of the grid, block after block and row after row,
    none settled."""
    return chain.from_iterable(candidates for rows, _ in _grid(axiom, config, evaluator) for _, candidates in rows)


def test_enumeration_order_for_two_objects():
    got = list(_matrices(2, 1, "all"))
    assert got == [
        ((0, 0), (0, 0)),
        ((0, 0), (2, 0)),
        ((0, 1), (1, 0)),
        ((0, 2), (0, 0)),
    ]


def test_enumeration_is_deterministic_and_sorted_within_totals():
    def total(dt):
        return sum(sum(row) for row in dt)

    for domain in ("all", "connected", "roundrobin"):
        first = list(_matrices(3, 2, domain))
        second = list(_matrices(3, 2, domain))
        assert first == second
        assert len(first) == len(set(first))
        totals = [total(dt) for dt in first]
        assert totals == sorted(totals)
        assert all(a < b for a, b in zip(first, first[1:]) if total(a) == total(b)), domain


def test_domain_filters_agree_with_model_predicates():
    # Every grid of two to four objects with one or two matches whose "all"
    # domain has at most 5 000 matrices. The enumeration tests each
    # schedule's connectivity once, not each matrix's, and must still keep
    # exactly the matrices the predicates keep.
    for n, cap in product((2, 3, 4), (1, 2)):
        if (cap + 1) ** (n * (n - 1)) > 5_000:
            continue
        problems = {dt: _problem(dt) for dt in _matrices(n, cap, "all")}
        for domain, predicate in (
            ("connected", is_connected),
            ("irreducible", is_irreducible),
            ("roundrobin", is_round_robin),
        ):
            listed = set(_matrices(n, cap, domain))
            assert listed <= problems.keys()
            for dt, problem in problems.items():
                assert (dt in listed) == predicate(problem), (n, cap, domain, dt)


def test_round_robin_candidate_count():
    # One shared match count per round: (2m + 1)^3 results for n = 3.
    assert sum(1 for _ in _matrices(3, 2, "roundrobin")) == 27 + 125


@pytest.mark.parametrize("n, max_matches", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1)])
def test_enumeration_visits_the_closed_form_count(n, max_matches):
    # A pair playing m matches has 2m + 1 results: (M + 1)^2 states per
    # pair over m = 0..M, and one shared m per round robin.
    pairs = comb(n, 2)
    assert sum(1 for _ in _matrices(n, max_matches, "all")) == (max_matches + 1) ** (2 * pairs)
    assert sum(1 for _ in _matrices(n, max_matches, "roundrobin")) == sum(
        (2 * m + 1) ** pairs for m in range(1, max_matches + 1)
    )

    # Additivity pairs. Score is additive, so none of these searches finds
    # anything, and each count comes from the pair-orbit pass, which
    # computes it instead of visiting the pairs. CS and EP pair all N
    # inputs, N (N + 1) / 2 pairs; FP the same over the inputs rated
    # flat; RCS only inputs of one schedule, whose results make a group
    # of g = prod(2 m + 1) inputs, g (g + 1) / 2 pairs per schedule.
    score = Method("score")
    schedules = {"roundrobin": [(m,) * pairs for m in range(1, max_matches + 1)]}
    if n < 4:
        schedules["all"] = list(product(range(max_matches + 1), repeat=pairs))
    for domain, listed in schedules.items():
        config = SearchConfig(object_counts=(n,), max_matches=max_matches, domain=domain)
        sizes = [prod(2 * m + 1 for m in mvec) for mvec in listed]
        total = sum(sizes)
        flat = 0
        for dt in _matrices(n, max_matches, domain):
            values = score.rate(_problem(dt)).values
            flat += all(v == values[0] for v in values)
        for axiom, count in (
            (Axiom.CS, total * (total + 1) // 2),
            (Axiom.EP, total * (total + 1) // 2),
            (Axiom.FP, flat * (flat + 1) // 2),
            (Axiom.RCS, sum(g * (g + 1) // 2 for g in sizes)),
        ):
            result = search(score, axiom, config)
            assert (result.found, result.exhausted, result.examined) == (False, True, count), (domain, axiom)

        # The single-matrix and edited-pair axioms, whose rows the search
        # mostly settles by the first member of their orbit. NEU takes every
        # relabelling but the identity; SYM the flat matrices, a = 0 on
        # every pair, one per schedule; INV every matrix. IIR edits a pair
        # to one of its 2m other results, and on round robins IIM may only
        # do the same, (2m + 1)^pairs * pairs * 2m per match count m; both
        # need four objects.
        edits = 0
        if n >= 4:
            assert domain == "roundrobin"
            edits = sum((2 * m + 1) ** pairs * pairs * 2 * m for m in range(1, max_matches + 1))
        for axiom, count in (
            (Axiom.NEU, total * (factorial(n) - 1)),
            (Axiom.SYM, len(listed)),
            (Axiom.INV, total),
            (Axiom.IIM, edits),
            (Axiom.IIR, edits),
        ):
            result = search(score, axiom, config)
            assert (result.found, result.exhausted, result.examined) == (False, True, count), (domain, axiom)


def test_round_robin_closed_form_on_four_objects_with_two_matches():
    assert sum(1 for _ in _matrices(4, 2, "roundrobin")) == 3**6 + 5**6


def _joined(n, pairs, mvec):
    # Union-find over the pairs that meet at least once.
    parent = list(range(n))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for (i, j), m in zip(pairs, mvec):
        if m:
            parent[root(i)] = root(j)
    return len({root(v) for v in range(n)}) == 1


def test_schedules_match_a_brute_force_filter():
    # Per total number of matches, by ascending total, the schedules each
    # domain admits, in the order of a product over the pairs. Connectivity
    # is decided by a union-find here, not by the model's predicate; an
    # irreducible matrix needs a connected schedule, and every connected
    # schedule has one.
    for n, cap in product((2, 3, 4, 5), (1, 2)):
        pairs = list(combinations(range(n), 2))
        keep = {
            "all": lambda mvec: True,
            "connected": lambda mvec: _joined(n, pairs, mvec),
            "roundrobin": lambda mvec: len(set(mvec)) == 1 and mvec[0] > 0,
        }
        every = list(product(range(cap + 1), repeat=len(pairs)))
        expected = {}
        for domain, test in keep.items():
            by_total = {}
            for mvec in filter(test, every):
                by_total.setdefault(sum(mvec), []).append(mvec)
            expected[domain] = [by_total[total] for total in sorted(by_total)]
        expected["irreducible"] = expected["connected"]
        for domain in DOMAINS:
            listed = [schedules for schedules in _schedules(n, cap, domain) if schedules]
            assert listed == expected[domain], (n, cap, domain)


def test_schedules_test_each_set_of_meeting_pairs_once(monkeypatch):
    # Connectivity depends only on which pairs meet, so the enumerator
    # tests at most one matrix per set of meeting pairs: 2^C(n, 2) sets,
    # 1 024 on five objects where two matches per pair give 59 049
    # schedules.
    search_module = importlib.import_module("pairrank.search")
    calls = []
    monkeypatch.setattr(search_module, "connected", lambda dt: calls.append(dt) or is_connected(_problem(dt)))
    for n, cap, domain in product((4, 5), (1, 2), ("connected", "irreducible")):
        calls.clear()
        listed = sum(map(len, _schedules(n, cap, domain)))
        assert len(calls) <= 2 ** comb(n, 2), (n, cap, domain)
        assert len(calls) == len(set(calls)), (n, cap, domain)
        assert listed == {(4, 1): 38, (4, 2): 624, (5, 1): 728, (5, 2): 55_248}[n, cap], (n, cap, domain)


def _grid_size(n, max_matches, domain):
    # A pair playing m matches has 2 m + 1 results.
    return sum(prod(2 * m + 1 for m in mvec) for schedules in _schedules(n, max_matches, domain) for mvec in schedules)


def test_grid_size_is_a_sum_over_schedules():
    for n, cap in ((2, 1), (2, 2), (3, 1), (3, 2), (4, 1)):
        for domain in ("all", "connected", "roundrobin"):
            assert _grid_size(n, cap, domain) == sum(map(len, _buckets(n, cap, domain))), (n, cap, domain)
    # The connected graphs on four labelled objects: 16 trees, 15 with four
    # edges, 6 with five and the complete one, each edge with 3 results.
    assert _grid_size(4, 1, "connected") == 16 * 3**3 + 15 * 3**4 + 6 * 3**5 + 3**6 == 3_834
    # Too large to build here: from the schedules alone.
    assert _grid_size(4, 2, "connected") == 528_384
    assert _grid_size(5, 1, "connected") == 1_027_080


def test_buckets_match_matrices_built_one_by_one():
    # The buckets assembled from per-object row tables are the buckets
    # built matrix by matrix, one _build_dt per schedule and results vector
    # and then sorted, on n 2-4 with one or two matches in every domain and
    # on 5-object single round robins. An irreducible bucket is the
    # connected one filtered, with irreducibility tested once per set of
    # positive entries. Within a bucket, equal rows are one object.
    build = importlib.import_module("pairrank.search")._build_dt
    strongly = cache(irreducible)
    kept = lambda dt: strongly(tuple(tuple(v > 0 for v in row) for row in dt))

    def built(n, cap, domain):
        pairs = list(combinations(range(n), 2))
        for schedules in _schedules(n, cap, domain):
            yield sorted(
                build(n, pairs, mvec, avec)
                for mvec in schedules
                for avec in product(*(range(-m, m + 1) for m in mvec))
            )

    def check(bucket, expected, grid):
        assert bucket == expected, grid
        rows = {}
        assert all(rows.setdefault(row, row) is row for dt in bucket for row in dt), grid

    grids = [(n, cap, domain) for n, cap, domain in product((2, 3, 4), (1, 2), DOMAINS) if domain != "irreducible"]
    for n, cap, domain in grids + [(5, 1, "roundrobin")]:
        buckets = zip(_buckets(n, cap, domain), built(n, cap, domain), strict=True)
        if domain == "connected":
            buckets = zip(buckets, _buckets(n, cap, "irreducible"), strict=True)
        else:
            buckets = zip(buckets, repeat(None))
        for (bucket, expected), strong in buckets:
            check(bucket, expected, (n, cap, domain))
            if strong is not None:
                check(strong, list(filter(kept, expected)), (n, cap, "irreducible"))


def test_sweep_refuses_a_bucket_not_closed_under_relabelling():
    # X1 beat X2, who beat X3: relabelling the objects gives five other
    # matrices, none of them in the list.
    with pytest.raises(RuntimeError, match="a bucket is not closed under relabelling"):
        list(_sweep([((0, 2, 0), (0, 0, 2), (0, 0, 0))]))


def test_symmetry_search_takes_one_even_split_per_schedule(monkeypatch):
    # A flat grid matrix is the even split of its schedule, so SYM never
    # builds a bucket, nor any matrix that is not flat. It examines one
    # candidate per connected schedule: 728 on five objects with one
    # match, the connected labelled graphs on five vertices.
    search_module = importlib.import_module("pairrank.search")
    build = search_module._build_dt

    def refuse(*args):
        raise AssertionError("SYM built a bucket")

    def flat_only(*args):
        dt = build(*args)
        assert flat(dt), dt
        return dt

    monkeypatch.setattr(search_module, "_buckets", refuse)
    monkeypatch.setattr(search_module, "_build_dt", flat_only)
    for n, cap, count in ((4, 2, 624), (5, 1, 728)):
        assert sum(map(len, _schedules(n, cap, "connected"))) == count
        config = SearchConfig(object_counts=(n,), max_matches=cap, domain="connected")
        result = search(Method("ls"), Axiom.SYM, config)
        assert (result.found, result.exhausted, result.examined, result.admissible) == (False, True, count, count)


def _sign(x):
    return (x > 0) - (x < 0)


@pytest.mark.parametrize(
    "method",
    [Method("score"), Method("grs", "reasonable"), Method("grs", Fraction(1, 3)),
     Method("ls"), Method("fb"), Method("dfb"), Method("cfb")],
    ids=["score", "grs-reasonable", "grs-third", "ls", "fb", "dfb", "cfb"],
)
def test_evaluator_keys_order_like_ratings(method):
    rng = random.Random(3)
    grid = list(_matrices(3, 2, "all")) + list(_matrices(4, 1, "all"))
    evaluator = _Evaluator(method)
    for dt in rng.sample(grid, 150):
        keys = evaluator[dt]
        try:
            ratings = method.rate(_problem(dt)).values
        except MethodPreconditionError:
            assert keys is None
            continue
        assert all(isinstance(k, int) for k in keys)
        assert set(keys) == set(range(max(keys) + 1))  # dense ranks
        n = len(dt)
        for i in range(n):
            for j in range(n):
                assert _sign(keys[i] - keys[j]) == _sign(ratings[i] - ratings[j]), (dt, i, j)


def test_random_draws_do_not_collide_across_seeds():
    # seed * 1_000_003 + index once gave seed s at index i + 1_000_003 the
    # stream of seed s + 1 at index i.
    config = SearchConfig(object_counts=(3, 4), max_matches=2, mode="random")
    for seed, index in ((0, 0), (4, 17), (11, 250)):
        shifted = _random_candidate(Axiom.CS, _draw_rng(seed, index + 1_000_003), config)
        next_seed = _random_candidate(Axiom.CS, _draw_rng(seed + 1, index), config)
        assert shifted != next_seed


@pytest.mark.parametrize(
    "method",
    [Method("score"), Method("grs", "reasonable"), Method("ls"), Method("cfb")],
    ids=["score", "grs-reasonable", "ls", "cfb"],
)
def test_scan_agrees_with_checker(method):
    # A judge's verdict must be the checker's on every candidate either
    # source yields: None exactly where run_check refuses the witness,
    # and otherwise exactly the pairs it reports.
    def checker_pairs(axiom, candidate):
        try:
            report = run_check(axiom, method, _witness(axiom, candidate))
        except (WitnessError, PreconditionUnmet):
            return None, None
        return [v.objects for v in report.violations], report

    rng = random.Random(19)
    evaluator = _Evaluator(method)
    for axiom in Axiom:
        judge = _JUDGES[axiom.kind](axiom, evaluator, 1)
        n = 4 if axiom.kind is AxiomKind.INDEPENDENCE else 3
        small = SearchConfig(object_counts=(n,), domain="roundrobin" if n == 4 else "all")
        grid = list(islice(_walked(axiom, small, evaluator), 2000))
        if axiom is Axiom.FP:
            # The grid offers only inputs rated flat; the judge must refuse the rest.
            grid += _walked(Axiom.CS, small, evaluator)
        for candidate in rng.sample(grid, min(len(grid), 25)):
            assert judge(*candidate) == checker_pairs(axiom, candidate)[0], (axiom, candidate)

        # The random loop as it was: run_check on every draw, with the
        # refused witnesses filtered out.
        config = SearchConfig(object_counts=(n,), mode="random", seed=3, budget=120, limit=121)
        examined = admissible = 0
        hits = []
        for index in range(config.budget):
            candidate = _random_candidate(axiom, _draw_rng(config.seed, index), config)
            examined += 1
            if candidate is None:
                continue
            pairs, report = checker_pairs(axiom, candidate)
            assert judge(*candidate) == pairs, (axiom, candidate)
            if report is None:
                continue
            admissible += 1
            if not report.satisfied:
                hits.append(SearchHit(_witness(axiom, candidate), report))
        result = search(method, axiom, config)
        assert (result.examined, result.admissible, result.hits) == (examined, admissible, tuple(hits))


@pytest.mark.parametrize(
    "axiom, counts",
    [(Axiom.NEU, (3, 4)), (Axiom.IIM, (4, 5)), (Axiom.IIR, (4, 5)), (Axiom.CS, (3, 4))],
    ids=["NEU", "IIM", "IIR", "CS"],
)
def test_grid_blocks_stand_on_their_own(axiom, counts):
    # Each block binds its own inputs, relabellings, pairs and domain
    # test, so taking every block before walking any changes nothing.
    config = SearchConfig(object_counts=counts, domain="roundrobin")
    def first_200(rows):
        return list(islice(chain.from_iterable(candidates for _, candidates in rows), 200))

    taken = list(_grid(axiom, config, _Evaluator(Method("score"))))
    eager = [first_200(rows) for rows, _ in taken]
    lazy = [first_200(rows) for rows, _ in _grid(axiom, config, _Evaluator(Method("score")))]
    assert len(eager) == len(counts) and all(eager)
    assert eager == lazy


def test_packed_codes_add_and_stay_apart():
    # Grid entries are at most 2 max_matches, so sums fit the radix
    # 4 max_matches + 1 and codes add digit by digit; only the leading
    # object count is counted twice.
    radix = 9
    rng = random.Random(5)
    grid = list(_matrices(3, 2, "all"))
    zeros = ((0,) * 3,) * 3
    for _ in range(300):
        a, b = rng.choice(grid), rng.choice(grid)
        assert _pack(a, radix) + _pack(b, radix) - _pack(zeros, radix) == _pack(add(a, b), radix)

    # The judge keys the sums of every size in one table by their inputs'
    # codes added: a sum's code plus the zero matrix's, whose leading digit
    # 2 n keeps sizes apart. So no two different matrices of any size may
    # share a code.
    seen = {}
    for n in (2, 3, 4):
        inputs = list(_matrices(n, 2, "all" if n < 4 else "roundrobin"))
        pairs = [(rng.choice(inputs), rng.choice(inputs)) for _ in range(400)]
        for dt in inputs + [add(a, b) for a, b in pairs]:
            assert seen.setdefault(_pack(dt, radix), dt) == dt

    for bad in (((0, 9), (0, 0)), ((0, -1), (1, 0))):
        with pytest.raises(ValueError, match="radix"):
            _pack(bad, radix)
    # The judge takes input slots [dt, None] and fills each on first
    # reading with the code of dt and its masks, so the two codes added
    # are the code of the sum plus the zero matrix's.
    judge = _JUDGES[AxiomKind.ADDITIVITY](Axiom.CS, _Evaluator(Method("score")), 2)
    grid = list(_matrices(3, 2, "all"))
    for _ in range(100):
        first, second = [rng.choice(grid), None], [rng.choice(grid), None]
        judge(first, second)
        (code, _), (other, _) = first[1], second[1]
        assert code == _pack(first[0], radix)
        assert code + other == _pack(add(first[0], second[0]), radix) + _pack(zeros, radix)
    # A judge refuses inputs whose sums could overflow its radix.
    judge = _JUDGES[AxiomKind.ADDITIVITY](Axiom.CS, _Evaluator(Method("score")), 1)
    with pytest.raises(ValueError, match="max_matches"):
        judge([((0, 3), (1, 0)), None], [((0, 1), (1, 0)), None])


def test_verdicts_are_kept_per_permutation_and_edited_pair():
    # Every method is neutral and no score search fails, so planted weak
    # orders show that a verdict is not reused for another relabelling
    # or another edited pair with the same orders.
    dt = ((0, 2, 2), (0, 0, 2), (0, 0, 0))
    evaluator = _Evaluator(Method("score"))
    kept, moved = Permutation((1, 0, 2)), Permutation((0, 2, 1))
    # The NEU judge rates directly, so its orders are planted there.
    planted = {dt: (0, 1, 2)}
    for sigma in (kept, moved):
        planted[relabel(dt, sigma)] = (1, 0, 2)
    evaluator.weak_order = planted.__getitem__
    judge = _JUDGES[AxiomKind.INVARIANCE](Axiom.NEU, evaluator, 1)
    assert judge(dt, kept) == []
    assert judge(dt, moved) == invariance_failures(Axiom.NEU, (0, 1, 2), (1, 0, 2), moved) == [(0, 2), (1, 2)]

    first, second = ((0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)), ((0,) * 4,) * 4
    evaluator[first], evaluator[second] = (0, 1, 2, 3), (1, 0, 2, 3)
    judge = _JUDGES[AxiomKind.INDEPENDENCE](Axiom.IIM, evaluator, 1)
    assert judge(first, second, (0, 1)) == []
    assert judge(first, second, (2, 3)) == [(0, 1)]


def _brute_code(dt):
    # The least code over all n! relabellings names the orbit of dt.
    n = len(dt)
    return min(_pack(relabel(dt, Permutation(p)), 9) for p in permutations(range(n)))


def test_canonical_representatives_name_relabelling_orbits():
    # One representative per orbit, and different ones for different
    # orbits: on full grids for n = 2 to 4, and on relabelled seeded
    # samples for n = 5.
    grids = [list(_matrices(n, 1, "all")) for n in (2, 3, 4)]
    grids.append(list(_matrices(3, 2, "all")))
    rng = random.Random(23)
    fives = list(_matrices(5, 1, "roundrobin"))
    sample = []
    for dt in rng.sample(fives, 60):
        sample.append(dt)
        for _ in range(3):
            image = list(range(5))
            rng.shuffle(image)
            sample.append(relabel(dt, Permutation(tuple(image))))
    # Each object beats the next two round a circle: one tie class of
    # all five objects, so all 120 orders are tried.
    sample.append(tuple(tuple(2 if (j - i) % 5 in (1, 2) else 0 for j in range(5)) for i in range(5)))
    for grid in grids + [sample]:
        rep_of_orbit, orbit_of_rep = {}, {}
        for dt in grid:
            rep, objs = _canonical(dt)
            # Position k of the representative holds object objs[k] of dt.
            assert relabel(rep, Permutation(objs)) == dt
            orbit = _brute_code(dt)
            assert rep_of_orbit.setdefault(orbit, rep) == rep, dt
            assert orbit_of_rep.setdefault(rep, orbit) == orbit, dt
    assert len(rep_of_orbit) < len(sample)  # the relabelled copies share representatives


def test_sweep_names_each_grid_matrix_as_canonical_does(monkeypatch):
    # Every bucket of the full grids for n = 2 to 4 and one or two matches,
    # in all four domains, leaving out the grids of more than 20 000
    # matrices; the flat part of each bucket, the even splits of its
    # schedules, which SYM sweeps; and one bucket on six objects. The
    # sweep gives each matrix the representative _canonical gives it, and
    # an object order onto it, but canonicalises one member per orbit.
    search_module = importlib.import_module("pairrank.search")
    calls = []
    monkeypatch.setattr(search_module, "_canonical", lambda dt: calls.append(dt) or _canonical(dt))
    named = 0
    parts = []
    for n, cap, domain in product((2, 3, 4), (1, 2), DOMAINS):
        if (cap + 1) ** (n * (n - 1)) > 20_000 and domain != "roundrobin":
            continue
        parts += chain.from_iterable((bucket, list(filter(flat, bucket))) for bucket in _buckets(n, cap, domain))
    # The 45 matrices of six objects with one match in all, in two orbits:
    # a mark holds any of the 720 relabellings once the orbit limit allows
    # six objects.
    monkeypatch.setattr(search_module, "ORBIT_OBJECTS", 6)
    parts.append(list(islice(_buckets(6, 1, "all"), 1, 2))[0])
    for part in parts:
        calls.clear()
        reps = set()
        for dt, rep, objs in _sweep(part):
            n = len(dt)
            assert rep == _canonical(dt)[0], dt
            assert all(rep[k][l] == dt[objs[k]][objs[l]] for k in range(n) for l in range(n)), dt
            reps.add(rep)
            named += 1
        assert len(calls) == len(reps)
    assert len(parts[-1]) == 45 and len(reps) == 2
    assert named > 28_000


def _counting_canonical(monkeypatch):
    """Patch ``_canonical`` in the search module to record its inputs."""
    search_module = importlib.import_module("pairrank.search")
    calls = []
    monkeypatch.setattr(search_module, "_canonical", lambda dt: calls.append(dt) or _canonical(dt))
    return calls


def test_symmetry_search_names_each_orbit_once(monkeypatch):
    # The grid's sweep names every even split by its representative and an
    # object order onto it, and a judged row is rated by that name, so a
    # SYM search canonicalises one even split per relabelling orbit and no
    # other matrix. The orbits are counted by brute force over every flat
    # matrix the domain admits.
    calls = _counting_canonical(monkeypatch)
    admits = {"all": lambda p: True, "connected": is_connected, "irreducible": is_irreducible, "roundrobin": is_round_robin}
    for n, cap, domain in product((2, 3, 4), (1, 2), DOMAINS):
        pairs = list(combinations(range(n), 2))
        splits = set()
        for mvec in product(range(cap + 1), repeat=len(pairs)):
            dt = [[0] * n for _ in range(n)]
            for (i, j), m in zip(pairs, mvec):
                dt[i][j] = dt[j][i] = m
            dt = tuple(map(tuple, dt))
            if admits[domain](_problem(dt)):
                splits.add(dt)
        calls.clear()
        config = SearchConfig(object_counts=(n,), max_matches=cap, domain=domain)
        result = search(Method("score"), Axiom.SYM, config)
        assert (result.found, result.examined) == (False, len(splits)), (n, cap, domain)
        assert set(calls) <= splits, (n, cap, domain)
        assert len(calls) == len({_brute_code(dt) for dt in splits}), (n, cap, domain)


def test_reversal_search_rates_grid_matrices_by_their_sweep_names(monkeypatch):
    # INV on the single-match round robins on three and four objects: 49
    # orbits among 756 matrices. The sweeps canonicalise the first member
    # of each orbit, and the judge only the transposes not yet rated: 47.
    # No judged row's own matrix is canonicalised again, so no matrix is
    # canonicalised twice.
    calls = _counting_canonical(monkeypatch)
    config = SearchConfig(object_counts=(3, 4), domain="roundrobin")
    result = search(Method("score"), Axiom.INV, config)
    assert (result.found, result.examined, result.admissible) == (False, 756, 756)
    firsts = {}
    for dt in chain(_matrices(3, 1, "roundrobin"), _matrices(4, 1, "roundrobin")):
        firsts.setdefault(_canonical(dt)[0], dt)
    assert len(firsts) == 49
    assert len(set(calls)) == len(calls) == 96
    assert sum(dt in firsts.values() for dt in calls) == 49


def test_orbit_layer_stops_at_four_objects(monkeypatch):
    # Four objects all drawn: 24 tie orders, and the representative is
    # kept. Five objects are rated directly, without a canonical form.
    on = _Evaluator(Method("ls"))
    four = tuple(tuple(int(i != j) for j in range(4)) for i in range(4))
    assert on.rate(four) == (0,) * 4
    assert list(on) == [four]
    monkeypatch.setattr(importlib.import_module("pairrank.search"), "_canonical", None)
    five = tuple(tuple(int(i != j) for j in range(5)) for i in range(5))
    assert on.rate(five) == (0,) * 5
    assert list(on) == [four]


@pytest.mark.parametrize(
    "method",
    [Method("score"), Method("grs", "reasonable"), Method("grs", Fraction(1, 3)),
     Method("ls"), Method("fb"), Method("dfb"), Method("cfb")],
    ids=["score", "grs-reasonable", "grs-third", "ls", "fb", "dfb", "cfb"],
)
def test_orbit_layer_rates_like_plain_rating(method):
    # Every matrix of the single-match grids for n = 3 and 4 and of the
    # two-match grid for n = 3. The four domains are subsets of "all"
    # for the same n and cap, so this covers each of them.
    grid = [dt for n, cap in ((3, 1), (4, 1), (3, 2)) for dt in _matrices(n, cap, "all")]
    on = _Evaluator(method)
    for dt in grid:
        assert on.rate(dt) == on.weak_order(dt), dt
    # One rating per orbit, kept under its representative: the 4 889
    # matrices fall into far fewer.
    assert len(on) < len(grid) // 5


def test_neutrality_search_rates_every_relabelling(monkeypatch):
    # Planted: score with ties broken by object index, which is not
    # neutral. Rating one matrix per orbit would hide exactly that, so a
    # NEU search must find what run_check finds on every candidate.
    monkeypatch.setitem(methods._PLAIN, "score", tie_broken_score)
    method = Method("score")
    config = SearchConfig(object_counts=(3,), domain="roundrobin", limit=1000)
    expected = []
    for dt, sigma in _walked(Axiom.NEU, config, _Evaluator(method)):
        report = run_check(Axiom.NEU, method, _witness(Axiom.NEU, (dt, sigma)))
        if not report.satisfied:
            expected.append(SearchHit(_witness(Axiom.NEU, (dt, sigma)), report))
    result = search(method, Axiom.NEU, config)
    assert result.found
    assert result.hits == tuple(expected)
    for hit in result.hits:
        assert not run_check(Axiom.NEU, method, hit.witness).satisfied


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(object_counts=(1,))
    with pytest.raises(ValueError, match="empty"):
        SearchConfig(object_counts=())
    for bad in (
        dict(object_counts=(3.9,)),
        dict(max_matches=1.5),
        dict(budget=2.5),
        dict(limit=1.5),
        dict(seed=1.5),
    ):
        with pytest.raises(TypeError):
            SearchConfig(**bad)
    with pytest.raises(ValueError):
        SearchConfig(max_matches=0)
    with pytest.raises(ValueError):
        SearchConfig(domain="planar")
    with pytest.raises(ValueError):
        SearchConfig(mode="clever")
    with pytest.raises(ValueError):
        SearchConfig(budget=0)
    with pytest.raises(ValueError):
        SearchConfig(limit=0)


def test_exhaustive_tie_preservation_hit_for_fair_bets():
    config = SearchConfig(object_counts=(4,), max_matches=1, domain="roundrobin")
    result = search(Method("fb"), Axiom.EP, config)
    assert result.found
    assert not result.exhausted  # stopped at the witness limit
    assert result.examined > 0 and result.admissible > 0
    hit = result.hits[0]
    assert not hit.report.satisfied
    replay = run_check(Axiom.EP, Method("fb"), hit.witness)
    assert not replay.satisfied


def test_exhaustive_search_is_deterministic():
    config = SearchConfig(object_counts=(4,), max_matches=1, domain="roundrobin")
    a = search(Method("fb"), Axiom.EP, config)
    b = search(Method("fb"), Axiom.EP, config)
    assert a == b


def test_score_clears_small_spaces():
    rr3 = SearchConfig(object_counts=(3,), max_matches=1, domain="roundrobin")
    for axiom in (Axiom.CS, Axiom.EP, Axiom.RCS, Axiom.NEU, Axiom.INV, Axiom.SYM):
        result = search(Method("score"), axiom, rr3)
        assert not result.found, axiom
        assert result.exhausted
    rr4 = SearchConfig(object_counts=(4,), max_matches=1, domain="roundrobin")
    for axiom in (Axiom.IIM, Axiom.IIR):
        result = search(Method("score"), axiom, rr4)
        assert not result.found, axiom
        assert result.exhausted


def test_independence_skips_counts_below_four():
    config = SearchConfig(object_counts=(3,), max_matches=1)
    result = search(Method("score"), Axiom.IIM, config)
    assert result.examined == 0 and not result.found and result.exhausted


def test_reversal_hit_for_fair_bets():
    config = SearchConfig(object_counts=(4,), max_matches=1, domain="roundrobin")
    result = search(Method("fb"), Axiom.INV, config)
    assert result.found and not result.exhausted
    witness = result.hits[0].witness
    assert is_round_robin(witness.problem)
    assert not run_check(Axiom.INV, Method("fb"), witness).satisfied


def test_limit_collects_multiple_witnesses():
    config = SearchConfig(
        object_counts=(4,), max_matches=1, domain="roundrobin", limit=3
    )
    result = search(Method("fb"), Axiom.EP, config)
    assert len(result.hits) == 3
    assert not result.exhausted
    problems = {hit.witness.first.tournament for hit in result.hits}
    assert len(problems) >= 1  # pairs may share a first problem


def test_random_mode_is_reproducible():
    config = SearchConfig(
        object_counts=(3, 4),
        max_matches=2,
        mode="random",
        seed=11,
        budget=300,
        limit=2,
    )
    a = search(Method("fb"), Axiom.EP, config)
    b = search(Method("fb"), Axiom.EP, config)
    assert a == b
    assert a.examined <= 300
    for hit in a.hits:
        assert not run_check(Axiom.EP, Method("fb"), hit.witness).satisfied


@pytest.mark.parametrize(
    "axiom, examined, admissible, witness, pairs",
    [
        (Axiom.CS, 12, 1,
         (((0, 0, 2, 1), (0, 0, 3, 3), (0, 1, 0, 2), (1, 1, 0, 0)),
          ((0, 3, 2, 0), (1, 0, 0, 3), (0, 4, 0, 0), (0, 1, 2, 0))), [(2, 3)]),
        (Axiom.EP, 12, 1,
         (((0, 0, 2, 1), (0, 0, 3, 3), (0, 1, 0, 2), (1, 1, 0, 0)),
          ((0, 3, 2, 0), (1, 0, 0, 3), (0, 4, 0, 0), (0, 1, 2, 0))), [(2, 3)]),
        (Axiom.FP, 600, 380, None, None),
        (Axiom.RCS, 106, 25, (((0, 4, 0), (0, 0, 1), (4, 1, 0)), ((0, 1, 3), (3, 0, 0), (1, 2, 0))), [(0, 1)]),
    ],
    ids=lambda v: v.ident if isinstance(v, Axiom) else None,
)
def test_random_additivity_search_is_pinned(axiom, examined, admissible, witness, pairs):
    # Fair bets on random 3- and 4-object draws at one seed. FP draws
    # flat problems, which every method rates flat, so it finds nothing.
    config = SearchConfig(object_counts=(3, 4), max_matches=2, mode="random", seed=5, budget=600)
    result = search(Method("fb"), axiom, config)
    assert (result.examined, result.admissible) == (examined, admissible)
    if witness is None:
        assert not result.found and result.exhausted
        return
    (hit,) = result.hits
    first, second = hit.witness.first, hit.witness.second
    assert (first.scaled, second.scaled) == witness
    assert first.denominator == second.denominator == 2
    assert [v.objects for v in hit.report.violations] == pairs


def test_random_mode_draws_full_budget_without_hits():
    config = SearchConfig(
        object_counts=(3,),
        max_matches=1,
        mode="random",
        seed=2,
        budget=150,
    )
    result = search(Method("score"), Axiom.CS, config)
    assert not result.found
    assert result.examined == 150
    assert result.exhausted


@pytest.mark.parametrize("domain", DOMAINS)
def test_random_rcs_candidates_lie_in_their_domain(domain):
    # The second input keeps the first one's schedule but draws new
    # results, and an irreducible schedule can carry reducible results.
    predicate = {
        "all": lambda problem: True,
        "connected": is_connected,
        "irreducible": is_irreducible,
        "roundrobin": is_round_robin,
    }[domain]
    config = SearchConfig(object_counts=(3, 4), max_matches=2, domain=domain, mode="random", seed=1, budget=500)
    drawn = 0
    for index in range(config.budget):
        candidate = _random_candidate(Axiom.RCS, _draw_rng(config.seed, index), config)
        if candidate is None:
            continue
        first, second = (slot[0] for slot in candidate)
        assert add(first, transpose(first)) == add(second, transpose(second)), candidate
        assert predicate(_problem(first)) and predicate(_problem(second)), candidate
        drawn += 1
    assert drawn > config.budget // 2


# --- the pair-orbit pass against plain scans ---------------------------------

_SETTINGS = [Method("score"), Method("grs", "reasonable"), Method("grs", Fraction(1, 2)),
             Method("ls"), Method("fb"), Method("dfb"), Method("cfb")]
_SETTING_IDS = ["score", "grs-reasonable", "grs-half", "ls", "fb", "dfb", "cfb"]
_ADDITIVITY = [Axiom.CS, Axiom.EP, Axiom.FP, Axiom.RCS]
_UNLIMITED = 10**6


class _RatedOnce:
    """The method, rating each matrix once: the plain scan's only shortcut."""

    def __init__(self, method):
        self.method, self.label, self.seen = method, method.label, {}

    def rate(self, problem):
        # A relabelled problem has the same matrix under other labels.
        key = problem.labels, problem.scaled, problem.denominator
        if key not in self.seen:
            try:
                self.seen[key] = self.method.rate(problem)
            except MethodPreconditionError as exc:
                self.seen[key] = exc
        rating = self.seen[key]
        if isinstance(rating, Exception):
            raise rating.with_traceback(None)
        return rating


def _plain_scan(method, axiom, config):
    """Per pair of the canonical walk, whether run_check admits it and the
    hit it makes, if any: every pair of each object count's inputs, in
    enumeration order, RCS within each schedule group in order of first
    appearance, and FP over the inputs the method rates flat."""
    rated = _RatedOnce(method)
    for n in config.object_counts:
        inputs = list(_matrices(n, config.max_matches, config.domain))
        if axiom is Axiom.FP:
            flat = []
            for dt in inputs:
                try:
                    values = method.rate(_problem(dt)).values
                except MethodPreconditionError:
                    continue
                if all(v == values[0] for v in values):
                    flat.append(dt)
            inputs = flat
        groups = {}
        for dt in inputs:
            groups.setdefault(add(dt, transpose(dt)) if axiom is Axiom.RCS else None, []).append(dt)
        for group in groups.values():
            for a, b in combinations_with_replacement(group, 2):
                witness = PairWitness(_problem(a), _problem(b))
                try:
                    report = run_check(axiom, rated, witness)
                except (WitnessError, PreconditionUnmet):
                    yield False, None
                    continue
                yield True, None if report.satisfied else SearchHit(witness, report)


def _stop_at(steps, limit):
    """The search result of the steps of a plain scan, under ``limit``."""
    examined = admissible = 0
    hits = []
    for admitted, hit in steps:
        examined += 1
        admissible += admitted
        if hit is not None:
            hits.append(hit)
            if len(hits) == limit:
                return SearchResult(tuple(hits), examined, admissible, exhausted=False)
    return SearchResult(tuple(hits), examined, admissible, exhausted=True)


@pytest.mark.parametrize("method", _SETTINGS, ids=_SETTING_IDS)
@pytest.mark.parametrize("max_matches, counts", [(1, (2, 3)), (2, (2,))], ids=["M1-n2-3", "M2-n2"])
def test_pair_orbit_pass_matches_a_plain_scan(method, max_matches, counts):
    # Every pair of every small grid through run_check. Two object counts
    # in one search, so that a count the pass decides follows one with
    # hits below the limit. On n = 3 the schedule groups of the
    # non-round-robin domains are not closed under relabelling.
    for domain, axiom in product(DOMAINS, _ADDITIVITY):
        config = SearchConfig(object_counts=counts, max_matches=max_matches, domain=domain)
        steps = list(_plain_scan(method, axiom, config))
        for limit in (1, 5, _UNLIMITED):
            expected = _stop_at(steps, limit)
            assert search(method, axiom, replace(config, limit=limit)) == expected, (domain, axiom, limit)


@pytest.mark.parametrize(
    "config, axioms",
    [(SearchConfig(object_counts=(3,), max_matches=2, domain=domain), _ADDITIVITY)
     for domain in ("connected", "irreducible", "roundrobin")]
    # All single-match 4-object round robins share one schedule, so RCS
    # pairs the same inputs as CS, under the same rule.
    + [(SearchConfig(object_counts=(4,), max_matches=1, domain="roundrobin"), [Axiom.CS, Axiom.EP, Axiom.FP])],
    ids=["n3-M2-connected", "n3-M2-irreducible", "n3-M2-roundrobin", "n4-M1-roundrobin"],
)
def test_pair_orbit_pass_matches_the_canonical_walk_on_larger_grids(config, axioms, monkeypatch):
    # These grids have up to 266 085 pairs, too many to put each through
    # run_check, so the reference is the search with the pass turned
    # off: every object count falls back to the canonical walk, which
    # the tests above check against the checker pair by pair. A grid with
    # no violation gives the same result at every limit; past the fifth
    # hit a violated grid runs only the canonical walk.
    search_module = importlib.import_module("pairrank.search")
    for axiom, method in product(axioms, _SETTINGS):
        for limit in (5, 1):
            got = search(method, axiom, replace(config, limit=limit))
            with monkeypatch.context() as patch:
                patch.setattr(search_module, "_settle", lambda judge, groups, orbits: None)
                expected = search(method, axiom, replace(config, limit=limit))
            assert got == expected, (axiom, method, limit)
            if not got.found:
                break


@pytest.mark.parametrize("axiom", [Axiom.CS, Axiom.EP])
def test_pair_orbit_pass_hands_a_violation_in_row_0_to_the_walk(axiom, monkeypatch):
    # Least squares fails CS and EP on the first input of the connected
    # 4-object grid and its fourth partner. The pass starts with that
    # input, stops at the same pair, and the walk reports it.
    search_module = importlib.import_module("pairrank.search")
    settle = search_module._settle
    judged, settled = [], []

    def spy(judge, groups, orbits):
        settled.append(settle(lambda *pair: judged.append(pair) or judge(*pair), groups, orbits))
        return settled[-1]

    monkeypatch.setattr(search_module, "_settle", spy)
    method = Method("ls")
    config = SearchConfig(object_counts=(4,), max_matches=1, domain="connected")
    for limit in (1, 5):
        judged.clear()
        result = search(method, axiom, replace(config, limit=limit))
        assert result == _stop_at(_plain_scan(method, axiom, config), limit)
        assert settled[-1] is None and len(judged) == 4
        assert result.examined == 4 if limit == 1 else result.examined > 4


def _judged_by_the_pass(method, axiom, config, monkeypatch):
    """The pairs the pair-orbit pass judges in a search, in order."""
    search_module = importlib.import_module("pairrank.search")
    settle = search_module._settle
    judged = []
    monkeypatch.setattr(
        search_module, "_settle",
        lambda judge, groups, orbits: settle(lambda *pair: judged.append(pair) or judge(*pair), groups, orbits),
    )
    result = search(method, axiom, config)
    return result, judged


@pytest.mark.parametrize("axiom", [Axiom.CS, Axiom.RCS])
@pytest.mark.parametrize("n, count", [(3, 88), (4, 14_350)])
def test_pair_orbit_pass_judges_each_pair_of_orbits_from_one_row(axiom, n, count, monkeypatch):
    # Single-match round robins, whose inputs form one group. The first
    # member of each input orbit is judged against the partners in its
    # own orbit or a later one: 88 pairs on three objects, not 189, and
    # 14 350 on four, not 30 618.
    config = SearchConfig(object_counts=(n,), domain="roundrobin")
    result, judged = _judged_by_the_pass(Method("score"), axiom, config, monkeypatch)
    size = 3 ** comb(n, 2)
    assert (result.found, result.examined, result.admissible) == (False, size * (size + 1) // 2, size * (size + 1) // 2)
    assert len(judged) == count


def test_pair_orbit_pass_meets_every_pair_orbit_from_one_row(monkeypatch):
    # On the single-match 4-object round robins, an unordered pair {A, B}
    # and all its relabellings form one pair orbit, named here by its
    # least relabelled pair. The pass judges every pair orbit, and each
    # from the row of one first member only; before, a pair orbit of two
    # input orbits was judged from both rows. Within a row, a partner and
    # its image under a relabelling that fixes the first member share a
    # pair orbit, so there are fewer pair orbits than judged pairs.
    config = SearchConfig(object_counts=(4,), domain="roundrobin")
    _, judged = _judged_by_the_pass(Method("score"), Axiom.CS, config, monkeypatch)
    picks = [itemgetter(*p) for p in permutations(range(4))]

    def image(pick, dt):
        return tuple(map(pick, pick(dt)))

    rows = {}
    for first, partner in judged:
        orbit = min(
            (a, b) if a <= b else (b, a)
            for a, b in ((image(pick, first[0]), image(pick, partner[0])) for pick in picks)
        )
        assert rows.setdefault(orbit, first[0]) is first[0]
    # Burnside: a relabelling fixes {A, B} if it fixes both, or swaps them.
    grid = list(_matrices(4, 1, "roundrobin"))
    fixed_pairs = 0
    for pick in picks:
        moved = {dt: image(pick, dt) for dt in grid}
        fixed = sum(moved[dt] == dt for dt in grid)
        swapped = sum(moved[moved[dt]] == dt != moved[dt] for dt in grid) // 2
        fixed_pairs += fixed * (fixed + 1) // 2 + swapped
    assert len(rows) == fixed_pairs // len(picks) == 11_337


# --- the relabelling-orbit walk against the plain walk -----------------------

_WALK_AXIOMS = [Axiom.SYM, Axiom.INV, Axiom.NEU, Axiom.IIM, Axiom.IIR]


def _orbits_dropped(grid):
    """``_grid`` with the orbit of every row dropped, so that the search
    judges every row: the plain walk."""

    def plain(*args):
        for rows, tables in grid(*args):
            yield ((None, candidates) for _, candidates in rows), tables

    return plain


@pytest.mark.parametrize(
    "config",
    [SearchConfig(object_counts=(2, 3), max_matches=cap, domain=domain) for domain in DOMAINS for cap in (1, 2)]
    + [SearchConfig(object_counts=(4,), max_matches=1, domain="roundrobin")],
    ids=[f"n2-3-M{cap}-{domain}" for domain in DOMAINS for cap in (1, 2)] + ["n4-M1-roundrobin"],
)
def test_orbit_walk_matches_the_plain_walk(config, monkeypatch):
    # Rows settled by the first member of their orbit must leave every
    # count, hit and replay as the plain walk has them, at every limit.
    # A grid with no violation gives the same result at every limit.
    search_module = importlib.import_module("pairrank.search")
    plain = _orbits_dropped(search_module._grid)
    # Both sides replay the same witnesses, and the checker is
    # deterministic, so each witness is checked once per cell.
    replays = {}
    checker = search_module.run_check

    def replay(*args):
        if args not in replays:
            replays[args] = checker(*args)
        return replays[args]

    monkeypatch.setattr(search_module, "run_check", replay)
    for axiom, method in product(_WALK_AXIOMS, _SETTINGS):
        for limit in (_UNLIMITED, 5, 1):
            got = search(method, axiom, replace(config, limit=limit))
            with monkeypatch.context() as patch:
                patch.setattr(search_module, "_grid", plain)
                expected = search(method, axiom, replace(config, limit=limit))
            assert got == expected, (axiom, method, limit)
            if not got.found:
                break


def test_unnamed_grid_matrices_search_as_named_ones(monkeypatch):
    # Above ORBIT_OBJECTS objects the sweep names no grid matrix and the
    # evaluator rates every matrix directly, so nothing is put in
    # canonical form, no count is settled by the pair-orbit pass and every
    # row is judged. With the limit below every object count, every search
    # takes that path and must give the result it gives at the real limit:
    # all nine axioms on two and three objects in every domain, and the
    # row axioms on single-match 4-object round robins.
    search_module = importlib.import_module("pairrank.search")
    replays = {}
    checker = search_module.run_check

    def replay(*args):
        if args not in replays:
            replays[args] = checker(*args)
        return replays[args]

    monkeypatch.setattr(search_module, "run_check", replay)
    cells = [(SearchConfig(object_counts=(2, 3), domain=domain), axiom) for domain in DOMAINS for axiom in Axiom]
    cells += [(SearchConfig(object_counts=(4,), domain="roundrobin"), axiom) for axiom in _WALK_AXIOMS]
    runs = [(config, axiom, method) for config, axiom in cells for method in (Method("score"), Method("ls"), Method("cfb"))]
    # fb breaks INV, where these three break no invariance axiom.
    runs += [(config, axiom, Method("fb")) for config, axiom in cells if axiom.kind is AxiomKind.INVARIANCE]
    found = set()
    for config, axiom, method in runs:
        for limit in (_UNLIMITED, 5, 1):
            named = search(method, axiom, replace(config, limit=limit))
            with monkeypatch.context() as patch:
                patch.setattr(search_module, "ORBIT_OBJECTS", 1)
                patch.setattr(search_module, "_canonical", None)
                patch.setattr(search_module, "_settle", None)
                unnamed = search(method, axiom, replace(config, limit=limit))
            assert unnamed == named, (config, axiom, method, limit)
            if not named.found:
                break
            found.add(axiom.kind)
    # Hits in every family, the additivity grid included.
    assert found == set(AxiomKind)


def test_neutrality_search_judges_every_orbit_with_a_hidden_violation(monkeypatch):
    # Planted: score with ties broken by object index on every round robin
    # that is not the first member of its relabelling orbit in canonical
    # order. First members are rated by plain score in every other orbit,
    # and not at all in the rest. The later members must not be settled by
    # a first member that saw them fail, nor by one that could not be
    # compared with them: the search must find what run_check finds on
    # every candidate of the walk, at every limit.
    config = SearchConfig(object_counts=(3, 4), domain="roundrobin")
    firsts = {}
    for n in config.object_counts:
        for dt in _matrices(n, 1, "roundrobin"):
            firsts.setdefault(_canonical(dt)[0], dt)
    first_is_rated = {rep: index % 2 == 0 for index, rep in enumerate(firsts)}
    rated_first = {}
    for rep, dt in firsts.items():
        problem = _problem(dt)
        rated_first[problem.scaled, problem.denominator] = first_is_rated[rep]

    @cache
    def planted(problem):
        first = rated_first.get((problem.scaled, problem.denominator))
        if first is None:
            return tie_broken_score(problem)
        if first:
            return methods.score(problem)
        raise NoComparisons("planted: undefined on the first member of an orbit")

    monkeypatch.setitem(methods._PLAIN, "score", planted)
    method = Method("score")
    steps = []
    later_members_hit = set()
    for dt, sigma in _walked(Axiom.NEU, config, _Evaluator(method)):
        witness = _witness(Axiom.NEU, (dt, sigma))
        try:
            report = run_check(Axiom.NEU, method, witness)
        except PreconditionUnmet:
            steps.append((False, None))
            continue
        steps.append((True, None if report.satisfied else SearchHit(witness, report)))
        rep = _canonical(dt)[0]
        if not report.satisfied and firsts[rep] != dt:
            later_members_hit.add(first_is_rated[rep])
    # Later members fail in orbits of both kinds.
    assert later_members_hit == {True, False}
    for limit in (1, 5, _UNLIMITED):
        assert search(method, Axiom.NEU, replace(config, limit=limit)) == _stop_at(steps, limit), limit


# --- one evaluator per method ------------------------------------------------


def _judged_like_the_checker(method, axiom, evaluator):
    """Judge every candidate of the single-match round robins on three
    objects, four for IIM and IIR, with a judge on ``evaluator``, and
    require run_check's verdict on each. Returns how many candidates
    there were and how many were flagged."""
    judge = _JUDGES[axiom.kind](axiom, evaluator, 1)
    config = SearchConfig(object_counts=(4 if axiom.kind is AxiomKind.INDEPENDENCE else 3,), domain="roundrobin")
    # The grid settles nothing itself, so its blocks hold every pair.
    candidates = list(_walked(axiom, config, evaluator))
    rated = _RatedOnce(method)
    flagged = 0
    for candidate in candidates:
        try:
            report = run_check(axiom, rated, _witness(axiom, candidate))
        except (WitnessError, PreconditionUnmet):
            expected = None
        else:
            expected = [v.objects for v in report.violations]
        bad = judge(*candidate)
        assert bad == expected, (axiom, candidate)
        flagged += bool(bad)
    return len(candidates), flagged


@pytest.mark.parametrize("method", _SETTINGS, ids=_SETTING_IDS)
def test_one_evaluator_serves_the_judges_of_every_axiom(method, monkeypatch):
    # The evaluator depends on the method alone, so the judges of all nine
    # axioms read one table, each filling it for the next, and every
    # verdict is still the checker's. Verdicts come from the mask rules:
    # no failure core is called.
    search_module = importlib.import_module("pairrank.search")
    calls = []
    for core in ("invariance_failures", "additivity_failures", "independence_failures"):
        original = getattr(search_module, core)
        monkeypatch.setattr(search_module, core, lambda *args, original=original: calls.append(args) or original(*args))
    evaluator = _Evaluator(method)
    for axiom in Axiom:
        count, flagged = _judged_like_the_checker(method, axiom, evaluator)
        # 27 round robins: 5 relabellings each for NEU, 27 * 28 / 2 pairs.
        if axiom in (Axiom.NEU, Axiom.CS, Axiom.EP, Axiom.RCS):
            assert count == (135 if axiom is Axiom.NEU else 378), axiom
        # Fair bets has CS, EP and RCS violations on this grid.
        if method.key == "fb" and axiom in (Axiom.CS, Axiom.EP, Axiom.RCS):
            assert flagged, axiom
    assert calls == []


@pytest.mark.parametrize("axiom", [Axiom.CS, Axiom.EP, Axiom.RCS, Axiom.NEU])
def test_memoized_verdicts_agree_with_checker_on_a_full_grid(axiom, monkeypatch):
    # Every candidate of a small grid, judged on a fresh evaluator, so the
    # judge fills the rating table itself and reads its own entries back;
    # fair bets has CS, EP and RCS violations here. Verdicts come from the
    # mask rules, never a failure core.
    method = Method("fb")
    core = {Axiom.NEU: "invariance_failures"}.get(axiom, "additivity_failures")
    # The package re-exports ``search`` under the module's name.
    search_module = importlib.import_module("pairrank.search")
    calls = []
    original = getattr(search_module, core)
    monkeypatch.setattr(search_module, core, lambda *args: calls.append(args) or original(*args))
    count, flagged = _judged_like_the_checker(method, axiom, _Evaluator(method))
    assert count == (135 if axiom is Axiom.NEU else 378)
    assert calls == []
    assert bool(flagged) is (axiom is not Axiom.NEU)


def test_a_shared_evaluator_keeps_neutrality_under_test(monkeypatch):
    # Planted: score with ties broken by object index, which is not
    # neutral. The evaluator's table holds one rating per relabelling
    # orbit, which would hide exactly that, so the NEU judge must rate
    # directly even when the table is already full.
    monkeypatch.setitem(methods._PLAIN, "score", tie_broken_score)
    method = Method("score")
    evaluator = _Evaluator(method)
    for dt in _matrices(3, 1, "roundrobin"):
        evaluator[dt]
    assert _judged_like_the_checker(method, Axiom.NEU, evaluator)[1]

import importlib
import random
from fractions import Fraction
from itertools import islice, permutations
from math import comb

import pytest
from conftest import tie_broken_score

from pairrank import (
    Axiom,
    AxiomKind,
    Method,
    SearchConfig,
    SearchHit,
    is_connected,
    is_irreducible,
    is_round_robin,
    run_check,
    search,
)
from pairrank import methods
from pairrank.axioms import invariance_failures
from pairrank.errors import MethodPreconditionError, PreconditionUnmet, WitnessError
from pairrank.model import Permutation, add, relabel
from pairrank.search import (
    _JUDGES,
    _canonical,
    _draw_rng,
    _Evaluator,
    _grid,
    _pack,
    _problem,
    _random_candidate,
    _witness,
    enumerate_doubled,
)


def test_enumeration_order_for_two_objects():
    got = list(enumerate_doubled(2, 1, "all"))
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
        first = list(enumerate_doubled(3, 2, domain))
        second = list(enumerate_doubled(3, 2, domain))
        assert first == second
        assert len(first) == len(set(first))
        totals = [total(dt) for dt in first]
        assert totals == sorted(totals)
        assert all(a < b for a, b in zip(first, first[1:]) if total(a) == total(b)), domain


def test_domain_filters_agree_with_model_predicates():
    for domain, predicate in (
        ("connected", is_connected),
        ("irreducible", is_irreducible),
        ("roundrobin", is_round_robin),
    ):
        listed = set(enumerate_doubled(3, 1, domain))
        everything = set(enumerate_doubled(3, 1, "all"))
        assert listed <= everything
        for dt in everything:
            assert (dt in listed) == predicate(_problem(dt)), (domain, dt)


def test_round_robin_candidate_count():
    # One shared match count per round: (2m + 1)^3 results for n = 3.
    assert sum(1 for _ in enumerate_doubled(3, 2, "roundrobin")) == 27 + 125


@pytest.mark.parametrize("n, max_matches", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1)])
def test_enumeration_visits_the_closed_form_count(n, max_matches):
    # A pair playing m matches has 2m + 1 results: (M + 1)^2 states per
    # pair over m = 0..M, and one shared m per round robin.
    pairs = comb(n, 2)
    assert sum(1 for _ in enumerate_doubled(n, max_matches, "all")) == (max_matches + 1) ** (2 * pairs)
    assert sum(1 for _ in enumerate_doubled(n, max_matches, "roundrobin")) == sum(
        (2 * m + 1) ** pairs for m in range(1, max_matches + 1)
    )


def test_round_robin_closed_form_on_four_objects_with_two_matches():
    assert sum(1 for _ in enumerate_doubled(4, 2, "roundrobin")) == 3**6 + 5**6


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
    grid = list(enumerate_doubled(3, 2, "all")) + list(enumerate_doubled(4, 1, "all"))
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
        grid = list(islice(_grid(axiom, small, evaluator), 2000))
        if axiom is Axiom.FP:
            # The grid offers only inputs rated flat; the judge must refuse the rest.
            grid += _grid(Axiom.CS, small, evaluator)
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


def test_packed_codes_add_and_stay_apart():
    # Grid entries are at most 2 max_matches, so sums fit the radix
    # 4 max_matches + 1 and codes add digit by digit; only the leading
    # object count is counted twice.
    radix = 9
    rng = random.Random(5)
    grid = list(enumerate_doubled(3, 2, "all"))
    zeros = ((0,) * 3,) * 3
    for _ in range(300):
        a, b = rng.choice(grid), rng.choice(grid)
        assert _pack(a, radix) + _pack(b, radix) - _pack(zeros, radix) == _pack(add(a, b), radix)

    # Inputs and sums share one table, so no two different matrices of
    # any size may share a code.
    seen = {}
    for n in (2, 3, 4):
        inputs = list(enumerate_doubled(n, 2, "all" if n < 4 else "roundrobin"))
        pairs = [(rng.choice(inputs), rng.choice(inputs)) for _ in range(400)]
        for dt in inputs + [add(a, b) for a, b in pairs]:
            assert seen.setdefault(_pack(dt, radix), dt) == dt

    for bad in (((0, 9), (0, 0)), ((0, -1), (1, 0))):
        with pytest.raises(ValueError, match="radix"):
            _pack(bad, radix)
    # A judge refuses inputs whose sums could overflow its radix.
    judge = _JUDGES[AxiomKind.ADDITIVITY](Axiom.CS, _Evaluator(Method("score")), 1)
    with pytest.raises(ValueError, match="max_matches"):
        judge(((0, 3), (1, 0)), ((0, 1), (1, 0)))


@pytest.mark.parametrize("axiom", [Axiom.CS, Axiom.EP, Axiom.RCS, Axiom.NEU])
def test_memoized_verdicts_agree_with_checker_on_a_full_grid(axiom, monkeypatch):
    # Every candidate of a small grid, so that verdicts repeat and some
    # come from the memo; fair bets has CS, EP and RCS violations here.
    method = Method("fb")
    core = {Axiom.NEU: "invariance_failures"}.get(axiom, "additivity_failures")
    # The package re-exports ``search`` under the module's name.
    search_module = importlib.import_module("pairrank.search")
    calls = []
    original = getattr(search_module, core)
    monkeypatch.setattr(search_module, core, lambda *args: calls.append(args) or original(*args))
    config = SearchConfig(object_counts=(3,), domain="roundrobin")
    evaluator = _Evaluator(method, orbits=axiom is not Axiom.NEU)
    judge = _JUDGES[axiom.kind](axiom, evaluator, config.max_matches)
    candidates = list(_grid(axiom, config, evaluator))
    assert len(candidates) == (135 if axiom is Axiom.NEU else 378)
    admissible = flagged = 0
    for candidate in candidates:
        bad = judge(*candidate)
        try:
            report = run_check(axiom, method, _witness(axiom, candidate))
        except (WitnessError, PreconditionUnmet):
            assert bad is None, candidate
            continue
        assert bad == [v.objects for v in report.violations], candidate
        admissible += 1
        flagged += bool(bad)
    # Some verdicts came from the memo, not the core.
    assert len(calls) < admissible
    if axiom is not Axiom.NEU:
        assert flagged


def test_verdicts_are_kept_per_permutation_and_edited_pair():
    # Every method is neutral and no score search fails, so planted weak
    # orders show that a verdict is not reused for another relabelling
    # or another edited pair with the same orders.
    dt = ((0, 2, 2), (0, 0, 2), (0, 0, 0))
    evaluator = _Evaluator(Method("score"))
    kept, moved = Permutation((1, 0, 2)), Permutation((0, 2, 1))
    evaluator[dt] = (0, 1, 2)
    for sigma in (kept, moved):
        evaluator[relabel(dt, sigma)] = (1, 0, 2)
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
    grids = [list(enumerate_doubled(n, 1, "all")) for n in (2, 3, 4)]
    grids.append(list(enumerate_doubled(3, 2, "all")))
    rng = random.Random(23)
    fives = list(enumerate_doubled(5, 1, "roundrobin"))
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
    grid = [dt for n, cap in ((3, 1), (4, 1), (3, 2)) for dt in enumerate_doubled(n, cap, "all")]
    on, off = _Evaluator(method), _Evaluator(method, orbits=False)
    for dt in grid:
        assert on.rate(dt) == off.rate(dt), dt
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
    evaluator = _Evaluator(method)
    expected = []
    for dt, sigma in _grid(Axiom.NEU, config, evaluator):
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

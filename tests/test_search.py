import importlib
import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations_with_replacement, islice, permutations, product
from math import comb, prod

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
from pairrank.errors import MethodPreconditionError, PreconditionUnmet, WitnessError
from pairrank.model import Permutation, add, relabel, transpose
from pairrank.search import (
    DOMAINS,
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
        for dt in enumerate_doubled(n, max_matches, domain):
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
        # Without a judge, the grid takes no pair-orbit pass and yields
        # every additivity pair.
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
    # The judge takes input slots [dt, None] and fills each on first
    # reading with the code of dt and its digits without the count, so
    # one code plus the other's digits is the code of the sum.
    judge = _JUDGES[AxiomKind.ADDITIVITY](Axiom.CS, _Evaluator(Method("score")), 2)
    grid = list(enumerate_doubled(3, 2, "all"))
    for _ in range(100):
        first, second = [rng.choice(grid), None], [rng.choice(grid), None]
        judge(first, second)
        (code, _, _), (_, digits, _) = first[1], second[1]
        assert code == _pack(first[0], radix) and code + digits == _pack(add(first[0], second[0]), radix)
    # A judge refuses inputs whose sums could overflow its radix.
    judge = _JUDGES[AxiomKind.ADDITIVITY](Axiom.CS, _Evaluator(Method("score")), 1)
    with pytest.raises(ValueError, match="max_matches"):
        judge([((0, 3), (1, 0)), None], [((0, 1), (1, 0)), None])


@pytest.mark.parametrize("axiom", [Axiom.CS, Axiom.EP, Axiom.RCS, Axiom.NEU])
def test_memoized_verdicts_agree_with_checker_on_a_full_grid(axiom, monkeypatch):
    # Every candidate of a small grid, so that weak orders repeat; fair
    # bets has CS, EP and RCS violations here.
    method = Method("fb")
    # The package re-exports ``search`` under the module's name.
    search_module = importlib.import_module("pairrank.search")
    calls = []
    for core in ("invariance_failures", "additivity_failures", "independence_failures"):
        original = getattr(search_module, core)
        monkeypatch.setattr(search_module, core, lambda *args, original=original: calls.append(args) or original(*args))
    config = SearchConfig(object_counts=(3,), domain="roundrobin")
    evaluator = _Evaluator(method, orbits=axiom is not Axiom.NEU)
    judge = _JUDGES[axiom.kind](axiom, evaluator, config.max_matches)
    candidates = list(_grid(axiom, config, evaluator))  # no judge given: every pair, no pair-orbit pass
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
    # Verdicts come from the mask rules, never the cores.
    assert calls == []
    assert flagged or axiom is Axiom.NEU


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
        key = problem.scaled, problem.denominator
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
        inputs = list(enumerate_doubled(n, config.max_matches, config.domain))
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
                patch.setattr(search_module, "_settle", lambda judge, orbits: None)
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

    def spy(judge, orbits):
        settled.append(settle(lambda *pair: judged.append(pair) or judge(*pair), orbits))
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

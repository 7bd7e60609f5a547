import math
import operator
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from conftest import (
    flat_round_robin,
    problem_pool,
    random_problem,
    random_same_matches,
)

from pairrank import (
    METHOD_KEYS,
    REASONABLE,
    Method,
    copeland_fair_bets,
    derive,
    dual_fair_bets,
    fair_bets,
    generalized_row_sum,
    is_irreducible,
    least_squares,
    negate,
    permute,
    Permutation,
    RatingVector,
    ranking,
    reasonable_epsilon,
    score,
    sum_problems,
)
from pairrank.errors import (
    DisconnectedProblem,
    InvalidEpsilon,
    MethodPreconditionError,
    NoComparisons,
    ReducibleProblem,
    SingularMatrix,
    UndefinedForSmallN,
)
from pairrank import RankingProblem
from pairrank.linalg import nullspace_1d
from pairrank.fixtures import (
    EXAMPLE_1,
    EXAMPLE_2,
    EXAMPLE_2_LS,
    EXAMPLE_3,
    EXAMPLE_3_TABLE,
    EXAMPLE_4,
    EXAMPLE_4_ROW_SUM,
    EXAMPLE_4_SCORE,
    EXAMPLE_5,
    EXAMPLE_5_RECOMPUTED,
    EXAMPLE_5_TABLE,
    EXAMPLE_7,
    EXAMPLE_7_LS,
)

F = Fraction


def test_score_and_ranking_on_worked_example():
    s = score(EXAMPLE_4)
    assert s.values == EXAMPLE_4_SCORE
    order = ranking(s)
    assert order.tiers == ((1,), (0,), (2,))
    assert order.describe(EXAMPLE_4.labels) == "X2 > X1 > X3"


def test_ranking_groups_ties_by_index():
    s = score(EXAMPLE_1)
    # scores (1, 0, 0, 0, -1): one three-way tie in the middle
    assert ranking(s).tiers == ((0,), (1, 2, 3), (4,))


def test_reasonable_epsilon():
    assert reasonable_epsilon(EXAMPLE_4) == F(1, 3)
    assert reasonable_epsilon(EXAMPLE_1) == F(1, 3)
    with pytest.raises(UndefinedForSmallN):
        reasonable_epsilon(RankingProblem(("a", "b"), ((0, 1), (0, 0))))
    empty = RankingProblem(("a", "b", "c"), ((0, 0, 0), (0, 0, 0), (0, 0, 0)))
    with pytest.raises(NoComparisons):
        reasonable_epsilon(empty)


def test_row_sum_on_worked_example():
    x = generalized_row_sum(EXAMPLE_4, F(1, 3))
    assert x.values == EXAMPLE_4_ROW_SUM
    assert x.epsilon == F(1, 3)


def test_row_sum_takes_the_reasonable_bound():
    # The public function, the method and the bound passed by value agree.
    for p in problem_pool(71, 40):
        expected = generalized_row_sum(p, reasonable_epsilon(p))
        assert generalized_row_sum(p, REASONABLE) == expected == Method("grs", REASONABLE).rate(p)
    with pytest.raises(UndefinedForSmallN):
        generalized_row_sum(RankingProblem(("a", "b"), ((0, 1), (0, 0))), REASONABLE)
    with pytest.raises(NoComparisons):
        generalized_row_sum(RankingProblem(("a", "b", "c"), ((0, 0, 0),) * 3), REASONABLE)


def test_row_sum_rejects_bad_epsilon():
    for bad in (0, F(-1, 2), "not-a-number", 0.25):
        with pytest.raises(InvalidEpsilon):
            generalized_row_sum(EXAMPLE_4, bad)


@pytest.mark.parametrize("bad", ["Infinity", "-Infinity", "NaN"])
def test_non_finite_decimal_epsilon_is_invalid(bad):
    # Fraction raises OverflowError on an infinite Decimal and ValueError
    # on NaN; both are a bad epsilon, not a crash.
    with pytest.raises(InvalidEpsilon):
        Method("grs", Decimal(bad))
    with pytest.raises(InvalidEpsilon):
        generalized_row_sum(EXAMPLE_4, Decimal(bad))


def test_row_sum_defining_system_holds_exactly():
    rng = random.Random(23)
    for _ in range(30):
        p = random_problem(rng, rng.choice((3, 4, 5, 12)))
        d = derive(p)
        s = score(p)
        n = p.size
        for eps in (F(1, 7), F(1), F(8, 3)):
            x = generalized_row_sum(p, eps)
            mult = 1 + eps * d.max_matches * n
            for i in range(n):
                lhs = x.values[i] + eps * sum(
                    d.laplacian[i][j] * x.values[j] for j in range(n)
                )
                assert lhs == mult * s.values[i]
            assert sum(x.values) == 0


def test_least_squares_on_worked_examples():
    assert least_squares(EXAMPLE_2[0]).values == EXAMPLE_2_LS["first"]
    assert least_squares(EXAMPLE_2[1]).values == EXAMPLE_2_LS["second"]
    assert least_squares(EXAMPLE_7[0]).values == EXAMPLE_7_LS["first"]
    assert least_squares(EXAMPLE_7[1]).values == EXAMPLE_7_LS["second"]


def test_least_squares_residual_and_centering():
    rng = random.Random(31)
    from pairrank import is_connected

    for _ in range(25):
        p = random_problem(rng, rng.choice((3, 4, 5, 12)), require=is_connected)
        q = least_squares(p)
        d = derive(p)
        s = score(p)
        n = p.size
        for i in range(n):
            assert sum(d.laplacian[i][j] * q.values[j] for j in range(n)) == s.values[i]
        assert sum(q.values) == 0


def test_least_squares_needs_connectivity():
    disconnected = RankingProblem(
        ("a", "b", "c", "d"),
        ((0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, "1/2"), (0, 0, "1/2", 0)),
    )
    with pytest.raises(DisconnectedProblem):
        least_squares(disconnected)


def test_fair_bets_family_on_worked_examples():
    for pi, problem in enumerate(EXAMPLE_3):
        assert fair_bets(problem).values == EXAMPLE_3_TABLE["fb"][pi]
        assert dual_fair_bets(problem).values == EXAMPLE_3_TABLE["dfb"][pi]
        assert copeland_fair_bets(problem).values == EXAMPLE_3_TABLE["cfb"][pi]
    first = EXAMPLE_5[0]
    assert fair_bets(first).values == EXAMPLE_5_TABLE["fb"][0]
    assert dual_fair_bets(first).values == EXAMPLE_5_RECOMPUTED[("dfb", 0)]
    assert copeland_fair_bets(first).values == EXAMPLE_5_RECOMPUTED[("cfb", 0)]


def test_fair_bets_fixed_point_and_normalization():
    rng = random.Random(47)
    for _ in range(20):
        p = random_problem(rng, rng.choice((3, 4, 5, 12)), require=is_irreducible)
        fb = fair_bets(p).values
        t = p.tournament
        n = p.size
        losses = [sum(t[j][i] for j in range(n)) for i in range(n)]
        for i in range(n):
            assert sum(t[i][j] * fb[j] for j in range(n)) == losses[i] * fb[i]
        assert sum(fb) == 1
        assert all(v > 0 for v in fb)
        dfb = dual_fair_bets(p).values
        assert sum(dfb) == -1
        assert all(v < 0 for v in dfb)
        assert dfb == tuple(-v for v in fair_bets(negate(p)).values)
        cfb = copeland_fair_bets(p).values
        assert cfb == tuple(w + l for w, l in zip(fb, dfb))
        assert sum(cfb) == 0


def test_fair_bets_rejects_reducible():
    for fn in (fair_bets, dual_fair_bets, copeland_fair_bets):
        with pytest.raises(ReducibleProblem):
            fn(EXAMPLE_1)


def test_least_squares_refuses_a_wrong_solve(monkeypatch):
    from pairrank import linalg

    solve = linalg.solve
    problem = EXAMPLE_7[0]
    assert least_squares(problem).values == EXAMPLE_7_LS["first"]
    # Off the defining system, once with the centring broken and once
    # with it kept.
    for shift in ((1, 0), (1, -1)):
        def perturbed(a, b, shift=shift):
            x, d = solve(a, b)
            return [x[0] + shift[0], x[1] + shift[1], *x[2:]], d

        monkeypatch.setattr(linalg, "solve", perturbed)
        with pytest.raises(RuntimeError, match="residual"):
            least_squares(problem)


def test_row_sum_refuses_a_wrong_solve(monkeypatch):
    from pairrank import linalg

    solve = linalg.solve
    assert generalized_row_sum(EXAMPLE_4, F(1, 3)).values == EXAMPLE_4_ROW_SUM
    # A wrong numerator, and a wrong common denominator.
    for wrong in (
        lambda x, d: ([x[0] + 1, *x[1:]], d),
        lambda x, d: (x, 2 * d),
    ):
        monkeypatch.setattr(linalg, "solve", lambda a, b, wrong=wrong: wrong(*solve(a, b)))
        for method in (Method("grs", F(1, 3)), Method("grs", REASONABLE)):
            with pytest.raises(RuntimeError, match="residual"):
                method.rate(EXAMPLE_4)


def test_fair_bets_refuses_a_vector_outside_the_nullspace(monkeypatch):
    from pairrank import linalg

    problem = EXAMPLE_3[0]
    assert fair_bets(problem).values == EXAMPLE_3_TABLE["fb"][0]
    # Positive and unit-sum after normalization, so only the nullspace
    # check can refuse it.
    monkeypatch.setattr(linalg, "solve", lambda a, b: ([1] * len(a), 1))
    for fn in (fair_bets, dual_fair_bets, copeland_fair_bets):
        with pytest.raises(RuntimeError, match="nullspace"):
            fn(problem)


def test_flat_problem_rates_flat_everywhere():
    p = flat_round_robin(4, 2)
    assert score(p).values == (0, 0, 0, 0)
    assert generalized_row_sum(p, F(2, 5)).values == (0, 0, 0, 0)
    assert least_squares(p).values == (0, 0, 0, 0)
    assert fair_bets(p).values == (F(1, 4),) * 4
    assert dual_fair_bets(p).values == (F(-1, 4),) * 4
    assert copeland_fair_bets(p).values == (0, 0, 0, 0)


def test_score_is_additive():
    for seed in range(10):
        rng = random.Random(100 + seed)
        n = rng.choice((3, 4, 5))
        p = random_problem(rng, n)
        q = random_problem(rng, n)
        total = sum_problems(p, q)
        assert score(total).values == tuple(
            a + b for a, b in zip(score(p).values, score(q).values)
        )


def test_halving_identities_on_shared_schedules():
    rng = random.Random(53)
    from pairrank import is_connected

    done = 0
    while done < 15:
        p = random_problem(rng, rng.choice((3, 4, 5)), require=is_connected)
        q = random_same_matches(rng, p)
        total = sum_problems(p, q)
        qp, qq, qt = (least_squares(x).values for x in (p, q, total))
        assert qt == tuple((a + b) / 2 for a, b in zip(qp, qq))
        eps = F(rng.randint(1, 5), rng.randint(1, 5))
        xp = generalized_row_sum(p, eps).values
        xq = generalized_row_sum(q, eps).values
        xt = generalized_row_sum(total, eps / 2).values
        assert xt == tuple(a + b for a, b in zip(xp, xq))
        done += 1


def test_value_level_inversion():
    rng = random.Random(61)
    from pairrank import is_connected

    for _ in range(15):
        p = random_problem(
            rng, rng.choice((3, 4, 5)), require=lambda x: is_connected(x)
        )
        r = negate(p)
        assert score(r).values == tuple(-v for v in score(p).values)
        eps = F(3, 7)
        assert generalized_row_sum(r, eps).values == tuple(
            -v for v in generalized_row_sum(p, eps).values
        )
        assert least_squares(r).values == tuple(-v for v in least_squares(p).values)
        if is_irreducible(p):
            assert copeland_fair_bets(r).values == tuple(
                -v for v in copeland_fair_bets(p).values
            )


def test_permutation_equivariance_for_all_methods():
    rng = random.Random(71)
    methods = [
        Method("score"),
        Method("grs", F(1, 4)),
        Method("grs", REASONABLE),
        Method("ls"),
        Method("fb"),
        Method("dfb"),
        Method("cfb"),
    ]
    from pairrank import is_connected

    for _ in range(8):
        n = rng.choice((3, 4))
        p = random_problem(
            rng, n, require=lambda x: is_connected(x) and is_irreducible(x)
        )
        images = list(range(n))
        rng.shuffle(images)
        sigma = Permutation(tuple(images))
        moved = permute(p, sigma)
        for method in methods:
            base = method.rate(p).values
            after = method.rate(moved).values
            for i in range(n):
                assert after[sigma(i)] == base[i]


def test_method_handle_validation_and_labels():
    with pytest.raises(ValueError):
        Method("grs")
    with pytest.raises(ValueError):
        Method("score", F(1, 4))
    with pytest.raises(ValueError):
        Method("nope")
    with pytest.raises(InvalidEpsilon):
        Method("grs", F(-1, 4))
    assert Method("grs", F(1, 3)).label == "grs[eps=1/3]"
    assert Method("grs", REASONABLE).label == "grs[eps=reasonable]"
    assert Method("cfb").label == "cfb"
    assert Method("grs", REASONABLE).rate(EXAMPLE_4).values == EXAMPLE_4_ROW_SUM
    assert Method("score").rate(EXAMPLE_4).values == EXAMPLE_4_SCORE


def test_method_rate_matches_direct_calls():
    table = {
        "score": score,
        "ls": least_squares,
        "fb": fair_bets,
        "dfb": dual_fair_bets,
        "cfb": copeland_fair_bets,
    }
    for key, fn in table.items():
        assert Method(key).rate(EXAMPLE_4).values == fn(EXAMPLE_4).values
    assert (
        Method("grs", F(2, 3)).rate(EXAMPLE_4).values
        == generalized_row_sum(EXAMPLE_4, F(2, 3)).values
    )
    assert set(METHOD_KEYS) == set(table) | {"grs"}


SETTINGS = (
    Method("score"),
    Method("grs", REASONABLE),
    Method("grs", F(2, 3)),
    Method("ls"),
    Method("fb"),
    Method("dfb"),
    Method("cfb"),
)


def test_ratings_are_integers_over_one_reduced_positive_denominator():
    rng = random.Random(61)
    pool = problem_pool(61, 30) + problem_pool(62, 30, require=is_irreducible)
    rated = {method.label: 0 for method in SETTINGS}
    for problem in pool:
        for method in SETTINGS:
            try:
                rating = method.rate(problem)
            except MethodPreconditionError:
                continue
            rated[method.label] += 1
            scaled, d = rating.scaled, rating.denominator
            assert all(type(v) is int for v in (*scaled, d))
            assert d > 0 and math.gcd(d, *scaled) == 1
            assert rating.values == tuple(F(v, d) for v in scaled)
            # The weak order from the Fractions themselves.
            values = rating.values
            reference = tuple(
                tuple(i for i, v in enumerate(values) if v == level)
                for level in sorted(set(values), reverse=True)
            )
            assert ranking(rating).tiers == reference
            # Unreduced, with a negative denominator or a positive one.
            k = rng.randint(2, 9)
            fields = (rating.method, rating.labels)
            down = RatingVector(*fields, [-k * v for v in scaled], -k * d, rating.epsilon)
            up = RatingVector(*fields, [k * v for v in scaled], k * d, rating.epsilon)
            assert down == up == rating
            assert hash(down) == hash(up) == hash(rating)
    assert min(rated.values()) >= 20
    with pytest.raises(ValueError):
        RatingVector("score", ("a", "b"), (1, -1), 0)


def test_dual_fair_bets_build_no_second_problem(monkeypatch):
    # dfb and cfb rate the reversed problem as the transposed integer
    # matrix, so rating a problem constructs no other problem. Checked or
    # not, every construction ends in the one gcd reduction step.
    problem = EXAMPLE_3[0]
    built = []
    original = RankingProblem._reduce
    monkeypatch.setattr(RankingProblem, "_reduce", lambda self, *args: built.append(args) or original(self, *args))
    for key in ("dfb", "cfb"):
        Method(key).rate(problem)
    assert built == []


def test_each_rating_derives_and_checks_irreducibility_once(monkeypatch):
    from pairrank import methods

    calls = {"derive": 0, "is_irreducible": 0}
    for name in calls:
        def counted(*args, name=name, original=getattr(methods, name)):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(methods, name, counted)
    problem = EXAMPLE_3[0]
    expected = {
        "score": (0, 0),
        "grs[eps=reasonable]": (1, 0),
        "grs[eps=2/3]": (1, 0),
        "ls": (1, 0),
        "fb": (0, 1),
        "dfb": (0, 1),
        # Fair bets of the problem and of its reversal: reversing every arc
        # keeps a digraph strongly connected, so one check covers both.
        "cfb": (0, 1),
    }
    for method in SETTINGS:
        calls.update(derive=0, is_irreducible=0)
        method.rate(problem)
        assert (calls["derive"], calls["is_irreducible"]) == expected[method.label], method.label
    for epsilon in (REASONABLE, F(2, 3)):
        calls.update(derive=0, is_irreducible=0)
        generalized_row_sum(problem, epsilon)
        assert (calls["derive"], calls["is_irreducible"]) == (1, 0), epsilon


def test_fair_bets_refuse_a_fixed_point_that_changes_sign(monkeypatch):
    cycle = RankingProblem(("a", "b", "c"), [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    monkeypatch.setattr("pairrank.linalg.solve", lambda a, b: ([0] * len(a), 0))
    for method in (fair_bets, dual_fair_bets, copeland_fair_bets):
        with pytest.raises(RuntimeError, match="changes sign"):
            method(cycle)


def _nullspace_fair_bets(problem):
    """Reference: fb, dfb and cfb from the nullspace of the whole matrix
    T - diag(losses), with no object grounded."""

    def vector(t):
        losses = [sum(column) for column in zip(*t)]
        v = nullspace_1d([[x - losses[i] * (i == j) for j, x in enumerate(row)] for i, row in enumerate(t)])
        return v, sum(v)

    (w, w_total), (l, l_total) = vector(problem.scaled), vector([list(c) for c in zip(*problem.scaled)])
    return (
        RatingVector("fb", problem.labels, w, w_total),
        RatingVector("dfb", problem.labels, l, -l_total),
        RatingVector("cfb", problem.labels, [a * l_total - b * w_total for a, b in zip(w, l)], w_total * l_total),
    )


def test_grounded_fair_bets_match_the_nullspace_of_the_whole_matrix():
    rng = random.Random(2609)
    sizes = [*(rng.randint(2, 6) for _ in range(150)), *range(7, 41)]
    for n in sizes:
        problem = random_problem(rng, n, require=is_irreducible)
        rated = (fair_bets(problem), dual_fair_bets(problem), copeland_fair_bets(problem))
        assert rated == _nullspace_fair_bets(problem), n


def test_the_methods_systems_need_no_row_swap(monkeypatch):
    # The row-sum and grounded least-squares matrices are positive
    # definite, and the grounded fair-bets block is minus a nonsingular
    # M-matrix: no leading principal minor is zero, so elimination takes
    # every pivot on the diagonal of the rows as given.
    from pairrank import linalg

    eliminate = linalg._eliminate
    systems = []

    def spy(rows, columns):
        given = rows[:]
        pivots, d = eliminate(rows, columns)
        systems.append((len(given), columns, all(map(operator.is_, rows, given)), pivots))
        return pivots, d

    monkeypatch.setattr(linalg, "_eliminate", spy)
    rng = random.Random(2727)
    for n in [*(rng.randint(2, 6) for _ in range(60)), *range(7, 41)]:
        problem = random_problem(rng, n, require=is_irreducible)
        # The reasonable epsilon needs three objects; any positive one
        # gives a positive definite row-sum matrix.
        grs = lambda problem: generalized_row_sum(problem, REASONABLE if n > 2 else F(1, 3))
        # Each method's systems: their count, and their order n, or n - 1 when grounded.
        for method, calls, size in (
            (grs, 1, n),
            (least_squares, 1, n - 1),
            (fair_bets, 1, n - 1),
            (dual_fair_bets, 1, n - 1),
            (copeland_fair_bets, 2, n - 1),
        ):
            systems.clear()
            method(problem)
            assert len(systems) == calls, (n, method)
            for rows, columns, in_place, pivots in systems:
                assert rows == columns == size and in_place and pivots == list(range(size)), (n, method)


def test_fair_bets_refuse_every_reducible_problem_of_the_small_grid(monkeypatch):
    # Without the irreducibility test, the grounded system is singular or
    # its solution has a zero or a sign change: no rating comes back.
    from pairrank import methods
    from pairrank.search import _buckets, _problem

    monkeypatch.setattr(methods, "_require_irreducible", lambda problem: None)
    grid = (_problem(dt) for n in (2, 3, 4) for bucket in _buckets(n, 1, "all") for dt in bucket)
    reducible = [problem for problem in grid if not is_irreducible(problem)]
    assert len(reducible) == 2539
    raised = {SingularMatrix: 0, RuntimeError: 0}
    for problem in reducible:
        for method in (fair_bets, dual_fair_bets, copeland_fair_bets):
            with pytest.raises((SingularMatrix, RuntimeError)) as info:
                method(problem)
            assert info.type is SingularMatrix or str(info.value) == "internal: fixed-point vector changes sign"
            raised[info.type] += 1
    assert all(raised.values())

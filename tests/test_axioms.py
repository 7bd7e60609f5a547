import random
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from conftest import (
    flat_round_robin,
    random_problem,
    random_same_matches,
    tie_broken_score,
)

from pairrank import (
    Axiom,
    ChangedPairWitness,
    Method,
    PairWitness,
    Permutation,
    RankingProblem,
    SingleWitness,
    check_additivity,
    check_independence,
    check_invariance,
    derive,
    is_connected,
    is_irreducible,
    methods,
    run_check,
    score,
)
from pairrank.errors import (
    LabelMismatch,
    MatchesChanged,
    MatchesMismatch,
    MissingPermutation,
    NotFlat,
    NotSingleDifference,
    PreconditionUnmet,
    TooFewObjects,
)
from pairrank.axioms import (
    additivity_failures,
    additivity_rule,
    independence_failures,
    invariance_failures,
    invariance_rule,
    mask_pairs,
    pair_masks,
)
from pairrank.fixtures import (
    EXAMPLE_2,
    EXAMPLE_3,
    EXAMPLE_4,
    EXAMPLE_5,
    EXAMPLE_6,
    EXAMPLE_7,
    EXAMPLE_7_CHANGED_PAIR,
    EXAMPLE_8,
    EXAMPLE_8_CHANGED_PAIR,
)

F = Fraction

ALL_METHODS = [
    Method("score"),
    Method("grs", F(1, 4)),
    Method("ls"),
    Method("fb"),
    Method("dfb"),
    Method("cfb"),
]

# A single-match round robin on four objects whose reversal does not
# reverse the fair-bets order (found by the exhaustive search).
INV_FB_WITNESS = RankingProblem(
    ("X1", "X2", "X3", "X4"),
    (
        (0, 0, 0, "1/2"),
        (1, 0, 0, 0),
        (1, 1, 0, 0),
        ("1/2", 1, 1, 0),
    ),
)


def test_axiom_lookup():
    assert Axiom.from_id("rcs") is Axiom.RCS
    assert Axiom.from_id("IIM") is Axiom.IIM
    with pytest.raises(ValueError):
        Axiom.from_id("XYZ")


def test_neu_satisfied_by_every_method():
    rng = random.Random(9)
    for _ in range(6):
        n = rng.choice((3, 4))
        p = random_problem(
            rng, n, require=lambda x: is_connected(x) and is_irreducible(x)
        )
        images = list(range(n))
        rng.shuffle(images)
        witness = SingleWitness(p, Permutation(tuple(images)))
        for method in ALL_METHODS:
            report = run_check(Axiom.NEU, method, witness)
            assert report.satisfied, (method.label, report.violations)


def test_neu_needs_permutation():
    with pytest.raises(MissingPermutation):
        check_invariance(Axiom.NEU, Method("score"), SingleWitness(EXAMPLE_4))


def test_sym_on_flat_problems():
    witness = SingleWitness(flat_round_robin(4, 2))
    for method in ALL_METHODS:
        assert run_check(Axiom.SYM, method, witness).satisfied
    with pytest.raises(NotFlat):
        check_invariance(Axiom.SYM, Method("score"), SingleWitness(EXAMPLE_4))


def test_inv_satisfied_by_linear_methods():
    rng = random.Random(13)
    for _ in range(6):
        p = random_problem(rng, rng.choice((3, 4, 5)), require=is_connected)
        witness = SingleWitness(p)
        for method in (Method("score"), Method("grs", F(1, 3)), Method("ls")):
            assert run_check(Axiom.INV, method, witness).satisfied


def test_inv_violated_by_fair_bets_on_found_witness():
    report = run_check(Axiom.INV, Method("fb"), SingleWitness(INV_FB_WITNESS))
    assert not report.satisfied
    # Copeland fair bets is antisymmetric under reversal, so it passes here.
    assert run_check(Axiom.INV, Method("cfb"), SingleWitness(INV_FB_WITNESS)).satisfied


def test_cs_violated_by_ls_and_grs_on_example_2():
    witness = PairWitness(*EXAMPLE_2)
    for method in (Method("ls"), Method("grs", F(1, 4)), Method("grs", F(2))):
        report = run_check(Axiom.CS, method, witness)
        assert not report.satisfied
        assert (0, 1) in [v.objects for v in report.violations]
    assert run_check(Axiom.CS, Method("score"), witness).satisfied


def test_ep_violated_by_fair_bets_family_on_example_3():
    witness = PairWitness(*EXAMPLE_3)
    for key in ("fb", "dfb", "cfb"):
        report = run_check(Axiom.EP, Method(key), witness)
        assert not report.satisfied
        assert (0, 3) in [v.objects for v in report.violations]
    assert run_check(Axiom.EP, Method("score"), witness).satisfied


def test_ep_and_cs_describe_violations():
    report = run_check(Axiom.EP, Method("fb"), PairWitness(*EXAMPLE_3))
    text = report.violations[0].describe()
    assert "X1" in text and "X4" in text and "sum" in text


def test_audit_wording_is_pinned(monkeypatch):
    # One violating witness per wording template: the report's context,
    # then describe() of each violation. NEU and SYM need a method that
    # breaks them, so score is planted with ties broken by object index.
    monkeypatch.setitem(methods._PLAIN, "score", tie_broken_score)
    cases = [
        (
            Axiom.NEU, Method("score"), SingleWitness(flat_round_robin(3), Permutation((1, 2, 0))),
            "relabelling (2, 3, 1)",
            [
                "X1 vs X3: X1 < X3 originally, but X1 > X3 after relabelling",
                "X2 vs X3: X2 < X3 originally, but X2 > X3 after relabelling",
            ],
        ),
        (
            Axiom.SYM, Method("score"), SingleWitness(flat_round_robin(3)),
            "flat problem",
            [
                "X1 vs X2: all results are flat, but X1 < X2",
                "X1 vs X3: all results are flat, but X1 < X3",
                "X2 vs X3: all results are flat, but X2 < X3",
            ],
        ),
        (
            Axiom.INV, Method("fb"), SingleWitness(INV_FB_WITNESS),
            "reversed results",
            [
                "X1 vs X2: X1 > X2 originally, but X1 > X2 after reversing every result",
                "X3 vs X4: X3 < X4 originally, but X3 < X4 after reversing every result",
            ],
        ),
        (
            Axiom.CS, Method("ls"), PairWitness(*EXAMPLE_2),
            "pair of problems and their sum",
            ["X1 vs X2: X1 = X2 and X1 = X2 in the inputs, but X1 < X2 in the sum"],
        ),
        (
            Axiom.IIR, Method("ls"), ChangedPairWitness(*EXAMPLE_7, EXAMPLE_7_CHANGED_PAIR),
            "edited pair X3 vs X4",
            ["X1 vs X2: X1 > X2 before editing X3 vs X4, but X1 < X2 after"],
        ),
    ]
    for axiom, method, witness, context, lines in cases:
        report = run_check(axiom, method, witness)
        assert report.context == context, axiom
        assert [v.describe() for v in report.violations] == lines, axiom


def test_fp_needs_flat_rated_inputs():
    with pytest.raises(NotFlat):
        check_additivity(Axiom.FP, Method("score"), PairWitness(*EXAMPLE_2))
    flat_pair = PairWitness(flat_round_robin(3, 1), flat_round_robin(3, 2))
    for method in ALL_METHODS:
        assert run_check(Axiom.FP, method, flat_pair).satisfied


def test_fp_admits_flat_ratings_of_nonflat_problems():
    # Results are not flat, but the score rating is: every win cancels.
    cycle = RankingProblem(
        ("a", "b", "c"), ((0, 1, 0), (0, 0, 1), (1, 0, 0))
    )
    assert score(cycle).values == (0, 0, 0)
    witness = PairWitness(cycle, cycle)
    assert run_check(Axiom.FP, Method("score"), witness).satisfied


def test_rcs_needs_matching_schedules():
    with pytest.raises(MatchesMismatch):
        check_additivity(Axiom.RCS, Method("score"), PairWitness(*EXAMPLE_2))


def test_rcs_on_example_5_after_recomputation():
    witness = PairWitness(*EXAMPLE_5)
    fb = run_check(Axiom.RCS, Method("fb"), witness)
    assert not fb.satisfied
    assert (0, 1) in [v.objects for v in fb.violations]
    # With the dual side computed from its definition, the premise fails
    # at (X1, X2), so Copeland fair bets survives this witness.
    assert run_check(Axiom.RCS, Method("cfb"), witness).satisfied


def test_rcs_violated_by_cfb_on_example_6():
    report = run_check(Axiom.RCS, Method("cfb"), PairWitness(*EXAMPLE_6))
    assert not report.satisfied
    assert (0, 2) in [v.objects for v in report.violations]


def test_rcs_satisfied_by_reasonable_row_sum_on_shared_schedules():
    rng = random.Random(17)
    method = Method("grs", "reasonable")
    done = 0
    while done < 10:
        p = random_problem(rng, rng.choice((3, 4)), require=is_connected)
        q = random_same_matches(rng, p)
        assert run_check(Axiom.RCS, method, PairWitness(p, q)).satisfied
        done += 1


def test_iir_violations_on_example_7():
    witness = ChangedPairWitness(*EXAMPLE_7, EXAMPLE_7_CHANGED_PAIR)
    for method in (
        Method("grs", F(1, 4)),
        Method("ls"),
        Method("fb"),
        Method("dfb"),
        Method("cfb"),
    ):
        report = run_check(Axiom.IIR, method, witness)
        assert not report.satisfied, method.label
        assert (0, 1) in [v.objects for v in report.violations]
    assert run_check(Axiom.IIR, Method("score"), witness).satisfied
    assert run_check(Axiom.IIM, Method("score"), witness).satisfied


def test_iir_violations_on_example_8():
    witness = ChangedPairWitness(*EXAMPLE_8, EXAMPLE_8_CHANGED_PAIR)
    for key in ("fb", "dfb", "cfb"):
        report = run_check(Axiom.IIR, Method(key), witness)
        assert not report.satisfied
        assert (0, 1) in [v.objects for v in report.violations]


def test_independence_witness_shape_errors():
    first, second = EXAMPLE_7
    with pytest.raises(NotSingleDifference):
        check_independence(
            Axiom.IIR, Method("score"), ChangedPairWitness(first, first, (2, 3))
        )
    with pytest.raises(NotSingleDifference):
        # claiming the wrong pair: the real difference is at (2, 3)
        check_independence(
            Axiom.IIR, Method("score"), ChangedPairWitness(first, second, (0, 1))
        )
    bumped = RankingProblem(
        first.labels,
        tuple(
            tuple(v + 1 if (i, j) == (2, 3) else v for j, v in enumerate(row))
            for i, row in enumerate(first.tournament)
        ),
    )
    with pytest.raises(MatchesChanged):
        check_independence(
            Axiom.IIR, Method("score"), ChangedPairWitness(first, bumped, (2, 3))
        )
    # the same edit is a legitimate IIM witness
    assert run_check(Axiom.IIM, Method("score"), ChangedPairWitness(first, bumped, (2, 3))).satisfied
    small = RankingProblem(("a", "b", "c"), ((0, 1, 0), (0, 0, 1), (1, 0, 0)))
    with pytest.raises(TooFewObjects):
        check_independence(
            Axiom.IIM, Method("score"), ChangedPairWitness(small, small, (0, 1))
        )
    with pytest.raises(ValueError):
        check_independence(
            Axiom.IIM, Method("score"), ChangedPairWitness(first, second, (3, 3))
        )


def test_edited_pair_must_be_integers_before_any_rating(monkeypatch):
    rated = []
    monkeypatch.setattr(Method, "rate", lambda self, problem: rated.append(problem))
    with pytest.raises(TypeError):
        check_independence(Axiom.IIR, Method("score"), ChangedPairWitness(*EXAMPLE_7, (2.0, 3)))
    assert rated == []


def test_label_mismatch_is_rejected():
    relabelled = RankingProblem(("Y1", "Y2", "Y3", "Y4"), EXAMPLE_7[1].tournament)
    with pytest.raises(LabelMismatch):
        check_additivity(Axiom.CS, Method("score"), PairWitness(EXAMPLE_7[0], relabelled))
    with pytest.raises(LabelMismatch):
        check_independence(
            Axiom.IIR, Method("score"), ChangedPairWitness(EXAMPLE_7[0], relabelled, (2, 3))
        )


def test_precondition_failures_surface_as_audit_errors():
    reducible = RankingProblem(("a", "b", "c"), ((0, 1, 1), (0, 0, 1), (0, 0, 0)))
    with pytest.raises(PreconditionUnmet):
        check_invariance(Axiom.INV, Method("fb"), SingleWitness(reducible))
    disconnected = RankingProblem(
        ("a", "b", "c", "d"),
        ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)),
    )
    with pytest.raises(PreconditionUnmet):
        check_invariance(Axiom.INV, Method("ls"), SingleWitness(disconnected))


def test_run_check_rejects_wrong_witness_shape():
    with pytest.raises(TypeError):
        run_check(Axiom.CS, Method("score"), SingleWitness(EXAMPLE_4))
    with pytest.raises(TypeError):
        run_check(Axiom.NEU, Method("score"), PairWitness(*EXAMPLE_2))
    with pytest.raises(TypeError):
        run_check(Axiom.IIR, Method("score"), PairWitness(*EXAMPLE_2))
    with pytest.raises(ValueError):
        check_invariance(Axiom.CS, Method("score"), SingleWitness(EXAMPLE_4))
    with pytest.raises(ValueError):
        check_additivity(Axiom.NEU, Method("score"), PairWitness(*EXAMPLE_2))
    with pytest.raises(ValueError):
        check_independence(
            Axiom.CS, Method("score"), ChangedPairWitness(*EXAMPLE_7, (2, 3))
        )


def test_implication_cross_checks_on_random_pairs():
    """CS implies EP; EP implies FP on flat-rated inputs; CS implies RCS
    on shared schedules. Checked witness by witness."""
    rng = random.Random(19)
    methods = [Method("score"), Method("grs", F(1, 2)), Method("ls")]
    done = 0
    while done < 12:
        n = rng.choice((3, 4))
        p = random_problem(rng, n, require=is_connected)
        same_schedule = rng.random() < 0.5
        q = (
            random_same_matches(rng, p)
            if same_schedule
            else random_problem(rng, n, require=is_connected)
        )
        witness = PairWitness(p, q)
        for method in methods:
            cs = run_check(Axiom.CS, method, witness)
            ep = run_check(Axiom.EP, method, witness)
            if cs.satisfied:
                assert ep.satisfied
            if derive(p).matches == derive(q).matches:
                rcs = run_check(Axiom.RCS, method, witness)
                if cs.satisfied:
                    assert rcs.satisfied
            ratings = [method.rate(x).values for x in (p, q)]
            if all(len(set(vals)) == 1 for vals in ratings):
                fp = run_check(Axiom.FP, method, witness)
                if ep.satisfied:
                    assert fp.satisfied
        done += 1


# --- the additivity rule on pair bit masks ---------------------------------

ADDITIVITY = [Axiom.CS, Axiom.RCS, Axiom.EP, Axiom.FP]


def _pairwise_holds(axiom, c1, c2, ct):
    # The definition, one pair at a time: c1, c2 and ct compare the
    # pair in the two inputs and in their sum.
    def direction(c1, c2, ct):
        if c1 < 0 or c2 < 0:
            return True
        if c1 > 0 or c2 > 0:
            return ct > 0
        return ct >= 0

    if axiom in (Axiom.CS, Axiom.RCS):
        return direction(c1, c2, ct) and direction(-c1, -c2, -ct)
    return ct == 0 if (c1 == 0 and c2 == 0) else True


def _loop_failures(axiom, first, second, total):
    # The pair loop additivity_failures ran before the mask rule.
    def compare(values, i, j):
        return (values[i] > values[j]) - (values[i] < values[j])

    n = len(total)
    return [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if not _pairwise_holds(axiom, compare(first, i, j), compare(second, i, j), compare(total, i, j))
    ]


@pytest.mark.parametrize("axiom", ADDITIVITY, ids=lambda a: a.ident)
def test_additivity_rule_matches_the_pairwise_definition(axiom):
    # All 27 sign triples, one pair each, and then all of them at once
    # as 27 bits of one mask, so that no bit leaks into another. The
    # rule is symmetric in the two inputs, which the search's pair-orbit
    # pass relies on to judge each unordered pair one way round.
    triples = list(product((-1, 0, 1), repeat=3))
    rule = additivity_rule(axiom)
    masks = [[0, 0, 0] for _ in range(3)]  # (above, below, ties) per problem
    expected = 0
    for bit, signs in enumerate(triples):
        single = [tuple(int(c == s) for s in (1, -1, 0)) for c in signs]
        holds = _pairwise_holds(axiom, *signs)
        assert rule(*single) == (0 if holds else 1), signs
        f, g, total = single
        assert rule(f, g, total) == rule(g, f, total), signs
        for m, c in zip(masks, signs):
            m[(1, -1, 0).index(c)] |= 1 << bit
        expected |= (not holds) << bit
    assert rule(*map(tuple, masks)) == expected


def test_additivity_failures_match_the_pair_loop():
    # Every weak order on three objects, as dense ranks, in every triple.
    orders = sorted({tuple(sorted(set(v)).index(x) for x in v) for v in product(range(3), repeat=3)})
    assert len(orders) == 13
    for axiom in ADDITIVITY:
        for first, second, total in product(orders, repeat=3):
            assert additivity_failures(axiom, first, second, total) == _loop_failures(axiom, first, second, total)
    with pytest.raises(ValueError, match="not an additivity axiom"):
        additivity_rule(Axiom.NEU)


def test_pair_masks_partition_the_pairs():
    values = (3, 1, 3, 0)
    above, below, ties = pair_masks(values)
    # Pairs in order: (0,1) (0,2) (0,3) (1,2) (1,3) (2,3).
    assert mask_pairs(above, 4) == [(0, 1), (0, 3), (1, 3), (2, 3)]
    assert mask_pairs(below, 4) == [(1, 2)]
    assert mask_pairs(ties, 4) == [(0, 2)]


# --- the invariance and independence rules on pair bit masks ---------------

def _compare(values, i, j):
    return (values[i] > values[j]) - (values[i] < values[j])


def _loop_invariance(axiom, before, after, sigma):
    # The pair loop invariance_failures ran before the mask rules.
    bad = []
    for i, j in combinations(range(len(before)), 2):
        c = _compare(before, i, j)
        if axiom is Axiom.NEU:
            ok = c == _compare(after, sigma(i), sigma(j))
        elif axiom is Axiom.SYM:
            ok = c == 0
        else:
            ok = c == -_compare(after, i, j)
        if not ok:
            bad.append((i, j))
    return bad


def _loop_independence(first, second, pair):
    # The pair loop independence_failures ran before the mask rule.
    return [
        (i, j)
        for i, j in combinations(range(len(first)), 2)
        if not {i, j} & set(pair) and _compare(first, i, j) != _compare(second, i, j)
    ]


def test_invariance_and_independence_rules_match_the_pair_loops():
    # Every pair of weak orders on 3 and 4 objects, as dense ranks, with
    # every relabelling for NEU and every edited pair for IIM and IIR.
    for n, count in ((3, 13), (4, 75)):
        orders = sorted({tuple(sorted(set(v)).index(x) for x in v) for v in product(range(n), repeat=n)})
        assert len(orders) == count
        sigmas = [Permutation(p) for p in permutations(range(n))]
        pairs = list(combinations(range(n), 2))
        for before, after in product(orders, repeat=2):
            for sigma in sigmas:
                assert invariance_failures(Axiom.NEU, before, after, sigma) == _loop_invariance(
                    Axiom.NEU, before, after, sigma
                ), (before, after, sigma)
            for axiom in (Axiom.SYM, Axiom.INV):
                assert invariance_failures(axiom, before, after) == _loop_invariance(axiom, before, after, None)
            for pair in pairs:
                assert independence_failures(before, after, pair) == _loop_independence(before, after, pair)
    with pytest.raises(ValueError, match="not an invariance axiom"):
        invariance_rule(Axiom.IIR)

import random
import tracemalloc
from collections import Counter
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction

import pytest
from conftest import random_problem
from hypothesis import given
from hypothesis import strategies as st

import pairrank.io
from pairrank import (
    Method,
    build_problem,
    format_decimal4,
    format_exact,
    parse_match_list,
    parse_matrix,
    parse_problem,
    parse_rational,
    render_match_list,
    render_matrix,
    render_rating,
    score,
)
from pairrank import RankingProblem, RatingVector, fixtures, is_irreducible, ranking
from pairrank.errors import DiagonalNonZero, NegativeEntry, NonIntegerPairSum, ParseError
from pairrank.fixtures import EXAMPLE_4, EXAMPLE_5

F = Fraction


@pytest.mark.parametrize(
    "text, value",
    [
        ("3", F(3)),
        ("-2", F(-2)),
        ("1/2", F(1, 2)),
        ("-7/4", F(-7, 4)),
        ("0.75", F(3, 4)),
        ("  2.250000 ", F(9, 4)),
        ("+1/3", F(1, 3)),
        ("2/4", F(1, 2)),
        ("-0.5", F(-1, 2)),
        ("+0.25", F(1, 4)),
        ("-0/7", F(0)),
    ],
)
def test_parse_rational(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize(
    "bad", ["", "abc", "1/0", "1/00", "1.2345678", "1e3", "0x10", "1/2/3", "nan"]
)
def test_parse_rational_rejects(bad):
    with pytest.raises(ParseError):
        parse_rational(bad)


@given(
    st.fractions(
        min_value=-1000, max_value=1000, max_denominator=10**6
    )
)
def test_format_decimal4_matches_decimal_module(value):
    with localcontext() as ctx:
        ctx.prec = 60
        want = str(
            (Decimal(value.numerator) / Decimal(value.denominator)).quantize(
                Decimal("0.0001"), rounding=ROUND_HALF_EVEN
            )
        )
    if want == "-0.0000":
        want = "0.0000"
    assert format_decimal4(value) == want


def test_format_decimal4_half_even_and_no_negative_zero():
    assert format_decimal4(F(12345, 100000)) == "0.1234"
    assert format_decimal4(F(12355, 100000)) == "0.1236"
    assert format_decimal4(F(-1, 20000)) == "0.0000"
    assert format_decimal4(F(-3, 20000)) == "-0.0002"
    assert format_decimal4(F(2)) == "2.0000"


def test_matrix_round_trip_on_random_problems():
    rng = random.Random(3)
    for _ in range(20):
        p = random_problem(rng, rng.choice((3, 4, 5)))
        assert parse_matrix(render_matrix(p)) == p
        assert parse_match_list(render_match_list(p)) == p


def _fraction_built(text):
    """The problem built from the same file with every entry read as a Fraction."""
    lines = [line.partition("#")[0].strip() for line in text.splitlines()]
    labels, _, *rows = [line for line in lines if line]
    return RankingProblem(
        labels[len("labels:"):].split(), [[parse_rational(v) for v in row.split()] for row in rows]
    )


def _spell(value, rng):
    """One of several literals for ``value``: unreduced, signed, decimal."""
    k = rng.choice((1, 1, 2, 5))
    sign = rng.choice(("", "+")) if value >= 0 else "-"
    p, q = abs(value.numerator) * k, value.denominator * k
    if 10**6 % q == 0 and rng.random() < 0.5:
        whole, part = divmod(p * (10**6 // q), 10**6)
        return f"{sign}{whole}.{part:06d}"
    return f"{sign}{p}/{q}" if q > 1 or rng.random() < 0.5 else f"{sign}{p}"


def test_parse_matrix_builds_the_fraction_built_problem():
    text = "labels: a b c\n3\n-0 2/4 +3/2\n0.5 +0/3 1.250000\n+1/2 0.75 -0.0\n"
    p = parse_matrix(text)
    assert p == _fraction_built(text) and hash(p) == hash(_fraction_built(text))
    assert (p.scaled, p.denominator) == (((0, 2, 6), (2, 0, 5), (2, 3, 0)), 4)
    rng = random.Random(8)
    for _ in range(30):
        q = random_problem(rng, rng.choice((3, 4, 5)))
        rows = [" ".join(_spell(v, rng) for v in row) for row in q.tournament]
        text = "\n".join(["labels: " + " ".join(q.labels), str(q.size), *rows]) + "\n"
        p = parse_matrix(text)
        assert p == q == _fraction_built(text)
        assert hash(p) == hash(q) and p.tournament == q.tournament


def test_parse_matrix_errors_read_as_before():
    cases = [
        ("2\n0 x\n1 0\n", ParseError, "line 2: not a rational literal: 'x'"),
        ("2\n0 1\n1/0 0\n", ParseError, "line 3: zero denominator in '1/0'"),
        ("2\n0 -0.5\n1 0\n", NegativeEntry, "negative score -1/2 for X1 against X2"),
        ("2\n0 2/8\n1/2 0\n", NonIntegerPairSum, "X1 and X2 played 3/4 matches, which is not a whole number"),
        ("2\n1/2 1/2\n1/2 0\n", DiagonalNonZero, "object X1 is scored against itself"),
    ]
    for text, error, message in cases:
        with pytest.raises(error) as caught:
            parse_matrix(text)
        assert str(caught.value) == message
        if error is not ParseError:
            with pytest.raises(error, match=f"^{message}$"):
                _fraction_built("labels: X1 X2\n" + text)


def test_parse_matrix_counts_rows_before_building_labels(monkeypatch):
    # A file may claim any object count. Labels for it must not be built
    # before the rows are counted, or a short file could exhaust memory.
    def refuse(n):
        raise AssertionError(f"default_labels({n}) called")

    monkeypatch.setattr("pairrank.io.default_labels", refuse)
    with pytest.raises(ParseError, match=r"^expected 1000000000 matrix rows, found 2$"):
        parse_matrix("1000000000\n0 1\n1 0\n")


def test_readers_refuse_more_than_max_objects(monkeypatch):
    # 2 000 labels that never met: line 501 introduces the 1 001st, and the
    # reader stops there, before a 2 000 x 2 000 matrix (about 32 MB).
    text = "".join(f"a{k},b{k},0,0\n" for k in range(1000))
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match=r"^line 501: more than 1000 objects$"):
            parse_match_list(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000
    monkeypatch.setattr(pairrank.io, "MAX_OBJECTS", 4)
    assert parse_match_list("a,b,1,0\nc,d,0,0\na,d,1,1\n").size == 4
    with pytest.raises(ParseError, match=r"^line 3: more than 4 objects$"):
        parse_match_list("a,b,1,0\nc,d,0,0\nd,e,1,1\n")
    assert parse_matrix("4\n" + "0 0 0 0\n" * 4).size == 4
    with pytest.raises(ParseError, match=r"^line 2: 5 objects, more than 4$"):
        parse_matrix("labels: a b c d e\n5\n" + "0 0 0 0 0\n" * 5)


def test_parse_matrix_defaults_and_errors():
    text = "3\n0 1 0\n0 0 1/2\n1 1/2 0\n"
    p = parse_matrix(text)
    assert p.labels == ("X1", "X2", "X3")
    assert p.entry(2, 0) == 1
    with pytest.raises(ParseError):
        parse_matrix("")
    with pytest.raises(ParseError):
        parse_matrix("labels: a b\n")
    with pytest.raises(ParseError):
        parse_matrix("two\n0 1\n1 0\n")
    with pytest.raises(ParseError):
        parse_matrix("labels: a b c\n2\n0 1\n1 0\n")
    with pytest.raises(ParseError):
        parse_matrix("2\n0 1\n")
    with pytest.raises(ParseError):
        parse_matrix("2\n0 1\n1 0 0\n")
    with pytest.raises(ParseError):
        parse_matrix("2\n0 x\n1 0\n")


def test_parse_match_list_accumulates_and_orders():
    text = (
        "i,j,tij,tji\n"
        "# preliminary round\n"
        "B,A,1,0\n"
        "C,D,0,0   # only introduces C and D\n"
        "B,A,1/2,1/2\n"
        "A,C,2,1\n"
    )
    p = parse_match_list(text)
    assert p.labels == ("B", "A", "C", "D")
    assert p.entry(0, 1) == F(3, 2)
    assert p.entry(1, 0) == F(1, 2)
    assert p.entry(1, 2) == 2
    assert p.entry(2, 3) == 0


def test_parse_match_list_line_errors():
    with pytest.raises(ParseError, match="line 2"):
        parse_match_list("a,b,1,0\na,b,1\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_match_list("a,,1,0\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_match_list("a,b,1,0\na,c,x,0\n")
    with pytest.raises(NonIntegerPairSum, match="line 1"):
        parse_match_list("a,b,1/2,1/4\n")
    with pytest.raises(ParseError):
        parse_match_list("# nothing but comments\n")
    with pytest.raises(ParseError):
        parse_match_list("a,a,0,0\n")


def test_header_only_skipped_before_records():
    # a pair literally labelled i and j must still be parseable
    p = parse_match_list("i,j,1,0\n")
    assert p.labels == ("i", "j")
    assert p.entry(0, 1) == F(1)
    assert parse_problem("i,j,tij,tji\na,b,1,0\n", form="matches").labels == ("a", "b")
    with pytest.raises(ParseError):
        parse_match_list("a,b,1,0\ni,j,tij,tji\n")


def test_parse_problem_dispatch():
    assert parse_problem("2\n0 1\n0 0\n").labels == ("X1", "X2")
    with pytest.raises(ValueError):
        parse_problem("2\n0 1\n0 0\n", form="csv")


def test_readers_ignore_a_leading_byte_order_mark():
    text = "A,B,1,0\nB,C,2,1\nC,A,0,1\n"
    problem = parse_match_list("\ufeff" + text)
    assert problem == parse_match_list(text) and problem.labels == ("A", "B", "C")
    assert parse_problem("\ufeffi,j,tij,tji\na,b,1,0\n", form="matches").labels == ("a", "b")
    matrix = "labels: P Q\n2\n0 1\n1 0\n"
    assert parse_matrix("\ufeff" + matrix) == parse_matrix(matrix)
    assert parse_problem("\ufeff" + matrix).labels == ("P", "Q")


def test_render_rating_layout():
    rating = Method("cfb").rate(EXAMPLE_5[0])
    text = render_rating(rating)
    lines = text.splitlines()
    assert lines == [
        "X3\t9/19\t0.4737",
        "X1\t-1/19\t-0.0526",
        "X2\t-8/19\t-0.4211",
        "X3 > X1 > X2",
    ]
    exact = render_rating(rating, exact_only=True).splitlines()
    assert exact[0] == "X3\t9/19"
    assert exact[-1] == "X3 > X1 > X2"


def test_render_rating_flat_tier():
    rating = score(parse_matrix("2\n0 1/2\n1/2 0\n"))
    assert render_rating(rating).splitlines()[-1] == "X1 = X2"


def test_render_matrix_rejects_unwritable_labels():
    from pairrank import RankingProblem

    rows = ((0, 1), (1, 0))
    with pytest.raises(ValueError):
        render_matrix(RankingProblem(("a", "has space"), rows))
    with pytest.raises(ValueError):
        render_matrix(RankingProblem(("a", "has#hash"), rows))
    with pytest.raises(ValueError):
        render_match_list(RankingProblem(("a", "has,comma"), rows))
    # Line breaks (including those only str.splitlines knows) and
    # surrounding whitespace would not survive parse_match_list.
    for label in ("a\nb", "a\x85b", "a\u2028b", " a", "a\t", "\n"):
        with pytest.raises(ValueError):
            render_match_list(RankingProblem(("x", label), rows))


def test_format_exact_is_fraction_repr():
    assert format_exact(F(-7, 4)) == "-7/4"
    assert format_exact(F(3)) == "3"
    assert render_matrix(EXAMPLE_4).startswith("labels: X1 X2 X3\n3\n0 3/2 1/2\n")


def _reference_decimal4(value):
    units = round(value * 10_000)
    return f"{'-' if units < 0 else ''}{abs(units) // 10_000}.{abs(units) % 10_000:04d}"


def _reference_render(rating, exact_only=False):
    """render_rating from the Fraction view: ``str`` of each value, and
    four decimals rounded half to even by ``round``."""
    order = ranking(rating)
    lines = []
    for tier in order.tiers:
        for i in tier:
            value = rating.values[i]
            cells = [rating.labels[i], str(value)] + ([] if exact_only else [_reference_decimal4(value)])
            lines.append("\t".join(cells))
    return "\n".join([*lines, order.describe(rating.labels)]) + "\n"


def test_render_rating_matches_a_fraction_reference():
    rng = random.Random(32)
    ratings = []
    for _ in range(2):
        problem = random_problem(rng, 32, require=is_irreducible)
        ratings += [Method(key).rate(problem) for key in ("score", "ls", "fb", "dfb", "cfb")]
        ratings += [Method("grs", eps).rate(problem) for eps in ("reasonable", F(1, 3))]
    # Values halfway between two four-decimal steps, both signs, and
    # values that round to zero from below.
    ties = "4\n0 0 0 1/2\n0 0 1/2 1\n1 1/2 0 1/2\n1/2 0 1/2 0\n"
    ratings.append(Method("dfb").rate(parse_matrix(ties)))
    ratings.append(RatingVector("score", tuple("abcdefgh"), (1, -1, 3, -3, 5, -5, 20000, -20001), 20000))
    ratings.append(RatingVector("score", ("a", "b", "c"), (0, -7, 7), 1))
    for rating in ratings:
        for exact_only in (False, True):
            assert render_rating(rating, exact_only) == _reference_render(rating, exact_only)


def _fixture_problems():
    for value in vars(fixtures).values():
        for problem in value if isinstance(value, tuple) else (value,):
            if isinstance(problem, RankingProblem):
                yield problem


def test_render_matrix_and_match_list_match_the_fraction_view():
    problems = list(_fixture_problems())
    assert len(problems) > 10
    for p in problems:
        t = p.tournament
        matrix = ["labels: " + " ".join(p.labels), str(p.size), *(" ".join(map(str, row)) for row in t)]
        assert render_matrix(p) == "\n".join(matrix) + "\n"
        pairs = [f"{p.labels[i]},{p.labels[j]},{t[i][j]},{t[j][i]}" for i in range(p.size) for j in range(i + 1, p.size)]
        assert render_match_list(p) == "\n".join(["i,j,tij,tji", *pairs]) + "\n"


def _reference_match_list(text):
    """The match-list reader with every literal read as a Fraction and the
    problem assembled by build_problem: the reference for the integer reader."""
    entries, order, seen_record = [], [], False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        if not seen_record and tuple(f.lower() for f in fields) == ("i", "j", "tij", "tji"):
            continue
        if len(fields) != 4:
            raise ParseError(f"line {lineno}: expected 4 comma-separated fields, got {len(fields)}")
        label_i, label_j, raw_ij, raw_ji = fields
        if not label_i or not label_j:
            raise ParseError(f"line {lineno}: empty object label")
        try:
            t_ij, t_ji = parse_rational(raw_ij), parse_rational(raw_ji)
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        seen_record = True
        if t_ij < 0 or t_ji < 0:
            raise NegativeEntry(f"line {lineno}: negative score")
        if label_i == label_j:
            if t_ij != 0 or t_ji != 0:
                raise DiagonalNonZero(f"line {lineno}: {label_i} scored against itself")
        elif (t_ij + t_ji).denominator != 1:
            raise NonIntegerPairSum(f"line {lineno}: {label_i} and {label_j} total {t_ij + t_ji} matches")
        for label in (label_i, label_j):
            if label not in order:
                order.append(label)
        entries += [(label_i, label_j, t_ij), (label_j, label_i, t_ji)]
    if len(order) < 2:
        raise ParseError(f"found {len(order)} objects, a problem needs at least 2")
    return build_problem(order, entries)


# Score splits that sum to a whole number, and literals, bad ones among
# them, drawn two at a time for splits that may not.
_SPLITS = [
    ("1", "0"), ("1/2", "1/2"), ("3/2", "0.5"), ("0.25", "3/4"), ("-0", "0/5"), ("2/4", "+1/2"),
    ("0.333333", "0.666667"), ("5/3", "4/3"), ("0.125", "0.875000"), ("2", "1"), ("0", "0"),
]
_LITERALS = ["0", "1", "3", "1/2", "1/4", "7/6", "0.1", "0.000001", "-0", "0/5", "-1", "-1/2",
             "x", "1/0", ".5", "1.0000001", ""]


def _match_list_line(rng):
    kind = rng.random()
    if kind < 0.05:
        return rng.choice(["i,j,tij,tji", " I , j,TIJ, tji", "i,j,tij"])
    if kind < 0.1:
        return rng.choice(["", "   ", "# a comment", "  # i,j,tij,tji"])
    if kind < 0.13:
        return ",".join(rng.choice(_LITERALS[:8]) for _ in range(rng.choice((1, 3, 5))))
    labels = [rng.choice(("", " ", "  ")) + x + rng.choice(("", " ")) for x in rng.sample("abcdij", 2)]
    if rng.random() < 0.03:
        labels[rng.randrange(2)] = " "
    if rng.random() < 0.1:
        labels[1] = labels[0]
        split = ("0", "-0", "0/5") if rng.random() < 0.7 else _LITERALS[:8]
    else:
        split = rng.choice(_SPLITS) if rng.random() < 0.9 else _LITERALS
    scores = rng.sample(split, 2) if len(split) == 2 else [rng.choice(split), rng.choice(split)]
    return ",".join(labels + scores) + (" # note" if rng.random() < 0.1 else "")


def test_parse_match_list_matches_the_fraction_reference():
    rng = random.Random(25)
    outcomes = set()
    for _ in range(20_000):
        text = "\n".join(_match_list_line(rng) for _ in range(rng.randint(1, 7))) + rng.choice(["", "\n"])
        try:
            want = _reference_match_list(text)
        except Exception as exc:
            want = (type(exc), str(exc))
        try:
            got = parse_match_list(text)
        except Exception as exc:
            got = (type(exc), str(exc))
        assert got == want, text
        outcomes.add(want[0] if isinstance(want, tuple) else RankingProblem)
    assert outcomes == {RankingProblem, ParseError, NegativeEntry, DiagonalNonZero, NonIntegerPairSum}


def test_no_file_is_read_through_fraction(monkeypatch):
    matrix = "labels: a b c\n3\n0 1/2 1.25\n0.5 0 3/4\n3/4 1/4 0\n"
    matches = "i,j,tij,tji\na,b,1/2,0.5\nb,c,3/4,1/4\na,c,1.25,3/4\nb,a,0.5,1/2\n"
    want = (parse_matrix(matrix), parse_match_list(matches))

    def refuse(*args):
        raise AssertionError("a literal was read through Fraction")

    monkeypatch.setattr("pairrank.io.parse_rational", refuse)
    monkeypatch.setattr("pairrank.model.as_rational", refuse)
    reads = Counter()
    parts = pairrank.io._rational_parts

    def counted(text):
        reads[text] += 1
        return parts(text)

    monkeypatch.setattr("pairrank.io._rational_parts", counted)
    assert parse_matrix(matrix) == want[0]
    assert reads == Counter(["0", "1/2", "1.25", "0.5", "3/4", "1/4"])
    reads.clear()
    assert parse_match_list(matches) == want[1]
    assert reads == Counter(["1/2", "0.5", "3/4", "1/4", "1.25"])

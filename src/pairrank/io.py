"""Reading and writing problems and ratings.

Two text formats are supported.

Match-list format: one comparison record per line, fields separated by
commas, ``label_i,label_j,t_ij,t_ji``. Lines may carry ``#`` comments,
an optional header ``i,j,tij,tji`` is ignored, repeated mentions of a
pair accumulate, and a line with two zero scores merely introduces its
objects. Objects are ordered by first appearance.

Matrix format: an optional ``labels:`` line, the object count on its
own line, then the tournament rows, entries separated by whitespace.

Both readers ignore a byte-order mark at the start of the text.

Either reader refuses a file of more than ``MAX_OBJECTS`` objects with a
ParseError before it builds a matrix: the match list at the record that
introduces one object too many, the matrix file once its rows are
counted.

Rational literals are written as ``p/q``, an integer, or a decimal with
at most six fractional digits, and each distinct literal of a file is
read once, as an integer numerator and denominator. Both formats become
integers over the lcm of the file's denominators, and no Fraction is
made while reading. Floats never appear: rendering writes integers over
a denominator as a fraction in lowest terms plus a fixed four-decimal
column rounded half to even, again with no Fraction made.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import (
    DiagonalNonZero,
    NegativeEntry,
    NonIntegerPairSum,
    ParseError,
)
from .methods import RatingVector, ranking
from .model import RankingProblem, default_labels

_RATIONAL = re.compile(r"([+-]?)(\d+)(?:/(\d+)|\.(\d{1,6}))?")

_HEADER = ("i", "j", "tij", "tji")

MAX_OBJECTS = 1000


def _rational_parts(text: str) -> tuple[int, int]:
    """Read ``p/q``, integer or short-decimal notation as ``(numerator,
    denominator)`` ints, not reduced, with a positive denominator."""
    match = _RATIONAL.fullmatch(text.strip())
    if not match:
        raise ParseError(f"not a rational literal: {text!r}")
    sign, whole, over, decimals = match.groups(default="")
    numerator, denominator = int(whole + decimals), int(over or 10 ** len(decimals))
    if not denominator:
        raise ParseError(f"zero denominator in {text!r}")
    return (-numerator if sign == "-" else numerator), denominator


def parse_rational(text: str) -> Fraction:
    """Parse ``p/q``, integer or short-decimal notation into a Fraction."""
    return Fraction(*_rational_parts(text))


def _lines(text: str) -> list[tuple[int, str]]:
    """The non-blank lines of ``text`` with ``#`` comments and one
    leading byte-order mark stripped, each with its 1-based line number."""
    lines = text.removeprefix("\ufeff").splitlines()
    stripped = ((n, raw.partition("#")[0].strip()) for n, raw in enumerate(lines, 1))
    return [(n, line) for n, line in stripped if line]


def _read(known: dict[str, tuple[int, int]], literal: str, lineno: int) -> tuple[int, int]:
    """Read ``literal`` into the file's table ``known``; a file repeats few
    literals, so the callers read each once."""
    try:
        known[literal] = parts = _rational_parts(literal)
    except ParseError as exc:
        raise ParseError(f"line {lineno}: {exc}") from None
    return parts


def _scaled(known: dict[str, tuple[int, int]]) -> tuple[dict[str, int], int]:
    """Each literal of ``known`` as an integer over the lcm of their
    denominators, and that lcm."""
    scale = math.lcm(*(d for _, d in known.values()))
    return {literal: v * (scale // d) for literal, (v, d) in known.items()}, scale


def parse_match_list(text: str) -> RankingProblem:
    """Parse the match-list format into a problem.

    Errors carry the 1-based line number they were detected on, and the
    structural checks that can be pinned to a single record (negative
    score, self-play, fractional match count) are raised against it.
    """
    known: dict[str, tuple[int, int]] = {}
    index: dict[str, int] = {}  # labels in order of first mention
    records = []
    for lineno, line in _lines(text):
        fields = [f.strip() for f in line.split(",")]
        if not index and tuple(f.lower() for f in fields) == _HEADER:
            continue
        if len(fields) != 4:
            raise ParseError(f"line {lineno}: expected 4 comma-separated fields, got {len(fields)}")
        label_i, label_j, raw_ij, raw_ji = fields
        if not label_i or not label_j:
            raise ParseError(f"line {lineno}: empty object label")
        # t_ij = a / b and t_ji = c / d
        a, b = known.get(raw_ij) or _read(known, raw_ij, lineno)
        c, d = known.get(raw_ji) or _read(known, raw_ji, lineno)
        if a < 0 or c < 0:
            raise NegativeEntry(f"line {lineno}: negative score")
        if label_i == label_j:
            if a or c:
                raise DiagonalNonZero(f"line {lineno}: {label_i} scored against itself")
        elif (a * d + c * b) % (b * d):
            total = _exact_text(a * d + c * b, b * d)
            raise NonIntegerPairSum(f"line {lineno}: {label_i} and {label_j} total {total} matches")
        i = index.setdefault(label_i, len(index))
        j = index.setdefault(label_j, len(index))
        if len(index) > MAX_OBJECTS:
            raise ParseError(f"line {lineno}: more than {MAX_OBJECTS} objects")
        records.append((i, j, raw_ij, raw_ji))
    if len(index) < 2:
        raise ParseError(f"found {len(index)} objects, a problem needs at least 2")
    value, scale = _scaled(known)
    totals = [[0] * len(index) for _ in index]
    for i, j, raw_ij, raw_ji in records:
        totals[i][j] += value[raw_ij]
        totals[j][i] += value[raw_ji]
    return RankingProblem.from_scaled(index, totals, scale)


def parse_matrix(text: str) -> RankingProblem:
    """Parse the matrix format into a problem."""
    lines = _lines(text)
    if not lines:
        raise ParseError("empty matrix file")
    labels: tuple[str, ...] | None = None
    if lines[0][1].startswith("labels:"):
        labels = tuple(lines[0][1][len("labels:"):].split())
        lines = lines[1:]
        if not lines:
            raise ParseError("matrix file ends after the labels line")
    lineno, head = lines[0]
    try:
        n = int(head)
    except ValueError:
        raise ParseError(f"line {lineno}: expected the object count, got {head!r}") from None
    # Count the rows before building labels: the count line may claim any size.
    body = lines[1:]
    if len(body) != n:
        raise ParseError(f"expected {n} matrix rows, found {len(body)}")
    if n > MAX_OBJECTS:
        raise ParseError(f"line {lineno}: {n} objects, more than {MAX_OBJECTS}")
    if labels is None:
        labels = default_labels(n)
    if len(labels) != n:
        raise ParseError(f"{len(labels)} labels for {n} objects")
    rows = []
    known: dict[str, tuple[int, int]] = {}
    for lineno, line in body:
        entries = line.split()
        if len(entries) != n:
            raise ParseError(f"line {lineno}: expected {n} entries, got {len(entries)}")
        for entry in entries:
            if entry not in known:
                _read(known, entry, lineno)
        rows.append(entries)
    value, scale = _scaled(known)
    return RankingProblem.from_scaled(labels, [[value[entry] for entry in row] for row in rows], scale)


def parse_problem(text: str, form: str = "matrix") -> RankingProblem:
    if form == "matches":
        return parse_match_list(text)
    if form == "matrix":
        return parse_matrix(text)
    raise ValueError(f"unknown format {form!r}, expected 'matches' or 'matrix'")


def _exact_text(numerator: int, denominator: int) -> str:
    """``numerator / denominator`` (denominator > 0) in lowest terms, written as a Fraction is."""
    g = math.gcd(numerator, denominator)
    if g == denominator:
        return str(numerator // g)
    return f"{numerator // g}/{denominator // g}"


def _decimal4_text(numerator: int, denominator: int) -> str:
    """``numerator / denominator`` (denominator > 0) with exactly four
    decimals, rounding half to even; a value that rounds to zero has no sign."""
    units, rest = divmod(numerator * 10_000, denominator)
    if 2 * rest > denominator or (2 * rest == denominator and units % 2):
        units += 1
    sign = "-" if units < 0 else ""
    units = abs(units)
    return f"{sign}{units // 10_000}.{units % 10_000:04d}"


def format_exact(value: Fraction) -> str:
    return _exact_text(value.numerator, value.denominator)


def format_decimal4(value: Fraction) -> str:
    """Render with exactly four decimals, rounding half to even."""
    return _decimal4_text(value.numerator, value.denominator)


def render_matrix(problem: RankingProblem) -> str:
    """Write a problem in matrix format; parse_matrix inverts this."""
    for label in problem.labels:
        if not label or "#" in label or any(ch.isspace() for ch in label):
            raise ValueError(f"label {label!r} cannot be written in matrix format")
    d = problem.denominator
    lines = ["labels: " + " ".join(problem.labels), str(problem.size)]
    for row in problem.scaled:
        lines.append(" ".join(_exact_text(v, d) for v in row))
    return "\n".join(lines) + "\n"


def render_match_list(problem: RankingProblem) -> str:
    """Write a problem as one record per unordered pair."""
    for label in problem.labels:
        if "," in label or "#" in label or label != label.strip() or len(label.splitlines()) != 1:
            raise ValueError(f"label {label!r} cannot be written in match-list format")
    lines = ["i,j,tij,tji"]
    t, d = problem.scaled, problem.denominator
    n = problem.size
    for i in range(n):
        for j in range(i + 1, n):
            lines.append(
                f"{problem.labels[i]},{problem.labels[j]},{_exact_text(t[i][j], d)},{_exact_text(t[j][i], d)}"
            )
    return "\n".join(lines) + "\n"


def render_rating(rating: RatingVector, exact_only: bool = False) -> str:
    """One tab-separated line per object, best first (ties by index):
    label, exact value, four-decimal value. A final line prints the weak
    order. ``exact_only`` drops the decimal column. The cells are written
    from the rating's integers, ``scaled[i] / denominator``."""
    order = ranking(rating)
    labels, scaled, d = rating.labels, rating.scaled, rating.denominator
    lines = []
    for tier in order.tiers:
        for i in tier:
            cells = [labels[i], _exact_text(scaled[i], d)]
            if not exact_only:
                cells.append(_decimal4_text(scaled[i], d))
            lines.append("\t".join(cells))
    lines.append(order.describe(labels))
    return "\n".join(lines) + "\n"

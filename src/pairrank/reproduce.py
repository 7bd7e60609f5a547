"""Recompute every stored example value and report PASS or FAIL per value.

Rationals are compared exactly; decimal grids are compared after
rounding to four places, matching how the stored tables print them.
The exit status contract (0 only when nothing failed) is enforced by
the command line layer on top of the reports built here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import fixtures as fx
from .errors import UnknownExample
from .io import format_decimal4, format_exact
from .methods import (
    copeland_fair_bets,
    dual_fair_bets,
    fair_bets,
    generalized_row_sum,
    least_squares,
    reasonable_epsilon,
    score,
)
from .model import RankingProblem, derive, sum_problems


@dataclass(frozen=True)
class ExampleReport:
    number: int
    lines: tuple[str, ...]
    passed: int
    failed: int

    @property
    def ok(self) -> bool:
        return self.failed == 0


class _Tally:
    """Collects check lines for one example."""

    def __init__(self, number: int):
        self.number = number
        self.lines: list[str] = [f"example {number}"]
        self.passed = 0
        self.failed = 0

    def exact(self, what: str, computed: Fraction, expected) -> None:
        expected = Fraction(expected)
        self._record(what, computed == expected, "=", format_exact(expected), format_exact(computed))

    def decimal(self, what: str, computed: Fraction, expected: str) -> None:
        got = format_decimal4(computed)
        self._record(what, got == expected, "~", expected, got)

    def each(self, check, prefix: str, labels, computed, stated) -> None:
        """Check each object's computed value against its stated one, with
        ``check`` (:meth:`exact` or :meth:`decimal`); a table of another
        length than the labels raises ``ValueError``."""
        for lab, got, want in zip(labels, computed, stated, strict=True):
            check(f"{prefix} {lab}", got, want)

    def _record(self, what: str, ok: bool, relation: str, stated: str, got: str) -> None:
        if ok:
            self.passed += 1
            self.lines.append(f"  {what} {relation} {stated}  PASS")
        else:
            self.failed += 1
            self.lines.append(f"  {what}: stated {stated}, computed {got}  FAIL")

    def note(self, text: str) -> None:
        self.lines.append(f"  note: {text}")

    def skip(self, what: str, reason: str) -> None:
        self.lines.append(f"  {what}  SKIPPED ({reason})")

    def report(self) -> ExampleReport:
        self.lines.append(
            f"example {self.number}: {self.passed} passed, {self.failed} failed"
        )
        return ExampleReport(self.number, tuple(self.lines), self.passed, self.failed)


_FB_FAMILY = (("fb", fair_bets), ("dfb", dual_fair_bets), ("cfb", copeland_fair_bets))


def _check_fb_table(t: _Tally, problems, names, table) -> None:
    for key, fn in _FB_FAMILY:
        for name, problem, expected in zip(names, problems, table[key]):
            t.each(t.exact, f"{key}({name})", problem.labels, fn(problem).values, expected)


def _check_ls_pair(t: _Tally, pair, table) -> None:
    """Least squares of the first two objects of T and T' against ``table``."""
    for name, key, problem in zip(("T", "T'"), ("first", "second"), pair):
        q = least_squares(problem)
        t.each(t.exact, f"ls {name}", problem.labels[:2], q.values[:2], table[key][:2])


def _with_sum(pair) -> tuple[tuple[RankingProblem, ...], tuple[str, ...]]:
    first, second = pair
    return (first, second, sum_problems(first, second)), ("T", "T'", "T''")


def _example_1(t: _Tally) -> None:
    p = fx.EXAMPLE_1
    t.each(t.exact, "score (eps=0 column)", p.labels, score(p).values, fx.EXAMPLE_1_SCORE)
    for printed, eps, cells in fx.EXAMPLE_1_TABLE:
        if Fraction(printed) != eps:
            t.note(
                f"the column headed eps = {printed} is generated by eps = {eps};"
                " its cells are checked at the generating value"
            )
        t.each(t.decimal, f"grs[eps={eps}]", p.labels, generalized_row_sum(p, eps).values, cells)
    q = least_squares(p)
    mn = derive(p).max_matches * p.size
    t.each(t.exact, "m*n*q (eps->inf column)", p.labels, [mn * v for v in q.values], fx.EXAMPLE_1_LIMIT_COLUMN)
    t.skip("fair bets", "reducible; extension out of scope")


def _example_2(t: _Tally) -> None:
    first, second = fx.EXAMPLE_2
    total = sum_problems(first, second)
    for eps in fx.EXAMPLE_2_EPSILONS:
        want = fx.example_2_row_sum_first(eps)
        x = generalized_row_sum(first, eps)
        t.each(t.exact, f"grs[eps={eps}] T", first.labels[:2], x.values[:2], (want, want))
        x2 = generalized_row_sum(second, eps)
        t.each(t.exact, f"grs[eps={eps}] T'", second.labels[:2], x2.values[:2], (-1, -1))
        xs = generalized_row_sum(total, eps)
        t.exact(
            f"grs[eps={eps}] T'' X1-X2",
            xs.values[0] - xs.values[1],
            fx.example_2_row_sum_sum_gap(eps),
        )
    _check_ls_pair(t, fx.EXAMPLE_2, fx.EXAMPLE_2_LS)
    qs = least_squares(total)
    t.exact("ls T'' X1-X2", qs.values[0] - qs.values[1], fx.EXAMPLE_2_LS["sum_gap"])


def _example_3(t: _Tally) -> None:
    problems, names = _with_sum(fx.EXAMPLE_3)
    _check_fb_table(t, problems, names, fx.EXAMPLE_3_TABLE)


def _example_4(t: _Tally) -> None:
    p = fx.EXAMPLE_4
    t.exact("reasonable epsilon bound", reasonable_epsilon(p), Fraction(1, 3))
    x = generalized_row_sum(p, Fraction(1, 3))
    t.each(t.exact, "grs[eps=1/3]", p.labels, x.values, fx.EXAMPLE_4_ROW_SUM)
    xd = generalized_row_sum(sum_problems(p, p), Fraction(1, 3))
    t.each(t.decimal, "grs[eps=1/3] doubled", p.labels, xd.values, fx.EXAMPLE_4_DOUBLED_DECIMALS)


def _example_5(t: _Tally) -> None:
    t.note(
        "the stated dfb(T) column is uniform while fb(T) is not; the two are"
        " uniform only together (exactly when every object wins as much as it"
        " loses), so no tournament produces the stated dfb(T) and Cfb(T)"
    )
    problems, names = _with_sum(fx.EXAMPLE_5)
    _check_fb_table(t, problems, names, fx.EXAMPLE_5_TABLE)


def _example_6(t: _Tally) -> None:
    problems, names = _with_sum(fx.EXAMPLE_6)
    _check_fb_table(t, problems, names, fx.EXAMPLE_6_TABLE)


def _example_7(t: _Tally) -> None:
    first, second = fx.EXAMPLE_7
    for eps in fx.EXAMPLE_7_EPSILONS:
        want = fx.example_7_row_sum_first(eps)
        x = generalized_row_sum(first, eps)
        x2 = generalized_row_sum(second, eps)
        t.each(t.exact, f"grs[eps={eps}] T", first.labels[:2], x.values[:2], (want, -want))
        t.each(t.exact, f"grs[eps={eps}] T'", second.labels[:2], x2.values[:2], (-want, want))
    _check_ls_pair(t, fx.EXAMPLE_7, fx.EXAMPLE_7_LS)
    _check_fb_table(t, (first, second), ("T", "T'"), fx.EXAMPLE_7_TABLE)


def _example_8(t: _Tally) -> None:
    _check_fb_table(t, fx.EXAMPLE_8, ("T", "T'"), fx.EXAMPLE_8_TABLE)


_BUILDERS = {
    1: _example_1,
    2: _example_2,
    3: _example_3,
    4: _example_4,
    5: _example_5,
    6: _example_6,
    7: _example_7,
    8: _example_8,
}


def reproduce_example(number: int) -> ExampleReport:
    try:
        builder = _BUILDERS[number]
    except KeyError:
        raise UnknownExample(f"no example {number}; choose 1..8") from None
    tally = _Tally(number)
    builder(tally)
    return tally.report()


def reproduce_many(numbers) -> tuple[ExampleReport, ...]:
    return tuple(reproduce_example(k) for k in numbers)


def render_reports(reports) -> str:
    lines: list[str] = []
    for report in reports:
        lines.extend(report.lines)
    if len(reports) > 1:
        passed = sum(r.passed for r in reports)
        failed = sum(r.failed for r in reports)
        lines.append(f"total: {passed} passed, {failed} failed")
    return "\n".join(lines)

"""Built-in worked examples and their published values.

Eight small tournaments exercise every method and axiom in the package.
Each fixture stores the problems plus the values the source tables
print for them, kept verbatim: rationals as exact fractions, decimal
grids as 4-decimal strings. Where a printed value is provably
inconsistent with the defining equations, the fixture keeps the printed
value and records the discrepancy, so reports can show both sides; see
the notes on examples 1 and 5 below.

Example 1's row-sum table carries two mislabelled parameter columns:
the values printed under 1/4 and 1/3 solve the defining system at 1/3
and 4/5 respectively (all ten cells match to four decimals at the
recovered parameters, and at the printed parameters the true solutions
differ in every cell). The fixture stores both the printed header and
the parameter that actually generates the column.

Example 5's table prints a dual-side column for its first problem that
no tournament can produce: the win side is non-uniform while the dual
side is uniform, yet the two are uniform only together (both happen
exactly when every object wins as much as it loses). The recomputed
values are stored next to the printed ones.
"""

from __future__ import annotations

from fractions import Fraction

from .model import RankingProblem, default_labels

F = Fraction


def _problem(rows) -> RankingProblem:
    return RankingProblem(default_labels(len(rows)), rows)


def _values(*entries) -> tuple[Fraction, ...]:
    return tuple(F(e) for e in entries)


H = F(1, 2)

EXAMPLE_1 = _problem(
    [
        [0, 0, 0, 0, 1],
        [0, 0, H, 0, 0],
        [0, H, 0, 1, 0],
        [0, 0, 0, 0, 1],
        [0, 0, 1, 0, 0],
    ]
)

# Printed row-sum grid for Example 1: (printed header, parameter whose
# solution the column holds, 4-decimal cells). The 0 and limit columns
# are checked against the score and the scaled least squares instead.
EXAMPLE_1_TABLE = (
    ("1/100", F(1, 100), ("1.0296", "-0.0001", "-0.0099", "-0.0100", "-1.0096")),
    ("1/4", F(1, 3), ("1.7165", "-0.0613", "-0.2452", "-0.2759", "-1.1341")),
    ("1/3", F(4, 5), ("2.2649", "-0.1917", "-0.4314", "-0.4878", "-1.1540")),
    ("1", F(1), ("2.4242", "-0.2424", "-0.4848", "-0.5455", "-1.1515")),
    ("5", F(5), ("3.4369", "-0.6819", "-0.8183", "-0.8609", "-1.0757")),
)
EXAMPLE_1_SCORE = _values(1, 0, 0, 0, -1)
EXAMPLE_1_LIMIT_COLUMN = _values(4, -1, -1, -1, -1)  # m n q, the eps -> inf column

EXAMPLE_2 = (
    _problem([[0, 0, 0, 1], [0, 0, 1, 0], [1, 1, 0, 0], [1, 1, 0, 0]]),
    _problem([[0, 1, 0, 0], [0, 0, 0, 1], [1, 1, 0, 0], [1, 0, 0, 0]]),
)
EXAMPLE_2_EPSILONS = (F(1, 4), F(1), F(2))


def example_2_row_sum_first(eps: Fraction) -> Fraction:
    """Common value of the first two coordinates of x(eps) on Example 2's
    first problem."""
    return -(1 + 14 * eps + 56 * eps**2 + 64 * eps**3) / (
        1 + 12 * eps + 44 * eps**2 + 48 * eps**3
    )


def example_2_row_sum_sum_gap(eps: Fraction) -> Fraction:
    """x1 - x2 of x(eps) on the summed problem of Example 2."""
    return -(2 * eps + 44 * eps**2 + 240 * eps**3) / (
        1 + 22 * eps + 154 * eps**2 + 340 * eps**3
    )


EXAMPLE_2_LS = {
    "first": _values(F(-1, 6), F(-1, 6), F(1, 6), F(1, 6)),
    "second": _values(F(-1, 4), F(-1, 4), F(3, 4), F(-1, 4)),
    "sum_gap": F(-1, 17),
}

EXAMPLE_3 = (
    _problem([[0, H, H, H], [H, 0, 1, H], [H, 0, 0, H], [H, H, H, 0]]),
    _problem([[0, 1, H, H], [0, 0, H, H], [H, H, 0, 0], [H, H, 1, 0]]),
)
EXAMPLE_3_TABLE = {
    "fb": (
        _values(F(1, 4), F(3, 8), F(1, 8), F(1, 4)),
        _values(F(3, 8), F(1, 8), F(1, 8), F(3, 8)),
        _values(F(163, 512), F(117, 512), F(75, 512), F(157, 512)),
    ),
    "dfb": (
        _values(F(-1, 4), F(-1, 8), F(-3, 8), F(-1, 4)),
        _values(F(-1, 8), F(-3, 8), F(-3, 8), F(-1, 8)),
        _values(F(-101, 512), F(-115, 512), F(-205, 512), F(-91, 512)),
    ),
    "cfb": (
        _values(0, F(1, 4), F(-1, 4), 0),
        _values(F(1, 4), F(-1, 4), F(-1, 4), F(1, 4)),
        _values(F(31, 256), F(1, 256), F(-65, 256), F(33, 256)),
    ),
}

EXAMPLE_4 = _problem([[0, F(3, 2), H], [H, 0, 3], [H, 0, 0]])
EXAMPLE_4_SCORE = _values(1, 2, -3)
EXAMPLE_4_ROW_SUM = _values(2, 2, -4)  # eps = 1/3
EXAMPLE_4_DOUBLED_ROW_SUM = _values(F(322, 71), F(280, 71), F(-602, 71))
EXAMPLE_4_DOUBLED_DECIMALS = ("4.5352", "3.9437", "-8.4789")

EXAMPLE_5 = (
    _problem([[0, 3, 0], [0, 0, 1], [4, 0, 0]]),
    _problem([[0, 1, 2], [2, 0, 0], [2, 1, 0]]),
)
EXAMPLE_5_TABLE = {
    "fb": (
        _values(F(3, 19), F(4, 19), F(12, 19)),
        _values(F(2, 7), F(2, 7), F(3, 7)),
        _values(F(7, 29), F(6, 29), F(16, 29)),
    ),
    "dfb": (
        _values(F(-1, 3), F(-1, 3), F(-1, 3)),
        _values(F(-2, 5), F(-1, 3), F(-4, 15)),
        _values(F(-1, 3), F(-1, 2), F(-1, 6)),
    ),
    "cfb": (
        _values(F(-10, 57), F(-7, 57), F(17, 57)),
        _values(F(-4, 35), F(-1, 21), F(17, 105)),
        _values(F(-8, 87), F(-17, 58), F(67, 174)),
    ),
}
# The printed first-problem dual column above cannot come from any
# tournament (see the module docstring); these are the values the
# definitions actually give.
EXAMPLE_5_RECOMPUTED = {
    ("dfb", 0): _values(F(-4, 19), F(-12, 19), F(-3, 19)),
    ("cfb", 0): _values(F(-1, 19), F(-8, 19), F(9, 19)),
}

EXAMPLE_6 = (
    _problem([[0, 0, 1, 0], [1, 0, 1, H], [0, 0, 0, 1], [1, H, 0, 0]]),
    _problem([[0, 0, H, H], [1, 0, H, 1], [H, H, 0, 0], [H, 0, 1, 0]]),
)
EXAMPLE_6_TABLE = {
    "fb": (
        _values(F(1, 17), F(10, 17), F(2, 17), F(4, 17)),
        _values(F(5, 64), F(39, 64), F(11, 64), F(9, 64)),
        _values(F(17, 236), F(145, 236), F(31, 236), F(43, 236)),
    ),
    "dfb": (
        _values(F(-6, 19), F(-1, 19), F(-7, 19), F(-5, 19)),
        _values(F(-23, 64), F(-5, 64), F(-25, 64), F(-11, 64)),
        _values(F(-79, 244), F(-15, 244), F(-97, 244), F(-53, 244)),
    ),
    "cfb": (
        _values(F(-83, 323), F(173, 323), F(-81, 323), F(-9, 323)),
        _values(F(-9, 32), F(17, 32), F(-7, 32), F(-1, 32)),
        _values(F(-906, 3599), F(1990, 3599), F(-958, 3599), F(-126, 3599)),
    ),
}

EXAMPLE_7 = (
    _problem([[0, H, 0, H], [H, 0, H, 0], [0, H, 0, 0], [H, 0, 1, 0]]),
    _problem([[0, H, 0, H], [H, 0, H, 0], [0, H, 0, 1], [H, 0, 0, 0]]),
)
EXAMPLE_7_CHANGED_PAIR = (2, 3)
EXAMPLE_7_EPSILONS = (F(1, 4), F(1), F(5))


def example_7_row_sum_first(eps: Fraction) -> Fraction:
    """x1(eps) on Example 7's first problem; x2 = -x1 and the edited
    problem swaps the two."""
    return eps / (1 + 2 * eps)


EXAMPLE_7_LS = {
    "first": _values(F(1, 8), F(-1, 8), F(-3, 8), F(3, 8)),
    "second": _values(F(-1, 8), F(1, 8), F(3, 8), F(-3, 8)),
}
EXAMPLE_7_TABLE = {
    "fb": (
        _values(F(5, 16), F(3, 16), F(1, 16), F(7, 16)),
        _values(F(3, 16), F(5, 16), F(7, 16), F(1, 16)),
    ),
    "dfb": (
        _values(F(-3, 16), F(-5, 16), F(-7, 16), F(-1, 16)),
        _values(F(-5, 16), F(-3, 16), F(-1, 16), F(-7, 16)),
    ),
    "cfb": (
        _values(F(1, 8), F(-1, 8), F(-3, 8), F(3, 8)),
        _values(F(-1, 8), F(1, 8), F(3, 8), F(-3, 8)),
    ),
}

EXAMPLE_8 = (
    _problem([[0, 1, 0, H], [0, 0, H, 1], [1, H, 0, 0], [H, 0, 1, 0]]),
    _problem([[0, 1, 0, H], [0, 0, H, 1], [1, H, 0, 1], [H, 0, 0, 0]]),
)
EXAMPLE_8_CHANGED_PAIR = (2, 3)
EXAMPLE_8_TABLE = {
    "fb": (
        _values(F(1, 4), F(1, 4), F(1, 4), F(1, 4)),
        _values(F(5, 32), F(7, 32), F(19, 32), F(1, 32)),
    ),
    "dfb": (
        _values(F(-1, 4), F(-1, 4), F(-1, 4), F(-1, 4)),
        _values(F(-7, 32), F(-5, 32), F(-1, 32), F(-19, 32)),
    ),
    "cfb": (
        _values(0, 0, 0, 0),
        _values(F(-1, 16), F(1, 16), F(9, 16), F(-9, 16)),
    ),
}

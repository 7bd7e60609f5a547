import hashlib

import pytest

from pairrank import render_reports, reproduce_example, reproduce_many
from pairrank.errors import UnknownExample
from pairrank.reproduce import _Tally

# Checks asserted per example. Example 5 carries six failing table
# entries on top of these; see its test below.
CLEAN_COUNTS = {1: 35, 2: 20, 3: 36, 4: 7, 6: 36, 7: 40, 8: 24}


@pytest.mark.parametrize("number", sorted(CLEAN_COUNTS))
def test_examples_reproduce_cleanly(number):
    report = reproduce_example(number)
    assert report.ok
    assert report.passed == CLEAN_COUNTS[number]
    assert report.failed == 0


def test_example_1_skips_fair_bets_and_flags_header_epsilons():
    report = reproduce_example(1)
    text = "\n".join(report.lines)
    assert "fair bets  SKIPPED (reducible; extension out of scope)" in text
    notes = [line for line in report.lines if line.startswith("  note:")]
    assert len(notes) == 2
    assert all("1/3" in note or "4/5" in note for note in notes)
    assert "FAIL" not in text


def test_example_5_fails_on_exactly_the_inconsistent_column():
    report = reproduce_example(5)
    assert not report.ok
    assert report.passed == 21 and report.failed == 6
    fails = [line for line in report.lines if line.endswith("FAIL")]
    assert fails == [
        "  dfb(T) X1: stated -1/3, computed -4/19  FAIL",
        "  dfb(T) X2: stated -1/3, computed -12/19  FAIL",
        "  dfb(T) X3: stated -1/3, computed -3/19  FAIL",
        "  cfb(T) X1: stated -10/57, computed -1/19  FAIL",
        "  cfb(T) X2: stated -7/57, computed -8/19  FAIL",
        "  cfb(T) X3: stated 17/57, computed 9/19  FAIL",
    ]
    notes = [line for line in report.lines if line.startswith("  note:")]
    assert len(notes) == 1 and "uniform" in notes[0]


def test_unknown_examples_are_rejected():
    for number in (0, 9, -3):
        with pytest.raises(UnknownExample, match="choose 1..8"):
            reproduce_example(number)


def test_render_reports_totals_and_determinism():
    single = render_reports([reproduce_example(4)])
    assert "total:" not in single
    assert single.endswith("example 4: 7 passed, 0 failed")
    full = render_reports(reproduce_many(range(1, 9)))
    assert full.splitlines()[-1] == "total: 219 passed, 6 failed"
    assert full == render_reports(reproduce_many(range(1, 9)))


def test_reports_expose_headers_and_tallies():
    reports = reproduce_many([2, 5])
    assert [r.number for r in reports] == [2, 5]
    assert [r.ok for r in reports] == [True, False]
    for report in reports:
        assert report.lines[0] == f"example {report.number}"
        tally = report.lines[-1]
        assert tally == f"example {report.number}: {report.passed} passed, {report.failed} failed"


def test_full_report_is_pinned():
    # The digest of the whole report, 246 lines: every check line's wording,
    # value and verdict, the notes, the skip and the tallies.
    full = render_reports(reproduce_many(range(1, 9)))
    assert len(full.splitlines()) == 246
    assert hashlib.sha256(full.encode()).hexdigest() == (
        "eb4dbe7c55f2884d65878f1ef77b9e94eb341395efa5bba1404a462371c4fcb3"
    )


@pytest.mark.parametrize("stated", [(1,), (1, 2, 3)], ids=["short", "long"])
def test_a_table_of_another_length_than_the_labels_is_refused(stated):
    tally = _Tally(1)
    with pytest.raises(ValueError):
        tally.each(tally.exact, "score", ("X1", "X2"), (1, 2), stated)

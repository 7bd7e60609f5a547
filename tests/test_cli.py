import os
import sys

import pytest

from pairrank import cli
from pairrank.fixtures import (
    EXAMPLE_1,
    EXAMPLE_2,
    EXAMPLE_4,
    EXAMPLE_5,
    EXAMPLE_7,
)
from pairrank.io import render_match_list, render_matrix
from pairrank.model import RankingProblem


@pytest.fixture
def write(tmp_path):
    def _write(name, problem, form="matrix"):
        text = render_matrix(problem) if form == "matrix" else render_match_list(problem)
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return _write


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_rank_score(write, capsys):
    path = write("ex4.txt", EXAMPLE_4)
    code, out, err = run(capsys, "rank", "--method", "score", path)
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "X2\t2\t2.0000",
        "X1\t1\t1.0000",
        "X3\t-3\t-3.0000",
        "X2 > X1 > X3",
    ]


def test_rank_is_deterministic(write, capsys):
    path = write("ex4.txt", EXAMPLE_4)
    first = run(capsys, "rank", "--method", "grs", "--epsilon", "1/3", path)
    second = run(capsys, "rank", "--method", "grs", "--epsilon", "1/3", path)
    assert first == second and first[0] == 0


def test_rank_exact_only(write, capsys):
    path = write("ex4.txt", EXAMPLE_4)
    code, out, _ = run(capsys, "rank", "--method", "score", "--exact", path)
    assert code == 0
    assert out.splitlines()[0] == "X2\t2"


def test_rank_reads_match_lists(write, capsys):
    path = write("ex4.csv", EXAMPLE_4, form="matches")
    code, out, _ = run(capsys, "rank", "--method", "score", "--format", "matches", path)
    assert code == 0
    assert out.splitlines()[-1] == "X2 > X1 > X3"


def test_rank_reasonable_epsilon(write, capsys):
    path = write("ex4.txt", EXAMPLE_4)
    code, out, _ = run(capsys, "rank", "--method", "grs", "--epsilon", "reasonable", path)
    assert code == 0
    # At the reasonable bound the first two ratings coincide at 2.
    assert out.splitlines()[-1] == "X1 = X2 > X3"


def test_rank_usage_errors(write, capsys):
    path = write("ex4.txt", EXAMPLE_4)
    code, _, err = run(capsys, "rank", "--method", "grs", path)
    assert code == 2 and "--epsilon" in err
    code, _, err = run(capsys, "rank", "--method", "score", "--epsilon", "1/4", path)
    assert code == 2 and "does not apply" in err
    code, _, err = run(capsys, "rank", "--method", "grs", "--epsilon", "0", path)
    assert code == 3  # nonpositive epsilon fails the method precondition
    code, _, err = run(capsys, "rank", "--method", "score", str(path) + ".missing")
    assert code == 2 and "cannot read" in err


def test_rank_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n0 1\n1\n", encoding="utf-8")
    code, _, err = run(capsys, "rank", "--method", "score", str(bad))
    assert code == 2 and "line" in err


def test_rank_precondition_exit(write, capsys):
    path = write("ex1.txt", EXAMPLE_1)
    code, _, err = run(capsys, "rank", "--method", "fb", path)
    assert code == 3 and "error:" in err


def test_audit_additivity_verdicts(write, capsys):
    first = write("a.txt", EXAMPLE_5[0])
    second = write("b.txt", EXAMPLE_5[1])
    code, out, _ = run(
        capsys, "audit", "--axiom", "RCS", "--method", "cfb", first, second
    )
    assert code == 0
    assert "RCS" in out and "satisfied" in out
    code, out, _ = run(
        capsys, "audit", "--axiom", "RCS", "--method", "fb", first, second
    )
    assert code == 1
    assert "violated" in out and "X1" in out and "X2" in out


def test_audit_detects_changed_pair(write, capsys):
    first = write("a.txt", EXAMPLE_7[0])
    second = write("b.txt", EXAMPLE_7[1])
    code, out, _ = run(capsys, "audit", "--axiom", "IIR", "--method", "fb", first, second)
    assert code == 1
    assert "X3" in out and "X4" in out  # the detected edited pair
    explicit = run(
        capsys,
        "audit", "--axiom", "IIR", "--method", "fb",
        "--changed-pair", "3,4", first, second,
    )
    assert explicit[0] == 1 and explicit[1] == out
    code, out, _ = run(capsys, "audit", "--axiom", "IIM", "--method", "score", first, second)
    assert code == 0 and "satisfied" in out


def test_audit_changed_pair_errors_are_one_based(write, capsys):
    first = write("a.txt", EXAMPLE_7[0])
    second = write("b.txt", EXAMPLE_7[1])
    for pair, message in (
        ("3,x", "--changed-pair takes two comma-separated one-based indices, like 3,4; got '3,x'"),
        ("3", "--changed-pair takes two comma-separated one-based indices, like 3,4; got '3'"),
        ("1,2,3", "--changed-pair takes two comma-separated one-based indices, like 3,4; got '1,2,3'"),
        ("3,9", "--changed-pair 3,9 is not a pair of distinct objects among 1..4"),
        ("0,1", "--changed-pair 0,1 is not a pair of distinct objects among 1..4"),
        ("1,1", "--changed-pair 1,1 is not a pair of distinct objects among 1..4"),
    ):
        code, out, err = run(
            capsys, "audit", "--axiom", "IIR", "--method", "ls", "--changed-pair", pair, first, second
        )
        assert (code, out, err) == (2, "", f"error: {message}\n"), pair


def test_audit_reports_label_mismatch_first(write, capsys):
    # The mismatch is reported before the differing pairs are counted,
    # and before an explicit edited pair is read.
    first = write("a.txt", EXAMPLE_7[0])
    # Same results under other labels: they differ on no pair.
    renamed = RankingProblem(("A", "B", "C", "D"), EXAMPLE_7[0].tournament)
    second = write("b.txt", renamed)
    message = "error: the two problems must rank the same objects\n"
    for extra in ((), ("--changed-pair", "3,4"), ("--changed-pair", "3,9")):
        code, out, err = run(capsys, "audit", "--axiom", "IIM", "--method", "ls", *extra, first, second)
        assert (code, out, err) == (2, "", message), extra


def test_audit_neu_with_sigma(write, capsys):
    path = write("ex4.txt", EXAMPLE_4)
    code, out, _ = run(
        capsys, "audit", "--axiom", "NEU", "--method", "ls", "--sigma", "2,3,1", path
    )
    assert code == 0 and "satisfied" in out


def test_audit_pins_witness_and_violation_lines(write, capsys):
    first = write("a.txt", EXAMPLE_2[0])
    second = write("b.txt", EXAMPLE_2[1])
    code, out, _ = run(capsys, "audit", "--axiom", "CS", "--method", "ls", first, second)
    assert code == 1
    assert out.splitlines() == [
        "CS (order consistency under summation) for ls: violated",
        "witness: pair of problems and their sum",
        "X1 vs X2: X1 = X2 and X1 = X2 in the inputs, but X1 < X2 in the sum",
    ]


def test_audit_sigma_errors_are_one_based(write, capsys):
    path = write("ex4.txt", EXAMPLE_4)
    for sigma, message in (
        ("0,1,2", "--sigma 0,1,2 is not a permutation of 1..3"),
        ("1,1,2", "--sigma 1,1,2 is not a permutation of 1..3"),
        ("2,3,4", "--sigma 2,3,4 is not a permutation of 1..3"),
        ("1,x,2", "--sigma takes comma-separated one-based indices, like 2,3,1; got '1,x,2'"),
    ):
        code, out, err = run(capsys, "audit", "--axiom", "NEU", "--method", "ls", "--sigma", sigma, path)
        assert (code, out, err) == (2, "", f"error: {message}\n"), sigma


def test_audit_usage_errors(write, capsys):
    first = write("a.txt", EXAMPLE_2[0])
    second = write("b.txt", EXAMPLE_2[1])
    code, _, err = run(
        capsys, "audit", "--axiom", "CS", "--method", "ls", "--sigma", "2,1,3,4", first, second
    )
    assert code == 2 and "--sigma" in err
    code, _, err = run(
        capsys, "audit", "--axiom", "CS", "--method", "ls", "--changed-pair", "1,2", first, second
    )
    assert code == 2 and "--changed-pair" in err
    code, _, err = run(capsys, "audit", "--axiom", "CS", "--method", "ls", first)
    assert code == 2 and "2 problem files" in err
    code, _, err = run(capsys, "audit", "--axiom", "SYM", "--method", "ls", first, second)
    assert code == 2 and "1 problem file" in err
    code, _, err = run(capsys, "audit", "--axiom", "XYZ", "--method", "ls", first, second)
    assert code == 2
    code, _, err = run(
        capsys, "audit", "--axiom", "IIR", "--method", "ls", first, first
    )
    assert code == 2 and "--changed-pair" in err  # zero differing pairs


def test_audit_witness_shape_exit(write, capsys):
    first = write("a.txt", EXAMPLE_2[0])
    second = write("b.txt", EXAMPLE_2[1])
    code, _, err = run(capsys, "audit", "--axiom", "RCS", "--method", "ls", first, second)
    assert code == 2 and "match" in err.lower()


def test_audit_precondition_exit(write, capsys):
    path = write("ex1.txt", EXAMPLE_1)
    code, _, err = run(capsys, "audit", "--axiom", "INV", "--method", "fb", path)
    assert code == 3


def test_search_finds_tie_preservation_witness(capsys):
    code, out, _ = run(
        capsys,
        "search", "--axiom", "EP", "--method", "fb",
        "--min-n", "4", "--max-n", "4", "--max-matches", "1",
        "--domain", "roundrobin",
    )
    assert code == 1
    assert "witnesses found: 1" in out
    assert "--- witness 1 ---" in out
    assert "-- second problem --" in out
    assert "labels: X1 X2 X3 X4" in out
    assert "in the sum" in out  # the replayed violation is printed


def test_search_reports_empty_space(capsys):
    code, out, _ = run(
        capsys,
        "search", "--axiom", "CS", "--method", "score",
        "--min-n", "3", "--max-n", "3", "--max-matches", "1",
        "--domain", "roundrobin",
    )
    assert code == 0
    assert "no violation found (space exhausted)" in out


def test_search_random_mode(capsys):
    args = (
        "search", "--axiom", "EP", "--method", "fb",
        "--min-n", "3", "--max-n", "4", "--max-matches", "2",
        "--mode", "random", "--seed", "7", "--budget", "400",
    )
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second


def test_search_random_mode_without_hits_reports_budget(capsys):
    # A random run covers only its draws, so it never claims the space.
    code, out, _ = run(
        capsys,
        "search", "--axiom", "CS", "--method", "score",
        "--min-n", "3", "--max-n", "3", "--max-matches", "1",
        "--mode", "random", "--budget", "150",
    )
    assert code == 0
    assert "examined 150 candidates" in out
    assert "no violation found (budget reached)" in out


def test_search_usage_errors(capsys):
    code, _, err = run(
        capsys,
        "search", "--axiom", "EP", "--method", "fb",
        "--min-n", "1", "--max-n", "3", "--max-matches", "1",
    )
    assert code == 2 and "at least 2" in err
    code, _, err = run(
        capsys,
        "search", "--axiom", "EP", "--method", "fb",
        "--min-n", "5", "--max-n", "4", "--max-matches", "1",
    )
    assert code == 2 and "empty" in err


def test_reproduce_exit_codes(capsys):
    code, out, _ = run(capsys, "reproduce", "--example", "1")
    assert code == 0
    assert "SKIPPED (reducible; extension out of scope)" in out
    code, out, _ = run(capsys, "reproduce", "--example", "5")
    assert code == 1
    assert out.count("FAIL") == 6
    code, out, _ = run(capsys, "reproduce", "--example", "3")
    assert code == 0 and "FAIL" not in out


def test_reproduce_all(capsys):
    code, out, _ = run(capsys, "reproduce", "--example", "all")
    assert code == 1
    assert "total: 219 passed, 6 failed" in out


def test_reproduce_rejects_unknown_example():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["reproduce", "--example", "9"])
    assert excinfo.value.code == 2


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        cli.main([])
    assert excinfo.value.code == 2


def test_closed_pipe_exits_1_without_a_traceback(write, monkeypatch, capsys):
    # A reader that stops early, as `pairrank search ... | head -n 1` does,
    # closes the pipe. Nothing is raised, nothing reaches stderr, and the
    # status is 1 whatever the command's would be: a short ranking breaks
    # at the last flush, fifty witnesses halfway through.
    path = write("p.txt", EXAMPLE_4)
    hunt = ["search", "--axiom", "INV", "--method", "fb", "--min-n", "5", "--max-n", "5"]
    hunt += ["--max-matches", "1", "--domain", "roundrobin", "--limit", "50"]
    for argv in (["rank", "--method", "score", path], hunt):
        read, written = os.pipe()
        os.close(read)
        with open(written, "w") as closed:
            monkeypatch.setattr(sys, "stdout", closed)
            assert cli.main(argv) == 1, argv
        assert capsys.readouterr().err == "", argv
    monkeypatch.undo()
    assert run(capsys, "rank", "--method", "score", path)[0] == 0

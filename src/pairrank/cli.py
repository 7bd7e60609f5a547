"""Command line front end.

Four subcommands: ``rank`` rates the objects of one tournament file,
``audit`` checks an axiom on an explicit witness, ``search`` hunts for
violating witnesses over a bounded grid of small problems, and
``reproduce`` replays the built-in worked examples.

Exit status: 0 when the requested check passed (or a ranking was
printed), 1 when a violation was found, a reproduction failed or the
reader of standard output closed it before all output was written, 2 on
usage, parse or witness-shape problems, 3 when a method's precondition
is not met by the input.
"""

from __future__ import annotations

import argparse
import os
import sys

from .axioms import (
    Axiom,
    AxiomKind,
    ChangedPairWitness,
    PairWitness,
    SingleWitness,
    run_check,
    same_objects,
)
from .errors import (
    MethodPreconditionError,
    NotSingleDifference,
    PreconditionUnmet,
    RankingError,
)
from .io import parse_problem, parse_rational, render_matrix, render_rating
from .methods import METHOD_KEYS, REASONABLE, Method, ranking
from .model import Permutation, RankingProblem, changed_pairs
from .reproduce import render_reports, reproduce_many
from .search import DOMAINS, MODES, SearchConfig, search

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3


def _build_method(key: str, epsilon: str | None) -> Method:
    if key == "grs":
        if epsilon is None:
            raise ValueError(
                "--method grs needs --epsilon (a positive rational or 'reasonable')"
            )
    elif epsilon is not None:
        raise ValueError(f"--epsilon does not apply to --method {key}")
    if epsilon is None:
        return Method(key)
    if epsilon == REASONABLE:
        return Method(key, REASONABLE)
    return Method(key, parse_rational(epsilon))


def _load_problem(path: str, form: str) -> RankingProblem:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    return parse_problem(text, form)


def _parse_sigma(text: str) -> Permutation:
    try:
        images = [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"--sigma takes comma-separated one-based indices, like 2,3,1; got {text!r}") from None
    if sorted(images) != list(range(1, len(images) + 1)):
        raise ValueError(f"--sigma {text} is not a permutation of 1..{len(images)}")
    return Permutation.from_one_based(images)


def _parse_pair(text: str, n: int) -> tuple[int, int]:
    try:
        i, j = (int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"--changed-pair takes two comma-separated one-based indices, like 3,4; got {text!r}") from None
    if i == j or not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"--changed-pair {text} is not a pair of distinct objects among 1..{n}")
    return i - 1, j - 1


def _detect_changed_pair(first: RankingProblem, second: RankingProblem) -> tuple[int, int]:
    diffs = changed_pairs(first, second)
    if len(diffs) != 1:
        raise NotSingleDifference(
            f"the problems differ on {len(diffs)} pairs; exactly one is needed"
            " (or pass --changed-pair)"
        )
    return diffs[0]


def _cmd_rank(args: argparse.Namespace) -> int:
    method = _build_method(args.method, args.epsilon)
    problem = _load_problem(args.file, args.format)
    rating = method.rate(problem)
    sys.stdout.write(render_rating(rating, exact_only=args.exact))
    return EXIT_OK


def _cmd_audit(args: argparse.Namespace) -> int:
    axiom = Axiom.from_id(args.axiom)
    method = _build_method(args.method, args.epsilon)
    if args.sigma is not None and axiom is not Axiom.NEU:
        raise ValueError("--sigma only applies to --axiom NEU")
    if args.changed_pair is not None and axiom.kind is not AxiomKind.INDEPENDENCE:
        raise ValueError("--changed-pair only applies to IIM and IIR")
    files = [args.file] + ([args.file2] if args.file2 is not None else [])
    wanted = 1 if axiom.kind is AxiomKind.INVARIANCE else 2
    if len(files) != wanted:
        raise ValueError(
            f"{axiom.ident} takes {wanted} problem file{'s' if wanted == 2 else ''}"
        )
    problems = [_load_problem(path, args.format) for path in files]
    if axiom.kind is AxiomKind.INVARIANCE:
        sigma = _parse_sigma(args.sigma) if args.sigma is not None else None
        witness = SingleWitness(problems[0], sigma)
    elif axiom.kind is AxiomKind.ADDITIVITY:
        witness = PairWitness(problems[0], problems[1])
    else:
        # A label mismatch comes before any reading of the edited pair.
        first, second = same_objects(*problems)
        pair = (
            _parse_pair(args.changed_pair, first.size)
            if args.changed_pair is not None
            else _detect_changed_pair(first, second)
        )
        witness = ChangedPairWitness(first, second, pair)
    report = run_check(axiom, method, witness)
    print(f"{axiom.ident} ({axiom.title}) for {report.method}: {report.verdict}")
    print(f"witness: {report.context}")
    for violation in report.violations:
        print(violation.describe())
    return EXIT_OK if report.satisfied else EXIT_VIOLATION


def _cmd_search(args: argparse.Namespace) -> int:
    axiom = Axiom.from_id(args.axiom)
    method = _build_method(args.method, args.epsilon)
    config = SearchConfig(
        object_counts=tuple(range(args.min_n, args.max_n + 1)),
        max_matches=args.max_matches,
        domain=args.domain,
        mode=args.mode,
        seed=args.seed,
        budget=args.budget,
        limit=args.limit,
    )
    result = search(method, axiom, config)
    sizes = ",".join(str(n) for n in config.object_counts)
    print(
        f"search {axiom.ident} for {method.label}: domain {config.domain},"
        f" sizes {sizes}, at most {config.max_matches} matches per pair, {config.mode}"
    )
    print(f"examined {result.examined} candidates, {result.admissible} admissible")
    if not result.found:
        state = "budget reached" if config.mode == "random" else "space exhausted"
        print(f"no violation found ({state})")
        return EXIT_OK
    print(f"witnesses found: {len(result.hits)}")
    for number, hit in enumerate(result.hits, start=1):
        print(f"--- witness {number} ---")
        witness = hit.witness
        if isinstance(witness, SingleWitness):
            sys.stdout.write(render_matrix(witness.problem))
            if witness.permutation is not None:
                image = ",".join(str(v + 1) for v in witness.permutation.image)
                print(f"sigma: {image}")
        else:
            sys.stdout.write(render_matrix(witness.first))
            print("-- second problem --")
            sys.stdout.write(render_matrix(witness.second))
            if isinstance(witness, ChangedPairWitness):
                k, l = witness.pair
                labels = witness.first.labels
                print(f"changed pair: {labels[k]},{labels[l]}")
        for violation in hit.report.violations:
            print(violation.describe())
    return EXIT_VIOLATION


def _cmd_reproduce(args: argparse.Namespace) -> int:
    numbers = range(1, 9) if args.example == "all" else [int(args.example)]
    reports = reproduce_many(numbers)
    print(render_reports(reports))
    return EXIT_OK if all(r.ok for r in reports) else EXIT_VIOLATION


def _add_axiom_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--axiom", required=True, help="one of NEU, SYM, INV, CS, FP, EP, RCS, IIM, IIR")


def _add_method_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--method", required=True, choices=METHOD_KEYS, help="rating method"
    )
    sub.add_argument(
        "--epsilon",
        default=None,
        help="row-sum parameter for grs: a positive rational like 1/4, or"
        " 'reasonable' for the bound 1/[m(n-2)]",
    )


def _add_format_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--format",
        choices=("matrix", "matches"),
        default="matrix",
        help="problem file format (default: matrix)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairrank",
        description="Exact rating of generalized paired-comparison tournaments"
        " and axiom audits of the rating methods.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    rank = commands.add_parser("rank", help="rate the objects of one tournament")
    _add_method_flags(rank)
    _add_format_flag(rank)
    rank.add_argument("--exact", action="store_true", help="print exact values only")
    rank.add_argument("file", help="tournament file")
    rank.set_defaults(func=_cmd_rank)

    audit = commands.add_parser("audit", help="check an axiom on a witness")
    _add_axiom_flag(audit)
    _add_method_flags(audit)
    _add_format_flag(audit)
    audit.add_argument(
        "--sigma",
        default=None,
        help="one-based relabelling image for NEU, like 2,1,4,3",
    )
    audit.add_argument(
        "--changed-pair",
        default=None,
        help="one-based edited pair for IIM/IIR, like 3,4 (default: detect)",
    )
    audit.add_argument("file", help="first problem file")
    audit.add_argument("file2", nargs="?", default=None, help="second problem file")
    audit.set_defaults(func=_cmd_audit)

    hunt = commands.add_parser("search", help="search for axiom violations")
    _add_axiom_flag(hunt)
    _add_method_flags(hunt)
    hunt.add_argument("--min-n", type=int, default=2, help="smallest object count")
    hunt.add_argument("--max-n", type=int, required=True, help="largest object count")
    hunt.add_argument(
        "--max-matches", type=int, required=True, help="most matches per pair"
    )
    hunt.add_argument("--domain", choices=DOMAINS, default="all")
    hunt.add_argument("--mode", choices=MODES, default="exhaustive")
    hunt.add_argument("--seed", type=int, default=0, help="random mode seed")
    hunt.add_argument(
        "--budget", type=int, default=10_000, help="random mode candidate count"
    )
    hunt.add_argument(
        "--limit", type=int, default=1, help="stop after this many witnesses"
    )
    hunt.set_defaults(func=_cmd_search)

    repro = commands.add_parser("reproduce", help="replay the built-in examples")
    repro.add_argument(
        "--example",
        required=True,
        choices=[str(k) for k in range(1, 9)] + ["all"],
        help="example number, or 'all'",
    )
    repro.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        # Flush inside the try, so that a reader that left before the last
        # write is caught below too.
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed the pipe early, as ``pairrank search ... | head``
        # does. Point stdout at the null device, so that the flush at exit
        # does not raise again, and report output left unwritten.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_VIOLATION
    except (MethodPreconditionError, PreconditionUnmet) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (RankingError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

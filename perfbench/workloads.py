"""The benchmark's workloads: seeded inputs, operations and output checks.

A workload is built from the imported package (``api``) and the seed.
Building it is the part of set-up that generates inputs; the program
under test receives only a ``SearchConfig`` or the generated matrix
text. Each operation is one call a user would make. After a pass, the
workload's ``check`` gives a failure reason (or None) per operation and
``canonical`` gives the exact text the output digest is taken over.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import identities

METHOD_KEYS = ("score", "grs", "ls", "fb", "dfb", "cfb")


@dataclass(frozen=True)
class Operation:
    name: str
    call: Callable[[], object]
    info: tuple


def _method(api, key, epsilon=None):
    if key == "grs":
        return api.Method(key, api.REASONABLE if epsilon is None else epsilon)
    return api.Method(key)


def _search_op(api, name, method, axiom, config) -> Operation:
    # ``api.search`` is looked up on every call, so a traced run sees
    # the wrapper installed on ``api``.
    return Operation(name, lambda: api.search(method, axiom, config), (method, axiom, config))


def witness_text(witness) -> str:
    """Exact text of a search witness: its problems, permutation or pair."""
    parts = [type(witness).__name__]
    for attr in ("problem", "first", "second"):
        problem = getattr(witness, attr, None)
        if problem is not None:
            parts.append(";".join(",".join(str(v) for v in row) for row in problem.tournament))
    sigma = getattr(witness, "permutation", None)
    if sigma is not None:
        parts.append("sigma=" + ",".join(str(v) for v in sigma.image))
    pair = getattr(witness, "pair", None)
    if pair is not None:
        parts.append("pair=" + ",".join(str(v) for v in pair))
    return "|".join(parts)


def _short_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _search_canonical(op: Operation, result) -> str:
    first = witness_text(result.hits[0].witness) if result.hits else "-"
    return (
        f"{op.name} found={result.found} exhausted={result.exhausted}"
        f" examined={result.examined} admissible={result.admissible}"
        f" hits={len(result.hits)} first={first}"
    )


def _replay_hits(api, op: Operation, result) -> str | None:
    method, axiom, _ = op.info
    for number, hit in enumerate(result.hits):
        try:
            satisfied = api.run_check(axiom, method, hit.witness).satisfied
        except Exception as exc:  # a witness the checker refuses is a failed operation
            return f"hit {number}: run_check raised {exc!r}"
        if satisfied:
            return f"hit {number} is accepted by run_check"
    return None


class AtlasRR4:
    """Every (method, axiom) cell, searched exhaustively.

    Why: it stresses the exhaustive path of the ``search`` layer, that is
    enumeration, the evaluator cache, the integer score path and the
    per-pair ``axioms`` cores, with ``methods``/``linalg`` at n <= 4 on
    cache misses. The grid is fixed, so the seed is ignored. CS, RCS and
    EP under grs and ls are left out: each re-walks the 266 463 pairs
    the score cells already walk, and together they take about 80% of
    the full atlas's time.
    """

    name = "atlas-rr4"
    config = dict(object_counts=(3, 4), max_matches=1, domain="roundrobin")
    skipped = {(key, ax) for key in ("grs", "ls") for ax in ("CS", "RCS", "EP")}

    # Per cell, as taken at the seed commit: found, examined, admissible
    # and a hash of the first witness's exact text.
    expected = {
        "NEU/score": (False, 16902, 16902, None),
        "SYM/score": (False, 2, 2, None),
        "INV/score": (False, 756, 756, None),
        "CS/score": (False, 266463, 266463, None),
        "FP/score": (False, 126, 126, None),
        "EP/score": (False, 266463, 266463, None),
        "RCS/score": (False, 266463, 266463, None),
        "IIM/score": (False, 8748, 8748, None),
        "IIR/score": (False, 8748, 8748, None),
        "NEU/grs": (False, 16902, 16902, None),
        "SYM/grs": (False, 2, 2, None),
        "INV/grs": (False, 756, 756, None),
        "FP/grs": (False, 126, 126, None),
        "IIM/grs": (False, 8748, 8748, None),
        "IIR/grs": (False, 8748, 8748, None),
        "NEU/ls": (False, 16902, 16902, None),
        "SYM/ls": (False, 2, 2, None),
        "INV/ls": (False, 756, 756, None),
        "FP/ls": (False, 126, 126, None),
        "IIM/ls": (False, 8748, 8748, None),
        "IIR/ls": (False, 8748, 8748, None),
        "NEU/fb": (False, 16902, 12564, None),
        "SYM/fb": (False, 2, 2, None),
        "INV/fb": (True, 4, 1, "327c44c4d28c"),
        "CS/fb": (True, 89, 8, "c44aa2110f1f"),
        "FP/fb": (False, 126, 126, None),
        "EP/fb": (True, 89, 8, "c44aa2110f1f"),
        "RCS/fb": (True, 89, 8, "c44aa2110f1f"),
        "IIM/fb": (True, 376, 32, "408ac83b291e"),
        "IIR/fb": (True, 376, 32, "408ac83b291e"),
        "NEU/dfb": (False, 16902, 12564, None),
        "SYM/dfb": (False, 2, 2, None),
        "INV/dfb": (True, 4, 1, "327c44c4d28c"),
        "CS/dfb": (True, 89, 8, "c44aa2110f1f"),
        "FP/dfb": (False, 126, 126, None),
        "EP/dfb": (True, 89, 8, "c44aa2110f1f"),
        "RCS/dfb": (True, 89, 8, "c44aa2110f1f"),
        "IIM/dfb": (True, 363, 21, "7092c1acfc9b"),
        "IIR/dfb": (True, 363, 21, "7092c1acfc9b"),
        "NEU/cfb": (False, 16902, 12564, None),
        "SYM/cfb": (False, 2, 2, None),
        "INV/cfb": (False, 756, 558, None),
        "CS/cfb": (True, 21833, 1222, "83f2287f55ae"),
        "FP/cfb": (False, 126, 126, None),
        "EP/cfb": (True, 22554, 1778, "3c7d0d62f38c"),
        "RCS/cfb": (True, 21833, 1222, "83f2287f55ae"),
        "IIM/cfb": (True, 402, 43, "8408a2cc5ace"),
        "IIR/cfb": (True, 402, 43, "8408a2cc5ace"),
    }

    def build(self, api, seed: int) -> list[Operation]:
        config = api.SearchConfig(**self.config)
        ops = []
        for key in METHOD_KEYS:
            method = _method(api, key)
            for axiom in api.Axiom:
                if (key, axiom.ident) not in self.skipped:
                    ops.append(_search_op(api, f"{axiom.ident}/{key}", method, axiom, config))
        return ops

    def check(self, api, ops, outputs) -> list[str | None]:
        reasons = []
        for op, result in zip(ops, outputs):
            first = _short_hash(witness_text(result.hits[0].witness)) if result.hits else None
            got = (result.found, result.examined, result.admissible, first)
            want = self.expected.get(op.name)
            if got != want:
                reasons.append(f"{op.name}: got {got}, expected {want}")
            elif result.exhausted == result.found:
                reasons.append(f"{op.name}: exhausted={result.exhausted} with found={result.found}")
            else:
                reasons.append(_replay_hits(api, op, result))
        return reasons

    def canonical(self, op, result) -> str:
        return _search_canonical(op, result)


class RandomProbes:
    """One random-mode search per axiom, 2 100 draws each, no witness limit.

    Why: it uses the ``search`` layer the other way. Every draw goes
    through the public checker (``axioms.run_check``), which builds new
    problems and calls ``derive``, ``negate``, ``permute`` and
    ``sum_problems``, and nothing is cached, so ``model`` and ``axioms``
    carry this workload. The probes are the five of acceptance
    criterion 8 plus one for each axiom they miss. The checks count the
    draws and replay every hit but pin no particular draw, because the
    random-mode seed streams are due to be re-derived.
    """

    name = "random-probes"
    budget = 2_100
    probes = (
        ("EP", "fb", None),
        ("INV", "fb", None),
        ("CS", "ls", None),
        ("RCS", "cfb", None),
        ("IIM", "grs", Fraction(1, 4)),
        ("NEU", "grs", None),
        ("SYM", "cfb", None),
        ("FP", "ls", None),
        ("IIR", "dfb", None),
    )

    def build(self, api, seed: int) -> list[Operation]:
        ops = []
        for index, (ident, key, epsilon) in enumerate(self.probes):
            digest = hashlib.sha256(f"{self.name}:{seed}:{index}".encode()).digest()
            config = api.SearchConfig(
                object_counts=(3, 4),
                max_matches=2,
                mode="random",
                seed=int.from_bytes(digest[:4], "big"),
                budget=self.budget,
                limit=self.budget + 1,  # more than the draws: never reached
            )
            method = _method(api, key, epsilon)
            ops.append(_search_op(api, f"{ident}/{method.label}", method, api.Axiom[ident], config))
        return ops

    def check(self, api, ops, outputs) -> list[str | None]:
        reasons = []
        for op, result in zip(ops, outputs):
            if result.examined != self.budget or not result.exhausted:
                reasons.append(f"{op.name}: examined {result.examined} of {self.budget} draws")
            elif not 0 <= len(result.hits) <= result.admissible <= result.examined:
                reasons.append(f"{op.name}: inconsistent counts")
            else:
                reasons.append(_replay_hits(api, op, result))
        return reasons

    def canonical(self, op, result) -> str:
        return _search_canonical(op, result)


def tournament(rng: random.Random, n: int, max_matches: int) -> list[list[Fraction]]:
    """A random tournament that is irreducible by construction.

    Each pair plays 0 to ``max_matches`` matches, each won, lost or drawn
    (half a point each). Along a random cyclic order every object then
    gets a positive score against the next one, by adding a drawn match
    or, when the pair has played its maximum, turning one loss into a
    draw. That cycle makes the "scored against" digraph strongly
    connected.
    """
    half = Fraction(1, 2)
    t = [[Fraction(0)] * n for _ in range(n)]
    played = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            games = rng.randint(0, max_matches)
            for _ in range(games):
                outcome = rng.randrange(3)
                if outcome == 0:
                    t[i][j] += 1
                elif outcome == 1:
                    t[i][j] += half
                    t[j][i] += half
                else:
                    t[j][i] += 1
            played[i][j] = played[j][i] = games
    order = list(range(n))
    rng.shuffle(order)
    for a, b in zip(order, order[1:] + order[:1]):
        if t[a][b] == 0:
            if played[a][b] < max_matches:
                played[a][b] = played[b][a] = played[a][b] + 1
            else:
                t[b][a] -= 1
            t[a][b] += half
            t[b][a] += half
    return t


def matrix_text(t) -> str:
    """The matrix file format that ``pairrank rank`` reads."""
    n = len(t)
    lines = ["labels: " + " ".join(f"P{i + 1:02d}" for i in range(n)), str(n)]
    lines += [" ".join(str(v) for v in row) for row in t]
    return "\n".join(lines) + "\n"


def _rank(api, text: str, method):
    # What ``pairrank rank`` does in-process.
    problem = api.parse_problem(text)
    rating = method.rate(problem)
    return rating, api.render_rating(rating)


def _check_rendering(rating, text: str) -> str | None:
    lines = text.splitlines()
    if len(lines) != len(rating.values) + 1:
        return "render: wrong number of lines"
    index = {label: i for i, label in enumerate(rating.labels)}
    shown = []
    for line in lines[:-1]:
        cells = line.split("\t")
        if len(cells) != 3 or cells[0] not in index:
            return f"render: unexpected line {line!r}"
        label, exact, _ = cells
        if Fraction(exact) != rating.values[index.pop(label)]:
            return f"render: {label} shown as {exact}"
        shown.append(Fraction(exact))
    if index or shown != sorted(shown, reverse=True):
        return "render: objects missing or not best first"
    return None


class RankN32:
    """Seeded 32-object tournaments, each rated by all six methods.

    Why: it stresses the exact ``linalg`` kernels at a size where the
    growth of Fraction numerators and denominators dominates; ``search``
    is never entered. Pairs play up to 3 matches with draws, so entries
    are half-integers and the tournaments are irreducible, which every
    method needs.
    """

    name = "rank-n32"
    tournaments = 24
    objects = 32
    max_matches = 3

    def build(self, api, seed: int) -> list[Operation]:
        ops = []
        for index in range(self.tournaments):
            rng = random.Random(f"{self.name}:{seed}:{index}")
            t = tournament(rng, self.objects, self.max_matches)
            if not identities.is_irreducible(t):
                raise RuntimeError(f"generated tournament {index} is reducible")
            text = matrix_text(t)
            for key in METHOD_KEYS:
                method = _method(api, key)
                ops.append(
                    Operation(
                        f"t{index:02d}/{key}",
                        lambda text=text, method=method: _rank(api, text, method),
                        (index, key, t),
                    )
                )
        return ops

    def check(self, api, ops, outputs) -> list[str | None]:
        by_index = {}
        reasons = []
        for op, (rating, rendered) in zip(ops, outputs):
            index, key, t = op.info
            checked = by_index.setdefault(index, {})
            reason = identities.check_rating(
                key, t, rating.values, rating.epsilon, checked.get("fb"), checked.get("dfb")
            ) or _check_rendering(rating, rendered)
            if reason is None:
                checked[key] = list(rating.values)
            reasons.append(reason and f"{op.name}: {reason}")
        return reasons

    def canonical(self, op, output) -> str:
        rating, rendered = output
        return f"{op.name} eps={rating.epsilon} " + ",".join(str(v) for v in rating.values)


WORKLOADS = {w.name: w for w in (AtlasRR4(), RandomProbes(), RankN32())}

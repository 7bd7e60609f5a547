"""Exact defining identities of the six rating methods.

Every check takes the tournament exactly as the benchmark generated it
(a square list of Fractions) and the rating values the program returned.
It uses only Fraction and int arithmetic, never ``pairrank.linalg``, and
returns None when the identity holds or a short reason when it does not.
Ratings are put over one common denominator first, so each identity is
checked as an equation between integers.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from math import lcm


def _scaled(values) -> tuple[list[int], int]:
    """Integers X and a denominator D > 0 with values[i] == X[i] / D."""
    d = lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def _doubled(t) -> list[list[int]]:
    # Every generated entry is a multiple of 1/2.
    return [[int(2 * v) for v in row] for row in t]


def _transpose(t):
    return [list(col) for col in zip(*t)]


def score_vector(t) -> list[Fraction]:
    """Row sums of T - T^t."""
    n = len(t)
    return [sum((t[i][j] - t[j][i] for j in range(n)), Fraction(0)) for i in range(n)]


def matches(t) -> list[list[int]]:
    n = len(t)
    return [[int(t[i][j] + t[j][i]) if i != j else 0 for j in range(n)] for i in range(n)]


def reasonable_epsilon(t) -> Fraction:
    """1 / (m (n - 2)), m the largest number of matches a pair played."""
    return Fraction(1, max(map(max, matches(t))) * (len(t) - 2))


def is_irreducible(t) -> bool:
    """True when the digraph with an arc i -> j for t[i][j] > 0 is strongly connected."""
    n = len(t)
    for arcs in (t, _transpose(t)):
        seen = {0}
        queue = deque([0])
        while queue:
            v = queue.popleft()
            for w in range(n):
                if arcs[v][w] > 0 and w not in seen:
                    seen.add(w)
                    queue.append(w)
        if len(seen) != n:
            return False
    return True


def _laplacian_times(m, x) -> list[int]:
    """(diag(degrees) - M) x for an integer match matrix M."""
    n = len(m)
    return [sum(m[i]) * x[i] - sum(m[i][j] * x[j] for j in range(n)) for i in range(n)]


def _check_score(t, values):
    if list(values) != score_vector(t):
        return "score: values differ from the row sums of T - T^t"
    return None


def _check_grs(t, values, epsilon):
    # (I + eps L) x = (1 + eps m n) s, scaled by 2 q D for eps = p / q.
    expected = reasonable_epsilon(t)
    if epsilon != expected:
        return f"grs: epsilon {epsilon} is not the reasonable bound {expected}"
    m = matches(t)
    n = len(t)
    p, q = expected.numerator, expected.denominator
    x, d = _scaled(values)
    lx = _laplacian_times(m, x)
    s2 = [int(2 * v) for v in score_vector(t)]
    rhs_factor = q + p * max(map(max, m)) * n
    for i in range(n):
        if 2 * (q * x[i] + p * lx[i]) != d * rhs_factor * s2[i]:
            return f"grs: row {i} of (I + eps L) x = (1 + eps m n) s fails"
    return None


def _check_ls(t, values):
    # L q = s and sum(q) = 0, scaled by 2 D.
    q, d = _scaled(values)
    lq = _laplacian_times(matches(t), q)
    s2 = [int(2 * v) for v in score_vector(t)]
    for i in range(len(t)):
        if 2 * lq[i] != d * s2[i]:
            return f"ls: row {i} of L q = s fails"
    if sum(q) != 0:
        return "ls: ratings do not sum to zero"
    return None


def _check_fair_bets(t, values, name):
    # (T - diag(losses)) v = 0 with v > 0 and sum(v) = 1, scaled by 2 D.
    v, d = _scaled(values)
    t2 = _doubled(t)
    n = len(t)
    losses2 = [sum(t2[j][i] for j in range(n)) for i in range(n)]
    for i in range(n):
        if sum(t2[i][j] * v[j] for j in range(n)) != losses2[i] * v[i]:
            return f"{name}: row {i} of (T - diag(losses)) v = 0 fails"
    if any(x <= 0 for x in v):
        return f"{name}: the fixed point is not positive"
    if sum(v) != d:
        return f"{name}: the fixed point does not sum to 1"
    return None


def check_rating(key, t, values, epsilon=None, fb=None, dfb=None) -> str | None:
    """Check ``values`` against the defining identity of method ``key``.

    ``cfb`` is checked as fb + dfb, so it needs the fb and dfb values of
    the same tournament, each already checked on its own.
    """
    values = list(values)
    if len(values) != len(t):
        return f"{key}: {len(values)} values for {len(t)} objects"
    if key == "score":
        return _check_score(t, values)
    if key == "grs":
        return _check_grs(t, values, epsilon)
    if key == "ls":
        return _check_ls(t, values)
    if key == "fb":
        return _check_fair_bets(t, values, "fb")
    if key == "dfb":
        return _check_fair_bets(_transpose(t), [-v for v in values], "dfb")
    if key == "cfb":
        if fb is None or dfb is None:
            return "cfb: no checked fb and dfb values to compare with"
        if values != [a + b for a, b in zip(fb, dfb)]:
            return "cfb: values differ from fb + dfb"
        return None
    raise ValueError(f"no identity for method {key!r}")

"""Timing spans for the traced run, and the per-layer metrics built on them.

The tracer replaces functions at the sites where the package looks them
up (a module global, a class attribute, or the benchmark's own ``api``
namespace) with wrappers that record a span: name, start, end and the
index of the enclosing span. Spans are kept in flat arrays in memory
and written out once, at the end. A span's self time is its duration
minus the durations of its direct children; children run one after the
other, so that is the part of the interval they cover. The per-layer
metrics give durations at the reference speed of ``speed.py``, with one
factor for each tree of spans, so that self times stay consistent.
"""

from __future__ import annotations

import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

NO_PARENT = -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.linalg_ops = 0  # computed: sum of n**3 over solve and nullspace_1d calls
        self._stack = [NO_PARENT]
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        name_id = self._id(name)

        def traced(*args, **kwargs):
            index = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    def wrap_kernel(self, name: str, fn):
        """Like ``wrap``, and adds n**3 for an n-row matrix argument to ``linalg_ops``."""
        traced = self.wrap(name, fn)

        def counted(a, *args):
            self.linalg_ops += len(a) ** 3
            return traced(a, *args)

        return counted

    def wrap_rate(self, fn):
        """Wrap ``Method.rate`` under one span name per method key."""
        ids: dict[str, int] = {}

        def traced(method, problem):
            name_id = ids.get(method.key)
            if name_id is None:
                name_id = ids[method.key] = self._id(f"methods.{method.key}")
            index = self._open(name_id)
            try:
                return fn(method, problem)
            finally:
                self._close(index)

        return traced

    def patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self, api) -> None:
        """Wrap every layer boundary the per-layer metrics are read from."""
        methods = sys.modules["pairrank.methods"]
        axioms = sys.modules["pairrank.axioms"]
        # ``import pairrank.search`` would give the search function that
        # the package re-exports under the module's name.
        search = sys.modules["pairrank.search"]
        for attr, name in (("search", "search"), ("parse_problem", "io.parse"), ("render_rating", "io.render")):
            self.patch(api, attr, self.wrap(name, getattr(api, attr)))
        for attr in ("solve", "nullspace_1d"):
            self.patch(methods.linalg, attr, self.wrap_kernel(f"linalg.{attr}", getattr(methods.linalg, attr)))
        self.patch(methods.linalg, "mat_vec", self.wrap("linalg.mat_vec", methods.linalg.mat_vec))
        for attr in ("derive", "is_connected", "is_irreducible", "negate"):
            self.patch(methods, attr, self.wrap(f"model.{attr}", getattr(methods, attr)))
        for attr in ("derive", "flat_results", "negate", "permute", "sum_problems"):
            self.patch(axioms, attr, self.wrap(f"model.{attr}", getattr(axioms, attr)))
        self.patch(search, "run_check", self.wrap("axioms.run_check", search.run_check))
        for attr in ("invariance_failures", "additivity_failures", "independence_failures"):
            self.patch(search, attr, self.wrap("axioms.cores", getattr(search, attr)))
        self.patch(api.Method, "rate", self.wrap_rate(api.Method.rate))
        problem = api.RankingProblem
        self.patch(problem, "__post_init__", self.wrap("model.problem", problem.__post_init__))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Write the spans as ``<path>.json`` (name table) and ``<path>.bin``
        (the arrays name, parent, start, end, one after the other)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        meta = {"names": self.names, "count": len(self.name), "arrays": ["H", "i", "d", "d"]}
        path.with_suffix(".json").write_text(json.dumps(meta) + "\n")
        with open(path.with_suffix(".bin"), "wb") as out:
            for column in (self.name, self.parent, self.start, self.end):
                column.tofile(out)


def self_times(parent, start, end, duration=None) -> tuple[list[float], list[str]]:
    """Self time of every span, plus a description of each span that
    does not lie inside its parent or has negative self time.

    ``duration`` defaults to end - start; a caller may pass durations
    with time that is not the program's removed and rescaled.
    """
    count = len(parent)
    if duration is None:
        duration = [end[i] - start[i] for i in range(count)]
    covered = [0.0] * count
    problems = []
    for i in range(count):
        p = parent[i]
        if p != NO_PARENT:
            covered[p] += duration[i]
            if start[i] < start[p] or end[i] > end[p]:
                problems.append(f"span {i} lies outside its parent {p}")
    own = [duration[i] - covered[i] for i in range(count)]
    problems += [f"span {i} has negative self time {v}" for i, v in enumerate(own) if v < 0]
    return own, problems


def scaled_durations(tracer: Tracer, meter) -> list[float]:
    """Span durations without the speed samples taken inside them, at the
    reference speed measured around each span's outermost ancestor."""
    factors: dict[int, float] = {}
    root = []
    duration = []
    for i in range(len(tracer.name)):
        p = tracer.parent[i]
        # Parents are opened before their children, so p < i.
        r = i if p == NO_PARENT else root[p]
        root.append(r)
        if r not in factors:
            factors[r] = meter.factor(tracer.start[r], tracer.end[r])
        start, end = tracer.start[i], tracer.end[i]
        duration.append((end - start - meter.sampled(start, end)) * factors[r])
    return duration


PREDICATES = ("model.is_connected", "model.is_irreducible", "model.flat_results")
TRANSFORMS = ("model.negate", "model.permute", "model.sum_problems")


def layer_metrics(tracer: Tracer, meter, search_results) -> tuple[dict, list[str]]:
    """Per-layer metrics (value, unit) from the spans and search results.

    Times are at the reference speed of ``meter``, which sampled the
    traced pass. A ``.s`` metric is the time inside spans of that name,
    children included, so ``model.transforms.s`` contains the problem
    construction it causes; a ``.self_s`` metric leaves children out.
    """
    duration = scaled_durations(tracer, meter)
    own, problems = self_times(tracer.parent, tracer.start, tracer.end, duration)
    calls = {name: 0 for name in tracer.names}
    total = {name: 0.0 for name in tracer.names}
    self_s = {name: 0.0 for name in tracer.names}
    rate_in_search = 0
    in_search = [False] * len(own)
    for i, name_id in enumerate(tracer.name):
        name = tracer.names[name_id]
        calls[name] += 1
        total[name] += duration[i]
        self_s[name] += own[i]
        p = tracer.parent[i]
        in_search[i] = name == "search" or (p != NO_PARENT and in_search[p])
        if in_search[i] and name.startswith("methods."):
            rate_in_search += 1

    def get(table, *names):
        return sum(table.get(n, 0) for n in names)

    examined = sum(r.examined for r in search_results)
    admissible = sum(r.admissible for r in search_results)
    metrics = {
        "linalg.solve.calls": (get(calls, "linalg.solve"), "count"),
        "linalg.solve.s": (get(total, "linalg.solve"), "s"),
        "linalg.nullspace_1d.calls": (get(calls, "linalg.nullspace_1d"), "count"),
        "linalg.nullspace_1d.s": (get(total, "linalg.nullspace_1d"), "s"),
        "linalg.ops": (tracer.linalg_ops, "n3"),
    }
    for key in ("score", "grs", "ls", "fb", "dfb", "cfb"):
        metrics[f"methods.{key}.calls"] = (get(calls, f"methods.{key}"), "count")
        metrics[f"methods.{key}.self_s"] = (get(self_s, f"methods.{key}"), "s")
    metrics.update({
        "model.problem.calls": (get(calls, "model.problem"), "count"),
        "model.problem.s": (get(total, "model.problem"), "s"),
        "model.derive.calls": (get(calls, "model.derive"), "count"),
        "model.derive.s": (get(total, "model.derive"), "s"),
        "model.predicates.s": (get(total, *PREDICATES), "s"),
        "model.transforms.s": (get(total, *TRANSFORMS), "s"),
        "axioms.run_check.calls": (get(calls, "axioms.run_check"), "count"),
        "axioms.run_check.self_s": (get(self_s, "axioms.run_check"), "s"),
        "axioms.cores.calls": (get(calls, "axioms.cores"), "count"),
        "axioms.cores.s": (get(total, "axioms.cores"), "s"),
        "search.self_s": (get(self_s, "search"), "s"),
        "search.examined": (examined, "count"),
        "search.admissible": (admissible, "count"),
        "search.admissible_ratio": (admissible / examined if examined else 0.0, "ratio"),
        "search.hits": (sum(len(r.hits) for r in search_results), "count"),
        "search.rate_per_examined": (rate_in_search / examined if examined else 0.0, "ratio"),
        "io.parse.s": (get(total, "io.parse"), "s"),
        "io.render.s": (get(total, "io.render"), "s"),
    })
    return metrics, problems

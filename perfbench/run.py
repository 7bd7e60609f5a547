"""Benchmark of pairrank: exhaustive atlas, random probes and 32-object ranking.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rank-n32 --seed 1 --seconds 30 --trace 0

The package is imported from the checkout's ``src/``. Set-up (import
plus input generation) is repeated and its median reported. Then whole
passes over the workload's operations run one after another, in this
single process, while another pass still fits in ``--seconds``; at
least one pass always runs. Timings are reported at a fixed reference
speed of the CPU (see ``speed.py``); the unscaled ones are printed too.
Every output is checked, and the last line of standard output is one
JSON object with the verdict and the metrics: the end-to-end ones with
``--trace 0``, the per-layer ones with ``--trace 1``. A traced run adds
one pass with timing spans around every layer boundary, reports its
per-layer times at the same reference speed, and writes the unscaled
spans to ``perfbench/out/``.

Self-tests: ``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import spans
import speed
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9


def import_package():
    """Import pairrank afresh from this checkout's ``src/``."""
    for name in [m for m in sys.modules if m == "pairrank" or m.startswith("pairrank.")]:
        del sys.modules[name]
    package = importlib.import_module("pairrank")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"pairrank was imported from {package.__file__}, not from {SRC}")
    return package


def make_api(package) -> SimpleNamespace:
    """The entry points the workloads call; a traced run wraps some of them."""
    return SimpleNamespace(
        Axiom=package.Axiom,
        Method=package.Method,
        RankingProblem=package.RankingProblem,
        REASONABLE=package.REASONABLE,
        SearchConfig=package.SearchConfig,
        parse_problem=package.parse_problem,
        render_rating=package.render_rating,
        run_check=package.run_check,
        search=package.search,
    )


def set_up(workload, seed: int):
    api = make_api(import_package())
    return api, workload.build(api, seed)


def run_pass(ops):
    """One pass over the operations: wall time, (begin, end) of each, outputs, errors."""
    gc.collect()
    intervals, outputs, errors = [], [], []
    start = perf_counter()
    for op in ops:
        begin = perf_counter()
        try:
            outputs.append(op.call())
            errors.append(None)
        except Exception as exc:  # a raising operation counts as failed; the run goes on
            outputs.append(None)
            errors.append(f"{op.name}: raised {exc!r}")
        intervals.append((begin, perf_counter()))
    return perf_counter() - start, intervals, outputs, errors


def _hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Verifier:
    """Checks the first pass in full and every later pass against it."""

    def __init__(self, workload, api, ops):
        self.workload, self.api, self.ops = workload, api, ops
        self.reference: list[str | None] | None = None
        self.attempted = 0
        self.failures: list[str] = []

    def verify(self, outputs, errors) -> None:
        self.attempted += len(self.ops)
        hashes = [
            None if error else _hash(self.workload.canonical(op, out))
            for op, out, error in zip(self.ops, outputs, errors)
        ]
        if self.reference is None:
            kept = [i for i, error in enumerate(errors) if error is None]
            reasons = self.workload.check(
                self.api, [self.ops[i] for i in kept], [outputs[i] for i in kept]
            )
            self.reference = list(hashes)
            for i, reason in zip(kept, reasons):
                if reason is not None:
                    self.reference[i] = None
                    errors[i] = reason
        else:
            for i, (got, want) in enumerate(zip(hashes, self.reference)):
                if errors[i] is None and got != want:
                    errors[i] = f"{self.ops[i].name}: output differs from the first pass"
        self.failures += [error for error in errors if error is not None]

    def digest(self) -> str:
        return _hash("\n".join(h or "failed" for h in self.reference))


def percentile(values, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def environment() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(line.split(":", 1)[1].strip() for line in info if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        commit = ref
    source = hashlib.sha256()
    for path in sorted((SRC / "pairrank").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "pairrank_commit": commit,
        "pairrank_source_sha256": source.hexdigest()[:16],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pairrank" / "__init__.py").is_file():
        print(f"no pairrank sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    sys.path.insert(0, str(SRC))

    for key, value in environment().items():
        print(f"# {key}: {value}")
    walls, passes, setups = [], [], []
    with speed.Speedometer() as meter:
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            api, ops = set_up(workload, args.seed)
            setups.append((start, perf_counter()))
        verifier = Verifier(workload, api, ops)
        while True:
            wall, intervals, outputs, errors = run_pass(ops)
            walls.append(wall)
            passes.append(intervals)
            verifier.verify(outputs, errors)
            del outputs  # so that peak memory does not depend on the number of passes
            if sum(walls) + statistics.median(walls) > args.seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw = [[end - begin for begin, end in intervals] for intervals in passes]
    scaled = [[meter.normalized(begin, end) for begin, end in intervals] for intervals in passes]
    per_op_raw = [statistics.median(column) for column in zip(*raw)]
    per_op = [statistics.median(column) for column in zip(*scaled)]
    end_to_end = {
        "setup_s": (statistics.median(meter.normalized(*interval) for interval in setups), "s"),
        "wall_s": (statistics.median(map(sum, scaled)), "s"),
        "op_p50_ms": (1000 * statistics.median(per_op), "ms"),
        "op_p90_ms": (1000 * percentile(per_op, 90), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }

    metrics = end_to_end
    span_problems: list[str] = []
    if args.trace:
        tracer = spans.Tracer()
        tracer.install(api)
        try:
            with speed.Speedometer() as traced_meter:
                _, intervals, outputs, errors = run_pass(ops)
        finally:
            tracer.restore()
        verifier.verify(outputs, errors)
        tracer.write(BENCH_DIR / "out" / f"spans-{workload.name}")
        search_results = [out for out in outputs if hasattr(out, "examined")]
        metrics, span_problems = spans.layer_metrics(tracer, traced_meter, search_results)
        traced_wall = sum(traced_meter.normalized(*interval) for interval in intervals)
        metrics["trace.overhead_s"] = (traced_wall - end_to_end["wall_s"][0], "s")
        print(f"# spans: {len(tracer.name)}, written to perfbench/out/spans-{workload.name}.*")

    failed = len(verifier.failures)
    print(f"# workload: {workload.name}, seed {args.seed}, {len(walls)} passes of {len(ops)} operations")
    print(f"# setup repeats: {SETUP_REPEATS}; latency percentiles over {len(per_op)} per-operation medians")
    for name, (value, unit) in end_to_end.items():
        print(f"{name} = {value:.6g} {unit}")
    print(
        f"# unscaled: wall {statistics.median(walls):.6g} s, op p50 {1000 * statistics.median(per_op_raw):.6g} ms,"
        f" op p90 {1000 * percentile(per_op_raw, 90):.6g} ms; {len(meter.took)} speed samples,"
        f" median {1e6 * statistics.median(meter.took):.4g} us (reference {1e6 * speed.REFERENCE_S:.4g} us)"
    )
    print(f"failed_ratio = {failed / verifier.attempted:.6g} ({failed} of {verifier.attempted})")
    print(f"# output digest: {verifier.digest()}")
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")
    for problem in (verifier.failures + span_problems)[:20]:
        print(f"# FAILED: {problem}")
    result = {
        "correct": failed == 0 and not span_problems,
        "attempted": verifier.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

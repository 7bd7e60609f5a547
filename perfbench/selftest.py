"""Self-tests of the benchmark's own code.

Run from the root of a checkout:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import random
import sys
import unittest
from array import array
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import identities  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from workloads import METHOD_KEYS, WORKLOADS, matrix_text, tournament  # noqa: E402


def _api():
    return run.make_api(run.import_package())


def _inputs(workload, api, seed):
    """Each operation's name and inputs: method, axiom and config, or the tournament."""
    return [(op.name, repr(op.info)) for op in workload.build(api, seed)]


class GeneratorTests(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        api = _api()
        for workload in WORKLOADS.values():
            with self.subTest(workload=workload.name):
                self.assertEqual(_inputs(workload, api, 5), _inputs(workload, api, 5))

    def test_seeded_workloads_depend_on_the_seed(self):
        api = _api()
        for name in ("random-probes", "rank-n32"):
            workload = WORKLOADS[name]
            self.assertNotEqual(_inputs(workload, api, 5), _inputs(workload, api, 6))

    def test_tournaments_are_irreducible_with_at_most_three_matches(self):
        for seed in range(20):
            t = tournament(random.Random(seed), 8, 3)
            self.assertTrue(identities.is_irreducible(t))
            for row in identities.matches(t):
                self.assertLessEqual(max(row), 3)

    def test_irreducibility_predicate_rejects_a_reducible_tournament(self):
        one, zero = Fraction(1), Fraction(0)
        beats_all = [[zero, one, one], [zero, zero, one], [zero, one, zero]]
        self.assertFalse(identities.is_irreducible(beats_all))


class IdentityTests(unittest.TestCase):
    def test_true_ratings_pass_and_a_perturbed_value_fails(self):
        api = _api()
        t = tournament(random.Random(3), 7, 3)
        problem = api.parse_problem(matrix_text(t))
        ratings = {key: api.Method(key, api.REASONABLE if key == "grs" else None).rate(problem)
                   for key in METHOD_KEYS}
        fb, dfb = list(ratings["fb"].values), list(ratings["dfb"].values)
        for key, rating in ratings.items():
            values = list(rating.values)
            with self.subTest(method=key):
                self.assertIsNone(identities.check_rating(key, t, values, rating.epsilon, fb, dfb))
                for i in range(len(values)):
                    bad = values[:i] + [values[i] + Fraction(1, 2**32)] + values[i + 1:]
                    self.assertIsNotNone(
                        identities.check_rating(key, t, bad, rating.epsilon, fb, dfb)
                    )


class SpanTests(unittest.TestCase):
    def test_self_time_on_a_synthetic_tree(self):
        #   0 [0, 10]
        #   +- 1 [1, 4]
        #   +- 2 [5, 9]
        #      +- 3 [6, 7]
        parent = array("i", [-1, 0, 0, 2])
        start = array("d", [0, 1, 5, 6])
        end = array("d", [10, 4, 9, 7])
        own, problems = spans.self_times(parent, start, end)
        self.assertEqual(own, [3.0, 3.0, 3.0, 1.0])
        self.assertEqual(problems, [])

    def test_bad_trees_are_reported(self):
        outside = spans.self_times(array("i", [-1, 0]), array("d", [0, 1]), array("d", [5, 6]))[1]
        self.assertTrue(any("outside" in p for p in outside))
        overlap = spans.self_times(
            array("i", [-1, 0, 0]), array("d", [0, 0, 1]), array("d", [2, 2, 2])
        )[1]
        self.assertTrue(any("negative" in p for p in overlap))

    def test_wrappers_record_parents_and_restore(self):
        class Owner:
            @staticmethod
            def inner():
                return 1

        tracer = spans.Tracer()
        inner = tracer.wrap("inner", Owner.inner)
        outer = tracer.wrap("outer", lambda: inner() + inner())
        tracer.patch(Owner, "inner", inner)
        self.assertEqual(outer(), 2)
        tracer.restore()
        self.assertNotIn("traced", Owner.inner.__qualname__)
        names = [tracer.names[i] for i in tracer.name]
        self.assertEqual(names, ["outer", "inner", "inner"])
        self.assertEqual(list(tracer.parent), [-1, 0, 0])
        self.assertEqual(spans.self_times(tracer.parent, tracer.start, tracer.end)[1], [])


class SpeedTests(unittest.TestCase):
    def test_normalization_drops_sample_time_and_rescales(self):
        meter = speed.Speedometer()
        meter.at.extend(i / 10 for i in range(21))
        meter.took.extend([2 * speed.REFERENCE_S] * 21)
        # Samples at 0.5 .. 1.0 fall inside; the machine runs at half speed.
        own = 0.55 - 6 * 2 * speed.REFERENCE_S
        self.assertAlmostEqual(meter.normalized(0.5, 1.05), own / 2)

    def test_samples_are_taken_while_entered(self):
        with speed.Speedometer() as meter:
            start = perf_counter()
            while perf_counter() - start < 5 * speed.INTERVAL:
                pass
            end = perf_counter()
        self.assertGreater(len(meter.took), 1)
        self.assertGreater(meter.normalized(start, end), 0)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Self-tests for tools/bench/ab_perfbench.py's verdict logic.

Fixture result lines stand in for perfbench runs: the tests pin result-line
parsing, quartiles, win counting with ties, the gain rule (>= 9/10 wins and
a median gap past the parent's interquartile range), the relative bound
check against BENCHMARK.json's end-to-end metrics, and the failure-share
and correctness checks of a whole workload report. No benchmark is run.

Registered as the `bench_ab_selftest` CTest.
"""

from __future__ import annotations

import json
import unittest
from pathlib import Path

import ab_perfbench as ab

ROOT = Path(__file__).resolve().parents[2]

END_TO_END = [
    {"name": "build_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.25},
]


def result_line(build_s: float, rss: float = 180.0, failed: int = 0,
                attempted: int = 100, correct: bool = True) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {"build_s": {"value": build_s, "unit": "s"},
                    "peak_rss_mb": {"value": rss, "unit": "MB"}}})


def runs(values, **kw) -> list[dict]:
    return [ab.last_json_line(result_line(v, **kw)) for v in values]


PARENT_BUILD = [7.6, 7.9, 8.0, 8.1, 7.7, 8.3, 7.8, 8.0, 8.2, 7.9]
CHANGE_BUILD = [5.3, 5.5, 5.4, 5.6, 5.2, 5.5, 5.4, 5.3, 5.7, 5.4]


class ParseTest(unittest.TestCase):
    def test_takes_the_last_non_empty_line(self):
        text = "building...\n{\"not\": \"it\"}\n" + result_line(7.5) + "\n\n"
        self.assertEqual(ab.metric(ab.last_json_line(text), "build_s"), 7.5)

    def test_rejects_output_without_a_result(self):
        with self.assertRaises(ValueError):
            ab.last_json_line("")
        with self.assertRaises(ValueError):
            ab.last_json_line("{\"correct\": true}")

    def test_seed_ranges_and_lists(self):
        self.assertEqual(ab.parse_seeds("701-703,9"), [701, 702, 703, 9])


class StatisticsTest(unittest.TestCase):
    def test_quartiles_use_statistics_quantiles(self):
        q1, med, q3 = ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual((q1, med, q3), (1.5, 3.0, 4.5))

    def test_single_run_is_its_own_quartiles(self):
        self.assertEqual(ab.quartiles([2.0]), (2.0, 2.0, 2.0))

    def test_ties_count_for_neither_side(self):
        self.assertEqual(ab.wins([1.0, 2.0, 3.0], [1.0, 1.0, 4.0], "lower"),
                         (1, 1))
        self.assertEqual(ab.wins([1.0, 2.0, 3.0], [1.0, 1.0, 4.0], "higher"),
                         (1, 1))


class GainRuleTest(unittest.TestCase):
    def test_clear_gain_holds(self):
        self.assertTrue(ab.gain_holds(PARENT_BUILD, CHANGE_BUILD, "lower"))

    def test_eight_wins_of_ten_is_not_a_gain(self):
        change = list(CHANGE_BUILD)
        change[0] = change[1] = 9.0
        self.assertEqual(ab.wins(PARENT_BUILD, change, "lower")[0], 8)
        self.assertFalse(ab.gain_holds(PARENT_BUILD, change, "lower"))

    def test_nine_wins_of_ten_is_enough(self):
        change = list(CHANGE_BUILD)
        change[0] = 9.0
        self.assertTrue(ab.gain_holds(PARENT_BUILD, change, "lower"))

    def test_gap_inside_the_parent_iqr_is_not_a_gain(self):
        # Every pair won, but by less than the parent's quartile spread.
        parent = [10.0, 12.0, 14.0, 16.0, 18.0, 10.0, 12.0, 14.0, 16.0, 18.0]
        change = [v - 0.5 for v in parent]
        self.assertEqual(ab.wins(parent, change, "lower")[0], 10)
        self.assertFalse(ab.gain_holds(parent, change, "lower"))

    def test_direction_higher(self):
        self.assertTrue(ab.gain_holds(CHANGE_BUILD, PARENT_BUILD, "higher"))
        self.assertFalse(ab.gain_holds(PARENT_BUILD, CHANGE_BUILD, "higher"))


class BoundTest(unittest.TestCase):
    def test_worse_fraction_is_relative_to_the_parent_median(self):
        self.assertAlmostEqual(
            ab.worse_fraction([10.0, 10.0], [12.0, 12.0], "lower"), 0.2)
        self.assertAlmostEqual(
            ab.worse_fraction([10.0, 10.0], [12.0, 12.0], "higher"), -0.2)

    def test_bound_edges(self):
        self.assertTrue(ab.within_bound([8.0], [10.0], "lower", 0.25))
        self.assertFalse(ab.within_bound([8.0], [10.5], "lower", 0.25))

    def test_reads_the_repository_bounds(self):
        bench = ab.load_benchmark(ROOT / "BENCHMARK.json")
        self.assertGreater(float(bench["run_seconds"]), 0.0)
        metrics = bench["end_to_end"]
        names = {m["name"] for m in metrics}
        self.assertIn("build_s", names)
        for m in metrics:
            self.assertIn(m["better"], ("lower", "higher"))
            self.assertGreater(float(m["bound"]), 0.0)


class ReportTest(unittest.TestCase):
    def test_claimed_gain_within_bounds_passes(self):
        lines, ok = ab.report("cold_build", runs(PARENT_BUILD),
                              runs(CHANGE_BUILD), END_TO_END,
                              {"cold_build:build_s"})
        self.assertTrue(ok, "\n".join(lines))

    def test_claim_without_a_gain_fails(self):
        lines, ok = ab.report("cold_build", runs(PARENT_BUILD),
                              runs(PARENT_BUILD), END_TO_END,
                              {"cold_build:build_s"})
        self.assertFalse(ok)
        self.assertTrue(any("[claimed]" in ln for ln in lines))

    def test_broken_bound_fails_without_a_claim(self):
        parent = runs(PARENT_BUILD)
        change = runs(PARENT_BUILD, rss=240.0)
        lines, ok = ab.report("cold_build", parent, change, END_TO_END,
                              set())
        self.assertFalse(ok)
        self.assertTrue(any("BROKEN" in ln and "peak_rss_mb" in ln
                            for ln in lines))

    def test_incorrect_run_fails(self):
        change = runs(CHANGE_BUILD)
        change[3]["correct"] = False
        _, ok = ab.report("cold_build", runs(PARENT_BUILD), change,
                          END_TO_END, set())
        self.assertFalse(ok)

    def test_larger_failure_share_fails(self):
        parent = runs(PARENT_BUILD, failed=0)
        change = runs(CHANGE_BUILD, failed=1)
        lines, ok = ab.report("live_feed", parent, change, END_TO_END, set())
        self.assertFalse(ok)
        self.assertTrue(any("larger share" in ln for ln in lines))


if __name__ == "__main__":
    unittest.main()

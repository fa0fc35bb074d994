#!/usr/bin/env python3
"""Self-tests for tools/bench/compare.py over the fixtures/ corpus.

The corpus holds one baseline and four current reports:
  * within_noise.json — every case present, shape keys emitted in another
    order, medians within the threshold or faster: exit 0;
  * regressed.json    — the first of two same-name shapes slows down with
    separated spreads (a comparator keyed by name alone keeps only the last
    shape and misses it): exit 1, the regressed shape named;
  * duplicate.json    — one case key twice in a report: exit 2;
  * unmatched.json    — a case present on only one side: exit 2.

Registered as the `bench_compare_selftest` CTest.
"""

from __future__ import annotations

import subprocess
import sys
import unittest
from pathlib import Path

import compare

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"


def run_compare(baseline: str, current: str):
    proc = subprocess.run(
        [sys.executable, str(HERE / "compare.py"),
         str(FIXTURES / baseline), str(FIXTURES / current)],
        capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout, proc.stderr


class CaseKeyTest(unittest.TestCase):
    def test_shape_order_does_not_change_identity(self):
        a = {"name": "push", "shape": {"sensors": 8, "ticks": 48}}
        b = {"name": "push", "shape": {"ticks": 48, "sensors": 8}}
        self.assertEqual(compare.case_key(a), compare.case_key(b))

    def test_same_name_different_shape_are_distinct(self):
        a = {"name": "push", "shape": {"sensors": 8}}
        b = {"name": "push", "shape": {"sensors": 600}}
        self.assertNotEqual(compare.case_key(a), compare.case_key(b))

    def test_label_names_the_shape(self):
        key = compare.case_key({"name": "push",
                                "shape": {"ticks": 48, "sensors": 8}})
        self.assertEqual(compare.key_label(key), "push[sensors=8,ticks=48]")

    def test_non_scalar_shape_entry_rejected(self):
        with self.assertRaises(ValueError):
            compare.case_key({"name": "push", "shape": {"rows": [1, 2]}})

    def test_every_case_loaded(self):
        _, cases = compare.load_cases(FIXTURES / "base.json")
        self.assertEqual(len(cases), 3)


class CompareExitTest(unittest.TestCase):
    def test_self_compare_passes(self):
        code, out, _ = run_compare("base.json", "base.json")
        self.assertEqual(code, 0)
        self.assertIn("(3 compared)", out)

    def test_non_regression_passes_and_sees_every_shape(self):
        code, out, _ = run_compare("base.json", "within_noise.json")
        self.assertEqual(code, 0, out)
        self.assertIn("push[sensors=8,ticks=48]", out)
        self.assertIn("push[sensors=600,ticks=64]", out)
        self.assertIn("improved", out)
        self.assertNotIn("REGRESSION", out)

    def test_regression_in_first_same_name_shape_fails(self):
        code, out, err = run_compare("base.json", "regressed.json")
        self.assertEqual(code, 1)
        self.assertIn("push[sensors=8,ticks=48]", err)
        self.assertNotIn("push[sensors=600", err)
        self.assertIn("REGRESSION", out)

    def test_duplicate_case_is_malformed(self):
        code, _, err = run_compare("base.json", "duplicate.json")
        self.assertEqual(code, 2)
        self.assertIn("duplicate case solve[n=64]", err)
        code, _, _ = run_compare("duplicate.json", "base.json")
        self.assertEqual(code, 2)

    def test_unmatched_case_is_malformed(self):
        code, _, err = run_compare("base.json", "unmatched.json")
        self.assertEqual(code, 2)
        self.assertIn("solve[n=64] only in baseline", err)
        self.assertIn("solve[n=128] only in current", err)

    def test_unreadable_report_is_malformed(self):
        code, _, _ = run_compare("base.json", "missing.json")
        self.assertEqual(code, 2)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Tests of the steadiness command's statistics and verdicts.

    python3 -m unittest discover -s slipbench -p 'test_*.py'
"""

import fractions
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import steady  # noqa: E402

METRICS = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "grid_s", "unit": "s", "better": "lower", "bound": 0.2},
    {"name": "cells_per_s", "unit": "cells/s", "better": "higher",
     "bound": 0.2},
]


def result(setup, grid, cells, attempted=100, failed=0):
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {"setup_s": {"value": setup, "unit": "s"},
                        "grid_s": {"value": grid, "unit": "s"},
                        "cells_per_s": {"value": cells,
                                        "unit": "cells/s"}}}


def steady_set(scale=1.0, setup=1.0):
    return [result(setup * (1 + 0.01 * i), scale * (5 + 0.01 * i),
                   (100 + i) / scale) for i in range(10)]


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        vals = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        q1, q2, q3 = steady.quartiles(vals)
        self.assertAlmostEqual(q2, 3.75)
        self.assertLess(q1, q2)
        self.assertLess(q2, q3)
        self.assertAlmostEqual(steady.spread(vals), (q3 - q1) / q2)

    def test_worsening_respects_direction(self):
        self.assertAlmostEqual(steady.worsening(10, 12, "lower"), 0.2)
        self.assertAlmostEqual(steady.worsening(10, 8, "higher"), 0.2)
        self.assertLess(steady.worsening(10, 8, "lower"), 0)

    def test_last_json_line(self):
        out = "report\n  grid_s 1.0 s\n{\"correct\": true}\n\n"
        self.assertEqual(steady.last_json_line(out), {"correct": True})
        with self.assertRaises(ValueError):
            steady.last_json_line("\n")


class JudgeTest(unittest.TestCase):
    def test_identical_sets_agree(self):
        ok, lines = steady.judge([steady_set(), steady_set()], METRICS)
        self.assertTrue(ok, "\n".join(lines))

    def test_slower_second_set_disagrees(self):
        ok, lines = steady.judge([steady_set(), steady_set(scale=1.3)],
                                 METRICS)
        self.assertFalse(ok)
        self.assertTrue(any("grid_s" in l and "DISAGREE" in l
                            for l in lines))
        self.assertTrue(any("cells_per_s" in l and "DISAGREE" in l
                            for l in lines))

    def test_faster_second_set_agrees(self):
        ok, _ = steady.judge([steady_set(), steady_set(scale=0.7)], METRICS)
        self.assertTrue(ok)

    def test_wide_spread_fails_except_setup(self):
        wide = steady_set()
        for i, r in enumerate(wide):
            r["metrics"]["setup_s"]["value"] = 1 + i
        ok, _ = steady.judge([wide, steady_set()], METRICS)
        self.assertTrue(ok, "setup_s spread is exempt")
        for i, r in enumerate(wide):
            r["metrics"]["grid_s"]["value"] = 1 + i
        ok, lines = steady.judge([wide, steady_set()], METRICS)
        self.assertFalse(ok)
        self.assertTrue(any("TOO WIDE" in l for l in lines))

    def test_setup_median_is_bounded(self):
        ok, lines = steady.judge([steady_set(), steady_set(setup=1.5)],
                                 METRICS)
        self.assertFalse(ok)
        self.assertTrue(any("setup_s" in l and "DISAGREE" in l
                            for l in lines))

    def test_failure_share_must_match_exactly(self):
        a = steady_set()
        b = steady_set()
        b[0] = result(1, 5, 100, attempted=100, failed=1)
        ok, lines = steady.judge([a, b], METRICS)
        self.assertFalse(ok)
        self.assertTrue(any("failed share" in l for l in lines))
        self.assertEqual(steady.failure_share(a), fractions.Fraction(0))

    def test_missing_metric_fails(self):
        a = steady_set()
        for r in a:
            del r["metrics"]["grid_s"]
        ok, _ = steady.judge([a, steady_set()], METRICS)
        self.assertFalse(ok)


if __name__ == "__main__":
    unittest.main()

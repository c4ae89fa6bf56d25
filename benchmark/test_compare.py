"""Self-tests for compare.py: the quartile-spread rule and the
parent-vs-change comparison against BENCHMARK.json bounds.

    cd benchmark && python3 -m unittest test_compare
"""

import unittest

import compare

SPEC = {
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "read_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
    ]
}


def record(workload, setup, ops, p50, correct=True, failed=0, exit=0):
    metrics = {
        "setup_s": {"value": setup, "unit": "s"},
        "ops_per_s": {"value": ops, "unit": "1/s"},
    }
    if p50 is not None:
        metrics["read_p50_ms"] = {"value": p50, "unit": "ms"}
    result = {"correct": correct, "attempted": 100, "failed": failed, "metrics": metrics}
    return {"workload": workload, "seed": 1, "trace": 0, "exit": exit, "result": result}


class SpreadTest(unittest.TestCase):
    def test_spread_is_iqr_over_median(self):
        # statistics.quantiles(n=4), default 'exclusive' method.
        self.assertAlmostEqual(compare.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]), (8.25 - 2.75) / 5.5)
        self.assertEqual(compare.spread([5.0] * 10), 0.0)

    def test_steady_runs_pass(self):
        recs = [record("w", setup=1 + i * 0.01, ops=100 + i * 0.1, p50=10 + i * 0.01) for i in range(10)]
        ok, lines = compare.check_spread(SPEC, recs)
        self.assertTrue(ok, lines)

    def test_noisy_setup_is_gated(self):
        recs = [record("w", setup=1 + (i % 2), ops=100, p50=10) for i in range(10)]
        ok, lines = compare.check_spread(SPEC, recs)
        self.assertFalse(ok)
        self.assertTrue(any("setup_s" in l and "FAIL" in l for l in lines))

    def test_invalid_run_fails(self):
        for bad in ({"correct": False}, {"failed": 1}, {"exit": 1}):
            recs = [record("w", 1, 100, 10) for _ in range(9)] + [record("w", 1, 100, 10, **bad)]
            ok, lines = compare.check_spread(SPEC, recs)
            self.assertFalse(ok, bad)
            self.assertTrue(any("INVALID" in l for l in lines))

    def test_metric_no_run_reports_fails(self):
        recs = [record("reads", 1, 100, None) for _ in range(10)]
        ok, lines = compare.check_spread(SPEC, recs)
        self.assertFalse(ok)
        self.assertTrue(any("read_p50_ms" in l and "FAIL" in l for l in lines))

    def test_metric_some_runs_drop_fails(self):
        recs = [record("w", 1, 100, 10) for _ in range(9)] + [record("w", 1, 100, None)]
        ok, _ = compare.check_spread(SPEC, recs)
        self.assertFalse(ok)

    def test_noisy_metric_fails(self):
        recs = [record("w", setup=1, ops=100 * (1 + 0.2 * (i % 2)), p50=10) for i in range(10)]
        ok, lines = compare.check_spread(SPEC, recs)
        self.assertFalse(ok)
        self.assertTrue(any("ops_per_s" in l and "FAIL" in l for l in lines))


class CompareTest(unittest.TestCase):
    def test_direction_of_worse(self):
        self.assertAlmostEqual(compare.worsening(10.0, 11.0, "lower"), 0.1)
        self.assertAlmostEqual(compare.worsening(100.0, 90.0, "higher"), 0.1)
        self.assertLess(compare.worsening(10.0, 9.0, "lower"), 0)

    def test_within_bound_passes(self):
        parent = [record("w", 1.0, 100.0, 10.0) for _ in range(3)]
        change = [record("w", 1.2, 95.0, 10.9) for _ in range(3)]
        ok, lines = compare.check_compare(SPEC, parent, change)
        self.assertTrue(ok, lines)

    def test_regression_beyond_bound_fails(self):
        parent = [record("w", 1.0, 100.0, 10.0) for _ in range(3)]
        change = [record("w", 1.0, 85.0, 10.0) for _ in range(3)]
        ok, lines = compare.check_compare(SPEC, parent, change)
        self.assertFalse(ok)
        self.assertTrue(any("ops_per_s" in l and "FAIL" in l for l in lines))

    def test_setup_regression_is_gated_in_comparison(self):
        parent = [record("w", 1.0, 100.0, 10.0)]
        change = [record("w", 1.3, 100.0, 10.0)]
        ok, _ = compare.check_compare(SPEC, parent, change)
        self.assertFalse(ok)

    def test_incorrect_change_that_looks_faster_fails(self):
        parent = [record("w", 1.0, 100.0, 10.0) for _ in range(3)]
        change = [record("w", 1.0, 150.0, 5.0, correct=False, failed=40) for _ in range(3)]
        ok, lines = compare.check_compare(SPEC, parent, change)
        self.assertFalse(ok)
        self.assertTrue(any("INVALID" in l for l in lines))

    def test_metric_absent_on_both_sides_fails(self):
        parent = [record("w", 1.0, 100.0, None)]
        change = [record("w", 1.0, 100.0, None)]
        ok, _ = compare.check_compare(SPEC, parent, change)
        self.assertFalse(ok)

    def test_metric_absent_on_one_side_fails(self):
        ok, _ = compare.check_compare(SPEC, [record("w", 1, 1, 1)], [record("w", 1, 1, None)])
        self.assertFalse(ok)

    def test_missing_workload_fails(self):
        ok, _ = compare.check_compare(SPEC, [record("w", 1, 1, 1)], [record("other", 1, 1, 1)])
        self.assertFalse(ok)


if __name__ == "__main__":
    unittest.main()

"""Unit tests of run.py's helpers and of BENCHMARK.json's metric names.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


class MetricNameTest(unittest.TestCase):
    def test_accepts_dotted_names(self):
        for name in ("setup_s", "p50_us", "core.engine.answer_ns.telemetry",
                     "probe.grid_ms.tN", "0ms", "a-b"):
            self.assertTrue(run.valid_metric_name(name), name)

    def test_rejects_other_characters(self):
        for name in ("", "p50 us", "cable_comcast/run_s", "latency_µs",
                     ".hidden", "_x", "run_s\n", None, 7):
            self.assertFalse(run.valid_metric_name(name), repr(name))

    def test_length_limit(self):
        self.assertTrue(run.valid_metric_name("a" * 64))
        self.assertFalse(run.valid_metric_name("a" * 65))

    def test_benchmark_json_names(self):
        spec = run.load_spec()
        names = [m["name"] for group in ("end_to_end", "per_layer")
                 for m in spec[group]]
        self.assertEqual(len(names), len(set(names)))
        self.assertTrue(all(run.valid_metric_name(n) for n in names))
        self.assertIn("setup_s", names)

    def test_load_spec_rejects_bad_name(self):
        path = os.path.join(run.BUILD, "test_spec.json")
        os.makedirs(run.BUILD, exist_ok=True)
        with open(path, "w") as f:
            json.dump({"end_to_end": [{"name": "a/b"}]}, f)
        try:
            with self.assertRaises(run.BenchError):
                run.load_spec(path)
        finally:
            os.remove(path)


class SpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [1.0, 2.0, 4.0, 8.0, 3.0, 5.0, 7.0, 6.0, 9.0, 10.0]
        med, q1, q3, rel = run.spread(values)
        sq1, smed, sq3 = statistics.quantiles(values, n=4)
        self.assertEqual(med, statistics.median(values))
        self.assertEqual((q1, q3), (sq1, sq3))
        self.assertAlmostEqual(rel, (sq3 - sq1) / smed)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(run.spread([2.0] * 10)[3], 0.0)


class SteadinessTest(unittest.TestCase):
    def test_verdict_thresholds(self):
        self.assertEqual(run.verdict(0.08, 0.25), "steady")
        self.assertEqual(run.verdict(0.09, 0.25), "within")
        self.assertEqual(run.verdict(0.25, 0.25), "within")
        self.assertEqual(run.verdict(0.26, 0.25), "NOISY")

    def test_setup_s_gets_a_verdict_like_any_metric(self):
        spec = run.load_spec()
        bound = next(m["bound"] for m in spec["end_to_end"]
                     if m["name"] == "setup_s")
        self.assertEqual(run.verdict(0.19, bound), "within")

    def test_drift_is_positive_when_worse(self):
        self.assertAlmostEqual(run.drift(10.0, 12.0, "lower"), 0.2)
        self.assertAlmostEqual(run.drift(10.0, 8.0, "lower"), -0.2)
        self.assertAlmostEqual(run.drift(10.0, 8.0, "higher"), 0.2)
        self.assertAlmostEqual(run.drift(10.0, 12.0, "higher"), -0.2)


if __name__ == "__main__":
    unittest.main()

"""Self-check of the benchmark's aggregation and of its metric catalogue.

  python3 perfbench/run.py --self-test
"""

import json
import os
import statistics
import unittest

import aggregate

HERE = os.path.dirname(os.path.abspath(__file__))


class QuartileTest(unittest.TestCase):
    def test_median_and_quartiles_match_statistics(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 8.0, 6.0, 10.0]
        q1, med, q3 = aggregate.quartiles(values)
        self.assertEqual((q1, med, q3), tuple(statistics.quantiles(values, n=4)))
        self.assertEqual(med, 5.5)
        self.assertEqual(aggregate.summarize(values)["median"], 5.5)

    def test_odd_count_median_is_the_middle_sample(self):
        s = aggregate.summarize([3.0, 1.0, 2.0])
        self.assertEqual(s["median"], 2.0)
        self.assertEqual(s["n"], 3)
        self.assertLessEqual(s["q1"], s["median"])
        self.assertGreaterEqual(s["q3"], s["median"])

    def test_single_sample_is_its_own_quartiles(self):
        self.assertEqual(aggregate.quartiles([4.0]), (4.0, 4.0, 4.0))

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            aggregate.quartiles([])


class TailPercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        # Ten samples: even the median has only five beyond it.
        self.assertIsNone(aggregate.tail_percentile(list(range(10))))
        # Twenty: p50 has ten beyond it, p75 only five.
        self.assertEqual(aggregate.tail_percentile(list(range(1, 21))), (50.0, 10))

    def test_highest_qualifying_percentile(self):
        values = list(range(1, 1001))
        # p99 leaves exactly ten samples beyond it; p99.9 leaves one.
        self.assertEqual(aggregate.tail_percentile(values), (99.0, 990))
        self.assertEqual(aggregate.tail_percentile(values[:999]), (95.0, 950))

    def test_nearest_rank(self):
        self.assertEqual(aggregate.percentile([1, 2, 3, 4], 50), 2)
        self.assertEqual(aggregate.percentile([1, 2, 3, 4], 51), 3)
        self.assertEqual(aggregate.percentile([7], 99), 7)


class FailRatioTest(unittest.TestCase):
    def test_counts(self):
        self.assertEqual(aggregate.fail_ratio(40, 0), 0.0)
        self.assertEqual(aggregate.fail_ratio(40, 10), 0.25)
        self.assertEqual(aggregate.fail_ratio(1, 1), 1.0)

    def test_rejects_impossible_counts(self):
        with self.assertRaises(ValueError):
            aggregate.fail_ratio(0, 0)
        with self.assertRaises(ValueError):
            aggregate.fail_ratio(3, 4)


class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        spans = [
            {"name": "pass", "id": 0, "parent": -1, "t0": 0.0, "t1": 10.0},
            {"name": "runner", "id": 1, "parent": 0, "t0": 1.0, "t1": 4.0},
            {"name": "runner", "id": 2, "parent": 0, "t0": 4.0, "t1": 9.0},
            {"name": "inner", "id": 3, "parent": 2, "t0": 5.0, "t1": 6.0},
        ]
        st = aggregate.self_times(spans)
        self.assertEqual(st["pass"], (1, 10.0, 2.0))
        self.assertEqual(st["runner"], (2, 8.0, 7.0))
        self.assertEqual(st["inner"], (1, 1.0, 1.0))

    def test_overlapping_children_count_once(self):
        spans = [
            {"name": "simulate", "id": 0, "parent": -1, "t0": 0.0, "t1": 10.0},
            {"name": "job", "id": 1, "parent": 0, "t0": 1.0, "t1": 6.0},
            {"name": "job", "id": 2, "parent": 0, "t0": 2.0, "t1": 7.0},
            {"name": "job", "id": 3, "parent": 0, "t0": 8.0, "t1": 12.0},
        ]
        st = aggregate.self_times(spans)
        # Children cover [1, 7] and [8, 10] of the parent's [0, 10].
        self.assertEqual(st["simulate"], (1, 10.0, 2.0))

    def test_absent_patterns(self):
        absent = {"job.*": "not in this workload", "trace.recorder_s": "messaging only"}
        self.assertEqual(aggregate.absent_reason("job.TSP.orig.run_s", absent),
                         "not in this workload")
        self.assertEqual(aggregate.absent_reason("trace.recorder_s", absent), "messaging only")
        self.assertIsNone(aggregate.absent_reason("sim.events", absent))


class CatalogueTest(unittest.TestCase):
    def test_every_per_layer_metric_says_what_it_moves(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            spec = json.load(f)
        with open(os.path.join(HERE, "layers.json")) as f:
            layers = json.load(f)
        self.assertEqual([m["name"] for m in spec["per_layer"]], list(layers["per_layer"]))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(layers["workloads"]))


if __name__ == "__main__":
    unittest.main()

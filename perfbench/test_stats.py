"""Self-tests of the benchmark's own statistics and input generation.

    python3 perfbench/test_stats.py
"""

import os
import random
import statistics
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402
import stats  # noqa: E402


class MedianAndQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        values = [random.Random(5).random() for _ in range(10)]
        self.assertEqual(list(stats.quartiles(values)),
                         statistics.quantiles(values, n=4))

    def test_quartiles_of_one_to_ten(self):
        # The exclusive method: positions (n+1)p = 2.75 and 8.25.
        self.assertEqual(stats.quartiles(range(1, 11)), (2.75, 5.5, 8.25))

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(stats.spread(range(1, 11)), 5.5 / 5.5)
        self.assertEqual(stats.spread([2.0] * 10), 0.0)


class Percentiles(unittest.TestCase):
    def test_percentile_interpolates_between_ranks(self):
        values = list(range(101))
        self.assertEqual(stats.percentile(values, 90), 90)
        self.assertEqual(stats.percentile([0, 10], 25), 2.5)
        self.assertEqual(stats.percentile([7], 99), 7)

    def test_tail_percentile_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.tail_percentile(19))
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertEqual(stats.tail_percentile(99), 50.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(999), 90.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(10000), 99.9)


class RegressionBound(unittest.TestCase):
    parent = [1.0, 1.1, 0.9, 1.0, 1.0]

    def test_lower_is_better(self):
        self.assertFalse(stats.regressed(self.parent, [1.09] * 5, 0.1, "lower"))
        self.assertTrue(stats.regressed(self.parent, [1.11] * 5, 0.1, "lower"))
        self.assertFalse(stats.regressed(self.parent, [0.5] * 5, 0.1, "lower"))

    def test_higher_is_better(self):
        self.assertFalse(stats.regressed(self.parent, [0.91] * 5, 0.1,
                                         "higher"))
        self.assertTrue(stats.regressed(self.parent, [0.89] * 5, 0.1,
                                        "higher"))

    def test_medians_not_means(self):
        # One outlier moves the mean past the bound but not the median.
        change = [1.0, 1.0, 1.0, 1.0, 9.0]
        self.assertFalse(stats.regressed(self.parent, change, 0.1, "lower"))

    def test_unknown_direction(self):
        with self.assertRaises(ValueError):
            stats.regressed(self.parent, self.parent, 0.1, "sideways")


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        a = run.job_lines(["paper_tables"], 7)[0]
        b = run.job_lines(["paper_tables"], 7)[0]
        c = run.job_lines(["paper_tables"], 8)[0]
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)

    def test_first_job_is_the_fixed_warm_up(self):
        for w in run.WORKLOADS:
            firsts = {run.job_lines([w], seed)[1][0] for seed in (1, 2, 3)}
            self.assertEqual(firsts, {run.WARMUP[w]})

    def test_every_generated_job_has_a_recorded_digest(self):
        import json
        with open(run.EXPECTED) as f:
            expected = json.load(f)
        for w in run.WORKLOADS:
            for seed in (3, run.HELD_OUT_SEED):
                _, keys = run.job_lines([w], seed)
                self.assertTrue(set(keys.values()) <= set(expected), w)

    def test_held_out_seed_draws_only_inputs_no_other_seed_can(self):
        for w in run.WORKLOADS:
            dev = set(run.pool(w, held_out=False))
            held_out = set(run.pool(w, held_out=True))
            self.assertFalse(dev & held_out, w)
            self.assertGreaterEqual(len(held_out), run.ROUND_JOBS, w)
            _, keys = run.job_lines([w], run.HELD_OUT_SEED)
            self.assertTrue(set(list(keys.values())[1:]) <= held_out, w)
            for seed in range(1, 21):
                _, keys = run.job_lines([w], seed)
                self.assertTrue(set(list(keys.values())[1:]) <= dev, w)

    def test_closing_checker_specs(self):
        self.assertTrue(run.closes(("MCV", "section3", 10)))
        self.assertFalse(run.closes(("MCV", "section3", 9)))
        self.assertFalse(run.closes(("LDV", "section3", 7)))

    def test_a_round_is_distinct_inputs_balanced_over_placements(self):
        for w in run.WORKLOADS:
            _, keys = run.job_lines([w], 4)
            round_keys = [keys[i] for i in range(1, len(keys))]
            self.assertGreaterEqual(len(round_keys), run.ROUND_JOBS)
            self.assertEqual(len(set(round_keys)), len(round_keys))
            if w != "check_closure":
                configs = [k.split()[1] for k in round_keys]
                for c in run.CONFIGS:
                    self.assertEqual(configs.count("config=" + c),
                                     run.ROUND_JOBS // len(run.CONFIGS))


class LeastOverEqualTries(unittest.TestCase):
    def test_least_time_per_input_over_equal_tries(self):
        # Input 1 ran three times, input 2 twice: input 1's third, faster
        # run must not count.
        jobs = [[1, 0.5, "d", 1.0, 0], [2, 0.9, "d", 2.0, 0],
                [1, 0.4, "d", 1.0, 0], [2, 1.0, "d", 2.0, 0],
                [1, 0.1, "d", 1.0, 0]]
        best, tries = run.per_input_times(jobs)
        self.assertEqual(sorted(best), [(0.4, 1.0), (0.9, 2.0)])
        self.assertEqual(tries, 2)

    def test_least_over_workers(self):
        jobs = [[1, 0.5, "d", 1.0, 0], [2, 0.9, "d", 2.0, 0],
                [2, 0.3, "d", 2.0, 1], [1, 0.7, "d", 1.0, 1]]
        best, tries = run.per_input_times(jobs)
        self.assertEqual(sorted(best), [(0.3, 2.0), (0.5, 1.0)])
        self.assertEqual(tries, 2)

    def test_failed_runs_have_no_time(self):
        jobs = [[1, 0.5, "d", 1.0, 0], [1, 0.0, "error", 0, 0],
                [2, 0.9, "d", 2.0, 0]]
        best, tries = run.per_input_times(jobs)
        self.assertEqual(sorted(best), [(0.5, 1.0), (0.9, 2.0)])
        self.assertEqual(tries, 1)


if __name__ == "__main__":
    unittest.main()

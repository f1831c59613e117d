"""Tests of the benchmark's statistics helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import random
import unittest

import stats


class TailTest(unittest.TestCase):
    def test_ten_samples_beyond(self):
        values = list(range(1, 101))  # 1..100
        value, pct, n = stats.tail(values)
        self.assertEqual(n, 100)
        self.assertEqual(value, 90)
        self.assertEqual(sum(v > value for v in values), 10)
        self.assertAlmostEqual(pct, 90.0)

    def test_highest_such_sample(self):
        values = list(range(57))
        value, _, _ = stats.tail(values)
        # One rank higher would leave only nine samples beyond it.
        self.assertEqual(sum(v > value for v in values), 10)

    def test_too_few_samples(self):
        self.assertIsNone(stats.tail(list(range(10))))
        self.assertIsNotNone(stats.tail(list(range(11))))

    def test_order_does_not_matter(self):
        values = [random.Random(3).random() for _ in range(40)]
        shuffled = values[:]
        random.Random(4).shuffle(shuffled)
        self.assertEqual(stats.tail(values), stats.tail(shuffled))

    def test_tail_not_below_median_of_same_samples(self):
        rng = random.Random(7)
        for n in range(22, 200):
            values = [rng.lognormvariate(0.0, 0.5) for _ in range(n)]
            value, _, count = stats.tail(values)
            self.assertEqual(count, n)
            self.assertGreaterEqual(value, stats.median(values), n)

    def test_ties_count_as_samples(self):
        value, _, n = stats.tail([5.0] * 30)
        self.assertEqual((value, n), (5.0, 30))


class SpreadTest(unittest.TestCase):
    def test_quartile_spread(self):
        values = [10.0, 10.0, 11.0, 9.0, 10.0, 10.0, 12.0, 8.0, 10.0, 10.0]
        spread = stats.quartile_spread(values)
        self.assertGreater(spread, 0.0)
        self.assertLess(spread, 0.2)

    def test_precision_bits(self):
        self.assertAlmostEqual(stats.precision_bits(2.0 ** -14), 14.0)
        self.assertAlmostEqual(stats.precision_bits(0.0), 60.0)


class SeedTest(unittest.TestCase):
    def test_streams_are_distinct_and_stable(self):
        a = [stats.seed_stream(1, p) for p in (1, 2, 3)]
        self.assertEqual(len(set(a)), 3)
        self.assertEqual(a, [stats.seed_stream(1, p) for p in (1, 2, 3)])
        self.assertNotEqual(stats.seed_stream(1, 1), stats.seed_stream(2, 1))

    def test_splitmix_reference_value(self):
        # splitmix64 of 0 (first output of the reference generator).
        self.assertEqual(stats.splitmix64(0), 0xE220A8397B1DCDAF)


class ScheduleTest(unittest.TestCase):
    def test_reproducible(self):
        a = stats.open_loop_schedule(5, 30.0, 10.0, 48)
        b = stats.open_loop_schedule(5, 30.0, 10.0, 48)
        self.assertEqual(a, b)
        self.assertNotEqual(a, stats.open_loop_schedule(6, 30.0, 10.0, 48))

    def test_poisson_rate_and_order(self):
        ev = stats.open_loop_schedule(11, 50.0, 200.0, 48)
        times = [t for t, _, _ in ev]
        self.assertEqual(times, sorted(times))
        self.assertTrue(all(0.0 < t < 200.0 for t in times))
        # 10,000 expected arrivals: within 3% of the rate.
        self.assertAlmostEqual(len(ev) / 200.0, 50.0, delta=1.5)
        gaps = [b - a for a, b in zip(times, times[1:])]
        mean = sum(gaps) / len(gaps)
        var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
        # Exponential gaps: standard deviation equals the mean.
        self.assertAlmostEqual(var ** 0.5 / mean, 1.0, delta=0.05)

    def test_zipf_ranks_and_replacements(self):
        ev = stats.open_loop_schedule(13, 50.0, 200.0, 48)
        ranks = [r for _, r, rep in ev if not rep]
        self.assertTrue(all(0 <= r < 48 for r in ranks))
        counts = [ranks.count(r) for r in range(48)]
        # Zipf(1.1): rank 0 about twice rank 1 (2^1.1), far above rank 47.
        self.assertAlmostEqual(counts[0] / counts[1], 2.0 ** 1.1, delta=0.3)
        self.assertGreater(counts[0], 10 * counts[47])
        cdf = stats.zipf_cdf(48, 1.1)
        self.assertAlmostEqual(counts[0] / len(ranks), cdf[0], delta=0.02)
        replaced = sum(rep for _, _, rep in ev) / len(ev)
        self.assertAlmostEqual(replaced, 1.0 / 20, delta=0.01)


class GateTest(unittest.TestCase):
    def test_error_bound(self):
        wrong, near = stats.gate([0.01, 0.2], [True, True], [1.0, 1.0], 0.1)
        self.assertEqual((wrong, near), (1, 0))

    def test_near_tie_is_not_a_failure(self):
        # Argmax flipped, but the cleartext top-2 gap (0.005) is within
        # twice the bound: the error allowed could close it.
        wrong, near = stats.gate([0.013], [False], [0.0048], 0.05)
        self.assertEqual((wrong, near), (0, 1))

    def test_flip_with_a_clear_gap_fails(self):
        wrong, near = stats.gate([0.013], [False], [0.5], 0.05)
        self.assertEqual((wrong, near), (1, 0))



class IntervalTest(unittest.TestCase):
    def test_union_merges_overlaps(self):
        self.assertEqual(stats.union_intervals([(5, 9), (0, 2), (1, 3),
                                                (9, 10)]),
                         [(0, 3), (5, 10)])

    def test_overlap(self):
        regs = stats.union_intervals([(10, 20), (30, 40)])
        self.assertEqual(stats.overlap_ns(0, 10, regs), 0)
        self.assertEqual(stats.overlap_ns(15, 35, regs), 10)
        self.assertEqual(stats.overlap_ns(0, 100, regs), 20)

if __name__ == "__main__":
    unittest.main()

"""Statistics, seeding and correctness helpers of the benchmark.

Pure functions only (no I/O), so test_stats.py can pin each rule:

- ``tail``: the highest order statistic with at least ten samples beyond
  it, reported with its percentile and the sample count.
- ``seed_stream``: every input of a run derives from one seed.
- ``open_loop_schedule``: seeded Poisson arrivals with Zipf session picks
  and occasional session replacements.
- ``gate``: the per-image correctness rule that cannot flip on near-ties.
- ``union_intervals``/``overlap_ns``: how much of a request overlaps
  registrations.
"""

import bisect
import math
import random
import statistics

MASK64 = (1 << 64) - 1
TAIL_BEYOND = 10


def splitmix64(x):
    """One splitmix64 step (the same mixer the harness uses)."""
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def seed_stream(seed, purpose):
    """The sub-seed of one input family (images, keys, schedule...)."""
    return splitmix64(splitmix64(seed & MASK64) ^ splitmix64(purpose))


def median(values):
    return statistics.median(values)


def tail(values, beyond=TAIL_BEYOND):
    """(value, percentile, n) of the highest sample with >= `beyond`
    samples above it in sorted order, or None when n <= beyond.

    The value is an order statistic of the same samples the median is
    taken over, so it can never sit below the median once n >= 2 * beyond
    + 2.
    """
    n = len(values)
    if n <= beyond:
        return None
    k = n - beyond  # 1-based rank of the tail sample
    return sorted(values)[k - 1], 100.0 * k / n, n


def quartile_spread(values):
    """(Q3 - Q1) / median, the run-to-run spread the bounds are set from."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def precision_bits(max_abs_err):
    """-log2 of the worst absolute error over a run."""
    return -math.log2(max(max_abs_err, 2.0 ** -60))


def gate(max_err, argmax_match, top2_gap, bound):
    """Per-image verdicts: (wrong, near_ties).

    An image is wrong when its max absolute error exceeds `bound`, or when
    its argmax differs from the cleartext one although the cleartext top-2
    gap exceeds twice the bound (a gap that small error cannot close). An
    argmax flip inside that gap is a near tie: counted, never a failure.
    """
    wrong = near = 0
    for err, match, gap in zip(max_err, argmax_match, top2_gap):
        if err > bound:
            wrong += 1
        elif not match:
            if gap > 2.0 * bound:
                wrong += 1
            else:
                near += 1
    return wrong, near


def union_intervals(intervals):
    """Sorted, disjoint (lo, hi) intervals covering the same points."""
    out = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def overlap_ns(lo, hi, disjoint):
    """Length of [lo, hi) covered by the disjoint intervals."""
    total = 0
    for a, b in disjoint:
        total += max(0, min(hi, b) - max(lo, a))
    return total


def zipf_cdf(n, s):
    """Cumulative Zipf(s) weights over ranks 0..n-1 (rank 0 hottest)."""
    cdf, total = [], 0.0
    for r in range(1, n + 1):
        total += 1.0 / r ** s
        cdf.append(total)
    return [c / total for c in cdf]


def open_loop_schedule(seed, rate, duration, sessions, zipf_s=1.1,
                       replace_every=20):
    """Seeded open-loop arrivals: a list of (t_seconds, rank, replace).

    Inter-arrival gaps are exponential at `rate` per second (a Poisson
    process) up to `duration`. Each arrival picks a session rank from
    Zipf(`zipf_s`); about one arrival in `replace_every` is instead a
    replacement, which retires the coldest session and registers a new
    one in its place (its rank is unused). The same arguments always give
    the same schedule.
    """
    rng = random.Random(seed)
    cdf = zipf_cdf(sessions, zipf_s)
    events, t = [], 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= duration:
            return events
        replace = rng.random() < 1.0 / replace_every
        rank = min(bisect.bisect_left(cdf, rng.random()), sessions - 1)
        events.append((t, rank, replace))

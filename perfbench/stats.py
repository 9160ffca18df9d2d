"""Order statistics the benchmark reports, and the checks built on them."""

import statistics

# Percentiles a timing may be reported at, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)
# A reported percentile needs at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First quartile, median and third quartile, as
    statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the first and third quartile, as a share of the
    median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def percentile(values, p):
    """The p-th percentile (0..100), linear between closest ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_percentile(n):
    """The highest ladder percentile with at least MIN_TAIL_SAMPLES of n
    samples beyond it, or None when even the median has too few."""
    best = None
    for p in PERCENTILE_LADDER:
        # Rounded: 100 - 99.9 is not exactly 0.1 in binary.
        if round(n * (100.0 - p) / 100.0, 9) >= MIN_TAIL_SAMPLES:
            best = p
    return best


def regressed(parent, change, bound, better):
    """True when the change's median is worse than the parent's by more
    than `bound`, a share of the parent's median."""
    base = median(parent)
    now = median(change)
    if better == "lower":
        return now > base * (1.0 + bound)
    if better == "higher":
        return now < base * (1.0 - bound)
    raise ValueError("better must be 'lower' or 'higher', not %r" % better)

"""Percentiles and per-window aggregation.

Every timing is reported as a median over measurement windows; a tail
percentile is only reported when at least ten samples lie beyond it
(choosing-metrics §1), which for p99 means 1000 samples per window.
"""

from __future__ import annotations

import math
import statistics

#: Samples a percentile needs beyond it before it may be reported.
BEYOND = 10


def percentile(ordered, fraction):
    """Nearest-rank percentile of an already sorted sequence."""
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = int(len(ordered) * fraction)
    return ordered[min(len(ordered) - 1, rank)]


def samples_needed(fraction):
    """Smallest sample count with :data:`BEYOND` samples past ``fraction``."""
    # rounded first: 1 - 0.9 is a hair under 0.1 in binary floating point
    return math.ceil(round(BEYOND / (1.0 - fraction), 6))


def aggregate(values):
    """Median over windows with the min/max spread."""
    values = list(values)
    return {
        "value": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "windows": values,
    }


def spread_share(values):
    """Interquartile distance as a share of the median — the driver's
    own steadiness figure (``statistics.quantiles(values, n=4)``)."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return abs(q3 - q1) / abs(middle) if middle else 0.0

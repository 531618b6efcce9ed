"""Order statistics for the benchmark's timings."""

from __future__ import annotations

import math


def percentile(values: list[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(values: list[float]) -> float:
    return percentile(values, 0.5)


def geomean(values: list[float]) -> float:
    if not values:
        raise ValueError("geometric mean of no samples")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def geomean_of_medians(samples: dict[str, list[float]]) -> float:
    """Geometric mean over keys of each key's median sample."""
    return geomean([median(values) for values in samples.values()])

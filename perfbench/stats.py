"""The statistics the benchmark reports.

Timings are summarised as a median plus a tail percentile chosen by
one rule: the highest percentile of :data:`LADDER` that still has at
least :data:`MIN_BEYOND` samples ranked beyond it (nearest-rank
method, so every reported value is an observed sample).  With fewer
samples than any rung allows, the tail figure is the maximum.
"""

from __future__ import annotations

import math
import re
import statistics
from typing import Optional, Sequence, Tuple

#: Percentiles the tail rule may report, lowest first.
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: Samples that must rank beyond a reported percentile.
MIN_BEYOND = 10

#: Metric names: a letter or digit, then letters, digits, ``_ . -``.
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def is_metric_name(name: str) -> bool:
    """Whether ``name`` follows the metric-name grammar."""
    return METRIC_NAME.fullmatch(name) is not None


def nearest_rank(ordered: Sequence[float], percentile: float) -> float:
    """The nearest-rank ``percentile`` of already sorted samples."""
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(samples: Sequence[float]) -> Tuple[float, float]:
    """``(percentile, value)``: the highest ladder percentile with at
    least :data:`MIN_BEYOND` samples beyond it, else ``(100, max)``."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    n = len(ordered)
    chosen: Optional[float] = None
    for percentile in LADDER:
        rank = max(1, math.ceil(percentile / 100.0 * n))
        if n - rank >= MIN_BEYOND:
            chosen = percentile
    if chosen is None:
        return 100.0, ordered[-1]
    return chosen, nearest_rank(ordered, chosen)


def median(samples: Sequence[float]) -> float:
    """The median (mean of the middle pair for an even count)."""
    return statistics.median(samples)

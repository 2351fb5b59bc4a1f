"""Order statistics shared by every workload."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

import numpy as np
from scipy.special import betainc

#: A percentile is reported only when at least this many samples lie
#: beyond it (the latency percentile rule).
MIN_TAIL = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def percentile_rank(count: int, q: float) -> int:
    """1-based nearest-rank position of the ``q``-th percentile."""
    if count < 1:
        raise ValueError("percentile of no samples")
    return max(1, math.ceil(q / 100.0 * count))


def tail_count(count: int, q: float) -> int:
    """Samples ranked beyond the ``q``-th percentile of ``count`` samples."""
    return count - percentile_rank(count, q)


def quantile(values: Sequence[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q``-th percentile.

    A weighted mean of all order statistics with Beta weights centred on
    the percentile's rank.  Serve latencies fall on the callers' 0.1 s
    polling grid, so a nearest-rank percentile jumps a whole poll
    interval whenever the share of jobs on one grid step crosses the
    percentile; this estimate moves smoothly instead.
    """
    ordered = np.sort(np.asarray(values, dtype=float))
    count = len(ordered)
    if count == 0:
        raise ValueError("percentile of no samples")
    p = q / 100.0
    edges = betainc(p * (count + 1), (1 - p) * (count + 1),
                    np.arange(count + 1) / count)
    return float(np.dot(np.diff(edges), ordered))

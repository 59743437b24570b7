"""How a list of timings becomes reported numbers.

A timing is reported as its median plus the highest percentile of
:data:`PERCENTILES` that still has at least :data:`MIN_BEYOND` samples
beyond it, together with the sample count, so a tail is never quoted
from a handful of points.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence, Tuple

PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100) of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int) -> Optional[float]:
    """The highest reportable percentile for ``n`` samples, or ``None``."""
    for p in PERCENTILES:
        if math.floor(n * (1.0 - p / 100.0) + 1e-9) >= MIN_BEYOND:
            return p
    return None


def describe(samples: Sequence[float]) -> Dict[str, Optional[float]]:
    """``{"n", "p50", "tail_p", "tail"}`` for a list of timings."""
    n = len(samples)
    if n == 0:
        return {"n": 0, "p50": None, "tail_p": None, "tail": None}
    tail_p = tail_percentile(n)
    return {
        "n": n,
        "p50": statistics.median(samples),
        "tail_p": tail_p,
        "tail": percentile(samples, tail_p) if tail_p is not None else None,
    }


def spread(values: Sequence[float]) -> Tuple[float, float]:
    """``(median, relative spread)`` of repeated runs of one metric.

    The spread is the distance between the first and third quartiles
    (``statistics.quantiles(n=4)``) over the median; with fewer than
    four runs it falls back to the range over the median.
    """
    median = statistics.median(values)
    if len(values) >= 4:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        width = q3 - q1
    else:
        width = max(values) - min(values)
    return median, (width / abs(median) if median else 0.0)

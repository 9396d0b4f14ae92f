"""Order statistics the benchmark reports, in one place so tests can pin them."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: A percentile is reported only with at least this many samples beyond it.
SAMPLES_BEYOND = 10

#: Candidate tail percentiles, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _rank(n_samples: int, pct: float) -> int:
    """Nearest rank of the ``pct`` percentile among ``n_samples`` (1-based)."""
    # Rounded first: 99.9 / 100 * 10000 is 9990.000000000002 in floating point.
    return max(1, math.ceil(round(pct * n_samples / 100.0, 9)))


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``samples`` (``pct`` in 0..100)."""
    if not samples:
        raise ValueError("percentile of no samples")
    return sorted(samples)[_rank(len(samples), pct) - 1]


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples)


def tail_percentile(n_samples: int) -> float:
    """The highest candidate percentile with >= 10 samples beyond it.

    With fewer than 20 samples no tail is supported and the median is all
    that can be said, so 50.0 comes back.
    """
    for pct in TAIL_CANDIDATES:
        if n_samples - _rank(n_samples, pct) >= SAMPLES_BEYOND:
            return pct
    return 50.0


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the driver's rule).

    Falls back to (max - min) / median below four values, where quartiles
    are not defined well enough to mean anything.
    """
    mid = statistics.median(values)
    if not mid:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(mid)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(mid)

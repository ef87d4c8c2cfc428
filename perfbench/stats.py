"""Choice of the tail percentile reported for step timings."""

from __future__ import annotations

import math

# candidate tail percentiles, lowest first
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def tail_percentile(n: int) -> float:
    """Highest LADDER percentile with at least MIN_BEYOND of n samples above it.

    With fewer than 2 * MIN_BEYOND samples no tail is resolvable and the
    median (50) is returned, so the tail metric then equals the median.
    """
    best = LADDER[0]
    for q in LADDER:
        if math.floor(n * (1.0 - q / 100.0) + 1e-9) >= MIN_BEYOND:
            best = q
    return best

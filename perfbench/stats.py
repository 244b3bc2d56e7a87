"""Percentiles with the sample-count rule used for every reported timing."""

from __future__ import annotations

import math

MIN_BEYOND = 10  # samples that must lie above a reported percentile


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0-100) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int, want: int = 90) -> int | None:
    """Highest whole percentile up to ``want`` with ``MIN_BEYOND`` samples
    above it; None when ``n`` samples support no percentile at all.

    A p90 therefore needs 100 samples; 40 samples support p75.
    """
    if n <= MIN_BEYOND:
        return None
    return min(want, math.floor(100 * (n - MIN_BEYOND) / n))


def latency_summary(values_ms: list[float], want: int = 90) -> dict:
    """Median and the highest supported tail percentile, with the sample count."""
    out: dict = {"n": len(values_ms)}
    if not values_ms:
        return out
    out["p50"] = percentile(values_ms, 50)
    tail = tail_percentile(len(values_ms), want)
    if tail is not None and tail > 50:
        out["tail_pct"] = tail
        out["tail"] = percentile(values_ms, tail)
    return out

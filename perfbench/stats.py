"""Summaries of timing samples: median, tail and quartile spread."""

from __future__ import annotations

import statistics
from typing import Optional, Sequence, Tuple

#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def tail(values: Sequence[float]) -> Optional[Tuple[float, float, int]]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(percentile, value, sample count)``: with ``n`` sorted
    samples the value at 1-based rank ``r`` has ``n - r`` samples beyond
    it, so the answer is rank ``n - 10`` at percentile ``100 (n - 10) / n``.
    ``None`` when there are too few samples for any such percentile.
    """
    n = len(values)
    rank = n - TAIL_BEYOND
    if rank < 1:
        return None
    return 100.0 * rank / n, sorted(values)[rank - 1], n


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def describe(values: Sequence[float], scale: float = 1.0,
             unit: str = "") -> str:
    """``median`` plus the tail rule, for a human-readable line."""
    if not values:
        return "no samples"
    text = f"p50 {median(values) * scale:.4g} {unit} (n={len(values)}"
    t = tail(values)
    if t is None:
        text += f"; no percentile has {TAIL_BEYOND} samples beyond it)"
    else:
        text += f"; p{t[0]:.1f} {t[1] * scale:.4g} {unit})"
    return text

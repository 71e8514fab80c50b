"""Miss-latency distribution tracking.

The figures report averages; for timing analysis (e.g. the 3-hop
ablation) a distribution is more informative.  ``LatencyHistogram`` keeps
fixed power-of-two buckets — cheap enough to be always-on — plus exact
percentile queries over the bucket boundaries.
"""

from __future__ import annotations

from typing import Dict, List


class LatencyHistogram:
    """Power-of-two bucketed latency histogram."""

    def __init__(self, max_exponent: int = 16):
        self.max_exponent = max_exponent
        # bucket i holds samples with 2^i <= latency < 2^(i+1); bucket 0
        # also holds 0- and 1-cycle samples.
        self.buckets: List[int] = [0] * (max_exponent + 1)
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None

    def record(self, latency: int) -> None:
        if latency < 0:
            raise ValueError("latency must be non-negative")
        index = latency.bit_length() - 1
        if index > self.max_exponent:
            index = self.max_exponent
        elif index < 0:
            index = 0
        self.buckets[index] += 1
        self.count += 1
        self.total += latency
        if self.min is None or latency < self.min:
            self.min = latency
        if self.max is None or latency > self.max:
            self.max = latency

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile_bound(self, fraction: float) -> int:
        """Upper bucket boundary containing the given percentile."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        if self.count == 0:
            return 0
        threshold = fraction * self.count
        running = 0
        for index, count in enumerate(self.buckets):
            running += count
            if running >= threshold:
                return 2 ** (index + 1) - 1
        return 2 ** (self.max_exponent + 1) - 1

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": round(self.mean, 2),
            "min": self.min or 0,
            "max": self.max or 0,
            "p50<=": self.percentile_bound(0.50),
            "p95<=": self.percentile_bound(0.95),
            "p99<=": self.percentile_bound(0.99),
        }

    def to_dict(self) -> Dict:
        """JSON-serializable state; exact inverse of :meth:`from_dict`."""
        return {
            "max_exponent": self.max_exponent,
            "buckets": list(self.buckets),
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "LatencyHistogram":
        """Tolerant inverse of :meth:`to_dict` (unknown keys ignored,
        missing keys default — the result cache's forward-compat rule)."""
        hist = cls(max_exponent=data.get("max_exponent", 16))
        hist.buckets = list(data.get("buckets", hist.buckets))
        hist.count = data.get("count", 0)
        hist.total = data.get("total", 0)
        hist.min = data.get("min")
        hist.max = data.get("max")
        return hist

    def nonzero_buckets(self) -> List[tuple]:
        """[(low, high, count), ...] for populated buckets."""
        out = []
        for index, count in enumerate(self.buckets):
            if count:
                low = 0 if index == 0 else 2 ** index
                out.append((low, 2 ** (index + 1) - 1, count))
        return out

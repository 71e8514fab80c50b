"""Lightweight wall-clock phase timers.

A :class:`PhaseTimers` accumulates elapsed seconds per named phase
(``simulate``, ``flush``...).  Phases are additive — timing the same
phase twice sums — so per-run timers merge naturally into sweep-level
totals.  Timings are wall-clock and therefore nondeterministic: they
are *never* serialized into cached results, only surfaced through live
objects (``result.phase_seconds``, ``repro events --summary``).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict


class PhaseTimers:
    """Accumulated per-phase wall-clock seconds."""

    def __init__(self):
        self.seconds: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}

    @contextmanager
    def phase(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - start)

    def add(self, name: str, seconds: float) -> None:
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds
        self.counts[name] = self.counts.get(name, 0) + 1

    def get(self, name: str) -> float:
        return self.seconds.get(name, 0.0)

    def to_dict(self, precision: int = 6) -> Dict[str, float]:
        return {name: round(secs, precision)
                for name, secs in sorted(self.seconds.items())}

    def merge(self, other: "PhaseTimers") -> None:
        for name, secs in other.seconds.items():
            self.seconds[name] = self.seconds.get(name, 0.0) + secs
        for name, count in other.counts.items():
            self.counts[name] = self.counts.get(name, 0) + count

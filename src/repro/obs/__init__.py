"""``repro.obs``: zero-cost-when-off observability for the simulator.

Three independent facilities, bundled into one :class:`Observability`
session that the machine assembly threads through a run:

* :class:`~repro.obs.metrics.MetricsRegistry` — named, labeled counters
  and histograms unifying the ad-hoc :mod:`repro.stats` counters behind a
  mergeable wire form (per-worker registries are merged back across the
  experiment engine's process pool);
* :class:`~repro.obs.timers.PhaseTimers` — wall-clock phase timing
  (simulate, flush) surfaced as ``result.phase_seconds``;
* :class:`~repro.obs.events.EventTrace` — a bounded ring buffer of
  structured per-transaction records (request -> directory actions ->
  message sequence -> granted state) with JSONL export.  Only a caller
  that reads it gets one (``obs=True``, an :class:`ObsConfig`, or
  ``repro events``); ``REPRO_OBS=1`` records the metrics and timers a
  run ships, and no ring.  A run with a ring takes the scalar issue
  loop, so every transaction has its record.

**Overhead contract.** Observability is *off by default* (``REPRO_OBS=0``)
and every hook in the hot path is a single attribute load plus an
``is None`` test; ``repro bench`` measures the env-enabled-vs-disabled
overhead and fails when it reaches 10%.  With observability *on*, protocol
counters remain bit-identical to an untraced run — the hooks only read
simulation state, never mutate it (pinned by
``tests/obs/test_parity.py``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

from repro._lazy import lazy_names
from repro.obs.metrics import HistogramData, MetricsRegistry, record_run_metrics
from repro.obs.timers import PhaseTimers

if TYPE_CHECKING:
    from repro.obs.events import EventTrace

# The event trace is imported only where a ring is built.
__getattr__, __dir__ = lazy_names(__name__, globals(),
                                  {"EventTrace": "repro.obs.events"})

_TRUTHY = ("1", "true", "yes", "on")


@dataclass(frozen=True)
class ObsConfig:
    """What to observe, and how much to retain.

    ``enabled=False`` (the default, and ``REPRO_OBS=0``) turns every hook
    into a no-op.  An enabled session always records metrics and phase
    timers; ``events`` adds the per-transaction ring of ``ring_size``
    records.
    """

    enabled: bool = False
    events: bool = True        # per-transaction event trace
    ring_size: int = 4096      # events retained (oldest overwritten)

    @classmethod
    def from_env(cls, env=None) -> "ObsConfig":
        """``REPRO_OBS``: the metrics and timers a run ships, no ring.

        Nothing downstream of an env-enabled run reads a ring (pool
        workers ship ``RunResult.to_dict()``, which never carries one),
        so it is not built, and the run keeps the batched issue loop.
        """
        env = os.environ if env is None else env
        enabled = str(env.get("REPRO_OBS", "0")).lower() in _TRUTHY
        return cls(enabled=True, events=False) if enabled else cls()


class Observability:
    """One run's worth of observability state (metrics + timers + events)."""

    def __init__(self, config: Optional[ObsConfig] = None):
        self.config = config if config is not None else ObsConfig.from_env()
        enabled = self.config.enabled
        self.events: Optional[EventTrace] = None
        if enabled and self.config.events:
            from repro.obs.events import EventTrace

            self.events = EventTrace(capacity=self.config.ring_size)
        self.metrics: Optional[MetricsRegistry] = (
            MetricsRegistry() if enabled else None)
        self.timers: Optional[PhaseTimers] = (
            PhaseTimers() if enabled else None)

    @property
    def enabled(self) -> bool:
        return self.config.enabled


def resolve_obs(obs: Union[None, bool, ObsConfig, "Observability"]
                ) -> Optional[Observability]:
    """Normalize the ``obs=`` argument every entry point accepts.

    * ``None`` — consult the environment (``REPRO_OBS``); the common case,
      and free when the variable is unset.
    * ``False`` — force-disabled regardless of environment (timed bench
      regions use this so a stray ``REPRO_OBS=1`` cannot pollute numbers).
    * :class:`ObsConfig` / ``True`` — build a session from the config
      (``True`` means "all defaults, enabled", event ring included).
    * :class:`Observability` — use the session as-is (callers that want
      to accumulate across runs).
    """
    if obs is None:
        return Observability() if ObsConfig.from_env().enabled else None
    if obs is False:
        return None
    if obs is True:
        return Observability(ObsConfig(enabled=True))
    if isinstance(obs, ObsConfig):
        return Observability(obs) if obs.enabled else None
    return obs if obs.enabled else None


__all__ = [
    "EventTrace",
    "HistogramData",
    "MetricsRegistry",
    "ObsConfig",
    "Observability",
    "PhaseTimers",
    "record_run_metrics",
    "resolve_obs",
]

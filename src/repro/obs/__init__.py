"""``repro.obs``: zero-cost-when-off observability for the simulator.

Three independent facilities, bundled into one :class:`Observability`
session that the machine assembly threads through a run:

* :class:`~repro.obs.events.EventTrace` — a bounded ring buffer of
  structured per-transaction records (request -> directory actions ->
  message sequence -> granted state), with span-based 1-in-N sampling and
  JSONL export (``repro events``);
* :class:`~repro.obs.metrics.MetricsRegistry` — named, labeled counters
  and histograms unifying the ad-hoc :mod:`repro.stats` counters behind a
  mergeable wire form (per-worker registries are merged back across the
  experiment engine's process pool);
* :class:`~repro.obs.timers.PhaseTimers` — wall-clock phase timing
  (simulate, flush) surfaced as ``result.phase_seconds``.

**Overhead contract.** Observability is *off by default* (``REPRO_OBS=0``)
and every hook in the hot path is a single attribute load plus an
``is None`` test; ``repro bench`` measures the enabled-vs-disabled
overhead and fails when it reaches 10%.  With observability *on*, protocol
counters remain bit-identical to an untraced run — the hooks only read
simulation state, never mutate it (pinned by
``tests/obs/test_parity.py``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Union

from repro.obs.events import EventTrace
from repro.obs.metrics import HistogramData, MetricsRegistry, record_run_metrics
from repro.obs.timers import PhaseTimers

_TRUTHY = ("1", "true", "yes", "on")


@dataclass(frozen=True)
class ObsConfig:
    """What to observe, and how much to retain.

    ``enabled=False`` (the default, and ``REPRO_OBS=0``) turns every hook
    into a no-op; the remaining fields only matter when enabled.
    """

    enabled: bool = False
    events: bool = True        # per-transaction event trace
    metrics: bool = True       # labeled counter/histogram registry
    timers: bool = True        # wall-clock phase timers
    ring_size: int = 4096      # events retained (oldest overwritten)
    sample_every: int = 1      # keep 1-in-N transactions
    span_size: int = 1         # admit/skip in contiguous spans of K

    @classmethod
    def from_env(cls, env=None) -> "ObsConfig":
        """``REPRO_OBS`` / ``REPRO_OBS_RING`` / ``REPRO_OBS_SAMPLE`` /
        ``REPRO_OBS_SPAN``.

        Environment-enabled observability records the ring in sampled
        bursts by default (1-in-8 transactions, spans of 4): counters,
        metrics, and histograms stay *exact* regardless — sampling only
        thins the per-transaction record stream, which is what keeps the
        enabled tax under the 10%% budget ``repro bench`` enforces.  Set
        ``REPRO_OBS_SAMPLE=1`` for a full-fidelity ring (the
        ``ObsConfig`` constructor default, and what ``repro events``
        uses).
        """
        env = os.environ if env is None else env
        enabled = str(env.get("REPRO_OBS", "0")).lower() in _TRUTHY
        if not enabled:
            return cls()
        return cls(
            enabled=True,
            ring_size=max(1, int(env.get("REPRO_OBS_RING", "4096"))),
            sample_every=max(1, int(env.get("REPRO_OBS_SAMPLE", "8"))),
            span_size=max(1, int(env.get("REPRO_OBS_SPAN", "4"))),
        )


class Observability:
    """One run's worth of observability state (events + metrics + timers)."""

    def __init__(self, config: Optional[ObsConfig] = None):
        self.config = config if config is not None else ObsConfig.from_env()
        enabled = self.config.enabled
        self.events: Optional[EventTrace] = (
            EventTrace(capacity=self.config.ring_size,
                       sample_every=self.config.sample_every,
                       span=self.config.span_size)
            if enabled and self.config.events else None
        )
        self.metrics: Optional[MetricsRegistry] = (
            MetricsRegistry() if enabled and self.config.metrics else None
        )
        self.timers: Optional[PhaseTimers] = (
            PhaseTimers() if enabled and self.config.timers else None
        )

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
      (``True`` means "all defaults, enabled").
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

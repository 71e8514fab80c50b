"""Machine assembly: config -> protocol instance -> simulated run."""

from __future__ import annotations

from typing import Optional

from repro.coherence.mesi import MESIProtocol
from repro.coherence.protocol_base import CoherenceProtocol
from repro.coherence.protozoa_multi import ProtozoaMWProtocol, ProtozoaSWMRProtocol
from repro.coherence.protozoa_sw import ProtozoaSWProtocol
from repro.common.params import ProtocolKind, SystemConfig
from repro.obs import record_run_metrics, resolve_obs
from repro.system.results import RunResult
from repro.system._simulator import Simulator, Streams

_PROTOCOLS = {
    ProtocolKind.MESI: MESIProtocol,
    ProtocolKind.PROTOZOA_SW: ProtozoaSWProtocol,
    ProtocolKind.PROTOZOA_SW_MR: ProtozoaSWMRProtocol,
    ProtocolKind.PROTOZOA_MW: ProtozoaMWProtocol,
}


def build_protocol(config: SystemConfig) -> CoherenceProtocol:
    """Instantiate the protocol engine selected by ``config.protocol``."""
    return _PROTOCOLS[config.protocol](config)


def simulate(streams: Streams, config: SystemConfig,
             name: str = "", max_accesses: Optional[int] = None,
             obs=None, batch: Optional[bool] = None) -> RunResult:
    """Build a machine, run the streams through it, and package the result.

    ``streams`` is either per-core ``MemAccess`` iterables or a
    :class:`~repro.trace.packed.PackedTrace`; both replay identically
    (the packed form just skips per-event object construction).

    ``batch`` selects the batched issue loop for packed streams
    (:mod:`repro.system.batch`): ``None`` lets the trace decide,
    batching only traces long and reused enough to repay it, ``False``
    forces the scalar loop, ``True`` forces batch where eligible.
    Results are bit-identical either way.

    ``obs`` selects observability (:mod:`repro.obs`): ``None`` consults
    ``REPRO_OBS`` (default off — every hook is then a no-op), ``False``
    forces it off, and an :class:`~repro.obs.ObsConfig` or live
    :class:`~repro.obs.Observability` session enables it.  Enabled or
    not, the simulated counters are bit-identical; an enabled session
    additionally ships the event trace (``result.obs``), a metrics dump
    (``result.metrics``), and phase timings (``result.phase_seconds``).
    """
    session = resolve_obs(obs)
    protocol = build_protocol(config)
    simulator = Simulator(protocol, streams, obs=session, batch=batch)
    stats = simulator.run(max_accesses=max_accesses)
    result = RunResult(name=name, config=config, stats=stats, protocol=protocol)
    if session is not None:
        result.obs = session
        if session.metrics is not None:
            record_run_metrics(session.metrics, stats,
                               protocol=config.protocol.value,
                               workload=name or "unnamed")
            result.metrics = session.metrics.to_dict()
        if session.timers is not None:
            result.phase_seconds = session.timers.to_dict()
    return result

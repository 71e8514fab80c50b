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

    ``streams`` is a :class:`~repro.trace.packed.PackedTrace` or finite
    per-core ``MemAccess`` iterables, which the :class:`Simulator` packs
    on entry; a caller that replays one trace several times packs it
    once and passes the ``PackedTrace``.

    ``batch`` selects the batched issue loop (:mod:`repro.system.batch`):
    ``None`` lets the trace decide, batching only traces long and reused
    enough to repay it, ``False`` forces the scalar loop, ``True``
    forces batch where eligible.  Results are bit-identical either way.

    ``obs`` selects observability (:mod:`repro.obs`): ``None`` consults
    ``REPRO_OBS`` (default off — every hook is then a no-op), ``False``
    forces it off, and ``True``, an :class:`~repro.obs.ObsConfig` or a
    live :class:`~repro.obs.Observability` session enables it.  Enabled
    or not, the simulated counters are bit-identical; an enabled session
    additionally ships a metrics dump (``result.metrics``) and phase
    timings (``result.phase_seconds``), and the session itself
    (``result.obs``) holds the event ring when the caller asked for one.
    """
    session = resolve_obs(obs)
    protocol = build_protocol(config)
    simulator = Simulator(protocol, streams, obs=session, batch=batch)
    stats = simulator.run(max_accesses=max_accesses)
    result = RunResult(name=name, config=config, stats=stats, protocol=protocol)
    if session is not None:
        # resolve_obs hands back enabled sessions only, and an enabled
        # session always has metrics and timers.
        result.obs = session
        record_run_metrics(session.metrics, stats,
                           protocol=config.protocol.value,
                           workload=name or "unnamed")
        result.metrics = session.metrics.to_dict()
        result.phase_seconds = session.timers.to_dict()
    return result

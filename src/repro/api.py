"""The stable public API for the Protozoa reproduction.

Everything a script, notebook, or downstream harness should need lives
here; the deep module layout (``repro.system``, ``repro.experiments``,
``repro.trace``, ...) is an implementation detail that may move between
releases.  Import from :mod:`repro.api` (or from :mod:`repro`, which
re-exports the same surface) and nothing else::

    from repro.api import RunSpec, run, sweep

    mesi = run("linear-regression", protocol="mesi")
    mw = run("linear-regression", protocol="mw")
    print(mesi.mpki(), mw.mpki())

    grid = sweep(
        RunSpec(w, parse_protocol(p))
        for w in ("kmeans", "barnes") for p in ("mesi", "sw", "sw+mr", "mw")
    )

Layers
------
* configuration — :class:`SystemConfig` plus its enums and
  :func:`parse_protocol` for the CLI-style short names;
* one run — :func:`run` (by workload name) and :func:`simulate`
  (bring-your-own streams), both returning a :class:`RunResult`;
* many runs — :class:`RunSpec` grids through :func:`sweep`, which uses
  the cache-aware parallel :class:`ExperimentEngine`;
* traces — :func:`build_streams`, :func:`load_trace`,
  :func:`save_trace`, :func:`profile_streams`;
* observability — :class:`ObsConfig` / :class:`Observability`
  (see docs/observability.md), off by default and zero-cost when off;
* resilience — :class:`RetryPolicy` (engine retry/backoff/degradation),
  :class:`SweepJournal` (crash-resume), :class:`LeaseBoard` (multi-host
  work division), :class:`FaultPlan` (``REPRO_FAULTS`` chaos testing);
  see docs/resilience.md;
* storage — the :class:`BlobStore` interface with its :class:`FsStore`
  / :class:`HttpStore` backends and :func:`configure_store`, which
  points every cache this process builds (and every pool worker it
  forks) at one store URL; see docs/distributed.md.  A local tree is
  ``ResultCache(store=FsStore(path))``, never a bare path;
* the sweep service — :func:`serve` runs the HTTP/JSON-RPC front end
  with its durable job queue, :class:`ServiceClient` talks to one
  (``client.sweep(specs)`` is the remote equivalent of :func:`sweep`);
  see docs/service.md;
* machinery — :func:`build_machine` for direct protocol-engine access
  (walkthroughs, tests, model checking).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, Optional, Union

from repro._lazy import lazy_names
from repro.common.errors import (
    ConfigError,
    InvariantViolation,
    ProtocolError,
    ReproError,
    SimulationError,
)
from repro.common.params import (
    PROTOCOL_NAMES,
    CacheGeometry,
    L1Organization,
    L2Config,
    NetworkConfig,
    PredictorKind,
    ProtocolKind,
    SystemConfig,
    parse_protocol,
)
from repro.experiments._engine import ExperimentEngine, ResultCache, RunSpec
from repro.obs import ObsConfig, Observability
from repro.resilience import FaultPlan, RetryPolicy
from repro.store import BlobStore, FsStore, StoreError, configure_store, get_store
from repro.system.machine import build_protocol, simulate
from repro.system.results import RunResult
from repro.trace.events import MemAccess
from repro.trace.workloads import WORKLOADS, build_streams, get_workload

# The service, the remote store, multi-host leasing and trace profiling
# are bound on first access: a script that only runs and sweeps never
# compiles them (nor http.client and ssl, which the remote store needs).
__getattr__, __dir__ = lazy_names(__name__, globals(), {
    "HttpStore": "repro.store.http",
    "LeaseBoard": "repro.resilience.lease",
    "ServiceClient": "repro.service.client",
    "SweepJournal": "repro.resilience.journal",
    "SweepService": "repro.service.app",
    "TraceProfile": "repro.trace.analysis",
    "profile_streams": "repro.trace.analysis",
    "serve": "repro.service.app",
})


def build_machine(config: Optional[SystemConfig] = None,
                  protocol: Union[str, ProtocolKind] = ProtocolKind.MESI,
                  **overrides):
    """A ready-to-drive coherence engine (protocol + caches + network).

    Either pass a full :class:`SystemConfig`, or let one be assembled
    from ``protocol`` plus keyword overrides for any ``SystemConfig``
    field::

        engine = build_machine(protocol="mw", cores=8)
        engine.read(core=0, addr=0x1000, size=8, pc=0)
    """
    if config is None:
        config = SystemConfig(protocol=parse_protocol(protocol), **overrides)
    elif overrides:
        raise ConfigError("pass either a SystemConfig or field overrides, not both")
    return build_protocol(config)


def run(workload: str,
        protocol: Union[str, ProtocolKind] = ProtocolKind.MESI,
        *,
        cores: int = 16,
        per_core: int = 2000,
        seed: int = 0,
        block_bytes: Optional[int] = None,
        obs: Union[None, bool, ObsConfig, Observability] = None,
        max_accesses: Optional[int] = None,
        batch: Optional[bool] = None) -> RunResult:
    """Simulate one bundled workload under one protocol.

    The one-call entry point: builds the synthetic trace, the machine,
    and runs it.  ``obs=True`` (or an :class:`ObsConfig`) attaches an
    observability session whose event trace / metrics / phase timers
    land on the returned :class:`RunResult`.  ``batch`` selects the
    batched packed-trace issue loop (:mod:`repro.system.batch`):
    ``None`` lets the trace decide, batching only traces long and
    reused enough to repay it, ``False`` forces the scalar loop,
    ``True`` forces batching where eligible — counters are bit-identical
    either way.
    """
    spec = RunSpec(workload=workload, protocol=parse_protocol(protocol),
                   block_bytes=block_bytes, cores=cores,
                   per_core=per_core, seed=seed)
    streams = build_streams(workload, cores=cores, per_core=per_core,
                            seed=seed)
    return simulate(streams, spec.config(), name=workload,
                    max_accesses=max_accesses, obs=obs, batch=batch)


def _validate_specs(specs: Iterable[RunSpec]) -> list:
    """Materialize and eagerly validate a sweep's spec collection.

    The errors a grid-building script actually hits — passing one bare
    :class:`RunSpec` where an iterable is expected, a stray non-spec
    item, the same cell generated twice — surface here as one clear
    :class:`ConfigError` instead of a ``TypeError`` (or a silently
    collapsed duplicate) deep inside the engine.
    """
    if isinstance(specs, RunSpec):
        raise ConfigError(
            "sweep() expects an iterable of RunSpec but got a bare RunSpec "
            "— wrap it in a list: sweep([spec])")
    if isinstance(specs, (str, bytes, dict)):
        raise ConfigError(
            f"sweep() expects an iterable of RunSpec, "
            f"not {type(specs).__name__}")
    try:
        items = list(specs)
    except TypeError:
        raise ConfigError(
            f"sweep() expects an iterable of RunSpec, "
            f"not {type(specs).__name__}")
    first_seen: Dict[RunSpec, int] = {}
    for index, item in enumerate(items):
        if not isinstance(item, RunSpec):
            raise ConfigError(
                f"sweep() specs[{index}] is {type(item).__name__}, "
                "not RunSpec")
        if item in first_seen:
            raise ConfigError(
                f"sweep() specs[{index}] duplicates specs[{first_seen[item]}] "
                f"({item.payload()}) — each grid cell must appear once")
        first_seen[item] = index
    return items


def sweep(specs: Iterable[RunSpec],
          jobs: Optional[int] = None,
          engine: Optional[ExperimentEngine] = None) -> Dict[RunSpec, RunResult]:
    """Serve a grid of :class:`RunSpec` runs, in parallel where possible.

    Runs go through the cache-aware :class:`ExperimentEngine`: previously
    computed cells are served from the persistent result cache
    (``REPRO_CACHE_DIR``) and misses fan out across ``jobs`` worker
    processes.  Pass an existing ``engine`` to reuse its warm pool and
    metrics session across several sweeps.

    ``specs`` is validated eagerly: a bare :class:`RunSpec`, a non-spec
    item, or a duplicated cell raises :class:`ConfigError` before any
    simulation starts.
    """
    items = _validate_specs(specs)
    if engine is not None:
        return engine.run_many(items)
    with ExperimentEngine(jobs=jobs) as owned:
        return owned.run_many(items)


def load_trace(path: Union[str, Path]):
    """Per-core ``MemAccess`` streams from a trace file (see docs)."""
    from repro.trace.io import read_trace

    with open(path, "r", encoding="utf-8") as fh:
        return read_trace(fh)


def save_trace(streams, path: Union[str, Path]) -> int:
    """Write per-core streams to a replayable trace file; returns #records."""
    from repro.trace.io import write_trace

    with open(path, "w", encoding="utf-8") as fh:
        return write_trace(streams, fh)


__all__ = [
    # configuration
    "CacheGeometry",
    "L1Organization",
    "L2Config",
    "NetworkConfig",
    "PredictorKind",
    "PROTOCOL_NAMES",
    "ProtocolKind",
    "SystemConfig",
    "parse_protocol",
    # errors
    "ConfigError",
    "InvariantViolation",
    "ProtocolError",
    "ReproError",
    "SimulationError",
    # running
    "ExperimentEngine",
    "ResultCache",
    "RunResult",
    "RunSpec",
    "build_machine",
    "run",
    "simulate",
    "sweep",
    # traces & workloads
    "MemAccess",
    "TraceProfile",
    "WORKLOADS",
    "build_streams",
    "get_workload",
    "load_trace",
    "profile_streams",
    "save_trace",
    # observability
    "ObsConfig",
    "Observability",
    # resilience (fault injection, retries, crash-resume)
    "FaultPlan",
    "LeaseBoard",
    "RetryPolicy",
    "SweepJournal",
    # blob storage (docs/distributed.md)
    "BlobStore",
    "FsStore",
    "HttpStore",
    "StoreError",
    "configure_store",
    "get_store",
    # the sweep service (docs/service.md)
    "ServiceClient",
    "SweepService",
    "serve",
]

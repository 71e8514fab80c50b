"""Protozoa: adaptive granularity cache coherence (ISCA 2013) — reproduction.

A trace-driven multicore coherence simulator implementing the paper's full
system: the Amoeba-Cache variable-granularity L1 substrate, a conventional
MESI baseline, and the three Protozoa protocols (SW, SW+MR, MW), plus the
synthetic workload suite, statistics, and experiment harnesses that
regenerate every table and figure of the paper's evaluation.

The supported import surface is :mod:`repro.api`, re-exported here.

Quickstart::

    from repro.api import run

    mesi = run("linear-regression", protocol="mesi")
    mw = run("linear-regression", protocol="mw")
    print(mesi.mpki(), mw.mpki())  # Protozoa-MW eliminates the false sharing
"""

from repro.api import (
    PROTOCOL_NAMES,
    BlobStore,
    CacheGeometry,
    ConfigError,
    ExperimentEngine,
    FaultPlan,
    FsStore,
    HttpStore,
    InvariantViolation,
    LeaseBoard,
    L1Organization,
    L2Config,
    MemAccess,
    NetworkConfig,
    ObsConfig,
    Observability,
    PredictorKind,
    ProtocolError,
    ProtocolKind,
    ReproError,
    ResultCache,
    RetryPolicy,
    RunResult,
    RunSpec,
    ServiceClient,
    SimulationError,
    StoreError,
    SweepJournal,
    SweepService,
    SystemConfig,
    TraceProfile,
    WORKLOADS,
    build_machine,
    build_streams,
    configure_store,
    get_store,
    get_workload,
    load_trace,
    parse_protocol,
    profile_streams,
    run,
    save_trace,
    serve,
    simulate,
    sweep,
)

from repro._version import package_version

__version__ = package_version()

__all__ = [
    "BlobStore",
    "CacheGeometry",
    "ConfigError",
    "ExperimentEngine",
    "FaultPlan",
    "FsStore",
    "HttpStore",
    "InvariantViolation",
    "LeaseBoard",
    "L1Organization",
    "L2Config",
    "MemAccess",
    "NetworkConfig",
    "ObsConfig",
    "Observability",
    "PROTOCOL_NAMES",
    "PredictorKind",
    "ProtocolError",
    "ProtocolKind",
    "ReproError",
    "ResultCache",
    "RetryPolicy",
    "RunResult",
    "RunSpec",
    "ServiceClient",
    "SimulationError",
    "StoreError",
    "SweepJournal",
    "SweepService",
    "SystemConfig",
    "TraceProfile",
    "WORKLOADS",
    "build_machine",
    "build_streams",
    "configure_store",
    "get_store",
    "get_workload",
    "load_trace",
    "parse_protocol",
    "profile_streams",
    "run",
    "save_trace",
    "serve",
    "simulate",
    "sweep",
    "__version__",
]

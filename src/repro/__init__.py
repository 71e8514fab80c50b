"""Protozoa: adaptive granularity cache coherence (ISCA 2013) — reproduction.

A trace-driven multicore coherence simulator implementing the paper's full
system: the Amoeba-Cache variable-granularity L1 substrate, a conventional
MESI baseline, and the three Protozoa protocols (SW, SW+MR, MW), plus the
synthetic workload suite, statistics, and experiment harnesses that
regenerate every table and figure of the paper's evaluation.

The supported import surface is :mod:`repro.api`, re-exported here.
Each name (and ``__version__``) is bound on first access, so importing
a submodule such as ``repro.experiments.report`` loads only the layers
it runs, not the service, the remote stores or package metadata.

Quickstart::

    from repro.api import run

    mesi = run("linear-regression", protocol="mesi")
    mw = run("linear-regression", protocol="mw")
    print(mesi.mpki(), mw.mpki())  # Protozoa-MW eliminates the false sharing
"""

from repro._lazy import lazy_names

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

_api_getattr, __dir__ = lazy_names(__name__, globals(),
                                   dict.fromkeys(__all__, "repro.api"))


def __getattr__(name: str) -> object:
    if name == "__version__":
        from repro._version import package_version

        version = globals()["__version__"] = package_version()
        return version
    return _api_getattr(name)

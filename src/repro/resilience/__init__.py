"""``repro.resilience``: fault injection and resilient execution.

The experiment pipeline (engine, result cache, trace cache) must survive
the failures a long sweep on real hardware actually sees — a worker
process dying mid-chunk, a transient exception, a blob half-written by a
crash, a task stalling past its deadline — and still converge to
bit-identical results.  This package supplies both halves of that
guarantee:

* **fault injection** — :class:`~repro.resilience.faults.FaultPlan` /
  :class:`~repro.resilience.faults.FaultInjector`, a deterministic,
  seeded perturbation layer armed via ``REPRO_FAULTS`` that fires at
  well-defined sites inside the engine and caches (see
  docs/resilience.md for the grammar and fault-site catalogue);
* **recovery machinery** — :class:`~repro.resilience.retry.RetryPolicy`
  (per-task deadlines, bounded retries with a seeded exponential
  backoff schedule), automatic worker-pool rebuilds with graceful
  degradation to serial execution, crash-atomic writes
  (:mod:`~repro.resilience.storage`), corrupt-blob quarantine through
  the blob store (:meth:`repro.store.BlobStore.quarantine` — never
  silent deletion), and the
  :class:`~repro.resilience.journal.SweepJournal` that lets an
  interrupted sweep resume where it stopped (``--resume``);
* **operator tooling** — ``repro chaos``
  (:mod:`~repro.resilience.chaos`: run a sweep under a fault plan and
  assert the final matrix is bit-identical to a fault-free run) and
  ``repro doctor`` (:mod:`~repro.resilience.doctor`: the blob-store
  integrity audit, local tree or remote).

Every counter the machinery bumps lands in the process-wide
:func:`repro.obs.metrics.process_registry` or the engine's own
``MetricsRegistry``, so retries, rebuilds, degradations, and quarantines
are all visible through the existing observability surface.

:class:`SweepJournal` and the lease names are bound on first access:
only a journaled or shared sweep runs them.
"""

from repro._lazy import lazy_names
from repro.resilience.faults import (
    SITE_CACHE_CORRUPT,
    SITE_TASK_STALL,
    SITE_TRACE_CORRUPT,
    SITE_WORKER_EXC,
    SITE_WORKER_KILL,
    FAULT_SITES,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    TransientFault,
    get_injector,
    reset_injector,
)
from repro.resilience.retry import RetryPolicy
from repro.resilience.storage import durable_replace

__getattr__, __dir__ = lazy_names(__name__, globals(), {
    "LeaseBoard": "repro.resilience.lease",
    "SweepJournal": "repro.resilience.journal",
    "default_lease_ttl": "repro.resilience.lease",
    "lease_dir_for": "repro.resilience.lease",
})

__all__ = [
    "FAULT_SITES",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "LeaseBoard",
    "RetryPolicy",
    "SITE_CACHE_CORRUPT",
    "SITE_TASK_STALL",
    "SITE_TRACE_CORRUPT",
    "SITE_WORKER_EXC",
    "SITE_WORKER_KILL",
    "SweepJournal",
    "TransientFault",
    "default_lease_ttl",
    "durable_replace",
    "get_injector",
    "lease_dir_for",
    "reset_injector",
]

"""The content-addressed cache of packed workload traces.

Synthetic trace generation is deterministic in ``(workload, cores,
per_core, seed)``, so a trace only ever needs to be *generated* once —
every later run (in this process, in a pool worker, or next week)
replays the packed binary form instead of re-driving the pattern
generators.  The cache shares the result cache's pluggable blob store
(:mod:`repro.store`):

* **Key.** ``traces/<digest>.bin`` where the digest is sha256 of the
  sorted-key JSON of the recipe plus
  :data:`~repro.trace.packed.FORMAT_VERSION` — bumping the format
  version (or changing any recipe axis) addresses a different entry.
* **Location.** Whatever :func:`repro.store.get_store` resolves
  (``--store`` / ``REPRO_STORE``); the default ``FsStore`` keeps the
  historical tree — ``$REPRO_TRACE_CACHE_DIR`` if set, else ``traces/``
  under the result-cache root.  On a local store, reads keep the
  zero-copy mmap fast path; on an ``HttpStore`` the packed bytes are
  fetched and parsed in memory, so a fleet shares one warm trace cache.
* **Degradation.** A corrupt or truncated blob is a miss: the shared
  read policy of :class:`~repro.store.cache.BlobCache` quarantines it
  through the store and records the damage through
  :mod:`repro.resilience.log` (so rebuild storms are visible in the obs
  counters), then the trace is rebuilt from the generators and the
  entry rewritten (atomically and durably, so concurrent builders and
  mid-write kills never produce torn files).
* **Switch.** ``REPRO_CACHE=0`` disables it along with the result
  cache (:func:`~repro.store.cache.cache_enabled`).
* **Packed traces only.** Batch execution's derived columns are
  memoized on the trace object (:func:`repro.trace.derived.derived_for`),
  not stored.  ``.drv`` sidecars that older builds wrote beside the
  ``.bin`` are never read; ``repro doctor --prune-to-size`` reclaims them.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional

from repro.resilience.faults import SITE_TRACE_CORRUPT
from repro.store import NAMESPACE_TRACES, BlobStore
from repro.store.cache import BlobCache
from repro.trace.packed import FORMAT_VERSION, PackedTrace
from repro.trace.workloads import build_streams


def trace_digest(workload: str, cores: int, per_core: int, seed: int) -> str:
    recipe = {
        "format": FORMAT_VERSION,
        "workload": workload,
        "cores": cores,
        "per_core": per_core,
        "seed": seed,
    }
    blob = json.dumps(recipe, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


class TraceCache(BlobCache):
    """The packed-trace namespace of the blob store.

    Reads mmap the local blob when the store has one (``by_path``) and
    parse fetched bytes otherwise; ``built`` counts generator rebuilds.
    """

    namespace = NAMESPACE_TRACES
    suffix = ".bin"
    kind = "trace"
    event = "trace-cache-corrupt"
    message = "unreadable packed trace {key}; rebuilding"
    fault_site = SITE_TRACE_CORRUPT
    by_path = True

    def __init__(self, *, enabled: Optional[bool] = None,
                 store: Optional[BlobStore] = None):
        super().__init__(enabled=enabled, store=store)
        self.built = 0

    @staticmethod
    def key_for(workload: str, cores: int, per_core: int, seed: int) -> str:
        digest = trace_digest(workload, cores, per_core, seed)
        return f"{NAMESPACE_TRACES}/{digest}.bin"

    @staticmethod
    def decode(src) -> PackedTrace:
        if isinstance(src, Path):
            return PackedTrace.load(src)  # zero-copy mmap off the tree
        return PackedTrace.loads(src)

    def get(self, workload: str, cores: int, per_core: int,
            seed: int) -> Optional[PackedTrace]:
        return self.read(self.key_for(workload, cores, per_core, seed),
                         workload=workload)

    def put(self, trace: PackedTrace, workload: str, cores: int,
            per_core: int, seed: int) -> None:
        if not self.enabled:
            return
        self.store.put_blob(self.key_for(workload, cores, per_core, seed),
                            trace.dump)

    def get_or_build(self, workload: str, cores: int, per_core: int,
                     seed: int) -> PackedTrace:
        trace = self.get(workload, cores, per_core, seed)
        if trace is not None:
            return trace
        trace = PackedTrace.from_streams(
            build_streams(workload, cores=cores, per_core=per_core, seed=seed))
        self.built += 1
        self.put(trace, workload, cores, per_core, seed)
        return trace


def packed_streams(workload: str, cores: int = 16, per_core: int = 2000,
                   seed: int = 0,
                   cache: Optional[TraceCache] = None) -> PackedTrace:
    """The packed trace for one recipe, built at most once per cache.

    A fresh :class:`TraceCache` is consulted per call (construction is a
    couple of environment reads) so environment changes — notably the
    hermetic test fixtures — always take effect.
    """
    cache = cache if cache is not None else TraceCache()
    return cache.get_or_build(workload, cores=cores, per_core=per_core,
                              seed=seed)
